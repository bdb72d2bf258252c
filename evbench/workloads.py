"""Seeded instance sets of the evidence-pipeline benchmark.

Every workload is a list of instances plus a small warm-up instance.  The
generators build clause lists here; the library receives only the DIMACS text
that ``emit_dimacs`` makes of them.  ``--seed`` fixes the op order and, for
rand3-mixed, the polarity of every variable, so one seed always yields the
same DIMACS bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Case:
    """One generated formula with its parameters and known answer."""

    name: str
    params: dict
    clauses: tuple
    expect: Optional[bool]  # known satisfiability; None when not known


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tail_pct: int  # percentile reported as verify_tail_s (see README.md)
    build: Callable  # (dpllkit module, seed) -> (cases, warm-up case, probes)


def php_cases(dk, seed):
    # PHP(7,6) is left out: one op takes about 9 s, so a run would hold only
    # a couple of them.  Three sizes keep the median on the middle one.
    cases = [Case(f"php-{k + 1}-{k}", {"pigeons": k + 1, "holes": k},
                  dk.gen_php(dk.PhpSpec(k + 1, k)), False) for k in (3, 4, 5)]
    return _shuffled(cases, seed), cases[0], []


def horn_chain(n: int, unsat: bool) -> Case:
    """``1``, ``-i | i+1`` for i < n, and ``-n`` when ``unsat``."""
    clauses = [(1,)] + [(-i, i + 1) for i in range(1, n)]
    if unsat:
        clauses.append((-n,))
    kind = "unsat" if unsat else "sat"
    return Case(f"horn-{kind}-{n}", {"n": n, "variant": kind}, tuple(clauses), not unsat)


# Sizes on which the search exhausts the recursion limit today.  They are not
# ops (every op of a workload must be able to succeed); each run probes them
# once, untimed, and records the outcome.
HORN_PROBES = ((200, False), (1000, False), (1000, True))


def horn_cases(dk, seed):
    cases = [horn_chain(n, unsat) for n in (50, 100, 150) for unsat in (False, True)]
    cases.append(horn_chain(200, True))
    probes = [horn_chain(n, unsat) for n, unsat in HORN_PROBES]
    return _shuffled(cases, seed), cases[0], probes


RAND3_VARS = 40
RAND3_CLAUSES = round(4.26 * RAND3_VARS)
RAND3_COUNT = 10
RAND3_CORPUS_SEED = 1


def random_3sat(rng: random.Random, n: int, m: int) -> tuple:
    """``m`` clauses over three distinct variables of ``1..n``, random signs."""
    return tuple(tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
                 for _ in range(m))


def flip(clauses: tuple, negate: set) -> tuple:
    return tuple(tuple(-l if abs(l) in negate else l for l in c) for c in clauses)


def rand3_cases(dk, seed):
    # The clause structure comes from one fixed corpus seed: at n=40 ten fresh
    # instances per seed differ up to 2.5x in total solve time, which would
    # swamp any change a run is meant to detect.  The run seed negates a
    # random set of variables in every instance.  That changes the text but
    # not the search: clause order and literal order (by variable) stay put,
    # so each step of the solver meets the mirrored literal.
    corpus = random.Random(RAND3_CORPUS_SEED)
    rng = random.Random(seed)
    cases = []
    for i in range(RAND3_COUNT):
        clauses = random_3sat(corpus, RAND3_VARS, RAND3_CLAUSES)
        negate = {v for v in range(1, RAND3_VARS + 1) if rng.random() < 0.5}
        params = {"n": RAND3_VARS, "m": RAND3_CLAUSES, "corpus_seed": RAND3_CORPUS_SEED,
                  "index": i, "negated": len(negate)}
        cases.append(Case(f"rand3-{i}", params, flip(clauses, negate), None))
    warm = Case("rand3-warm", {"n": 20, "m": 85, "corpus_seed": RAND3_CORPUS_SEED},
                flip(random_3sat(corpus, 20, 85), negate), None)
    return _shuffled(cases, seed), warm, []


def _shuffled(cases: list, seed: int) -> list:
    out = list(cases)
    random.Random(f"order-{seed}").shuffle(out)
    return out


WORKLOADS = {w.name: w for w in (
    Workload("php-refute",
             "unsat PHP(k+1,k), k=3..5: bushy Split-rich proofs, so checking, "
             "translating and parsing proofs outweigh the search",
             84, php_cases),
    Workload("rand3-mixed",
             "random 3-SAT at n=40, m=170: half sat, half unsat and heavy-tailed, "
             "so the search's sat path runs beside its refutation path",
             65, rand3_cases),
    Workload("horn-chain",
             "Horn chains n=50..200, sat and unsat: deep linear Unit proofs and a "
             "search quadratic in move steps, so the solver does nearly all the work",
             96, horn_cases),
)}
