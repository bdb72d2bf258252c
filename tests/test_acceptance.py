"""Acceptance gate: end-to-end checks over the PHP family, random corpora,
the oracle, both checkers, the translator, and the serializers.

Each test prints a single ``criterion N ... PASS`` / ``FAIL`` line (visible
with ``pytest -s`` or on failure).  Corpora are cached at module level so the
later criteria re-examine exactly the derivations produced by the earlier
ones.
"""

import itertools
import random
import time
from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

from dpllkit.cnf import evaluate
from dpllkit.dimacs import emit_dimacs, parse_dimacs
from dpllkit.dpll_proof import Conflict, Red, Unit, check_dpll, dpll_size
from dpllkit.oracle import brute_force_sat, compatible
from dpllkit.php import PhpSpec, gen_php
from dpllkit.proof_text import parse_dpll, parse_res, serialize_dpll, serialize_res
from dpllkit.resolution import Res, Sub, check_res, dpll_to_res, res_size
from dpllkit.solver import SolverConfig, solve

from strategies import clause_mutants, dpll_nodes, dpll_put, mutate_dpll, random_formula

DATA = Path(__file__).parent / "data"

WITNESS = SolverConfig(mode="witness")
DECIDE = SolverConfig(mode="decide")
CHECKED = SolverConfig(mode="witness", assert_measure=True)


@contextmanager
def criterion(n: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"criterion {n} ({desc}): FAIL", flush=True)
        raise
    print(f"criterion {n} ({desc}): PASS", flush=True)


# ---------------------------------------------------------------- corpora

@lru_cache(maxsize=None)
def php_results():
    """Witness-mode verdicts for the whole PHP grid 1 <= n,m <= 5."""
    out = {}
    for n in range(1, 6):
        for m in range(1, 6):
            out[(n, m)] = (gen_php(PhpSpec(n, m)), solve(gen_php(PhpSpec(n, m))))
    return out


@lru_cache(maxsize=None)
def unsat_corpus():
    """500 random unsatisfiable CNFs (<=8 vars, <=20 clauses) with their
    witness verdicts."""
    rng = random.Random(20240)
    out = []
    while len(out) < 500:
        d = random_formula(rng, max_var=8, max_clauses=20, max_clause_len=3)
        if not solve(d, DECIDE):
            out.append((d, solve(d)))
    return out


@lru_cache(maxsize=None)
def rand_corpus():
    """1000 random CNFs (<=8 vars, <=12 clauses) with witness verdicts."""
    rng = random.Random(40961)
    out = []
    for _ in range(1000):
        d = random_formula(rng, max_var=8, max_clauses=12, max_clause_len=3)
        out.append((d, solve(d)))
    return out


@lru_cache(maxsize=None)
def res_corpus():
    """Resolution translations of the unsat corpus derivations."""
    return [(d, dpll_to_res((), d, v.proof)) for d, v in unsat_corpus()]


def _verify(d, v):
    if v.satisfiable:
        assert evaluate(v.model, d)
    else:
        assert check_dpll((), d, v.proof).valid


# ------------------------------------------------------------- criteria

def test_criterion_1_php_truth_table():
    with criterion(1, "PHP grid sat iff n <= m, evidence verified"):
        start = time.perf_counter()
        for (n, m), (d, v) in php_results().items():
            assert v.satisfiable == (n <= m), (n, m)
            _verify(d, v)
        assert time.perf_counter() - start < 60


def test_criterion_2_golden_php_2_1():
    with criterion(2, "golden PHP(2,1) derivation, byte-exact"):
        d = gen_php(PhpSpec(2, 1))
        v = solve(d)
        assert not v.satisfiable
        p = v.proof
        assert isinstance(p, Unit)
        assert isinstance(p.sub, Unit)
        assert isinstance(p.sub.sub, Red)
        assert isinstance(p.sub.sub.sub, Red)
        assert isinstance(p.sub.sub.sub.sub, Conflict)
        assert dpll_size(p) == 4
        golden = (DATA / "php_2_1.dpll").read_bytes()
        assert serialize_dpll(p).encode() == golden


def test_criterion_3_translation_size_bound():
    with criterion(3, "res_size <= dpll_size, check_res valid"):
        for n in range(1, 5):
            d = gen_php(PhpSpec(n + 1, n))
            v = solve(d)
            r = dpll_to_res((), d, v.proof)
            assert check_res(d, r).valid
            assert res_size(r) <= dpll_size(v.proof)
        for (d, v), (_, r) in zip(unsat_corpus(), res_corpus()):
            assert check_res(d, r).valid
            assert res_size(r) <= dpll_size(v.proof)
        d21 = gen_php(PhpSpec(2, 1))
        r21 = dpll_to_res((), d21, solve(d21).proof)
        assert res_size(r21) == 2


def test_criterion_4_oracle_differential():
    with criterion(4, "1000 random CNFs agree with the oracle, both modes"):
        start = time.perf_counter()
        for d, v in rand_corpus():
            expected = brute_force_sat(d).satisfiable
            assert v.satisfiable == expected
            assert solve(d, DECIDE) == expected
            _verify(d, v)
        assert time.perf_counter() - start < 120


def test_criterion_5_soundness_cross_check():
    with criterion(5, "valid derivations have incompatible root contexts"):
        seen = set()
        for d, v in itertools.chain(php_results().values(), unsat_corpus(),
                                    rand_corpus()):
            if v.satisfiable or d in seen:
                continue
            seen.add(d)
            assert check_dpll((), d, v.proof).valid
            assert not compatible((), d).satisfiable
        assert seen


# ------------------------------------------------- criterion 6 mutation kit

def _res_nodes(p, path=()):
    yield path, p
    if isinstance(p, Res):
        yield from _res_nodes(p.left, path + (0,))
        yield from _res_nodes(p.right, path + (1,))


def _res_put(p, path, new):
    if not path:
        return new
    if path[0] == 0:
        return replace(p, left=_res_put(p.left, path[1:], new))
    return replace(p, right=_res_put(p.right, path[1:], new))


def _mutate_res(node, rng, npremises):
    if isinstance(node, Sub):
        if rng.random() < 0.5:
            idx = rng.choice((0, npremises + 1, node.premise_index % npremises + 1))
            return replace(node, premise_index=idx)
        return replace(node, conclusion=rng.choice(clause_mutants(node.conclusion, rng)))
    return rng.choice((
        replace(node, pivot=-node.pivot),
        Res(node.pivot, node.right, node.left, node.conclusion),
        replace(node, conclusion=rng.choice(clause_mutants(node.conclusion, rng))),
    ))


def _mutation_pool():
    pool = [(gen_php(PhpSpec(2, 1)),), (gen_php(PhpSpec(3, 2)),)]
    pool = [(d, solve(d).proof) for (d,) in pool]
    pool += [(d, v.proof) for d, v in unsat_corpus()[:30]]
    return pool


def test_criterion_6_checker_robustness():
    with criterion(6, "single-node mutations rejected with accurate paths"):
        rng = random.Random(606)
        pool = _mutation_pool()

        rejected = accepted = 0
        for _ in range(100):
            d, p = rng.choice(pool)
            spots = list(dpll_nodes(p))
            path, node = rng.choice(spots)
            mutant = dpll_put(p, path, mutate_dpll(node, rng))
            r = check_dpll((), d, mutant)
            if r.valid:
                accepted += 1
                assert not compatible((), d).satisfiable
            else:
                rejected += 1
                # failures surface at the mutated node or inside its subtree
                assert r.path[:len(path)] == path, (r, path)
        assert rejected > 0

        res_pool = [(d, dpll_to_res((), d, p)) for d, p in pool]
        rejected = accepted = 0
        for _ in range(100):
            d, p = rng.choice(res_pool)
            spots = list(_res_nodes(p))
            path, node = rng.choice(spots)
            mutant = _res_put(p, path, _mutate_res(node, rng, len(d)))
            r = check_res(d, mutant)
            if r.valid:
                accepted += 1
                # a valid derivation's conclusion is entailed by the premises
                negated = tuple(-l for l in mutant.conclusion)
                assert not compatible(negated, d).satisfiable
            else:
                rejected += 1
                # failures surface on the path to the mutation (a changed
                # conclusion is caught at the nearest ancestor resolvent)
                assert path[:len(r.path)] == r.path, (r, path)
        assert rejected > 0


def test_criterion_7_measure_instrumentation():
    with criterion(7, "criteria 1-4 workloads pass with assert_measure"):
        for n in range(1, 6):
            for m in range(1, 6):
                solve(gen_php(PhpSpec(n, m)), CHECKED)
        for d, _ in unsat_corpus():
            solve(d, CHECKED)
        for d, _ in rand_corpus():
            solve(d, CHECKED)
            solve(d, SolverConfig(mode="decide", assert_measure=True))


def test_criterion_8_decide_vs_witness():
    with criterion(8, "PHP(6,5): decide wall-clock <= witness wall-clock"):
        d = gen_php(PhpSpec(6, 5))

        def best_of(cfg, runs=3):
            times = []
            for _ in range(runs):
                t0 = time.perf_counter()
                v = solve(d, cfg)
                times.append(time.perf_counter() - t0)
                assert (v.satisfiable if cfg.mode == "witness" else v) is False
            return min(times)

        assert best_of(DECIDE) <= best_of(WITNESS)


def test_criterion_9_round_trips():
    with criterion(9, "1000 derivations and formulae round-trip bit-exactly"):
        rng = random.Random(909)
        total = 0
        for d, _ in rand_corpus()[:334]:
            assert parse_dimacs(emit_dimacs(d)) == d
            total += 1
        for d, v in unsat_corpus()[:333]:
            text = serialize_dpll(v.proof)
            assert parse_dpll(text) == v.proof
            assert serialize_dpll(parse_dpll(text)) == text
            total += 1
        for _, r in res_corpus()[:333]:
            text = serialize_res(r)
            assert parse_res(text) == r
            assert serialize_res(parse_res(text)) == text
            total += 1
        assert total == 1000
