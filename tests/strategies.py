"""Shared hypothesis strategies, seeded random generators, the proof mutation
kits and the seeded corpora behind the recorded digest files."""

import random
from dataclasses import replace
from functools import cache

from hypothesis import strategies as st

from dpllkit.cnf import Assignment, canonical_clause, canonical_formula, canonical_valuation
from dpllkit.dpll_proof import CONFLICT, Conflict, Split, Unit
from dpllkit.php import PhpSpec, gen_php
from dpllkit.resolution import Res
from dpllkit.solver import solve, solve_aux

MAX_VAR = 8

variables = st.integers(min_value=1, max_value=MAX_VAR)
literals = st.builds(lambda v, neg: -v if neg else v, variables, st.booleans())
clauses = st.lists(literals, max_size=5).map(canonical_clause)
formulas = st.lists(clauses, max_size=10).map(canonical_formula)
valuations = st.lists(literals, max_size=6).map(canonical_valuation)
consistent_valuations = st.dictionaries(variables, st.booleans(), max_size=6).map(
    lambda d: canonical_valuation(v if b else -v for v, b in d.items()))
assignments = st.builds(Assignment, st.dictionaries(variables, st.booleans()))


def random_formula(rng: random.Random, max_var: int = 8, max_clauses: int = 12,
                   max_clause_len: int = 3):
    """Small random CNF, biased toward short clauses so unsatisfiable
    instances are common."""
    nclauses = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(nclauses):
        length = rng.randint(1, max_clause_len)
        clause = []
        for _ in range(length):
            v = rng.randint(1, max_var)
            clause.append(v if rng.random() < 0.5 else -v)
        clauses.append(clause)
    return canonical_formula(clauses)


def random_3sat(rng: random.Random, n: int, m: int):
    """``m`` clauses over three distinct variables of ``1..n``, random signs."""
    return tuple(tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
                 for _ in range(m))


def horn_chain(n: int, unsat: bool):
    """``1``, ``-i | i+1`` for i < n, and ``-n`` when ``unsat``."""
    return ((1,),) + tuple((-i, i + 1) for i in range(1, n)) + (((-n,),) if unsat else ())


# Single-node mutations of DPLL derivations (acceptance criterion 6).

def dpll_nodes(p, path=()):
    yield path, p
    if isinstance(p, Split):
        yield from dpll_nodes(p.left, path + (0,))
        yield from dpll_nodes(p.right, path + (1,))
    elif not isinstance(p, Conflict):
        yield from dpll_nodes(p.sub, path + (0,))


def unshared(p):
    """A copy of the derivation ``p`` with a fresh node for each occurrence
    of each rule application: the unfolded tree, in which no Split occurs
    twice.  Built bottom-up with an explicit stack, so any depth is fine."""
    values = []
    stack = [(p, False)]
    while stack:
        node, children_done = stack.pop()
        if isinstance(node, Conflict):
            values.append(node)
        elif not children_done:
            stack.append((node, True))
            stack += ([(node.right, False), (node.left, False)] if isinstance(node, Split)
                      else [(node.sub, False)])
        elif isinstance(node, Split):
            right = values.pop()
            values[-1] = Split(node.lit, values[-1], right)
        else:
            values[-1] = replace(node, sub=values[-1])
    return values[0]


def split_chain(n):
    """The DPLL text in which Split k's left branch is Split k-1 and its
    right branch cites it as #(k-1): linear in n, for an unfolded tree of
    2^n - 1 Splits."""
    text = "(split 1 conflict conflict)"
    for k in range(2, n + 1):
        text = f"(split {k} {text} #{k - 1})"
    return text


def dpll_put(p, path, new):
    if not path:
        return new
    if isinstance(p, Split):
        if path[0] == 0:
            return replace(p, left=dpll_put(p.left, path[1:], new))
        return replace(p, right=dpll_put(p.right, path[1:], new))
    return replace(p, sub=dpll_put(p.sub, path[1:], new))


def _bump(lit):
    return lit + 1 if lit != -1 else 1


def clause_mutants(c, rng):
    out = []
    if c:
        i = rng.randrange(len(c))
        out.append(tuple(l for j, l in enumerate(c) if j != i))
        out.append(tuple(-l if j == i else l for j, l in enumerate(c)))
    out.append(c + (9,))
    return out


def mutate_dpll(node, rng):
    if isinstance(node, Conflict):
        return Unit(rng.choice((1, -1, 2)), CONFLICT)
    if isinstance(node, Unit):
        return replace(node, lit=rng.choice((-node.lit, _bump(node.lit))))
    if isinstance(node, Split):
        return rng.choice((replace(node, lit=-node.lit),
                           Split(node.lit, node.right, node.left)))
    # Elim or Red: perturb the literal or the clause payload
    if rng.random() < 0.5:
        return replace(node, lit=rng.choice((-node.lit, _bump(node.lit))))
    return replace(node, clause=rng.choice(clause_mutants(node.clause, rng)))


# Single-node mutations of resolution derivations.

def res_nodes(r, path=()):
    yield path, r
    if isinstance(r, Res):
        yield from res_nodes(r.left, path + (0,))
        yield from res_nodes(r.right, path + (1,))


def res_put(r, path, new):
    if not path:
        return new
    if path[0] == 0:
        return replace(r, left=res_put(r.left, path[1:], new))
    return replace(r, right=res_put(r.right, path[1:], new))


def mutate_res(node, rng):
    if rng.random() < 0.4:
        return replace(node, conclusion=rng.choice(clause_mutants(node.conclusion, rng)))
    if isinstance(node, Res):
        return rng.choice((replace(node, pivot=-node.pivot),
                           replace(node, pivot=_bump(node.pivot)),
                           Res(node.pivot, node.right, node.left, node.conclusion)))
    return replace(node, premise_index=node.premise_index + rng.choice((-1, 1, 7)))


# The characters other than \n and \r at which str.splitlines breaks; the
# line formats read them as whitespace.
OTHER_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


# Single-edit mutations of proof texts.

TEXT_CHARS = "()[]-019 \nxSRc"
DPLL_TOKENS = ("(unit", "(elim", "(red", "(split", "conflict", "(", ")", "[", "]", "0", "7",
               "-3", "(x", "#", "#0", "#1", "#x")
RES_TOKENS = ("S", "R", "0", "1", "12", "-2", "c", "x", "\n")


def mutate_text(text, tokens, rng):
    """Truncate ``text``, delete one character, or insert a character or a
    token, at a random offset."""
    at = rng.randint(0, len(text))
    kind = rng.randrange(4)
    if kind == 0:
        return text[:at]
    if kind == 1:
        return text[:at] + text[at + 1:]
    if kind == 2:
        return text[:at] + rng.choice(TEXT_CHARS) + text[at:]
    return text[:at] + rng.choice(("", " ")) + rng.choice(tokens) + rng.choice(("", " ")) + text[at:]


# Seeded corpora behind tests/data/checker_digests.json and the digest files
# of tests/test_resolution.py and tests/test_proof_text.py.

@cache
def checker_corpus():
    """(name, valuation, formula, derivation) entries, all from fixed seeds:
    refutations of PHP(k+1,k) for k <= 4, of 200 random unsatisfiable CNFs
    and of 100 random CNFs under nonempty valuations, then 400 mutants of the
    PHP proofs and 2000 of the others."""
    sources = []
    for k in range(1, 5):
        d = gen_php(PhpSpec(k + 1, k))
        sources.append((f"php-{k + 1}-{k}", (), d, solve(d).proof))
    rng = random.Random(31)
    while len(sources) < 4 + 200:
        d = random_formula(rng, max_var=8, max_clauses=20, max_clause_len=3)
        v = solve(d)
        if not v.satisfiable:
            sources.append((f"unsat-{len(sources) - 4}", (), d, v.proof))
    while len(sources) < 4 + 200 + 100:
        g = tuple(dict.fromkeys(v if rng.random() < 0.5 else -v
                                for v in rng.sample(range(1, 9), rng.randint(1, 4))))
        d = random_formula(rng)
        v = solve_aux(g, d)
        if not v.satisfiable:
            sources.append((f"aux-{len(sources) - 204}", g, d, v.proof))
    corpus = list(sources)
    for i in range(2400):
        name, g, d, p = sources[i % 4] if i < 400 else rng.choice(sources[4:])
        path, node = rng.choice(list(dpll_nodes(p)))
        corpus.append((f"{name}~{i}", g, d, dpll_put(p, path, mutate_dpll(node, rng))))
    return corpus
