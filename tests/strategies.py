"""Shared hypothesis strategies, seeded random generators and the DPLL proof
mutation kit."""

import random
from dataclasses import replace

from hypothesis import strategies as st

from dpllkit.cnf import Assignment, canonical_clause, canonical_formula, canonical_valuation
from dpllkit.dpll_proof import CONFLICT, Conflict, Split, Unit

MAX_VAR = 8

variables = st.integers(min_value=1, max_value=MAX_VAR)
literals = st.builds(lambda v, neg: -v if neg else v, variables, st.booleans())
clauses = st.lists(literals, max_size=5).map(canonical_clause)
formulas = st.lists(clauses, max_size=10).map(canonical_formula)
valuations = st.lists(literals, max_size=6).map(canonical_valuation)
consistent_valuations = st.dictionaries(variables, st.booleans(), max_size=6).map(
    lambda d: canonical_valuation(v if b else -v for v, b in d.items()))
assignments = st.builds(Assignment, st.dictionaries(variables, st.booleans()), st.booleans())


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
