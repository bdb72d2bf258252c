"""Shared hypothesis strategies and seeded random generators."""

import random

from hypothesis import strategies as st

from dpllkit.cnf import Assignment, canonical_clause, canonical_formula, canonical_valuation

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
