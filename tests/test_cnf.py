import itertools

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dpllkit.cnf import (
    Assignment,
    canonical_clause,
    canonical_formula,
    complement,
    evaluate,
    is_consistent,
    literals_outside,
    measure,
    negate_valuation,
    vars_of,
    weight,
)
from dpllkit.php import PhpSpec, gen_php

from strategies import assignments, clauses, formulas, literals, valuations


def test_complement_flips_polarity():
    assert complement(3) == -3
    assert complement(-3) == 3
    assert complement(complement(7)) == 7


@given(literals)
def test_complement_is_an_involution(l):
    assert complement(complement(l)) == l


def test_vars_of():
    assert vars_of((1, -2)) == {1, 2}
    assert vars_of(((1,), (-1,))) == {1}
    assert vars_of(()) == set()


def test_is_consistent():
    assert is_consistent((1, 2))
    assert not is_consistent((1, -1))
    assert is_consistent(())


def test_evaluate():
    m = Assignment({1: True})
    assert evaluate(m, ((1, -2),))
    assert not evaluate(Assignment({}), ((1,), ()))
    assert evaluate(Assignment({}), ())


@given(assignments, literals)
def test_model_property(m, l):
    assert evaluate(m, l) == (not evaluate(m, complement(l)))


def test_literals_outside():
    assert literals_outside(((1,), (-1,)), set()) == {1, -1}
    assert literals_outside(((1,), (-1,)), {1}) == set()
    assert literals_outside(((1, -2),), {2}) == {1}


def test_weight():
    assert weight(()) == 0
    assert weight(((1,), (-1, 2))) == 3
    assert weight(gen_php(PhpSpec(2, 1))) == 4


def test_measure():
    assert measure((), ((1,), (-1,)), ()) == 4
    assert measure((1,), ((1,), (-1,)), ()) == 2
    assert measure((), (), ()) == 0


@given(formulas, formulas)
def test_measure_symmetric_for_disjoint_formulas(d, t):
    t = tuple(c for c in t if c not in d)
    g = ()
    assert measure(g, d, t) == measure(g, t, d)


@given(valuations, formulas, formulas)
def test_move_keeps_measure(g, d, t):
    # a move takes the head clause of d to t, or drops it when t has it: the
    # measure stays, or falls by the clause's weight, while len(d) falls
    assume(d)
    c, rest = d[0], d[1:]
    if c in t:
        assert measure(g, rest, t) == measure(g, d, t) - len(c)
    else:
        assert measure(g, rest, t + (c,)) == measure(g, d, t)


def test_negate_valuation():
    assert negate_valuation((1, 2)) == (-1, -2)
    assert negate_valuation(()) == ()
    assert negate_valuation((-3,)) == (3,)


def test_canonical_clause():
    assert canonical_clause([2, 1, 2]) == (1, 2)
    assert canonical_clause([]) == ()
    assert canonical_clause([-1, 1]) == (1, -1)


@given(st.lists(literals, max_size=6))
def test_canonical_clause_idempotent_and_order_insensitive(lits):
    c = canonical_clause(lits)
    assert canonical_clause(c) == c
    for perm in itertools.islice(itertools.permutations(lits), 24):
        assert canonical_clause(perm) == c


def test_canonical_formula_drops_set_equal_duplicates():
    assert canonical_formula([[1, 2], [2, 1], [1]]) == ((1, 2), (1,))


@given(assignments)
def test_assignment_default_polarity(m):
    missing = 99  # outside every generated values map
    assert evaluate(m, missing) == m.default
