import itertools

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from dpllkit import cnf
from dpllkit.cnf import (
    Assignment,
    canonical_clause,
    canonical_formula,
    evaluate,
    is_consistent,
    lit_key,
    literals_outside,
    measure,
    vars_of,
    weight,
)
from dpllkit.dimacs import emit_dimacs, parse_dimacs
from dpllkit.dpll_proof import check_dpll
from dpllkit.php import PhpSpec, gen_php
from dpllkit.resolution import Sub, check_res, dpll_to_res
from dpllkit.solver import SolverConfig, solve

from strategies import assignments, clauses, formulas, horn_chain, literals, valuations


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
    assert evaluate(m, l) == (not evaluate(m, -l))


@given(assignments, formulas)
@example(Assignment({}), ())
@example(Assignment({}), ((),))
@example(Assignment({1: False}), ((1, 2), (-2,)))
@example(Assignment({1: False}), ((-1, 3), (1, -3)))
def test_evaluate_formula_by_literal_values(m, d):
    # a formula holds iff each clause has a literal the assignment makes
    # true; variables the assignment leaves out are true
    assert evaluate(m, d) == all(any(m.lit_value(l) for l in c) for c in d)


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


# few variables, so that lists repeat literals and hold complementary pairs
crowded_literals = st.integers(-4, 4).filter(bool)


@given(st.lists(crowded_literals, max_size=12))
def test_canonical_clause_is_the_lit_key_order(lits):
    assert canonical_clause(lits) == tuple(sorted(set(lits), key=lit_key))


def test_canonical_clause_puts_each_variable_before_its_complement():
    assert canonical_clause([2, -1, 1, 2, -2]) == (1, -1, 2, -2)


def old_canonical_formula(clauses):
    return tuple(dict.fromkeys(tuple(sorted(set(c), key=lit_key)) for c in clauses))


@given(st.lists(st.lists(crowded_literals, max_size=5), max_size=10))
def test_canonical_formula_of_tuples_lists_and_generators(raw):
    expected = old_canonical_formula(raw)
    as_tuples = tuple(map(tuple, raw))
    for given_form in (raw, as_tuples, (c for c in raw)):
        out = canonical_formula(given_form)
        assert out == expected and hash(out) == hash(expected) and repr(out) == repr(expected)
    assert canonical_formula(expected) == expected


def test_canonical_formulas_pass_through():
    text = emit_dimacs(horn_chain(20, True))
    for f in (canonical_formula([[2, 1], [1, 2], [-1]]), parse_dimacs(text),
              gen_php(PhpSpec(3, 2))):
        assert canonical_formula(f) is f


def count_canonical_clause(monkeypatch) -> list:
    """Replace ``cnf.canonical_clause``, the name ``canonical_formula`` looks
    up, by a counting wrapper; returns the one-element count."""
    calls = [0]
    real = cnf.canonical_clause

    def counted(lits):
        calls[0] += 1
        return real(lits)

    monkeypatch.setattr(cnf, "canonical_clause", counted)
    return calls


def test_a_parsed_formula_is_canonicalized_once(monkeypatch):
    calls = count_canonical_clause(monkeypatch)
    text = emit_dimacs(horn_chain(200, True))
    d = parse_dimacs(text)
    assert calls[0] == len(d) == 201
    calls[0] = 0
    v = solve(d)
    assert solve(d, SolverConfig(mode="decide")) is False
    assert check_dpll((), d, v.proof).valid
    r = dpll_to_res((), d, v.proof)
    assert check_res(d, r).valid
    assert dpll_to_res((), d, solve(d).proof) == r
    assert calls[0] == 0


def test_stages_canonicalize_what_they_are_given():
    d = parse_dimacs(emit_dimacs(horn_chain(200, True)))
    # the same formula as lists, literals reversed, one clause given twice
    # (the second time with a repeated literal)
    loose = [list(reversed(c)) for c in d]
    loose.insert(5, [d[4][1], d[4][0], d[4][1]])
    assert canonical_formula(loose) == d
    p = solve(d).proof
    r = dpll_to_res((), d, p)
    assert dpll_to_res((), loose, p) == r
    assert check_dpll((), loose, p) == check_dpll((), d, p)
    assert check_res(loose, r) == check_res(d, r)
    # failing reports carry the canonical formula in their context
    bad = p.sub
    assert not check_dpll((), d, bad).valid
    assert check_dpll((), loose, bad) == check_dpll((), d, bad)
    wrong_premise = Sub(2, ())
    assert not check_res(d, wrong_premise).valid
    assert check_res(loose, wrong_premise) == check_res(d, wrong_premise)


@given(assignments)
def test_assignment_default_polarity(m):
    missing = 99  # outside every generated values map
    assert evaluate(m, missing) and not evaluate(m, -missing)
