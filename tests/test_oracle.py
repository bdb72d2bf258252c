import pytest
from hypothesis import given, settings

from dpllkit.cnf import Assignment, evaluate
from dpllkit.php import PhpSpec, gen_php

from oracle import OracleCapExceeded, brute_force_sat, compatible
from strategies import formulas


def test_empty_formula_is_satisfiable():
    v = brute_force_sat(())
    assert v.satisfiable
    assert v.witness == Assignment({})


def test_empty_clause_is_unsatisfiable():
    assert not brute_force_sat(((),)).satisfiable


def test_php_2_1_is_unsatisfiable():
    assert not brute_force_sat(gen_php(PhpSpec(2, 1))).satisfiable


def test_compatible_direct_contradiction():
    assert not compatible((1,), ((-1,),)).satisfiable


def test_compatible_inconsistent_valuation():
    assert not compatible((1, -1), ((1,),)).satisfiable
    assert not compatible((1, -1), ()).satisfiable


def test_compatible_witness_respects_valuation():
    v = compatible((1,), ((1, 2),))
    assert v.satisfiable
    assert evaluate(v.witness, 1)
    assert evaluate(v.witness, ((1, 2),))


@given(formulas)
@settings(max_examples=200)
def test_brute_force_equals_compatible_with_empty_valuation(d):
    assert brute_force_sat(d) == compatible((), d)


@given(formulas)
@settings(max_examples=200)
def test_witness_satisfies_formula(d):
    v = brute_force_sat(d)
    if v.satisfiable:
        assert evaluate(v.witness, d)


def test_deterministic_witness():
    d = ((1, 2), (-1, 3), (2, -3))
    assert brute_force_sat(d) == brute_force_sat(d)


def test_enumeration_order_prefers_false():
    # both polarities satisfy; the all-false assignment comes first
    v = brute_force_sat(((1, -1),))
    assert v.witness.values == {1: False}


def test_monotone_unsat_under_clause_addition():
    g = (1,)
    d = ((-1,),)
    assert not compatible(g, d).satisfiable
    assert not compatible(g, d + ((2, 3),)).satisfiable


def test_cap_exceeded():
    d = tuple((v,) for v in range(1, 30))
    with pytest.raises(OracleCapExceeded) as e:
        brute_force_sat(d)
    assert e.value.nvars == 29


def test_cap_argument_overrides_default():
    assert brute_force_sat(((1,), (2,)), cap=2).satisfiable
    with pytest.raises(OracleCapExceeded):
        brute_force_sat(((1,), (2,)), cap=1)
