import random

import pytest
from hypothesis import given, settings

from dpllkit.cnf import negate_valuation
from dpllkit.dpll_proof import CONFLICT, Red, Split, Unit, check_dpll, dpll_size
from dpllkit.oracle import brute_force_sat
from dpllkit.php import PhpSpec, gen_php
from dpllkit.resolution import (
    InvalidDerivation,
    Res,
    Sub,
    _index,
    _lift,
    _res,
    _sub,
    check_res,
    dpll_to_res,
    res_conclusion,
    res_size,
)
from dpllkit.solver import refute, solve, solve_aux

from strategies import consistent_valuations, formulas, random_formula

PHP21 = gen_php(PhpSpec(2, 1))
PHP21_DPLL = Unit(1, Unit(2, Red((-1, -2), 1, Red((-2,), 2, CONFLICT))))

# hand-derived 2-step refutation of PHP(2,1)
PHP21_RES = Res(
    1,
    Res(2, Sub(3, (-1, -2)), Sub(2, (2,)), (-1,)),
    Sub(1, (1,)),
    (),
)


def test_res_size():
    assert res_size(Sub(1, (1,))) == 0
    assert res_size(Res(1, Sub(1, (1,)), Sub(2, (-1,)), ())) == 1
    assert res_size(PHP21_RES) == 2


def test_res_conclusion():
    assert res_conclusion(Sub(1, (1, 2))) == (1, 2)
    assert res_conclusion(PHP21_RES) == ()


def test_check_res_valid_php_2_1():
    assert check_res(PHP21, PHP21_RES).valid


def test_check_res_premise_index():
    r = check_res(PHP21, Sub(0, ()))
    assert r.reason == "premise-index"
    r = check_res(PHP21, Sub(4, ()))
    assert r.reason == "premise-index"


def test_check_res_subsumption():
    r = check_res(((1,),), Sub(1, ()))
    assert r.reason == "subsumption"
    assert check_res(((1,),), Sub(1, (1, 2))).valid


def test_check_res_pivot_and_conclusion():
    bad_left = Res(1, Sub(1, (1,)), Sub(1, (1,)), (1,))
    assert check_res(((1,),), bad_left).reason == "pivot-not-in-left"
    bad_right = Res(1, Sub(1, (-1,)), Sub(1, (-1,)), ())
    assert check_res(((-1,),), bad_right).reason == "pivot-not-in-right"
    bad_conclusion = Res(1, Sub(1, (-1,)), Sub(2, (1,)), (2,))
    assert check_res(((-1,), (1,)), bad_conclusion).reason == "conclusion-mismatch"


def test_dpll_to_res_php_2_1_matches_hand_trace():
    r = dpll_to_res((), PHP21, PHP21_DPLL)
    assert r == PHP21_RES
    assert res_size(r) == 2 <= dpll_size(PHP21_DPLL)
    assert check_res(PHP21, r).valid


def test_dpll_to_res_conflict_leaf():
    r = dpll_to_res((1, 2), ((),), CONFLICT)
    assert r == Sub(1, ())
    assert res_size(r) == 0


def test_dpll_to_res_split():
    d0 = ((1,), (-1,))
    v = solve(d0)
    assert not v.satisfiable
    r = dpll_to_res((), d0, v.proof)
    assert res_conclusion(r) == ()
    assert res_size(r) <= dpll_size(v.proof)
    assert check_res(d0, r).valid


def test_dpll_to_res_rejects_invalid_input():
    with pytest.raises(InvalidDerivation):
        dpll_to_res((), PHP21, Unit(-1, CONFLICT))


def _indexed(node, premises):
    return _index(node, {c: i + 1 for i, c in enumerate(premises)})


def test_lift_repoints_matching_leaf():
    lifted = _lift(_sub((-21,), (-21,)), (-21,), (-11, -21), -11)
    assert _indexed(lifted, ((-11, -21),)) == Sub(1, (-11, -21))


def test_lift_leaves_unrelated_proof_alone():
    d = _sub((2,), (2,))
    assert _lift(d, (1,), (1, 3), 3) is d


def test_lift_res_node_gains_at_most_added():
    d = _res(1, _sub((-1, 2), (-1, 2)), _sub((1,), (1,)))
    lifted = _lift(d, (-1, 2), (-1, 2, 3), 3)
    assert res_size(_indexed(lifted, ((-1, 2, 3), (1,)))) == res_size(_indexed(d, ((-1, 2), (1,))))
    assert set(lifted.conclusion) <= set(d.conclusion) | {3}
    new_premises = ((-1, 2, 3), (1,))
    assert check_res(new_premises, _indexed(lifted, new_premises)).valid


def test_refute_php_2_1():
    v = refute(PHP21)
    assert not v.satisfiable
    assert res_conclusion(v.proof) == ()
    assert res_size(v.proof) <= 4


def test_refute_sat_passthrough():
    f = gen_php(PhpSpec(2, 2))
    v = refute(f)
    assert v.satisfiable
    assert v.proof is None


def test_refute_single_empty_clause():
    v = refute(((),))
    assert not v.satisfiable
    assert v.proof == Sub(1, ())
    assert res_size(v.proof) == 0


def test_size_bound_on_php_family():
    for n in range(1, 5):
        f = gen_php(PhpSpec(n + 1, n))
        v = solve(f)
        r = dpll_to_res((), f, v.proof)
        assert check_res(f, r).valid
        assert res_conclusion(r) == ()
        assert res_size(r) <= dpll_size(v.proof)


@given(formulas)
@settings(max_examples=200, deadline=None)
def test_translation_properties_on_random_instances(d):
    v = solve(d)
    if v.satisfiable:
        return
    r = dpll_to_res((), d, v.proof)
    assert check_res(d, r).valid
    assert res_conclusion(r) == ()
    assert res_size(r) <= dpll_size(v.proof)
    # semantic soundness of the checked refutation
    assert not brute_force_sat(d).satisfiable


@given(consistent_valuations, formulas)
@settings(max_examples=150, deadline=None)
def test_conclusion_subset_of_negated_valuation(g, d):
    v = solve_aux(g, d)
    if v.satisfiable:
        return
    assert check_dpll(g, d, v.proof).valid
    r = dpll_to_res(g, d, v.proof)
    assert set(res_conclusion(r)) <= set(negate_valuation(g))
    assert check_res(d, r).valid
    assert res_size(r) <= dpll_size(v.proof)


def test_size_bound_on_seeded_unsat_corpus():
    rng = random.Random(11)
    found = 0
    while found < 60:
        d = random_formula(rng)
        v = solve(d)
        if v.satisfiable:
            continue
        found += 1
        r = dpll_to_res((), d, v.proof)
        assert check_res(d, r).valid
        assert res_size(r) <= dpll_size(v.proof)
