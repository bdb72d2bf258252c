import hashlib
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from dpllkit.cnf import negate_valuation
from dpllkit.dpll_proof import CONFLICT, Red, Split, Unit, check_dpll, dpll_size
from dpllkit.oracle import brute_force_sat
from dpllkit.php import PhpSpec, gen_php
from dpllkit.proof_text import parse_dpll, parse_res, serialize_dpll, serialize_res
from dpllkit.resolution import (
    InvalidDerivation,
    Res,
    Sub,
    check_res,
    dpll_to_res,
    res_conclusion,
    res_size,
)
from dpllkit.solver import refute, solve, solve_aux

from strategies import (
    checker_corpus,
    consistent_valuations,
    formulas,
    mutate_res,
    random_formula,
    res_nodes,
    res_put,
)

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


def test_red_with_uncited_reduct_leaves_translation_alone():
    g, d0 = (1,), ((-1, 2), ())
    r = dpll_to_res(g, d0, Red((-1, 2), 1, CONFLICT))
    assert r == dpll_to_res(g, d0, CONFLICT) == Sub(2, ())


def test_red_repoints_leaf_citing_its_reduct():
    assert dpll_to_res((1,), ((-1,),), Red((-1,), 1, CONFLICT)) == Sub(1, (-1,))


def test_red_lift_gains_at_most_the_removed_literal():
    g = (-3, -2)
    inner = Unit(1, Red((-1, 2), 1, Red((2,), -2, CONFLICT)))
    before = dpll_to_res(g, ((-1, 2), (1,)), inner)
    d0 = ((-1, 2, 3), (1,))
    after = dpll_to_res(g, d0, Red((-1, 2, 3), -3, inner))
    assert after == Res(1, Sub(1, (-1, 2, 3)), Sub(2, (1,)), (2, 3))
    assert res_size(after) == res_size(before) == 1
    assert set(after.conclusion) <= set(before.conclusion) | {3}
    assert check_res(d0, after).valid


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


def test_deep_pipeline_at_default_recursion_limit():
    # (1), (-i | i+1) for i < n, (-n), refuted by n Units each followed by
    # the Red that turns the next implication into a unit clause.  Trees
    # this deep are compared by text, since dataclass == recurses.
    assert sys.getrecursionlimit() <= 1000
    n = 100_000
    d0 = ((1,),) + tuple((-i, i + 1) for i in range(1, n)) + ((-n,),)
    proof = Unit(n, Red((-n,), n, CONFLICT))
    for i in range(n - 1, 0, -1):
        proof = Unit(i, Red((-i, i + 1), i, proof))
    text = serialize_dpll(proof)
    parsed = parse_dpll(text)
    assert serialize_dpll(parsed) == text
    assert check_dpll((), d0, parsed).valid
    r = dpll_to_res((), d0, parsed)
    assert res_size(r) == n
    assert res_conclusion(r) == ()
    res_text = serialize_res(r)
    reparsed = parse_res(res_text)
    assert serialize_res(reparsed) == res_text
    assert check_res(d0, reparsed).valid


# Report identity of check_res.  tests/data/res_check_digests.json records
# the SHA-256 of repr(check_res(...)) (validity, path, reason and context)
# for seeded single-node mutants of the translations of the valid
# derivations in checker_corpus().  A change made on purpose regenerates the
# file with ``python tests/test_resolution.py`` (``src`` on PYTHONPATH).

RES_CHECK_DIGESTS = Path(__file__).parent / "data" / "res_check_digests.json"


def res_check_corpus():
    """(name, formula, resolution derivation) entries: 2000 single-node
    mutants of the translations, from a fixed seed."""
    valid = [(name, g, d, p) for name, g, d, p in checker_corpus() if check_dpll(g, d, p).valid]
    translations = {}
    rng = random.Random(41)
    corpus = []
    for i in range(2000):
        name, g, d, p = rng.choice(valid)
        if name not in translations:
            translations[name] = dpll_to_res(g, d, p)
        r = translations[name]
        path, node = rng.choice(list(res_nodes(r)))
        corpus.append((f"{name}#{i}", d, res_put(r, path, mutate_res(node, rng))))
    return corpus


def res_check_digest(d, r):
    return hashlib.sha256(repr(check_res(d, r)).encode()).hexdigest()


def test_check_res_reports_match_recorded_digests():
    recorded = json.loads(RES_CHECK_DIGESTS.read_text())
    corpus = res_check_corpus()
    assert [name for name, *_ in corpus] == list(recorded)
    rejected = 0
    for name, d, r in corpus:
        assert res_check_digest(d, r) == recorded[name], name
        rejected += not check_res(d, r).valid
    assert rejected >= 1500


if __name__ == "__main__":
    digests = {name: res_check_digest(d, r) for name, d, r in res_check_corpus()}
    RES_CHECK_DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {RES_CHECK_DIGESTS}", file=sys.stderr)
