import gc
import hashlib
import json
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings

from dpllkit.dpll_proof import CONFLICT, Red, Split, Unit, check_dpll, dpll_size
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
from dpllkit.solver import solve, solve_aux

from oracle import brute_force_sat
from strategies import (
    checker_corpus,
    consistent_valuations,
    formulas,
    horn_chain,
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


def test_check_res_keeps_the_pivot_of_a_tautological_premise():
    # (1 | -1) and (1) resolve on 1 to (1), not to (): the left premise loses
    # only -1, so the satisfiable d0 has no refutation this way
    d0 = ((1, -1), (1,))
    assert check_res(d0, Res(1, Sub(1, (1, -1)), Sub(2, (1,)), (1,))).valid
    fake = Res(1, Sub(1, (1, -1)), Sub(2, (1,)), ())
    assert check_res(d0, fake).reason == "conclusion-mismatch"


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


def test_redundant_unit_under_red_resolves_on_its_literal():
    # Unit(1) with 1 already assumed: the Conflict leaf cites (-1), the
    # premise its () was reduced from, so the Unit resolves on 1
    g, d0 = (1,), ((-1,), (1,))
    p = Red((-1,), 1, Unit(1, CONFLICT))
    r = dpll_to_res(g, d0, p)
    assert r == Res(1, Sub(1, (-1,)), Sub(2, (1,)), ())
    assert check_res(d0, r).valid
    assert res_size(r) == 1 <= dpll_size(p)


def test_redundant_unit_keeps_the_pivot_of_a_tautological_premise():
    # the inner Unit(1) resolves on 1 with the leaf citing (1 | -1), which
    # loses only 1: the resolvent keeps -1 for the outer Unit to resolve
    d0 = ((1,), (-1,), (1, -1))
    p = Unit(1, Red((1, -1), 1, Unit(1, Red((-1,), 1, CONFLICT))))
    assert check_dpll((), d0, p).valid
    r = dpll_to_res((), d0, p)
    assert r == Res(1, Res(1, Sub(2, (-1,)), Sub(3, (1, -1)), (-1,)), Sub(1, (1,)), ())
    assert check_res(d0, r).valid
    assert res_size(r) == 2 <= dpll_size(p)


def test_reduct_recreated_in_a_left_branch_cites_the_outer_premise_on_the_right():
    # the outer Red makes (2) from (-1 | 2); the left branch's Unit(2) drops
    # it and its Red makes (2) again, from (2 | -3), only for that branch, so
    # the right branch's Unit(2) leaf cites (-1 | 2) and the refutation
    # concludes (), not (-3)
    d0 = ((1,), (-1, 2), (2, -3), (-2,))
    leaf = Unit(2, Red((-2,), 2, CONFLICT))
    p = Unit(1, Red((-1, 2), 1, Split(3, Unit(2, Red((2, -3), 3, leaf)), leaf)))
    r = dpll_to_res((), d0, p)
    assert r == Res(1, Res(2, Sub(4, (-2,)), Sub(2, (-1, 2)), (-1,)), Sub(1, (1,)), ())
    assert check_res(d0, r).valid


def shared_trace(n, premise_index=1):
    """Line 1 weakens premise ``premise_index`` to (1 -1 2); line i resolves
    line i-1 with itself on 1, so the n lines unfold into a tree of 2**(n-1)
    leaves."""
    return f"1 S {premise_index} 1 -1 2 0\n" + "".join(
        f"{i} R 1 {i - 1} {i - 1} 1 -1 2 0\n" for i in range(2, n + 1))


def unfolded_chain(n, premise_index=1):
    if n == 1:
        return Sub(premise_index, (1, -1, 2))
    return Res(1, unfolded_chain(n - 1, premise_index), unfolded_chain(n - 1, premise_index),
               (1, -1, 2))


def test_shared_nodes_are_checked_and_sized_once():
    r = parse_res(shared_trace(60))
    start = time.perf_counter()
    assert check_res(((1, 2),), r).valid
    assert res_size(r) == 2**59 - 1
    assert time.perf_counter() - start < 1.0


def test_shared_nodes_are_written_compared_and_hashed_once():
    # each result is named before it is asserted, so a failure's report
    # names the comparison that failed
    start = time.perf_counter()
    text = shared_trace(60)
    r, again, other = parse_res(text), parse_res(text), parse_res(shared_trace(60, 2))
    round_trips = serialize_res(r) == text
    assert round_trips
    equal = r == again
    assert equal
    hashes_equal = hash(r) == hash(again)
    assert hashes_equal
    differs = r != other  # only the deepest leaf differs
    assert differs
    unfolds = parse_res(shared_trace(6)) == unfolded_chain(6)
    assert unfolds
    assert time.perf_counter() - start < 1.0


def test_shared_nodes_repr_once():
    # a node with subderivations that repr has already spelled is "...", so
    # the 60 lines spell in linear text, not 2**59 leaves; leaves are spelled
    start = time.perf_counter()
    text = repr(parse_res(shared_trace(60)))
    assert time.perf_counter() - start < 1.0
    leaf, c = "Sub(premise_index=1, conclusion=(1, -1, 2))", "conclusion=(1, -1, 2)"
    assert text == ("Res(pivot=1, left=" * 59 + f"{leaf}, right={leaf}, {c})"
                    + f", right=..., {c})" * 58)


def met_again(shared):
    """Two steps that each cite the leaf ``s``, the second beside a leaf
    citing no premise of ``((1, 2),)``: the walk meets ``s`` again at path
    (1, 0), skips it, and reports the other leaf at (1, 1).  Unless
    ``shared``, each citation of ``s`` is its own copy."""
    c = (1, -1, 2)
    s = [Sub(1, c)] * 3 if shared else [Sub(1, c) for _ in range(3)]
    return Res(1, Res(1, s[0], s[1], c), Res(1, s[2], Sub(2, c), c), c)


# case -> (shared derivation, unfolded tree), size, (reason, path) of the report
SHARED_CASES = {
    "1": (lambda: (parse_res(shared_trace(6, 1)), unfolded_chain(6, 1)), 31, (None, ())),
    "2": (lambda: (parse_res(shared_trace(6, 2)), unfolded_chain(6, 2)), 31,
          ("premise-index", (0, 0, 0, 0, 0))),
    "met-again": (lambda: (met_again(True), met_again(False)), 3, ("premise-index", (1, 1))),
}


@pytest.mark.parametrize("case", SHARED_CASES)
def test_shared_nodes_report_as_the_unfolded_tree(case):
    build, size, (reason, path) = SHARED_CASES[case]
    shared, unfolded = build()
    assert res_size(shared) == res_size(unfolded) == size
    report = check_res(((1, 2),), shared)
    assert (report.reason, report.path) == (reason, path)
    assert repr(report) == repr(check_res(((1, 2),), unfolded))


def test_translation_leaves_no_cyclic_garbage():
    # the Split's right branch refutes without its literal, so the
    # translation drops the left branch's scratch tree
    d0 = ((-1, 2), (-2,), (2, 3), (-3,))
    dropped = Split(1, Red((-1, 2), 1, Unit(2, Red((-2,), 2, CONFLICT))),
                    Unit(-3, Red((2, 3), -3, Unit(2, Red((-2,), 2, CONFLICT)))))
    cases = [(d0, dropped)]
    for d in (gen_php(PhpSpec(5, 4)), horn_chain(200, True)):
        cases.append((d, solve(d).proof))
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for d, p in cases:
            assert check_res(d, dpll_to_res((), d, p)).valid
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def test_refute_php_2_1():
    r = dpll_to_res((), PHP21, solve(PHP21).proof)
    assert res_conclusion(r) == ()
    assert res_size(r) <= 4


def test_refute_sat_passthrough():
    v = solve(gen_php(PhpSpec(2, 2)))
    assert v.satisfiable
    assert v.proof is None


def test_refute_single_empty_clause():
    r = dpll_to_res((), ((),), solve(((),)).proof)
    assert r == Sub(1, ())
    assert res_size(r) == 0


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
    assert set(res_conclusion(r)) <= {-l for l in g}
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
    # the Red that turns the next implication into a unit clause.
    assert sys.getrecursionlimit() <= 1000
    n = 100_000
    d0 = ((1,),) + tuple((-i, i + 1) for i in range(1, n)) + ((-n,),)
    proof = Unit(n, Red((-n,), n, CONFLICT))
    for i in range(n - 1, 0, -1):
        proof = Unit(i, Red((-i, i + 1), i, proof))
    text = serialize_dpll(proof)
    parsed = parse_dpll(text)
    assert parsed == proof and serialize_dpll(parsed) == text
    assert check_dpll((), d0, parsed).valid
    r = dpll_to_res((), d0, parsed)
    assert res_size(r) == n
    assert res_conclusion(r) == ()
    res_text = serialize_res(r)
    reparsed = parse_res(res_text)
    assert reparsed == r and serialize_res(reparsed) == res_text
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
