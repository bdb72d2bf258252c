import ast
import copy
import hashlib
import importlib
import json
import pickle
import sys
import time
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings

from dpllkit import dpll_proof
from dpllkit.cnf import canonical_formula
from dpllkit.dpll_proof import (
    CONFLICT,
    CheckReport,
    Conflict,
    Elim,
    Red,
    Split,
    Unit,
    VALID,
    WalkLimitExceeded,
    check_dpll,
    dpll_size,
)
from dpllkit.php import PhpSpec, gen_php
from dpllkit.proof_text import parse_dpll, parse_res, serialize_dpll, serialize_res
from dpllkit.resolution import InvalidDerivation, Res, Sub, check_res, dpll_to_res, res_size
from dpllkit.solver import solve

from oracle import compatible
from strategies import (checker_corpus, cited_late, dag_grafts, dpll_nodes, dpll_put, elim_texts,
                        formulas, premise_chain, split_chain, unclean_chain, unshared, wide_chain)

PHP21 = gen_php(PhpSpec(2, 1))

# the refutation of PHP(2,1): two unit propagations, two reductions, conflict
PHP21_PROOF = Unit(1, Unit(2, Red((-1, -2), 1, Red((-2,), 2, CONFLICT))))


def test_dpll_size():
    assert dpll_size(CONFLICT) == 0
    assert dpll_size(Unit(1, CONFLICT)) == 1
    assert dpll_size(PHP21_PROOF) == 4


def test_split_size_is_one_plus_children():
    a = Unit(1, CONFLICT)
    b = Red((-2,), 2, CONFLICT)
    assert dpll_size(Split(3, a, b)) == 1 + dpll_size(a) + dpll_size(b)


def test_size_is_a_count_of_the_unfolded_rule_applications():
    # the size a node is built with counts the non-Conflict nodes of its
    # unfolded tree, for the solver's shared derivations and their parses
    for k in range(1, 7):
        p = solve(gen_php(PhpSpec(k + 1, k))).proof
        for proof in (p, parse_dpll(serialize_dpll(p))):
            tree = unshared(proof)
            count = sum(not isinstance(node, Conflict) for _, node in dpll_nodes(tree))
            assert dpll_size(proof) == dpll_size(tree) == count


def test_a_split_chain_is_sized_at_once():
    # 60 Splits, each citing the one before twice: 2^60 - 1 unfolded Splits
    start = time.perf_counter()
    assert dpll_size(parse_dpll(split_chain(60))) == 2**60 - 1
    assert time.perf_counter() - start < 1.0


def test_a_rebuilt_node_has_the_size_of_its_new_fields():
    unit, split = Unit(1, CONFLICT), Split(1, CONFLICT, CONFLICT)
    assert (unit.size, replace(unit, sub=PHP21_PROOF).size, replace(unit, lit=2).size) == (1, 5, 1)
    assert replace(split, left=PHP21_PROOF).size == 5
    assert replace(split, right=split).size == 2
    res = Res(1, Sub(1, (-1,)), Sub(2, (1,)), ())
    assert (res.size, replace(res, left=res).size) == (1, 2)
    for node in (PHP21_PROOF, split, res, CONFLICT):
        for again in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert again == node and again.size == node.size


def test_a_report_is_true_exactly_when_valid():
    bad_dpll = Unit(2, CONFLICT)
    bad_res = Res(1, Sub(1, (1,)), Sub(1, (1,)), ())
    reports = [check_dpll((), PHP21, PHP21_PROOF), check_dpll((), PHP21, bad_dpll),
               check_res(PHP21, dpll_to_res((), PHP21, PHP21_PROOF)), check_res(PHP21, bad_res)]
    assert [report.valid for report in reports] == [True, False, True, False]
    for report in reports:
        assert bool(report) is report.valid


def test_php_2_1_proof_is_valid():
    assert check_dpll((), PHP21, PHP21_PROOF).valid


def test_conflict_axiom():
    assert check_dpll((), ((),), CONFLICT).valid


def test_conflict_requires_empty_clause():
    r = check_dpll((), ((1,),), CONFLICT)
    assert not r.valid
    assert r.reason == "conflict-empty-clause-missing"


def test_mutated_unit_literal_is_rejected():
    mutated = Unit(-1, PHP21_PROOF.sub)
    r = check_dpll((), PHP21, mutated)
    assert not r.valid
    assert r.reason == "unit-clause-missing"
    assert r.path == ()


def test_failure_path_points_at_the_offending_node():
    mutated = Unit(1, Unit(-2, PHP21_PROOF.sub.sub))
    r = check_dpll((), PHP21, mutated)
    assert not r.valid
    assert r.path == (0,)
    assert r.reason == "unit-clause-missing"


def test_inconsistent_initial_valuation():
    r = check_dpll((1, -1), ((),), CONFLICT)
    assert not r.valid
    assert r.reason == "inconsistent-context"


def test_split_child_inconsistency_detected():
    # left branch assumes 1 on top of valuation (-1,)
    proof = Split(1, CONFLICT, CONFLICT)
    r = check_dpll((-1,), ((),), proof)
    assert not r.valid
    assert r.path == (0,)
    assert r.reason == "inconsistent-context"


def test_split_right_child_inconsistency_detected():
    # the right branch assumes -1 on top of valuation (1,)
    r = check_dpll((1,), ((),), Split(1, CONFLICT, CONFLICT))
    assert (r.valid, r.path, r.reason) == (False, (1,), "inconsistent-context")


def test_repeated_assignment_is_tolerated():
    # re-adding a literal already present is harmless
    proof = Unit(1, Unit(2, Red((-1, -2), 1, Red((-2,), 2, CONFLICT))))
    g0 = (1,)
    d0 = ((1,), (2,), (-1, -2))
    assert check_dpll(g0, d0, proof).valid


def test_elim_side_conditions():
    d0 = ((1, 2), ())
    assert check_dpll((1,), d0, Elim((1, 2), 1, CONFLICT)).valid
    assert check_dpll((1,), d0, Elim((1, 2), 2, CONFLICT)).reason == "elim-literal-not-in-valuation"
    assert check_dpll((3,), d0, Elim((1, 2), 3, CONFLICT)).reason == "elim-literal-not-in-clause"
    assert check_dpll((1,), d0, Elim((1, 3), 1, CONFLICT)).reason == "elim-clause-missing"


def test_red_side_conditions():
    d0 = ((-1, 2), (2,))
    # reducing (-1, 2) under valuation (1,) leaves (2,), no conflict available
    r = check_dpll((1,), d0, Red((-1, 2), 1, CONFLICT))
    assert r.reason == "conflict-empty-clause-missing"
    assert check_dpll((2,), d0, Red((-1, 2), 2, CONFLICT)).reason == "red-complement-not-in-clause"
    assert check_dpll((1,), d0, Red((-1, 3), 1, CONFLICT)).reason == "red-clause-missing"
    assert check_dpll((), d0, Red((-1, 2), 1, CONFLICT)).reason == "red-literal-not-in-valuation"


def test_red_reduct_enables_conflict():
    d0 = ((-1,),)
    assert check_dpll((1,), d0, Red((-1,), 1, CONFLICT)).valid


def test_red_with_a_repeated_literal_is_missing_from_the_formula():
    # formula clauses are duplicate-free, so such a Red is rejected before its
    # reduct (the clause less one copy of the literal) is built
    r = check_dpll((1,), ((-1,),), Red((-1, -1), 1, CONFLICT))
    assert r == CheckReport(False, (), "red-clause-missing", ((1,), ((-1,),)))


def _unit_chain(n, last):
    """``Unit(1, Unit(2, ... Unit(last, Red((-n,), n, CONFLICT))))``."""
    proof = Red((-n,), n, CONFLICT)
    proof = Unit(last, proof)
    for i in range(n - 1, 0, -1):
        proof = Unit(i, proof)
    return proof


def test_deep_unit_chain_checks_without_recursion():
    assert sys.getrecursionlimit() <= 1000
    n = 100_000
    d = tuple((i,) for i in range(1, n + 1)) + ((-n,),)
    assert check_dpll((), d, _unit_chain(n, n)).valid
    r = check_dpll((), d, _unit_chain(n, n + 1))
    assert r.reason == "unit-clause-missing"
    assert len(r.path) == n - 1


def test_deep_derivations_compare_and_hash_without_recursion():
    assert sys.getrecursionlimit() <= 1000
    n = 100_000
    p = _unit_chain(n, n)
    q = parse_dpll(serialize_dpll(p))
    assert p is not q and p == q and hash(p) == hash(q)
    assert p != _unit_chain(n, n + 1)
    r = Sub(1, (-1,))
    for _ in range(n):
        r = Res(1, r, Sub(2, (1,)), ())
    reparsed = parse_res(serialize_res(r))
    assert r == reparsed and hash(r) == hash(reparsed)
    assert r != Res(1, r.left, Sub(2, (2,)), ())


def test_deep_derivations_repr_without_recursion():
    assert sys.getrecursionlimit() <= 1000
    n = 100_000
    text = repr(_unit_chain(n, n))
    assert text.startswith("Unit(lit=1, sub=Unit(lit=2, sub=")
    assert text.endswith(f"Unit(lit={n}, sub=Red(clause=(-{n},), lit={n}, sub=Conflict()))"
                         + ")" * (n - 1))
    assert text.count("Unit(") == n
    r = Sub(1, (-1,))
    for _ in range(n):
        r = Res(1, r, Sub(2, (1,)), ())
    text = repr(r)
    assert text.startswith("Res(pivot=1, left=" * n + "Sub(premise_index=1, conclusion=(-1,)), ")
    assert text.endswith(", right=Sub(premise_index=2, conclusion=(1,)), conclusion=())")
    assert text.count("Res(") == n


def test_repr_is_the_dataclass_text():
    assert repr(PHP21_PROOF) == ("Unit(lit=1, sub=Unit(lit=2, sub=Red(clause=(-1, -2), lit=1, "
                                 "sub=Red(clause=(-2,), lit=2, sub=Conflict()))))")
    assert repr(Res(1, Sub(1, (-1,)), Sub(2, (1,)), ())) == (
        "Res(pivot=1, left=Sub(premise_index=1, conclusion=(-1,)), "
        "right=Sub(premise_index=2, conclusion=(1,)), conclusion=())")
    assert repr(Split(-3, CONFLICT, Elim((3, 4), 3, CONFLICT))) == (
        "Split(lit=-3, left=Conflict(), right=Elim(clause=(3, 4), lit=3, sub=Conflict()))")


# each node class with its field names, in order, and one set of field values
NODE_CLASSES = [
    (Conflict, (), ()),
    (Unit, ("lit", "sub"), (1, CONFLICT)),
    (Elim, ("clause", "lit", "sub"), ((1, 2), 1, CONFLICT)),
    (Red, ("clause", "lit", "sub"), ((-1, 2), 1, CONFLICT)),
    (Split, ("lit", "left", "right"), (1, CONFLICT, Unit(2, CONFLICT))),
    (Sub, ("premise_index", "conclusion"), (1, (1, 2))),
    (Res, ("pivot", "left", "right", "conclusion"), (1, Sub(1, (-1,)), Sub(2, (1,)), ())),
]


@pytest.mark.parametrize("cls, names, values", NODE_CLASSES, ids=[c[0].__name__ for c in NODE_CLASSES])
def test_node_contract(cls, names, values):
    node = cls(*values)
    assert [f.name for f in fields(cls)] == list(names)
    assert [getattr(node, name) for name in names] == list(values)
    assert not hasattr(node, "__dict__")
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, 7)
        with pytest.raises(FrozenInstanceError):
            delattr(node, name)
    with pytest.raises(FrozenInstanceError):
        node.extra = 7
    with pytest.raises(FrozenInstanceError):
        del node.extra
    assert [getattr(node, name) for name in names] == list(values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_keyword is not node and by_keyword == node
    assert replace(node) == node
    if names:
        changed = replace(node, **{names[0]: 9})
        assert changed == cls(9, *values[1:]) and changed != node


def test_equality_is_same_class_and_equal_fields():
    assert CONFLICT == Conflict() and hash(CONFLICT) == hash(Conflict())
    assert Red((1, -2), 2, CONFLICT) != Elim((1, -2), 2, CONFLICT)
    assert Split(1, CONFLICT, Unit(2, CONFLICT)) != Split(1, Unit(2, CONFLICT), CONFLICT)
    assert Unit(1, CONFLICT) != (1, CONFLICT)
    assert Res(1, Sub(1, (-1,)), Sub(2, (1,)), ()) != Res(1, Sub(1, (-1,)), Sub(3, (1,)), ())
    assert len({Unit(1, CONFLICT), Unit(1, Conflict()), Unit(-1, CONFLICT)}) == 2


@pytest.mark.parametrize("module, forbidden", [
    ("dpll_proof", {"solver"}),
    ("resolution", {"solver"}),
    ("solver", {"resolution", "proof_text"}),
], ids=["dpll_proof", "resolution", "solver"])
def test_module_imports_nothing_from(module, forbidden):
    # the checkers import nothing from the search, and the search nothing
    # from the translator or the text formats
    tree = ast.parse(Path(importlib.import_module(f"dpllkit.{module}").__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {name.rpartition(".")[2] for name in imported} & forbidden


@given(formulas)
@settings(max_examples=150, deadline=None)
def test_valid_refutations_imply_incompatibility(d):
    # soundness cross-check via the solver's derivations
    from dpllkit.solver import solve

    v = solve(d)
    if not v.satisfiable:
        assert check_dpll((), d, v.proof).valid
        assert not compatible((), d).satisfiable


# The walk against the unfolded walk.  check_dpll takes a Split met again
# as a leaf wherever its sequent fits the context, and dpll_to_res takes a
# shared Split as a leaf where its memo holds the premises the Split reads.
# unshared(p) holds no Split twice, and with a pass whose root sequent never
# fits, its walk takes none: that is the walk of the unfolded tree, and the
# DAG's walk must give what it gives.

def unfolded_check(g, d, p):
    """``check_dpll`` of ``unshared(p)`` by the plain walk, which tests
    every node in its context."""
    with patch.object(dpll_proof, "_sequents", lambda proof, g, reducts, limit: (None, None)):
        return check_dpll(g, d, unshared(p))


def sequent_verdict(g, d, p):
    """Whether the sequent the pass computes for ``p`` fits ``g |- d``."""
    root = dpll_proof._sequents(p, g)[1]
    return (root is not None and root[0] <= set(canonical_formula(d)) and root[1] <= set(g)
            and root[2].isdisjoint(g))


def walk_both(g, d, p):
    """Require the same report from ``p``, ``unshared(p)`` and the unfolded
    walk, the pass's verdict on ``p`` from the unfolded walk where the
    valuation is consistent, and for a valid derivation ``==``
    translations of one size; return the DAG's translation, or its report
    when invalid.  Each translation runs with its text's length as its
    limit, as the CLI runs it."""
    q = unshared(p)
    report = check_dpll(g, d, p)
    assert report == check_dpll(g, d, q) == unfolded_check(g, d, p)
    if report.reason != "inconsistent-context" or report.path:
        assert sequent_verdict(g, d, p) == report.valid
    limits = {id(p): len(serialize_dpll(p)), id(q): len(serialize_dpll(q))}
    if not report.valid:
        for proof in (p, q):
            with pytest.raises(InvalidDerivation) as err:
                dpll_to_res(g, d, proof, limit=limits[id(proof)])
            assert err.value.report == report
        return report
    r, unfolded = (dpll_to_res(g, d, proof, limit=limits[id(proof)]) for proof in (p, q))
    assert r == unfolded and res_size(r) == res_size(unfolded)
    return r


def test_walk_of_the_dag_is_the_walk_of_the_unfolded_tree():
    php = [(f"php-{k + 1}-{k}", (), d, proof)
           for k in (5, 6, 7) for d in [gen_php(PhpSpec(k + 1, k))] for p in [solve(d).proof]
           for proof in (p, parse_dpll(serialize_dpll(p)))]
    for name, g, d, p in checker_corpus() + php:
        walk_both(g, d, p)


def test_a_split_grafted_under_a_second_context_walks_as_unfolded():
    # dag_grafts shares one Split of a solver refutation under a second
    # context that differs in a split literal's sign, a clause it reads
    # gone or satisfied, a reduct it makes there with another premise, or
    # the premises of the clauses it reads
    outcomes = {}
    for name, g, d, p in dag_grafts():
        report = walk_both(g, d, p)
        kind = name.split("-")[1]
        valid = not isinstance(report, CheckReport)
        outcomes[kind, valid] = outcomes.get((kind, valid), 0) + 1
    assert outcomes[("premise", True)] == outcomes[("reduct", True)] == 80
    for kind in ("other", "gone", "satisfied"):
        assert outcomes.get((kind, False), 0) >= 10, outcomes
    assert outcomes.get(("satisfied", True), 0) >= 10, outcomes


# DAGs that share one Split S, valid where it first occurs, under a second
# context that differs from the first in one thing S's sequent, or the
# fold's memo key, must tell apart: the sign of a split variable below S
# (also where it is below S only through another shared Split; the ids
# name the record the walk once kept), a clause S reduces, the premise of
# the clause S's conflicts cite, whether the fold needs S's value, and a
# clause S does not read.  The three "more-clauses" ones hold every clause
# of the first formula and more, as where a text reuses a Split refuted
# under fewer clauses: a reduct S makes, there with another premise; a
# clause of S with another premise; and the sign of a split variable below
# S.  In the four "satisfied-clause"
# ones S's subtree reads a clause that S's valuation satisfies, which is
# gone or has another premise in the second context.  A walk that took S
# there as a leaf would report a valid derivation, or translate it
# otherwise than the unfolded walk.
SPLIT_BELOW = Split(3, Split(2, CONFLICT, CONFLICT), CONFLICT)
REDUCES = Split(2, Red((-2, 6), 2, CONFLICT), CONFLICT)
CITES = Split(2, CONFLICT, CONFLICT)
RESOLVES = Split(2, Red((-2,), 2, CONFLICT), Red((2,), -2, CONFLICT))
ABOVE = Split(3, CITES, CONFLICT)
MAKES = Split(2, Red((-2, 5), 2, Unit(5, Red((-5,), 5, CONFLICT))), Red((2,), -2, CONFLICT))
ELIMS = Split(3, Elim((1, 5), 1, CONFLICT), CONFLICT)
ELIMS_BELOW = Split(4, ELIMS, ELIMS)
REDUCES_SATISFIED = Split(3, Red((1, -3), 3, CONFLICT), CONFLICT)
UNIT_AGAIN = Unit(2, Red((-2,), 2, Unit(1, CONFLICT)))
UNITS_SATISFIED = Split(3, UNIT_AGAIN, UNIT_AGAIN)
CITES_TWICE = Split(3, CITES, CITES)
DAG_ADVERSARIES = [
    pytest.param(((),), Split(1, SPLIT_BELOW, Split(-2, SPLIT_BELOW, CONFLICT)),
                 CheckReport(False, (1, 0, 0, 0), "inconsistent-context", ((-1, -2, 3, 2), ((),))),
                 id="split-variable-other-sign"),
    # the same, where the split variable is below the shared ABOVE only
    # through CITES, whose sequent fits where ABOVE is first walked
    pytest.param(((),), Split(1, CITES, Split(4, ABOVE, Split(-2, ABOVE, CONFLICT))),
                 CheckReport(False, (1, 1, 0, 0, 0), "inconsistent-context",
                             ((-1, -4, -2, 3, 2), ((),))),
                 id="split-variable-other-sign-below-a-recorded-split"),
    pytest.param(((), (-2, 6), (6,)),
                 Split(6, Split(1, REDUCES, Elim((-2, 6), 6, REDUCES)), Red((6,), -6, CONFLICT)),
                 CheckReport(False, (0, 1, 0, 0), "red-clause-missing", ((6, -1, 2), ((), (6,)))),
                 id="clause-removed"),
    pytest.param(((-1,), (1,)),
                 Split(1, Red((-1,), 1, Elim((1,), 1, CITES)),
                       Red((1,), -1, Elim((-1,), -1, CITES))),
                 Res(1, Sub(1, (-1,)), Sub(2, (1,)), ()),
                 id="other-premise"),
    # S first walked where the fold does not need its value (the right
    # branch of Split(3)), then where it does, in an equal context
    pytest.param(((-1, 5), (-5,), (-2,), (2,)),
                 Split(1, Red((-1, 5), 1, Unit(5, Split(3, Red((-5,), 5, CONFLICT), RESOLVES))),
                       Elim((-1, 5), -1, Split(5, RESOLVES, RESOLVES))),
                 Res(2, Sub(3, (-2,)), Sub(4, (2,)), ()),
                 id="value-not-folded-first"),
    # S first walked where its formula has (-2,) and (2,), then where it
    # also has (), which its Reds then leave in place, so that its
    # conflicts cite ()'s premise
    pytest.param(((-7, 9), (-2, -9), (2, -9), (7, -9), (7, 9)),
                 Split(7, Elim((7, -9), 7, Elim((7, 9), 7, Red((-7, 9), 7, Unit(9, Red(
                     (-2, -9), 9, Red((2, -9), 9, RESOLVES)))))),
                       Red((7, -9), -7, Red((7, 9), -7, Elim((-7, 9), -7, Unit(9, Red(
                           (-9,), 9, Red((-2, -9), 9, Red((2, -9), 9, RESOLVES)))))))),
                 Res(7, Res(9, Res(2, Sub(2, (-2, -9)), Sub(3, (2, -9)), (-9,)), Sub(1, (-7, 9)),
                            (-7,)),
                     Res(9, Sub(4, (7, -9)), Sub(5, (7, 9)), (7,)), ()),
                 id="one-clause-more"),
    # S = MAKES first walked with (-2, 5), (-5,) and (2,), then where (5,),
    # which its first Red makes, is there too from (5, 7): its Unit then
    # cites (5, 7), and the fold needs its value, since the first walk's
    # value resolves on the unit (4,) from (4, -7)
    pytest.param(((-2, 5), (-4, -5), (2,), (4, -7), (4, 7), (5, 7)),
                 Split(7, Red((4, -7), 7, Unit(4, Elim((4, 7), 7, Elim((5, 7), 7, Red(
                     (-4, -5), 4, MAKES))))),
                       Elim((4, -7), -7, Red((4, 7), -7, Unit(4, Red((5, 7), -7, Red(
                           (-4, -5), 4, MAKES)))))),
                 Res(7, Res(4, Res(2, Res(5, Sub(2, (-4, -5)), Sub(1, (-2, 5)), (-2, -4)),
                                   Sub(3, (2,)), (-4,)),
                            Sub(4, (4, -7)), (-7,)),
                     Res(4, Res(5, Sub(2, (-4, -5)), Sub(6, (5, 7)), (-4, 7)), Sub(5, (4, 7)),
                         (7,)), ()),
                 id="more-clauses-a-reduct-made-below"),
    # S first walked with () from (-1,), then with () from (1,) and (4,)
    pytest.param(((-1,), (1,), (1, 4)),
                 Split(1, Red((-1,), 1, Elim((1,), 1, Elim((1, 4), 1, CITES))),
                       Red((1,), -1, Elim((-1,), -1, Red((1, 4), -1, CITES)))),
                 Res(1, Sub(1, (-1,)), Sub(2, (1,)), ()),
                 id="more-clauses-other-premise"),
    # S first walked with (), then with () and (4, 5) where -2 is assumed
    pytest.param(((), (4, 5)),
                 Split(4, Elim((4, 5), 4, SPLIT_BELOW), Split(-2, SPLIT_BELOW, CONFLICT)),
                 CheckReport(False, (1, 0, 0, 0), "inconsistent-context",
                             ((-4, -2, 3, 2), ((), (4, 5)))),
                 id="more-clauses-split-variable-other-sign"),
    # S's subtree reads a clause that S's valuation satisfies: S first
    # walked where 1 makes (1, 5) true and S's Elim drops it, then where
    # (1, 5) is gone
    pytest.param(((), (1, 5)),
                 Split(1, Split(2, ELIMS, Elim((1, 5), 1, ELIMS)), CONFLICT),
                 CheckReport(False, (0, 1, 0, 0), "elim-clause-missing", ((1, -2, 3), ((),))),
                 id="satisfied-clause-elim"),
    # the same where S's Red reduces (1, -3), which 1 makes true
    pytest.param(((), (1, -3)),
                 Split(1, Split(2, REDUCES_SATISFIED, Elim((1, -3), 1, REDUCES_SATISFIED)),
                       CONFLICT),
                 CheckReport(False, (0, 1, 0, 0), "red-clause-missing", ((1, -2, 3), ((),))),
                 id="satisfied-clause-red"),
    # the same where S's Units take the unit clause (1,) again under 1: S
    # first walked where (1,) is its own premise, then where it is made from
    # (1, 4), and the fold needs S's value there
    pytest.param(((1,), (-1, 2), (-1, -2), (1, 4)),
                 Split(1, Red((-1, 2), 1, Red((-1, -2), 1, Split(
                     -4, Elim((1,), 1, Red((1, 4), -4, UNITS_SATISFIED)), UNITS_SATISFIED))),
                       Red((1,), -1, CONFLICT)),
                 Res(1, Res(2, Res(1, Sub(3, (-1, -2)), Sub(1, (1,)), (-2,)), Sub(2, (-1, 2)),
                            (-1,)),
                     Sub(1, (1,)), ()),
                 id="satisfied-clause-unit-other-premise"),
    # the Elim of the first case two shared Splits below the Split met
    # again, both with 1 in their valuation
    pytest.param(((), (1, 5)),
                 Split(1, Split(2, ELIMS_BELOW, Elim((1, 5), 1, ELIMS_BELOW)), CONFLICT),
                 CheckReport(False, (0, 1, 0, 0, 0), "elim-clause-missing",
                             ((1, -2, 4, 3), ((),))),
                 id="satisfied-clause-two-splits-deep"),
    # S = CITES_TWICE first walked where CITES, walked before it, is taken
    # as a leaf at both its occurrences, so that S reads () only through
    # CITES's sequent; then where () is gone
    pytest.param(((-5,),), Split(5, Red((-5,), 5, Split(1, CITES, CITES_TWICE)), CITES_TWICE),
                 CheckReport(False, (1, 0, 0), "conflict-empty-clause-missing",
                             ((-5, 3, 2), ((-5,),))),
                 id="clause-read-through-a-record"),
]


@pytest.mark.parametrize("d, p, expected", DAG_ADVERSARIES)
def test_shared_split_in_a_second_context_is_walked_there(d, p, expected):
    assert walk_both((), d, p) == expected
    if isinstance(expected, Res):
        assert check_res(d, expected).valid


# A shared Split's F keeps only the literals that a valuation where it is
# met can hold: those of the initial valuation, and those that a Unit or a
# Split around it assumes, in the chain above the root too.  Each DAG
# shares UNIT_BRANCHES under a valuation that holds 1 or -5, which it must
# miss; a pass that dropped them would accept the DAG at its root.
UNIT_BRANCHES = Split(1, Unit(5, CONFLICT), Unit(5, CONFLICT))


@pytest.mark.parametrize("g, p, expected", [
    ((1,), Split(2, UNIT_BRANCHES, UNIT_BRANCHES),
     CheckReport(False, (0, 1), "inconsistent-context", ((1, 2, -1), ((), (5,), (-5,))))),
    ((), Split(2, Unit(-5, UNIT_BRANCHES), UNIT_BRANCHES),
     CheckReport(False, (0, 0, 0, 0), "inconsistent-context", ((2, -5, 1, 5), ((),)))),
    ((), Unit(-5, Split(2, UNIT_BRANCHES, UNIT_BRANCHES)),
     CheckReport(False, (0, 0, 0, 0), "inconsistent-context", ((-5, 2, 1, 5), ((),)))),
], ids=["initial-valuation", "unit-above", "unit-above-the-root"])
def test_a_shared_split_misses_what_a_valuation_where_it_is_met_holds(g, p, expected):
    assert walk_both(g, ((), (5,), (-5,)), p) == expected


# Split 1 reduces (-1 2) in its left branch, which reads 1, takes the unit
# 2 and refutes the eight clauses on 5, 6 and 7 below Split 5.  Its right
# branch reduces the four clauses (1 +-3 +-4) to four on 3 and 4, and keeps
# the eight.
SUPERSET = canonical_formula([(1, 3, 4), (1, -3, 4), (1, 3, -4), (1, -3, -4), (-1, 2)]
                             + [(a * 5, b * 6, c * 7) for a in (1, -1) for b in (1, -1)
                                for c in (1, -1)])

# A refutation of SUPERSET that shares Split 5, refuted under the eight
# clauses on 5, 6 and 7 in the left branch of Split 1, in its right branch,
# whose clean clauses also hold the four on 3 and 4 (#2 cites it).
SUPERSET_TEXT = (
    "(split 1 (red [ -1 2 ] 1 (unit 2 (split 5 (red [ -5 6 7 ] 5 (red [ -5 6 -7 ] 5"
    " (red [ -5 -6 7 ] 5 (red [ -5 -6 -7 ] 5 (split 6 (red [ -6 7 ] 6 (red [ -6 -7 ] 6"
    " (unit 7 (red [ -7 ] 7 conflict)))) (red [ 6 7 ] -6 (red [ 6 -7 ] -6 (unit 7"
    " (red [ -7 ] 7 conflict))))))))) (red [ 5 6 7 ] -5 (red [ 5 6 -7 ] -5"
    " (red [ 5 -6 7 ] -5 (red [ 5 -6 -7 ] -5 #1))))))) (red [ 1 3 4 ] -1"
    " (red [ 1 -3 4 ] -1 (red [ 1 3 -4 ] -1 (red [ 1 -3 -4 ] -1 #2)))))")


def test_a_split_refuted_under_fewer_clauses_is_reused_under_more():
    # Shared Split 5 reads the eight clauses, which the right branch holds
    # with the same premises, and the fold's memo holds their premises: the
    # fold takes the second occurrence as one leaf, 34 steps for the 69
    # nodes of the unfolded tree, and gives what the unfolded walk gives
    p = parse_dpll(SUPERSET_TEXT)
    shared = p.left.sub.sub
    assert isinstance(shared, Split) and p.right.sub.sub.sub.sub is shared
    assert count_nodes(p) == 69
    assert check_dpll((), SUPERSET, p).valid
    assert dpll_to_res((), SUPERSET, p, limit=34) == dpll_to_res((), SUPERSET, p)
    with pytest.raises(WalkLimitExceeded):
        dpll_to_res((), SUPERSET, p, limit=33)
    walk_both((), SUPERSET, p)


def test_a_shared_node_that_is_not_a_split_is_written_and_walked_at_each_occurrence():
    # the text cites only Splits, and the fold memoises only Splits: a Unit
    # the derivation shares is written in full, read back as two nodes,
    # and folded at each occurrence, as the unfolded tree is; its unit
    # clause (2) is reduced from (-1 2) in one and from (1 2) in the other
    d, shared = ((-1, 2), (1, 2), (-2,)), Unit(2, Red((-2,), 2, CONFLICT))
    p = Split(1, Red((-1, 2), 1, shared), Red((1, 2), -1, shared))
    text = serialize_dpll(p)
    assert text == ("(split 1 (red [ -1 2 ] 1 (unit 2 (red [ -2 ] 2 conflict)))"
                    " (red [ 1 2 ] -1 (unit 2 (red [ -2 ] 2 conflict))))")
    q = parse_dpll(text)
    assert q == p and q.left.sub is not q.right.sub
    assert check_dpll((), d, p).valid
    assert dpll_to_res((), d, p, limit=count_nodes(p)) == dpll_to_res((), d, p)
    with pytest.raises(WalkLimitExceeded):
        dpll_to_res((), d, p, limit=count_nodes(p) - 1)
    assert walk_both((), d, p) == Res(1, Res(2, Sub(3, (-2,)), Sub(1, (-1, 2)), (-1,)),
                                      Res(2, Sub(3, (-2,)), Sub(2, (1, 2)), (1,)), ())


def count_nodes(p):
    """The nodes of the unfolded tree of ``p``, its Conflicts included."""
    count, stack = 0, [p]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, Split):
            stack += (node.right, node.left)
        elif not isinstance(node, Conflict):
            stack.append(node.sub)
    return count


def test_limit_counts_the_nodes_of_a_tree():
    # a tree's fold steps into each node it folds once and looks up no
    # memo; each right branch of PHP(4,3)'s refutation is needed, so that
    # is every node
    d = gen_php(PhpSpec(4, 3))
    p = unshared(solve(d).proof)
    n = count_nodes(p)
    assert n == 116
    assert dpll_to_res((), d, p, limit=n) == dpll_to_res((), d, p)
    with pytest.raises(WalkLimitExceeded):
        dpll_to_res((), d, p, limit=n - 1)


def test_a_shared_derivation_is_walked_at_its_distinct_size():
    # PHP(6,5)'s derivation: 2,559 rule applications unfolded, 940
    # distinct nodes.  The fold steps into 989 nodes: it takes each shared
    # Split met again with the premises it was folded under as one leaf,
    # and walks no right branch whose translation the left one does not
    # need.  The parse of its text is folded alike.  check_dpll walks none
    # of it: the sequent pass accepts it at the root
    for k, steps in ((3, 116), (4, 357), (5, 989), (6, 2_608)):
        d = gen_php(PhpSpec(k + 1, k))
        p = solve(d).proof
        for proof in (p, parse_dpll(serialize_dpll(p))):
            assert check_dpll((), d, proof).valid
            dpll_to_res((), d, proof, limit=steps)
            with pytest.raises(WalkLimitExceeded):
                dpll_to_res((), d, proof, limit=steps - 1)


def test_a_split_met_in_many_contexts_is_checked_by_its_sequent():
    # each Split the chain shares reads a clause whose premise differs from
    # one occurrence to the next: its sequent fits each, and check_dpll
    # accepts the chain at the root, 2^60 - 1 unfolded Splits, at once; so
    # does dpll_to_res, whose fold needs no right branch
    for n in (8, 60):
        d, text = premise_chain(n)
        p = parse_dpll(text)
        start = time.perf_counter()
        assert check_dpll((), d, p) == VALID
        assert dpll_to_res((), d, p, limit=3 * n + 1).conclusion == ()
        assert time.perf_counter() - start < 1.0
        if n == 8:
            assert check_dpll((), d, unshared(p)) == VALID
            assert dpll_to_res((), d, p) == dpll_to_res((), d, unshared(p))


def test_a_split_met_in_too_many_contexts_stops_the_walk_at_its_limit():
    # the wide chain's fold needs every right branch, and meets each shared
    # Split with other premises: without a limit it folds the unfolded
    # tree, as the fold of unshared(p) does; check_dpll accepts it at once
    for n in (8, 40):
        d, text = wide_chain(n)
        p = parse_dpll(text)
        assert check_dpll((), d, p) == VALID
        if n == 8:
            assert dpll_to_res((), d, p) == dpll_to_res((), d, unshared(p))
        with pytest.raises(WalkLimitExceeded):
            dpll_to_res((), d, p, limit=len(text))


def test_an_unlimited_walk_of_a_split_chain_steps_into_each_unfolded_node_once():
    # the wide chain's unfolded tree: 2^10 - 1 occurrences of its 10
    # Splits, and 2^10 leaves below 10 Units and 10 Reds each.  No shared
    # Split is met again with the premises it was folded under, so the fold
    # steps into each node once
    n = 10
    d, text = wide_chain(n)
    p = parse_dpll(text)
    steps = count_nodes(p)
    assert steps == 24_573
    dpll_to_res((), d, p, limit=steps)
    with pytest.raises(WalkLimitExceeded):
        dpll_to_res((), d, p, limit=steps - 1)


def test_a_split_chain_under_clauses_it_never_reads_is_walked_at_its_distinct_size():
    # under unclean_chain(n), the valuation below Split k leaves a clause on
    # k unsatisfied, but no Split reads one, and each conflict concludes ():
    # check_dpll accepts the 2^(n+1) - 1 unfolded nodes at the root, and
    # the fold steps down the n Splits of the left branches, n + 1 steps
    for n in (16, 40, 60):
        d, p = unclean_chain(n), parse_dpll(split_chain(n))
        assert check_dpll((), d, p).valid
        assert dpll_to_res((), d, p, limit=n + 1) == dpll_to_res((), d, p)
        with pytest.raises(WalkLimitExceeded):
            dpll_to_res((), d, p, limit=n)
        if n == 16:
            assert dpll_to_res((), d, p) == dpll_to_res((), d, unshared(p))


def test_a_split_chain_under_a_satisfied_clause_is_walked_at_its_distinct_size():
    # under the clause (1 .. n), which the left branch of each Split
    # satisfies, the chain is accepted at the root, and its fold takes
    # n + 1 = 17 steps for the 2^17 - 1 unfolded nodes
    n = 16
    d, p = [(), tuple(range(1, n + 1))], parse_dpll(split_chain(n))
    assert check_dpll((), d, p).valid
    for limit in (n + 1, None):
        assert dpll_to_res((), d, p, limit=limit) == dpll_to_res((), d, unshared(p))
    with pytest.raises(WalkLimitExceeded):
        dpll_to_res((), d, p, limit=n)


def test_a_deep_split_chain_checks_and_folds_without_recursion():
    # 10,000 nested Splits: the sequent pass visits them in postorder, and
    # the fold steps down all of their left branches.  A shared Split's F
    # keeps no split literal, and its last reader takes the sequent below
    # it, so the sequents held at once hold three entries: () and the
    # literals of the root, which no Split shares
    assert sys.getrecursionlimit() <= 1000
    n = 10_000
    d, p = unclean_chain(n), parse_dpll(split_chain(n))
    assert check_dpll((), d, p, limit=3).valid
    with pytest.raises(WalkLimitExceeded):
        check_dpll((), d, p, limit=2)
    assert dpll_to_res((), d, p).conclusion == ()


def test_a_deep_split_chain_fails_where_the_unfolded_walk_does_at_once():
    # the sequents of the chain keep no split literal, since none is
    # assumed above where it is split.  Without (), the walk fails at the
    # first Conflict, 10,000 left branches down; under a Split whose right
    # branch needs a unit clause missing from the formula, it seals each
    # Split of the chain as it leaves it and takes the Split met again as a
    # leaf, and fails in the right branch
    n = 10_000
    chain = split_chain(n)
    start = time.perf_counter()
    report = check_dpll((), unclean_chain(n)[1:], parse_dpll(chain))
    assert (report.reason, report.path) == ("conflict-empty-clause-missing", (0,) * n)
    p = parse_dpll(f"(split {3 * n + 1} {chain} (unit {3 * n + 2} conflict))")
    report = check_dpll((), unclean_chain(n), p)
    assert (report.reason, report.path) == ("unit-clause-missing", (1,))
    assert time.perf_counter() - start < 5.0


def test_sequents_held_past_the_limit_stop_the_check():
    # each Split of the chain keeps its sequent until the late citations
    # read it: at n = 200, more clauses than the text has characters.
    # check_dpll with the text's length as its limit, as the CLI runs it,
    # stops there; without a limit it reports the first citation, whose
    # context lacks the units the Reds above the chain make
    for n in (8, 200):
        d, text = cited_late(n)
        p = parse_dpll(text)
        report = check_dpll((), d, p)
        assert (report.reason, report.path) == ("unit-clause-missing", (1, 0, 0, 0, 0))
        if n == 8:
            assert walk_both((), d, p) == report
            assert check_dpll((), d, p, limit=len(text)) == report
    with pytest.raises(WalkLimitExceeded):
        check_dpll((), d, p, limit=len(text))


def test_texts_with_elims_walk_as_before_and_translate_as_the_search_now_does():
    # the solver's texts of PHP(4,3) and PHP(5,4) from when it wrote an Elim
    # for each clause the valuation satisfies: check_dpll accepts them, the
    # fold takes 160 and 556 steps, and they translate to the translations
    # of the search's Elim-free refutations of the same formulas
    for (name, d, text), steps in zip(elim_texts(), (160, 556)):
        p = parse_dpll(text)
        assert check_dpll((), d, p).valid, name
        dpll_to_res((), d, p, limit=steps)
        with pytest.raises(WalkLimitExceeded):
            dpll_to_res((), d, p, limit=steps - 1)
        now = solve(d).proof
        assert dpll_size(p) > dpll_size(now)
        assert serialize_res(dpll_to_res((), d, p)) == serialize_res(dpll_to_res((), d, now)), name


# Report identity.  tests/data/checker_digests.json records, for a fixed
# corpus of solver refutations and seeded single-node mutants of them, the
# SHA-256 of repr(check_dpll(...)) (validity, path, reason and the failing
# context) and, for valid derivations, of serialize_res(dpll_to_res(...)).
# A change to the checker or the translator that alters any of them fails
# the test below; a change made on purpose regenerates the file with
# ``python tests/test_dpll_proof.py`` (``src`` on PYTHONPATH).

CHECKER_DIGESTS = Path(__file__).parent / "data" / "checker_digests.json"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def checker_digest(g, d, p):
    report = check_dpll(g, d, p)
    out = {"check": _sha(repr(report))}
    if report.valid:
        out["res"] = _sha(serialize_res(dpll_to_res(g, d, p)))
    return out


def test_reports_and_translations_match_recorded_digests():
    recorded = json.loads(CHECKER_DIGESTS.read_text())
    corpus = checker_corpus()
    assert [name for name, *_ in corpus] == list(recorded)
    rejected = 0
    for name, g, d, p in corpus:
        assert checker_digest(g, d, p) == recorded[name], name
        report = check_dpll(g, d, p)
        if not report.valid:
            rejected += 1
            with pytest.raises(InvalidDerivation) as err:
                dpll_to_res(g, d, p)
            assert err.value.report == report, name
    assert rejected >= 2000


if __name__ == "__main__":
    digests = {name: checker_digest(g, d, p) for name, g, d, p in checker_corpus()}
    CHECKER_DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {CHECKER_DIGESTS}", file=sys.stderr)
