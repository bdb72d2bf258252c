import ast
import hashlib
import importlib
import json
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings

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
from strategies import checker_corpus, formulas, split_chain, unshared

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


# The walk against the unfolded walk.  walk records each shared Split it
# walks in a clean context by its formula, and takes a Split met again with
# that formula, in a clean context, as a leaf.  unshared(p) holds no Split
# twice, so its walk never takes one: it is the walk of the unfolded tree,
# and the DAG's walk must give what it gives.

def walk_both(g, d, p):
    """Require the same report from ``p`` and ``unshared(p)``, and for a
    valid derivation ``==`` translations of one size; return the DAG's
    translation, or its report when invalid.  Each walk runs with its
    text's length as its limit, as the CLI runs it."""
    q = unshared(p)
    limits = {id(p): len(serialize_dpll(p)), id(q): len(serialize_dpll(q))}
    report = check_dpll(g, d, p, limit=limits[id(p)])
    assert report == check_dpll(g, d, q, limit=limits[id(q)])
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
    php = [(f"php-{k + 1}-{k}", (), d, solve(d).proof)
           for k in (5, 6) for d in [gen_php(PhpSpec(k + 1, k))]]
    for name, g, d, p in checker_corpus() + php:
        walk_both(g, d, p)


# DAGs that share one Split S, valid where it first occurs, under a second
# context that differs from the first in one thing the walk's record of S
# must tell apart: the sign of a split variable below S (also where the walk
# took the Split below S as recorded), a clause S reduces, the premise of
# the clause S's conflicts cite, whether the fold needs S's value, and a
# clause S does not read.  A walk that took S there as recorded would
# report a valid derivation, or translate it otherwise than the unfolded
# walk.
SPLIT_BELOW = Split(3, Split(2, CONFLICT, CONFLICT), CONFLICT)
REDUCES = Split(2, Red((-2, 6), 2, CONFLICT), CONFLICT)
CITES = Split(2, CONFLICT, CONFLICT)
RESOLVES = Split(2, Red((-2,), 2, CONFLICT), Red((2,), -2, CONFLICT))
ABOVE = Split(3, CITES, CONFLICT)
DAG_ADVERSARIES = [
    pytest.param(((),), Split(1, SPLIT_BELOW, Split(-2, SPLIT_BELOW, CONFLICT)),
                 CheckReport(False, (1, 0, 0, 0), "inconsistent-context", ((-1, -2, 3, 2), ((),))),
                 id="split-variable-other-sign"),
    # the same, where the split variable is below the shared ABOVE only
    # through CITES, which ABOVE's first walk takes as recorded
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
]


@pytest.mark.parametrize("d, p, expected", DAG_ADVERSARIES)
def test_shared_split_in_a_second_context_is_walked_there(d, p, expected):
    assert walk_both((), d, p) == expected
    if isinstance(expected, Res):
        assert check_res(d, expected).valid


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
    # a tree's walk steps into each node once and compares no context
    d = gen_php(PhpSpec(4, 3))
    p = unshared(solve(d).proof)
    n = count_nodes(p)
    assert check_dpll((), d, p, limit=n).valid
    assert dpll_to_res((), d, p, limit=n) == dpll_to_res((), d, p)
    with pytest.raises(WalkLimitExceeded):
        check_dpll((), d, p, limit=n - 1)
    with pytest.raises(WalkLimitExceeded):
        dpll_to_res((), d, p, limit=n - 1)


def test_a_shared_derivation_is_walked_at_its_distinct_size():
    # PHP(6,5)'s derivation: 12,594 rule applications unfolded, 5,549
    # distinct nodes.  The walk steps into 5,713 nodes and takes each Split
    # met again with a recorded formula (70) as one leaf and one step; the
    # parse of its text is walked alike.  Every Split the solver shares is
    # met in a clean context, so a Split walked again in an unclean one
    # would raise these counts
    for k, steps in ((3, 224), (4, 1_293), (5, 5_783), (6, 22_010)):
        d = gen_php(PhpSpec(k + 1, k))
        p = solve(d).proof
        for proof in (p, parse_dpll(serialize_dpll(p))):
            assert check_dpll((), d, proof, limit=steps).valid
            with pytest.raises(WalkLimitExceeded):
                check_dpll((), d, proof, limit=steps - 1)
            dpll_to_res((), d, proof, limit=steps)


def test_a_split_met_in_too_many_contexts_stops_the_walk_at_its_limit():
    # every split variable is in the clause (1 .. n), so no context of the
    # chain is clean and no Split of it is taken as recorded: without a
    # limit the walk covers the unfolded tree, as the walk of unshared(p)
    # does
    for n in (8, 40):
        text = split_chain(n)
        d, p = [(), tuple(range(1, n + 1))], parse_dpll(text)
        if n == 8:
            assert check_dpll((), d, p) == check_dpll((), d, unshared(p)) == VALID
            assert dpll_to_res((), d, p) == dpll_to_res((), d, unshared(p))
        with pytest.raises(WalkLimitExceeded):
            check_dpll((), d, p, limit=len(text))
        with pytest.raises(WalkLimitExceeded):
            dpll_to_res((), d, p, limit=len(text))


def test_an_unlimited_walk_of_a_split_chain_steps_into_each_unfolded_node_once():
    # the chain's unfolded tree: 2^16 - 1 Splits and 2^16 Conflicts.  A
    # Split met again that finds no record costs no step, so the walk takes
    # one step per node
    n, nodes = 16, 2**17 - 1
    d, p = [(), tuple(range(1, n + 1))], parse_dpll(split_chain(n))
    assert count_nodes(p) == nodes
    assert check_dpll((), d, p, limit=nodes).valid
    dpll_to_res((), d, p, limit=nodes)
    with pytest.raises(WalkLimitExceeded):
        check_dpll((), d, p, limit=nodes - 1)
    with pytest.raises(WalkLimitExceeded):
        dpll_to_res((), d, p, limit=nodes - 1)


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
