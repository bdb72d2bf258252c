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
    check_dpll,
    dpll_size,
)
from dpllkit.php import PhpSpec, gen_php
from dpllkit.proof_text import parse_dpll, parse_res, serialize_dpll, serialize_res
from dpllkit.resolution import InvalidDerivation, Res, Sub, dpll_to_res

from oracle import compatible
from strategies import checker_corpus, formulas

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
