import hashlib
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from dpllkit.dpll_proof import (
    CONFLICT,
    Conflict,
    Elim,
    Red,
    Split,
    Unit,
    check_dpll,
    dpll_size,
)
from dpllkit.oracle import compatible
from dpllkit.php import PhpSpec, gen_php
from dpllkit.proof_text import serialize_res
from dpllkit.resolution import InvalidDerivation, dpll_to_res

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


def test_checker_is_solver_independent():
    import dpllkit.dpll_proof as mod

    imports = [line for line in open(mod.__file__)
               if line.startswith(("import", "from"))]
    assert not any("solver" in line for line in imports)


def test_resolution_is_solver_independent():
    import dpllkit.resolution as mod

    imports = [line for line in open(mod.__file__)
               if line.startswith(("import", "from"))]
    assert not any("solver" in line for line in imports)


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
