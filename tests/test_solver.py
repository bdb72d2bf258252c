import hashlib
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from dpllkit import solver
from dpllkit.cnf import Assignment, evaluate
from dpllkit.dpll_proof import CONFLICT, Conflict, Red, Unit, check_dpll, dpll_size
from dpllkit.oracle import brute_force_sat, compatible
from dpllkit.php import PhpSpec, gen_php
from dpllkit.proof_text import serialize_dpll
from dpllkit.solver import (
    InvariantViolation,
    SolverConfig,
    Verdict,
    choose_split,
    complete_model,
    solve,
    solve_aux,
)

from strategies import formulas, horn_chain, random_3sat, random_formula

PHP21 = gen_php(PhpSpec(2, 1))
GOLDEN_PHP21_PROOF = Unit(1, Unit(2, Red((-1, -2), 1, Red((-2,), 2, CONFLICT))))


def test_empty_formula_is_sat_with_all_default_model():
    v = solve(())
    assert v.satisfiable
    assert v.model == Assignment({})


def test_php_2_1_unsat_with_golden_derivation():
    v = solve(PHP21)
    assert not v.satisfiable
    assert v.proof == GOLDEN_PHP21_PROOF
    assert dpll_size(v.proof) == 4
    assert check_dpll((), PHP21, v.proof).valid


def test_php_2_2_sat():
    f = gen_php(PhpSpec(2, 2))
    v = solve(f)
    assert v.satisfiable
    assert evaluate(v.model, f)


def test_solve_aux_conflict_case():
    v = solve_aux((1, 2), ((),))
    assert not v.satisfiable
    assert v.proof == CONFLICT


def test_solve_aux_clean_clauses_agree_with_oracle():
    t = ((1, 2), (-1,))
    v = solve_aux((), (), t)
    assert v.satisfiable == compatible((), t).satisfiable
    assert v.satisfiable


def test_solve_aux_satisfied_head_clause():
    v = solve_aux((5,), ((1, 5),))
    assert v.satisfiable
    assert evaluate(v.model, 5)


def test_complete_model():
    m = complete_model((1, -2))
    assert m.values == {1: True, 2: False}
    assert complete_model(()) == Assignment({})
    m = complete_model((-7,))
    assert not evaluate(m, 7)
    with pytest.raises(ValueError):
        complete_model((1, -1))


def test_choose_split():
    assert choose_split(((3, 4), (-3,))) == 3
    assert choose_split(((-2,),)) == -2
    with pytest.raises(ValueError):
        choose_split(())


def test_php_2_1_never_splits():
    v = solve(PHP21, SolverConfig(trace=True))
    assert v.trace == ("unit", "unit", "red", "red", "conflict")
    assert "split" not in v.trace


def test_decide_mode_returns_plain_boolean():
    assert solve(PHP21, SolverConfig(mode="decide")) is False
    assert solve((), SolverConfig(mode="decide")) is True


def test_determinism():
    f = gen_php(PhpSpec(3, 2))
    assert solve(f) == solve(f)


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("m", range(1, 5))
def test_php_family_sat_iff_enough_holes(n, m):
    v = solve(gen_php(PhpSpec(n, m)))
    assert v.satisfiable == (n <= m)


@given(formulas)
@settings(max_examples=300, deadline=None)
def test_verdict_agrees_with_oracle_in_both_modes(d):
    oracle = brute_force_sat(d).satisfiable
    v = solve(d)
    assert v.satisfiable == oracle
    assert solve(d, SolverConfig(mode="decide")) == oracle
    if v.satisfiable:
        assert evaluate(v.model, d)
    else:
        assert check_dpll((), d, v.proof).valid


def test_measure_assertion_clean_on_random_instances():
    rng = random.Random(7)
    cfg = SolverConfig(assert_measure=True)
    for _ in range(100):
        d = random_formula(rng)
        v = solve(d, cfg)
        assert isinstance(v, Verdict)


def test_measure_assertion_clean_on_php():
    cfg = SolverConfig(assert_measure=True)
    for n, m in [(3, 3), (4, 3), (3, 4)]:
        solve(gen_php(PhpSpec(n, m)), cfg)


@pytest.mark.parametrize("unsat", [False, True])
def test_measure_assertion_clean_on_horn_chain(unsat):
    # long runs of moves between units: the measure is checked at every one
    v = solve(horn_chain(200, unsat), SolverConfig(assert_measure=True))
    assert v.satisfiable == (not unsat)


# Calls of _check_state made by the search when it moved one clause per step,
# one per search step.  Debug mode must still check every one of those states.
CHECKS_PER_SOLVE = [(horn_chain(200, False), 20101), (horn_chain(200, True), 10300),
                    (gen_php(PhpSpec(4, 3)), 738)]


@pytest.mark.parametrize("d, checks", CHECKS_PER_SOLVE)
def test_measure_assertion_checks_every_step(monkeypatch, d, checks):
    # debug mode moves one clause at a time, so every state is still checked
    calls = []
    check_state = solver._check_state
    monkeypatch.setattr(solver, "_check_state", lambda *a: calls.append(1) or check_state(*a))
    solve(d, SolverConfig(assert_measure=True))
    assert len(calls) == checks


def test_check_state_rejects_unsound_occurrence_index():
    # a clause outside hits must be at least binary and share no variable
    # with the valuation, since bulk moves send it to t unexamined
    assert solver._check_state((1,), ((2, 3),), (), None, set())
    assert solver._check_state((1,), ((1, 2),), (), None, {(1, 2)})
    with pytest.raises(InvariantViolation):
        solver._check_state((1,), ((-1, 2),), (), None, set())
    with pytest.raises(InvariantViolation):
        solver._check_state((), ((2,),), (), None, set())


@pytest.mark.parametrize("unsat", [False, True])
def test_deep_horn_chain_needs_no_recursion(unsat):
    # about n*n/2 search steps: far more than the default recursion limit
    assert sys.getrecursionlimit() <= 1000
    d = horn_chain(1000, unsat)
    assert solve(d, SolverConfig(mode="decide")) == (not unsat)
    v = solve(d)
    assert v.satisfiable == (not unsat)
    if v.satisfiable:
        assert evaluate(v.model, d)
    else:
        assert check_dpll((), d, v.proof).valid


def test_precondition_violations_raise_in_debug_mode():
    cfg = SolverConfig(assert_measure=True)
    with pytest.raises(InvariantViolation):
        solve_aux((1, -1), ((1,),), (), cfg)
    with pytest.raises(InvariantViolation):
        solve_aux((), (), ((),), cfg)
    with pytest.raises(InvariantViolation):
        solve_aux((1,), (), ((1, 2),), cfg)


# Derivation identity.  tests/data/solver_digests.json records, for a fixed
# corpus, what the search produced when the file was made: verdict, evidence,
# rule log and decide verdict.  Any change to the search that alters one of
# them fails the test below; a change made on purpose regenerates the file
# with ``python tests/test_solver.py`` (``src`` on PYTHONPATH).

DIGESTS = Path(__file__).parent / "data" / "solver_digests.json"


def digest_corpus():
    """(name, formula) pairs: PHP, Horn chains, random 3-SAT at the threshold
    and small random CNFs, all generated from fixed seeds."""
    corpus = []
    for k in range(1, 6):
        for n in (k, k + 1):
            corpus.append((f"php-{n}-{k}", gen_php(PhpSpec(n, k))))
    for n in (50, 200):
        for unsat in (False, True):
            corpus.append((f"horn-{'unsat' if unsat else 'sat'}-{n}", horn_chain(n, unsat)))
    rng = random.Random(1)
    corpus += [(f"rand3-{i}", random_3sat(rng, 40, 170)) for i in range(10)]
    rng = random.Random(2)
    corpus += [(f"random-{i}", random_formula(rng)) for i in range(300)]
    return corpus


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def evidence(v):
    """The model or the serialized derivation of a witness Verdict (derivations
    compare as text, since dataclass equality recurses through deep ones)."""
    return repr(sorted(v.model.values.items())) if v.satisfiable else serialize_dpll(v.proof)


def solver_digest(d):
    v = solve(d, SolverConfig(trace=True))
    return {"sat": v.satisfiable, "evidence": _sha(evidence(v)), "trace": _sha(" ".join(v.trace)),
            "decide": solve(d, SolverConfig(mode="decide"))}


def test_derivations_match_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    corpus = digest_corpus()
    assert [name for name, _ in corpus] == list(recorded)
    for name, d in corpus:
        assert solver_digest(d) == recorded[name], name


def test_bulk_moves_match_one_step_moves():
    # debug mode moves one clause per step, the default mode whole runs
    for name, d in digest_corpus():
        bulk = solve(d, SolverConfig(trace=True))
        one = solve(d, SolverConfig(trace=True, assert_measure=True))
        assert (bulk.satisfiable, evidence(bulk), bulk.trace) == \
            (one.satisfiable, evidence(one), one.trace), name


if __name__ == "__main__":
    digests = {name: solver_digest(d) for name, d in digest_corpus()}
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
