import hashlib
import json
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings

from dpllkit import solver
from dpllkit.cnf import Assignment, canonical_formula, evaluate
from dpllkit.dpll_proof import CONFLICT, Conflict, Red, Unit, check_dpll, dpll_size
from dpllkit.php import PhpSpec, gen_php
from dpllkit.proof_text import serialize_dpll
from dpllkit.resolution import dpll_to_res, res_size
from dpllkit.solver import (
    InvariantViolation,
    SolverConfig,
    Verdict,
    choose_split,
    complete_model,
    solve,
    solve_aux,
)

from oracle import brute_force_sat, compatible
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
    # the search passes its valuation as one set
    assert complete_model({1, -2}).values == {1: True, 2: False}


@pytest.mark.parametrize("run, field", [
    (lambda: SolverConfig(mode="witnes"), "mode"),
    (lambda: SolverConfig(mode="decide", trace=True), "trace"),
    (lambda: solve_aux((), PHP21, (), SolverConfig(mode="decide")), "mode"),
    (lambda: solve_aux((), PHP21, (), SolverConfig(trace=True)), "trace"),
], ids=["unknown-mode", "decide-trace", "solve-aux-mode", "solve-aux-trace"])
def test_options_that_would_be_ignored_raise(run, field):
    # an option the run cannot honour names its field instead of running
    with pytest.raises(ValueError, match=f"SolverConfig\\.{field}"):
        run()


def test_choose_split():
    # Jeroslow-Wang: -3 scores 2^(3-3) + 2^(3-2) = 3, and 3 scores only 2
    assert choose_split(((3, 4), (-3, 5, 6), (-3, 7))) == -3
    assert choose_split(((-2,),)) == -2
    # every score ties: the literal met first wins
    assert choose_split(((1, 2), (-1, -2))) == 1
    with pytest.raises(ValueError):
        choose_split(())


@pytest.mark.parametrize("k, nodes, steps", [(2, 31, 10), (3, 215, 42), (4, 1527, 188),
                                             (5, 12594, 970)])
def test_php_proof_sizes_under_the_split_rule(k, nodes, steps):
    # the split rule fixes the proofs: DPLL nodes and resolution steps
    # of PHP(k+1,k), exactly
    d = gen_php(PhpSpec(k + 1, k))
    v = solve(d)
    assert (dpll_size(v.proof), res_size(dpll_to_res((), d, v.proof))) == (nodes, steps)


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
                    (gen_php(PhpSpec(4, 3)), 484)]


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
    d = horn_chain(10_000, unsat)
    assert solve(d, SolverConfig(mode="decide")) == (not unsat)
    v = solve(d)
    assert v.satisfiable == (not unsat)
    if v.satisfiable:
        assert evaluate(v.model, d)
    else:
        assert check_dpll((), d, v.proof).valid


def test_deep_refutation_reprs_without_recursion():
    assert sys.getrecursionlimit() <= 1000
    v = solve(horn_chain(10_000, True))
    text = repr(v)
    assert text.startswith("Verdict(satisfiable=False, model=None, proof=Unit(lit=1, sub=")
    assert text.endswith(", trace=None)")
    assert text.count("Unit(lit=") == serialize_dpll(v.proof).count("(unit")


def test_horn_search_is_linear():
    # a Unit only moves the ring's boundary and clean runs move as ranges, so
    # four times the chain takes about four times as long (a search that
    # rejoins every clean clause at each Unit takes about fifteen)
    # rounds alternate the sizes, so a slow stretch of the host slows both
    chains = {n: horn_chain(n, False) for n in (2000, 8000)}
    best = dict.fromkeys(chains, float("inf"))
    for _ in range(3):
        for n, d in chains.items():
            start = time.perf_counter()
            solve(d, SolverConfig(mode="decide"))
            best[n] = min(best[n], time.perf_counter() - start)
    assert best[8000] / best[2000] < 8


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
    """The model or the serialized derivation of a witness Verdict, as text
    that the digests hash."""
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


# Search from intermediate states.  tests/data/solver_aux_digests.json records
# the verdict and evidence of solve_aux on a seeded corpus of (g, d, t)
# states, made the same way as solver_digests.json.  In about half of them t
# repeats clauses of d, so a clause can sit in both when a Unit fires, and
# reducts often equal input clauses.

AUX_DIGESTS = Path(__file__).parent / "data" / "solver_aux_digests.json"


def aux_corpus():
    """(name, g, d, t) states over at most 7 variables from a fixed seed,
    with t clean with respect to g."""
    rng = random.Random(5)
    corpus = []
    for k in range(2000):
        gvars = rng.sample(range(1, 8), rng.randint(0, 3))
        g = tuple(v if rng.random() < 0.5 else -v for v in gvars)
        d = random_formula(rng, max_var=7, max_clauses=10)
        free = [v for v in range(1, 8) if v not in gvars]
        t = [[v if rng.random() < 0.5 else -v for v in rng.sample(free, rng.randint(1, min(3, len(free))))]
             for _ in range(rng.randint(0, 6) if free else 0)]
        if k % 2:
            t += [c for c in d if c and set(map(abs, c)).isdisjoint(gvars) and rng.random() < 0.6]
            rng.shuffle(t)
        corpus.append((f"aux-{k}", g, d, canonical_formula(t)))
    return corpus


def aux_digest(g, d, t):
    v = solve_aux(g, d, t)
    return f"{'sat' if v.satisfiable else 'unsat'}:{_sha(evidence(v))[:16]}"


def test_solve_aux_matches_recorded_digests():
    recorded = json.loads(AUX_DIGESTS.read_text())
    corpus = aux_corpus()
    assert [name for name, *_ in corpus] == list(recorded)
    for name, g, d, t in corpus:
        assert aux_digest(g, d, t) == recorded[name], name


def test_solve_aux_bulk_moves_match_one_step_moves():
    checked = SolverConfig(assert_measure=True)
    for name, g, d, t in aux_corpus():
        bulk, one = solve_aux(g, d, t), solve_aux(g, d, t, checked)
        assert (bulk.satisfiable, evidence(bulk)) == (one.satisfiable, evidence(one)), name


if __name__ == "__main__":
    digests = {name: solver_digest(d) for name, d in digest_corpus()}
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
    digests = {name: aux_digest(g, d, t) for name, g, d, t in aux_corpus()}
    AUX_DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {AUX_DIGESTS}", file=sys.stderr)
