import hashlib
import json
import random
import sys
import time
from collections import Counter, deque
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings

from dpllkit import solver
from dpllkit.cnf import Assignment, canonical_formula, evaluate, measure
from dpllkit.dpll_proof import CONFLICT, VALID, Conflict, Red, Split, Unit, check_dpll, dpll_size
from dpllkit.php import PhpSpec, gen_php
from dpllkit.proof_text import parse_dpll, serialize_dpll, serialize_res
from dpllkit.resolution import dpll_to_res, res_size
from dpllkit.solver import (
    InvariantViolation,
    MeasureViolation,
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
], ids=["unknown-mode", "decide-trace"])
def test_options_that_would_be_ignored_raise(run, field):
    # an option the run cannot honour names its field instead of running
    with pytest.raises(ValueError, match=f"SolverConfig\\.{field}"):
        run()


def test_trace_of_an_empty_clause_is_one_conflict():
    assert solve(((),), SolverConfig(trace=True)).trace == ("conflict",)


def test_choose_split():
    # Jeroslow-Wang: -3 scores 2^(3-3) + 2^(3-2) = 3, and 3 scores only 2
    assert choose_split(((3, 4), (-3, 5, 6), (-3, 7))) == -3
    assert choose_split(((-2,),)) == -2
    # every score ties: the literal first in lit_key order wins, however
    # the clauses are ordered
    assert choose_split(((1, 2), (-1, -2))) == 1
    assert choose_split(((-1, -2), (1, 2))) == 1
    assert choose_split({(-2, 3), (-1, -3)}) == -1
    with pytest.raises(ValueError):
        choose_split(())


@pytest.mark.parametrize("k, nodes, steps", [(2, 26, 10), (3, 110, 42), (4, 495, 188),
                                             (5, 2559, 970)],
                         ids=["php-3-2", "php-4-3", "php-5-4", "php-6-5"])
def test_php_proof_sizes_under_the_split_rule(k, nodes, steps):
    # the split rule fixes the proofs: DPLL nodes and resolution steps
    # of PHP(k+1,k), exactly
    d = gen_php(PhpSpec(k + 1, k))
    v = solve(d)
    assert (dpll_size(v.proof), res_size(dpll_to_res((), d, v.proof))) == (nodes, steps)


# The SHA-256 of serialize_res(dpll_to_res(...)) of the refutation of
# PHP(k+1,k) and its res_size.  Searches that write other derivations of
# PHP, such as one that backjumps past a Split whose left refutation never
# reads its literal, translate to these same traces.
PHP_TRANSLATIONS = [
    (1, 2, "457923d92914804d5d9809b694f47b7a10e1736a3f80d2768343e40e5ae80959"),
    (2, 10, "b814d243ce07a52880746d7a4385a07002fd51418176c4e32b1a64935dc95bd2"),
    (3, 42, "fe16483c746b0e16caa7678c85a7e5f4f8260b5b32563f74a31a2598d8499baf"),
    (4, 188, "52f7a686f006892873bf445fca904f83a9756e8abfeaab87b8b0101b2a5e9234"),
    (5, 970, "d16c2d92e6ec24b1203fbdd089d32f92d3ccbc63d6b27a09e207b68fe76a90a8"),
    (6, 5862, "a35c5c961485776ca8a987b4e3ae2375c41770d1f51c90a5f0f4d92e840e6020"),
]


@pytest.mark.parametrize("k, steps, digest", PHP_TRANSLATIONS,
                         ids=[f"php-{k + 1}-{k}" for k, _, _ in PHP_TRANSLATIONS])
def test_php_translations_are_pinned(k, steps, digest):
    d = gen_php(PhpSpec(k + 1, k))
    r = dpll_to_res((), d, solve(d).proof)
    assert (res_size(r), _sha(serialize_res(r))) == (steps, digest)


def _split_counts(p):
    """(occurrences, distinct objects) of the Split nodes in the unfolded
    derivation ``p``."""
    occurrences, distinct = 0, set()
    stack = [p]
    while stack:
        node = stack.pop()
        if isinstance(node, Split):
            occurrences += 1
            distinct.add(id(node))
            stack += (node.left, node.right)
        elif not isinstance(node, Conflict):
            stack.append(node.sub)
    return occurrences, len(distinct)


@pytest.mark.parametrize("k, splits, distinct, nodes", [(4, 23, 17, 495), (5, 119, 49, 2559),
                                                        (6, 719, 129, 15473)],
                         ids=["php-5-4", "php-6-5", "php-7-6"])
def test_refuted_splits_are_shared_and_read_unfolded(k, splits, distinct, nodes):
    # a Split whose clean clauses, as a set, equal those of a Split refuted
    # before reuses the earlier Split node, so the derivation shares it; the
    # text writes it once and cites it as "#n" after, and parse_dpll shares
    # it again; the size is that of the unfolded tree, and the checker and
    # the translator give what they give on it
    d = gen_php(PhpSpec(k + 1, k))
    p = solve(d).proof
    assert _split_counts(p) == (splits, distinct)
    parsed = parse_dpll(serialize_dpll(p))
    assert _split_counts(parsed) == (splits, distinct)
    assert parsed == p
    assert dpll_size(p) == dpll_size(parsed) == nodes
    assert check_dpll((), d, p) == check_dpll((), d, parsed) == VALID
    assert serialize_res(dpll_to_res((), d, p)) == serialize_res(dpll_to_res((), d, parsed))


# The variable 1 scores highest, so the search splits on it first, but no
# clause holds -1: the left branch drops the four clauses holding 1 and
# refutes the eight clauses on 5, 6 and 7 below Splits on 5 and 6, without a
# Red on 1.
IRRELEVANT = canonical_formula([(1, 2), (1, 3), (1, 4), (1, -6)]
                               + [(a * 5, b * 6, c * 7) for a in (1, -1) for b in (1, -1)
                                  for c in (1, -1)])


@pytest.mark.parametrize("mode", ["witness", "decide"])
@pytest.mark.parametrize("checked", [False, True], ids=["plain", "debug"])
def test_a_left_refutation_that_never_reads_the_split_literal_refutes_the_split(
        monkeypatch, mode, checked):
    # The right branch, under -1, would take the units 2, 3, 4 and -6 and
    # leave (5 7), (5 -7), (-5 7) and (-5 -7), refuted nowhere before, so a
    # search of it would choose a fourth literal.  Every mode chooses three:
    # the left refutation refutes the Split's own state, and the search ends
    chosen = []
    choose = solver._jw_choose

    def record(*args):
        lit, scores = choose(*args)
        chosen.append(lit)
        return lit, scores

    monkeypatch.setattr(solver, "_jw_choose", record)
    v = solve(IRRELEVANT, SolverConfig(mode=mode, assert_measure=checked,
                                       trace=mode == "witness"))
    assert chosen == [1, 5, 6]
    if mode == "decide":
        assert v is False
        return
    # the log has the Split on 1 and its drops, the derivation no node for
    # it; the Split on 5 follows at once, since the Split on 1 takes only
    # the clean clauses holding its variable, and moves none of the others
    assert v.trace[12:18] == ("split", "elim", "elim", "elim", "elim", "split")
    assert isinstance(v.proof, Split) and v.proof.lit == 5
    assert check_dpll((), IRRELEVANT, v.proof).valid


# (searched Splits, Splits scored from scratch): the outermost one, and
# those whose clean clauses differ from the enclosing Split's in at least as
# many clauses as they hold; every other Split carries the enclosing
# Split's Jeroslow-Wang scores and scores only the clauses that changed.  A
# Horn chain never splits, and builds no table
SCORINGS = [(gen_php(PhpSpec(6, 5)), 94, 6), (gen_php(PhpSpec(9, 8)), 1531, 9),
            (horn_chain(200, False), 0, 0), (horn_chain(200, True), 0, 0)]


@pytest.mark.parametrize("d, splits, scratch", SCORINGS,
                         ids=["php-6-5", "php-9-8", "horn-sat-200", "horn-unsat-200"])
def test_a_searched_split_scores_only_the_clauses_that_changed(monkeypatch, d, splits, scratch):
    calls = Counter()
    for name in ("_jw_choose", "_jw_scores", "_jw_table"):
        def count(*args, name=name, real=getattr(solver, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(solver, name, count)
    solve(d, SolverConfig(mode="decide"))
    assert (calls["_jw_choose"], calls["_jw_scores"]) == (splits, scratch)
    assert calls["_jw_table"] == (splits > 0)


def test_carried_scores_are_those_from_scratch():
    # a Split's entries, carried from the enclosing Split's by the clause it
    # lost and the one it gained, equal the entries scored from scratch.
    # With L = 3, (-2) weighs 4, so -2 scores 2 + 4 and overtakes 3
    outer = frozenset({(1, 2), (-1, 3), (2, -3, 4), (-2, -4), (3, 5), (-5, 6)})
    inner = outer - {(3, 5)} | {(-2,)}
    table = solver._jw_table(outer | inner)
    lit, scores = solver._jw_choose(outer, None, table)
    assert (lit, scores) == (3, solver._jw_scores(outer, table))
    lit, carried = solver._jw_choose(inner, (outer, scores), table)
    assert (lit, carried) == (-2, solver._jw_scores(inner, table))
    assert lit == choose_split(inner) and carried[-2] // len(table[0]) == 6


def test_debug_mode_catches_a_corrupted_score_delta(monkeypatch):
    # a delta that forgets one clause the Split lost leaves its weight on
    # its literals: the carried choice drifts from choose_split, and debug
    # mode names both literals
    carry = solver._jw_choose

    def forget_one(key, parent, table):
        if parent is not None:
            pkey, scores = parent
            gone = pkey - key
            if gone:
                parent = pkey - {min(gone)}, scores
        return carry(key, parent, table)

    monkeypatch.setattr(solver, "_jw_choose", forget_one)
    d = gen_php(PhpSpec(6, 5))
    with pytest.raises(InvariantViolation, match="from the carried scores, but choose_split gives"):
        solve(d, SolverConfig(mode="decide", assert_measure=True))


def test_the_red_of_a_unit_clause_reads_the_split_literal():
    # under the clean clauses (4) and (-4), the Split on 4 drops (4) and
    # reads 4 only in the Red of (-4) before the Conflict: no backjump
    v = solve_aux((), (), ((4,), (-4,)))
    assert v.proof == Split(4, Red((-4,), 4, CONFLICT), Red((4,), -4, CONFLICT))


def _children(node):
    if isinstance(node, Split):
        return node.left, node.right
    return () if isinstance(node, Conflict) else (node.sub,)


def _distinct_nodes(p):
    """The distinct nodes of the derivation ``p``, each once, children
    before parents."""
    order, seen, stack = [], set(), [(p, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack += [(kid, False) for kid in _children(node)]
    return order


def test_each_split_of_a_solver_derivation_reads_its_literal_on_the_left():
    # the search builds a Split only when its left refutation, read
    # unfolded, holds a Red on its literal.  A left refutation that holds
    # none stands in its place, and may be reused; it is always a Split,
    # since until the next Split the clean clauses that hold the split
    # variable are the only ones a rule other than a move can take, and a
    # Red on one that holds the literal's complement reads it (a state
    # given to solve_aux may hold unit clean clauses, which a Unit takes).
    # So the derivation shares no node but a Split
    for name, d in digest_corpus():
        v = solve(d)
        if v.satisfiable:
            continue
        reds, parents = {}, Counter()
        for node in _distinct_nodes(v.proof):
            kids = _children(node)
            parents.update(map(id, kids))
            reds[id(node)] = frozenset().union(*(reds[id(kid)] for kid in kids))
            if isinstance(node, Red):
                reds[id(node)] |= {node.lit}
            elif isinstance(node, Split):
                assert node.lit in reds[id(node.left)], name
        for node in _distinct_nodes(v.proof):
            if parents[id(node)] > 1:
                assert isinstance(node, (Split, Conflict)), name


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
    # a Unit per clause of the chain: the measure is checked at every step
    v = solve(horn_chain(200, unsat), SolverConfig(assert_measure=True))
    assert v.satisfiable == (not unsat)


# Calls of _check_state made by the search, one per search step.  A Horn
# chain of n clauses takes about 3n steps: each clause moves to the clean
# clauses once, and a Unit takes back only the one clause holding its
# variable (a search that moved every clean clause back at each Unit took
# 20101 and 10300).  PHP(5,4) has Splits whose clean clauses equal those of
# a Split refuted before, and PHP(4,3) and PHP(5,4) Splits whose left
# refutation never reads their literal: debug mode reuses and backjumps as
# the default mode does, so it checks every state its search visits, and
# none below a reused Split or in the right branch of a backjumped one
CHECKS_PER_SOLVE = [(horn_chain(200, False), 598), (horn_chain(200, True), 598),
                    (gen_php(PhpSpec(4, 3)), 186), (gen_php(PhpSpec(5, 4)), 647)]


@pytest.mark.parametrize("d, checks", CHECKS_PER_SOLVE)
def test_measure_assertion_checks_every_step(monkeypatch, d, checks):
    # debug mode checks every state the search visits
    calls = []
    check_state = solver._check_state
    monkeypatch.setattr(solver, "_check_state", lambda *a: calls.append(1) or check_state(*a))
    solve(d, SolverConfig(assert_measure=True))
    assert len(calls) == checks


def test_check_state_rejects_unsound_occurrence_index():
    # a Unit or a Split on l takes from the clean clauses those that its
    # occurrence list holds: one it missed would share a variable with the
    # valuation.  The valuation is consistent, no clean clause is empty, and
    # each step lowers (measure, size of the working formula)
    g, d, t = {1}, deque([(1, 2)]), {(2, 3)}
    assert solver._check_state(g, d, t, None) == (measure(g, d, t), 1)
    with pytest.raises(InvariantViolation):
        solver._check_state({1}, deque(), {(-1, 2)}, None)
    with pytest.raises(InvariantViolation):
        solver._check_state({1, -1}, deque(), set(), None)
    with pytest.raises(InvariantViolation):
        solver._check_state(set(), deque(), {()}, None)
    with pytest.raises(MeasureViolation):
        solver._check_state(g, d, t, (measure(g, d, t), 1))
    assert solver._check_state(g, d, t, (measure(g, d, t), 2)) == (measure(g, d, t), 1)


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
    # a Unit takes back from the clean clauses only the one holding its
    # variable, so four times the chain takes about four times as long (a
    # search that rejoins every clean clause at each Unit takes about fifteen)
    # rounds alternate the sizes, so a slow stretch of the host slows both
    chains = {n: horn_chain(n, False) for n in (2000, 8000)}
    best = dict.fromkeys(chains, float("inf"))
    for _ in range(3):
        for n, d in chains.items():
            start = time.perf_counter()
            solve(d, SolverConfig(mode="decide"))
            best[n] = min(best[n], time.perf_counter() - start)
    assert best[8000] / best[2000] < 8


def test_a_unit_moves_only_the_clean_clauses_holding_its_variable():
    # 500 clauses over variables the chain lacks move to the clean clauses
    # once each, and no Unit of the chain moves them back: 548 moves, those
    # and the 48 chain clauses clean when first met, where a search that
    # sent every clean clause back to the working formula at each Unit
    # logged 13100
    fresh = tuple((100 + 2 * j, 101 + 2 * j) for j in range(500))
    v = solve(horn_chain(50, True) + fresh, SolverConfig(trace=True))
    assert not v.satisfiable
    assert Counter(v.trace) == {"move": 548, "unit": 50, "red": 50, "conflict": 1}


def test_the_rule_log_holds_the_searched_steps():
    # a Split on clean clauses refuted before logs one "reuse", not the
    # earlier Split's steps again: PHP(6,5) searches the 94 Splits counted
    # in SCORINGS, and PHP(10,9) logs 102,513 steps, where a log repeating
    # each reused Split's steps held 13,419,015
    v = solve(gen_php(PhpSpec(6, 5)), SolverConfig(trace=True))
    assert Counter(v.trace) == {"move": 299, "split": 94, "red": 579, "elim": 664, "unit": 311,
                                "conflict": 20, "reuse": 30}
    assert len(solve(gen_php(PhpSpec(10, 9)), SolverConfig(trace=True)).trace) == 102_513


def test_precondition_violations_raise_in_debug_mode():
    cfg = SolverConfig(assert_measure=True)
    with pytest.raises(InvariantViolation):
        solve_aux((1, -1), ((1,),), (), cfg)
    with pytest.raises(InvariantViolation):
        solve_aux((), (), ((),), cfg)
    with pytest.raises(InvariantViolation):
        solve_aux((1,), (), ((1, 2),), cfg)


@pytest.mark.parametrize("mode", ["witness", "decide"])
def test_precondition_violations_raise_in_every_mode(mode):
    # solve_aux checks its state before searching, not only in debug mode:
    # an inconsistent valuation, an empty clean clause, and a clean clause
    # sharing a variable with the valuation
    cfg = SolverConfig(mode=mode)
    for g, d, t in [((1, -1), ((),), ()), ((), (), ((),)), ((1,), (), ((-1, 2),))]:
        with pytest.raises(InvariantViolation):
            solve_aux(g, d, t, cfg)


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


def answer(v):
    """The verdict, rule log, model and derivation of a witness Verdict.
    Debug mode reuses the refuted Splits the default mode reuses, so both
    share the same Splits; the derivations compare unfolded, with
    ``==``."""
    return v.satisfiable, v.trace, v.model, v.proof


def test_debug_mode_matches_plain_mode():
    # checking every state changes nothing the search does, and neither
    # does keeping the rule log
    for name, d in digest_corpus():
        plain = solve(d, SolverConfig(trace=True))
        debug = solve(d, SolverConfig(trace=True, assert_measure=True))
        assert answer(plain) == answer(debug), name
        untraced = solve(d)
        assert untraced == replace(plain, trace=None), name
        if not plain.satisfiable:
            assert serialize_dpll(untraced.proof) == serialize_dpll(plain.proof), name


# Search from intermediate states.  tests/data/solver_aux_digests.json records
# the verdict and evidence of solve_aux on a seeded corpus of (g, d, t)
# states, made the same way as solver_digests.json.  In about half of them t
# repeats clauses of d, which the search keeps in the working formula only,
# and reducts often equal input clauses.

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


def test_solve_aux_debug_mode_matches_plain_mode():
    plain_cfg, debug_cfg = SolverConfig(trace=True), SolverConfig(trace=True, assert_measure=True)
    for name, g, d, t in aux_corpus():
        plain, debug = solve_aux(g, d, t, plain_cfg), solve_aux(g, d, t, debug_cfg)
        assert answer(plain) == answer(debug), name


def test_solve_aux_decides_as_it_witnesses():
    # and each refutation is one the checker accepts: some states give unit
    # clean clauses, whose Reds are the only reads of a Split's literal
    decide = SolverConfig(mode="decide")
    for name, g, d, t in aux_corpus():
        v = solve_aux(g, d, t)
        assert solve_aux(g, d, t, decide) is v.satisfiable, name
        if not v.satisfiable:
            assert check_dpll(g, d + t, v.proof).valid, name


if __name__ == "__main__":
    digests = {name: solver_digest(d) for name, d in digest_corpus()}
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
    digests = {name: aux_digest(g, d, t) for name, g, d, t in aux_corpus()}
    AUX_DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {AUX_DIGESTS}", file=sys.stderr)
