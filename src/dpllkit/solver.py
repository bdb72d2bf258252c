"""Measure-decreasing DPLL search producing models or refutation trees.

The search state is a triple (g, d, t): the current valuation, one set of
literals, the working formula, and the clean clauses (clauses sharing no
variable with the valuation, on which only a split can act).  Each step
takes the head clause of ``d`` and applies one rule: Elim, Conflict, Unit,
Red, or a move of the clause to ``t``; an empty ``d`` ends in a model or a
Split on the Jeroslow–Wang literal of ``t`` (Jeroslow and Wang, Ann. Math.
AI 1990; ``choose_split``).  The steps
run in one loop, and an explicit stack holds the open Splits, so the search
needs no recursion however long it runs.  Witness mode builds an
``Assignment`` or a ``DpllDerivation``; decide mode runs the identical
control flow with evidence construction elided, and returns a bool.

Elim drops a clause the valuation satisfies from the working formula, and
the rule log records it as ``"elim"``, but the derivation gets no node for
it: the clause stays in the derivation's formula, where no later rule
reads it, and no sequent of the checker holds it.

A searched step costs the clauses it touches, not the formula.  ``d`` is a
queue and ``t`` a set.  An occurrence list maps each variable to the
clauses holding it: the input clauses in input order, and each reduct from
the Red that first makes it.  A Unit or a Split on a literal makes unclean
only the clean clauses holding its variable, so it moves those, in the
order of its variable's occurrence list, to the back of ``d``; every other
clean clause stays in ``t`` untouched (occurrence lists: Moskewicz et al.,
"Chaff", DAC 2001).  A right branch restarts from the Split's clean
clauses and an empty ``d``, and takes the occurrences of its literal the
same way.

A searched Split scores only the clauses that changed.  It takes the
Jeroslow–Wang scores of the innermost open Split, in its left or its right
branch, less the clauses that Split's clean clauses hold and its own do
not, plus those its own hold and that Split's do not; only the outermost
Split, and one whose clean clauses differ from the enclosing Split's in at
least as many clauses as they hold, scores from scratch (branching scores
kept current rather than recomputed: Zhang and Malik, "The Quest for
Efficient Boolean Satisfiability Solvers", CAV 2002).  The weights use the
longest input clause, and each score carries its literal's rank in
``lit_key`` order, so the largest names ``choose_split``'s literal; debug
mode checks each searched Split against ``choose_split``.

Below a Split the rules read only the clean clauses, so a refutation of
clean clauses S refutes every state whose clean clauses are S (formula
caching, Beame et al., CCC 2003).  A Split whose set of clean clauses was
refuted before is refuted by what the earlier Split produced: the
derivation shares that node, and the rule log repeats its span.

A Split whose left branch is refuted without a Red on its literal (the
Red of a unit clause before a Conflict counts) is backjumped: its left
refutation reads no literal the Split added, and a reused refutation reads
none from outside itself, so it refutes the Split's own state.  No Split
node is built; the Split's clean clauses are recorded as refuted by the
left refutation, closing goes on outward, and the right branch is never
searched (conflict-directed backjumping: Prosser, Comput. Intell. 1993;
Bayardo and Schrag, AAAI 1997).  A Red tests its literal against the open
Splits' literals with one set lookup.  So the search below a Split depends
on its clean clauses and on the Splits refuted before it.  Debug mode runs
the same search and checks every state it visits, so its derivations,
models and rule logs are those of the default mode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections import deque
from itertools import chain
from typing import Collection, Optional, Union

from .cnf import (
    Assignment,
    Formula,
    Lit,
    Valuation,
    canonical_formula,
    canonical_valuation,
    is_consistent,
    lit_key,
    measure,
)
from .dpll_proof import CONFLICT, DpllDerivation, Red, Split, Unit, close, collector_paused


class InvariantViolation(Exception):
    """A search state broke an invariant: ``solve_aux`` checks its input
    state in every mode, and debug mode (``assert_measure``) every state."""


class MeasureViolation(InvariantViolation):
    """A search step failed to decrease the lexicographic measure."""


class InconsistentValuation(ValueError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "witness"  # "witness" | "decide"
    assert_measure: bool = False
    trace: bool = False  # witness mode only

    def __post_init__(self):
        if self.mode not in ("witness", "decide"):
            raise ValueError(f"SolverConfig.mode must be 'witness' or 'decide', not {self.mode!r}")
        if self.trace and self.mode == "decide":
            raise ValueError("SolverConfig.trace needs mode='witness': decide mode keeps no log")


@dataclass(frozen=True)
class Verdict:
    """A witness-mode answer: a model of a satisfiable formula, or else a
    derivation, and with ``trace=True`` the rule log.  The derivation may
    share a refuted Split subtree among several Splits, which ``repr``
    writes as ``...`` and the text as ``#n`` after its first time; ``==``
    reads it unfolded, ``dpll_size`` is the unfolded size each node was
    built with, and the checker and the translator cost each distinct
    Split about once.  A Split the search backjumped past has no node: its
    left refutation stands in its place, and is what a Split reusing its
    clean clauses shares.  The rule log keeps its ``"split"`` and the steps of
    its left branch."""

    satisfiable: bool
    model: Optional[Assignment] = None
    proof: Optional[DpllDerivation] = None
    trace: Optional[tuple[str, ...]] = None


def complete_model(g: Collection[Lit]) -> Assignment:
    """Assignment making every literal of a consistent valuation (any
    collection of literals) true; other variables are true."""
    if not is_consistent(g):
        raise InconsistentValuation(f"valuation is inconsistent: {g}")
    return Assignment({abs(l): l > 0 for l in g})


def choose_split(t: Collection) -> Lit:
    """Split literal by the Jeroslow–Wang rule, the reference definition
    that the search's carried scores (``_jw_choose``) must agree with, and
    that debug mode checks each searched Split against: each literal scores
    the sum of 2^-|c| over the clauses c of ``t`` holding it.  The best
    score wins, and a tie goes to the literal first in ``lit_key`` order
    (the smallest variable, positive first), so the literal depends only on
    the set of clauses, not on their order.  This is the from-scratch case
    of the search's rule, with ``t``'s own literals and longest clause."""
    if not t:
        raise ValueError("cannot choose a split literal from an empty formula")
    table = _jw_table(t)
    order = table[0]
    return order[max(_jw_scores(t, table).values()) % len(order)]


def _jw_table(clauses: Collection) -> tuple[list, dict, list]:
    """What the Jeroslow–Wang scores of sets of ``clauses``, and of their
    reducts, are kept in.  With R literals and L the longest clause, a
    literal's entry is ``score * R + rank``, where ``score`` is the sum of
    2^(L - |c|) over its clauses (integers proportional to 2^-|c|, so a
    shorter L scales every score by one factor) and ``rank`` its place in
    ``order``, the literals in reversed ``lit_key`` order.  The largest
    entry names the best score and, among its ties, the literal first in
    ``lit_key`` order.  Returns ``order``, the entries of the empty set, and
    each clause length's weight, 2^(L - |c|) * R."""
    order = sorted({l for c in clauses for l in c}, key=lit_key, reverse=True)
    top = max(map(len, clauses))
    r = len(order)
    return order, {l: i for i, l in enumerate(order)}, [r << (top - n) for n in range(top + 1)]


def _jw_scores(t: Collection, table: tuple) -> dict:
    """The Jeroslow–Wang entries of the clauses ``t``, scored from scratch."""
    _, scores, weight = table
    scores = scores.copy()
    for c in t:
        w = weight[len(c)]
        for l in c:
            scores[l] += w
    return scores


def _jw_choose(key: frozenset, parent: Optional[tuple], table: tuple) -> tuple[Lit, dict]:
    """The split literal of the clean clauses ``key`` and their Jeroslow–Wang
    entries: those of the enclosing Split's ``parent`` (key, entries) pair,
    less the clauses it lost and plus those it gained, or from scratch at
    the outermost Split and where that difference is no smaller than
    ``key``."""
    if parent is None:
        scores = _jw_scores(key, table)
    else:
        pkey, scores = parent
        gone, new = pkey - key, key - pkey
        if len(gone) + len(new) >= len(key):
            scores = _jw_scores(key, table)
        else:
            weight = table[2]
            scores = scores.copy()
            for clauses, sign in ((gone, -1), (new, 1)):
                for c in clauses:
                    w = sign * weight[len(c)]
                    for l in c:
                        scores[l] += w
    order = table[0]
    return order[max(scores.values()) % len(order)], scores


def solve(d, cfg: SolverConfig = SolverConfig()) -> Union[Verdict, bool]:
    """Decide a CNF formula: ``solve_aux`` from the empty valuation."""
    return solve_aux((), d, (), cfg)


def solve_aux(g: Valuation, d, t=(), cfg: SolverConfig = SolverConfig()) -> Union[Verdict, bool]:
    """Search from the state (g, d, t): valuation ``g``, working formula
    ``d``, clean clauses ``t``.  Witness mode returns a ``Verdict`` with a
    model or a derivation, built with the cyclic collector paused, and with
    ``cfg.trace`` the rule log; decide mode returns only the satisfiability
    boolean.  In every mode, the state is first checked (``_check_clean``):
    ``InvariantViolation`` unless ``g`` is consistent and ``t`` holds no
    empty clause and no variable of ``g``."""
    g, d, t = canonical_valuation(g), canonical_formula(d), canonical_formula(t)
    _check_clean(g, t)
    witness = cfg.mode == "witness"
    log: Optional[list[str]] = [] if cfg.trace else None
    v = (_witness_search if witness else _search)(g, d, t, witness, cfg.assert_measure, log)
    if log is not None:
        v = replace(v, trace=tuple(log))
    return v


def _check_clean(g, t) -> None:
    """Raise ``InvariantViolation`` unless the valuation ``g`` is consistent
    and the clean clauses ``t`` are nonempty and share no variable with it."""
    if not all(t):
        raise InvariantViolation("empty clause among clean clauses")
    if not is_consistent(g):
        raise InvariantViolation(f"inconsistent valuation: {g}")
    if not set(map(abs, g)).isdisjoint(map(abs, chain.from_iterable(t))):
        raise InvariantViolation("clean clauses share variables with the valuation")


def _check_state(g, d, t, prev: Optional[tuple[int, int]]) -> tuple[int, int]:
    """Debug-mode invariants of a search state: those of ``_check_clean``,
    which fail if a Unit or a Split left among the clean clauses ``t`` a
    clause holding its variable, and a measure, returned, that must be below
    ``prev``, the measure of the state it came from."""
    _check_clean(g, t)
    cur = (measure(g, d, t), len(d))
    if prev is not None and not cur < prev:
        raise MeasureViolation(f"measure did not decrease: {prev} -> {cur}")
    return cur


def _check_split(key: frozenset, lit: Lit) -> None:
    """Debug-mode check of a searched Split: raise ``InvariantViolation``
    unless ``lit``, chosen from carried scores, is ``choose_split(key)``."""
    want = choose_split(key)
    if lit != want:
        raise InvariantViolation(f"split literal {lit} from the carried scores, "
                                 f"but choose_split gives {want}")


def _take(lit: Lit, gset: set, occ: dict, t: set, d: deque, live: set) -> None:
    """Add ``lit`` to the valuation ``gset``, and move the clean clauses of
    ``t`` that hold its variable to the back of the working formula ``d``
    (and into ``live``, its set), in the order of their occurrence list."""
    gset.add(lit)
    for c in occ.get(abs(lit), ()):
        if c in t:
            t.remove(c)
            d.append(c)
            live.add(c)


def _search(g0: Valuation, d0: Formula, t0: Formula, witness: bool, check: bool,
            log: Optional[list[str]]) -> Union[Verdict, bool]:
    # gset is the valuation, d the working formula, a queue whose clauses
    # live holds, and t the clean clauses, a set; d and t share no clause.
    # occ maps each variable to the clauses holding it: the input clauses,
    # (*d0, *t0), in input order, then each reduct when a Red first makes it
    # (known holds every clause listed).  A Unit or a Split on l moves the
    # clauses of occ[|l|] in t to the back of d (_take): the clean clauses
    # l makes unclean, and no others.  A Red appends its reduct to d unless
    # it is in d or t already.  In witness mode frames holds the open nodes
    # outermost first, as dpll_proof.close reads them: (rule, first, second)
    # for each Unit, Red and Split step on the path to the current state.
    # splits holds, for each open Split, (lit, (key, scores), valuation,
    # measure, start) while it is in its left branch, and (None, (key,
    # scores), start) while it is in its right branch.  key is the frozenset
    # of its clean clauses, from which with the valuation its right branch
    # restarts, scores their Jeroslow-Wang entries, from which the next
    # Split inside it carries its own (_jw_choose), and start the length of
    # the log before its "split".  table holds the literal order and the
    # clause-length weights of the entries (_jw_table), made at the first
    # searched Split.  unread holds the literals of the Splits in their left
    # branch that no Red has read.  At a Split d is empty and the clean
    # clauses share no variable with gset, so every rule below it reads only
    # them, and a refutation below it refutes every state with the same
    # clean clauses.  refuted maps the key of each refuted Split to what it
    # produced: its Split node in witness mode, or its left refutation if
    # backjumped, True in decide mode, and with a log that and the span
    # (start, end) of its steps in the log.  A Split whose key is in refuted
    # is refuted by what it maps to, in place of a search.
    gset = set(g0)
    known = dict.fromkeys((*d0, *t0))
    occ: dict[int, list] = {}
    for c in known:
        for l in c:
            occ.setdefault(abs(l), []).append(c)
    d = deque(d0)
    live = set(d0)
    t = set(t0).difference(live)
    frames: list = []
    splits: list[tuple] = []
    refuted: dict[frozenset, object] = {}
    unread: set[Lit] = set()
    table = None
    prev = None
    while True:
        if check:
            prev = _check_state(gset, d, t, prev)

        if d:
            c = d.popleft()
            live.remove(c)
            if not gset.isdisjoint(c):
                # the clause is already satisfied by the valuation: it
                # leaves the working formula, and no rule below reads it
                if log is not None:
                    log.append("elim")
                continue

            if not c:
                if log is not None:
                    log.append("conflict")
            elif len(c) == 1:
                lit = c[0]
                if -lit in gset:
                    if log is not None:
                        log.append("red")
                        log.append("conflict")
                    if witness:
                        frames.append((Red, c, -lit))
                    if unread:
                        unread.discard(-lit)
                else:
                    if log is not None:
                        log.append("unit")
                    if witness:
                        frames.append((Unit, lit, None))
                    _take(lit, gset, occ, t, d, live)
                    continue
            else:
                for falsified in c:
                    if -falsified in gset:
                        break
                else:
                    # no variable of c is decided: move it to the clean
                    # clauses
                    if log is not None:
                        log.append("move")
                    t.add(c)
                    continue
                if log is not None:
                    log.append("red")
                if witness:
                    frames.append((Red, c, -falsified))
                if unread:
                    unread.discard(-falsified)
                k = c.index(falsified)
                reduct = c[:k] + c[k + 1:]
                if reduct not in live and reduct not in t:
                    d.append(reduct)
                    live.add(reduct)
                    if reduct not in known:
                        known[reduct] = None
                        for l in reduct:
                            occ.setdefault(abs(l), []).append(reduct)
                continue
            node = CONFLICT
        elif not t:
            if log is not None:
                log.append("model")
            return Verdict(True, complete_model(gset)) if witness else True
        else:
            key = frozenset(t)
            found = refuted.get(key)
            if found is None:
                start = None
                if log is not None:
                    start = len(log)
                    log.append("split")
                if table is None:
                    table = _jw_table(known)
                lit, scores = _jw_choose(key, splits[-1][1] if splits else None, table)
                if check:
                    _check_split(key, lit)
                splits.append((lit, (key, scores), frozenset(gset), prev, start))
                unread.add(lit)
                if witness:
                    frames.append((Split, lit, None))
                _take(lit, gset, occ, t, d, live)
                continue
            # a Split on these clean clauses was refuted before, and the
            # search below it would repeat every step: take what it produced
            if log is not None:
                found, start, end = found
                log.extend(log[start:end])
            node = found

        # The branch is refuted by node: close the nodes around it up to the
        # innermost Split still in its left branch, record each Split in its
        # right branch that this refutes, innermost first, as close builds
        # them, and start the right branch of the Split reached.  A Split
        # whose left refutation never read its literal is refuted by that
        # refutation, and no Split node is built: it is recorded with it as
        # the innermost of the Splits the next close refutes.
        built: list = []
        while True:
            if witness:
                proof = close(frames, node, built)
                built.reverse()
            while splits and splits[-1][0] is None:
                _, (key, _), start = splits.pop()
                node = built.pop() if witness else True
                refuted[key] = node if log is None else (node, start, len(log))
            if not splits:
                return Verdict(False, proof=proof) if witness else False
            lit, pair, g, prev, start = splits[-1]
            if lit not in unread:
                break
            unread.remove(lit)
            splits[-1] = (None, pair, start)
            if witness:
                frames.pop()
                node = proof
                built.append(proof)
        splits[-1] = (None, pair, start)
        gset, t = set(g), set(pair[0])
        d, live = deque(), set()
        _take(-lit, gset, occ, t, d, live)


_witness_search = collector_paused(_search)
