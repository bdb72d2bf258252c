"""Measure-decreasing DPLL search producing models or refutation trees.

The search state is a triple (g, d, t): the current valuation, one set of
literals, the working formula, and the clean clauses (clauses sharing no
variable with the valuation, on which only a split can act).  Each step
takes the head clause of ``d`` and applies one rule: Elim, Conflict, Unit,
Red, or a move of the clause to ``t``; an empty ``d`` ends in a model or a
Split on the Jeroslow–Wang literal of ``t`` (``choose_split``).  The steps
run in one loop, and an explicit stack holds the open Splits, so the search
needs no recursion however long it runs.  Witness mode builds an
``Assignment`` or a ``DpllDerivation``; decide mode runs the identical
control flow with evidence construction elided, and returns a bool.

Elim drops a clause the valuation satisfies from the working formula, and
the rule log records it as ``"elim"``, but the derivation gets no node for
it: the clause stays in the derivation's formula, where no later rule
reads it, and the checker's walk records a shared Split by the clauses its
subtree reads.

``d`` and ``t`` are one ring, a list read through a cursor: ``d`` runs from
the cursor to a boundary and ``t`` from the boundary to the end.  A move
appends its clause to the ring and a reduct is inserted at the boundary.  A
Unit, after which every clean clause rejoins the working formula, only
moves the boundary to the end, so it costs O(1) however many clean clauses
there are.  Only a clause in both ``d`` and ``t`` (a reduct equal to a clean
clause, or a state given to ``solve_aux``) makes it scan ``t`` to drop the
clause's second copy.

Most steps are moves, which emit no proof node.  An occurrence index maps
each variable to the positions of the input clauses holding it, and a byte
mask marks the hit positions: those of the clauses of variables ever
assumed, of the clauses shorter than two literals and of the reducts.  A
clause at an unmarked position can only be moved, and stays in the ring
inside a ``range`` of input positions, so a run of such clauses moves as one
appended range found by one scan of the mask.

Below a Split the rules read only the clean clauses, so a refutation of
clean clauses S refutes every state whose clean clauses include S (formula
caching, Beame et al., CCC 2003).  A Split whose clean clauses, in ring
order, were refuted before, or else include a set refuted before, is
refuted by what the earlier Split produced (the earliest refuted such, in
the second case): the derivation shares that node, and the rule log
repeats its span.

A Split whose left branch is refuted without a Red on its literal (the
Red of a unit clause before a Conflict counts) is backjumped: its left
refutation reads no literal the Split added, and a reused refutation reads
none from outside itself, so it refutes the Split's own state.  No Split
node is built; the Split's clean clauses are recorded as refuted by the
left refutation, closing goes on outward, and the right branch is never
searched (conflict-directed backjumping: Prosser, Comput. Intell. 1993;
Bayardo and Schrag, AAAI 1997).  A Red tests its literal against the open
Splits' literals with one set lookup.  So the search below a Split depends
on its clean clauses and on the Splits refuted before it.  Derivations,
models and rule logs are those of a search with one-step moves and the
same reuse and backjumps, as debug mode runs it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, filterfalse, islice
from typing import Collection, Optional, Union

from .cnf import (
    Assignment,
    Formula,
    Lit,
    Valuation,
    canonical_formula,
    canonical_valuation,
    is_consistent,
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
    built with, and the checker and the translator walk each shared Split
    about once.  A Split the search backjumped past has no node: its left
    refutation stands in its place, and is what a Split reusing its clean
    clauses shares.  The rule log keeps its ``"split"`` and the steps of
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


def choose_split(t: Formula) -> Lit:
    """Split literal by the Jeroslow–Wang rule: each literal scores the sum
    of 2^(L - |c|) over the clauses c of ``t`` holding it, where L is the
    longest clause, so the integer weights are proportional to 2^-|c|.  The
    best score wins, and a tie goes to the literal met first in ``t``."""
    if not t:
        raise ValueError("cannot choose a split literal from an empty formula")
    top = max(map(len, t))
    score: dict[Lit, int] = {}
    for c in t:
        w = 1 << (top - len(c))
        for l in c:
            score[l] = score.get(l, 0) + w
    return max(score, key=score.__getitem__)


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


def _check_state(g, d, t, prev: Optional[tuple[int, int]], hits: set) -> tuple[int, int]:
    """Debug-mode invariants of a search state; returns its measure, which
    must be below ``prev``, the measure of the state it came from.  Every
    clause of ``d`` not among its hit clauses ``hits`` must be one that only
    a move can take."""
    _check_clean(g, t)
    gvars = set(map(abs, g))
    for c in filterfalse(hits.__contains__, d):
        if len(c) < 2 or not gvars.isdisjoint(map(abs, c)):
            raise InvariantViolation(f"clause {c} outside the occurrence index is not clean")
    cur = (measure(g, d, t), len(d))
    if prev is not None and not cur < prev:
        raise MeasureViolation(f"measure did not decrease: {prev} -> {cur}")
    return cur


# Ring entries.  An entry is a hit clause, or a range of positions in the
# input tuple, whose clauses are hit where the mask marks their positions.

def _expand(entries, inp: Formula) -> list:
    """The clauses of ring entries, in order."""
    return list(chain.from_iterable((e,) if type(e) is tuple else inp[e.start:e.stop]
                                    for e in entries))


def _hit_positions(e: range, hitmask: bytearray):
    """The hit positions of a range entry."""
    p = hitmask.find(1, e.start, e.stop)
    while p >= 0:
        yield p
        p = hitmask.find(1, p + 1, e.stop)


def _hit_set(entries, inp: Formula, hitmask: bytearray) -> set:
    """The hit clauses of ring entries."""
    out = set(entries)
    if range in map(type, entries):
        ranges = [e for e in out if type(e) is range]
        out.difference_update(ranges)
        for e in ranges:
            out.update(map(inp.__getitem__, _hit_positions(e, hitmask)))
    return out


def _without(entries, drop: set, inp: Formula, hitmask: bytearray) -> list:
    """Ring entries less the clauses of ``drop``, all of which are hit."""
    out = []
    for e in entries:
        if type(e) is tuple:
            if e not in drop:
                out.append(e)
            continue
        lo = e.start
        for p in _hit_positions(e, hitmask):
            if inp[p] in drop:
                if lo < p:
                    out.append(range(lo, p))
                lo = p + 1
        if lo < e.stop:
            out.append(range(lo, e.stop))
    return out


def _assume(positions, inp: Formula, hitmask: bytearray) -> list:
    """Mark the input ``positions`` hit; returns the clauses newly marked."""
    new = []
    for p in positions:
        if not hitmask[p]:
            hitmask[p] = 1
            new.append(inp[p])
    return new


def _refuted_subset(key: tuple, index: dict):
    """What the earliest refuted Split whose clean clauses are a subset of
    ``key`` produced, or ``None``.  ``index`` lists each refuted set once,
    under one of its clauses, as (order refuted, set, what it produced), in
    the order refuted; a set listed under no clause of ``key`` is no
    subset."""
    t = frozenset(key)
    best = None
    for c in index.keys() & t:
        for entry in index[c]:
            if best is not None and entry[0] >= best[0]:
                break
            if entry[1] <= t:
                best = entry
                break
    return None if best is None else best[2]


def _search(g0: Valuation, d0: Formula, t0: Formula, witness: bool, check: bool,
            log: Optional[list[str]]) -> Union[Verdict, bool]:
    # gset is the valuation.  In the ring q, q[i:b] is the working formula
    # and q[b:] the clean clauses: a move appends its clause to q, a reduct
    # is inserted at b, and a Unit or Split moves b to the end of q, so every
    # clean clause rejoins the working formula untouched.  Entries before i
    # are spent, and dropped now and then.  inp is the input, (*d0, *t0), and
    # occ maps each variable to the positions in inp of the clauses holding
    # it.  Every clause a rule other than a move may act on is hit: a tuple
    # entry always, a position of a range entry when hitmask marks it.  The
    # mask marks the clauses shorter than two literals, those in both d0 and
    # t0, the input copy of every reduct that joins d, and occ[v] for each
    # variable v ever assumed (popped from occ when first assumed).  A clause
    # at an unmarked position shares no variable with gset and is in the ring
    # once, in a range entry, so a run of them moves as one range.  The mask
    # only grows, so backtracking undoes nothing; a clean clause marked in it
    # takes the one-step path.  live and tset are the hit clauses of the
    # working formula and of the clean clauses.  In witness mode frames holds
    # the open nodes outermost first, as dpll_proof.close reads them: (rule,
    # first, second) for each Unit, Red and Split step on the path to
    # the current state.  splits holds, for each open Split, (lit, valuation,
    # clean clauses, measure, key, start) while it is in its left branch, the
    # state its right branch restarts from, and (None, key, start) while it is
    # in its right branch.  key is the tuple of its clean clauses and start
    # the length of the log before its "split".  unread holds the literals
    # of the Splits in their left branch that no Red has read.  At a Split d
    # is empty and the clean clauses share no variable with gset, so every
    # rule below it reads only them, and a refutation below it refutes every
    # state whose clean clauses include them.  refuted maps the key of each
    # refuted Split to what it produced: its Split node in witness mode, or
    # its left refutation if backjumped, True in decide mode, and with a log
    # that and the span (start, end) of its steps in the log; index lists
    # each refuted set once (_refuted_subset).  A Split whose
    # key is in refuted, or else whose clean clauses include a refuted set,
    # is refuted by what that Split, the earliest refuted such, produced, in
    # place of a search.  So the search below a Split depends on its key and
    # on the Splits refuted before it, and debug mode takes the same reuse,
    # checking every state its search visits.
    gset = set(g0)
    inp = (*d0, *t0)
    occ: dict[int, list[int]] = {}
    pos = {c: p for p, c in enumerate(inp)}
    both = set(d0).intersection(t0)
    hitmask = bytearray(len(inp))
    for p, c in enumerate(inp):
        if len(c) < 2 or c in both:
            hitmask[p] = 1
        for l in c:
            occ.setdefault(abs(l), []).append(p)

    for l in g0:
        _assume(occ.pop(abs(l), ()), inp, hitmask)
    q: list = [range(0, len(d0))] if d0 else []
    i, b = 0, len(q)
    if t0:
        q.append(range(len(d0), len(inp)))
    live, tset = _hit_set(q[:b], inp, hitmask), _hit_set(q[b:], inp, hitmask)
    frames: list = []
    splits: list[tuple] = []
    refuted: dict[tuple, object] = {}
    index: dict[tuple, list] = {}
    unread: set[Lit] = set()
    prev = None
    while True:
        if check:
            prev = _check_state(gset, _expand(q[i:b], inp), _expand(q[b:], inp), prev,
                                _hit_set(q[i:b], inp, hitmask))

        if i < b:
            e = q[i]
            if type(e) is tuple:
                c = e
                i += 1
            else:
                p = e.start
                if not hitmask[p]:
                    # inp[p] and the clauses behind it in e up to the next
                    # hit one are clean: move them as one range (one at a
                    # time when every state is checked)
                    k = p + 1 if check else hitmask.find(1, p + 1, e.stop)
                    if k < 0 or k == e.stop:
                        q.append(e)
                        i += 1
                        k = e.stop
                    else:
                        q.append(range(p, k))
                        q[i] = range(k, e.stop)
                    if log is not None:
                        log.extend(["move"] * (k - p))
                    continue
                c = inp[p]
                if p + 1 == e.stop:
                    i += 1
                else:
                    q[i] = range(p + 1, e.stop)
            live.discard(c)
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
                    gset.add(lit)
                    # the clean clauses rejoin the working formula behind
                    # it, less those already in it
                    if not live.isdisjoint(tset):
                        q[b:] = _without(q[b:], live & tset, inp, hitmask)
                    if 2 * i > len(q):
                        del q[:i]
                        i = 0
                    b = len(q)
                    live |= tset
                    tset = set()
                    if abs(lit) in occ:
                        live.update(_assume(occ.pop(abs(lit)), inp, hitmask))
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
                    if c not in tset:
                        q.append(c)
                        tset.add(c)
                    continue
                if log is not None:
                    log.append("red")
                if witness:
                    frames.append((Red, c, -falsified))
                if unread:
                    unread.discard(-falsified)
                k = c.index(falsified)
                reduct = c[:k] + c[k + 1:]
                if reduct not in live:
                    p = pos.get(reduct)
                    if p is not None and not hitmask[p]:
                        # an input clause not hit, in the ring once: if it is
                        # in the working formula, so is the reduct already;
                        # else its copy among the clean clauses is now hit
                        if any(type(e) is range and p in e for e in islice(q, i, b)):
                            continue
                        hitmask[p] = 1
                        tset.add(reduct)
                    q.insert(b, reduct)
                    b += 1
                    live.add(reduct)
                continue
            node = CONFLICT
        elif b == len(q):
            if log is not None:
                log.append("model")
            return Verdict(True, complete_model(gset)) if witness else True
        else:
            del q[:b]
            t = _expand(q, inp)
            key = tuple(t)
            found = refuted.get(key)
            if found is None:
                found = _refuted_subset(key, index)
            if found is None:
                start = None
                if log is not None:
                    start = len(log)
                    log.append("split")
                lit = choose_split(t)
                splits.append((lit, frozenset(gset), tuple(q), prev, key, start))
                unread.add(lit)
                if witness:
                    frames.append((Split, lit, None))
                gset.add(lit)
                i, b = 0, len(q)
                live, tset = tset, set()
                # b is at the end of q, so the newly hit clauses are in d
                if abs(lit) in occ:
                    live.update(_assume(occ.pop(abs(lit)), inp, hitmask))
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
                _, key, start = splits.pop()
                node = built.pop() if witness else True
                found = refuted[key] = node if log is None else (node, start, len(log))
                # listed under its last clause in ring order, which few later
                # clean clauses hold (on PHP and random 3-SAT)
                index.setdefault(key[-1], []).append((len(refuted), frozenset(key), found))
            if not splits:
                return Verdict(False, proof=proof) if witness else False
            lit, g, t, prev, key, start = splits[-1]
            if lit not in unread:
                break
            unread.remove(lit)
            splits[-1] = (None, key, start)
            if witness:
                frames.pop()
                node = proof
                built.append(proof)
        splits[-1] = (None, key, start)
        gset = {*g, -lit}
        q, i, b = list(t), 0, len(t)
        live, tset = _hit_set(q, inp, hitmask), set()


_witness_search = collector_paused(_search)
