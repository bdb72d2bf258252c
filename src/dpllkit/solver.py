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
appended range found by one scan of the mask.  Derivations, models and rule
logs are those of one-step moves.
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
from .dpll_proof import CONFLICT, DpllDerivation, Elim, Red, Split, Unit, close, collector_paused


class InvariantViolation(Exception):
    """A debug-mode precondition of the search was violated."""


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
    """Decide a CNF formula.

    Witness mode returns a ``Verdict`` carrying a model or a derivation,
    built with the cyclic collector paused; decide mode returns only the
    satisfiability boolean.
    """
    witness = cfg.mode == "witness"
    log: Optional[list[str]] = [] if cfg.trace else None
    search = _witness_search if witness else _search
    v = search((), canonical_formula(d), (), witness, cfg.assert_measure, log)
    if log is not None:
        v = replace(v, trace=tuple(log))
    return v


def solve_aux(g: Valuation, d, t=(), cfg: SolverConfig = SolverConfig()) -> Verdict:
    """Search from an intermediate state: valuation ``g``, working formula
    ``d``, clean clauses ``t``.  Always returns a full witness Verdict
    without a rule log, so ``cfg`` may set only ``assert_measure``."""
    if cfg.mode != "witness":
        raise ValueError(f"solve_aux always runs witness mode, not SolverConfig.mode={cfg.mode!r}")
    if cfg.trace:
        raise ValueError("solve_aux keeps no rule log: SolverConfig.trace must be False")
    return _witness_search(canonical_valuation(g), canonical_formula(d), canonical_formula(t),
                           True, cfg.assert_measure, None)


def _check_state(g, d, t, prev: Optional[tuple[int, int]], hits: set) -> tuple[int, int]:
    """Debug-mode invariants of a search state; returns its measure, which
    must be below ``prev``, the measure of the state it came from.  Every
    clause of ``d`` not among its hit clauses ``hits`` must be one that only
    a move can take."""
    if not all(t):
        raise InvariantViolation("empty clause among clean clauses")
    if not is_consistent(g):
        raise InvariantViolation(f"inconsistent valuation: {g}")
    gvars = set(map(abs, g))
    if not gvars.isdisjoint(map(abs, chain.from_iterable(t))):
        raise InvariantViolation("clean clauses share variables with the valuation")
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
    # first, second) for each Elim, Unit, Red and Split step on the path to
    # the current state.  splits holds (lit, valuation, clean clauses,
    # measure) for each Split still in its left branch, the state its right
    # branch restarts from.
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
    prev = None
    while True:
        if check:
            prev = _check_state(gset, _expand(q[i:b], inp), _expand(q[b:], inp), prev,
                                _hit_set(q[i:b], inp, hitmask))

        if i == b:
            if b == len(q):
                if log is not None:
                    log.append("model")
                return Verdict(True, complete_model(gset)) if witness else True
            if log is not None:
                log.append("split")
            del q[:b]
            lit = choose_split(_expand(q, inp))
            splits.append((lit, frozenset(gset), tuple(q), prev))
            if witness:
                frames.append((Split, lit, None))
            gset.add(lit)
            i, b = 0, len(q)
            live, tset = tset, set()
            # b is at the end of q, so the newly hit clauses are in d
            if abs(lit) in occ:
                live.update(_assume(occ.pop(abs(lit)), inp, hitmask))
            continue

        e = q[i]
        if type(e) is tuple:
            c = e
            i += 1
        else:
            p = e.start
            if not hitmask[p]:
                # inp[p] and the clauses behind it in e up to the next hit
                # one are clean: move them as one range (one at a time when
                # every state is checked)
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
            # the clause is already satisfied by the valuation
            if log is not None:
                log.append("elim")
            if witness:
                for l in c:
                    if l in gset:
                        break
                frames.append((Elim, c, l))
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
            else:
                if log is not None:
                    log.append("unit")
                if witness:
                    frames.append((Unit, lit, None))
                gset.add(lit)
                # the clean clauses rejoin the working formula behind it, less
                # those already in it
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
                # no variable of c is decided: move it to the clean clauses
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
            k = c.index(falsified)
            reduct = c[:k] + c[k + 1:]
            if reduct not in live:
                p = pos.get(reduct)
                if p is not None and not hitmask[p]:
                    # an input clause not hit, in the ring once: if it is in
                    # the working formula, so is the reduct already; else its
                    # copy among the clean clauses is now hit
                    if any(type(e) is range and p in e for e in islice(q, i, b)):
                        continue
                    hitmask[p] = 1
                    tset.add(reduct)
                q.insert(b, reduct)
                b += 1
                live.add(reduct)
            continue

        # The branch is refuted: close the nodes around its Conflict up to
        # the innermost Split still in its left branch, and start that
        # Split's right branch.
        if witness:
            proof = close(frames, CONFLICT)
        if not splits:
            return Verdict(False, proof=proof) if witness else False
        lit, g, t, prev = splits.pop()
        gset = {*g, -lit}
        q, i, b = list(t), 0, len(t)
        live, tset = _hit_set(q, inp, hitmask), set()


_witness_search = collector_paused(_search)
