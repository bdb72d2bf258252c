"""Measure-decreasing DPLL search producing models or refutation trees.

The search state is a triple (g, d, t): the current valuation, the working
formula, and the clean clauses (clauses sharing no variable with the
valuation, on which only a split can act).  Each step takes the head clause
of ``d`` and applies one rule: Elim, Conflict, Unit, Red, or a move of the
clause to ``t``; an empty ``d`` ends in a model or a Split on ``t``.  The
steps run in one loop, and an explicit stack holds the open Splits, so the
search needs no recursion however long it runs.  Witness mode builds an
``Assignment`` or a ``DpllDerivation``; decide mode runs the identical
control flow with evidence construction elided.

``d`` and ``t`` are one ring, a list read through a cursor: ``d`` runs from
the cursor to a boundary and ``t`` from the boundary to the end.  A move
appends its clause to the ring and a reduct is inserted at the boundary.  A
Unit, after which every clean clause rejoins the working formula, only
moves the boundary to the end, so it costs O(1) however many clean clauses
there are.  Only a clause in both ``d`` and ``t`` (a reduct equal to a clean
clause, or a state given to ``solve_aux``) makes it scan ``t`` to drop the
clause's second copy.

Most steps are moves, which emit no proof node.  An occurrence index maps
each variable to the positions of the input clauses holding it; the clauses
of variables ever assumed, the clauses shorter than two literals and the
reducts form a growing set ``hits``, and a byte mask marks the input
positions of its clauses.  A clause outside it can only be moved, and stays
in the ring inside a ``range`` of input positions, so a run of such clauses
moves as one appended range found by one scan of the mask.  Derivations,
models and rule logs are those of one-step moves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, filterfalse, islice
from typing import Optional, Union

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
from .dpll_proof import CONFLICT, DpllDerivation, Elim, Red, Split, Unit
from .resolution import ResDerivation, dpll_to_res


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
    trace: bool = False


@dataclass(frozen=True)
class Verdict:
    satisfiable: bool
    model: Optional[Assignment] = None
    proof: Optional[DpllDerivation] = None
    trace: Optional[tuple[str, ...]] = None


@dataclass(frozen=True)
class ResVerdict:
    satisfiable: bool
    model: Optional[Assignment] = None
    proof: Optional[ResDerivation] = None


_SAT_DECIDED = Verdict(True)
_UNSAT_DECIDED = Verdict(False)


def complete_model(g: Valuation) -> Assignment:
    """Assignment making every literal of a consistent valuation true;
    other variables take the default polarity."""
    if not is_consistent(g):
        raise InconsistentValuation(f"valuation is inconsistent: {g}")
    return Assignment({abs(l): l > 0 for l in g})


def choose_split(t: Formula) -> Lit:
    """Split literal: the first literal of the first clean clause."""
    if not t:
        raise ValueError("cannot choose a split literal from an empty formula")
    return t[0][0]


def solve(d, cfg: SolverConfig = SolverConfig()) -> Union[Verdict, bool]:
    """Decide a CNF formula.

    Witness mode returns a ``Verdict`` carrying a model or a derivation;
    decide mode returns only the satisfiability boolean.
    """
    witness = cfg.mode == "witness"
    log: Optional[list[str]] = [] if (cfg.trace and witness) else None
    v = _search((), canonical_formula(d), (), witness, cfg.assert_measure, log)
    if not witness:
        return v.satisfiable
    if log is not None:
        v = replace(v, trace=tuple(log))
    return v


def solve_aux(g: Valuation, d, t=(), cfg: SolverConfig = SolverConfig()) -> Verdict:
    """Search from an intermediate state: valuation ``g``, working formula
    ``d``, clean clauses ``t``.  Always returns a full witness Verdict."""
    return _search(canonical_valuation(g), canonical_formula(d), canonical_formula(t),
                   True, cfg.assert_measure, None)


def refute(d0) -> ResVerdict:
    """Solve and, when unsatisfiable, emit a resolution refutation of size
    bounded by the DPLL derivation's."""
    d0 = canonical_formula(d0)
    v = solve(d0, SolverConfig(mode="witness"))
    if v.satisfiable:
        return ResVerdict(True, model=v.model)
    return ResVerdict(False, proof=dpll_to_res((), d0, v.proof))


@dataclass
class _Split:
    """An open Split: the state to restart from for the right branch, and
    what to build once both branches are refuted."""

    lit: Lit
    g: Valuation  # valuation before the split
    t: tuple  # ring entries of the clean clauses: the working formula of both branches
    wrappers: list  # the enclosing segment's Elim/Unit/Red wrappers
    prev: Optional[tuple[int, int]]
    left: Optional[DpllDerivation] = None
    in_right: bool = False


def _check_state(g, d, t, prev: Optional[tuple[int, int]], hits: set) -> tuple[int, int]:
    """Debug-mode invariants of a search state; returns its measure, which
    must be below ``prev``, the measure of the state it came from.  Every
    clause of ``d`` outside ``hits`` must be one that only a move can take."""
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


# Ring entries.  An entry is a clause in hits, or a range of positions in the
# input tuple, whose clauses may or may not be in hits.

def _expand(entries, inp: Formula) -> list:
    """The clauses of ring entries, in order."""
    return list(chain.from_iterable((e,) if type(e) is tuple else inp[e.start:e.stop]
                                    for e in entries))


def _hit_positions(e: range, hitmask: bytearray):
    """The positions of a range entry whose clauses are in hits."""
    p = hitmask.find(1, e.start, e.stop)
    while p >= 0:
        yield p
        p = hitmask.find(1, p + 1, e.stop)


def _hit_set(entries, inp: Formula, hitmask: bytearray) -> set:
    """The clauses of ring entries that are in hits."""
    out = set(entries)
    if range in map(type, entries):
        ranges = [e for e in out if type(e) is range]
        out.difference_update(ranges)
        for e in ranges:
            out.update(map(inp.__getitem__, _hit_positions(e, hitmask)))
    return out


def _without(entries, drop: set, inp: Formula, hitmask: bytearray) -> list:
    """Ring entries less the clauses of ``drop``, all of which are in hits."""
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


def _assume(positions, inp: Formula, hitmask: bytearray, hits: set) -> list:
    """Put the input clauses at ``positions`` in hits; returns those new to it."""
    new = []
    for p in positions:
        if not hitmask[p]:
            hitmask[p] = 1
            new.append(inp[p])
    hits.update(new)
    return new


def _search(g0: Valuation, d0: Formula, t0: Formula, witness: bool, check: bool,
            log: Optional[list[str]]) -> Verdict:
    # g is a list with the set gset beside it.  In the ring q, q[i:b] is the
    # working formula and q[b:] the clean clauses: a move appends its clause
    # to q, a reduct is inserted at b, and a Unit or Split moves b to the end
    # of q, so every clean clause rejoins the working formula untouched.
    # Entries before i are spent, and dropped now and then.
    # live and tset are the clauses in hits of the working formula and of
    # the clean clauses.  wrappers holds the (rule, args) of the Elim, Unit
    # and Red steps taken since the last Split began, outermost first; a
    # refuted leaf is wrapped in them, innermost first.
    g, gset = list(g0), set(g0)
    # The occurrence index.  inp is the input, (*d0, *t0); occ maps each
    # variable to the positions in inp of the clauses that hold it, and hits
    # is a superset of the clauses a rule other than a move may act on: those
    # shorter than two literals, those in both d0 and t0, every reduct that
    # joins d, and occ[v] for each variable v ever assumed (popped from occ
    # when v is first assumed).  hitmask marks the positions in inp of the
    # clauses in hits.  Any other clause is an input clause sharing no
    # variable with g that is in the ring once, at its position in a range
    # entry, so a run of them moves as one range.  hits only grows, so
    # backtracking undoes nothing; a clean clause in it takes the one-step
    # path.
    inp = (*d0, *t0)
    occ: dict[int, list[int]] = {}
    pos = {c: p for p, c in enumerate(inp)}
    hits = set(d0).intersection(t0)
    hitmask = bytearray(len(inp))
    for p, c in enumerate(inp):
        if len(c) < 2 or c in hits:
            hits.add(c)
            hitmask[p] = 1
        for l in c:
            occ.setdefault(abs(l), []).append(p)

    for l in g0:
        _assume(occ.pop(abs(l), ()), inp, hitmask, hits)
    live, tset = hits.intersection(d0), hits.intersection(t0)
    q: list = [range(0, len(d0))] if d0 else []
    i, b = 0, len(q)
    if t0:
        q.append(range(len(d0), len(inp)))
    wrappers: list = []
    splits: list[_Split] = []
    prev = None
    while True:
        if check:
            prev = _check_state(g, _expand(q[i:b], inp), _expand(q[b:], inp), prev, hits)

        if i == b:
            if b == len(q):
                if log is not None:
                    log.append("model")
                return Verdict(True, complete_model(g)) if witness else _SAT_DECIDED
            e = q[b]
            lit = choose_split((e if type(e) is tuple else inp[e.start],))
            if log is not None:
                log.append("split")
            del q[:b]
            splits.append(_Split(lit, tuple(g), tuple(q), wrappers, prev))
            g.append(lit)
            gset.add(lit)
            i, b = 0, len(q)
            live, tset, wrappers = tset, set(), []
            # b is at the end of q, so the clauses that join hits are in d
            if abs(lit) in occ:
                live.update(_assume(occ.pop(abs(lit)), inp, hitmask, hits))
            continue

        e = q[i]
        if type(e) is tuple:
            c = e
            i += 1
        else:
            p = e.start
            if not hitmask[p]:
                # inp[p] and the clauses behind it in e up to the next one in
                # hits are clean: move them as one range (one at a time when
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
                wrappers.append((Elim, (c, next(l for l in c if l in gset))))
            continue

        if not c:
            if log is not None:
                log.append("conflict")
            leaf = CONFLICT
        elif len(c) == 1:
            lit = c[0]
            if -lit in gset:
                if log is not None:
                    log.append("red")
                    log.append("conflict")
                leaf = Red(c, -lit, CONFLICT)
            else:
                if log is not None:
                    log.append("unit")
                if witness:
                    wrappers.append((Unit, (lit,)))
                g.append(lit)
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
                    live.update(_assume(occ.pop(abs(lit)), inp, hitmask, hits))
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
                wrappers.append((Red, (c, -falsified)))
            k = c.index(falsified)
            reduct = c[:k] + c[k + 1:]
            if reduct not in live:
                p = pos.get(reduct)
                if p is not None and not hitmask[p]:
                    # an input clause outside hits, in the ring once: if it
                    # is in the working formula, so is the reduct already;
                    # else its copy among the clean clauses joins hits
                    if any(type(e) is range and p in e for e in islice(q, i, b)):
                        continue
                    hitmask[p] = 1
                    tset.add(reduct)
                q.insert(b, reduct)
                b += 1
                live.add(reduct)
                hits.add(reduct)
            continue

        # The branch is refuted: wrap the leaf, then either start the right
        # branch of the innermost open Split or close it and keep unwinding.
        proof = leaf
        while True:
            if witness:
                for rule, args in reversed(wrappers):
                    proof = rule(*args, proof)
            if not splits:
                return Verdict(False, proof=proof) if witness else _UNSAT_DECIDED
            s = splits[-1]
            if not s.in_right:
                s.left, s.in_right = proof, True
                g = [*s.g, -s.lit]
                gset = set(g)
                q, i, b = list(s.t), 0, len(s.t)
                live, tset = _hit_set(q, inp, hitmask), set()
                wrappers, prev = [], s.prev
                break
            splits.pop()
            proof = Split(s.lit, s.left, proof) if witness else None
            wrappers = s.wrappers
