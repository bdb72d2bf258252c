"""Measure-decreasing DPLL search producing models or refutation trees.

The search state is a triple (g, d, t): the current valuation, the working
formula, and the clean clauses (clauses sharing no variable with the
valuation, on which only a split can act).  Each step takes the head clause
of ``d`` and applies one rule: Elim, Conflict, Unit, Red, or a move of the
clause to ``t``; an empty ``d`` ends in a model or a Split on ``t``.  The
steps run in one loop: ``d`` is a list read through a cursor, ``t`` a list
that moves append to, and an explicit stack holds the open Splits, so the
search needs no recursion however long it runs.  Witness mode builds an
``Assignment`` or a ``DpllDerivation``; decide mode runs the identical
control flow with evidence construction elided.

Most steps are moves, which emit no proof node.  An occurrence index maps
each variable to the input clauses holding it; the clauses of variables
ever assumed, the clauses shorter than two literals and the reducts form a
growing set ``hits``.  A clause outside it can only be moved, so a run of
such clauses goes to ``t`` in one C-level transfer, logged as one "move"
per clause.  Derivations, models and rule logs are those of one-step moves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, compress, count, filterfalse
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
    t: Formula  # clean clauses: the working formula of both branches
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


def _search(g0: Valuation, d0: Formula, t0: Formula, witness: bool, check: bool,
            log: Optional[list[str]]) -> Verdict:
    # g is a list with the set gset beside it.  The working formula is
    # d[i:], and live is its clause set; t is a list with the set tset.
    # wrappers holds the (rule, args) of the Elim, Unit and Red steps taken
    # since the last Split began, outermost first; a refuted leaf is wrapped
    # in them, innermost first.
    g, gset = list(g0), set(g0)
    d, i, live = list(d0), 0, set(d0)
    t, tset = list(t0), set(t0)
    wrappers: list = []
    splits: list[_Split] = []
    prev = None
    # The occurrence index.  occ maps each variable to the input clauses that
    # hold it, and hits is a superset of the clauses a rule other than a move
    # may act on: those shorter than two literals, every reduct that joins
    # d, and occ[v] for each variable v ever assumed (popped from occ when v
    # is first assumed).  Any other clause of d is an input clause sharing
    # no variable with g, so a run of them moves to t at once.  hits only
    # grows, so backtracking undoes nothing; a clean clause in it takes the
    # one-step path.
    occ: dict[int, list] = {}
    hits = set()
    for c in (*d0, *t0):
        if len(c) < 2:
            hits.add(c)
        for l in c:
            occ.setdefault(abs(l), []).append(c)
    for l in g0:
        hits.update(occ.pop(abs(l), ()))
    while True:
        if check:
            prev = _check_state(g, d[i:], t, prev, hits)

        if i == len(d):
            if not t:
                if log is not None:
                    log.append("model")
                return Verdict(True, complete_model(g)) if witness else _SAT_DECIDED
            lit = choose_split(t)
            if log is not None:
                log.append("split")
            splits.append(_Split(lit, tuple(g), tuple(t), wrappers, prev))
            g.append(lit)
            gset.add(lit)
            hits.update(occ.pop(abs(lit), ()))
            d, i, live = t, 0, tset
            t, tset, wrappers = [], set(), []
            continue

        c = d[i]
        if c not in hits:
            # c and the clauses behind it up to the next one in hits are
            # clean: move them in one transfer (one at a time when every
            # state is checked).  The scan's iterator is placed at i + 1 in
            # O(1); islice would step through d[:i + 1] on every scan.
            j = i + 1
            if not check:
                rest = iter(d)
                rest.__setstate__(j)
                j = next(compress(count(j), map(hits.__contains__, rest)), len(d))
            run = d[i:j]
            i = j
            live.difference_update(run)
            t.extend(filterfalse(tset.__contains__, run))
            tset.update(run)
            if log is not None:
                log.extend(["move"] * len(run))
            continue
        i += 1
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
                hits.update(occ.pop(abs(lit), ()))
                # the clean clauses rejoin the working formula behind it
                d, i = d[i:], 0
                d.extend(filterfalse(live.__contains__, t))
                live.update(tset)
                t, tset = [], set()
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
                    t.append(c)
                    tset.add(c)
                continue
            if log is not None:
                log.append("red")
            if witness:
                wrappers.append((Red, (c, -falsified)))
            k = c.index(falsified)
            reduct = c[:k] + c[k + 1:]
            if reduct not in live:
                d.append(reduct)
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
                d, i, live = list(s.t), 0, set(s.t)
                t, tset, wrappers, prev = [], set(), [], s.prev
                break
            splits.pop()
            proof = Split(s.lit, s.left, proof) if witness else None
            wrappers = s.wrappers
