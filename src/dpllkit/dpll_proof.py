"""DPLL derivation trees and their independent checker.

Derivation payloads are slim: nodes carry only the literal/clause deltas,
never the running valuation or formula.  One iterative walk, ``walk``,
reconstructs the (valuation, formula) context top-down and validates the
side condition of every rule application; ``check_dpll`` is that walk, and
the resolution translator folds its result over the same walk.  The walk
keeps a single mutable context and undoes each node's delta when it leaves
the node, so a node costs O(1) plus the reduct a Red builds, and a
derivation of any depth is checked without recursion.  It is deliberately
independent of the solver: nothing here imports the search code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Union

from .cnf import Clause, Formula, Lit, Valuation, canonical_formula, canonical_valuation


@dataclass(frozen=True, slots=True)
class Conflict:
    pass


@dataclass(frozen=True, slots=True)
class Unit:
    lit: Lit
    sub: "DpllDerivation"


@dataclass(frozen=True, slots=True)
class Elim:
    clause: Clause
    lit: Lit
    sub: "DpllDerivation"


@dataclass(frozen=True, slots=True)
class Red:
    clause: Clause
    lit: Lit  # the valuation literal; its complement is removed from `clause`
    sub: "DpllDerivation"


@dataclass(frozen=True, slots=True)
class Split:
    lit: Lit  # left child assumes `lit`, right child its complement
    left: "DpllDerivation"
    right: "DpllDerivation"


DpllDerivation = Union[Conflict, Unit, Elim, Red, Split]

CONFLICT = Conflict()


def dpll_size(d: DpllDerivation) -> int:
    """Number of rule applications above the Conflict axioms."""
    total = 0
    stack = [d]
    while stack:
        node = stack.pop()
        if isinstance(node, Conflict):
            continue
        total += 1
        if isinstance(node, Split):
            stack.append(node.left)
            stack.append(node.right)
        else:
            stack.append(node.sub)
    return total


@dataclass(frozen=True)
class CheckReport:
    valid: bool
    path: tuple[int, ...] = ()
    reason: Optional[str] = None
    context: Optional[tuple] = None  # (valuation, formula) at the failing node

    def __bool__(self) -> bool:
        return self.valid


VALID = CheckReport(True)


def check_dpll(g0: Valuation, d0: Formula, proof: DpllDerivation) -> CheckReport:
    """Validate ``proof`` as a derivation of the sequent ``g0 |- d0``.

    Contexts are rebuilt per rule: Unit extends the valuation and drops the
    unit clause, Elim drops the subsumed clause, Red replaces the clause by
    its reduct, Split branches on a literal and its complement.  Failures name
    the leftmost violating node by its child-index path.
    """
    return walk(g0, d0, proof)[0]


# The walk keeps one frame (kind, node, a, b) per node it is inside.  _UNIT:
# a is the unit clause's rank, b whether the literal was newly assumed.
# _ELIM: a is the clause's rank.  _RED: a is the clause's rank, b the reduct
# if the node added it, else None.  A Split is _LEFT while in its left branch
# (a: whether the literal was new), then _RIGHT (a: whether its complement
# was new; b: whether the nodes around the Split are being folded).
_UNIT, _ELIM, _RED, _LEFT, _RIGHT = range(5)


def walk(g0: Valuation, d0: Formula, proof: DpllDerivation,
         fold=None) -> tuple[CheckReport, Any]:
    """Check ``proof`` against ``g0 |- d0`` in one depth-first walk, left
    branch first, and return ``(report, value)``.

    The valuation is a list beside a set, the formula a dict from clause to
    insertion rank (a reduct joins at the back).  Each node tests its side
    conditions, applies its delta on the way down and undoes it on the way
    up.  Consistency is tested once at the root and then only for each newly
    assumed literal.  The first violation ends the walk with a failing report
    whose context is the violating node's (valuation, formula).

    With a ``fold``, the walk also folds the derivation bottom-up into
    ``value`` (otherwise ``None``): ``fold.conflict()`` at a leaf;
    ``fold.unit(node, v)``, ``fold.elim(node, v)`` and
    ``fold.red(node, v, reduct)`` from the child's value, ``reduct`` being
    the Red's reduct if it was new to the formula, else ``None`` (a new
    reduct is also announced on the way down, by ``fold.fresh(reduct)``
    before the Red's subtree is folded); and for a Split,
    ``fold.needs_right(node, left)`` after the left branch, then
    ``fold.split(node, left, right)`` when it said so.  Otherwise the Split's
    value is ``left``, and its right branch is checked but not folded.
    """
    g = list(canonical_valuation(g0))
    gset = set(g)
    d = {c: rank for rank, c in enumerate(canonical_formula(d0))}
    next_rank = len(d)
    path: list[int] = []
    frames: list[tuple] = []
    values: list = []
    folding = fold is not None

    def fail(reason: str) -> tuple[CheckReport, None]:
        context = (tuple(g), tuple(sorted(d, key=d.__getitem__)))
        return CheckReport(False, tuple(path), reason, context), None

    if any(-l in gset for l in gset):
        return fail("inconsistent-context")
    node = proof
    while True:
        # Down: test the node in its context, apply its delta and step into
        # its (left) child, until a Conflict.
        while True:
            if isinstance(node, Unit):
                lit = node.lit
                rank = d.pop((lit,), None)
                if rank is None:
                    return fail("unit-clause-missing")
                new = lit not in gset
                if new:
                    g.append(lit)
                    gset.add(lit)
                frames.append((_UNIT, node, rank, new))
                path.append(0)
                if new and -lit in gset:
                    return fail("inconsistent-context")
                node = node.sub
            elif isinstance(node, Red):
                lit, clause = node.lit, node.clause
                if lit not in gset:
                    return fail("red-literal-not-in-valuation")
                if -lit not in clause:
                    return fail("red-complement-not-in-clause")
                rank = d.pop(clause, None)
                if rank is None:
                    return fail("red-clause-missing")
                reduct = tuple(x for x in clause if x != -lit)
                if reduct in d:
                    reduct = None
                else:
                    d[reduct] = next_rank
                    next_rank += 1
                    if folding:
                        fold.fresh(reduct)
                frames.append((_RED, node, rank, reduct))
                path.append(0)
                node = node.sub
            elif isinstance(node, Elim):
                if node.lit not in gset:
                    return fail("elim-literal-not-in-valuation")
                if node.lit not in node.clause:
                    return fail("elim-literal-not-in-clause")
                rank = d.pop(node.clause, None)
                if rank is None:
                    return fail("elim-clause-missing")
                frames.append((_ELIM, node, rank, None))
                path.append(0)
                node = node.sub
            elif isinstance(node, Split):
                lit = node.lit
                new = lit not in gset
                if new:
                    g.append(lit)
                    gset.add(lit)
                frames.append((_LEFT, node, new, None))
                path.append(0)
                if new and -lit in gset:
                    return fail("inconsistent-context")
                node = node.left
            elif isinstance(node, Conflict):
                if () not in d:
                    return fail("conflict-empty-clause-missing")
                if folding:
                    values.append(fold.conflict())
                break
            else:
                raise TypeError(f"not a DPLL derivation node: {node!r}")

        # Up: undo the deltas of finished nodes and fold their values, until
        # a Split's left branch is done; then step into its right branch.
        while frames:
            kind, node, a, b = frames.pop()
            if kind == _UNIT:
                if b:
                    g.pop()
                    gset.discard(node.lit)
                d[(node.lit,)] = a
                if folding:
                    values[-1] = fold.unit(node, values[-1])
            elif kind == _RED:
                if b is not None:
                    del d[b]
                d[node.clause] = a
                if folding:
                    values[-1] = fold.red(node, values[-1], b)
            elif kind == _ELIM:
                d[node.clause] = a
                if folding:
                    values[-1] = fold.elim(node, values[-1])
            elif kind == _LEFT:
                lit = node.lit
                if a:
                    g.pop()
                    gset.discard(lit)
                new = -lit not in gset
                if new:
                    g.append(-lit)
                    gset.add(-lit)
                frames.append((_RIGHT, node, new, folding))
                folding = folding and fold.needs_right(node, values[-1])
                path[-1] = 1
                if new and lit in gset:
                    return fail("inconsistent-context")
                node = node.right
                break
            else:
                if a:
                    g.pop()
                    gset.discard(-node.lit)
                if folding:
                    right = values.pop()
                    values[-1] = fold.split(node, values[-1], right)
                folding = b
            path.pop()
        else:
            return VALID, (values[0] if values else None)
