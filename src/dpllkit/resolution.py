"""Sized resolution derivations, their checker, and the DPLL translation.

A resolution derivation is a tree of subsumption leaves (pointing 1-based
into the premise formula) and resolution nodes.  Pivot convention: the left
premise contains the pivot's complement, the right premise the pivot itself.
``dpll_to_res`` turns a checker-valid DPLL derivation of ``g |- d0`` into a
resolution derivation from ``d0`` concluding a subset of the negated
valuation, never larger than the DPLL derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .cnf import (
    Clause,
    Formula,
    Lit,
    Valuation,
    canonical_clause,
    canonical_formula,
    clause_remove,
)
from .dpll_proof import CheckReport, DpllDerivation, Elim, Red, Split, Unit, VALID, walk


@dataclass(frozen=True, slots=True)
class Sub:
    premise_index: int  # 1-based index into the premise formula
    conclusion: Clause


@dataclass(frozen=True, slots=True)
class Res:
    pivot: Lit
    left: "ResDerivation"   # conclusion contains complement(pivot)
    right: "ResDerivation"  # conclusion contains pivot
    conclusion: Clause


ResDerivation = Union[Sub, Res]


class InvalidDerivation(ValueError):
    def __init__(self, report: CheckReport):
        super().__init__(f"invalid derivation: {report.reason} at path {report.path}")
        self.report = report


def res_size(d: ResDerivation) -> int:
    """Number of resolution steps; subsumption leaves cost nothing."""
    total = 0
    stack = [d]
    while stack:
        node = stack.pop()
        if isinstance(node, Res):
            total += 1
            stack.append(node.left)
            stack.append(node.right)
    return total


def res_conclusion(d: ResDerivation) -> Clause:
    return d.conclusion


def check_res(d0: Formula, d: ResDerivation) -> CheckReport:
    """Validate every node of a resolution derivation against ``d0``, in
    preorder, left child first; the first violation is reported with its
    child-index path and ``(d0, node)`` as context."""
    d0 = canonical_formula(d0)
    path: list[int] = []
    stack = [(d, 0, 0)]  # (node, depth, child index)
    while stack:
        node, depth, branch = stack.pop()
        if depth:
            del path[depth - 1:]
            path.append(branch)
        reason = None
        if isinstance(node, Sub):
            if not 1 <= node.premise_index <= len(d0):
                reason = "premise-index"
            elif not set(d0[node.premise_index - 1]) <= set(node.conclusion):
                reason = "subsumption"
        elif isinstance(node, Res):
            if -node.pivot not in node.left.conclusion:
                reason = "pivot-not-in-left"
            elif node.pivot not in node.right.conclusion:
                reason = "pivot-not-in-right"
            elif canonical_clause(node.conclusion) != canonical_clause(
                    clause_remove(node.left.conclusion, -node.pivot)
                    + clause_remove(node.right.conclusion, node.pivot)):
                reason = "conclusion-mismatch"
            else:
                stack += ((node.right, depth + 1, 1), (node.left, depth + 1, 0))
        else:
            raise TypeError(f"not a resolution derivation node: {node!r}")
        if reason is not None:
            return CheckReport(False, tuple(path), reason, (d0, node))
    return VALID


@dataclass(slots=True, eq=False)
class _Node:
    """A translation node: a resolution step, or a leaf (pivot 0) citing the
    premise clause that is its conclusion.  Conclusions are subsets of the
    negated (consistent) valuation, so ordering them by ``abs`` is the
    ``lit_key`` order."""
    pivot: Lit
    left: Optional[_Node]
    right: Optional[_Node]
    conclusion: Clause
    parent: Optional[_Node] = None


def _res(pivot: Lit, left: _Node, right: _Node) -> _Node:
    # left lacks pivot and right lacks -pivot, so this is the resolvent
    lits = set(left.conclusion).union(right.conclusion) - {pivot, -pivot}
    node = _Node(pivot, left, right, tuple(sorted(lits, key=abs)))
    left.parent = right.parent = node
    return node


class _Translation:
    """The DPLL-to-resolution translation as a fold over the checking walk
    (``dpll_proof.walk``): each method builds a node's translation from its
    children's, whose conclusions are subsets of the negated valuation at
    that node.

    ``citing`` maps each clause to the leaves citing it, in the order they
    came to cite it.  A Red with a new reduct marks how many leaves cite the
    reduct on the way down; on the way up, the leaves past the mark are those
    of its own subtree (a nested Red that re-created the reduct has taken its
    own suffix already)."""

    def __init__(self):
        self.citing: dict[Clause, list[_Node]] = {}
        self.marks: list[int] = []

    def _leaf(self, clause: Clause) -> _Node:
        leaf = _Node(0, None, None, clause)
        self.citing.setdefault(clause, []).append(leaf)
        return leaf

    def conflict(self) -> _Node:
        return self._leaf(())

    def unit(self, node: Unit, r: _Node) -> _Node:
        if -node.lit not in r.conclusion:
            return r
        return _res(node.lit, r, self._leaf((node.lit,)))

    def elim(self, node: Elim, r: _Node) -> _Node:
        # pure weakening: a derivation from the smaller premise set stands as is
        return r

    def fresh(self, reduct: Clause) -> None:
        self.marks.append(len(self.citing.get(reduct, ())))

    def red(self, node: Red, r: _Node, reduct: Optional[Clause]) -> _Node:
        # a reduct that was already a premise needs no lift
        if reduct is None:
            return r
        mark = self.marks.pop()
        leaves = self.citing.get(reduct, [])
        moved = leaves[mark:]
        del leaves[mark:]
        added = -node.lit
        self.citing.setdefault(node.clause, []).extend(moved)
        # re-point each leaf to the Red's clause; the literal it gains climbs
        # until a pivot absorbs it or a conclusion already holds it
        for child in moved:
            child.conclusion = node.clause
            parent = child.parent
            while parent is not None and added not in parent.conclusion:
                if added == (-parent.pivot if parent.left is child else parent.pivot):
                    break
                parent.conclusion = tuple(sorted(parent.conclusion + (added,), key=abs))
                child, parent = parent, parent.parent
        return r

    def needs_right(self, node: Split, left: _Node) -> bool:
        return -node.lit in left.conclusion

    def split(self, node: Split, left: _Node, right: _Node) -> _Node:
        if node.lit not in right.conclusion:
            return right
        return _res(node.lit, left, right)


def _index(root: _Node, positions: dict) -> ResDerivation:
    """Build the public derivation, post-order, with premise indices."""
    done: list[ResDerivation] = []
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if node.left is None:
            done.append(Sub(positions[node.conclusion], node.conclusion))
        elif not expanded:
            stack += ((node, True), (node.right, False), (node.left, False))
        else:
            right = done.pop()
            done[-1] = Res(node.pivot, done[-1], right, node.conclusion)
    return done[0]


def dpll_to_res(g: Valuation, d0: Formula, p: DpllDerivation) -> ResDerivation:
    """Translate a valid DPLL derivation of ``g |- d0`` into a resolution
    derivation from ``d0`` whose conclusion is a subset of the negated
    valuation and whose size never exceeds the DPLL size.  The derivation is
    checked in the same walk that translates it; an invalid one raises
    ``InvalidDerivation`` with the report ``check_dpll`` gives."""
    d0 = canonical_formula(d0)
    report, root = walk(g, d0, p, _Translation())
    if not report.valid:
        raise InvalidDerivation(report)
    return _index(root, {c: i + 1 for i, c in enumerate(d0)})
