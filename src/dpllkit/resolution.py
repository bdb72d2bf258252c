"""Sized resolution derivations, their checker, and the DPLL translation.

A resolution derivation is a tree of subsumption leaves (pointing 1-based
into the premise formula) and resolution nodes.  Pivot convention: the left
premise contains the pivot's complement, the right premise the pivot itself.
``parse_res`` may share a node among several steps; ``check_res`` and
``res_size`` visit each distinct node once.  ``dpll_to_res`` turns a
checker-valid DPLL derivation of ``g |- d0`` into a resolution derivation
from ``d0`` concluding a subset of the negated valuation, never larger than
the DPLL derivation: it builds the public nodes bottom-up, each leaf citing
the premise that the checking walk names for its clause.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .cnf import Clause, Formula, Lit, Valuation, canonical_clause, canonical_formula
from .dpll_proof import (CheckReport, DpllDerivation, ProofNode, Split, Unit, VALID,
                         collector_paused, slot_init, walk)


@slot_init
@dataclass(frozen=True, slots=True, eq=False, init=False, repr=False)
class Sub(ProofNode):
    premise_index: int  # 1-based index into the premise formula
    conclusion: Clause


@slot_init
@dataclass(frozen=True, slots=True, eq=False, init=False, repr=False)
class Res(ProofNode):
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
    """Number of resolution steps in the unfolded tree; subsumption leaves
    cost nothing.  Each distinct node is sized once, so a node that several
    steps cite (``parse_res`` shares them) costs one visit, not one per
    occurrence."""
    sizes: dict[int, int] = {}
    stack = [d]
    while stack:
        node = stack.pop()
        if id(node) in sizes:
            continue
        if not isinstance(node, Res):
            sizes[id(node)] = 0
        elif id(node.left) in sizes and id(node.right) in sizes:
            sizes[id(node)] = 1 + sizes[id(node.left)] + sizes[id(node.right)]
        else:
            stack += (node, node.right, node.left)
    return sizes[id(d)]


def res_conclusion(d: ResDerivation) -> Clause:
    return d.conclusion


def check_res(d0: Formula, d: ResDerivation) -> CheckReport:
    """Validate every node of a resolution derivation against ``d0``, in
    preorder, left child first; the first violation is reported with its
    child-index path and ``(d0, node)`` as context.  A node met again is
    skipped: its subtree was checked the first time without a violation.
    The walk keeps no paths; the one reported is found again only at the
    violation."""
    d0 = canonical_formula(d0)
    seen: set[int] = set()
    stack = [d]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Sub):
            if not 1 <= node.premise_index <= len(d0):
                reason = "premise-index"
            elif not set(node.conclusion).issuperset(d0[node.premise_index - 1]):
                reason = "subsumption"
            else:
                continue
        elif isinstance(node, Res):
            pivot, left, right = node.pivot, node.left.conclusion, node.right.conclusion
            if -pivot not in left:
                reason = "pivot-not-in-left"
            elif pivot not in right:
                reason = "pivot-not-in-right"
            else:
                # each premise loses only its resolved literal: a
                # tautological premise keeps the other polarity of the pivot
                resolvent = set(left)
                resolvent.discard(-pivot)
                kept = pivot in resolvent
                resolvent.update(right)
                if not kept:
                    resolvent.discard(pivot)
                if resolvent != set(node.conclusion):
                    reason = "conclusion-mismatch"
                else:
                    stack += (node.right, node.left)
                    continue
        else:
            raise TypeError(f"not a resolution derivation node: {node!r}")
        return CheckReport(False, _path_to(d, node), reason, (d0, node))
    return VALID


def _path_to(d: ResDerivation, target: ResDerivation) -> tuple[int, ...]:
    """The child-index path at which ``check_res``'s walk first meets
    ``target``, every node before it having passed."""
    path: list[int] = []
    seen: set[int] = set()
    stack = [(d, 0, 0)]  # (node, depth, child index)
    while True:
        node, depth, branch = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if depth:
            del path[depth - 1:]
            path.append(branch)
        if node is target:
            return tuple(path)
        if isinstance(node, Res):
            stack += ((node.right, depth + 1, 1), (node.left, depth + 1, 0))


def _res(pivot: Lit, left: ResDerivation, right: ResDerivation) -> Res:
    # the resolvent check_res checks: each premise loses only its resolved
    # literal, so a leaf citing a tautological premise keeps the other one
    return Res(pivot, left, right,
               canonical_clause(set(left.conclusion).difference((-pivot,))
                                | set(right.conclusion).difference((pivot,))))


class _Translation:
    """The DPLL-to-resolution translation as a fold over the checking walk
    (``dpll_proof.walk``): each method builds a node's translation from its
    children's, whose conclusions are subsets of the negated valuation at
    that node.  Each DPLL node adds at most one resolution step, and a leaf
    cites the premise the walk names for its clause."""

    def __init__(self, d0: Formula):
        self.d0 = d0

    def conflict(self, premise: int) -> Sub:
        return Sub(premise, self.d0[premise - 1])

    def unit(self, node: Unit, r: ResDerivation, premise: int) -> ResDerivation:
        if -node.lit not in r.conclusion:
            return r
        return _res(node.lit, r, Sub(premise, self.d0[premise - 1]))

    def needs_right(self, node: Split, left: ResDerivation) -> bool:
        return -node.lit in left.conclusion

    def split(self, node: Split, left: ResDerivation, right: ResDerivation) -> ResDerivation:
        if node.lit not in right.conclusion:
            return right
        return _res(node.lit, left, right)


@collector_paused
def dpll_to_res(g: Valuation, d0: Formula, p: DpllDerivation) -> ResDerivation:
    """Translate a valid DPLL derivation of ``g |- d0`` into a resolution
    derivation from ``d0`` whose conclusion is a subset of the negated
    valuation and whose size never exceeds the DPLL size.  The derivation is
    checked in the same walk that translates it; an invalid one raises
    ``InvalidDerivation`` with the report ``check_dpll`` gives.  The
    translation is built bottom-up and holds no reference cycle; the cyclic
    collector is paused meanwhile."""
    d0 = canonical_formula(d0)
    report, root = walk(g, d0, p, _Translation(d0))
    if not report.valid:
        raise InvalidDerivation(report)
    return root
