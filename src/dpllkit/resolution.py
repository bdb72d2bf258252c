"""Sized resolution derivations, their checker, and the DPLL translation.

A resolution derivation is a tree of subsumption leaves (pointing 1-based
into the premise formula) and resolution nodes.  Pivot convention: the left
premise contains the pivot's complement, the right premise the pivot itself.
``parse_res`` may share a node among several steps; ``check_res`` visits
each distinct node once, and ``res_size`` reads the size the root was built
with.  ``dpll_to_res`` turns a checker-valid DPLL derivation of ``g |- d0``
into a resolution derivation from ``d0`` concluding a subset of the negated
valuation, never larger than the DPLL derivation: it builds the public nodes
bottom-up, each leaf citing the premise that the walk names for its clause,
and one leaf per premise, which every step citing that premise shares.
"""

from __future__ import annotations

from typing import Optional, Union

from .cnf import Clause, Formula, Lit, Valuation, canonical_clause, canonical_formula
from .dpll_proof import (CheckReport, DpllDerivation, ProofNode, Split, Unit, VALID,
                         collector_paused, proof_node, walk)


@proof_node
class Sub(ProofNode):
    premise_index: int  # 1-based index into the premise formula
    conclusion: Clause


@proof_node
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
    cost nothing.  It is ``d.size``, set when ``d`` was built, so a node
    that several steps cite (``parse_res`` shares them) is sized once."""
    return d.size


def res_conclusion(d: ResDerivation) -> Clause:
    return d.conclusion


def check_res(d0: Formula, d: ResDerivation) -> CheckReport:
    """Validate every node of a resolution derivation against ``d0``, in
    preorder, left child first; the first violation is reported with its
    child-index path and ``(d0, node)`` as context.  A node met again is
    skipped: its subtree was checked the first time without a violation.
    Each stacked node carries its path as a ``(child index, parent link)``
    chain, read out only at the violation."""
    d0 = canonical_formula(d0)
    seen: set[int] = set()
    stack = [(d, None)]
    while stack:
        node, link = stack.pop()
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
                    stack += ((node.right, (1, link)), (node.left, (0, link)))
                    continue
        else:
            raise TypeError(f"not a resolution derivation node: {node!r}")
        path: list[int] = []
        while link is not None:
            branch, link = link
            path.append(branch)
        return CheckReport(False, tuple(reversed(path)), reason, (d0, node))
    return VALID


def _res(pivot: Lit, left: ResDerivation, right: ResDerivation) -> Res:
    # the resolvent check_res checks: each premise loses only its resolved
    # literal, so a leaf citing a tautological premise keeps the other one
    return Res(pivot, left, right,
               canonical_clause(set(left.conclusion).difference((-pivot,))
                                | set(right.conclusion).difference((pivot,))))


class _Translation:
    """The DPLL-to-resolution translation as a fold over the walk
    (``dpll_proof.walk``): each method builds a node's translation from its
    children's, whose conclusions are subsets of the negated valuation at
    that node.  Each DPLL node adds at most one resolution step, and a leaf
    cites the premise the walk names for its clause: the one ``Sub`` of that
    premise, built once per translation, so the trace writes it once."""

    def __init__(self, d0: Formula):
        self.subs = [Sub(premise, c) for premise, c in enumerate(d0, 1)]

    def conflict(self, premise: int) -> Sub:
        return self.subs[premise - 1]

    def unit(self, node: Unit, r: ResDerivation, premise: int) -> ResDerivation:
        if -node.lit not in r.conclusion:
            return r
        return _res(node.lit, r, self.subs[premise - 1])

    def needs_right(self, node: Split, left: ResDerivation) -> bool:
        return -node.lit in left.conclusion

    def split(self, node: Split, left: ResDerivation, right: ResDerivation) -> ResDerivation:
        if node.lit not in right.conclusion:
            return right
        return _res(node.lit, left, right)


@collector_paused
def dpll_to_res(g: Valuation, d0: Formula, p: DpllDerivation,
                limit: Optional[int] = None) -> ResDerivation:
    """Translate a valid DPLL derivation of ``g |- d0`` into a resolution
    derivation from ``d0`` whose conclusion is a subset of the negated
    valuation and whose size never exceeds the DPLL size.  The sequent pass
    that ``check_dpll`` runs checks the derivation before the walk folds it;
    an invalid one raises ``InvalidDerivation`` with the report
    ``check_dpll`` gives.  ``limit`` bounds the fold's steps, as
    ``dpll_proof.walk`` says.  The translation is built bottom-up and holds
    no reference cycle; the cyclic collector is paused meanwhile."""
    d0 = canonical_formula(d0)
    report, root = walk(g, d0, p, _Translation(d0), limit)
    if not report.valid:
        raise InvalidDerivation(report)
    return root
