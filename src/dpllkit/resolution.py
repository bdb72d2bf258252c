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
from typing import Union

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
from ._util import deep_recursion


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
    """Validate every node of a resolution derivation against ``d0``."""
    with deep_recursion():
        return _check(canonical_formula(d0), d, ())


def _check(d0: Formula, node: ResDerivation, path: tuple[int, ...]) -> CheckReport:
    if isinstance(node, Sub):
        if not 1 <= node.premise_index <= len(d0):
            return CheckReport(False, path, "premise-index", (d0, node))
        if not set(d0[node.premise_index - 1]) <= set(node.conclusion):
            return CheckReport(False, path, "subsumption", (d0, node))
        return VALID
    if isinstance(node, Res):
        if -node.pivot not in node.left.conclusion:
            return CheckReport(False, path, "pivot-not-in-left", (d0, node))
        if node.pivot not in node.right.conclusion:
            return CheckReport(False, path, "pivot-not-in-right", (d0, node))
        resolvent = canonical_clause(
            clause_remove(node.left.conclusion, -node.pivot)
            + clause_remove(node.right.conclusion, node.pivot))
        if canonical_clause(node.conclusion) != resolvent:
            return CheckReport(False, path, "conclusion-mismatch", (d0, node))
        left = _check(d0, node.left, path + (0,))
        if not left.valid:
            return left
        return _check(d0, node.right, path + (1,))
    raise TypeError(f"not a resolution derivation node: {node!r}")


# Internal translation nodes reference premise clauses by value rather than
# index; `premises` memoizes the set of leaf clauses below a node so the Red
# lift only walks affected paths.  Indices are assigned in a final pass.

@dataclass(frozen=True, slots=True)
class _Sub:
    clause: Clause
    conclusion: Clause
    premises: frozenset


@dataclass(frozen=True, slots=True)
class _Res:
    pivot: Lit
    left: "_Node"
    right: "_Node"
    conclusion: Clause
    premises: frozenset


_Node = Union[_Sub, _Res]


def _sub(clause: Clause, conclusion: Clause) -> _Sub:
    return _Sub(clause, conclusion, frozenset((clause,)))


def _res(pivot: Lit, left: _Node, right: _Node) -> _Res:
    conclusion = canonical_clause(
        clause_remove(left.conclusion, -pivot) + clause_remove(right.conclusion, pivot))
    return _Res(pivot, left, right, conclusion, left.premises | right.premises)


class _Translation:
    """The DPLL-to-resolution translation as a fold over the checking walk
    (``dpll_proof.walk``): each method builds a node's internal resolution
    tree from its children's, whose conclusions are subsets of the negated
    valuation at that node."""

    def conflict(self) -> _Node:
        return _sub((), ())

    def unit(self, node: Unit, r: _Node) -> _Node:
        if -node.lit not in r.conclusion:
            return r
        unit = (node.lit,)
        return _res(node.lit, r, _sub(unit, unit))

    def elim(self, node: Elim, r: _Node) -> _Node:
        # pure weakening: a derivation from the smaller premise set stands as is
        return r

    def red(self, node: Red, r: _Node, fresh: bool) -> _Node:
        # a reduct that was already a premise needs no lift
        if not fresh:
            return r
        return _lift(r, clause_remove(node.clause, -node.lit), node.clause, -node.lit)

    def needs_right(self, node: Split, left: _Node) -> bool:
        return -node.lit in left.conclusion

    def split(self, node: Split, left: _Node, right: _Node) -> _Node:
        if node.lit not in right.conclusion:
            return right
        return _res(node.lit, left, right)


_TRANSLATION = _Translation()


def _lift(node: _Node, old: Clause, new: Clause, added: Lit) -> _Node:
    """Replace premise clause ``old`` by ``new = old + {added}`` throughout;
    conclusions along affected paths gain at most ``added``."""
    if old not in node.premises:
        return node
    if isinstance(node, _Sub):
        return _Sub(new, canonical_clause(node.conclusion + (added,)),
                    frozenset((new,)))
    return _res(node.pivot,
                _lift(node.left, old, new, added),
                _lift(node.right, old, new, added))


def _index(node: _Node, positions: dict) -> ResDerivation:
    if isinstance(node, _Sub):
        return Sub(positions[node.clause], node.conclusion)
    return Res(node.pivot, _index(node.left, positions),
               _index(node.right, positions), node.conclusion)


def dpll_to_res(g: Valuation, d0: Formula, p: DpllDerivation) -> ResDerivation:
    """Translate a valid DPLL derivation of ``g |- d0`` into a resolution
    derivation from ``d0`` whose conclusion is a subset of the negated
    valuation and whose size never exceeds the DPLL size.  The derivation is
    checked in the same walk that translates it; an invalid one raises
    ``InvalidDerivation`` with the report ``check_dpll`` gives."""
    d0 = canonical_formula(d0)
    with deep_recursion():
        report, internal = walk(g, d0, p, _TRANSLATION)
        if not report.valid:
            raise InvalidDerivation(report)
        positions = {c: i + 1 for i, c in enumerate(d0)}
        return _index(internal, positions)
