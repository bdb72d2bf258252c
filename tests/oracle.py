"""Brute-force truth-table oracle, the tests' independent ground truth.

This module is the trust anchor for everything else: it decides satisfiability
and valuation/formula compatibility by exhaustive enumeration of assignments.
It must stay dumb; no search heuristics belong here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from dpllkit.cnf import Assignment, Formula, Valuation, vars_of

DEFAULT_CAP = 24


class OracleCapExceeded(Exception):
    def __init__(self, nvars: int, cap: int):
        super().__init__(f"formula has {nvars} variables, oracle cap is {cap}")
        self.nvars = nvars
        self.cap = cap


@dataclass(frozen=True)
class OracleVerdict:
    satisfiable: bool
    witness: Optional[Assignment] = None


def compatible(g: Valuation, d: Formula, cap: int = DEFAULT_CAP) -> OracleVerdict:
    """Search for an assignment satisfying both ``g`` and ``d``.

    Enumerates all assignments over the occurring variables in ascending
    binary order (ascending variable id, false before true; the first variable
    is the most significant bit) and returns the first satisfying one.
    """
    vs = sorted(vars_of(g) | vars_of(d))
    n = len(vs)
    if n > cap:
        raise OracleCapExceeded(n, cap)
    # Bit i of an assignment integer holds variable vs[n - 1 - i], so that
    # iterating integers in ascending order is the stated enumeration order.
    bit = {v: n - 1 - j for j, v in enumerate(vs)}
    pos_masks = []
    neg_masks = []
    for c in d:
        pos = neg = 0
        for l in c:
            if l > 0:
                pos |= 1 << bit[l]
            else:
                neg |= 1 << bit[-l]
        pos_masks.append(pos)
        neg_masks.append(neg)
    gpos = gneg = 0
    for l in g:
        if l > 0:
            gpos |= 1 << bit[l]
        else:
            gneg |= 1 << bit[-l]
    nclauses = len(d)
    for a in range(1 << n):
        if a & gpos != gpos or a & gneg:
            continue
        for i in range(nclauses):
            if not (a & pos_masks[i] or neg_masks[i] & ~a):
                break
        else:
            values = {v: bool(a >> bit[v] & 1) for v in vs}
            return OracleVerdict(True, Assignment(values))
    return OracleVerdict(False)


def brute_force_sat(d: Formula, cap: int = DEFAULT_CAP) -> OracleVerdict:
    """Satisfiability by exhaustive enumeration over the formula's variables."""
    return compatible((), d, cap=cap)
