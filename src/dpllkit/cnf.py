"""Core CNF data model: literals, clauses, formulae, valuations, assignments.

Representation conventions (fixed globally, everything else derives from them):

* a variable is a positive int (DIMACS index), a literal a nonzero signed int;
* a clause is a duplicate-free tuple of literals, sorted by ``lit_key``
  (ascending variable, positive before negative);
* a formula is a duplicate-free tuple of clauses in first-insertion order;
* a valuation is a duplicate-free tuple of literals in insertion order.

All values are immutable; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import neg
from typing import Iterable, Mapping, Union

Lit = int
Var = int
Clause = tuple  # tuple[Lit, ...]
Formula = tuple  # tuple[Clause, ...]
Valuation = tuple  # tuple[Lit, ...]


def complement(lit: Lit) -> Lit:
    """Opposite literal: flips polarity, keeps the variable."""
    return -lit


def var_of(lit: Lit) -> Var:
    return abs(lit)


def lit_key(lit: Lit) -> tuple[int, bool]:
    """Global literal ordering key: (variable, positive < negative)."""
    return (abs(lit), lit < 0)


def canonical_clause(lits: Iterable[Lit]) -> Clause:
    """Duplicate-free, ``lit_key``-sorted clause. Idempotent."""
    return tuple(sorted(set(lits), key=lit_key))


def canonical_valuation(lits: Iterable[Lit]) -> Valuation:
    """Duplicate-free valuation, insertion order preserved."""
    return tuple(dict.fromkeys(lits))


def canonical_formula(clauses: Iterable[Iterable[Lit]]) -> Formula:
    """Canonicalize every clause, drop set-equal duplicates, keep first-insertion order."""
    return tuple(dict.fromkeys(canonical_clause(c) for c in clauses))


def formula_union(d: Formula, t: Formula) -> Formula:
    """Union of two canonical formulae, appending new clauses of ``t`` at the back."""
    seen = set(d)
    out = list(d)
    for c in t:
        if c not in seen:
            seen.add(c)
            out.append(c)
    return tuple(out)


def formula_remove(d: Formula, c: Clause) -> Formula:
    return tuple(x for x in d if x != c)


def clause_remove(c: Clause, lit: Lit) -> Clause:
    return tuple(x for x in c if x != lit)


def vars_of(x: Union[Clause, Formula, Valuation]) -> set[Var]:
    """Set of variables occurring in a clause, valuation, or formula."""
    out: set[Var] = set()
    for e in x:
        if isinstance(e, int):
            out.add(abs(e))
        else:
            out.update(abs(l) for l in e)
    return out


def is_consistent(g: Valuation) -> bool:
    """True iff no literal occurs together with its complement."""
    s = set(g)
    return all(-l not in s for l in s)


def literals_outside(d: Formula, vs: set[Var]) -> set[Lit]:
    """Literals occurring in some clause of ``d`` whose variable is not in ``vs``."""
    out = set(chain.from_iterable(d))
    out.difference_update(vs, map(neg, vs))
    return out


def weight(d: Formula) -> int:
    """Sum of clause cardinalities."""
    return sum(map(len, d))


def measure(g: Valuation, d: Formula, t: Formula) -> int:
    """Termination measure of the search: literals of ``d`` and ``t`` outside
    the variables of ``g``, plus both weights."""
    return len(literals_outside((*d, *t), set(map(abs, g)))) + weight(d) + weight(t)


def negate_valuation(g: Valuation) -> Clause:
    """Clause of the complements of a valuation's literals."""
    return canonical_clause(-l for l in g)


@dataclass(frozen=True)
class Assignment:
    """Total truth-value map on variables.

    Variables outside ``values`` take ``default``: their positive literal is
    ``default``-valued.  Totality forces ``lit_value(l) == not lit_value(-l)``
    for every literal by construction.
    """

    values: Mapping[Var, bool] = field(default_factory=dict)
    default: bool = True

    def lit_value(self, lit: Lit) -> bool:
        v = self.values.get(abs(lit), self.default)
        return v if lit > 0 else not v


def eval_clause(m: Assignment, c: Clause) -> bool:
    return any(m.lit_value(l) for l in c)


def evaluate(m: Assignment, x: Union[Lit, Valuation, Formula]) -> bool:
    """Evaluate a literal, a valuation (conjunction of literals), or a formula
    (each clause must contain a true literal) under an assignment."""
    if isinstance(x, int):
        return m.lit_value(x)
    if all(isinstance(e, int) for e in x):
        return all(m.lit_value(l) for l in x)
    return all(eval_clause(m, c) for c in x)
