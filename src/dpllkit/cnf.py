"""Core CNF data model: literals, clauses, formulae, valuations, assignments.

Representation conventions (fixed globally, everything else derives from them):

* a variable is a positive int (DIMACS index), a literal a nonzero signed int;
* a clause is a duplicate-free tuple of literals, sorted by ``lit_key``
  (ascending variable, positive before negative);
* a formula is a duplicate-free tuple of clauses in first-insertion order;
* a valuation is a duplicate-free tuple of literals in insertion order.

All values are immutable; all operations are pure.

``canonical_formula`` returns its formula as a private tuple subclass that
equals, hashes and prints as the plain tuple, and returns such a tuple as it
is.  So a formula is canonicalized once (``parse_dimacs`` and ``gen_php``
return one made so) and passes through every later stage (``solve``, the
checkers, the translator) untouched; any other input, plain tuples included,
is canonicalized in full.
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


def lit_key(lit: Lit) -> tuple[int, bool]:
    """Global literal ordering key: (variable, positive < negative)."""
    return (abs(lit), lit < 0)


def canonical_clause(lits: Iterable[Lit]) -> Clause:
    """Duplicate-free, ``lit_key``-sorted clause. Idempotent."""
    # descending order puts v before -v, and the stable sort by abs keeps it:
    # lit_key order without a Python-level key call per literal
    return tuple(sorted(sorted(set(lits), reverse=True), key=abs))


def canonical_valuation(lits: Iterable[Lit]) -> Valuation:
    """Duplicate-free valuation, insertion order preserved."""
    return tuple(dict.fromkeys(lits))


class _Canonical(tuple):
    """A formula made by ``canonical_formula``; only it builds one."""

    __slots__ = ()


def canonical_formula(clauses: Iterable[Iterable[Lit]]) -> Formula:
    """Canonicalize every clause, drop set-equal duplicates, keep first-insertion order.
    A formula this returned is returned as it is."""
    if type(clauses) is _Canonical:
        return clauses
    return _Canonical(dict.fromkeys(map(canonical_clause, clauses)))


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


@dataclass(frozen=True)
class Assignment:
    """Total truth-value map on variables.

    Variables outside ``values`` are true.  Totality forces
    ``lit_value(l) == not lit_value(-l)`` for every literal by construction.
    """

    values: Mapping[Var, bool] = field(default_factory=dict)

    def lit_value(self, lit: Lit) -> bool:
        v = self.values.get(abs(lit), True)
        return v if lit > 0 else not v


def evaluate(m: Assignment, x: Union[Lit, Valuation, Formula]) -> bool:
    """Evaluate a literal, a valuation (conjunction of literals), or a formula
    (each clause must contain a true literal) under an assignment."""
    if isinstance(x, int):
        return m.lit_value(x)
    if all(isinstance(e, int) for e in x):
        return all(m.lit_value(l) for l in x)
    # a clause is false iff all its literals are: collect the false literal
    # of each variable of the formula (an unassigned variable is true)
    values = m.values
    false = {-v if values.get(v, True) else v for v in set(map(abs, chain.from_iterable(x)))}
    return not any(map(false.issuperset, x))
