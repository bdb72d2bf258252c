"""Pigeonhole benchmark formulae.

PHP(n, m) says n pigeons sit in m holes, no two pigeons sharing a hole; it is
satisfiable iff n <= m.  Variable encoding: pigeon i in hole k is variable
(i - 1) * m + k.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import Formula, canonical_formula


@dataclass(frozen=True)
class PhpSpec:
    pigeons: int
    holes: int

    def __post_init__(self):
        if self.pigeons < 1 or self.holes < 1:
            raise ValueError("pigeons and holes must both be at least 1")


def php_var(spec: PhpSpec, pigeon: int, hole: int) -> int:
    return (pigeon - 1) * spec.holes + hole


def gen_php(spec: PhpSpec) -> Formula:
    """Pigeon clauses (each pigeon in some hole), then pairwise hole clauses
    (no hole holds two pigeons), as a canonical formula."""
    n, m = spec.pigeons, spec.holes
    clauses = [tuple(php_var(spec, i, k) for k in range(1, m + 1))
               for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, m + 1):
                clauses.append((-php_var(spec, i, k), -php_var(spec, j, k)))
    return canonical_formula(clauses)


def php_comment_lines(spec: PhpSpec) -> list[str]:
    """DIMACS comment block mapping (pigeon, hole) pairs to variable ids."""
    lines = [f"c PHP({spec.pigeons},{spec.holes}): pigeon i in hole k <-> variable (i-1)*{spec.holes}+k"]
    for i in range(1, spec.pigeons + 1):
        for k in range(1, spec.holes + 1):
            lines.append(f"c p{i} h{k} -> {php_var(spec, i, k)}")
    return lines
