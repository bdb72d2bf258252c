"""DIMACS CNF parsing and emission.

The parser rejects out-of-range literals and clause-count mismatches.
"""

from __future__ import annotations

import re
from typing import Union

from .cnf import Formula, canonical_formula

_TOKEN = re.compile(r"\S+")


class DimacsError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def parse_dimacs(text: Union[str, bytes]) -> Formula:
    """Parse DIMACS CNF: ``c`` comment lines, one ``p cnf V C`` header, then
    clauses as nonzero integers terminated by ``0`` (newlines insignificant).
    The clauses are canonicalized once, together, so the formula returned
    passes through ``solve``, the checkers and the translator as it is."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    nvars = None
    nclauses_declared = None
    clauses: list[list[int]] = []
    current: list[int] = []
    open_clause_pos = (1, 1)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.lstrip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            col = len(line) - len(stripped) + 1
            if nvars is not None:
                raise DimacsError("duplicate header", lineno, col)
            fields = stripped.split()
            if len(fields) != 4 or fields[0] != "p" or fields[1] != "cnf":
                raise DimacsError("malformed header, expected 'p cnf V C'", lineno, col)
            try:
                nvars = int(fields[2])
                nclauses_declared = int(fields[3])
            except ValueError:
                raise DimacsError("malformed header, expected 'p cnf V C'", lineno, col)
            if nvars < 0 or nclauses_declared < 0:
                raise DimacsError("negative counts in header", lineno, col)
            continue
        for m in _TOKEN.finditer(line):
            col = m.start() + 1
            if nvars is None:
                raise DimacsError("clause data before header", lineno, col)
            try:
                lit = int(m.group())
            except ValueError:
                raise DimacsError(f"invalid token {m.group()!r}", lineno, col)
            if lit == 0:
                clauses.append(current)
                current = []
                continue
            if not current:
                open_clause_pos = (lineno, col)
            if abs(lit) > nvars:
                raise DimacsError(f"literal {lit} exceeds declared variable count {nvars}",
                                  lineno, col)
            current.append(lit)
    if current:
        raise DimacsError("unterminated clause at end of input", *open_clause_pos)
    if nvars is None:
        raise DimacsError("missing 'p cnf' header", 1, 1)
    if len(clauses) != nclauses_declared:
        raise DimacsError(f"header declares {nclauses_declared} clauses, found {len(clauses)}",
                          1, 1)
    return canonical_formula(clauses)


def emit_dimacs(d: Formula) -> str:
    """Canonical DIMACS text: header with the maximum variable id and clause
    count, one clause per line.  Round-trips through ``parse_dimacs``."""
    nvars = max((abs(l) for c in d for l in c), default=0)
    lines = [f"p cnf {nvars} {len(d)}"]
    for c in d:
        lines.append(" ".join(str(l) for l in c) + " 0" if c else "0")
    return "\n".join(lines) + "\n"
