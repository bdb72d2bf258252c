"""DIMACS CNF parsing and emission.

The parser rejects out-of-range literals and clause-count mismatches.  A line
ends only at ``\\n``, ``\\r\\n`` or ``\\r`` (``split_lines``, which the
resolution trace reader shares).  ``str.splitlines`` also breaks at
``\\x0b \\x0c \\x1c \\x1d \\x1e \\x85 \\u2028 \\u2029``; both formats read
them as whitespace, as ``str.split`` does.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Optional, Union

from .cnf import Formula, canonical_formula

_TOKEN = re.compile(r"\S+")


class DimacsError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def split_lines(text: str) -> list[str]:
    """The lines of ``text``, cut only at ``\\n``, ``\\r\\n`` and ``\\r``."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def line_start(text: str, lines: list[str], i: int) -> int:
    """The offset in ``text`` of ``lines[i]``, ``lines`` being
    ``split_lines(text)``: each line before it ends in one break, two
    characters if it is ``\\r\\n`` and one otherwise."""
    offset = 0
    for line in islice(lines, i):
        offset += len(line)
        offset += 2 if text.startswith("\r\n", offset) else 1
    return offset


def parse_dimacs(text: Union[str, bytes]) -> Formula:
    """Parse DIMACS CNF: ``c`` comment lines, one ``p cnf V C`` header, then
    clauses as nonzero integers terminated by ``0`` (newlines insignificant).
    The clauses are canonicalized once, together, so the formula returned
    passes through ``solve``, the checkers and the translator as it is.

    The lines are classified, and the clause lines read in one pass of C
    loops; when anything is off, the text is read again token by token to
    name the first fault, its line and its column."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    clauses = _read_clauses(text)
    if clauses is None:
        clauses = _read_tokens(text)
    return canonical_formula(clauses)


def _read_clauses(text: str) -> Optional[list[list[int]]]:
    """The clauses of a well-formed DIMACS text, or None when anything is
    off."""
    header = None
    data = []
    for line in split_lines(text):
        stripped = line.lstrip()
        if not stripped or stripped[0] == "c":
            continue
        if header is None and stripped[0] == "p":
            header = stripped.split()
        elif header is None or stripped[0] == "p":
            return None
        else:
            data.append(line)
    if header is None or len(header) != 4 or header[0] != "p" or header[1] != "cnf":
        return None
    try:
        nvars, declared = int(header[2]), int(header[3])
        lits = list(map(int, " ".join(data).split()))
    except ValueError:
        return None
    if nvars < 0 or declared < 0 or lits and max(max(lits), -min(lits)) > nvars:
        return None
    clauses = []
    start = 0
    try:
        for _ in range(declared):
            end = lits.index(0, start)
            clauses.append(lits[start:end])
            start = end + 1
    except ValueError:
        return None
    return clauses if start == len(lits) else None


def _read_tokens(text: str) -> list[list[int]]:
    """Read ``text`` token by token, as the grammar reads it, and return its
    clauses; raise ``DimacsError`` at the first fault."""
    nvars = None
    nclauses_declared = None
    clauses: list[list[int]] = []
    current: list[int] = []
    open_clause_pos = (1, 1)
    for lineno, line in enumerate(split_lines(text), start=1):
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
    return clauses


def emit_dimacs(d: Formula) -> str:
    """Canonical DIMACS text: header with the maximum variable id and clause
    count, one clause per line.  Round-trips through ``parse_dimacs``."""
    nvars = max((abs(l) for c in d for l in c), default=0)
    lines = [f"p cnf {nvars} {len(d)}"]
    for c in d:
        lines.append(" ".join(str(l) for l in c) + " 0" if c else "0")
    return "\n".join(lines) + "\n"
