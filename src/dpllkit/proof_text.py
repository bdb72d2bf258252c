"""Text formats for both proof systems.

DPLL derivations use a parenthesized prefix grammar (whitespace-separated
tokens):

    node   := "conflict" | "(unit" lit node ")" | "(elim" clause lit node ")"
            | "(red" clause lit node ")" | "(split" lit node node ")"
    clause := "[" lit* "]"
    lit    := nonzero signed decimal

Resolution derivations use a line-oriented trace, ids assigned in post-order
starting at 1, root last:

    <id> S <premise_index> <lits...> 0
    <id> R <pivot> <left_id> <right_id> <lits...> 0
"""

from __future__ import annotations

import re
from itertools import islice
from typing import NoReturn

from .cnf import Clause
from .dpll_proof import CONFLICT, Conflict, DpllDerivation, Elim, Red, Split, Unit
from .resolution import Res, ResDerivation, Sub


class ProofParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"offset {position}: {message}")
        self.position = position


def _clause_text(c: Clause) -> str:
    return "[ " + " ".join(str(l) for l in c) + " ]" if c else "[ ]"


def serialize_dpll(p: DpllDerivation) -> str:
    parts: list[str] = []
    stack = [p]  # Split right branches still to emit, and the text around them
    while stack:
        p = stack.pop()
        if isinstance(p, str):
            parts.append(p)
            continue
        # emit down the left spine, counting the ')' owed to its unary nodes
        closers = 0
        while not isinstance(p, Conflict):
            if isinstance(p, Unit):
                parts.append(f"(unit {p.lit} ")
            elif isinstance(p, Red):
                parts.append(f"(red {_clause_text(p.clause)} {p.lit} ")
            elif isinstance(p, Elim):
                parts.append(f"(elim {_clause_text(p.clause)} {p.lit} ")
            elif isinstance(p, Split):
                parts.append(f"(split {p.lit} ")
                stack += (")" * (closers + 1), p.right, " ")
                closers = 0
                p = p.left
                continue
            else:
                raise TypeError(f"not a DPLL derivation node: {p!r}")
            closers += 1
            p = p.sub
        parts.append("conflict" + ")" * closers)
    return "".join(parts)


# Every non-whitespace character belongs to a token, so none is skipped.
_DPLL_TOKEN = re.compile(r"\(\w*|\)|\[|\]|[^\s()\[\]]+")


def parse_dpll(text: str) -> DpllDerivation:
    """Parse the DPLL text format in one scan of its tokens, with an explicit
    stack of the nodes still open."""
    tokens = _DPLL_TOKEN.findall(text)
    n = len(tokens)
    tokens.append("")  # end sentinel: matches no expected token
    i = 0
    # open nodes: (class, lit, payload), the payload being an Elim's or a
    # Red's clause, or a Split's left child once that is parsed
    frames: list[tuple] = []
    while True:
        head = tokens[i]
        i += 1
        if head == "(red" or head == "(elim":
            clause, i = _clause(text, tokens, n, i)
            lit, i = _lit(text, tokens, n, i)
            frames.append((Red if head == "(red" else Elim, lit, clause))
        elif head == "(unit" or head == "(split":
            lit, i = _lit(text, tokens, n, i)
            frames.append((Unit if head == "(unit" else Split, lit, None))
        elif head != "conflict":
            _fail(text, i - 1, n, "a derivation node", f"unexpected token {head!r}")
        else:
            node = CONFLICT
            # close every open node the finished one completes, up to a
            # Split still waiting for its right child
            while frames:
                cls, lit, payload = frames.pop()
                if cls is Split and payload is None:
                    frames.append((Split, lit, node))
                    break
                if tokens[i] != ")":
                    _fail(text, i, n, "')'", f"expected ')', got {tokens[i]!r}")
                i += 1
                node = Unit(lit, node) if cls is Unit else (
                    Split(lit, payload, node) if cls is Split else cls(payload, lit, node))
            else:
                if i != n:
                    _fail(text, i, n, "", "trailing input after derivation")
                return node


def _fail(text: str, i: int, n: int, expected: str, message: str) -> NoReturn:
    """Raise ``message`` at token ``i``'s offset or, when ``i`` is past the
    last token, "unexpected end of input" at the end of the last token.
    Offsets are found only here, when an error is raised."""
    if i >= n:
        message = f"unexpected end of input, expected {expected}"
    spans = [m.span() for m in islice(_DPLL_TOKEN.finditer(text), i + 1)]
    at = spans[i][0] if i < len(spans) else spans[-1][1] if spans else 0
    raise ProofParseError(message, at)


def _lit(text: str, tokens: list[str], n: int, i: int,
         expected: str = "a literal") -> tuple[int, int]:
    try:
        lit = int(tokens[i])
    except ValueError:
        _fail(text, i, n, expected, f"expected a literal, got {tokens[i]!r}")
    if lit == 0:
        _fail(text, i, n, expected, "literal must be nonzero")
    return lit, i + 1


def _clause(text: str, tokens: list[str], n: int, i: int) -> tuple[Clause, int]:
    if tokens[i] != "[":
        _fail(text, i, n, "'['", f"expected '[', got {tokens[i]!r}")
    i += 1
    lits = []
    while tokens[i] != "]":
        lit, i = _lit(text, tokens, n, i, "a literal or ']'")
        lits.append(lit)
    return tuple(lits), i + 1


def serialize_res(r: ResDerivation) -> str:
    """Post-order trace, one line per node; children precede parents and the
    last line is the root."""
    lines: list[str] = []
    ids: dict[int, int] = {}
    stack: list[tuple[ResDerivation, bool]] = [(r, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, Sub):
            head = f"S {node.premise_index}"
        elif not expanded:
            stack += ((node, True), (node.right, False), (node.left, False))
            continue
        else:
            head = f"R {node.pivot} {ids[id(node.left)]} {ids[id(node.right)]}"
        ids[id(node)] = len(lines) + 1
        lits = " ".join(str(l) for l in node.conclusion)
        lines.append(f"{len(lines) + 1} {head}" + (f" {lits} 0" if lits else " 0"))
    return "\n".join(lines) + "\n"


def parse_res(text: str) -> ResDerivation:
    nodes: dict[int, ResDerivation] = {}
    root = None
    offset = 0
    for line, raw in zip(text.splitlines(), text.splitlines(keepends=True)):
        at = offset
        offset += len(raw)
        if not line.strip() or line.lstrip().startswith("c"):
            continue
        fields = line.split()
        try:
            nid = int(fields[0])
            kind = fields[1]
            if fields[-1] != "0":
                raise ValueError
            if kind == "S":
                premise = int(fields[2])
                lits = tuple(int(x) for x in fields[3:-1])
                node = Sub(premise, lits)
            elif kind == "R":
                pivot = int(fields[2])
                left, right = int(fields[3]), int(fields[4])
                lits = tuple(int(x) for x in fields[5:-1])
                node = Res(pivot, nodes[left], nodes[right], lits)
            else:
                raise ValueError
        except (ValueError, IndexError):
            raise ProofParseError(f"malformed trace line {line!r}", at)
        except KeyError:
            raise ProofParseError(f"undefined node reference in line {line!r}", at)
        if any(l == 0 for l in node.conclusion):
            raise ProofParseError("zero literal inside conclusion", at)
        if nid in nodes:
            raise ProofParseError(f"duplicate node id in line {line!r}", at)
        nodes[nid] = node
        root = node
    if root is None:
        raise ProofParseError("empty resolution trace", 0)
    return root
