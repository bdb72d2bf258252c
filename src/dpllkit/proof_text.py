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

``parse_dpll`` reads a whole node per regex match: a head with its literal
(and an Elim's or Red's clause), or a ``conflict`` with the run of ``)``
after it.  Equal clause texts share one tuple, and an explicit stack of open
nodes builds the tree.  ``parse_res`` splits each line once and shares equal
conclusions.  Both build their trees with the cyclic garbage collector
paused: the new nodes are reachable from the tree and freed with it, and a
collection would only traverse them again and again as they are made.  The
node scan accepts exactly the valid texts; on any other text the token walk
(one token at a time, as the grammar reads) finds the error and its offset.
The serializers render each distinct clause once per call.
"""

from __future__ import annotations

import gc
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


def _collector_paused(parse, text: str):
    """``parse(text)`` with the cyclic collector off, turned back on after
    only if it was on before.  The collector goes off before anything is
    allocated, so no collection starts inside ``parse``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return parse(text)
    finally:
        if enabled:
            gc.enable()


def _clause_text(c: Clause) -> str:
    return "[ " + " ".join(str(l) for l in c) + " ]" if c else "[ ]"


def serialize_dpll(p: DpllDerivation) -> str:
    parts: list[str] = []
    heads: dict[tuple, str] = {}  # (class, clause) -> "(red [ ... ] ", once per call
    stack = [p]  # Split right branches still to emit, and the text around them
    while stack:
        p = stack.pop()
        if type(p) is str:
            parts.append(p)
            continue
        # emit down the left spine, counting the ')' owed to its unary nodes
        closers = 0
        while (cls := type(p)) is not Conflict:
            if cls is Unit:
                parts.append(f"(unit {p.lit} ")
            elif cls is Red or cls is Elim:
                key = (cls, p.clause)
                head = heads.get(key)
                if head is None:
                    head = heads[key] = (
                        f"({'red' if cls is Red else 'elim'} {_clause_text(p.clause)} ")
                parts.append(f"{head}{p.lit} ")
            elif cls is Split:
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

# One DPLL node per match, whitespace before it included.  Groups: a Unit's
# or Split's head, a Red's or Elim's head and the inside of its clause, and
# the node's literal; or the ')' run (and whitespace) after a conflict; or,
# where no node starts, the rest of the text.  Tokens end where _DPLL_TOKEN's
# do: a head only where no word character follows it ("(unit1" is one token,
# "(unit-1" two), "conflict" only where whitespace, a parenthesis, a bracket
# or the end follows it, and a literal is a whole token, which int() then
# reads as _lit does.
_DPLL_NODE = re.compile(r"""
    \s*(?:
        \((?: (unit|split)(?!\w) | (red|elim)(?!\w) \s*\[ ([^()\[\]]*) \] ) \s*([^\s()\[\]]+)
      | conflict(?![^\s()\[\]]) ([\s)]*)
      | (\S[\s\S]*)
    )""", re.VERBOSE)


def parse_dpll(text: str) -> DpllDerivation:
    """Parse the DPLL text format: one regex match per node and an explicit
    stack of the nodes still open, with the cyclic collector paused.  Text
    that is not a valid derivation raises ``ProofParseError`` with the
    offset of the first token that does not fit."""
    return _collector_paused(_read_dpll, text)


def _read_dpll(text: str) -> DpllDerivation:
    try:
        return _scan_nodes(text)
    except ValueError:
        pass
    return _walk_tokens(text)


def _scan_nodes(text: str) -> DpllDerivation:
    """The derivation ``text`` spells; ValueError if it spells none."""
    clauses: dict[str, Clause] = {}  # a clause's inside -> its one tuple
    # open nodes: (class, lit, payload), the payload being an Elim's or a
    # Red's clause; a Split whose left child is done is (None, lit, left)
    frames: list[tuple] = []
    push, pop = frames.append, frames.pop
    matches = iter(_DPLL_NODE.findall(text))
    for unary, reducing, inside, lit, closers, rest in matches:
        if unary:
            lit = int(lit)
            if not lit:
                raise ValueError
            push((Unit if unary == "unit" else Split, lit, None))
        elif reducing:
            clause = clauses.get(inside)
            if clause is None:
                clause = clauses[inside] = tuple(map(int, inside.split()))
                if 0 in clause:
                    raise ValueError
            lit = int(lit)
            if not lit:
                raise ValueError
            push((Red if reducing == "red" else Elim, clause, lit))
        elif rest:
            raise ValueError
        else:
            # close the open nodes the conflict completes, one ')' each, up
            # to a Split still waiting for its right child
            owed = closers.count(")")
            node = CONFLICT
            while frames:
                cls, a, b = pop()
                if cls is Split:
                    if owed:
                        raise ValueError
                    push((None, a, node))
                    break
                if not owed:
                    raise ValueError
                owed -= 1
                if cls is Unit:
                    node = Unit(a, node)
                elif cls is None:
                    node = Split(a, b, node)
                else:
                    node = cls(a, b, node)
            else:
                if owed or next(matches, None) is not None:
                    raise ValueError
                return node
    raise ValueError


def _walk_tokens(text: str) -> DpllDerivation:
    """Parse ``text`` one token at a time, with an explicit stack of the
    nodes still open.  ``parse_dpll`` runs it only on text the node scan
    rejects, to raise the error at the first token that does not fit."""
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
    tails: dict[Clause, str] = {}  # conclusion -> " <lits> 0", once per call
    stack: list[tuple[ResDerivation, bool]] = [(r, False)]
    while stack:
        node, expanded = stack.pop()
        if type(node) is Sub:
            head = f"S {node.premise_index}"
        elif not expanded:
            stack += ((node, True), (node.right, False), (node.left, False))
            continue
        else:
            head = f"R {node.pivot} {ids[id(node.left)]} {ids[id(node.right)]}"
        tail = tails.get(node.conclusion)
        if tail is None:
            tail = tails[node.conclusion] = "".join(f" {l}" for l in node.conclusion) + " 0"
        ids[id(node)] = len(lines) + 1
        lines.append(f"{len(lines) + 1} {head}{tail}")
    return "\n".join(lines) + "\n"


def parse_res(text: str) -> ResDerivation:
    """Parse a resolution trace, one ``split`` per line, with the cyclic
    collector paused.  A malformed line raises ``ProofParseError`` at the
    line's offset."""
    return _collector_paused(_parse_lines, text)


def _parse_lines(text: str) -> ResDerivation:
    nodes: dict[int, ResDerivation] = {}
    conclusions: dict[Clause, Clause] = {}  # one tuple per distinct conclusion
    root = None
    for i, line in enumerate(text.splitlines()):
        fields = line.split()
        if not fields or fields[0][0] == "c":
            continue
        try:
            nid = int(fields[0])
            kind = fields[1]
            if fields[-1] != "0":
                raise ValueError
            nums = list(map(int, fields[2:]))  # the head's numbers, the lits, the 0
            if kind == "S":
                lits = tuple(nums[1:-1])
                node = Sub(nums[0], conclusions.setdefault(lits, lits))
            elif kind == "R":
                lits = tuple(nums[3:-1])
                node = Res(nums[0], nodes[nums[1]], nodes[nums[2]],
                           conclusions.setdefault(lits, lits))
            else:
                raise ValueError
        except (ValueError, IndexError):
            raise ProofParseError(f"malformed trace line {line!r}", _line_offset(text, i))
        except KeyError:
            raise ProofParseError(f"undefined node reference in line {line!r}",
                                  _line_offset(text, i))
        if 0 in node.conclusion:
            raise ProofParseError("zero literal inside conclusion", _line_offset(text, i))
        if nid in nodes:
            raise ProofParseError(f"duplicate node id in line {line!r}", _line_offset(text, i))
        nodes[nid] = node
        root = node
    if root is None:
        raise ProofParseError("empty resolution trace", 0)
    return root


def _line_offset(text: str, i: int) -> int:
    """Offset of line ``i`` of ``text``, as ``str.splitlines`` counts lines."""
    return sum(map(len, islice(text.splitlines(keepends=True), i)))
