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
paused (``dpll_proof.collector_paused``).  The node scan is the one DPLL
parser and raises its own errors: a node it rejects is read again token by
token, as the grammar reads, to the first token that does not fit, and a
``conflict``'s ``)`` run names the token after the ``)`` it could use.
Offsets are found only when an error is raised.  The serializers render
each distinct clause once per call.
"""

from __future__ import annotations

import re
from itertools import islice
from operator import length_hint
from typing import NoReturn

from .cnf import Clause
from .dpll_proof import (CONFLICT, Conflict, DpllDerivation, Elim, Red, Split, Unit,
                         collector_paused)
from .resolution import Res, ResDerivation, Sub


class ProofParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"offset {position}: {message}")
        self.position = position


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
# the node's literal; or a conflict with the ')' run (and whitespace) after
# it.  Where no node starts, the match is the rest of the text and every
# group is empty.  Tokens end where _DPLL_TOKEN's do: a head only where no
# word character follows it ("(unit1" is one token, "(unit-1" two),
# "conflict" only where whitespace, a parenthesis, a bracket or the end
# follows it, and a literal is a whole token, which int() then reads.
_DPLL_NODE = re.compile(r"""
    \s*(?:
        \((?: (unit|split)(?!\w) | (red|elim)(?!\w) \s*\[ ([^()\[\]]*) \] ) \s*([^\s()\[\]]+)
      | (conflict(?![^\s()\[\]]) [\s)]*)
      | \S[\s\S]*
    )""", re.VERBOSE)


@collector_paused
def parse_dpll(text: str) -> DpllDerivation:
    """Parse the DPLL text format: one regex match per node and an explicit
    stack of the nodes still open, with the cyclic collector paused.  Text
    that is not a valid derivation raises ``ProofParseError`` with the
    offset of the first token that does not fit."""
    clauses: dict[str, Clause] = {}  # a clause's inside -> its one tuple
    # open nodes: (class, lit, payload), the payload being an Elim's or a
    # Red's clause; a Split whose left child is done is (None, lit, left)
    frames: list[tuple] = []
    push, pop = frames.append, frames.pop
    found = _DPLL_NODE.findall(text)
    matches = iter(found)
    misfit = None  # the error's message when a conflict's ')' run does not fit
    try:
        for unary, reducing, inside, lit, conflict in matches:
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
            elif not conflict:
                raise ValueError
            else:
                # close the open nodes the conflict completes, one ')' each,
                # up to a Split still waiting for its right child
                owed = conflict.count(")")
                node = CONFLICT
                while frames:
                    cls, a, b = pop()
                    if cls is Split:
                        if owed:
                            misfit = "unexpected token {!r}"
                            raise ValueError
                        push((None, a, node))
                        break
                    if not owed:
                        misfit = "expected ')', got {!r}"
                        raise ValueError
                    owed -= 1
                    if cls is Unit:
                        node = Unit(a, node)
                    elif cls is None:
                        node = Split(a, b, node)
                    else:
                        node = cls(a, b, node)
                else:
                    if owed or length_hint(matches):
                        misfit = "trailing input after derivation"
                        raise ValueError
                    return node
    except ValueError:
        # find the rejected match again; offsets are found only here
        m = next(islice(_DPLL_NODE.finditer(text), len(found) - 1 - length_hint(matches), None))
        if misfit is None:
            _read_node(text, m.start())
        # the first token after the conflict and the ')' it closed nodes with;
        # there is none only when a ')' was owed
        tok = next(islice(_DPLL_TOKEN.finditer(text, m.start(5)),
                          conflict.count(")") - owed + 1, None), None)
        _fail(text, tok, "')'", misfit)
    _read_node(text, len(text))  # the text ended with nodes still open


def _read_node(text: str, start: int) -> NoReturn:
    """Read the node at offset ``start`` token by token, as the grammar
    does, and raise at the first token that does not fit."""
    tokens = _DPLL_TOKEN.finditer(text, start)
    tok = next(tokens, None)
    head = tok and tok.group()
    if head not in ("(unit", "(split", "(red", "(elim"):
        _fail(text, tok, "a derivation node", "unexpected token {!r}")
    if head == "(red" or head == "(elim":
        tok = next(tokens, None)
        if not tok or tok.group() != "[":
            _fail(text, tok, "'['", "expected '[', got {!r}")
        while (tok := next(tokens, None)) is None or tok.group() != "]":
            _lit(text, tok, "a literal or ']'")
    _lit(text, next(tokens, None), "a literal")
    raise AssertionError(f"no error in the node at offset {start}")


def _lit(text: str, tok: re.Match | None, expected: str) -> None:
    """Raise unless ``tok`` is a nonzero literal."""
    try:
        if tok and int(tok.group()):
            return
    except ValueError:
        _fail(text, tok, expected, "expected a literal, got {!r}")
    _fail(text, tok, expected, "literal must be nonzero")


def _fail(text: str, tok: re.Match | None, expected: str, message: str) -> NoReturn:
    """Raise ``message``, formatted with the token, at token ``tok`` or,
    when the input ended before it, "unexpected end of input" at the end of
    the last token: ``str.rstrip`` strips exactly what ``\\s`` matches."""
    if tok is None:
        raise ProofParseError(f"unexpected end of input, expected {expected}",
                              len(text.rstrip())) from None
    raise ProofParseError(message.format(tok.group()), tok.start()) from None


def serialize_res(r: ResDerivation) -> str:
    """Post-order trace, one line per distinct node; children precede
    parents and the last line is the root.  A node that several steps share
    is written once, where it is first finished, and later steps cite its
    id."""
    lines: list[str] = []
    ids: dict[int, int] = {}
    tails: dict[Clause, str] = {}  # conclusion -> " <lits> 0", once per call
    stack: list[tuple[ResDerivation, bool]] = [(r, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in ids:
            continue
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


@collector_paused
def parse_res(text: str) -> ResDerivation:
    """Parse a resolution trace, one ``split`` per line, with the cyclic
    collector paused.  A malformed line raises ``ProofParseError`` at the
    line's offset."""
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
