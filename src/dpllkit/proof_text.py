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

``parse_dpll`` cuts the text at each ``(`` into pieces: one node head each,
with any ``conflict`` and ``)`` run after it; the piece before the first
``(`` is empty or a lone ``conflict``.  Each distinct piece is decoded once
per call: a head alone in the serializer's spacing with ``str.partition``
and ``int``, any other piece with the grammar's regex.  An explicit stack of
open nodes builds the tree from the decoded pieces through
``dpll_proof.close``.  ``parse_res`` cuts
lines as ``parse_dimacs`` does, only at ``\\n``, ``\\r\\n`` and ``\\r``,
splits each line into its head fields and its conclusion text, and decodes
each distinct conclusion text once into one tuple.  Both build their trees
with the cyclic garbage collector paused (``dpll_proof.collector_paused``).
Errors name the first token that does not fit, in text order: a rejected
head is read again token by token, as the grammar reads it, and a
``conflict``'s ``)`` run names the token after the ``)`` it could use.
Offsets are found only when an error is raised.  The serializers render
each distinct clause once per call.
"""

from __future__ import annotations

import re
from itertools import islice
from operator import length_hint
from typing import NoReturn, Union

from .cnf import Clause
from .dimacs import line_start, split_lines
from .dpll_proof import (CONFLICT, Conflict, DpllDerivation, Elim, Red, Split, Unit, close,
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

# One DPLL piece per match: an '(', the node head it opens (a Unit's or
# Split's in group 1, an Elim's or Red's in group 2 with the inside of its
# clause in group 3) and the head's literal (group 4), then the rest up to
# the next '(' from its first token on (group 5).  Groups 1-4 are empty when
# the piece does not start with a head.  The rest of a piece that closes
# nodes is conflicts with the ')' runs (and whitespace) after them, which
# _DPLL_CLOSES reads, then nothing.  Tokens end where _DPLL_TOKEN's do: a
# head only where no word character follows it ("(unit1" is one token,
# "(unit-1" two), "conflict" only where whitespace, a parenthesis, a
# bracket or the end follows it, and a literal is a whole token, which
# int() then reads.  No group reaches past an '(', so a piece matches alike
# in the text and on its own.
_DPLL_PIECE = re.compile(r"""
    \( (?: (?: (unit|split)\b | (red|elim)\b \s*\[ ([^()\[\]]*) \] ) \s*([^\s()\[\]]+) | ) \s*([^(]*)
    """, re.VERBOSE)
_DPLL_CLOSES = re.compile(r"((?:conflict(?![^\s()\[\]])[\s)]*)*)([\s\S]*)")


@collector_paused
def parse_dpll(text: str) -> DpllDerivation:
    """Parse the DPLL text format, with the cyclic collector paused.  The
    text is cut at each '(' into pieces, one node head each, and each
    distinct piece is decoded once; an explicit stack of the nodes still
    open builds the tree.  Text that is not a valid derivation raises
    ``ProofParseError`` with the offset of the first token that does not
    fit."""
    parts = text.split("(")  # what follows each '(', after what precedes the first
    if parts[0] and not parts[0].isspace():
        # tokens before the first '(': the derivation is a lone conflict
        tokens = _DPLL_TOKEN.finditer(text)
        tok = next(tokens)
        if tok.group() != "conflict":
            _fail(text, tok, "", "unexpected token {!r}")
        tok = next(tokens, None)
        if tok:
            _fail(text, tok, "", "trailing input after derivation")
        return CONFLICT
    # each distinct piece -> its action: the frame its head opens when the
    # piece holds nothing else, otherwise what _decode_piece returns
    actions: dict[str, Union[tuple, list, None]] = dict.fromkeys(islice(parts, 1, None))
    for part in actions:
        # a head alone, spaced as serialize_dpll spaces it: "unit L ",
        # "split L ", "red [ C ] L " or "elim [ C ] L ", with at most
        # whitespace after L, which int() reads with the whitespace around
        # it.  Any other piece fails here and is read with the grammar.
        head, _, lit = part.partition(" ")
        try:
            if head == "unit" or head == "split":
                lit = int(lit)
                frame = (Unit if head == "unit" else Split, lit, None)
            else:
                head, _, lit = part.partition("] ")
                head, bracket, inside = head.partition(" [")
                if not bracket or head != "red" and head != "elim":
                    raise ValueError
                clause = (*map(int, inside.split()),)
                lit = int(lit)
                if 0 in clause:
                    raise ValueError
                frame = (Red if head == "red" else Elim, clause, lit)
            if not lit:
                raise ValueError
            actions[part] = frame
        except ValueError:
            actions[part] = _decode_piece(part)
    # open nodes, as dpll_proof.close reads them
    frames: list[tuple] = []
    push = frames.append
    pending = iter(parts)
    next(pending)
    for action in map(actions.__getitem__, pending):
        if action.__class__ is tuple:
            push(action)
            continue
        frame, closes, rest = action
        if frame is None:
            _read_node(text, _piece(text, parts, pending).start())
        push(frame)
        for owed, end in closes:
            # close the open nodes the conflict completes, one ')' each, up
            # to a Split still waiting for its right child
            opened = len(frames)
            node = close(frames, CONFLICT)
            owed -= opened - len(frames)
            if owed < 0:
                _misfit(text, parts, pending, end, "expected ')', got {!r}")
            if not frames:
                if owed or end != closes[-1][1] or rest or length_hint(pending):
                    _misfit(text, parts, pending, end - owed, "trailing input after derivation")
                return node
            if owed:
                _misfit(text, parts, pending, end - owed, "unexpected token {!r}")
        if rest:
            _misfit(text, parts, pending, closes[-1][1] if closes else 0, "unexpected token {!r}")
    _read_node(text, len(text))  # the text ended with nodes still open


def _decode_piece(part: str) -> list:
    """Read the piece ``part``, the text after an '(', with _DPLL_PIECE, and
    return [frame, closes, rest]: the frame its head opens, or None when it
    does not start with a valid head; for each conflict, the number of ')'
    after it and the index of the token after them, counting tokens from the
    first conflict; and the text after the conflicts."""
    unary, reducing, inside, lit, after = _DPLL_PIECE.match("(" + part).groups("")
    frame = None
    try:
        lit = int(lit)  # a piece without a head has no literal
        if lit and unary:
            frame = (Unit if unary == "unit" else Split, lit, None)
        elif lit:
            clause = (*map(int, inside.split()),)
            if 0 not in clause:
                frame = (Red if reducing == "red" else Elim, clause, lit)
    except ValueError:
        pass
    runs, rest = _DPLL_CLOSES.match(after).groups()
    closes, end = [], 0
    for run in islice(runs.split("conflict"), 1, None):
        owed = run.count(")")
        end += 1 + owed
        closes.append((owed, end))
    return [frame, closes, rest]


def _piece(text: str, parts: list[str], pending) -> re.Match:
    """The piece ``parse_dpll`` has reached, matched again where it stands
    in ``text``: ``pending`` iterates over the parts after it."""
    k = len(parts) - length_hint(pending) - 1
    return _DPLL_PIECE.match(text, sum(map(len, islice(parts, k))) + k - 1)


def _misfit(text: str, parts: list[str], pending, index: int, message: str) -> NoReturn:
    """Raise ``message`` at token ``index`` of the rest of the piece
    ``parse_dpll`` has reached; there is none only when a ')' was owed."""
    tokens = _DPLL_TOKEN.finditer(text, _piece(text, parts, pending).start(5))
    _fail(text, next(islice(tokens, index, None), None), "')'", message)


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
    """Parse a resolution trace, with the cyclic collector paused.  Each line
    is split into its head fields and its conclusion text, and each distinct
    conclusion text is decoded once.  A malformed line raises
    ``ProofParseError`` at the line's offset."""
    nodes: dict[int, ResDerivation] = {}
    conclusions: dict[str, Clause] = {}  # a conclusion's text -> its one tuple
    lines = split_lines(text)
    pending = iter(lines)
    for line in pending:
        fields = line.split(None, 3)
        if not fields or fields[0][0] == "c":
            continue
        try:
            nid = int(fields[0])
            kind = fields[1]
            # the head's numbers, then the conclusion's text; in a line too
            # short for both, the last number is the text too
            if kind == "R":
                fields = line.split(None, 5)
            lits = conclusions.get(fields[-1])
            if lits is None:
                tokens = fields[-1].split()
                if tokens.pop() != "0":
                    raise ValueError
                lits = conclusions[fields[-1]] = (*map(int, tokens),)
            if kind == "S":
                node = Sub(int(fields[2]), lits)
            elif kind == "R":
                nums = [*map(int, fields[2:5])]
                node = Res(nums[0], nodes[nums[1]], nodes[nums[2]], lits)
            else:
                raise ValueError
        except (ValueError, IndexError):
            _line_error(text, lines, pending, f"malformed trace line {line!r}")
        except KeyError:
            _line_error(text, lines, pending, f"undefined node reference in line {line!r}")
        if 0 in lits:
            _line_error(text, lines, pending, "zero literal inside conclusion")
        if nid in nodes:
            _line_error(text, lines, pending, f"duplicate node id in line {line!r}")
        nodes[nid] = node
    if not nodes:
        raise ProofParseError("empty resolution trace", 0)
    return node


def _line_error(text: str, lines: list[str], pending, message: str) -> NoReturn:
    """Raise ``message`` at the offset of the line ``parse_res`` has
    reached: ``pending`` iterates over ``lines`` after it."""
    raise ProofParseError(message, line_start(text, lines, len(lines) - length_hint(pending) - 1))
