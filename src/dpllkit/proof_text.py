"""Text formats for both proof systems.

DPLL derivations use a parenthesized prefix grammar (whitespace-separated
tokens):

    node   := "conflict" | "#" n | "(unit" lit node ")" | "(elim" clause lit node ")"
            | "(red" clause lit node ")" | "(split" lit node node ")"
    clause := "[" lit* "]"   (a set of literals: read in canonical order without
                              repeats, the order serialize_dpll writes)
    lit    := nonzero signed decimal
    n      := positive decimal, written right after "#" as one token

``#n`` cites the n-th Split finished so far: a Split is finished when its
closing ``)`` is written, so the Splits are counted innermost first, in the
order ``dpll_proof.close`` builds them.  ``serialize_dpll`` writes a Split
object that it has written before as ``#n``, so a derivation that shares
Splits is written at the size of its distinct nodes, and the parse shares
them again; a tree that shares no Split is written without ``#``.  A number
that no finished Split has yet, such as that of a Split still open around
it, does not fit the grammar.

Resolution derivations use a line-oriented trace, ids assigned in post-order
starting at 1, root last:

    <id> S <premise_index> <lits...> 0
    <id> R <pivot> <left_id> <right_id> <lits...> 0

``parse_dpll`` reads the text in one of two ways.  A fast pass reads text
spaced as ``serialize_dpll`` spaces it, with any whitespace after it: it cuts
the text at each ``(`` into pieces, one node head each with the leaves
(``conflict`` or ``#n``) and ``)`` runs after it, decodes each distinct piece
once per call with ``str.partition`` and ``int``, and builds the derivation
from the decoded pieces through ``dpll_proof.close``.  It never reports an
error: at a piece it does not recognise, a ``#n`` past the Splits finished,
a ``)`` run that does not match the nodes a leaf completes, or text after
the derivation, it hands the whole text to the token walk,
``_read_tokens``.  The walk reads any legal spacing token by token, as the
grammar reads it, builds the derivation through ``close`` too, and raises
at the first token that does not fit, in text order; the offset is found
only when it raises.

``parse_res`` cuts lines as ``parse_dimacs`` does, only at ``\\n``,
``\\r\\n`` and ``\\r``, and splits each line once into its fields.  Both
parsers build their trees with the cyclic garbage collector paused
(``dpll_proof.collector_paused``).  ``serialize_dpll`` renders each distinct
Elim and Red head once per call.
"""

from __future__ import annotations

import re
from itertools import islice
from operator import length_hint
from typing import NoReturn, Union

from .cnf import Clause, canonical_clause
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
    written: dict[int, str] = {}  # id of each Split finished so far -> "#n"
    # Split right branches still to emit, the text around them, and for each
    # Split its ')' run with the Split that run finishes
    stack: list = [p]
    while stack:
        p = stack.pop()
        if type(p) is str:
            parts.append(p)
            continue
        if type(p) is tuple:
            run, split = p
            parts.append(run)
            written[id(split)] = f"#{len(written) + 1}"
            continue
        # emit down the left spine, counting the ')' owed to its unary nodes,
        # to a conflict or a Split written before
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
                leaf = written.get(id(p))
                if leaf is not None:
                    break
                parts.append(f"(split {p.lit} ")
                stack += ((")" * (closers + 1), p), p.right, " ")
                closers = 0
                p = p.left
                continue
            else:
                raise TypeError(f"not a DPLL derivation node: {p!r}")
            closers += 1
            p = p.sub
        else:
            leaf = "conflict"
        parts.append(leaf + ")" * closers)
    return "".join(parts)


# Every non-whitespace character belongs to a token, so none is skipped.
_DPLL_TOKEN = re.compile(r"\(\w*|\)|\[|\]|[^\s()\[\]]+")


@collector_paused
def parse_dpll(text: str) -> DpllDerivation:
    """Parse the DPLL text format, with the cyclic collector paused.  Text
    spaced as ``serialize_dpll`` spaces it, with any whitespace after it, is
    cut at each '(' into pieces, and each distinct piece is decoded once;
    an explicit stack of the nodes still open builds the derivation, in
    which each ``#n`` is the Split it cites.  Any other
    text is read by ``_read_tokens``, which raises ``ProofParseError`` with
    the offset of the first token that does not fit."""
    stripped = text.rstrip()
    parts = stripped.split("(")  # what follows each '(', after what precedes the first
    if parts[0]:
        return CONFLICT if stripped == "conflict" else _read_tokens(text)
    # each distinct piece -> the frame its head opens or, when the piece
    # also holds leaves, [frame, (CONFLICT or n of "#n", the number of ')'
    # after it) for each leaf]
    actions: dict[str, Union[tuple, list, None]] = dict.fromkeys(islice(parts, 1, None))
    for part in actions:
        # a head as serialize_dpll spaces it, "unit L ", "split L ",
        # "red [ C ] L " or "elim [ C ] L ", then leaves, "conflict" or "#n",
        # each followed by a run of ')', one space apart.  int() reads a
        # literal with the whitespace around it, and fails on any ( ) [ ] in
        # it; the n of "#n" must be digits alone here.
        head, _, rest = part.partition(" ")
        try:
            if head == "unit" or head == "split":
                lit, _, rest = rest.partition(" ")
                lit = int(lit)
                frame = (Unit if head == "unit" else Split, lit, None)
            else:
                inside, _, rest = rest.partition("] ")
                if head != "red" and head != "elim" or inside[:1] != "[":
                    raise ValueError
                clause = canonical_clause(map(int, inside[1:].split()))
                lit, _, rest = rest.partition(" ")
                lit = int(lit)
                if 0 in clause:
                    raise ValueError
                frame = (Red if head == "red" else Elim, clause, lit)
            if not lit:
                raise ValueError
            if rest:
                runs = rest.split(" ")
                if not runs[-1]:
                    runs.pop()  # the space before the next '('
                leaves = []
                for run in runs:
                    leaf = run.rstrip(")")
                    if leaf == "conflict":
                        leaves.append((CONFLICT, len(run) - 8))
                    elif leaf[:1] == "#" and leaf[1:].isdecimal():
                        leaves.append((int(leaf[1:]), len(run) - len(leaf)))
                    else:
                        raise ValueError
                frame = [frame, leaves]
            actions[part] = frame
        except ValueError:
            return _read_tokens(text)
    # open nodes, as dpll_proof.close reads them, above a Split frame of
    # literal 0 that close stops at: the finished tree becomes its left branch
    frames: list[tuple] = [(Split, 0, None)]
    push = frames.append
    splits: list[Split] = []  # the Splits finished so far, in the order "#n" counts them
    for action in map(actions.__getitem__, islice(parts, 1, None)):
        if action.__class__ is tuple:
            push(action)
            continue
        frame, leaves = action
        push(frame)
        for leaf, owed in leaves:
            if leaf.__class__ is int:
                if not 0 < leaf <= len(splits):
                    return _read_tokens(text)
                leaf = splits[leaf - 1]
            depth = len(frames)
            close(frames, leaf, splits)
            if depth - len(frames) != owed:
                return _read_tokens(text)
    # the tree is finished once, at the end: a ')' or a piece after it
    # would have taken the bottom frame, or left a frame above it
    if len(frames) == 1 and frames[0][:2] == (None, 0):
        return frames[0][2]
    return _read_tokens(text)


def _read_tokens(text: str) -> DpllDerivation:
    """Read ``text`` token by token, as the grammar reads it, and return its
    derivation, built through ``dpll_proof.close``; raise
    ``ProofParseError`` at the first token that does not fit."""
    walk = iter(_DPLL_TOKEN.findall(text))
    frames: list[tuple] = []
    splits: list[Split] = []  # the Splits finished so far, in the order "#n" counts them
    for tok in walk:
        if tok == "conflict" or tok[0] == "#":
            leaf = CONFLICT if tok == "conflict" else _cited(text, walk, tok, splits)
            depth = len(frames)
            node = close(frames, leaf, splits)
            for _ in range(depth - len(frames)):
                if (tok := next(walk, None)) != ")":
                    _fail(text, walk, tok, "')'", "expected ')', got {!r}")
            if not frames:
                if (tok := next(walk, None)) is not None:
                    _fail(text, walk, tok, "", "trailing input after derivation")
                return node
        elif tok == "(unit" or tok == "(split":
            lit = _lit(text, walk, next(walk, None), "a literal")
            frames.append((Unit if tok == "(unit" else Split, lit, None))
        elif tok == "(red" or tok == "(elim":
            cls = Red if tok == "(red" else Elim
            if (tok := next(walk, None)) != "[":
                _fail(text, walk, tok, "'['", "expected '[', got {!r}")
            clause = []
            while (tok := next(walk, None)) != "]":
                clause.append(_lit(text, walk, tok, "a literal or ']'"))
            clause = canonical_clause(clause)
            frames.append((cls, clause, _lit(text, walk, next(walk, None), "a literal")))
        else:
            _fail(text, walk, tok, "a derivation node", "unexpected token {!r}")
    _fail(text, walk, None, "a derivation node", "")


def _cited(text: str, walk, tok: str, splits: list[Split]) -> Split:
    """The finished Split that ``tok``, a "#n" token, cites; raise unless it
    cites one."""
    try:
        n = int(tok[1:])
    except ValueError:
        _fail(text, walk, tok, "", "expected a Split number after '#', got {!r}")
    if not 0 < n <= len(splits):
        _fail(text, walk, tok, "", "{!r} cites no finished Split")
    return splits[n - 1]


def _lit(text: str, walk, tok: str | None, expected: str) -> int:
    """``tok`` as a nonzero literal; raise unless it is one."""
    try:
        if tok is not None and (lit := int(tok)):
            return lit
    except ValueError:
        _fail(text, walk, tok, expected, "expected a literal, got {!r}")
    _fail(text, walk, tok, expected, "literal must be nonzero")


def _fail(text: str, walk, tok: str | None, expected: str, message: str) -> NoReturn:
    """Raise ``message``, formatted with ``tok``, at the offset of ``tok``,
    the token ``walk`` took last, or, when the input ended before it,
    "unexpected end of input" at the end of the last token: ``str.rstrip``
    strips exactly what ``\\s`` matches."""
    if tok is None:
        raise ProofParseError(f"unexpected end of input, expected {expected}",
                              len(text.rstrip())) from None
    tokens = [*_DPLL_TOKEN.finditer(text)]
    raise ProofParseError(message.format(tok),
                          tokens[len(tokens) - length_hint(walk) - 1].start()) from None


def serialize_res(r: ResDerivation) -> str:
    """Post-order trace, one line per distinct node; children precede
    parents and the last line is the root.  A node that several steps share
    is written once, where it is first finished, and later steps cite its
    id."""
    lines: list[str] = []
    ids: dict[int, int] = {}
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
        ids[id(node)] = len(lines) + 1
        lines.append(" ".join([str(len(lines) + 1), head, *map(str, node.conclusion), "0"]))
    return "\n".join(lines) + "\n"


@collector_paused
def parse_res(text: str) -> ResDerivation:
    """Parse a resolution trace, with the cyclic collector paused.  Each line
    is split once into its fields.  A malformed line raises
    ``ProofParseError`` at the line's offset."""
    nodes: dict[int, ResDerivation] = {}
    lines = split_lines(text)
    pending = iter(lines)
    for line in pending:
        fields = line.split()
        if not fields or fields[0][0] == "c":
            continue
        try:
            nid = int(fields[0])
            kind = fields[1]
            # the head's numbers, then the conclusion's literals and 0; in a
            # line too short for both, the last field is that 0 too.  The
            # conclusion is decoded before any node id is looked up
            if fields[-1] != "0":
                raise ValueError
            lits = (*map(int, fields[5 if kind == "R" else 3:-1]),)
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
