"""DPLL derivation trees and their independent checker.

Derivation payloads are slim: nodes carry only the literal/clause deltas,
never the running valuation or formula.  One iterative walk, ``walk``,
reconstructs the (valuation, formula) context top-down and validates the
side condition of every rule application; ``check_dpll`` is that walk, and
the resolution translator folds its result over the same walk.  The walk
keeps a single mutable context and undoes each node's delta when it leaves
the node, so a node costs O(1) plus the reduct a Red builds, and a
derivation of any depth is checked without recursion.  A Split that the
derivation shares is walked again only where the walk of it recorded before
would not hold, so the solver's shared derivation costs about its distinct
nodes, not its unfolded tree.  It is deliberately independent of the
solver: nothing here imports the search code.
"""

from __future__ import annotations

import gc
from dataclasses import FrozenInstanceError, dataclass, fields
from functools import wraps
from math import inf
from sys import getrefcount
from typing import Any, Optional, Union

from .cnf import Clause, Formula, Lit, Valuation, canonical_formula, canonical_valuation


def collector_paused(build):
    """Wrap a tree builder to run with the cyclic garbage collector off,
    turned back on after only if it was on before.  The nodes a builder
    makes are reachable from its tree and freed with it, and a collection
    would only traverse them again and again as they are made.  The
    collector goes off before anything is allocated, so no collection starts
    inside ``build``.  The witness search, the translator and both proof
    parsers run under it."""

    @wraps(build)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


class ProofNode:
    """Structural ``==``, ``hash`` and ``repr`` for derivation nodes, read
    from the dataclass fields in declaration order; the dataclass defaults
    recurse.  ``==`` compares with an explicit stack and each pair of nodes
    once, so shared nodes (``parse_res`` makes them) cost one visit and trees
    of any depth need no recursion.  ``hash`` reads only the root's fields
    that are not nodes: equal nodes have equal ones, and it costs O(1)
    however large the derivation.  ``repr`` spells the tree, but writes a
    node with subderivations that it has already spelled as ``...``, as
    ``reprlib`` writes a container it meets again: a node shared by many
    steps is spelled once, and leaves are always spelled.

    ``size`` is the number of rule applications in the node's unfolded
    tree, a Conflict or a Sub counting 0.  ``proof_node``'s ``__init__``
    sets it once, from the sizes of the node's subderivations, so a node
    shared by many steps is sized once.  It is a slot, not a field, so
    ``fields()``, ``==``, ``hash``, ``repr`` and both text formats do not
    read it."""

    __slots__ = ("size",)

    def __reduce__(self):
        # copy and pickle rebuild the node through __init__, which sets size
        return self.__class__, tuple(getattr(self, name) for name in self.__dataclass_fields__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        compared: set[tuple[int, int]] = set()
        while stack:
            a, b = stack.pop()
            pair = id(a), id(b)
            if a is b or pair in compared:
                continue
            if a.__class__ is not b.__class__:
                return False
            compared.add(pair)
            for name in a.__dataclass_fields__:
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(x, ProofNode):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self) -> int:
        values = (getattr(self, name) for name in self.__dataclass_fields__)
        return hash((self.__class__, *(v for v in values if not isinstance(v, ProofNode))))

    def __repr__(self) -> str:
        # the stack holds text still to be written and nodes still to be
        # spelled, the next piece on top; spelled holds the ids of the nodes
        # with subderivations spelled so far
        out = []
        spelled: set[int] = set()
        stack: list = [self]
        while stack:
            item = stack.pop()
            if not isinstance(item, ProofNode):
                out.append(item)
                continue
            if id(item) in spelled:
                out.append("...")
                continue
            pieces = [f"{item.__class__.__qualname__}("]
            for k, name in enumerate(item.__dataclass_fields__):
                value = getattr(item, name)
                pieces.append(f", {name}=" if k else f"{name}=")
                if isinstance(value, ProofNode):
                    spelled.add(id(item))
                    pieces.append(value)
                else:
                    pieces.append(repr(value))
            pieces.append(")")
            stack += reversed(pieces)
        return "".join(out)


def proof_node(cls):
    """Declare a node class of either proof system, a ``ProofNode``
    subclass: a frozen, slotted dataclass that keeps ``ProofNode``'s ``==``,
    ``hash`` and ``repr``, with an ``__init__`` that writes each field
    through its slot's member descriptor.

    A frozen dataclass's own ``__init__`` sets each field with
    ``object.__setattr__``, which looks the name up on the type at every
    call; one node is built per rule application, so that lookup is a large
    share of building a derivation.  The descriptor's ``__set__`` is what
    the lookup finds, bound here once per field.  The parameters are the
    field names in order, so positional and keyword construction and
    ``dataclasses.replace`` work as for any dataclass.  The ``__init__``
    also sets ``size``: 1 plus the ``size`` of each subderivation field
    (``sub``, ``left``, ``right``), or 0 for a class that has none.

    Setting or deleting any name on a built node raises
    ``FrozenInstanceError``.  The frozen dataclass's own ``__setattr__`` and
    ``__delattr__`` do so only for fields: for any other name they call
    ``super()`` with the class from before ``slots=True`` rebuilt it, which
    raises ``TypeError``."""
    cls = dataclass(frozen=True, slots=True, eq=False, init=False, repr=False)(cls)
    names = [f.name for f in fields(cls)]
    namespace = {f"_set_{name}": cls.__dict__[name].__set__ for name in names}
    namespace["_set_size"] = ProofNode.size.__set__
    subs = "".join(f" + {name}.size" for name in names if name in ("sub", "left", "right"))
    body = "".join(f"\n    _set_{name}(self, {name})" for name in names)
    body += f"\n    _set_size(self, {'1' + subs if subs else '0'})"
    exec(f"def __init__({', '.join(['self', *names])}):{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


def _frozen(self, name, *value):
    raise FrozenInstanceError(f"cannot set or delete {name!r}: proof nodes are frozen")


@proof_node
class Conflict(ProofNode):
    pass


@proof_node
class Unit(ProofNode):
    lit: Lit
    sub: "DpllDerivation"


@proof_node
class Elim(ProofNode):
    clause: Clause
    lit: Lit
    sub: "DpllDerivation"


@proof_node
class Red(ProofNode):
    clause: Clause
    lit: Lit  # the valuation literal; its complement is removed from `clause`
    sub: "DpllDerivation"


@proof_node
class Split(ProofNode):
    lit: Lit  # left child assumes `lit`, right child its complement
    left: "DpllDerivation"
    right: "DpllDerivation"


DpllDerivation = Union[Conflict, Unit, Elim, Red, Split]

CONFLICT = Conflict()


def dpll_size(d: DpllDerivation) -> int:
    """Number of rule applications above the Conflict axioms in the unfolded
    tree: ``d.size``, set when ``d`` was built, so a derivation that shares
    Splits (the solver and ``parse_dpll`` share them) is sized in O(1)."""
    return d.size


@dataclass(frozen=True)
class CheckReport:
    valid: bool
    path: tuple[int, ...] = ()
    reason: Optional[str] = None
    context: Optional[tuple] = None  # (valuation, formula) at the failing node

    def __bool__(self) -> bool:
        return self.valid


VALID = CheckReport(True)


def check_dpll(g0: Valuation, d0: Formula, proof: DpllDerivation,
               limit: Optional[int] = None) -> CheckReport:
    """Validate ``proof`` as a derivation of the sequent ``g0 |- d0``.

    Contexts are rebuilt per rule: Unit extends the valuation and drops the
    unit clause, Elim drops the subsumed clause, Red replaces the clause by
    its reduct, Split branches on a literal and its complement.  Failures name
    the leftmost violating node by its child-index path.  ``limit`` bounds
    the walk's steps, as ``walk`` says.
    """
    return walk(g0, d0, proof, limit=limit)[0]


class WalkLimitExceeded(ValueError):
    """Raised by ``walk`` when checking a derivation takes more steps than
    its ``limit``: the derivation shares Splits that it meets with too many
    formulas or in too many unclean contexts."""


# The walk keeps one frame (kind, node, a, b) per node it is inside.  _UNIT:
# a is the unit clause's premise, b whether the literal was newly assumed.
# _ELIM: a is the clause's premise.  _RED: a is the clause's premise, b the
# reduct if the node added it, else None.  A Split is _LEFT while in its left
# branch (a: whether the literal was new), then _RIGHT (a: whether its
# complement was new; b: whether the nodes around the Split are being
# folded).
_UNIT, _ELIM, _RED, _LEFT, _RIGHT = range(5)


def _one_referrer() -> int:
    """What ``getrefcount`` gives in ``walk`` for a node that only its
    parent refers to."""
    parent = Split(1, Split(2, CONFLICT, CONFLICT), CONFLICT)
    node = parent.left
    return getrefcount(node)


_ONE_REFERRER = _one_referrer()


def walk(g0: Valuation, d0: Formula, proof: DpllDerivation,
         fold=None, limit: Optional[int] = None) -> tuple[CheckReport, Any]:
    """Check ``proof`` against ``g0 |- d0`` in one depth-first walk, left
    branch first, and return ``(report, value)``.

    The valuation is an insertion-ordered dict of literals.  The formula is
    a dict from each clause to its premise: the 1-based index in ``d0`` of
    the clause it was reduced from, a clause of ``d0`` being its own
    premise.  Each node tests its side conditions, applies its delta on the
    way down and undoes it on the way up, restoring the premises it
    replaced, so a reduct re-created inside a subtree names its own premise
    there and the outer one again after it.  Consistency is tested once at
    the root and then only for each newly assumed literal.  The first
    violation ends the walk with a failing report whose context is the
    violating node's (valuation, formula); the formula lists the clauses of
    ``d0`` still in it, in ``d0``'s order, then the reducts in the order the
    Reds on the path to the node last made them.

    A Split node that the derivation shares is walked once and then taken
    as a leaf where it would walk alike, not walked once per occurrence.
    Below a Split, the rules read (clause, premise) pairs of the formula: a
    Unit, an Elim and a Red pop their clause, and a Conflict reads the empty
    clause.  They read the valuation only at the Split's reads: the
    variables of the clauses read that were in the formula when the Split
    was entered (an Elim's, a Red's and a Unit's literal are in its clause,
    and a reduct's variables are its clause's) and the split variables at
    and below the Split.  The context is clean when the valuation holds no
    variable of the reads.  A shared Split walked to its end in a clean
    context records under its id the folding, its value, its split
    literals, its reads, the (clause, premise) pairs it read of the formula
    it was entered with, and its fresh reducts: those its Reds computed
    that were not clauses of that formula.  A later occurrence under a
    formula T that finds the record is a leaf that takes the recorded value
    and needs no frame when every recorded pair is in T, no fresh reduct is
    in T, its own context is clean, and the record was folding or the walk
    is not.  Then every rule below it touches the same clauses with the
    same premises as where it was recorded, never another clause of T, and
    reads no literal of the valuation, so it would walk as it did there.
    Otherwise it is walked again, and its record is replaced when that walk
    makes one.  Only Splits walked without a violation are recorded, so the
    walk meets the violations in the preorder of the unfolded tree, and
    reports the first one with its unfolded path and context, as a walk of
    the unfolded tree would.  The solver's shared Splits are all met in
    clean contexts: it opens a Split only where the clauses it has not
    dropped as satisfied are its clean clauses, which share no variable
    with the valuation, and a refutation below reads only those; it splits
    below only on their variables, and reuses a Split only where the clean
    clauses equal those it was refuted under.  A clause it dropped as
    satisfied by the literal of a Split it backjumped past is unsatisfied
    in the derivation's context, but no rule reads it.

    A Split is shared when something besides its parent refers to it
    (CPython's ``sys.getrefcount`` tells); one that only its parent refers
    to is met once and recorded by nothing.  So a tree costs no records, and
    the split literals, the reducts and the clauses read below a shared
    Split are collected only while a shared Split is being walked:
    ``below`` gets each split literal walked, ``reduced`` each reduct a Red
    computes and ``readc`` each clause a node reads, and all three get
    those of each Split taken as recorded.  At a shared Split's exit each
    of its spans is cut to what a Split around it needs of it, and a record
    keeps: the split literals, the fresh reducts, and the clauses read that
    are in the formula again, those it was entered with.

    A shared Split met under many formulas that its record does not fit
    (say, whose subtree reads a clause with another premise at each), or in
    many unclean contexts, is walked in each, so a short derivation can
    take time exponential in its size.  ``limit`` bounds the steps: each
    node stepped into, and each Split met again that finds a record, is one
    step, and the walk raises ``WalkLimitExceeded`` past ``limit`` steps.
    With no limit it walks to the end.

    With a ``fold``, the walk also folds the derivation bottom-up into
    ``value`` (otherwise ``None``): ``fold.conflict(premise)`` at a leaf,
    with the premise of the empty clause; ``fold.unit(node, v, premise)``
    from the child's value and the premise of the unit clause; and for a
    Split, ``fold.needs_right(node, left)`` after the left branch, then
    ``fold.split(node, left, right)`` when it said so.  Otherwise the Split's
    value is ``left``, and its right branch is checked but not folded.  An
    Elim's and a Red's value is its child's.  A Split taken as recorded
    takes the value it folded to there, the same object, so the value shares
    it as the derivation does.
    """
    d0 = canonical_formula(d0)
    g = dict.fromkeys(canonical_valuation(g0))
    d = {c: premise for premise, c in enumerate(d0, 1)}
    frames: list[tuple] = []
    values: list = []
    folding = fold is not None
    # memo: for each shared Split walked to its end in a clean context, by
    # its id, (formula pairs, fresh reducts, folding, value, split literals,
    # reads), the pairs a dict from each clause to its premise.  below,
    # reduced and readc: the split literals, the reducts and the clauses
    # read, collected while a shared Split is being walked.  opened: for
    # each Split being walked, where its spans of below, reduced and readc
    # start, and its id if it is shared, else None; recording: how many of
    # them have an id.  steps: the walk's steps up to the last leaf; top:
    # the frames above which the current descent began.
    memo: dict[int, tuple] = {}
    below: list[Lit] = []
    reduced: list[Clause] = []
    readc: list[Clause] = []
    opened: list[tuple[int, int, int, Optional[int]]] = []
    recording = 0
    steps, top = 0, 0
    if limit is None:
        limit = inf

    def fail(reason: str) -> tuple[CheckReport, None]:
        # the child index of each node the walk is inside: 1 in a Split's
        # right branch, else 0
        path = tuple(1 if frame[0] == _RIGHT else 0 for frame in frames)
        # the reducts made on the path, each where it was made last, last first
        made = dict.fromkeys(frame[3] for frame in reversed(frames)
                             if frame[0] == _RED and frame[3] is not None)
        formula = [c for c in d0 if c in d and c not in made]
        formula += [c for c in reversed(made) if c in d]
        return CheckReport(False, path, reason, (tuple(g), tuple(formula))), None

    if any(-l in g for l in g):
        return fail("inconsistent-context")
    node = proof
    while True:
        # Down: test the node in its context, apply its delta and step into
        # its (left) child, until a Conflict or a Split met again in a
        # recorded context.
        while True:
            if isinstance(node, Unit):
                lit = node.lit
                premise = d.pop((lit,), None)
                if premise is None:
                    return fail("unit-clause-missing")
                if recording:
                    readc.append((lit,))
                new = lit not in g
                if new:
                    g[lit] = None
                frames.append((_UNIT, node, premise, new))
                if new and -lit in g:
                    return fail("inconsistent-context")
                node = node.sub
            elif isinstance(node, Red):
                lit, clause = node.lit, node.clause
                if lit not in g:
                    return fail("red-literal-not-in-valuation")
                if -lit not in clause:
                    return fail("red-complement-not-in-clause")
                premise = d.pop(clause, None)
                if premise is None:
                    return fail("red-clause-missing")
                # the clause was just in d, so -lit occurs in it once
                k = clause.index(-lit)
                reduct = clause[:k] + clause[k + 1:]
                if recording:
                    readc.append(clause)
                if reduct in d:
                    reduct = None
                else:
                    d[reduct] = premise
                    if recording:
                        reduced.append(reduct)
                frames.append((_RED, node, premise, reduct))
                node = node.sub
            elif isinstance(node, Elim):
                if node.lit not in g:
                    return fail("elim-literal-not-in-valuation")
                if node.lit not in node.clause:
                    return fail("elim-literal-not-in-clause")
                premise = d.pop(node.clause, None)
                if premise is None:
                    return fail("elim-clause-missing")
                if recording:
                    readc.append(node.clause)
                frames.append((_ELIM, node, premise, None))
                node = node.sub
            elif isinstance(node, Split):
                key = None
                if getrefcount(node) > _ONE_REFERRER:
                    key = id(node)
                    record = memo.get(key)
                    if record is not None:
                        steps += 1
                        pairs, fresh, was_folding, value, lits, reads = record
                        if ((was_folding or not folding) and reads.isdisjoint(g)
                                and d.items() >= pairs.items() and d.keys().isdisjoint(fresh)):
                            if folding:
                                values.append(value)
                            if recording:
                                below += lits
                                reduced += fresh
                                readc += pairs
                            break
                    recording += 1
                opened.append((len(below), len(reduced), len(readc), key))
                lit = node.lit
                if recording:
                    below.append(lit)
                new = lit not in g
                if new:
                    g[lit] = None
                frames.append((_LEFT, node, new, None))
                if new and -lit in g:
                    return fail("inconsistent-context")
                node = node.left
            elif isinstance(node, Conflict):
                premise = d.get(())
                if premise is None:
                    return fail("conflict-empty-clause-missing")
                if recording:
                    readc.append(())
                if folding:
                    values.append(fold.conflict(premise))
                break
            else:
                raise TypeError(f"not a DPLL derivation node: {node!r}")
        steps += len(frames) - top + 1
        if steps > limit:
            raise WalkLimitExceeded(f"checking the derivation takes more than {limit} steps")

        # Up: undo the deltas of finished nodes and fold their values, until
        # a Split's left branch is done; then step into its right branch.
        # The valuation's literals leave in the reverse order they joined.
        while frames:
            kind, node, a, b = frames.pop()
            if kind == _UNIT:
                if b:
                    g.popitem()
                d[(node.lit,)] = a
                if folding:
                    values[-1] = fold.unit(node, values[-1], a)
            elif kind == _RED:
                if b is not None:
                    del d[b]
                d[node.clause] = a
            elif kind == _ELIM:
                d[node.clause] = a
            elif kind == _LEFT:
                lit = node.lit
                if a:
                    g.popitem()
                new = -lit not in g
                if new:
                    g[-lit] = None
                frames.append((_RIGHT, node, new, folding))
                folding = folding and fold.needs_right(node, values[-1])
                if new and lit in g:
                    return fail("inconsistent-context")
                node = node.right
                top = len(frames)
                break
            else:
                if a:
                    g.popitem()
                if folding:
                    right = values.pop()
                    values[-1] = fold.split(node, values[-1], right)
                folding = b
                start, rstart, cstart, key = opened.pop()
                if key is not None:
                    # the context is the Split's again: the clauses read
                    # below it that are in the formula were there when it
                    # was entered, and the reducts made below it that are
                    # not were not.  Each span keeps only those, all an
                    # enclosing Split needs of it, and the Split is
                    # recorded with them if its context is clean
                    recording -= 1
                    lits = set(below[start:])
                    fresh = set(reduced[rstart:]).difference(d)
                    pairs = {c: d[c] for c in readc[cstart:] if c in d}
                    below[start:], reduced[rstart:], readc[cstart:] = lits, fresh, pairs
                    reads = lits.union(*pairs)
                    reads.update([-l for l in reads])
                    if reads.isdisjoint(g):
                        memo[key] = (pairs, fresh, folding,
                                     values[-1] if folding else None, lits, reads)
        else:
            return VALID, (values[0] if values else None)


def close(frames: list, node: DpllDerivation, splits: list) -> DpllDerivation:
    """Wrap ``node`` in the open nodes on top of ``frames``, innermost first,
    up to the innermost Split still in its left branch, and return the last
    node built.  A frame is ``(class, a, b)``, the fields before the
    subderivation (``b`` is ``None`` for a Unit or a Split); a Split whose
    left branch is done is ``(None, lit, left)``.  The Split frame reached
    becomes ``(None, lit, node)``; when no Split is open, the frames are
    emptied and the return value is the whole derivation.  Each Split node
    built, innermost first, is appended to ``splits``.  The
    witness search and ``parse_dpll`` build their trees only through it."""
    pop = frames.pop
    while frames:
        cls, a, b = pop()
        if cls is Split:
            frames.append((None, a, node))
            break
        if cls is Unit:
            node = Unit(a, node)
        elif cls is None:
            node = Split(a, b, node)
            splits.append(node)
        else:
            node = cls(a, b, node)
    return node
