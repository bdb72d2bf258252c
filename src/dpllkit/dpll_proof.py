"""DPLL derivation trees and their independent checker.

Derivation payloads are slim: nodes carry only the literal/clause deltas,
never the running valuation or formula.  One iterative walk, ``walk``,
reconstructs the (valuation, formula) context top-down and validates the
side condition of every rule application; ``check_dpll`` is that walk, and
the resolution translator folds its result over the same walk.  The walk
keeps a single mutable context and undoes each node's delta when it leaves
the node, so a node costs O(1) plus the reduct a Red builds, and a
derivation of any depth is checked without recursion.  It is deliberately
independent of the solver: nothing here imports the search code.
"""

from __future__ import annotations

import gc
from dataclasses import FrozenInstanceError, dataclass, fields
from functools import wraps
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
    steps is spelled once, and leaves are always spelled."""

    __slots__ = ()

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


def slot_init(cls):
    """Give a slotted frozen dataclass an ``__init__`` that writes each field
    through its slot's member descriptor, and return the class.

    The generated frozen ``__init__`` sets each field with
    ``object.__setattr__``, which looks the name up on the type at every
    call; one node is built per rule application, so that lookup is a large
    share of building a derivation.  The descriptor's ``__set__`` is what
    the lookup finds, bound here once per field.  The parameters are the
    field names in order, so positional and keyword construction and
    ``dataclasses.replace`` work as before.

    Setting or deleting any name on a built node raises
    ``FrozenInstanceError``.  The frozen dataclass's own ``__setattr__`` and
    ``__delattr__`` do so only for fields: for any other name they call
    ``super()`` with the class from before ``slots=True`` rebuilt it, which
    raises ``TypeError``."""
    names = [f.name for f in fields(cls)]
    namespace = {f"_set_{name}": cls.__dict__[name].__set__ for name in names}
    body = "".join(f"\n    _set_{name}(self, {name})" for name in names) or "\n    pass"
    exec(f"def __init__({', '.join(['self', *names])}):{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


def _frozen(self, name, *value):
    raise FrozenInstanceError(f"cannot set or delete {name!r}: proof nodes are frozen")


@slot_init
@dataclass(frozen=True, slots=True, eq=False, init=False, repr=False)
class Conflict(ProofNode):
    pass


@slot_init
@dataclass(frozen=True, slots=True, eq=False, init=False, repr=False)
class Unit(ProofNode):
    lit: Lit
    sub: "DpllDerivation"


@slot_init
@dataclass(frozen=True, slots=True, eq=False, init=False, repr=False)
class Elim(ProofNode):
    clause: Clause
    lit: Lit
    sub: "DpllDerivation"


@slot_init
@dataclass(frozen=True, slots=True, eq=False, init=False, repr=False)
class Red(ProofNode):
    clause: Clause
    lit: Lit  # the valuation literal; its complement is removed from `clause`
    sub: "DpllDerivation"


@slot_init
@dataclass(frozen=True, slots=True, eq=False, init=False, repr=False)
class Split(ProofNode):
    lit: Lit  # left child assumes `lit`, right child its complement
    left: "DpllDerivation"
    right: "DpllDerivation"


DpllDerivation = Union[Conflict, Unit, Elim, Red, Split]

CONFLICT = Conflict()


def dpll_size(d: DpllDerivation) -> int:
    """Number of rule applications above the Conflict axioms."""
    total = 0
    stack = [d]
    while stack:
        node = stack.pop()
        if isinstance(node, Conflict):
            continue
        total += 1
        if isinstance(node, Split):
            stack.append(node.left)
            stack.append(node.right)
        else:
            stack.append(node.sub)
    return total


@dataclass(frozen=True)
class CheckReport:
    valid: bool
    path: tuple[int, ...] = ()
    reason: Optional[str] = None
    context: Optional[tuple] = None  # (valuation, formula) at the failing node

    def __bool__(self) -> bool:
        return self.valid


VALID = CheckReport(True)


def check_dpll(g0: Valuation, d0: Formula, proof: DpllDerivation) -> CheckReport:
    """Validate ``proof`` as a derivation of the sequent ``g0 |- d0``.

    Contexts are rebuilt per rule: Unit extends the valuation and drops the
    unit clause, Elim drops the subsumed clause, Red replaces the clause by
    its reduct, Split branches on a literal and its complement.  Failures name
    the leftmost violating node by its child-index path.
    """
    return walk(g0, d0, proof)[0]


# The walk keeps one frame (kind, node, a, b) per node it is inside.  _UNIT:
# a is the unit clause's formula entry, b whether the literal was newly
# assumed.  _ELIM: a is the clause's entry.  _RED: a is the clause's entry, b
# the reduct if the node added it, else None.  A Split is _LEFT while in its
# left branch (a: whether the literal was new), then _RIGHT (a: whether its
# complement was new; b: whether the nodes around the Split are being
# folded).
_UNIT, _ELIM, _RED, _LEFT, _RIGHT = range(5)


def walk(g0: Valuation, d0: Formula, proof: DpllDerivation,
         fold=None) -> tuple[CheckReport, Any]:
    """Check ``proof`` against ``g0 |- d0`` in one depth-first walk, left
    branch first, and return ``(report, value)``.

    The valuation is an insertion-ordered dict of literals.  The formula is
    a dict from each clause to its entry ``(rank, premise)``: its insertion
    rank (a reduct joins at the back) and the 1-based index in ``d0`` of the
    premise it was reduced from, a clause of ``d0`` being its own premise.
    Each node tests its side conditions, applies its delta on the way down
    and undoes it on the way up, restoring the entries it replaced, so a
    reduct re-created inside a subtree names its own premise there and the
    outer one again after it.  Consistency is tested once at the root and
    then only for each newly assumed literal.  The first violation ends the
    walk with a failing report whose context is the violating node's
    (valuation, formula).

    With a ``fold``, the walk also folds the derivation bottom-up into
    ``value`` (otherwise ``None``): ``fold.conflict(premise)`` at a leaf,
    with the premise of the empty clause; ``fold.unit(node, v, premise)``
    from the child's value and the premise of the unit clause; and for a
    Split, ``fold.needs_right(node, left)`` after the left branch, then
    ``fold.split(node, left, right)`` when it said so.  Otherwise the Split's
    value is ``left``, and its right branch is checked but not folded.  An
    Elim's and a Red's value is its child's.
    """
    g = dict.fromkeys(canonical_valuation(g0))
    d = {c: (rank, rank + 1) for rank, c in enumerate(canonical_formula(d0))}
    next_rank = len(d)
    frames: list[tuple] = []
    values: list = []
    folding = fold is not None

    def fail(reason: str) -> tuple[CheckReport, None]:
        # the child index of each node the walk is inside: 1 in a Split's
        # right branch, else 0
        path = tuple(1 if frame[0] == _RIGHT else 0 for frame in frames)
        context = (tuple(g), tuple(sorted(d, key=d.__getitem__)))
        return CheckReport(False, path, reason, context), None

    if any(-l in g for l in g):
        return fail("inconsistent-context")
    node = proof
    while True:
        # Down: test the node in its context, apply its delta and step into
        # its (left) child, until a Conflict.
        while True:
            if isinstance(node, Unit):
                lit = node.lit
                entry = d.pop((lit,), None)
                if entry is None:
                    return fail("unit-clause-missing")
                new = lit not in g
                if new:
                    g[lit] = None
                frames.append((_UNIT, node, entry, new))
                if new and -lit in g:
                    return fail("inconsistent-context")
                node = node.sub
            elif isinstance(node, Red):
                lit, clause = node.lit, node.clause
                if lit not in g:
                    return fail("red-literal-not-in-valuation")
                if -lit not in clause:
                    return fail("red-complement-not-in-clause")
                entry = d.pop(clause, None)
                if entry is None:
                    return fail("red-clause-missing")
                # the clause was just in d, so -lit occurs in it once
                k = clause.index(-lit)
                reduct = clause[:k] + clause[k + 1:]
                if reduct in d:
                    reduct = None
                else:
                    d[reduct] = (next_rank, entry[1])
                    next_rank += 1
                frames.append((_RED, node, entry, reduct))
                node = node.sub
            elif isinstance(node, Elim):
                if node.lit not in g:
                    return fail("elim-literal-not-in-valuation")
                if node.lit not in node.clause:
                    return fail("elim-literal-not-in-clause")
                entry = d.pop(node.clause, None)
                if entry is None:
                    return fail("elim-clause-missing")
                frames.append((_ELIM, node, entry, None))
                node = node.sub
            elif isinstance(node, Split):
                lit = node.lit
                new = lit not in g
                if new:
                    g[lit] = None
                frames.append((_LEFT, node, new, None))
                if new and -lit in g:
                    return fail("inconsistent-context")
                node = node.left
            elif isinstance(node, Conflict):
                entry = d.get(())
                if entry is None:
                    return fail("conflict-empty-clause-missing")
                if folding:
                    values.append(fold.conflict(entry[1]))
                break
            else:
                raise TypeError(f"not a DPLL derivation node: {node!r}")

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
                    values[-1] = fold.unit(node, values[-1], a[1])
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
                break
            else:
                if a:
                    g.popitem()
                if folding:
                    right = values.pop()
                    values[-1] = fold.split(node, values[-1], right)
                folding = b
        else:
            return VALID, (values[0] if values else None)


def close(frames: list, node: DpllDerivation) -> DpllDerivation:
    """Wrap ``node`` in the open nodes on top of ``frames``, innermost first,
    up to the innermost Split still in its left branch, and return the last
    node built.  A frame is ``(class, a, b)``, the fields before the
    subderivation (``b`` is ``None`` for a Unit or a Split); a Split whose
    left branch is done is ``(None, lit, left)``.  The Split frame reached
    becomes ``(None, lit, node)``; when no Split is open, the frames are
    emptied and the return value is the whole derivation.  The witness
    search and ``parse_dpll`` build their trees only through it."""
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
        else:
            node = cls(a, b, node)
    return node
