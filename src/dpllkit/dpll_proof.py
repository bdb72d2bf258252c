"""DPLL derivation trees and their independent checker.

Derivation payloads are slim: nodes carry only the literal/clause deltas,
never the running valuation or formula.  A derivation proves a sequent: the
clauses it needs in the formula, the literals it needs in the valuation and
the literals the valuation must miss.  One postorder pass over the distinct
Splits computes the sequents, and a derivation is valid in a context exactly
where its sequent fits.  One iterative walk, ``walk``, finds the first
violation of an invalid derivation, and folds a valid one for the resolution
translator.  Nothing here imports the search code.
"""

from __future__ import annotations

import gc
from dataclasses import FrozenInstanceError, dataclass, fields
from functools import wraps
from math import inf
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
    the set entries the sequents hold at once, as ``walk`` says.
    """
    return walk(g0, d0, proof, limit=limit)[0]


class WalkLimitExceeded(ValueError):
    """Raised by ``walk`` past its ``limit``: when the sequents it holds at
    once hold more set entries, or folding the derivation takes more
    steps."""


def _chain(node: DpllDerivation) -> tuple[list, DpllDerivation]:
    """The nodes from ``node`` down to the first Split or Conflict, and that
    Split or Conflict."""
    nodes = []
    while (kind := type(node)) is not Split and kind is not Conflict:
        if kind is not Unit and kind is not Red and kind is not Elim:
            raise TypeError(f"not a DPLL derivation node: {node!r}")
        nodes.append(node)
        node = node.sub
    return nodes, node


class _Sequents:
    """The sequents of the Splits at and below a Split or Conflict ``end``,
    by ``id``, each built when ``seal`` is called on it: the sequent pass
    (``_sequents``) calls it on every Split in ``order``, and the walk of an
    invalid derivation on each Split it leaves.

    A sequent is (C, P, F, R): the clauses a derivation needs in its formula,
    the literals it needs in its valuation, the literals its valuation must
    miss, and the reducts its Reds make, which the fold's memo reads (left
    empty unless ``reducts``).  ``None`` stands for a sequent that no
    context satisfies.  Each rule transfers its child's:

    - Conflict: C = {()};
    - Unit(l): C + (l,), P - l, F + -l; none if (l,) is in C or l in F;
    - Red(c, l) with reduct r: C - r + c, P + l, R + r; none if c is in C
      or -l is not in c;
    - Elim(c, l): C + c, P + l; none if c is in C or l is not in c;
    - Split(l): the union of its branches', less l from the left P and -l
      from the right P, plus l and -l in F; none if l is in the left F or
      -l in the right F.

    A rule removes only a clause it reads, so a bigger formula never breaks
    a derivation: a derivation is valid under a consistent valuation exactly
    where its formula holds C, and its valuation holds P and misses F.

    The constructor lists the distinct Splits in postorder, each with the
    nodes of its branches down to the next Split or Conflict (their chains),
    and counts the chains that end at each Split.  ``seal`` builds a Split's
    sequent in place from its chains' ends: the last chain to read a
    Split's sets takes them, and the others copy them.  A shared Split's
    memo key clauses, its C and R, go to ``keys`` with ``reducts``.

    A valuation met at a Split holds only literals of ``g`` and those that
    the Splits and Units around it assume, all later in the postorder, so a
    shared Split's F keeps only those: a chain of shared Splits keeps none
    of its split literals.  ``seal`` raises ``WalkLimitExceeded`` when the
    sequents sealed and not yet taken hold more than ``limit`` set
    entries."""

    def __init__(self, end: DpllDerivation, g, reducts: bool = False, limit=inf):
        self.g, self.reducts, self.limit, self.held = g, reducts, limit, 0
        self.order, self.readers, self.index, self.last, stack = [], {}, {}, {}, [end]
        while stack:
            node = stack.pop()
            if type(node) is tuple:
                split, left, right = node
                i = self.index[id(split)] = len(self.order)
                self.last[split.lit] = self.last[-split.lit] = i
                self.last.update((n.lit, i) for n in left[0] + right[0] if type(n) is Unit)
                self.order.append(node)
            elif type(node) is Split:
                self.readers[id(node)] = self.readers.get(id(node), 0) + 1
                if self.readers[id(node)] == 1:
                    left, right = _chain(node.left), _chain(node.right)
                    stack += ((node, left, right), right[1], left[1])
        self.unread, self.sequents, self.keys = dict(self.readers), {}, {}

    def read(self, chain: tuple[list, DpllDerivation]) -> Optional[tuple]:
        """The sequent of the chain's first node, from the sets of its
        end's sequent by each rule's transfer in place."""
        nodes, end = chain
        if type(end) is Conflict:
            below = {()}, set(), set(), set()
        else:
            self.unread[id(end)] -= 1
            if self.unread[id(end)]:
                below = self.sequents[id(end)] and tuple(map(set.copy, self.sequents[id(end)]))
            else:
                below = self.sequents.pop(id(end))
                if below is not None:
                    self.held -= sum(map(len, below))
        if below is None:
            return None
        c, p, f, r = below
        for node in reversed(nodes):
            lit = node.lit
            if type(node) is Unit:
                if (lit,) in c or lit in f:
                    return None
                c.add((lit,))
                p.discard(lit)
                f.add(-lit)
                continue
            clause = node.clause
            if clause in c or (-lit if type(node) is Red else lit) not in clause:
                return None
            if type(node) is Red:
                k = clause.index(-lit)
                reduct = clause[:k] + clause[k + 1:]
                c.discard(reduct)
                if self.reducts:
                    r.add(reduct)
            c.add(clause)
            p.add(lit)
        return below

    def seal(self, node: Split, left: tuple, right: tuple) -> None:
        """Build the sequent of ``node`` from those of its chains, and keep
        it until the last of them is read."""
        lit, left, right = node.lit, self.read(left), self.read(right)
        if left is None or right is None or lit in left[2] or -lit in right[2]:
            self.sequents[id(node)] = None
            return
        left[1].discard(lit)
        right[1].discard(-lit)
        # each set of the two sequents joins the larger one
        self.sequents[id(node)] = joined = tuple(a.__ior__(b) if len(a) >= len(b) else b.__ior__(a)
                                                 for a, b in zip(left, right))
        joined[2].update((lit, -lit))
        if self.readers[id(node)] > 1:
            # a shared Split's sets are copied and may be held: keep in F
            # what a valuation here can hold, a literal of g or one that a
            # Split or Unit later in the postorder (the last to assume it)
            # assumes
            f, g, last, i = joined[2], self.g, self.last, self.index[id(node)]
            f.difference_update([x for x in f if x not in g and last.get(x, -1) <= i])
            if self.reducts:
                self.keys[id(node)] = (*joined[0], *joined[3])
        self.held += sum(map(len, joined))
        if self.held > self.limit:
            raise WalkLimitExceeded(f"the sequents of the derivation hold more than {self.limit} entries")


def _sequents(proof: DpllDerivation, g, reducts: bool = False,
              limit=inf) -> tuple[_Sequents, Optional[tuple]]:
    """The sequent pass: seal every Split of ``proof`` under the valuation
    ``g``, and return the sequents and the sequent of ``proof``."""
    top = _chain(proof)
    sequents = _Sequents(top[1], {*g, *(n.lit for n in top[0] if type(n) is Unit)}, reducts, limit)
    for split in sequents.order:
        sequents.seal(*split)
    return sequents, sequents.read(top)


# The walk keeps one frame (kind, node, a, b) per node it is inside.  _UNIT:
# a is whether the literal was newly assumed, b the unit clause's premise.
# _RED (a Red or an Elim): a is the clause's premise, b the reduct if a Red
# added it, else None.  A Split is _LEFT while in its left branch, then
# _RIGHT: a is whether its literal, then its complement, was new, and b its
# key in the fold's memo, or None.
_UNIT, _RED, _LEFT, _RIGHT = range(4)


def walk(g0: Valuation, d0: Formula, proof: DpllDerivation,
         fold=None, limit: Optional[int] = None) -> tuple[CheckReport, Any]:
    """Check ``proof`` against ``g0 |- d0`` and return ``(report, value)``.

    The sequent pass (``_sequents``) first gives the sequent of ``proof``.
    Where it fits ``g0 |- d0``, the derivation is valid: the report is
    ``VALID``, and the walk runs only to fold it.  Otherwise the walk runs
    to the first violation.

    The walk goes depth-first, left branch first, with one context: the
    valuation as an insertion-ordered dict of literals, and the formula as a
    dict from each clause to its premise, the 1-based index in ``d0`` of the
    clause it was reduced from.  Each node tests its side conditions and
    applies its delta on the way down, and undoes it on the way up.  The
    first violation ends the walk with a failing report: the violating
    node's child-index path and its (valuation, formula), the formula
    listing the clauses of ``d0`` still in it, in ``d0``'s order, then the
    reducts in the order the Reds on the path last made them.

    To find the violation, the walk enters a Split where it first meets it
    and seals its sequent (``_Sequents.seal``) as it leaves it.  A Split met
    again is a leaf where its sequent fits; where it does not, it holds the
    violation, and the walk enters it again, never to leave it.  A sequent
    does not depend on where it is met, so the report is the one a walk of
    the unfolded tree gives.  Inside a Split entered again, a Split whose
    sequent its last reader took is entered and sealed again, and then kept:
    the walk enters a Split at most three times, and steps into a node at
    most three times as often as the text writes it.

    Without a fold, ``limit`` bounds the set entries the sequents hold at
    once: the pass and the walk raise ``WalkLimitExceeded`` past it.  The
    sequents of shared Splits whose readers are far apart can hold entries
    quadratic in the text's length, which is why the command line checks a
    text with its length as the limit.

    With a ``fold``, the walk folds a valid derivation bottom-up into
    ``value`` (otherwise ``None``): ``fold.conflict(premise)`` at a leaf,
    with the premise of the empty clause; ``fold.unit(node, v, premise)``
    from the child's value and the premise of the unit clause; and for a
    Split, ``fold.needs_right(node, left)`` after the left branch, then
    ``fold.split(node, left, right)`` if it said so; else the Split's value
    is ``left``, and its right branch is not walked.  An Elim's and a Red's
    value is its child's.  A shared Split's value depends only on the
    premises of the clauses of its C and R, so it is memoised by its ``id``
    and those premises: met again with the same ones, it is a leaf that
    takes the same value object, so the value shares it as the derivation
    does.  A shared Split met with many premises is folded at each, which
    can take time exponential in the derivation's size; with a fold,
    ``limit`` bounds its steps (each node stepped into or taken as a leaf)
    instead, past which it raises ``WalkLimitExceeded``.
    """
    d0 = canonical_formula(d0)
    g = dict.fromkeys(canonical_valuation(g0))
    d = {c: premise for premise, c in enumerate(d0, 1)}
    frames, values, memo, steps, top, node = [], [], {}, 0, 0, proof

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

    def fits(sequent: Optional[tuple]) -> bool:
        return (sequent is not None and d.keys() >= sequent[0] and g.keys() >= sequent[1]
                and g.keys().isdisjoint(sequent[2]))

    if any(-l in g for l in g):
        return fail("inconsistent-context")
    # a check bounds the entries its sequents hold, a fold its steps
    limit = inf if limit is None else limit
    entries = limit if fold is None else inf
    sequents, root = _sequents(proof, g, fold is not None, entries)
    if not fits(root):
        # the walk seals the sequents itself, and folds nothing
        fold, sequents = None, _Sequents(_chain(proof)[1], g, limit=entries)
    elif fold is None:
        return VALID, None
    # the memo keys of the shared Splits, none when checking; the pass has
    # read every sequent it sealed, so a Split met again finds one only
    # where the walk sealed it
    keys = sequents.keys
    while True:
        # Down: test the node in its context, apply its delta and step into
        # its (left) child, until a Conflict or a Split taken as a leaf.
        while True:
            if isinstance(node, Unit):
                lit = node.lit
                premise = d.pop((lit,), None)
                if premise is None:
                    return fail("unit-clause-missing")
                new = lit not in g
                g[lit] = None
                frames.append((_UNIT, node, new, premise))
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
                if reduct in d:
                    reduct = None
                else:
                    d[reduct] = premise
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
                frames.append((_RED, node, premise, None))
                node = node.sub
            elif isinstance(node, Split):
                key = None
                if id(node) in sequents.sequents:
                    # met before, so walked and sealed
                    if fits(sequents.sequents[id(node)]):
                        break
                elif id(node) in keys:
                    key = (id(node), *map(d.get, keys[id(node)]))
                    if key in memo:
                        values.append(memo[key])
                        break
                lit = node.lit
                new = lit not in g
                g[lit] = None
                frames.append((_LEFT, node, new, key))
                if new and -lit in g:
                    return fail("inconsistent-context")
                node = node.left
            else:
                premise = d.get(())
                if premise is None:
                    return fail("conflict-empty-clause-missing")
                if fold is not None:
                    values.append(fold.conflict(premise))
                break
        steps += len(frames) - top + 1
        if steps > limit and fold is not None:
            raise WalkLimitExceeded(f"translating the derivation takes more than {limit} steps")

        # Up: undo the deltas of finished nodes and fold their values, until
        # a Split's left branch is done and its right one is needed; then
        # step into the right branch.  The valuation's literals leave in the
        # reverse order they joined.
        while frames:
            kind, node, a, b = frames.pop()
            if kind == _RED:
                d.pop(b, None)
                d[node.clause] = a
                continue
            if a:
                g.popitem()
            if kind == _UNIT:
                d[(node.lit,)] = b
                if fold is not None:
                    values[-1] = fold.unit(node, values[-1], b)
                continue
            if kind == _LEFT and (fold is None or fold.needs_right(node, values[-1])):
                lit = node.lit
                new = -lit not in g
                g[-lit] = None
                frames.append((_RIGHT, node, new, b))
                if new and lit in g:
                    return fail("inconsistent-context")
                node = node.right
                top = len(frames)
                break
            if fold is None:
                sequents.seal(node, _chain(node.left), _chain(node.right))
            elif kind == _RIGHT:
                values[-2:] = [fold.split(node, *values[-2:])]
            if b is not None:
                memo[b] = values[-1]
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
