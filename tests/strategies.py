"""Shared hypothesis strategies, seeded random generators, the proof mutation
kits and the seeded corpora behind the recorded digest files."""

import random
from dataclasses import replace
from functools import cache
from pathlib import Path

from hypothesis import strategies as st

from dpllkit.cnf import Assignment, canonical_clause, canonical_formula, canonical_valuation
from dpllkit.dpll_proof import CONFLICT, Conflict, Elim, Red, Split, Unit, check_dpll
from dpllkit.php import PhpSpec, gen_php
from dpllkit.proof_text import parse_dpll
from dpllkit.resolution import Res
from dpllkit.solver import solve, solve_aux

MAX_VAR = 8

variables = st.integers(min_value=1, max_value=MAX_VAR)
literals = st.builds(lambda v, neg: -v if neg else v, variables, st.booleans())
clauses = st.lists(literals, max_size=5).map(canonical_clause)
formulas = st.lists(clauses, max_size=10).map(canonical_formula)
valuations = st.lists(literals, max_size=6).map(canonical_valuation)
consistent_valuations = st.dictionaries(variables, st.booleans(), max_size=6).map(
    lambda d: canonical_valuation(v if b else -v for v, b in d.items()))
assignments = st.builds(Assignment, st.dictionaries(variables, st.booleans()))


def random_formula(rng: random.Random, max_var: int = 8, max_clauses: int = 12,
                   max_clause_len: int = 3):
    """Small random CNF, biased toward short clauses so unsatisfiable
    instances are common."""
    nclauses = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(nclauses):
        length = rng.randint(1, max_clause_len)
        clause = []
        for _ in range(length):
            v = rng.randint(1, max_var)
            clause.append(v if rng.random() < 0.5 else -v)
        clauses.append(clause)
    return canonical_formula(clauses)


def random_3sat(rng: random.Random, n: int, m: int):
    """``m`` clauses over three distinct variables of ``1..n``, random signs."""
    return tuple(tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
                 for _ in range(m))


def horn_chain(n: int, unsat: bool):
    """``1``, ``-i | i+1`` for i < n, and ``-n`` when ``unsat``."""
    return ((1,),) + tuple((-i, i + 1) for i in range(1, n)) + (((-n,),) if unsat else ())


# Single-node mutations of DPLL derivations (acceptance criterion 6).

def dpll_nodes(p, path=()):
    yield path, p
    if isinstance(p, Split):
        yield from dpll_nodes(p.left, path + (0,))
        yield from dpll_nodes(p.right, path + (1,))
    elif not isinstance(p, Conflict):
        yield from dpll_nodes(p.sub, path + (0,))


def unshared(p, clause=None):
    """A copy of the derivation ``p`` with a fresh node for each occurrence
    of each rule application: the unfolded tree, in which no Split occurs
    twice, with ``clause`` applied to each Elim's and Red's clause when
    given.  Built bottom-up with an explicit stack, so any depth is fine."""
    values = []
    stack = [(p, False)]
    while stack:
        node, children_done = stack.pop()
        if isinstance(node, Conflict):
            values.append(node)
        elif not children_done:
            stack.append((node, True))
            stack += ([(node.right, False), (node.left, False)] if isinstance(node, Split)
                      else [(node.sub, False)])
        elif isinstance(node, Split):
            right = values.pop()
            values[-1] = Split(node.lit, values[-1], right)
        elif clause is None or isinstance(node, Unit):
            values[-1] = replace(node, sub=values[-1])
        else:
            values[-1] = replace(node, clause=clause(node.clause), sub=values[-1])
    return values[0]


def split_chain(n):
    """The DPLL text in which Split k's left branch is Split k-1 and its
    right branch cites it as #(k-1): linear in n, for an unfolded tree of
    2^n - 1 Splits."""
    text = "(split 1 conflict conflict)"
    for k in range(2, n + 1):
        text = f"(split {k} {text} #{k - 1})"
    return text


def unclean_chain(n):
    """A formula under which ``split_chain(n)`` is valid: each split
    variable k is in (k, n+k) and (-k, 2n+k), and below Split k the
    valuation leaves one of them unsatisfied with k assigned.  No Split
    reads them, so no sequent holds them."""
    return (((),) + tuple((k, n + k) for k in range(1, n + 1))
            + tuple((-k, 2 * n + k) for k in range(1, n + 1)))


def premise_chain(n):
    """(formula, text): a refutation whose text is linear in n and whose
    shared Splits each read a clause with another premise at each
    occurrence.  Split k reduces (-k, n+k) in its left branch and (k, n+k)
    in its right one, to the unit clause (n+k) from either premise, and
    both branches are Split k-1, the right one citing it as #(k-1).  Split
    1's branches take the units n+1 .. 2n and end in the empty clause.  So
    each Split k-1 reads the clause (n+k) with the premise the sign of k
    chose, under an unfolded tree of 2^n - 1 Splits; the fold of the
    translation needs no right branch, since each conflict concludes ()."""
    return _premise_chain(n, (), "conflict")


def wide_chain(n):
    """(formula, text): ``premise_chain(n)`` with the empty clause replaced
    by the wide clause (-(n+1) .. -2n), which Reds by the units n+1 .. 2n
    reduce to () below them.  Each leaf's translation then resolves on the
    units, and so on the split literals, so the fold needs every right
    branch and meets each Split with other premises at each occurrence: it
    takes time exponential in n."""
    wide = tuple(range(-n - 1, -2 * n - 1, -1))
    bottom = "conflict"
    for k in range(2 * n, n, -1):
        bottom = f"(red [ {' '.join(map(str, wide[k - n - 1:]))} ] {k} {bottom})"
    return _premise_chain(n, wide, bottom)


def cited_late(n):
    """(formula, text): ``premise_chain(n)`` as the left branch of a Split
    whose right branch cites each Split of the chain but the outermost once
    more, innermost first.  Split k of the chain needs the n - k unit
    clauses that the Reds above it make, and its last reader comes after
    the whole chain, so a pass that keeps each Split's sequent until its
    last reader holds about 1.5 n^2 clauses at once, for a text linear in
    n.  No citation's context holds those units: the derivation is
    invalid at the first."""
    d, text = premise_chain(n)
    late = "conflict"
    for k in range(n - 1, 0, -1):
        late = f"(split {3 * n + k} #{k} {late})"
    return d, f"(split {5 * n} {text} {late})"


def _premise_chain(n, empty, bottom):
    # premise_chain(n) with the clause `empty` in place of () and the
    # derivation `bottom` in place of its conflicts
    units = bottom
    for k in range(2 * n, n, -1):
        units = f"(unit {k} {units})"
    text = f"(split 1 (red [ -1 {n + 1} ] 1 {units}) (red [ 1 {n + 1} ] -1 {units}))"
    for k in range(2, n + 1):
        text = f"(split {k} (red [ -{k} {n + k} ] {k} {text}) (red [ {k} {n + k} ] -{k} #{k - 1}))"
    return (empty,) + tuple(c for k in range(1, n + 1) for c in ((-k, n + k), (k, n + k))), text


def dpll_put(p, path, new):
    if not path:
        return new
    if isinstance(p, Split):
        if path[0] == 0:
            return replace(p, left=dpll_put(p.left, path[1:], new))
        return replace(p, right=dpll_put(p.right, path[1:], new))
    return replace(p, sub=dpll_put(p.sub, path[1:], new))


def _bump(lit):
    return lit + 1 if lit != -1 else 1


def clause_mutants(c, rng):
    out = []
    if c:
        i = rng.randrange(len(c))
        out.append(tuple(l for j, l in enumerate(c) if j != i))
        out.append(tuple(-l if j == i else l for j, l in enumerate(c)))
    out.append(c + (9,))
    return out


def mutate_dpll(node, rng):
    if isinstance(node, Conflict):
        return Unit(rng.choice((1, -1, 2)), CONFLICT)
    if isinstance(node, Unit):
        return replace(node, lit=rng.choice((-node.lit, _bump(node.lit))))
    if isinstance(node, Split):
        return rng.choice((replace(node, lit=-node.lit),
                           Split(node.lit, node.right, node.left)))
    # Elim or Red: perturb the literal or the clause payload
    if rng.random() < 0.5:
        return replace(node, lit=rng.choice((-node.lit, _bump(node.lit))))
    return replace(node, clause=rng.choice(clause_mutants(node.clause, rng)))


# Single-node mutations of resolution derivations.

def res_nodes(r, path=()):
    yield path, r
    if isinstance(r, Res):
        yield from res_nodes(r.left, path + (0,))
        yield from res_nodes(r.right, path + (1,))


def res_put(r, path, new):
    if not path:
        return new
    if path[0] == 0:
        return replace(r, left=res_put(r.left, path[1:], new))
    return replace(r, right=res_put(r.right, path[1:], new))


def mutate_res(node, rng):
    if rng.random() < 0.4:
        return replace(node, conclusion=rng.choice(clause_mutants(node.conclusion, rng)))
    if isinstance(node, Res):
        return rng.choice((replace(node, pivot=-node.pivot),
                           replace(node, pivot=_bump(node.pivot)),
                           Res(node.pivot, node.right, node.left, node.conclusion)))
    return replace(node, premise_index=node.premise_index + rng.choice((-1, 1, 7)))


# The characters other than \n and \r at which str.splitlines breaks; the
# line formats read them as whitespace.
OTHER_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


# Single-edit mutations of proof texts.

TEXT_CHARS = "()[]-019 \nxSRc"
DPLL_TOKENS = ("(unit", "(elim", "(red", "(split", "conflict", "(", ")", "[", "]", "0", "7",
               "-3", "(x", "#", "#0", "#1", "#x")
RES_TOKENS = ("S", "R", "0", "1", "12", "-2", "c", "x", "\n")


def mutate_text(text, tokens, rng):
    """Truncate ``text``, delete one character, or insert a character or a
    token, at a random offset."""
    at = rng.randint(0, len(text))
    kind = rng.randrange(4)
    if kind == 0:
        return text[:at]
    if kind == 1:
        return text[:at] + text[at + 1:]
    if kind == 2:
        return text[:at] + rng.choice(TEXT_CHARS) + text[at:]
    return text[:at] + rng.choice(("", " ")) + rng.choice(tokens) + rng.choice(("", " ")) + text[at:]


# Seeded corpora behind tests/data/checker_digests.json and the digest files
# of tests/test_resolution.py and tests/test_proof_text.py.

DATA = Path(__file__).parent / "data"


def elim_texts():
    """(name, formula, text) of the committed refutations of PHP(4,3) and
    PHP(5,4) as the solver wrote them when it still wrote an Elim node for
    each satisfied clause it dropped."""
    return [(f"php-{k + 1}-{k}-elims", gen_php(PhpSpec(k + 1, k)),
             (DATA / f"php_{k + 1}_{k}_elims.dpll").read_text()) for k in (3, 4)]


@cache
def checker_corpus():
    """(name, valuation, formula, derivation) entries, all from fixed seeds:
    refutations of PHP(k+1,k) for k <= 4, of 200 random unsatisfiable CNFs
    and of 100 random CNFs under nonempty valuations, then 400 mutants of the
    PHP proofs and 2000 of the others; then the two Elim-bearing texts of
    ``elim_texts`` and 400 mutants of their Elim nodes, which the solver no
    longer writes and ``mutate_dpll`` never makes from another kind.  The
    random sources share one stream; mutant i draws its source and its
    mutation from its own stream, seeded with i, so a change to one source
    derivation moves only the mutants drawn from it."""
    sources = []
    for k in range(1, 5):
        d = gen_php(PhpSpec(k + 1, k))
        sources.append((f"php-{k + 1}-{k}", (), d, solve(d).proof))
    rng = random.Random(31)
    while len(sources) < 4 + 200:
        d = random_formula(rng, max_var=8, max_clauses=20, max_clause_len=3)
        v = solve(d)
        if not v.satisfiable:
            sources.append((f"unsat-{len(sources) - 4}", (), d, v.proof))
    while len(sources) < 4 + 200 + 100:
        g = tuple(dict.fromkeys(v if rng.random() < 0.5 else -v
                                for v in rng.sample(range(1, 9), rng.randint(1, 4))))
        d = random_formula(rng)
        v = solve_aux(g, d)
        if not v.satisfiable:
            sources.append((f"aux-{len(sources) - 204}", g, d, v.proof))
    corpus = list(sources)
    for i in range(2400):
        rng = random.Random(i)
        name, g, d, p = sources[i % 4] if i < 400 else rng.choice(sources[4:])
        path, node = rng.choice(list(dpll_nodes(p)))
        corpus.append((f"{name}~{i}", g, d, dpll_put(p, path, mutate_dpll(node, rng))))
    elims = [(name, (), d, parse_dpll(text)) for name, d, text in elim_texts()]
    corpus += elims
    for i in range(2400, 2800):
        rng = random.Random(i)
        name, g, d, p = elims[i % 2]
        path, node = rng.choice([(path, node) for path, node in dpll_nodes(p)
                                 if isinstance(node, Elim)])
        corpus.append((f"{name}~{i}", g, d, dpll_put(p, path, mutate_dpll(node, rng))))
    return corpus


@cache
def dag_grafts():
    """(name, valuation, formula, derivation) entries, seeded: solver
    refutations p of small random unsatisfiable CNFs, each with one Split S
    of p shared under a second context.  The derivation is Split(x, p, G)
    on a fresh variable x, where G is p with S's occurrence replaced by a
    node over S that changes S's context in one way:

    - "other-sign": Split(v, S, S), v a split literal at or below S, so S
      meets its split variable assumed with each sign;
    - "gone": Split(l, Elim(c, l, S), R), c a clause of S's context that
      S's subtree reads, l in c, and R the solver's refutation of S's
      context with -l, so c is gone where S is met again;
    - "satisfied": Split(l, S, R), the same, with c satisfied where S is
      met again;
    - "reduct": Red(r + x, -x, S), r a reduct that S's subtree makes and
      its context lacks, and r + x a clause added to the CNF, so that r is
      there with another premise where S is met first; the derivation is
      Split(-x, G, p), whose fold needs both branches;
    - "premise": no graft; each clause c of the CNF is written twice, as
      c + -x and c + x, and each branch of Split(x, ., .) reduces its
      copies to c before p, so every Split of p reads its clauses with
      other premises in the second branch.

    The nodes of p off the path to S are shared with G as well."""
    rng = random.Random(53)
    entries = []
    while len(entries) < 400:
        d0 = canonical_formula(random_3sat(rng, rng.randint(4, 6), rng.randint(16, 30)))
        verdict = solve(d0)
        splits = [] if verdict.satisfiable else [
            path for path, node in dpll_nodes(verdict.proof) if isinstance(node, Split)]
        if not splits:
            continue
        p, path = verdict.proof, rng.choice(splits)
        s = p
        for branch in path:
            s = (s.left, s.right)[branch] if isinstance(s, Split) else s.sub
        x = 1 + max((abs(l) for c in d0 for l in c), default=0)
        kind = ("other-sign", "gone", "satisfied", "reduct", "premise")[len(entries) % 5]
        name, d = f"graft-{kind}-{len(entries)}", d0
        if kind == "premise":
            d = canonical_formula([c + (-x,) for c in d0] + [c + (x,) for c in d0])
            left, right = p, p
            for c in reversed(d0):
                left = Red(canonical_clause(c + (-x,)), x, left)
                right = Red(canonical_clause(c + (x,)), -x, right)
            entries.append((name, (), d, Split(x, left, right)))
            continue
        # S's context, read off the report of a walk that fails at S's
        # position, and the clauses of it that S's subtree reads
        g, context = check_dpll((), d0, dpll_put(p, path, Unit(x, CONFLICT))).context
        read = {(node.lit,) if isinstance(node, Unit) else getattr(node, "clause", ())
                for _, node in dpll_nodes(s) if not isinstance(node, Split)}
        if kind == "other-sign":
            v = rng.choice([node.lit for _, node in dpll_nodes(s) if isinstance(node, Split)])
            graft = Split(v, s, s)
        elif kind == "reduct":
            made = sorted({canonical_clause(set(node.clause) - {-node.lit})
                           for _, node in dpll_nodes(s) if isinstance(node, Red)} - set(context))
            if not made:
                continue
            r = canonical_clause(rng.choice(made) + (x,))
            d = canonical_formula(d0 + (r,))
            # G first: its translation cites r + x, so the fold needs p too
            entries.append((name, (), d, Split(-x, dpll_put(p, path, Red(r, -x, s)), p)))
            continue
        else:
            # a literal l of such a clause c on no variable of the valuation,
            # best one whose complement S's subtree does not assume, so that
            # S does not fail for that reason alone
            assumed = {lit for _, node in dpll_nodes(s) if isinstance(node, (Unit, Split))
                       for lit in ((node.lit, -node.lit) if isinstance(node, Split) else (node.lit,))}
            choices = [(c, l) for c in sorted(set(context) & read) for l in c
                       if l not in g and -l not in g]
            if not choices:
                continue
            c, l = rng.choice([(c, l) for c, l in choices if -l not in assumed] or choices)
            other = solve_aux(g + (-l,), context).proof
            graft = Split(l, Elim(c, l, s) if kind == "gone" else s, other)
        entries.append((name, (), d, Split(x, p, dpll_put(p, path, graft))))
    return entries

