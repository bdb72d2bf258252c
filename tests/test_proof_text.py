import gc
import hashlib
import json
import random
import sys
from collections import Counter
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpllkit import proof_text
from dpllkit.cnf import canonical_clause
from dpllkit.dpll_proof import CONFLICT, Elim, Red, Split, Unit, check_dpll
from dpllkit.php import PhpSpec, gen_php
from dpllkit.proof_text import (
    _DPLL_TOKEN,
    ProofParseError,
    _read_tokens,
    parse_dpll,
    parse_res,
    serialize_dpll,
    serialize_res,
)
from dpllkit.resolution import InvalidDerivation, Res, Sub, dpll_to_res
from dpllkit.solver import solve, solve_aux

from strategies import (DPLL_TOKENS, OTHER_BREAKS, RES_TOKENS, checker_corpus, clauses, literals,
                        mutate_text, unshared)

PHP21_PROOF = Unit(1, Unit(2, Red((-1, -2), 1, Red((-2,), 2, CONFLICT))))
PHP21_TEXT = "(unit 1 (unit 2 (red [ -1 -2 ] 1 (red [ -2 ] 2 conflict))))"

dpll_trees = st.recursive(
    st.just(CONFLICT),
    lambda node: st.one_of(
        st.builds(Unit, literals, node),
        st.builds(Elim, clauses, literals, node),
        st.builds(Red, clauses, literals, node),
        st.builds(Split, literals, node, node),
    ),
    max_leaves=20,
)

res_trees = st.recursive(
    st.builds(Sub, st.integers(min_value=1, max_value=9), clauses),
    lambda node: st.builds(Res, literals, node, node, clauses),
    max_leaves=20,
)


def test_serialize_conflict():
    assert serialize_dpll(CONFLICT) == "conflict"


def test_serialize_php_2_1_golden():
    assert serialize_dpll(PHP21_PROOF) == PHP21_TEXT


def test_parse_php_2_1_golden():
    assert parse_dpll(PHP21_TEXT) == PHP21_PROOF


@pytest.mark.parametrize("clause", ["[ -2 -1 ]", "[ -1 -2 -1 ]"])
def test_a_clause_is_read_as_a_set_in_canonical_order(clause):
    # the checker finds a clause by its canonical tuple, and check res
    # compares clauses as sets: the fast pass, which reads this spacing, and
    # the token walk read a clause's literals in canonical order, without
    # repeats
    text = PHP21_TEXT.replace("[ -1 -2 ]", clause)
    assert parse_dpll(text) == _read_tokens(text) == PHP21_PROOF
    assert check_dpll((), PHP21, parse_dpll(text)).valid


def test_parse_dpll_errors():
    with pytest.raises(ProofParseError):
        parse_dpll("(unit 1 conflict")
    with pytest.raises(ProofParseError):
        parse_dpll("(unit 0 conflict)")
    with pytest.raises(ProofParseError):
        parse_dpll("conflict conflict")
    with pytest.raises(ProofParseError):
        parse_dpll("(red [ 1 2 conflict)")
    with pytest.raises(ProofParseError):
        parse_dpll("")


def test_parse_dpll_rejects_lone_paren():
    with pytest.raises(ProofParseError) as err:
        parse_dpll("(unit 1 ( conflict)")
    assert err.value.position == 8
    assert str(err.value) == "offset 8: unexpected token '('"


@given(dpll_trees)
@settings(max_examples=300)
def test_dpll_round_trip(p):
    assert parse_dpll(serialize_dpll(p)) == p


@pytest.mark.parametrize("text, proof", [
    ("(unit-1 conflict)", Unit(-1, CONFLICT)),
    ("(unit+1(split 2 conflict conflict))", Unit(1, Split(2, CONFLICT, CONFLICT))),
    ("(red[1 -2]1_0 conflict)", Red((1, -2), 10, CONFLICT)),
    ("(elim [ ]\u0663 conflict)", Elim((), 3, CONFLICT)),
    ("\x1c conflict\u2028", CONFLICT),
    ("(unit 1 (red[ 1 ] 2 (unit 1 conflict)))", Unit(1, Red((1,), 2, Unit(1, CONFLICT)))),
    ("(red [ 1 ] 2\t(unit\t3 conflict))", Red((1,), 2, Unit(3, CONFLICT))),
    ("(elim [] 2 (unit 1 conflict))", Elim((), 2, Unit(1, CONFLICT))),
    ("(red  [ 1 ] 2 (unit 1 conflict))", Red((1,), 2, Unit(1, CONFLICT))),
])
def test_parse_dpll_reads_tokens_however_spelled(text, proof):
    assert parse_dpll(text) == proof


@pytest.mark.parametrize("text, at, message", [
    ("(unit1 conflict)", 0, "unexpected token '(unit1'"),
    ("(unit 1 conflictx)", 8, "unexpected token 'conflictx'"),
    ("(split 1 conflictconflict)", 9, "unexpected token 'conflictconflict'"),
    ("(unit 1-2 conflict)", 6, "expected a literal, got '1-2'"),
    ("(red [ 1 ]2_ conflict)", 10, "expected a literal, got '2_'"),
    ("(split 1 conflict) conflict)", 17, "unexpected token ')'"),
    ("(unit -0 conflict)", 6, "literal must be nonzero"),
    ("", 0, "unexpected end of input, expected a derivation node"),
    ("(split 1 conflict", 17, "unexpected end of input, expected a derivation node"),
    ("(unit 1 conflict", 16, "unexpected end of input, expected ')'"),
    ("(unit", 5, "unexpected end of input, expected a literal"),
    ("(red [ 1", 8, "unexpected end of input, expected a literal or ']'"),
    ("(red", 4, "unexpected end of input, expected '['"),
    ("(elim 1 conflict)", 6, "expected '[', got '1'"),
    ("(unit 1 conflict x", 17, "expected ')', got 'x'"),
    ("(unit 1 conflict))", 17, "trailing input after derivation"),
    ("conflict conflict", 9, "trailing input after derivation"),
    # a piece a space apart from the serializer's spacing, or with one
    # token wrong, is read with the full grammar
    ("(elim] 2 (unit 1 conflict))", 5, "expected '[', got ']'"),
    ("(red [ 1 ]2 ] 3 (unit 1 conflict))", 12, "unexpected token ']'"),
    ("( unit 1 (unit 1 conflict))", 0, "unexpected token '('"),
    ("(unit 1x (unit 1 conflict))", 6, "expected a literal, got '1x'"),
    ("(red [ 1 0 ] 2 (unit 1 conflict))", 9, "literal must be nonzero"),
    ("(red [ 1 ] 0 (unit 1 conflict))", 11, "literal must be nonzero"),
    # the same piece closes a node once and fails the next time
    ("(unit 2 conflict) (unit 2 conflict)", 18, "trailing input after derivation"),
    ("(split 1 (unit 2 conflict) (unit 2 conflict)))", 45, "trailing input after derivation"),
    ("(split 1 (unit 2 conflict) (unit 2 conflict (unit 3 conflict)))", 44,
     "expected ')', got '(unit'"),
])
def test_parse_dpll_rejects_what_the_token_walk_rejects(text, at, message):
    with pytest.raises(ProofParseError) as err:
        parse_dpll(text)
    assert (err.value.position, str(err.value)) == (at, f"offset {at}: {message}")


def test_split_met_again_is_written_as_its_number():
    # "#n" cites the n-th Split finished so far, in the order the ')' of
    # each is written
    inner, other = Split(2, CONFLICT, CONFLICT), Split(3, CONFLICT, CONFLICT)
    p = Split(1, Split(4, inner, other), Unit(5, Split(6, other, inner)))
    text = "(split 1 (split 4 (split 2 conflict conflict) (split 3 conflict conflict)) " \
           "(unit 5 (split 6 #2 #1)))"
    assert serialize_dpll(p) == text
    parsed = parse_dpll(text)
    assert parsed == p
    assert parsed.left.left is parsed.right.sub.right
    assert parsed.left.right is parsed.right.sub.left
    for spaced in (text.replace(" ", "\t"), text.replace("#", " #")):
        assert _read_tokens(spaced) == p


@pytest.mark.parametrize("text, at, message", [
    ("(split 1 (split 2 conflict conflict) #0)", 37, "'#0' cites no finished Split"),
    ("(split 1 (split 2 conflict conflict) #x)", 37,
     "expected a Split number after '#', got '#x'"),
    ("(split 1 (split 2 conflict conflict) # 1)", 37,
     "expected a Split number after '#', got '#'"),
    ("(split 1 (split 2 conflict conflict) #2)", 37, "'#2' cites no finished Split"),
    # #2 would be the Split of literal 2 or of literal 1, neither finished
    ("(split 1 (split 3 conflict conflict) (split 2 conflict #2))", 55,
     "'#2' cites no finished Split"),
    ("#1", 0, "'#1' cites no finished Split"),
])
def test_split_numbers_past_the_splits_finished_are_rejected(monkeypatch, text, at, message):
    walked = []

    def walk(text):
        walked.append(text)
        return _read_tokens(text)

    monkeypatch.setattr(proof_text, "_read_tokens", walk)
    with pytest.raises(ProofParseError) as err:
        parse_dpll(text)
    assert (err.value.position, str(err.value)) == (at, f"offset {at}: {message}")
    # the fast pass hands the text to the token walk, which raises
    assert walked == [text]


SPACES = " \t\n\r\x0b\x0c\x1c\u2028"


def respace(text, rng):
    """``text`` with a run drawn from SPACES before its first token, after
    its last and at each boundary between two; a drawn run may be empty
    where the two tokens stay apart without it."""
    tokens = _DPLL_TOKEN.findall(text)
    parts = []
    for a, b in zip([""] + tokens, tokens + [""]):
        run = "".join(rng.choice(SPACES) for _ in range(rng.randrange(3)))
        if not run and a and b and _DPLL_TOKEN.findall(a + b) != [a, b]:
            run = rng.choice(SPACES)
        parts += (run, b)
    return "".join(parts)


@given(st.one_of(dpll_trees, st.sampled_from([p for _, _, _, p in checker_corpus()[:4]])),
       st.randoms())
@settings(max_examples=200, deadline=None)
def test_parse_dpll_reads_any_legal_spacing(p, rng):
    text = serialize_dpll(p)
    respaced = respace(text, rng)
    assert _DPLL_TOKEN.findall(respaced) == _DPLL_TOKEN.findall(text)
    assert serialize_dpll(parse_dpll(respaced)) == text


@cache
def corpus_and_php_proofs():
    """The derivations of checker_corpus() and the refutations of PHP(k+1,k)
    for k <= 5."""
    proofs = [p for _, _, _, p in checker_corpus()]
    return proofs + [solve(gen_php(PhpSpec(k + 1, k))).proof for k in range(1, 6)]


def test_dpll_round_trip_of_checker_corpus_and_php_proofs():
    # the parse reads each clause in canonical order: 58 mutants of the
    # corpus hold a clause out of it (42 of them mutate an Elim of the
    # texts with Elims), and read back with it in order
    reordered = 0
    for p in corpus_and_php_proofs():
        q = unshared(p, canonical_clause)
        assert parse_dpll(serialize_dpll(p)) == q
        reordered += q != p
    assert reordered == 58


def test_serializer_text_never_reaches_the_token_walk(monkeypatch):
    def walk(text):
        raise AssertionError("the token walk was reached")

    monkeypatch.setattr(proof_text, "_read_tokens", walk)
    with pytest.raises(AssertionError):
        parse_dpll(PHP21_TEXT.replace(" ", "\t"))
    for p in (CONFLICT, *corpus_and_php_proofs()):
        text, q = serialize_dpll(p), unshared(p, canonical_clause)
        for end in ("", "\n", "\r\n"):
            assert parse_dpll(text + end) == q


PHP21 = gen_php(PhpSpec(2, 1))

# every tree builder, each on input it accepts and, for the parsers and the
# translator, on input it rejects
TREE_BUILDS = [
    (parse_dpll, PHP21_TEXT, True), (parse_dpll, "(unit 1 conflict", False),
    (parse_res, "1 S 1 0\n", True), (parse_res, "1 S 1\n", False),
    pytest.param(solve, PHP21, True, id="solve"),
    pytest.param(lambda d: solve_aux((1,), d), PHP21, True, id="solve_aux"),
    pytest.param(lambda p: dpll_to_res((), PHP21, p), PHP21_PROOF, True, id="dpll_to_res"),
    pytest.param(lambda p: dpll_to_res((), PHP21, p), Unit(3, CONFLICT), False,
                 id="dpll_to_res-invalid"),
]


@pytest.mark.parametrize("parse, text, valid", TREE_BUILDS)
@pytest.mark.parametrize("enabled", [True, False])
def test_parsers_leave_the_collector_as_they_found_it(parse, text, valid, enabled):
    was = gc.isenabled()
    try:
        if enabled:
            gc.enable()
        else:
            gc.disable()
        if valid:
            parse(text)
        else:
            error = ProofParseError if parse in (parse_dpll, parse_res) else InvalidDerivation
            with pytest.raises(error):
                parse(text)
        assert gc.isenabled() is enabled
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()


def test_tree_builders_run_with_the_collector_paused():
    # PHP(5,4) makes thousands of nodes: with the collector on, each build
    # would start collections; paused, none starts
    d = gen_php(PhpSpec(5, 4))
    p = solve(d).proof
    dpll_text, res_text = serialize_dpll(p), serialize_res(dpll_to_res((), d, p))
    builds = [lambda: solve(d), lambda: solve_aux((), d), lambda: dpll_to_res((), d, p),
              lambda: parse_dpll(dpll_text), lambda: parse_res(res_text)]
    started = []

    def on_collect(phase, info):
        if phase == "start":
            started.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.callbacks.append(on_collect)
    try:
        for build in builds:
            build()
        assert started == []
        # as many allocations outside a builder do start collections
        [[i] for i in range(100_000)]
        assert started
    finally:
        gc.callbacks.remove(on_collect)
        if not was:
            gc.disable()


def test_serialize_res_leaf():
    assert serialize_res(Sub(3, (1, -2))) == "1 S 3 1 -2 0\n"


def test_serialize_res_php_2_1():
    proof = Res(1, Res(2, Sub(3, (-1, -2)), Sub(2, (2,)), (-1,)), Sub(1, (1,)), ())
    text = serialize_res(proof)
    lines = text.strip().splitlines()
    assert len(lines) == 5
    assert lines[-1] == "5 R 1 3 4 0"


def test_res_ids_postorder():
    proof = Res(1, Sub(1, (-1,)), Sub(2, (1,)), ())
    lines = serialize_res(proof).strip().splitlines()
    ids = [int(l.split()[0]) for l in lines]
    assert ids == [1, 2, 3]  # children precede the root


def test_parse_res_errors():
    with pytest.raises(ProofParseError):
        parse_res("")
    with pytest.raises(ProofParseError):
        parse_res("1 S 1 1\n")  # missing terminating zero
    with pytest.raises(ProofParseError):
        parse_res("1 R 1 5 6 0\n")  # undefined children
    with pytest.raises(ProofParseError):
        parse_res("x S 1 0\n")


# trace texts whose last line parse_res reads in a fixed order, and the
# message it raises at that line, or the derivation it reads
RES_LINE_CASES = [
    # the conclusion is decoded before any node id is looked up, and every
    # head number is read before the first lookup
    ("1 R 1 9 3 x 0\n", "malformed trace line '1 R 1 9 3 x 0'"),
    ("1 R 1 9 x 0\n", "malformed trace line '1 R 1 9 x 0'"),
    ("1 R 1 9 3 0\n", "undefined node reference in line '1 R 1 9 3 0'"),
    # in a line too short for its head and a conclusion, the last field is
    # both
    ("1 S 1 0\n2 R 1 1 0\n", "undefined node reference in line '2 R 1 1 0'"),
    ("1 S 1 0\n2 R 1 0\n", "undefined node reference in line '2 R 1 0'"),
    ("0 S 1 0\n2 R 1 0\n", "malformed trace line '2 R 1 0'"),
    ("1 S 0\n", Sub(0, ())),
    ("1 S 5\n", "malformed trace line '1 S 5'"),
    ("1 S\n", "malformed trace line '1 S'"),
    ("1 X 1 0\n", "malformed trace line '1 X 1 0'"),
    ("1 S 1 2 0 3 0\n", "zero literal inside conclusion"),
]


@pytest.mark.parametrize("text, outcome", RES_LINE_CASES,
                         ids=[text.strip().replace("\n", "|") for text, _ in RES_LINE_CASES])
def test_parse_res_reads_each_line_in_a_fixed_order(text, outcome):
    if isinstance(outcome, Sub):
        assert parse_res(text) == outcome
        return
    at = text.rstrip("\n").rfind("\n") + 1
    with pytest.raises(ProofParseError) as err:
        parse_res(text)
    assert (str(err.value), err.value.position) == (f"offset {at}: {outcome}", at)


def test_parse_res_rejects_duplicate_node_id():
    text = "1 S 1 -1 0\n2 S 2 1 0\n3 R 1 1 2 0\n3 S 1 -1 0\n"
    with pytest.raises(ProofParseError) as err:
        parse_res(text)
    assert err.value.position == text.index("3 S")
    assert "duplicate node id" in str(err.value)


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_parse_res_error_offset_counts_line_breaks(eol):
    text = eol.join(["1 S 1 0", "2 S 1 0", "x S", ""])
    with pytest.raises(ProofParseError) as err:
        parse_res(text)
    assert err.value.position == {"\n": 16, "\r\n": 18}[eol] == text.index("x S")


@pytest.mark.parametrize("ch", OTHER_BREAKS, ids=[f"U+{ord(c):04X}" for c in OTHER_BREAKS])
def test_parse_res_lines_end_only_at_newlines(ch):
    # inside a comment and between literals, the character is whitespace
    assert parse_res(f"c note{ch}more\n1 S 1{ch}1 -2{ch}0\n") == Sub(1, (1, -2))
    # offsets count \n, \r\n and \r as the line breaks, and nothing else
    text = f"c a{ch}b\r\n1 S 1 1 0\r2 S 1 0{ch}\nx S\n"
    with pytest.raises(ProofParseError) as err:
        parse_res(text)
    assert err.value.position == text.index("x S")


@given(res_trees)
@settings(max_examples=300)
def test_res_round_trip(r):
    assert parse_res(serialize_res(r)) == r


# Parse outcomes.  tests/data/parse_digests.json records, for seeded
# single-edit mutants of serialized DPLL and resolution proofs and for the
# edits of repeated pieces in memo_corpus(), either the SHA-256 of the
# re-serialized parse or the ProofParseError message and position.  A change
# made on purpose regenerates the file with ``python tests/test_proof_text.py``
# (``src`` on PYTHONPATH).

PARSE_DIGESTS = Path(__file__).parent / "data" / "parse_digests.json"


@cache
def parse_corpus():
    """(name, format, text) entries: 2400 mutants of the DPLL texts and 1600
    of the resolution texts of the PHP refutations and the first 80 random
    sources of checker_corpus().  Entry i draws its source and its mutation
    from its own stream, seeded with i, so a change to one source text
    moves only the entries drawn from it."""
    sources = checker_corpus()[:84]
    dpll_texts = [serialize_dpll(p) for _, _, _, p in sources]
    res_texts = [serialize_res(dpll_to_res(g, d, p)) for _, g, d, p in sources]
    corpus = []
    for i in range(4000):
        fmt, texts, tokens = ("dpll", dpll_texts, DPLL_TOKENS) if i < 2400 else (
            "res", res_texts, RES_TOKENS)
        rng = random.Random(i)
        k = rng.randrange(len(texts))
        corpus.append((f"{fmt}-{sources[k][0]}~{i}", fmt, mutate_text(texts[k], tokens, rng)))
    return corpus


def parse_outcome(fmt, text, parse=None):
    default, serialize = (parse_dpll, serialize_dpll) if fmt == "dpll" else (
        parse_res, serialize_res)
    try:
        proof = (parse or default)(text)
    except ProofParseError as e:
        return {"error": str(e), "position": e.position}
    return {"ok": hashlib.sha256(serialize(proof).encode()).hexdigest()}


def _piece_edits(piece):
    """(label, edited piece) pairs for a DPLL piece, the text after one '(':
    its literal made zero or not a number, a ')' appended, a space put
    before it, its first space made a tab, and for an Elim or a Red a zero
    put in its clause or its '[' taken out."""
    head, sep, rest = piece.partition("] " if "[" in piece else " ")
    lit, space, tail = rest.partition(" ")
    edits = [("zero", f"{head}{sep}0{space}{tail}"), ("alpha", f"{head}{sep}{lit}x{space}{tail}"),
             ("paren", piece + ")"), ("lead-space", " " + piece),
             ("tab", piece.replace(" ", "\t", 1))]
    if "[" in piece:
        edits.append(("clause-zero", piece.replace("[ ", "[ 0 ", 1)))
        edits.append(("no-bracket", piece.replace("[", "", 1)))
    return edits


def _conclusion_edits(fields, at):
    """(label, edited line) pairs for a trace line whose conclusion starts
    at field ``at``: a literal that is not a number, a zero literal before
    the first, and no terminating 0."""
    head, lits = fields[:at], fields[at:-1]
    return [("alpha", " ".join(head + [lits[0] + "x"] + lits[1:] + ["0"])),
            ("zero", " ".join(head + ["0"] + lits + ["0"])),
            ("unterminated", " ".join(head + lits))]


def _occurrences(at):
    """The second and, when it is another, the last of indices ``at``."""
    return [("second", at[1])] + ([("last", at[-1])] if len(at) > 2 else [])


@cache
def memo_corpus():
    """(name, format, text) entries whose texts repeat the same pieces, from
    the PHP(4,3) and PHP(5,4) refutations: the DPLL text respaced with tabs,
    newlines or CRLF; the most repeated DPLL piece of three kinds (a Unit or
    Split head, an Elim or Red head, and a piece ending in a conflict), each
    edited only at its second or only at its last occurrence; and the most
    repeated nonempty resolution conclusion, edited likewise."""
    corpus = []
    for name, g, d, p in checker_corpus()[2:4]:
        text = serialize_dpll(p)
        for label, space in (("tab", "\t"), ("lf", "\n"), ("crlf", "\r\n")):
            corpus.append((f"memo-dpll-{name}-{label}", "dpll", text.replace(" ", space)))
        pieces = text.split("(")
        counts = Counter(pieces[1:])
        kinds = {"unary": lambda q: q.startswith(("unit ", "split ")) and "conflict" not in q,
                 "reducing": lambda q: q.startswith(("red ", "elim ")) and "conflict" not in q,
                 "closing": lambda q: "conflict" in q}
        for kind, fits in kinds.items():
            piece = max(filter(fits, counts), key=counts.__getitem__)
            at = [i for i, q in enumerate(pieces) if q == piece]
            for which, i in _occurrences(at):
                for label, edited in _piece_edits(piece):
                    corpus.append((f"memo-dpll-{name}-{kind}-{which}-{label}", "dpll",
                                   "(".join(pieces[:i] + [edited] + pieces[i + 1:])))
        lines = serialize_res(dpll_to_res(g, d, p)).splitlines(keepends=True)
        fields = [line.split() for line in lines]
        starts = [3 if f[1] == "S" else 5 for f in fields]
        conclusions = [tuple(f[s:]) for f, s in zip(fields, starts)]
        common = max((c for c in Counter(conclusions) if len(c) > 1),
                     key=Counter(conclusions).__getitem__)
        at = [i for i, c in enumerate(conclusions) if c == common]
        for which, i in _occurrences(at):
            for label, edited in _conclusion_edits(fields[i], starts[i]):
                corpus.append((f"memo-res-{name}-{which}-{label}", "res",
                               "".join(lines[:i] + [edited + "\n"] + lines[i + 1:])))
    return corpus


def test_parse_outcomes_match_recorded_digests():
    recorded = json.loads(PARSE_DIGESTS.read_text())
    corpus = parse_corpus() + memo_corpus()
    assert [name for name, *_ in corpus] == list(recorded)
    for name, fmt, text in corpus:
        assert parse_outcome(fmt, text) == recorded[name], name


def test_parse_dpll_reads_tabs_as_it_reads_spaces():
    # parse_dpll's fast pass reads only the serializer's spacing and hands
    # any other text to the token walk: with every space made a tab, every
    # text takes the walk, and each outcome must stay the same; the walk on
    # its own must give the same outcome on both texts
    for name, fmt, text in parse_corpus() + memo_corpus():
        if fmt == "dpll":
            outcome = parse_outcome(fmt, text)
            tabbed = text.replace(" ", "\t")
            assert parse_outcome(fmt, tabbed) == outcome, name
            for spaced in (text, tabbed):
                assert parse_outcome(fmt, spaced, _read_tokens) == outcome, name


if __name__ == "__main__":
    outcomes = {name: parse_outcome(fmt, text)
                for name, fmt, text in parse_corpus() + memo_corpus()}
    PARSE_DIGESTS.write_text(json.dumps(outcomes, indent=1) + "\n")
    print(f"wrote {len(outcomes)} outcomes to {PARSE_DIGESTS}", file=sys.stderr)
