import hashlib
import json
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpllkit.dpll_proof import CONFLICT, Elim, Red, Split, Unit
from dpllkit.proof_text import (
    ProofParseError,
    parse_dpll,
    parse_res,
    serialize_dpll,
    serialize_res,
)
from dpllkit.resolution import Res, Sub, dpll_to_res

from strategies import DPLL_TOKENS, RES_TOKENS, checker_corpus, clauses, literals, mutate_text

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


@given(res_trees)
@settings(max_examples=300)
def test_res_round_trip(r):
    assert parse_res(serialize_res(r)) == r


# Parse outcomes.  tests/data/parse_digests.json records, for seeded
# single-edit mutants of serialized DPLL and resolution proofs, either the
# SHA-256 of the re-serialized parse or the ProofParseError message and
# position.  A change made on purpose regenerates the file with
# ``python tests/test_proof_text.py`` (``src`` on PYTHONPATH).

PARSE_DIGESTS = Path(__file__).parent / "data" / "parse_digests.json"


def parse_corpus():
    """(name, format, text) entries from a fixed seed: 2400 mutants of the
    DPLL texts and 1600 of the resolution texts of the PHP refutations and
    the first 80 random sources of checker_corpus()."""
    sources = checker_corpus()[:84]
    dpll_texts = [serialize_dpll(p) for _, _, _, p in sources]
    res_texts = [serialize_res(dpll_to_res(g, d, p)) for _, g, d, p in sources]
    rng = random.Random(53)
    corpus = []
    for i in range(4000):
        fmt, texts, tokens = ("dpll", dpll_texts, DPLL_TOKENS) if i < 2400 else (
            "res", res_texts, RES_TOKENS)
        k = rng.randrange(len(texts))
        corpus.append((f"{fmt}-{sources[k][0]}~{i}", fmt, mutate_text(texts[k], tokens, rng)))
    return corpus


def parse_outcome(fmt, text):
    parse, serialize = (parse_dpll, serialize_dpll) if fmt == "dpll" else (parse_res, serialize_res)
    try:
        proof = parse(text)
    except ProofParseError as e:
        return {"error": str(e), "position": e.position}
    return {"ok": hashlib.sha256(serialize(proof).encode()).hexdigest()}


_LONE_PAREN = re.compile(r"\((?!\w)")


def fixed_position(fmt, text, recorded):
    """Where the parser now fails on a text whose recorded outcome predates
    two fixes, else None.  A lone '(' used to be skipped: the first one now
    fails if the text was accepted, if it comes before the recorded error, or
    if that error was the end of input (reported at the end of the last
    token, before a trailing '(').  A redefined node id used to replace the
    node: the first line redefining an id, among the lines before the
    recorded error, now fails."""
    at = recorded.get("position")
    if fmt == "dpll":
        m = _LONE_PAREN.search(text)
        if m and (at is None or m.start() < at or "unexpected end of input" in recorded["error"]):
            return m.start()
        return None
    seen = set()
    offset = 0
    for line in text.splitlines():
        start = offset
        offset += len(line) + 1
        if at is not None and start >= at:
            break
        if not line.strip() or line.lstrip().startswith("c"):
            continue
        nid = int(line.split()[0])
        if nid in seen:
            return start
        seen.add(nid)
    return None


def test_parse_outcomes_match_recorded_digests():
    recorded = json.loads(PARSE_DIGESTS.read_text())
    corpus = parse_corpus()
    assert [name for name, *_ in corpus] == list(recorded)
    fixed = {"dpll": 0, "res": 0}
    for name, fmt, text in corpus:
        at = fixed_position(fmt, text, recorded[name])
        if at is None:
            assert parse_outcome(fmt, text) == recorded[name], name
            continue
        fixed[fmt] += 1
        outcome = parse_outcome(fmt, text)
        assert outcome.get("position") == at, name
        if fmt == "res":
            assert "duplicate node id" in outcome["error"], name
    assert all(fixed.values()), fixed


if __name__ == "__main__":
    outcomes = {name: parse_outcome(fmt, text) for name, fmt, text in parse_corpus()}
    PARSE_DIGESTS.write_text(json.dumps(outcomes, indent=1) + "\n")
    print(f"wrote {len(outcomes)} outcomes to {PARSE_DIGESTS}", file=sys.stderr)
