import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpllkit import dimacs
from dpllkit.dimacs import DimacsError, emit_dimacs, parse_dimacs

from strategies import OTHER_BREAKS, formulas


def test_parse_basic():
    assert parse_dimacs("p cnf 2 3\n1 0\n2 0\n-1 -2 0\n") == ((1,), (2,), (-1, -2))


def test_parse_with_comment_and_canonicalization():
    assert parse_dimacs("c x\np cnf 1 1\n1 -1 0\n") == ((1, -1),)


def test_parse_accepts_bytes_and_multiline_clauses():
    assert parse_dimacs(b"p cnf 3 1\n1\n2 3 0\n") == ((1, 2, 3),)


def test_bounds_error_strict():
    with pytest.raises(DimacsError) as e:
        parse_dimacs("p cnf 1 1\n2 0\n")
    assert e.value.line == 2


def test_clause_count_mismatch():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 1 2\n1 0\n")


def test_malformed_header():
    with pytest.raises(DimacsError):
        parse_dimacs("p dnf 1 1\n1 0\n")
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf one 1\n1 0\n")
    with pytest.raises(DimacsError):
        parse_dimacs("1 0\n")


def test_duplicate_header():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 1 1\np cnf 1 1\n1 0\n")


def test_bad_token_reports_position():
    with pytest.raises(DimacsError) as e:
        parse_dimacs("p cnf 1 1\n1 x 0\n")
    assert e.value.line == 2
    assert e.value.column == 3


def test_unterminated_clause():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 2\n")


def test_emit_basic():
    assert emit_dimacs(((1,), (-1,))) == "p cnf 1 2\n1 0\n-1 0\n"
    assert emit_dimacs(()) == "p cnf 0 0\n"
    assert emit_dimacs(((),)) == "p cnf 0 1\n0\n"


@given(formulas)
@settings(max_examples=300)
def test_round_trip(d):
    assert parse_dimacs(emit_dimacs(d)) == d


# comments, blank lines and a header, then two clauses over several lines
PREFIX = "c first comment\n\n   c indented\n\t\n"
BODY = PREFIX + "p cnf 4 3\n1\n -2\n\n3 0\nc mid\n4 -1 0\n"


def test_parse_clauses_across_lines_comments_and_blank_lines():
    assert parse_dimacs(BODY.replace("p cnf 4 3", "p cnf 4 2")) == ((1, -2, 3), (-1, 4))
    assert parse_dimacs(BODY.replace("p cnf 4 3", "p cnf 4 2").replace("\n", "\r\n")) == (
        (1, -2, 3), (-1, 4))


@pytest.mark.parametrize("text, message, line, column", [
    (BODY + "\n  p cnf 4 3\n", "duplicate header", 13, 3),
    (PREFIX + " p cnf 4\n1 0\n", "malformed header, expected 'p cnf V C'", 5, 2),
    (PREFIX + "p cnf 4 x\n1 0\n", "malformed header, expected 'p cnf V C'", 5, 1),
    (PREFIX + "p cnf -4 3\n", "negative counts in header", 5, 1),
    (PREFIX + "  1 -2 0\np cnf 2 1\n", "clause data before header", 5, 3),
    (BODY + "2\n 3 x 0\n", "invalid token 'x'", 13, 4),
    (BODY + "2\n\n  -3 5 0\n", "literal 5 exceeds declared variable count 4", 14, 6),
    (BODY + "\n 2\n-3\nc end\n", "unterminated clause at end of input", 13, 2),
    (PREFIX + "c only comments\n\n", "missing 'p cnf' header", 1, 1),
    (BODY, "header declares 3 clauses, found 2", 1, 1),
    (BODY + "1\n2 0\n-1 0\n", "header declares 3 clauses, found 4", 1, 1),
], ids=["duplicate-header", "malformed-header", "header-not-a-number", "negative-counts",
        "data-before-header", "invalid-token", "literal-out-of-range", "unterminated-clause",
        "missing-header", "too-few-clauses", "too-many-clauses"])
def test_errors_name_their_line_and_column(text, message, line, column):
    with pytest.raises(DimacsError) as e:
        parse_dimacs(text)
    assert (str(e.value), e.value.line, e.value.column) == (
        f"line {line}, column {column}: {message}", line, column)


@given(formulas, st.randoms())
@settings(max_examples=200)
def test_clause_pass_reads_what_the_token_loop_reads(d, rng):
    # the emitted text with comments and blank lines put between its lines
    # and its clauses cut and spaced at random
    tokens = emit_dimacs(d).split()
    lines = [" ".join(tokens[:4]), ""]
    for tok in tokens[4:]:
        if rng.random() < 0.3:
            lines += [rng.choice(["", "c note", " \t"]), ""]
        lines[-1] += rng.choice([" ", "\t", "  "]) + tok
    text = rng.choice(["\n", "\r\n"]).join(lines) + "\n"
    assert dimacs._read_clauses(text) == dimacs._read_tokens(text)
    assert parse_dimacs(text) == d


@pytest.mark.parametrize("ch", OTHER_BREAKS, ids=[f"U+{ord(c):04X}" for c in OTHER_BREAKS])
def test_lines_end_only_at_newlines(ch):
    # inside a comment and between literals, the character is whitespace
    text = f"c note{ch}more\np cnf 2 2\n1{ch}-2 0{ch}2 0\n"
    assert dimacs._read_clauses(text) == dimacs._read_tokens(text) == [[1, -2], [2]]
    assert parse_dimacs(text) == ((1, -2), (2,))
    # line numbers count \n, \r\n and \r, and nothing else
    with pytest.raises(DimacsError) as e:
        parse_dimacs(f"c a{ch}b\r\nc x\rp cnf 1 1\n1{ch}x 0\n")
    assert (e.value.line, e.value.column) == (4, 3)
