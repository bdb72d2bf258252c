import pytest
from hypothesis import given, settings

from dpllkit.dimacs import DimacsError, emit_dimacs, parse_dimacs

from strategies import formulas


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
