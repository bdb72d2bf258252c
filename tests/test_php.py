import pytest

from dpllkit.php import PhpSpec, gen_php, php_comment_lines, php_var
from dpllkit.solver import solve

from oracle import brute_force_sat


def test_php_2_1():
    assert gen_php(PhpSpec(2, 1)) == ((1,), (2,), (-1, -2))


def test_php_1_1_has_no_hole_clauses():
    assert gen_php(PhpSpec(1, 1)) == ((1,),)


def test_php_2_2_shape():
    f = gen_php(PhpSpec(2, 2))
    assert f == ((1, 2), (3, 4), (-1, -3), (-2, -4))
    assert len({abs(l) for c in f for l in c}) == 4


def test_variable_encoding():
    spec = PhpSpec(3, 2)
    assert php_var(spec, 1, 1) == 1
    assert php_var(spec, 2, 1) == 3
    assert php_var(spec, 3, 2) == 6


def test_spec_validation():
    with pytest.raises(ValueError):
        PhpSpec(0, 1)
    with pytest.raises(ValueError):
        PhpSpec(1, 0)


def test_comment_lines_cover_all_variables():
    spec = PhpSpec(2, 2)
    lines = php_comment_lines(spec)
    assert all(l.startswith("c") for l in lines)
    assert any("-> 4" in l for l in lines)


@pytest.mark.parametrize("n", range(1, 4))
@pytest.mark.parametrize("m", range(1, 4))
def test_sat_iff_enough_holes(n, m):
    f = gen_php(PhpSpec(n, m))
    expected = n <= m
    assert brute_force_sat(f).satisfiable == expected
    assert solve(f).satisfiable == expected
