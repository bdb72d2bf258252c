import pytest

from dpllkit.cli import main
from dpllkit.dimacs import emit_dimacs, parse_dimacs
from dpllkit.php import PhpSpec, gen_php

from strategies import horn_chain


@pytest.fixture
def php21_file(tmp_path):
    path = tmp_path / "php21.cnf"
    path.write_text(emit_dimacs(gen_php(PhpSpec(2, 1))))
    return str(path)


@pytest.fixture
def php22_file(tmp_path):
    path = tmp_path / "php22.cnf"
    path.write_text(emit_dimacs(gen_php(PhpSpec(2, 2))))
    return str(path)


def test_gen_php(capsys):
    assert main(["gen", "php", "2", "1"]) == 0
    out = capsys.readouterr().out
    assert "p cnf 2 3" in out
    assert parse_dimacs(out) == gen_php(PhpSpec(2, 1))
    assert out.splitlines()[0].startswith("c")


def test_gen_to_file(tmp_path, capsys):
    out = tmp_path / "f.cnf"
    assert main(["gen", "php", "3", "2", "--out", str(out)]) == 0
    assert parse_dimacs(out.read_text()) == gen_php(PhpSpec(3, 2))


def test_solve_unsat_exit_code(php21_file, capsys):
    assert main(["solve", php21_file]) == 20
    out = capsys.readouterr().out
    assert out.startswith("s UNSATISFIABLE")
    assert "(unit 1 " in out


def test_solve_sat_exit_code(php22_file, capsys):
    assert main(["solve", php22_file]) == 10
    out = capsys.readouterr().out
    assert out.startswith("s SATISFIABLE")
    assert any(line.startswith("v ") and line.endswith(" 0") for line in out.splitlines())


def test_solve_decide_mode(php21_file, capsys):
    assert main(["solve", "--mode", "decide", php21_file]) == 20
    assert capsys.readouterr().out.strip() == "s UNSATISFIABLE"


def test_solve_proof_to_file_checks(php21_file, tmp_path, capsys):
    proof = tmp_path / "p.dpll"
    assert main(["solve", "--proof", "dpll", "--out", str(proof), php21_file]) == 20
    assert main(["check", "dpll", php21_file, str(proof)]) == 0


def test_solve_res_proof_checks(php21_file, tmp_path, capsys):
    proof = tmp_path / "p.res"
    assert main(["solve", "--proof", "res", "--out", str(proof), php21_file]) == 20
    assert main(["check", "res", php21_file, str(proof)]) == 0


def test_check_invalid_proof(php21_file, tmp_path, capsys):
    proof = tmp_path / "bad.dpll"
    proof.write_text("(unit -1 conflict)")
    assert main(["check", "dpll", php21_file, str(proof)]) == 2
    assert "unit-clause-missing" in capsys.readouterr().err


def test_convert_invalid_proof(php21_file, tmp_path, capsys):
    proof = tmp_path / "bad.dpll"
    proof.write_text("(unit 1 (unit -2 conflict))")
    assert main(["check", "dpll", php21_file, str(proof)]) == 2
    checked = capsys.readouterr().err
    assert main(["convert", "dpll2res", php21_file, str(proof)]) == 2
    captured = capsys.readouterr()
    assert captured.err == checked == "invalid: unit-clause-missing at path [0]\n"
    assert captured.out == ""


def test_convert_dpll2res(php21_file, tmp_path, capsys):
    proof = tmp_path / "p.dpll"
    main(["solve", "--proof", "dpll", "--out", str(proof), php21_file])
    res_out = tmp_path / "p.res"
    assert main(["convert", "dpll2res", php21_file, str(proof), "--out", str(res_out)]) == 0
    out = capsys.readouterr().out
    assert "dpll_size=4" in out
    assert "res_size=2" in out
    assert main(["check", "res", php21_file, str(res_out)]) == 0


def test_bench(capsys):
    assert main(["bench", "--php-max", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("#")
    rows = [l.split("\t") for l in lines[1:]]
    # php-1-1..php-3-2 in both modes
    assert len(rows) == 8
    for row in rows:
        dpll_sz, res_sz = row[3], row[4]
        if dpll_sz != "-" and res_sz != "-":
            assert int(res_sz) <= int(dpll_sz)


@pytest.mark.parametrize("unsat, code", [(False, 10), (True, 20)])
def test_solve_deep_horn_chain(unsat, code, tmp_path, capsys):
    path = tmp_path / "horn.cnf"
    path.write_text(emit_dimacs(horn_chain(1000, unsat)))
    assert main(["solve", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out.startswith("s UNSATISFIABLE" if unsat else "s SATISFIABLE")
    assert "Traceback" not in captured.err


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["solve", "--mode", "bogus", "x.cnf"]) == 1


def test_missing_file_exit_code(capsys):
    assert main(["solve", "/nonexistent/file.cnf"]) == 1


def test_bad_dimacs_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 1 1\n2 0\n")
    assert main(["solve", str(bad)]) == 1
