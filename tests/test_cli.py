import os
import subprocess
import sys
from pathlib import Path

import pytest

from dpllkit import cli
from dpllkit.cli import main
from dpllkit.dimacs import emit_dimacs, parse_dimacs
from dpllkit.php import PhpSpec, gen_php

from strategies import cited_late, horn_chain, premise_chain, wide_chain


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


def test_check_res_rejects_a_derivation_that_is_not_a_refutation(tmp_path, capsys):
    # a valid one-leaf derivation of (1 | 2) from a satisfiable formula
    cnf = tmp_path / "sat.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    proof = tmp_path / "leaf.res"
    proof.write_text("1 S 1 1 2 0\n")
    assert main(["check", "res", str(cnf), str(proof)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "invalid: not-a-refutation at path []\n"
    assert captured.out == ""


def test_convert_invalid_proof(php21_file, tmp_path, capsys):
    proof = tmp_path / "bad.dpll"
    proof.write_text("(unit 1 (unit -2 conflict))")
    assert main(["check", "dpll", php21_file, str(proof)]) == 2
    checked = capsys.readouterr().err
    assert main(["convert", "dpll2res", php21_file, str(proof)]) == 2
    captured = capsys.readouterr()
    assert captured.err == checked == "invalid: unit-clause-missing at path [0] (|g|=1, |d|=2)\n"
    assert captured.out == ""


def test_a_text_met_in_many_contexts_is_checked(tmp_path, capsys):
    # 30 nested Splits, each citing the one inside it as its right branch:
    # 2,209 characters for an unfolded tree of 2^30 - 1 Splits.  Each
    # Split the text shares reads a unit clause whose premise the sign of
    # the Split above it chose, but its sequent fits every context it is
    # met in, and check accepts the text at once
    d, text = premise_chain(30)
    cnf, proof = tmp_path / "chain.cnf", tmp_path / "chain.dpll"
    cnf.write_text(emit_dimacs(d))
    proof.write_text(text)
    assert main(["check", "dpll", str(cnf), str(proof)]) == 0
    assert capsys.readouterr().out == "valid\n"


def test_a_text_met_in_too_many_contexts_is_refused(tmp_path, capsys):
    # the same chain over a wide clause that the units reduce to (): the
    # translation of each leaf resolves on every split literal, so its
    # fold meets each shared Split with other premises at each occurrence,
    # and stops at the text's length in steps
    d, text = wide_chain(30)
    cnf, proof = tmp_path / "chain.cnf", tmp_path / "chain.dpll"
    cnf.write_text(emit_dimacs(d))
    proof.write_text(text)
    assert main(["convert", "dpll2res", str(cnf), str(proof)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: translating the derivation takes more than {len(text)} steps\n"
    assert captured.out == ""


def test_a_text_whose_sequents_outgrow_it_is_refused(tmp_path, capsys):
    # 200 Splits, each cited once more after the whole chain and needing
    # the units made above it: check keeps about 1.5 * 200^2 clauses in
    # their sequents at once, more than the text's length, so check and
    # convert stop there
    d, text = cited_late(200)
    cnf, proof = tmp_path / "late.cnf", tmp_path / "late.dpll"
    cnf.write_text(emit_dimacs(d))
    proof.write_text(text)
    for command in (["check", "dpll"], ["convert", "dpll2res"]):
        assert main([*command, str(cnf), str(proof)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: the sequents of the derivation hold more than {len(text)} entries\n"
        assert captured.out == ""


def test_check_dpll_failure_gives_context_sizes(php21_file, tmp_path, capsys):
    # the Red leaves (-1) of (-1 -2) under {1, 2}, so the Conflict below it
    # finds no empty clause; |g| and |d| are read at that Conflict
    proof = tmp_path / "bad.dpll"
    proof.write_text("(unit 1 (unit 2 (red [ -1 -2 ] 2 conflict)))")
    assert main(["check", "dpll", php21_file, str(proof)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "invalid: conflict-empty-clause-missing at path [0, 0, 0] (|g|=2, |d|=1)\n"
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


def test_convert_reports_a_grown_proof(php21_file, tmp_path, capsys, monkeypatch):
    # the size bound is checked by a test that -O keeps, not by assert
    proof = tmp_path / "p.dpll"
    main(["solve", "--proof", "dpll", "--out", str(proof), php21_file])
    capsys.readouterr()
    monkeypatch.setattr(cli, "res_size", lambda r: 5)
    assert main(["convert", "dpll2res", php21_file, str(proof)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: translation grew the proof: 5 > 4\n"
    assert captured.out == ""


@pytest.mark.parametrize("unsat, code", [(False, 10), (True, 20)])
def test_solve_deep_horn_chain(unsat, code, tmp_path, capsys):
    path = tmp_path / "horn.cnf"
    path.write_text(emit_dimacs(horn_chain(1000, unsat)))
    assert main(["solve", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out.startswith("s UNSATISFIABLE" if unsat else "s SATISFIABLE")
    assert "Traceback" not in captured.err


def test_usage_error_exit_code(php21_file, tmp_path, capsys):
    assert main(["frobnicate"]) == 1
    assert main(["solve", "--mode", "bogus", "x.cnf"]) == 1
    assert main(["bench", "--php-max", "2"]) == 1
    # decide mode writes no proof, so it rejects the options that shape one
    out = tmp_path / "F"
    for options, named in [(["--proof", "res", "--out", str(out)], "--proof and --out"),
                           (["--proof", "dpll"], "--proof"), (["--out", str(out)], "--out")]:
        capsys.readouterr()
        assert main(["solve", "--mode", "decide", *options, php21_file]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: decide mode writes no proof, so {named} would be ignored\n"
        assert captured.out == ""
        assert not out.exists()
    # nor does --proof none, so it rejects --out before solving
    assert main(["solve", "--proof", "none", "--out", str(out), php21_file]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --proof none writes no proof, so --out would be ignored\n"
    assert captured.out == ""
    assert not out.exists()


def test_solve_sat_writes_the_model_to_out(php22_file, tmp_path, capsys):
    out = tmp_path / "G"
    assert main(["solve", "--out", str(out), php22_file]) == 10
    assert capsys.readouterr().out == "s SATISFIABLE\n"
    assert out.read_text() == "v 1 -2 -3 4 0\n"


def test_missing_file_exit_code(capsys):
    assert main(["solve", "/nonexistent/file.cnf"]) == 1


def test_bad_dimacs_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 1 1\n2 0\n")
    assert main(["solve", str(bad)]) == 1


def _run_module(*args):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-m", *args], capture_output=True, text=True, env=env,
                          timeout=60)


def test_python_m_dpllkit_solves(php21_file):
    run = _run_module("dpllkit", "solve", php21_file)
    assert run.returncode == 20
    assert run.stdout.startswith("s UNSATISFIABLE\n")


def test_cli_smoke_script(tmp_path):
    # the CLI smoke run CI makes with the installed script, here through
    # `python -m dpllkit`; `python` on PATH is this interpreter
    (tmp_path / "python").symlink_to(sys.executable)
    script = Path(__file__).resolve().parent / "cli_smoke.sh"
    src = str(script.parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
               PATH=os.pathsep.join((str(tmp_path), os.environ.get("PATH", ""))))
    run = subprocess.run(["bash", str(script), "python", "-m", "dpllkit"], capture_output=True,
                         text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.endswith("cli smoke: ok\n")


def test_python_m_dpllkit_cli_reports_bad_input():
    # a DPLL proof is not a CNF file
    proof = Path(__file__).resolve().parent / "data" / "php_2_1.dpll"
    run = _run_module("dpllkit.cli", "solve", str(proof))
    assert run.returncode == 1
    assert run.stderr.startswith("error: ")
