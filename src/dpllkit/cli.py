"""Command line interface.

Exit codes: 10 satisfiable, 20 unsatisfiable (solve); 0 valid / 2 invalid
(check, convert); 0 success (gen, bench); 1 usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .bench import TSV_HEADER, run_php_bench
from .cnf import vars_of
from .dimacs import DimacsError, emit_dimacs, parse_dimacs
from .dpll_proof import check_dpll, dpll_size
from .php import PhpSpec, gen_php, php_comment_lines
from .proof_text import ProofParseError, parse_dpll, parse_res, serialize_dpll, serialize_res
from .resolution import InvalidDerivation, check_res, dpll_to_res, res_size
from .solver import SolverConfig, solve

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_INVALID = 2
EXIT_USAGE = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dpllkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide a DIMACS CNF file")
    p.add_argument("--mode", choices=["witness", "decide"], default="witness")
    p.add_argument("--proof", choices=["dpll", "res", "none"], default="dpll")
    p.add_argument("--out", help="write the proof to this file instead of stdout")
    p.add_argument("input")

    p = sub.add_parser("check", help="verify a proof against a CNF file")
    p.add_argument("system", choices=["dpll", "res"])
    p.add_argument("input")
    p.add_argument("proof")

    p = sub.add_parser("convert", help="translate a DPLL proof to resolution")
    p.add_argument("direction", choices=["dpll2res"])
    p.add_argument("input")
    p.add_argument("proof")
    p.add_argument("--out", help="write the resolution trace to this file")

    p = sub.add_parser("gen", help="generate benchmark formulae")
    p.add_argument("family", choices=["php"])
    p.add_argument("pigeons", type=int)
    p.add_argument("holes", type=int)
    p.add_argument("--out", help="write DIMACS to this file instead of stdout")

    p = sub.add_parser("bench", help="run the pigeonhole benchmark suite")
    p.add_argument("--php-max", type=int, required=True)
    p.add_argument("--mode", choices=["witness", "decide", "both"], default="both")
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _cmd_solve(args) -> int:
    formula = parse_dimacs(_read(args.input))
    if args.mode == "decide":
        sat = solve(formula, SolverConfig(mode="decide"))
        print("s SATISFIABLE" if sat else "s UNSATISFIABLE")
        return EXIT_SAT if sat else EXIT_UNSAT
    verdict = solve(formula, SolverConfig(mode="witness"))
    if verdict.satisfiable:
        print("s SATISFIABLE")
        lits = [v if verdict.model.lit_value(v) else -v for v in sorted(vars_of(formula))]
        print("v " + " ".join(str(l) for l in lits) + " 0" if lits else "v 0")
        return EXIT_SAT
    print("s UNSATISFIABLE")
    if args.proof == "dpll":
        _write_out(serialize_dpll(verdict.proof), args.out)
    elif args.proof == "res":
        _write_out(serialize_res(dpll_to_res((), formula, verdict.proof)), args.out)
    return EXIT_UNSAT


def _cmd_check(args) -> int:
    formula = parse_dimacs(_read(args.input))
    if args.system == "dpll":
        report = check_dpll((), formula, parse_dpll(_read(args.proof)))
    else:
        report = check_res(formula, parse_res(_read(args.proof)))
    if report.valid:
        print("valid")
        return 0
    return _invalid(report)


def _invalid(report) -> int:
    print(f"invalid: {report.reason} at path {list(report.path)}", file=sys.stderr)
    return EXIT_INVALID


def _cmd_convert(args) -> int:
    formula = parse_dimacs(_read(args.input))
    proof = parse_dpll(_read(args.proof))
    try:
        res_proof = dpll_to_res((), formula, proof)
    except InvalidDerivation as e:
        return _invalid(e.report)
    n, m = dpll_size(proof), res_size(res_proof)
    assert m <= n, f"translation grew the proof: {m} > {n}"
    print(f"dpll_size={n} res_size={m}")
    _write_out(serialize_res(res_proof), args.out)
    return 0


def _cmd_gen(args) -> int:
    spec = PhpSpec(args.pigeons, args.holes)
    text = "\n".join(php_comment_lines(spec)) + "\n" + emit_dimacs(gen_php(spec))
    _write_out(text, args.out)
    return 0


def _cmd_bench(args) -> int:
    modes = ("witness", "decide") if args.mode == "both" else (args.mode,)
    print(TSV_HEADER)
    for record in run_php_bench(args.php_max, modes):
        print(record.to_tsv())
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "check": _cmd_check,
    "convert": _cmd_convert,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DimacsError, ProofParseError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
