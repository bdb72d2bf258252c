"""Command line interface.

Exit codes: 10 satisfiable, 20 unsatisfiable (solve); 0 valid / 2 invalid
(check, convert); 0 success (gen); 1 usage or input errors.  A DPLL proof
text is an input error where its check holds more set entries in sequents
at once than the text has characters (``check dpll``, ``convert dpll2res``),
or where its translation takes more fold steps than that (``convert
dpll2res``): the text shares Splits that it reads again too far apart or
in too many contexts.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .cnf import vars_of
from .dimacs import DimacsError, emit_dimacs, parse_dimacs
from .dpll_proof import CheckReport, check_dpll, dpll_size
from .php import PhpSpec, gen_php, php_comment_lines
from .proof_text import ProofParseError, parse_dpll, parse_res, serialize_dpll, serialize_res
from .resolution import check_res, dpll_to_res, res_size
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
    p.add_argument("--proof", choices=["dpll", "res", "none"],
                   help="proof format of an unsat answer, witness mode only (default dpll)")
    p.add_argument("--out", help="write the proof or the model's v line to this file, not stdout")
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
    if args.mode == "decide":
        ignored = [f"--{name}" for name in ("proof", "out") if getattr(args, name) is not None]
        if ignored:
            raise _UsageError(f"decide mode writes no proof, so {' and '.join(ignored)} "
                              "would be ignored")
    elif args.proof == "none" and args.out is not None:
        raise _UsageError("--proof none writes no proof, so --out would be ignored")
    formula = parse_dimacs(_read(args.input))
    if args.mode == "decide":
        sat = solve(formula, SolverConfig(mode="decide"))
        print("s SATISFIABLE" if sat else "s UNSATISFIABLE")
        return EXIT_SAT if sat else EXIT_UNSAT
    verdict = solve(formula, SolverConfig(mode="witness"))
    if verdict.satisfiable:
        print("s SATISFIABLE")
        lits = [v if verdict.model.lit_value(v) else -v for v in sorted(vars_of(formula))]
        _write_out(" ".join(["v", *map(str, lits), "0"]) + "\n", args.out)
        return EXIT_SAT
    print("s UNSATISFIABLE")
    if args.proof in ("dpll", None):
        _write_out(serialize_dpll(verdict.proof), args.out)
    elif args.proof == "res":
        _write_out(serialize_res(dpll_to_res((), formula, verdict.proof)), args.out)
    return EXIT_UNSAT


def _cmd_check(args) -> int:
    formula = parse_dimacs(_read(args.input))
    if args.system == "dpll":
        text = _read(args.proof)
        report = check_dpll((), formula, parse_dpll(text), limit=len(text))
    else:
        proof = parse_res(_read(args.proof))
        report = check_res(formula, proof)
        # check_res accepts any valid derivation; a refutation must also
        # conclude the empty clause
        if report.valid and proof.conclusion:
            report = CheckReport(False, (), "not-a-refutation")
    if report.valid:
        print("valid")
        return 0
    return _invalid(report, sizes=args.system == "dpll")


def _invalid(report, sizes: bool) -> int:
    """Report a failed check; ``sizes`` adds the sizes of the valuation and
    the formula at the failing node, from a ``check_dpll`` report."""
    where = f"at path {list(report.path)}"
    if sizes:
        g, d = report.context
        where += f" (|g|={len(g)}, |d|={len(d)})"
    print(f"invalid: {report.reason} {where}", file=sys.stderr)
    return EXIT_INVALID


def _cmd_convert(args) -> int:
    formula = parse_dimacs(_read(args.input))
    text = _read(args.proof)
    proof = parse_dpll(text)
    report = check_dpll((), formula, proof, limit=len(text))
    if not report.valid:
        return _invalid(report, sizes=True)
    res_proof = dpll_to_res((), formula, proof, limit=len(text))
    n, m = dpll_size(proof), res_size(res_proof)
    if m > n:
        print(f"error: translation grew the proof: {m} > {n}", file=sys.stderr)
        return EXIT_USAGE
    print(f"dpll_size={n} res_size={m}")
    _write_out(serialize_res(res_proof), args.out)
    return 0


def _cmd_gen(args) -> int:
    spec = PhpSpec(args.pigeons, args.holes)
    text = "\n".join(php_comment_lines(spec)) + "\n" + emit_dimacs(gen_php(spec))
    _write_out(text, args.out)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "check": _cmd_check,
    "convert": _cmd_convert,
    "gen": _cmd_gen,
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


if __name__ == "__main__":
    entry()
