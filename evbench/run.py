#!/usr/bin/env python3
"""Evidence-pipeline benchmark for dpllkit.

    python3 evbench/run.py --workload php-refute --seed 1 --seconds 50 --trace 0
    python3 evbench/run.py --workload all --seed 1 --seconds 50

One op carries one instance from DIMACS text to a checked verdict through the
library's public functions: parse_dimacs, solve (witness mode), then evaluate
for a model, or serialize_dpll -> parse_dpll -> check_dpll -> dpll_to_res ->
serialize_res -> parse_res -> check_res and res_size <= dpll_size for a
refutation.  Ops run in a closed loop, whole rounds over the instance set,
until ``--seconds`` have passed; after each op its instance is also solved in
decide mode.  Every time is corrected for the host's speed (see
CAL_NOMINAL_S).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs half the time untraced and half with spans around every library call,
and reports the per-layer metrics.  The last line of standard output is one
JSON object; the lines before it name every metric with its unit and the base
of every ratio.  README.md defines the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import typing
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Case  # noqa: E402

SETUP_REPEATS = 9

# Host-speed correction.  On a shared host, other tenants slow whole stretches
# of a run by up to 1.7x, often longer than a run lasts, and the op's CPU time
# slows with its wall time, so no choice among a run's own samples gives a
# figure that repeats.  A fixed pure-Python block that calls nothing in
# dpllkit is timed before every op and slows with it; each round's durations
# are scaled by CAL_NOMINAL_S over the median of the round's calibration
# times.  Every reported time then reads as seconds on a host where the block
# takes CAL_NOMINAL_S, and changes only when the library's own cost does.
CAL_NOMINAL_S = 0.006

# Library call -> layer, for per-layer self time.  "op" is the benchmark's
# own span around one op; its self time is the benchmark's glue.
LAYER = {
    "op": "bench", "parse_dimacs": "dimacs", "solve": "solver", "solve_decide": "solver",
    "evaluate": "cnf", "serialize_dpll": "proof_text", "parse_dpll": "proof_text",
    "serialize_res": "proof_text", "parse_res": "proof_text", "check_dpll": "dpll_proof",
    "dpll_size": "dpll_proof", "dpll_to_res": "resolution", "check_res": "resolution",
    "res_size": "resolution",
}
RULES = ("move", "unit", "split", "elim", "red", "conflict")


def _calls(n: int, acc: tuple) -> tuple:
    return acc if n == 0 else _calls(n - 1, acc + (n,)[:1])


def calibrate() -> float:
    """Seconds the host takes for the fixed calibration block.

    The block mixes the kinds of work the library does, because a busy host
    slows each kind by a different factor: tuple and dict churn (proof and
    text layers), set tests over clause-like tuples (the formula layer) and
    deep Python recursion (the search).  Alone, each tracked one workload's
    slowdowns and missed the other's.  The cyclic collector is off while it
    runs, so that the library's heap, which a collection would walk, cannot
    change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _calibration_block()
    finally:
        if enabled:
            gc.enable()


def _calibration_block() -> float:
    start = perf_counter()
    d = {}
    for i in range(5000):
        t = (i, -i, i * 3 % 7)
        d[t] = d.get(t[2], 0) + 1
    sorted(d, key=lambda t: t[2])
    seen = frozenset()
    for i in range(750):
        clause = tuple(sorted((i % 37 + 1, -(i % 23 + 1), i % 11 + 40)))
        seen = seen | {clause[0]}
        tuple(lit for lit in clause if -lit not in seen)
    for _ in range(30):
        _calls(200, ())
    return perf_counter() - start


def host_scale(calibrations: list) -> float:
    return CAL_NOMINAL_S / statistics.median(calibrations)


class Rejected(Exception):
    """An op's output failed one of the benchmark's checks."""


def require(ok, reason: str) -> None:
    if not ok:
        raise Rejected(reason)


class Spans:
    """Spans (id, name, start, end, parent, op) kept in memory for one phase."""

    def __init__(self):
        self.rows: list[tuple] = []
        self._ids = itertools.count()
        self.op: Optional[int] = None
        self.parent: Optional[int] = None

    def start_op(self, op: int) -> None:
        self.op, self.parent = op, next(self._ids)

    def end_op(self, start: float, end: float) -> None:
        self.rows.append((self.parent, "op", start, end, None, self.op))
        self.parent = None

    def call(self, name, fn, *args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.rows.append((next(self._ids), name, start, perf_counter(), self.parent, self.op))


class NoSpans(Spans):
    def start_op(self, op):
        pass

    def end_op(self, start, end):
        pass

    def call(self, name, fn, *args):
        return fn(*args)


@dataclass
class Instance:
    case: Case
    text: str  # the DIMACS text the library receives
    formula: tuple  # the canonical formula the text must parse back to

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


@dataclass
class Outcome:
    index: int  # instance index
    round: int
    seconds: float
    failure: Optional[str] = None  # None when every check passed
    formula: Optional[tuple] = None
    sat: Optional[bool] = None
    dpll_nodes: int = 0
    res_steps: int = 0
    dpll_bytes: int = 0
    depth: int = 0
    proof: object = None  # the parsed DPLL proof, kept until its depth is taken
    decide_s: Optional[float] = None
    decide_ok: bool = False
    scale: float = 1.0  # host-speed correction of the op's round

    @property
    def latency(self) -> float:
        return self.seconds * self.scale

    @property
    def decide_latency(self) -> float:
        return self.decide_s * self.scale


def run_op(dk, inst: Instance, index: int, spans: Spans, rnd: int = 0) -> Outcome:
    """Carry one instance to a checked verdict; any exception fails the op."""
    call = spans.call
    out = Outcome(index, rnd, 0.0)
    start = perf_counter()
    try:
        out.formula = formula = call("parse_dimacs", dk.parse_dimacs, inst.text)
        require(formula == inst.formula, "dimacs-round-trip")
        v = call("solve", dk.solve, formula)
        out.sat = v.satisfiable
        require(inst.case.expect is None or v.satisfiable == inst.case.expect, "wrong-verdict")
        if v.satisfiable:
            require(call("evaluate", dk.evaluate, v.model, formula), "model-rejected")
        else:
            # an unsat formula is false under any assignment; try the default one
            require(not call("evaluate", dk.evaluate, dk.Assignment(), formula),
                    "refuted-formula-satisfied")
            text = call("serialize_dpll", dk.serialize_dpll, v.proof)
            proof = call("parse_dpll", dk.parse_dpll, text)
            require(call("check_dpll", dk.check_dpll, (), formula, proof).valid,
                    "dpll-proof-rejected")
            res = call("dpll_to_res", dk.dpll_to_res, (), formula, proof)
            res = call("parse_res", dk.parse_res, call("serialize_res", dk.serialize_res, res))
            require(call("check_res", dk.check_res, formula, res).valid, "res-proof-rejected")
            require(dk.res_conclusion(res) == (), "res-not-refutation")
            out.dpll_nodes = call("dpll_size", dk.dpll_size, proof)
            out.res_steps = call("res_size", dk.res_size, res)
            require(out.res_steps <= out.dpll_nodes, "res-larger-than-dpll")
            out.dpll_bytes = len(text)
            out.proof = proof
    except Rejected as e:
        out.failure = f"rejected:{e}"
    except Exception as e:  # the op fails; the loop carries on
        out.failure = type(e).__name__
    end = perf_counter()
    spans.end_op(start, end)
    out.seconds = end - start
    return out


def run_decide(dk, out: Outcome, spans: Spans) -> None:
    """Decide-mode solve of the op's formula, which must agree with the
    witness verdict."""
    if out.formula is None:
        return
    start = perf_counter()
    try:
        sat = spans.call("solve_decide", dk.solve, out.formula, dk.SolverConfig(mode="decide"))
    except Exception as e:
        failure = f"decide:{type(e).__name__}"
    else:
        failure = None if out.sat is None or sat == out.sat else "rejected:decide-mismatch"
    out.decide_s = perf_counter() - start
    out.decide_ok = failure is None
    if out.failure is None:
        out.failure = failure


def proof_depth(dk, proof) -> int:
    """Maximum number of rule applications on a root-to-leaf path."""
    best = 0
    stack = [(proof, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, dk.Conflict):
            best = max(best, depth)
        elif isinstance(node, dk.Split):
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
        else:
            stack.append((node.sub, depth + 1))
    return best


def setup(workload, seed: int):
    """Import the library, build the instances and run one warm-up op."""
    # typing's caches keep every earlier copy of the library alive; drop them,
    # untimed, or repeated set-ups grow peak_rss_mb
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.collect()
    start = perf_counter()
    for name in [m for m in sys.modules if m == "dpllkit" or m.startswith("dpllkit.")]:
        del sys.modules[name]
    dk = importlib.import_module("dpllkit")
    cases, warm, probes = workload.build(dk, seed)
    insts, warm_inst, probe_insts = ([instance(dk, c) for c in cs] for cs in (cases, [warm], probes))
    out = run_op(dk, warm_inst[0], -1, NoSpans())
    if out.failure is not None:
        raise SystemExit(f"warm-up op on {warm.name} failed: {out.failure}")
    return dk, insts, probe_insts, perf_counter() - start


def instance(dk, case: Case) -> Instance:
    return Instance(case, dk.emit_dimacs(case.clauses), dk.canonical_formula(case.clauses))


@dataclass
class Phase:
    outcomes: list
    spans: Spans


def run_phase(dk, insts, seconds: float, spans: Spans, first: dict, errors: list) -> Phase:
    """Whole rounds over ``insts`` until ``seconds`` have passed; each op's
    instance is also solved in decide mode, and the host is calibrated
    before each op.  ``first`` keeps each instance's first verified outcome;
    later ops must repeat its counts exactly."""
    outcomes = []
    start = perf_counter()
    for rnd in itertools.count():
        if outcomes and perf_counter() - start >= seconds:
            break
        calibrations = []
        for i, inst in enumerate(insts):
            calibrations.append(calibrate())
            spans.start_op(len(outcomes))
            out = run_op(dk, inst, i, spans, rnd)
            run_decide(dk, out, spans)
            out.formula = None  # kept, it would grow peak_rss_mb with the op count
            if out.proof is not None:
                out.depth = first[i].depth if i in first else proof_depth(dk, out.proof)
                out.proof = None
            if out.failure is None:
                ref = first.setdefault(i, out)
                if exact(ref) != exact(out):
                    errors.append(f"{inst.case.name}: counts {exact(out)} differ from {exact(ref)}")
            outcomes.append(out)
        scale = host_scale(calibrations)
        for out in outcomes[-len(insts):]:
            out.scale = scale
    return Phase(outcomes, spans)


def exact(out: Outcome) -> tuple:
    return (out.sat, out.dpll_nodes, out.res_steps, out.dpll_bytes)


def rank_latencies(outcomes) -> list:
    """Op latencies where a failed op ranks after every verified one: its
    own time plus the slowest verified op's."""
    slowest = max((o.latency for o in outcomes if o.failure is None), default=0.0)
    return sorted(o.latency + (slowest if o.failure else 0.0) for o in outcomes)


def verified_rate(outs) -> float:
    return ratio(sum(o.failure is None for o in outs), sum(o.latency for o in outs))


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Report:
    """Metrics in order, each with its unit and an optional note (a ratio's
    base, a percentile's sample count)."""

    def __init__(self):
        self.rows: dict[str, tuple] = {}

    def add(self, name: str, value, unit: str, note: str = "") -> None:
        self.rows[name] = (value, unit, note)

    def metrics(self) -> dict:
        return {k: {"value": v, "unit": u} for k, (v, u, _) in self.rows.items()}

    def lines(self) -> list:
        return [f"metric {k} = {v:.6g} {u}" + (f"  ({n})" if n else "")
                for k, (v, u, n) in self.rows.items()]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(report: Report, phase: Phase, workload, first: dict, setup_s: list) -> None:
    outs = phase.outcomes
    ranked = rank_latencies(outs)
    tail = percentile(ranked, workload.tail_pct)
    decided = [o for o in outs if o.decide_s is not None]
    decide_s = sum(o.decide_latency for o in decided)
    unsat = [o for o in first.values() if o.sat is False]
    scales = [o.scale for o in outs]
    report.add("setup_s", statistics.median(setup_s), "s", f"median of {len(setup_s)} set-ups")
    report.add("verified_per_s", verified_rate(outs), "1/s",
               f"{sum(o.failure is None for o in outs)} verified / {sum(o.latency for o in outs):.3f} s "
               f"of ops in {outs[-1].round + 1} rounds")
    report.add("verify_p50_s", statistics.median(ranked), "s",
               f"{len(ranked)} ops; uncorrected {statistics.median(o.seconds for o in outs):.4g} s, "
               f"host scale {min(scales):.3f}..{max(scales):.3f}")
    report.add("verify_tail_s", tail, "s",
               f"p{workload.tail_pct} of {len(ranked)} ops, {sum(1 for x in ranked if x > tail)} beyond")
    report.add("decide_per_s", ratio(sum(o.decide_ok for o in decided), decide_s), "1/s",
               f"{sum(o.decide_ok for o in decided)} agreeing decide solves / {decide_s:.3f} s")
    report.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    report.add("dpll_nodes", sum(o.dpll_nodes for o in unsat), "count", f"{len(unsat)} unsat instances")
    report.add("res_steps", sum(o.res_steps for o in unsat), "count", f"{len(unsat)} unsat instances")


def per_layer(report: Report, dk, insts, plain: Phase, traced: Phase, first: dict, errors: list) -> None:
    rows = traced.spans.rows
    durs: dict[str, list] = {}
    child_s: Counter = Counter()
    for sid, name, start, end, parent, op in rows:
        dur = (end - start) * traced.outcomes[op].scale
        durs.setdefault(name, []).append(dur)
        if parent is not None:
            child_s[parent] += dur
    self_s: Counter = Counter()
    for sid, name, start, end, parent, op in rows:
        self_s[LAYER[name]] += (end - start) * traced.outcomes[op].scale - child_s[sid]

    def mean(name):
        return statistics.fmean(durs[name]) if name in durs else 0.0

    def total(name):
        return sum(durs.get(name, ()))

    n_ops = len(traced.outcomes)
    unsat = [o for o in first.values() if o.sat is False]
    nodes = sum(o.dpll_nodes for o in unsat)
    steps = sum(o.res_steps for o in unsat)
    checked = [o for o in traced.outcomes if o.failure is None and o.sat is False]
    counts, solved = rule_counts(dk, insts, errors)

    report.add("solver.solve_s", mean("solve"), "s", f"mean of {len(durs.get('solve', ()))} calls")
    report.add("solver.decide_s", mean("solve_decide"), "s")
    report.add("solver.share", ratio(total("solve"), total("op")), "ratio",
               f"{total('solve'):.3f} s solve / {total('op'):.3f} s of ops")
    for rule in ("steps",) + RULES:
        name = "steps" if rule == "steps" else rule + "s"
        report.add(f"solver.{name}", counts[rule], "count", f"{solved} instances")
    emitting = sum(counts[r] for r in RULES if r != "move")
    report.add("solver.emit_ratio", ratio(emitting, counts["steps"]), "ratio",
               f"{emitting} proof-emitting / {counts['steps']} steps")
    report.add("dpll_proof.check_s", mean("check_dpll"), "s")
    checked_nodes = sum(o.dpll_nodes for o in checked)
    report.add("dpll_proof.nodes_per_s", ratio(checked_nodes, total("check_dpll")), "1/s",
               f"{checked_nodes} nodes / {total('check_dpll'):.3f} s")
    report.add("dpll_proof.depth", max((o.depth for o in unsat), default=0), "count")
    report.add("resolution.translate_s", mean("dpll_to_res"), "s")
    report.add("resolution.translate_self_s", mean("dpll_to_res") - mean("check_dpll"), "s",
               "translate_s - dpll_proof.check_s")
    report.add("resolution.check_s", mean("check_res"), "s")
    report.add("resolution.shrink", ratio(steps, nodes), "ratio", f"{steps} res steps / {nodes} dpll nodes")
    report.add("proof_text.ser_dpll_s", mean("serialize_dpll"), "s")
    report.add("proof_text.parse_dpll_s", mean("parse_dpll"), "s")
    report.add("proof_text.ser_res_s", mean("serialize_res"), "s")
    report.add("proof_text.parse_res_s", mean("parse_res"), "s")
    report.add("proof_text.dpll_bytes", sum(o.dpll_bytes for o in unsat), "count",
               f"{len(unsat)} unsat instances")
    parsed = sum(o.dpll_bytes for o in checked)
    report.add("proof_text.parse_dpll_mb_per_s", ratio(parsed / 1e6, total("parse_dpll")), "MB/s",
               f"{parsed} bytes / {total('parse_dpll'):.3f} s")
    report.add("dimacs.parse_s", mean("parse_dimacs"), "s")
    report.add("dimacs.bytes", sum(len(i.text) for i in insts), "count", f"{len(insts)} instances")
    report.add("cnf.evaluate_s", mean("evaluate"), "s")
    for layer in sorted(set(LAYER.values())):
        report.add(f"{layer}.self_s", ratio(self_s[layer], n_ops), "s", f"per op, {n_ops} ops")
    plain_rate, traced_rate = (verified_rate(p.outcomes) for p in (plain, traced))
    report.add("trace.overhead", ratio(traced_rate, plain_rate) - 1, "ratio",
               f"{traced_rate:.4f} traced / {plain_rate:.4f} untraced verified_per_s")


def rule_counts(dk, insts, errors: list):
    """Rule counts from one untimed trace-mode solve per instance."""
    counts = Counter()
    solved = 0
    for inst in insts:
        try:
            log = dk.solve(inst.formula, dk.SolverConfig(trace=True)).trace
        except Exception as e:
            errors.append(f"{inst.case.name}: trace solve raised {type(e).__name__}")
            continue
        counts.update(log)
        counts["steps"] += len(log)
        solved += 1
    return counts, solved


def probe(dk, probes) -> list:
    """Run each probe instance once, untimed, and record how it ends."""
    rows = []
    for i, inst in enumerate(probes):
        out = run_op(dk, inst, i, NoSpans())
        rows.append({"name": inst.case.name, "outcome": out.failure or "verified",
                     "seconds": out.seconds})
    return rows


def source_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("dpllkit/*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return r.stdout.strip() if r.returncode == 0 else None


def cross_run_check(path: Path, fingerprint: str, counts: dict, errors: list) -> None:
    """Exact counts must repeat between runs of the same code and seed."""
    old = json.loads(path.read_text()) if path.exists() else {}
    if old.get("fingerprint") == fingerprint:
        for k in counts.keys() & old["counts"].keys():
            if counts[k] != old["counts"][k]:
                errors.append(f"{k} = {counts[k]} differs from {old['counts'][k]} of an earlier run")
        counts = {**old["counts"], **counts}
    path.write_text(json.dumps({"fingerprint": fingerprint, "counts": counts}, indent=1))


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    setup_s = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        dk, insts, probes, secs = setup(workload, args.seed)
        setup_s.append(secs * host_scale([before, calibrate()]))
    first: dict = {}
    errors: list = []
    report = Report()
    if args.trace:
        plain = run_phase(dk, insts, args.seconds / 2, NoSpans(), first, errors)
        traced = run_phase(dk, insts, args.seconds / 2, Spans(), first, errors)
        per_layer(report, dk, insts, plain, traced, first, errors)
        phases = [plain, traced]
    else:
        phases = [run_phase(dk, insts, args.seconds, NoSpans(), first, errors)]
        end_to_end(report, phases[0], workload, first, setup_s)
    probes_out = probe(dk, probes)

    outcomes = [o for p in phases for o in p.outcomes]
    failures = Counter(o.failure for o in outcomes if o.failure)
    missing = [insts[i].case.name for i in range(len(insts)) if i not in first]
    if missing:
        errors.append(f"never verified: {', '.join(missing)}")
    exact_counts = {k: v for k, (v, unit, _) in report.rows.items() if unit == "count"}
    RESULTS.mkdir(exist_ok=True)
    fingerprint = source_fingerprint()
    stem = f"{workload.name}-seed{args.seed}"
    cross_run_check(RESULTS / f"{stem}.counts.json", fingerprint, exact_counts, errors)

    meta = {
        "workload": workload.name, "why": workload.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "git_commit": git_commit(),
        "source_sha256": fingerprint, "nproc": os.cpu_count(),
        "instances": [{"name": i.case.name, "params": i.case.params, "expect": i.case.expect,
                       "dimacs_sha256": i.sha256, "dimacs_bytes": len(i.text)} for i in insts],
    }
    attempted = len(outcomes)
    result = {
        "meta": meta, "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in report.rows.items()},
        "attempted": attempted, "failed": sum(failures.values()),
        "fail_ratio": ratio(sum(failures.values()), attempted), "failures": dict(failures),
        "errors": errors, "probes": probes_out,
        "ops": [[insts[o.index].case.name, o.round, o.seconds, o.decide_s, o.scale, o.failure]
                for o in outcomes],
        "per_instance": [{"name": insts[i].case.name, "verdict": "sat" if o.sat else "unsat",
                          "dpll_nodes": o.dpll_nodes, "res_steps": o.res_steps,
                          "dpll_bytes": o.dpll_bytes, "depth": o.depth} for i, o in sorted(first.items())],
    }
    (RESULTS / f"{stem}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    if args.trace:
        with open(RESULTS / f"{stem}.spans.jsonl", "w") as f:
            for sid, name, start, end, parent, op in phases[1].spans.rows:
                f.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")

    print(f"# evbench {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"python={meta['python']} nproc={meta['nproc']} commit={meta['git_commit']} "
          f"source={fingerprint[:16]}")
    for i in insts:
        print(f"# instance {i.case.name} {json.dumps(i.case.params)} sha256={i.sha256}")
    for p in probes_out:
        print(f"# probe {p['name']}: {p['outcome']} after {p['seconds']:.3f} s")
    print(f"# ops attempted={attempted} failed={result['failed']} "
          f"fail_ratio={result['fail_ratio']:.4g} failures={dict(failures)}")
    for e in errors:
        print(f"# error {e}")
    for line in report.lines():
        print(line)
    print(json.dumps({"correct": not failures and not errors, "attempted": attempted,
                      "failed": result["failed"], "metrics": report.metrics()}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            status |= subprocess.run(cmd, timeout=600).returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dpllkit" / "__init__.py").is_file():
        print(f"error: no dpllkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run(args)


if __name__ == "__main__":
    sys.exit(main())
