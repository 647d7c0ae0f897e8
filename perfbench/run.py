"""masim benchmark: closed-loop CLI workloads, end to end and layer by layer.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     # every workload in turn

One process runs a workload as a closed loop: each operation is one
``masim`` CLI invocation (``masim.cli.main(argv)``) in a fresh child process
(``perfbench/op.py``), one child at a time, and the next starts only when
the previous one has ended. Every operation gets ``--seed N`` and writes its
report under ``perfbench/out/``. The loop cycles over the workload's
operations; once every operation ran, it stops at the operation boundary
nearest to ``--seconds``.

Host metrics (the simulator's own wall-clock and memory) are medians per
operation over the run; the gated host times are scaled to a nominal host
speed measured in the same child (see ``scaled``). Simulated metrics (the
modelled hardware) must repeat exactly, and any report that differs from
its operation's first report (``created_at`` removed) counts as a failed,
incorrect operation.
An operation fails on a nonzero exit, a report check that is false, an
exception, or an unreadable report. ``correct`` is false when an output is
wrong (oracle or tile check, exit status disagreeing with the checks, a
nondeterministic report, an exception, an exit status other than 0 or 1);
a simulated time outside the model's bounds fails the operation but is a
model-fidelity result, not a wrong output.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every
visit twice, untraced and traced, and prints the per-layer metrics: self
seconds of each wrapped function (duration minus wrapped children), call
counts, simulated counts read from every returned ``SimReport`` and from
the reports, and the tracing overhead (traced minus untraced wall-clock of
the same visit, median per operation).
Spans are written to ``perfbench/out/<workload>/spans/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OP = BENCH / "op.py"
RUN_LIMIT_S = 170.0           # a run always ends within 180 s
BLAS_THREADS = 1              # one child at a time; keeps BLAS off the other core
SETUP_PROBES = 3              # import-only children per run, besides one per op
CALIB_REF_S = 0.15            # host times are scaled to a host where calibrate() takes this

PRESETS = ["conv-1", "conv-2", "conv-3", "conv-4", "conv-5", "fc-6", "fc-7", "fc-8"]
EXPLORE = ["explore", "--simulate", "--fast-numerics"]


@dataclass(frozen=True)
class Workload:
    why: str            # one line, as recorded in BENCHMARK.json
    ops: tuple          # masim argv per operation, without --seed and --out


WORKLOADS = {
    "alexnet-auto": Workload(
        "run --auto on all 8 AlexNet presets, the user's whole-network path; "
        "exact numerics (mpe.simulate_block) does about 92% of the work",
        tuple(("run", "--preset", p, "--auto") for p in PRESETS)),
    "explore-conv": Workload(
        "explore --simulate --fast-numerics on conv-1..5: the timing engine "
        "(simulator, wqm, mac) does most of the work; only workload measuring "
        "pick quality",
        tuple((*EXPLORE, "--preset", p) for p in PRESETS[:5])),
    "explore-shared": Workload(
        "explore-conv with --contention shared_port: same timing code used "
        "another way (one port, 2.7x the arbiter calls); every op exits 1 "
        "today (bounds)",
        tuple((*EXPLORE, "--preset", p, "--contention", "shared_port")
              for p in PRESETS[:5])),
    "fc6-verified": Workload(
        "fc-6 --auto --fast-numerics with the oracle forced on: the float64 "
        "k-loop oracle (blockmm.reference_gemm) is about 93% of the run and "
        "sets peak RSS",
        (("run", "--preset", "fc-6", "--auto", "--fast-numerics",
          "--verify-cutoff", "1000000000000"),)),
}

# Functions traced with --trace 1: where the caller looks the name up, and
# the span (layer.function) it is recorded under.
WRAPS = (
    ("masim.cli:build_matrices", "cli.build_matrices"),
    ("masim.cli:run_mpe", "simulator.run_mpe"),
    ("masim.cli:reference_gemm", "blockmm.reference_gemm"),
    ("masim.simulator:simulate_block", "mpe.simulate_block"),
    ("masim.simulator:make_tile", "blockmm.make_tile"),
    ("masim.wqm:partition_workload", "wqm.partition_workload"),
    ("masim.wqm:arbitrate", "wqm.arbitrate"),
    ("masim.mac:plan_for_tile", "mac.plan_for_tile"),
    ("masim.model:explore", "model.explore"),
    ("masim.model:bounds", "model.bounds"),
)

# (name, unit, better) -- the end-to-end metrics gated by BENCHMARK.json.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_gflops", "GFLOP/s", "higher"),
)
# Printed in the table and written to the result file, not gated: the
# unscaled host times, and simulated quality metrics that apply to some
# workloads only.
UNGATED = (
    ("wall_raw_s", "s", "lower"),
    ("setup_raw_s", "s", "lower"),
    ("calib_s", "s", "lower"),
    ("failed_ops", "share", "lower"),
    ("pick_loss_pct", "%", "lower"),
    ("oracle_max_rel_err", "ratio", "lower"),
    ("verified_share", "share", "higher"),
)
# (name, unit, better) -- every "_s" time is a self time in host seconds and
# every "_share" its share of the traced wall-clock; a function that some
# workload never calls is given as a share, since a time that reads 0 on
# every run looks like no measurement. Counts of work done are better lower.
PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("cli.build_matrices_s", "s", "lower"),
    ("simulator.self_s", "s", "lower"),
    ("simulator.events", "count", "lower"),
    ("simulator.host_us_per_event", "us", "lower"),
    ("mpe.simulate_block_share", "share", "lower"),
    ("mpe.simulate_block_calls", "count", "lower"),
    ("mpe.utilisation", "share", "higher"),
    ("mpe.stall_share", "share", "lower"),
    ("blockmm.reference_gemm_share", "share", "lower"),
    ("blockmm.reference_gemm_calls", "count", "lower"),
    ("blockmm.make_tile_s", "s", "lower"),
    ("blockmm.make_tile_calls", "count", "lower"),
    ("wqm.partition_workload_s", "s", "lower"),
    ("wqm.arbitrate_s", "s", "lower"),
    ("wqm.arbitrate_calls", "count", "lower"),
    ("wqm.steals", "count", "lower"),
    ("mac.plan_for_tile_s", "s", "lower"),
    ("mac.plan_for_tile_calls", "count", "lower"),
    ("mac.bytes_moved", "B", "lower"),
    ("model.explore_s", "s", "lower"),
    ("model.bounds_s", "s", "lower"),
    ("model.bounds_calls", "count", "lower"),
    ("model.bounds_violations", "count", "lower"),
    ("model.bound_position", "share", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
BOUND_CHECKS = {"bounds_ok", "in_bounds"}      # model fidelity, not output correctness


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no masim sources, say)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def launch(args: list[str], result: Path, deadline: float) -> dict:
    """Run op.py once; return its result dict plus stderr and the child status."""
    result.unlink(missing_ok=True)
    try:
        proc = subprocess.run([sys.executable, str(OP), "--result", str(result), *args],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "operation timed out", "stderr": ""}
    try:
        out = json.loads(result.read_text())
    except (OSError, ValueError):
        tail = proc.stderr.strip().splitlines()
        out = {"error": f"no result (status {proc.returncode}): "
                        + (tail[-1] if tail else "")}
    out["stderr"] = proc.stderr
    return out


def probe_setup(work: Path, deadline: float) -> dict:
    """Import masim.cli in a fresh child; fail unless it comes from this checkout."""
    res = launch([], work / "probe.json", deadline)
    src = str(ROOT / "src") + os.sep
    if "error" in res or not res.get("module_file", "").startswith(src):
        raise SetupError(f"masim.cli does not import from {src}: "
                         f"{res.get('error') or res.get('module_file')}")
    return res


def read_report(path: Path, command: str) -> dict:
    """Checks, digest and simulated quality of one operation's report."""
    data = json.loads(path.read_text())
    if command == "run":
        data.pop("created_at", None)
        checks, sim, est = data["checks"], data["sim"], data["estimate"]
        false = [k for k, v in checks.items() if v is False]
        info = {"gflops": sim["gflops"],
                "positions": [position(sim["time_seconds"], est)],
                "violations": int(checks.get("bounds_ok") is False),
                "verified": checks.get("oracle_ok") is not None,
                "rel_err": checks.get("max_rel_error")}
    else:
        rows = data["entries"]
        best = min(r["measured_seconds"] for r in rows)
        out_of_bounds = sum(r["in_bounds"] is False for r in rows)
        false = ["in_bounds"] if out_of_bounds else []
        info = {"gflops": rows[0]["measured_gflops"],
                "positions": [position(r["measured_seconds"], r) for r in rows],
                "violations": out_of_bounds,
                "pick_loss_pct": 100.0 * (rows[0]["measured_seconds"] / best - 1.0)}
    info["false_checks"] = false
    info["digest"] = hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()).hexdigest()
    return info


def position(seconds: float, est: dict) -> float:
    """Where a simulated time falls between the bounds: 0 lower, 1 upper."""
    span = est["upper_seconds"] - est["lower_seconds"]
    return (seconds - est["lower_seconds"]) / span if span > 0 else 0.0


def judge(sample: dict, op: dict) -> tuple[str | None, bool]:
    """(failure message or None, whether the outputs are wrong) for one sample."""
    if sample.get("error"):
        return sample["error"], True
    if sample.get("exit") not in (0, 1):
        tail = sample.get("stderr", "").strip().splitlines()
        return f"exit {sample.get('exit')}: {tail[-1] if tail else ''}", True
    report = sample["report"]
    if report is None:
        return sample["report_error"], True
    false = report["false_checks"]
    if (sample["exit"] == 1) != bool(false):
        return f"exit {sample['exit']} but false checks {false}", True
    first, first_counts = op["first"], op["first_counts"]
    if ((first is not None and report["digest"] != first["digest"])
            or (first_counts is not None and counts(sample) not in (None, first_counts))):
        return "simulated results differ from the first run of this operation", True
    if false:
        return f"check failure: {', '.join(false)}", bool(set(false) - BOUND_CHECKS)
    return None, False


def counts(sample: dict) -> dict | None:
    """Simulated counts and calls per span of a traced sample; None if untraced."""
    if "layers" not in sample:
        return None
    return {**(sample.get("sim") or {}),
            "calls": {span: rec["calls"] for span, rec in sample["layers"].items()}}


def run_workload(name: str, workload: Workload, *, seed: int, seconds: float,
                 trace: bool, out_dir: Path, wraps=WRAPS) -> dict:
    """Run one workload as a closed loop; return its metrics and op records."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    work = out_dir / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "spans").mkdir(parents=True)
    probes = [probe_setup(work, deadline) for _ in range(SETUP_PROBES)]
    children = list(probes)         # every child's setup_s and calib_s
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "numpy": probes[0]["numpy"], "blas_threads": BLAS_THREADS}
    wrap_args = [a for target, span in wraps for a in ("--wrap", f"{target}={span}")]

    ops = [{"argv": list(argv), "untraced": [], "traced": [], "visit_s": [],
            "first": None, "first_counts": None} for argv in workload.ops]
    attempted = failed = 0
    wrong: list[str] = []
    visit = 0
    while True:
        i = visit % len(ops)
        op = ops[i]
        now = time.monotonic()
        # Once every operation ran, stop at the visit boundary nearest to
        # `seconds`, judged by this operation's earlier visits.
        if visit >= len(ops) and now - start + statistics.median(op["visit_s"]) / 2 > seconds:
            break
        if now >= deadline:
            wrong.append(f"run limit of {RUN_LIMIT_S:.0f} s reached")
            break
        report = work / f"op{i}.json"
        argv = [*op["argv"], "--seed", str(seed), "--out", str(report)]
        # Traced runs alternate which of the pair goes first, so neither
        # side of the tracing overhead always follows the other.
        order = (False, True) if visit // len(ops) % 2 == 0 else (True, False)
        for traced in order if trace else (False,):
            extra = ["--spans", str(work / "spans" / f"op{i}.csv"), *wrap_args] \
                if traced else []
            report.unlink(missing_ok=True)
            sample = launch([*extra, "--", *argv], work / f"op{i}.result.json", deadline)
            try:
                sample["report"] = read_report(report, argv[0])
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                sample["report"] = None
                sample["report_error"] = f"unreadable report: {type(exc).__name__}: {exc}"
            message, bad = judge(sample, op)
            if op["first"] is None:
                op["first"] = sample["report"]
            if op["first_counts"] is None:
                op["first_counts"] = counts(sample)
            attempted += 1
            if message:
                failed += 1
                sample["failure"] = message
            if bad:
                wrong.append(f"{' '.join(op['argv'])}: {message}")
            if "calib_s" in sample:
                children.append(sample)
            op["traced" if traced else "untraced"].append(sample)
        op["visit_s"].append(time.monotonic() - now)
        visit += 1

    return {"workload": name, "seed": seed, "trace": trace, "machine": machine,
            "correct": not wrong, "attempted": attempted, "failed": failed,
            "problems": wrong, "ops": ops,
            "metrics": metrics(ops, children, trace, attempted, failed)}


def med(samples: list[dict], key) -> float | None:
    values = [key(s) for s in samples]
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def scaled(sample: dict, key: str) -> float | None:
    """A host time of one child at nominal host speed: key / calib_s * CALIB_REF_S.

    calibrate() runs in the same child right after the operation, so the
    ratio takes out the swings in the speed of a shared host (up to 35%
    over tens of minutes on 2 shared vCPUs), which a median over one run
    cannot.
    """
    if key not in sample or "calib_s" not in sample:
        return None
    return sample[key] / sample["calib_s"] * CALIB_REF_S


def metrics(ops, children, trace: bool, attempted: int, failed: int) -> dict:
    """Every metric the run can give: end to end, ungated, and per layer if traced."""
    wall_raw = sum(med(op["untraced"], lambda s: s.get("wall_s")) or 0.0 for op in ops)
    reports = [op["first"] for op in ops if op["first"] is not None]
    gflops = [r["gflops"] for r in reports if r["gflops"] > 0]
    m = {
        "wall_s": sum(med(op["untraced"], lambda s: scaled(s, "wall_s")) or 0.0
                      for op in ops),
        "setup_s": med(children, lambda s: scaled(s, "setup_s")),
        "peak_rss_mb": max(med(op["untraced"], lambda s: s.get("rss_mb")) or 0.0
                           for op in ops),
        "sim_gflops": statistics.geometric_mean(gflops) if gflops else 0.0,
        "wall_raw_s": wall_raw,
        "setup_raw_s": med(children, lambda s: s["setup_s"]),
        "calib_s": med(children, lambda s: s["calib_s"]),
        "failed_ops": failed / attempted if attempted else 1.0,
    }
    losses = [r["pick_loss_pct"] for r in reports if "pick_loss_pct" in r]
    if losses:
        m["pick_loss_pct"] = statistics.fmean(losses)
    runs = [r for r in reports if "verified" in r]
    if runs:
        m["verified_share"] = sum(r["verified"] for r in runs) / len(runs)
        errors = [r["rel_err"] for r in runs if r["rel_err"] is not None]
        if errors:
            m["oracle_max_rel_err"] = max(errors)
    if not trace:
        return m

    def layer_s(span):
        return sum(med(op["traced"], lambda s: s.get("layers", {}).get(span, {})
                       .get("self_s", 0.0)) or 0.0 for op in ops)

    def sim(key):
        return sum((op["first_counts"] or {}).get(key, 0) for op in ops)

    def calls(span):
        return sum((op["first_counts"] or {}).get("calls", {}).get(span, 0) for op in ops)

    traced_wall = sum(med(op["traced"], lambda s: s.get("wall_s")) or 0.0 for op in ops)
    positions = [p for r in reports for p in r["positions"]]
    busy = sim("compute_cycles") + sim("stall_cycles") + sim("prefetch_cycles")
    sim_self = layer_s("simulator.run_mpe")
    m.update({
        "cli.self_s": layer_s("cli.main"),
        "cli.build_matrices_s": layer_s("cli.build_matrices"),
        "simulator.self_s": sim_self,
        "simulator.events": sim("events"),
        "simulator.host_us_per_event": (1e6 * sim_self / sim("events")
                                        if sim("events") else 0.0),
        "mpe.utilisation": (sim("compute_cycles") / sim("array_cycles")
                            if sim("array_cycles") else 0.0),
        "mpe.stall_share": sim("stall_cycles") / busy if busy else 0.0,
        "wqm.steals": sim("steals"),
        "mac.bytes_moved": sim("bytes"),
        "model.bounds_violations": sum(r["violations"] for r in reports),
        "model.bound_position": statistics.median(positions) if positions else 0.0,
        "trace.self_sum_s": sum(
            med(op["traced"], lambda s: sum(v["self_s"] for v in s["layers"].values())
                if "layers" in s else None) or 0.0 for op in ops),
        # Paired by visit, so drift of the host between visits cancels.
        "trace.overhead_s": sum(
            statistics.median(t["wall_s"] - u["wall_s"] for t, u in pairs)
            for op in ops
            if (pairs := [(t, u) for t, u in zip(op["traced"], op["untraced"])
                          if "wall_s" in t and "wall_s" in u])),
    })
    for name, _, _ in PER_LAYER:
        if name not in m:
            span, _, field = name.rpartition("_")
            if field == "share":
                m[name] = layer_s(span) / traced_wall if traced_wall else 0.0
            else:
                m[name] = layer_s(span) if field == "s" else calls(span)
    return m


def table(result: dict) -> str:
    """Human-readable summary of one run: metrics with units, ops, failures."""
    m = result["metrics"]
    rows = list(END_TO_END) + list(UNGATED)
    if result["trace"]:
        rows += list(PER_LAYER)
    lines = [f"== {result['workload']} (seed {result['seed']}, "
             f"trace {int(result['trace'])}): {result['attempted']} ops attempted, "
             f"{result['failed']} failed, correct={result['correct']}"]
    for name, unit, _ in rows:
        value = m.get(name)
        text = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<30} {text:>14} {unit}")
    for op in result["ops"]:
        walls = [s["wall_s"] for s in op["untraced"] if "wall_s" in s]
        spread = f"{min(walls):.3f}..{max(walls):.3f}" if walls else "-"
        sim = f"{op['first']['gflops']:.1f} GFLOP/s" if op["first"] else "no report"
        lines.append(f"  op {' '.join(op['argv']):<70} n={len(walls)} wall {spread} s, "
                     f"simulated {sim}")
    if result["trace"]:
        selves = m["trace.self_sum_s"]
        residual = selves - m["wall_raw_s"] - m["trace.overhead_s"]
        lines.append(f"  accounting: layer self times sum to {selves:.4f} s = untraced "
                     f"wall {m['wall_raw_s']:.4f} s + tracing overhead "
                     f"{m['trace.overhead_s']:.4f} s + residual {residual:.4f} s")
        missing = sorted({n for op in result["ops"] for s in op["traced"]
                          for n in s.get("missing", ())})
        if missing:
            lines.append(f"  wrapped names not found (zero calls): {', '.join(missing)}")
    for problem in result["problems"][:10]:
        lines.append(f"  incorrect: {problem}")
    return "\n".join(lines)


def summary_line(result: dict) -> str:
    rows = PER_LAYER if result["trace"] else END_TO_END
    units = {n: u for n, u, _ in rows}
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n], "unit": units[n]} for n in units},
    })


def save(result: dict, out_dir: Path):
    path = out_dir / result["workload"] / f"result-trace{int(result['trace'])}.json"
    slim = dict(result)
    slim["ops"] = [{"argv": op["argv"],
                    "samples": [{k: v for k, v in s.items() if k != "stderr"}
                                for s in op["untraced"] + op["traced"]]}
                   for op in result["ops"]]
    path.write_text(json.dumps(slim, indent=1, default=str) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    out_dir = BENCH / "out"
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            result = run_workload(name, WORKLOADS[name], seed=args.seed,
                                  seconds=args.seconds, trace=bool(args.trace),
                                  out_dir=out_dir)
            save(result, out_dir)
            print(table(result), flush=True)
            results.append(result)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(summary_line(results[0]))
    else:
        combined = [json.loads(summary_line(r)) for r in results]
        print(json.dumps({
            "correct": all(c["correct"] for c in combined),
            "attempted": sum(c["attempted"] for c in combined),
            "failed": sum(c["failed"] for c in combined),
            "metrics": {f"{r['workload']}.{k}": v for r, c in zip(results, combined)
                        for k, v in c["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
