"""Command-line front end: single runs, design-space sweeps, calibration.

Subcommands:

  run        simulate one problem at one design point (or --auto) and
             write a JSON report with the model estimate, per-array
             statistics, steal log and check results
  explore    rank all feasible design points for a problem; optionally
             simulate each point and compare against the bounds
  calibrate  validate a measured bandwidth table and store it for reuse

The simulator only schedules: given the problem shape, the design point
and the machine, as the model is, it rejects an infeasible point, deals
the tiles and arbitrates steals itself, and it never reads matrix data.
After the schedule, run checks the output on the seeded matrices against
a float64 reference (blockmm.verified_output), strip by strip, and keeps
only the error: no strip of the output outlives its check. When the
oracle is skipped the output is not computed, so nothing is drawn;
explore draws nothing.

One mpe.Machine, built from --p/--pm/--freq/--stage/--bw-model/--contention,
is handed to every model and simulator call of a command.

Reports are deterministic for a fixed configuration and seed (only the
created_at field varies): every run computes its output with the one
k-ordered kernel and its max_rel_error against a float64 reference summed
in ascending k, and no bit of either depends on the core count, on
whether the compiled library can be had, or on BLAS, which a run never
calls; --fast-numerics is accepted but changes nothing. Exit status is 0 on
success, 1 when any check fails, 2 for infeasible or invalid
configurations (a simulated time too long to count in cycles included),
for input or output files that cannot be opened and for a problem too
large for memory.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from . import blockmm, mac, model
from .mpe import CONTENTION_MODES, InfeasibleBlockError, Machine
from .presets import LAYER_PRESETS
from .simulator import run_mpe

LOWER_BOUND_SLACK = 1e-3      # tolerated relative shortfall against the lower bound
UPPER_BOUND_GUARD = 1e-9      # absorbs addition-order ULPs when a run has no overlap
                              # at all and lands exactly on the upper bound
ORACLE_RTOL = 1e-4


class CliError(Exception):
    """Configuration problem reported to the user (exit status 2)."""


def bounds_ok(estimate: model.ModelEstimate, seconds: float) -> bool:
    """A simulated time lies between the model's bounds, give or take
    LOWER_BOUND_SLACK below and UPPER_BOUND_GUARD above."""
    return bool(estimate.lower_seconds * (1.0 - LOWER_BOUND_SLACK) <= seconds
                <= estimate.upper_seconds * (1.0 + UPPER_BOUND_GUARD))


def checked(kind, ok, what: str):
    """argparse type: kind(text), rejected unless ok(value) holds."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    parse.__name__ = kind.__name__      # argparse says "invalid int value"
    return parse


positive_int = checked(int, lambda v: v >= 1, "a positive integer")
nonnegative_int = checked(int, lambda v: v >= 0, "a non-negative integer")
positive_float = checked(float, lambda v: 0 < v < float("inf"),
                         "a positive finite number")


def candidate_list(text: str) -> list[int]:
    """argparse type for --candidates: comma-separated positive integers."""
    return [positive_int(c) for c in text.split(",")]


def parse_shape(text: str) -> tuple[int, int, int]:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise CliError(f"shape must look like MxKxN, got {text!r}")
    try:
        m, k, n = (int(p) for p in parts)
    except ValueError as exc:
        raise CliError(f"shape must be three integers, got {text!r}") from exc
    if min(m, k, n) < 1:
        raise CliError(f"shape dimensions must be >= 1, got {text!r}")
    return m, k, n


def resolve_shape(args) -> tuple[str, model.ProblemShape]:
    if args.preset is not None and args.shape is not None:
        raise CliError("give either --shape or --preset, not both")
    if args.preset is not None:
        if args.preset not in LAYER_PRESETS:
            raise CliError(f"unknown preset {args.preset!r}; "
                           f"choose from {', '.join(LAYER_PRESETS)}")
        m, k, n = LAYER_PRESETS[args.preset]
        return args.preset, model.ProblemShape(m, k, n)
    if args.shape is not None:
        m, k, n = parse_shape(args.shape)
        return args.shape, model.ProblemShape(m, k, n)
    raise CliError("a problem is required: --shape MxKxN or --preset NAME")


def resolve_bw_model(spec: str):
    if spec == "ideal":
        return mac.IdealBandwidth()
    if spec == "parametric":
        return mac.ParametricBandwidth()
    if spec.startswith("parametric:"):
        fields = spec.split(":", 1)[1].split(",")
        if len(fields) != 3:
            raise CliError(
                "parametric bandwidth spec is parametric:peak_bps,latency_elems,contention")
        try:
            peak, l0, alpha = (float(f) for f in fields)
            return mac.ParametricBandwidth(peak, l0, alpha)
        except ValueError as exc:
            raise CliError(f"bad parametric bandwidth spec {spec!r}: {exc}") from exc
    try:
        return mac.TableBandwidth.from_csv(spec)
    except FileNotFoundError as exc:
        raise CliError(f"bandwidth model {spec!r} is neither a keyword nor a file") from exc
    except ValueError as exc:       # a mac.CalibrationError or a non-number
        raise CliError(f"bad calibration {spec!r}: {exc}") from exc


def resolve_machine(args) -> Machine:
    """The one machine every call of this command sees."""
    return Machine(pes_per_base=args.p, max_arrays=args.pm, f_acc=args.freq,
                   fmac_stages=args.stage, bw_model=resolve_bw_model(args.bw_model),
                   contention=args.contention)


def resolve_point(args, shape: model.ProblemShape, machine: Machine) -> model.DesignPoint:
    if args.auto:
        if args.np is not None or args.si is not None or args.sj is not None:
            raise CliError("--auto replaces --np/--si/--sj")
        return model.explore(shape, machine)[0].point
    if args.np is None or args.si is None:
        raise CliError("a design point is required: --np and --si, or --auto")
    return model.DesignPoint(args.np, args.si, args.sj)


def oracle_skip_reason(args, shape: model.ProblemShape) -> str | None:
    """The flag that turns the oracle check off for this run, if any."""
    if args.no_verify:
        return "--no-verify"
    if args.verify_cutoff is not None \
            and shape.m * shape.depth * shape.n > args.verify_cutoff:
        return "--verify-cutoff"
    return None


def report_dict(args, machine, label, shape, point, estimate, sim, checks) -> dict:
    # vars: a dataclass's fields in order, shallow (dataclasses.asdict deep-copies)
    return {
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": {
            "problem": label,
            "m": shape.m, "depth": shape.depth, "n": shape.n,
            "n_arrays": point.n_arrays,
            "block_rows": point.block_rows,
            "block_cols": point.block_cols,
            "pes_per_base": machine.pes_per_base,
            "max_arrays": machine.max_arrays,
            "f_acc": machine.f_acc,
            "fmac_stages": machine.fmac_stages,
            "bw_model": args.bw_model,
            "seed": args.seed,
            "steal": not args.no_steal,
            "contention": machine.contention,
            "numerics": "exact",
        },
        "estimate": vars(estimate)
        | {"peak_gflops": machine.peak_gflops},
        "sim": {
            "time_seconds": sim.time_seconds,
            "time_with_drain_seconds": sim.time_with_drain_seconds,
            "total_cycles": sim.total_cycles,
            "gflops": sim.gflops,
            "tile_count": sim.tile_count,
        },
        "arrays": [vars(s) for s in sim.arrays],
        "steal_events": [vars(e) for e in sim.steal_events],
        "checks": checks,
    }


def cmd_run(args) -> int:
    label, shape = resolve_shape(args)
    machine = resolve_machine(args)
    point = resolve_point(args, shape, machine)

    sim = run_mpe(shape, point, machine, steal=not args.no_steal,
                  trace_path=args.trace)
    estimate = model.bounds(shape, point, machine)

    checks: dict = {}
    checks["bounds_ok"] = bounds_ok(estimate, sim.time_seconds)
    skipped = oracle_skip_reason(args, shape)
    if skipped:
        # Nothing but the oracle reads the output, so it is not computed.
        checks["oracle_ok"] = None
        checks["max_rel_error"] = None
        checks["oracle_skipped"] = skipped
    else:
        rel = blockmm.verified_output(shape, args.seed)
        checks["max_rel_error"] = rel
        checks["oracle_ok"] = bool(rel <= ORACLE_RTOL)
    checks["tiles_ok"] = bool(
        sum(s.blocks_executed for s in sim.arrays) == sim.tile_count)

    report = report_dict(args, machine, label, shape, point, estimate, sim, checks)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)

    failed = [k for k, v in checks.items() if v is False]
    if failed:
        print(f"check failure: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_explore(args) -> int:
    label, shape = resolve_shape(args)
    machine = resolve_machine(args)
    ranked = model.explore(shape, machine, args.candidates)

    rows = []
    for rank, entry in enumerate(ranked):
        row = {
            "rank": rank,
            "n_arrays": entry.point.n_arrays,
            "block_rows": entry.point.block_rows,
            "block_cols": entry.point.block_cols,
            **vars(entry.estimate),
        }
        if args.simulate:
            sim = run_mpe(shape, entry.point, machine, steal=not args.no_steal)
            row["measured_seconds"] = sim.time_seconds
            row["measured_gflops"] = sim.gflops
            row["in_bounds"] = bounds_ok(entry.estimate, sim.time_seconds)
        rows.append(row)

    if args.out and args.out.endswith(".json"):
        payload = {"problem": label, "entries": rows,
                   "best": rows[0] if rows else None}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        out_fh = open(args.out, "w", newline="") if args.out else sys.stdout
        try:
            writer = csv.DictWriter(out_fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        finally:
            if args.out:
                out_fh.close()
    if args.simulate and any(not r["in_bounds"] for r in rows):
        print("check failure: simulated time outside model bounds", file=sys.stderr)
        return 1
    return 0


def cmd_calibrate(args) -> int:
    try:
        table = mac.TableBandwidth.from_csv(args.csv)
    except mac.CalibrationError as exc:
        raise CliError(f"calibration rejected: {exc}") from exc
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read calibration: {exc}") from exc
    out = args.out or args.csv
    table.to_csv(out)
    print(f"calibration accepted: {len(table.table)} points -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="masim",
        description="Simulator and performance model for a multi-array "
                    "linear systolic GEMM accelerator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--shape", help="problem as MxKxN, e.g. 128x1200x729")
        p.add_argument("--preset", help=f"layer preset: {', '.join(LAYER_PRESETS)}")
        p.add_argument("--p", type=positive_int, default=64, help="PEs per base array")
        p.add_argument("--pm", type=positive_int, default=4, help="number of base arrays")
        p.add_argument("--freq", type=positive_float, default=2e8, help="clock in Hz")
        p.add_argument("--stage", type=nonnegative_int, default=8,
                       help="multiply-accumulate pipeline depth")
        p.add_argument("--bw-model", default="parametric",
                       help="ideal | parametric[:peak,latency_elems,contention] "
                            "| calibration CSV path")
        p.add_argument("--seed", type=nonnegative_int, default=0,
                       help="seed for matrix data")
        p.add_argument("--fast-numerics", action="store_true",
                       help="accepted, no effect: run always computes the "
                            "bit-exact k-ordered product, explore none")
        p.add_argument("--no-steal", action="store_true",
                       help="disable work stealing (static partition)")
        p.add_argument("--contention", choices=CONTENTION_MODES,
                       default="per_array", help="transfer serialisation regime")

    p_run = sub.add_parser("run", help="simulate one problem at one design point")
    add_common(p_run)
    p_run.add_argument("--np", type=positive_int, help="number of active arrays")
    p_run.add_argument("--si", type=positive_int, help="block rows (A sub-block)")
    p_run.add_argument("--sj", type=positive_int,
                       help="block cols (B sub-block), default --si")
    p_run.add_argument("--auto", action="store_true",
                       help="pick the best design point from the model")
    p_run.add_argument("--trace", help="write the event trace CSV here")
    p_run.add_argument("--out", help="write the JSON report here (default stdout)")
    p_run.add_argument("--no-verify", action="store_true",
                       help="skip the reference-product verification")
    p_run.add_argument("--verify-cutoff", type=nonnegative_int, metavar="N",
                       help="skip verification when m*depth*n exceeds N "
                            "(default: always verify)")
    p_run.set_defaults(func=cmd_run)

    p_exp = sub.add_parser("explore", help="rank all feasible design points")
    add_common(p_exp)
    p_exp.add_argument("--candidates", type=candidate_list,
                       help="comma-separated block-size candidates")
    p_exp.add_argument("--simulate", action="store_true",
                       help="simulate every point and compare against the bounds")
    p_exp.add_argument("--out", help="write the table here (.json or CSV)")
    p_exp.set_defaults(func=cmd_explore)

    p_cal = sub.add_parser("calibrate", help="validate a bandwidth table")
    p_cal.add_argument("csv", help="CSV with header n_p,s_i,bytes_per_second")
    p_cal.add_argument("--out", help="where to store the validated table")
    p_cal.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, InfeasibleBlockError, mac.CalibrationError,
            mac.CalibrationMissingError, OSError, OverflowError, MemoryError) as exc:
        # CalibrationError: a bandwidth model whose rate is not positive;
        # OSError: e.g. an --out or --trace path in a missing directory;
        # OverflowError: a makespan too long to count in cycles;
        # MemoryError: e.g. no room for A or a part's strips
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
