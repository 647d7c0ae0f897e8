"""Command-line front end: single runs, design-space sweeps, calibration.

Subcommands:

  run        simulate one problem at one design point (or --auto) and
             write a JSON report with the model estimate, per-array
             statistics, steal log and check results
  explore    rank all feasible design points for a problem; optionally
             simulate each point and compare against the bounds
  calibrate  validate a measured bandwidth table and store it for reuse

The simulator only schedules: given the tile grid and the array count it
rejects an infeasible point, deals the tiles and arbitrates steals itself,
and it never reads matrix data. After the schedule, run draws the seeded A
and streams B in k-slices (verified_output) through the k-ordered float32
kernel (a float32 matmul under --fast-numerics) and a float64 reference,
holding A, the output, its reference (8 * m * n bytes) and one slice of B;
the exact output and its error have the whole-matrix bits. When the
oracle is skipped nothing reads the output, so nothing is drawn; explore
draws nothing. The draw, the kernel and the oracle run on the cores the
process may use (the oracle only when OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS or MKL_NUM_THREADS pin BLAS to one thread; see
blockmm.blas_pinned), and every exact output bit is the same on one core
as on many; taskset -c 0 runs all three on the calling thread.

One mpe.Machine, built from --p/--pm/--freq/--stage/--bw-model/--contention,
is handed to every model and simulator call of a command.

Exact-mode reports are deterministic for a fixed configuration and seed
(only the created_at field varies); --fast-numerics reports also need a
fixed BLAS thread setting, because the float32 matmul of each slice
rounds differently when BLAS splits it over threads. Exit status is 0 on
success, 1 when any check fails, 2 for infeasible or invalid
configurations (a simulated time too long to count in cycles included)
and for input or output files that cannot be opened.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time

import numpy as np

from . import blockmm, mac, model
from .blockmm import add_reference, part_count, partition, reference_gemm, run_parts
from .mpe import CONTENTION_MODES, InfeasibleBlockError, Machine
from .presets import LAYER_PRESETS
from .simulator import run_mpe

LOWER_BOUND_SLACK = 1e-3      # tolerated relative shortfall against the lower bound
UPPER_BOUND_GUARD = 1e-9      # absorbs addition-order ULPs when a run has no overlap
                              # at all and lands exactly on the upper bound
ORACLE_RTOL = 1e-4
# Bytes in one k-slice of B (build_matrices): its depth is the largest
# multiple of the oracle's 512-deep panel that fits, one panel at least, so
# fc-6 and fc-7 take 1024-deep slices and the other presets one slice.
# Each slice costs a hand-off to the draw's, the kernel's and the oracle's
# threads: on 2 vCPUs fc-8's check took 0.048 s in 512-deep slices and
# 0.039 s in one, and fc-6's 0.240 s in 512-deep, 0.235 s in 1024-deep
# and 0.267 s in one (medians of 12). Each doubling of the slice adds
# 16 MB to fc-6's 71 MB peak.
B_SLICE_BYTES = 16 << 20


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


def draw_matrix(rng: np.random.Generator, rows: int, cols: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """rng.random((rows, cols), dtype=np.float32), bit for bit, drawn in
    part_count(rows * cols) contiguous chunks at once, into out (a
    C-contiguous float32 rows x cols array) when given; rng (a PCG64
    generator) is left in the state the serial draw leaves it in.

    A float32 draw takes one 32-bit half of each 64-bit PCG64 output, low
    half first, so a chunk that starts at an even element offset o is drawn
    from a copy of the state advanced by o // 2. A half left buffered by an
    odd-sized earlier draw is the first element, drawn here on the caller.
    """
    if out is None:
        out = np.empty((rows, cols), np.float32)
    elif out.shape != (rows, cols) or out.dtype != np.float32 \
            or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float32 {rows}x{cols} array")
    flat = out.reshape(-1)
    bitgen = rng.bit_generator
    if bitgen.state["has_uint32"]:
        rng.random(out=flat[:1], dtype=np.float32)
        flat = flat[1:]
        if flat.size == 0:
            return out
    start = bitgen.state
    parts = part_count(flat.size)
    edges = [flat.size * i // parts // 2 * 2 for i in range(parts)] + [flat.size]
    chunk_gens = [np.random.PCG64() for _ in range(parts)]

    def chunk(i: int) -> None:
        gen = chunk_gens[i]
        gen.state = start
        gen.advance(edges[i] // 2)
        np.random.Generator(gen).random(out=flat[edges[i]: edges[i + 1]],
                                        dtype=np.float32)

    run_parts(chunk, parts)
    # the last chunk is never empty, and ends where the serial draw ends
    bitgen.state = chunk_gens[-1].state
    return out


def build_matrices(shape: model.ProblemShape, seed: int):
    """The seeded A, and an iterator of (ks, B[ks]) over B's k-slices (see
    B_SLICE_BYTES), each drawn into one reused buffer, so valid until the
    next is drawn. B's rows are contiguous in the generator's stream, so
    these are the serial draws of A and B, bit for bit."""
    rng = np.random.default_rng(seed)
    a = draw_matrix(rng, shape.m, shape.depth)
    panel = blockmm.ORACLE_PANEL[2]
    step = max(panel, B_SLICE_BYTES // (4 * shape.n) // panel * panel)

    def b_slices():
        buffer = np.empty((min(step, shape.depth), shape.n), np.float32)
        for k0 in range(0, shape.depth, step):
            ks = slice(k0, min(k0 + step, shape.depth))
            depth = ks.stop - k0
            yield ks, draw_matrix(rng, depth, shape.n, out=buffer[:depth])

    return a, b_slices()


def verified_output(shape: model.ProblemShape, seed: int, fast_numerics: bool):
    """The run's output on the seeded matrices and its largest relative
    error: each k-slice of B is added into the output (reference_gemm, or
    a float32 matmul under fast_numerics) and into the float64 reference
    (add_reference), which takes the error on the last slice. The slices
    start at multiples of the oracle's panel depth, so the exact output and
    the error are the whole-matrix reference_gemm's and max_rel_error's."""
    a, b_slices = build_matrices(shape, seed)
    out = np.zeros((shape.m, shape.n), np.float32)
    ref = np.zeros((shape.m, shape.n))
    product = np.empty_like(out) if fast_numerics else None
    rel = None
    for ks, b in b_slices:
        a_slice = np.ascontiguousarray(a[:, ks])
        if fast_numerics:
            out += np.matmul(a_slice, b, out=product)
        else:
            reference_gemm(a_slice, b, out)
        rel = add_reference(a_slice, b, ref, out if ks.stop == shape.depth else None)
    return out, rel


def simulate_point(shape, point, machine, args, *, trace_path=None):
    grid = partition(shape.m, shape.n, shape.depth,
                     point.block_rows, point.block_cols)
    return run_mpe(machine, grid, point.n_arrays, steal=not args.no_steal,
                   trace_path=trace_path)


def oracle_skip_reason(args, shape: model.ProblemShape) -> str | None:
    """The flag that turns the oracle check off for this run, if any."""
    if args.no_verify:
        return "--no-verify"
    if args.verify_cutoff is not None \
            and shape.m * shape.depth * shape.n > args.verify_cutoff:
        return "--verify-cutoff"
    return None


def report_dict(args, machine, label, shape, point, estimate, sim, checks) -> dict:
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
            "numerics": "fast" if args.fast_numerics else "exact",
        },
        "estimate": dataclasses.asdict(estimate)
        | {"peak_gflops": machine.peak_gflops},
        "sim": {
            "time_seconds": sim.time_seconds,
            "time_with_drain_seconds": sim.time_with_drain_seconds,
            "total_cycles": sim.total_cycles,
            "gflops": sim.gflops,
            "tile_count": sim.tile_count,
        },
        "arrays": [dataclasses.asdict(s) for s in sim.arrays],
        "steal_events": [dataclasses.asdict(e) for e in sim.steal_events],
        "checks": checks,
    }


def cmd_run(args) -> int:
    label, shape = resolve_shape(args)
    machine = resolve_machine(args)
    point = resolve_point(args, shape, machine)

    sim = simulate_point(shape, point, machine, args, trace_path=args.trace)
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
        _, rel = verified_output(shape, args.seed, args.fast_numerics)
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
            **dataclasses.asdict(entry.estimate),
        }
        if args.simulate:
            sim = simulate_point(shape, entry.point, machine, args)
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
    except (OSError, ValueError, KeyError) as exc:
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

    def add_common(p, fast_help):
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
        p.add_argument("--fast-numerics", action="store_true", help=fast_help)
        p.add_argument("--no-steal", action="store_true",
                       help="disable work stealing (static partition)")
        p.add_argument("--contention", choices=CONTENTION_MODES,
                       default="per_array", help="transfer serialisation regime")

    p_run = sub.add_parser("run", help="simulate one problem at one design point")
    add_common(p_run, "compute the output with a float32 matmul instead of "
                      "the bit-exact k-ordered accumulation")
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
    add_common(p_exp, "no effect: explore computes timing only, never the "
                      "product (accepted for symmetry with run)")
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
    except (CliError, InfeasibleBlockError, mac.CalibrationMissingError,
            OSError, OverflowError) as exc:
        # OSError: e.g. an --out or --trace path in a missing directory;
        # OverflowError: a makespan too long to count in cycles
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
