"""Analytical performance model and design-space exploration.

For a problem of shape (m, depth) x (depth, n) running on n_arrays arrays
with block sizes (block_rows, block_cols):

  work_per_array   = ceil(ceil(m / block_rows) * ceil(n / block_cols) / n_arrays)
  load_seconds     = (in_bytes + out_bytes) / effective bandwidth
  transfer_seconds = work_per_array * load_seconds
  compute_seconds  = work_per_array * charged cycles / clock

with one block's bytes from mac.block_bytes and its charged cycles from
mpe.block_charges, the same two rules the simulator charges.

The true run time is bracketed by compute_seconds from below (transfers
overlap compute) and transfer_seconds + compute_seconds from above (no
overlap at all). The explorer enumerates feasible (n_arrays, block_rows)
points and ranks them by the worst-case bound, breaking ties by the best
case and then by fewer arrays.

Every function takes its clock, pipeline depth and bandwidth model from
one mpe.Machine, and the explorer takes its points from the machine's one
feasibility rule (Machine.array_counts): a block of block_rows needs a
chain of ceil(block_rows / pes_per_base) base arrays, n_arrays such
chains must fit into max_arrays base arrays, and block_cols must fit the
accumulator depth. For the default four base arrays of 64 PEs this yields

  block_rows   1..64   -> n_arrays in {1, 2, 3, 4}
  block_rows  65..128  -> n_arrays in {1, 2}
  block_rows 129..256  -> n_arrays = 1
  block_rows  > 256    -> infeasible
  block_cols  > 256    -> infeasible
"""

from __future__ import annotations

from dataclasses import dataclass

from . import mac
from .mpe import Machine, block_charges


@dataclass(frozen=True)
class ProblemShape:
    m: int
    depth: int
    n: int

    def __post_init__(self):
        for name in ("m", "depth", "n"):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")

    @property
    def flops(self) -> int:
        return 2 * self.m * self.depth * self.n


@dataclass(frozen=True)
class DesignPoint:
    n_arrays: int
    block_rows: int
    block_cols: int | None = None

    def __post_init__(self):
        if self.block_cols is None:
            object.__setattr__(self, "block_cols", self.block_rows)
        if self.n_arrays < 1 or self.block_rows < 1 or self.block_cols < 1:
            raise ValueError("design point entries must be >= 1")


@dataclass(frozen=True)
class ModelEstimate:
    work_per_array: int
    load_seconds: float
    transfer_seconds: float
    compute_seconds: float
    lower_seconds: float
    upper_seconds: float
    gflops_upper: float
    gflops_lower: float


def n_work(shape: ProblemShape, block_rows: int, block_cols: int,
           n_arrays: int) -> int:
    """Block multiplications assigned to each array (nested ceilings)."""
    tiles = (-(-shape.m // block_rows)) * (-(-shape.n // block_cols))
    return -(-tiles // n_arrays)


def bounds(shape: ProblemShape, point: DesignPoint, machine: Machine) -> ModelEstimate:
    """Lower/upper run-time bounds and the matching throughput bounds."""
    si, sj, depth = point.block_rows, point.block_cols, shape.depth
    bw = mac.effective_bandwidth(machine.bw_model, point.n_arrays, si)
    work = n_work(shape, si, sj, point.n_arrays)
    load = sum(mac.block_bytes(si, sj, depth)) / bw
    trans = work * load
    comp = work * block_charges(si, sj, depth, machine).cycles / machine.f_acc
    return ModelEstimate(
        work_per_array=work,
        load_seconds=load,
        transfer_seconds=trans,
        compute_seconds=comp,
        lower_seconds=comp,
        upper_seconds=trans + comp,
        gflops_upper=shape.flops / comp / 1e9,
        gflops_lower=shape.flops / (trans + comp) / 1e9,
    )


def default_block_candidates(machine: Machine) -> list[int]:
    """Candidate block sizes spanning fractions and multiples of one base array."""
    p = machine.pes_per_base
    raw = [p // 8, p // 4, p // 2, p, 3 * p // 2, 2 * p, 3 * p, 4 * p]
    return sorted({c for c in raw if c >= 1})


def feasible_points(machine: Machine, candidates=None) -> list[DesignPoint]:
    """All feasible square-block design points over the candidate sizes."""
    if candidates is None:
        candidates = default_block_candidates(machine)
    return [DesignPoint(n_arrays, s) for s in sorted(set(candidates))
            for n_arrays in machine.array_counts(s, s)]


@dataclass(frozen=True)
class ExploreEntry:
    point: DesignPoint
    estimate: ModelEstimate


def explore(shape: ProblemShape, machine: Machine,
            candidates=None) -> list[ExploreEntry]:
    """Rank all feasible design points for a problem shape, best first.

    Only the points the bandwidth model can rate are ranked: a calibration
    table may cover some array counts and not others. Primary key:
    minimise the worst-case bound. Ties fall back to the best-case bound,
    then to fewer arrays, then to the smaller block. Raises
    InfeasibleBlockError when no candidate is feasible, and the model's
    mac.CalibrationMissingError when it can rate no feasible point.
    """
    points = feasible_points(machine, candidates)
    if not points:
        # every candidate fails the rule; let it say why for the smallest
        machine.check(1, min(candidates), min(candidates))
    entries, missing = [], None
    for p in points:
        try:
            entries.append(ExploreEntry(p, bounds(shape, p, machine)))
        except mac.CalibrationMissingError as exc:
            missing = missing or exc
    if not entries:
        raise missing
    entries.sort(key=lambda e: (e.estimate.upper_seconds, e.estimate.lower_seconds,
                                e.point.n_arrays, e.point.block_rows))
    return entries
