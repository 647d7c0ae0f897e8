"""Memory access controller model: descriptors, byte accounting, bandwidth.

Transfers are described by buffer descriptors (start address, stride,
block sizes, iteration count) against the padded, transposed-A memory
image, so that every burst is a unit-stride run of elements. The amount of
data a block moves is charged in full padded form:

    bytes = 4 * (block_rows * depth + block_cols * depth + block_rows * block_cols)

Effective bandwidth is a first-class, swappable model of how achieved
throughput varies with the number of arrays sharing the memory system and
with the burst length implied by the block size. Nothing here models DRAM
device timing; the defaults are chosen only to respect the two qualitative
properties the model must have (longer bursts never hurt, more arrays
never help).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .blockmm import TileGrid

ELEMENT_BYTES = 4


class CalibrationError(ValueError):
    """A bandwidth calibration violates a required property."""


class CalibrationMissingError(LookupError):
    """A table lookup has no entry and interpolation is disabled or impossible."""


def block_bytes(block_rows: int, block_cols: int, depth: int) -> int:
    """Bytes moved for one block: both operand slices plus the result tile."""
    return ELEMENT_BYTES * (block_rows * depth + block_cols * depth + block_rows * block_cols)


@dataclass(frozen=True)
class BufferDescriptor:
    """One contiguous-burst transfer pattern.

    addr/stride are in elements against the padded memory image. A burst
    is burst_elems consecutive elements; n_bursts bursts are stride
    elements apart. block and iters echo the block geometry the descriptor
    serves.
    """

    role: str                 # "a", "b" or "c"
    addr: int
    stride: int
    burst_elems: int
    n_bursts: int
    block: tuple[int, int]    # (block_rows, block_cols)
    iters: int                # inner-dimension depth

    def __post_init__(self):
        if self.stride < self.burst_elems:
            raise ValueError("descriptor stride shorter than its burst")

    @property
    def total_bytes(self) -> int:
        return self.burst_elems * self.n_bursts * ELEMENT_BYTES


@dataclass(frozen=True)
class TransferPlan:
    """Descriptors for one tile: A block in, B block in, result out."""

    a: BufferDescriptor
    b: BufferDescriptor
    c: BufferDescriptor

    @property
    def in_bytes(self) -> int:
        return self.a.total_bytes + self.b.total_bytes

    @property
    def out_bytes(self) -> int:
        return self.c.total_bytes

    @property
    def total_bytes(self) -> int:
        return self.in_bytes + self.out_bytes


def plan_for_tile(grid: TileGrid, tile_row: int, tile_col: int) -> TransferPlan:
    """Build the three descriptors for one tile of the grid.

    The A operand is addressed in its transposed layout (depth rows of
    padded_rows elements), which is what makes the A bursts unit-stride
    runs of block_rows elements.
    """
    si, sj, k = grid.block_rows, grid.block_cols, grid.depth
    a = BufferDescriptor(
        role="a",
        addr=tile_row * si,
        stride=grid.padded_rows,
        burst_elems=si,
        n_bursts=k,
        block=(si, sj),
        iters=k,
    )
    b = BufferDescriptor(
        role="b",
        addr=tile_col * sj,
        stride=grid.padded_cols,
        burst_elems=sj,
        n_bursts=k,
        block=(si, sj),
        iters=k,
    )
    c = BufferDescriptor(
        role="c",
        addr=tile_row * si * grid.padded_cols + tile_col * sj,
        stride=grid.padded_cols,
        burst_elems=sj,
        n_bursts=si,
        block=(si, sj),
        iters=k,
    )
    plan = TransferPlan(a, b, c)
    assert plan.total_bytes == block_bytes(si, sj, k)
    return plan


@dataclass(frozen=True)
class ParametricBandwidth:
    """Effective bandwidth as a smooth function of array count and block size.

    rate = peak_bps * (block_rows / (block_rows + latency_elems))
                    / (1 + contention * (n_arrays - 1))

    The latency term models per-burst setup cost (longer bursts amortise
    it), the contention term the penalty per additional array sharing the
    memory system. Any non-negative latency_elems/contention satisfies the
    required monotonicity in both arguments. The defaults are a documented
    placeholder, not a measured truth; calibrate with a table for real use.
    """

    peak_bps: float = 3.2e9
    latency_elems: float = 64.0
    contention: float = 0.3

    def __post_init__(self):
        if not self.peak_bps > 0:
            raise ValueError("peak_bps must be positive")
        if not (0 <= self.latency_elems < math.inf and 0 <= self.contention < math.inf):
            raise ValueError("latency_elems and contention must be non-negative and finite")

    def rate(self, n_arrays: int, block_rows: int) -> float:
        return (self.peak_bps * block_rows / (block_rows + self.latency_elems)
                / (1.0 + self.contention * (n_arrays - 1)))


class TableBandwidth:
    """Calibrated effective bandwidth: (n_arrays, block_rows) -> bytes/s.

    Block-size lookups may be linearly interpolated (and clamped) within
    the calibrated points of a matching n_arrays row; the array count must
    match exactly since it is a discrete hardware configuration. Loading
    rejects tables that break monotonicity: within a row, bandwidth must
    not fall as block size grows; across rows at the same block size, it
    must not rise as the array count grows.
    """

    def __init__(self, table: dict[tuple[int, int], float], interpolate: bool = True):
        if not table:
            raise CalibrationError("empty bandwidth table")
        self.table = dict(table)
        self.interpolate = interpolate
        self._rows: dict[int, list[tuple[int, float]]] = {}
        for (n_p, s_i), bw in sorted(self.table.items()):
            if n_p < 1 or s_i < 1:
                raise CalibrationError(f"invalid key (n_p={n_p}, s_i={s_i})")
            if not bw > 0:
                raise CalibrationError(f"non-positive bandwidth at (n_p={n_p}, s_i={s_i})")
            self._rows.setdefault(n_p, []).append((s_i, bw))
        self._validate()

    def _validate(self):
        bad = []
        for n_p, row in self._rows.items():
            for (s0, b0), (s1, b1) in zip(row, row[1:]):
                if b1 < b0:
                    bad.append(f"(n_p={n_p}) bandwidth falls from s_i={s0} to s_i={s1}")
        counts = sorted(self._rows)
        for lo, hi in zip(counts, counts[1:]):
            row_hi = dict(self._rows[hi])
            for s_i, bw_lo in self._rows[lo]:
                bw_hi = row_hi.get(s_i)
                if bw_hi is not None and bw_hi > bw_lo:
                    bad.append(f"(s_i={s_i}) bandwidth rises from n_p={lo} to n_p={hi}")
        if bad:
            raise CalibrationError("bandwidth table not monotone: " + "; ".join(bad))

    @classmethod
    def from_csv(cls, path, interpolate: bool = True) -> "TableBandwidth":
        """Load a calibration CSV with header n_p,s_i,bytes_per_second."""
        table = {}
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"n_p", "s_i", "bytes_per_second"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise CalibrationError(
                    f"calibration CSV must have header columns {sorted(required)}")
            for line in reader:
                if any(line[name] is None for name in required):
                    raise CalibrationError(
                        f"calibration row {reader.line_num} has too few fields")
                key = (int(line["n_p"]), int(line["s_i"]))
                if key in table:
                    raise CalibrationError(f"duplicate calibration row for {key}")
                table[key] = float(line["bytes_per_second"])
        return cls(table, interpolate=interpolate)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n_p", "s_i", "bytes_per_second"])
            for (n_p, s_i), bw in sorted(self.table.items()):
                writer.writerow([n_p, s_i, repr(bw)])

    def rate(self, n_arrays: int, block_rows: int) -> float:
        row = self._rows.get(n_arrays)
        if row is None:
            raise CalibrationMissingError(f"no calibration for n_arrays={n_arrays}")
        exact = self.table.get((n_arrays, block_rows))
        if exact is not None:
            return exact
        if not self.interpolate:
            raise CalibrationMissingError(
                f"no calibration for (n_arrays={n_arrays}, block_rows={block_rows}) "
                "and interpolation is disabled")
        xs = [s for s, _ in row]
        ys = [b for _, b in row]
        if block_rows <= xs[0]:
            return ys[0]
        if block_rows >= xs[-1]:
            return ys[-1]
        for (s0, b0), (s1, b1) in zip(row, row[1:]):
            if s0 <= block_rows <= s1:
                t = (block_rows - s0) / (s1 - s0)
                return b0 + t * (b1 - b0)
        raise CalibrationMissingError(f"lookup failed for block_rows={block_rows}")


class IdealBandwidth:
    """Infinite bandwidth: all transfers complete instantly."""

    def rate(self, n_arrays: int, block_rows: int) -> float:
        return math.inf


BandwidthModel = ParametricBandwidth | TableBandwidth | IdealBandwidth


def effective_bandwidth(model: BandwidthModel, n_arrays: int, block_rows: int) -> float:
    """Achieved bytes/second for one array in the given configuration."""
    if n_arrays < 1:
        raise ValueError("n_arrays must be >= 1")
    if block_rows < 1:
        raise ValueError("block_rows must be >= 1")
    return model.rate(n_arrays, block_rows)
