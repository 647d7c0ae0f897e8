"""Memory access controller model: byte accounting and bandwidth.

block_bytes is the one traffic rule: every block, edge tiles included,
moves its operand slices in and its result tile out in full padded form,

    in_bytes  = 4 * (block_rows * depth + block_cols * depth)
    out_bytes = 4 * block_rows * block_cols

and both the simulator and the analytical model charge exactly that.

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

ELEMENT_BYTES = 4


class CalibrationError(ValueError):
    """A bandwidth calibration or model violates a required property."""


class CalibrationMissingError(LookupError):
    """A bandwidth table has no row for the requested array count."""


def block_bytes(block_rows: int, block_cols: int, depth: int) -> tuple[int, int]:
    """Bytes one block moves, as (in_bytes, out_bytes): both operand
    slices in, the result tile out."""
    return (ELEMENT_BYTES * (block_rows * depth + block_cols * depth),
            ELEMENT_BYTES * block_rows * block_cols)


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

    Block-size lookups are linearly interpolated (and clamped) within the
    calibrated points of a matching n_arrays row; the array count must
    match exactly since it is a discrete hardware configuration. Loading
    rejects rates that are not positive and finite (IdealBandwidth is the
    infinite one), and tables that break monotonicity: within a row,
    bandwidth must not fall as block size grows; across rows at the same
    block size, it must not rise as the array count grows.
    """

    def __init__(self, table: dict[tuple[int, int], float]):
        if not table:
            raise CalibrationError("empty bandwidth table")
        self.table = dict(table)
        self._rows: dict[int, list[tuple[int, float]]] = {}
        for (n_p, s_i), bw in sorted(self.table.items()):
            if n_p < 1 or s_i < 1:
                raise CalibrationError(f"invalid key (n_p={n_p}, s_i={s_i})")
            if not 0 < bw < math.inf:
                raise CalibrationError(f"bandwidth at (n_p={n_p}, s_i={s_i}) must be "
                                       f"positive and finite, got {bw!r}")
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
    def from_csv(cls, path) -> "TableBandwidth":
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
        return cls(table)

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
        # a calibrated point returns its own rate: b0 + 1.0 * (b1 - b0)
        # need not round to b1
        exact = self.table.get((n_arrays, block_rows))
        if exact is not None:
            return exact
        if block_rows <= row[0][0]:
            return row[0][1]
        for (s0, b0), (s1, b1) in zip(row, row[1:]):
            if block_rows <= s1:
                return b0 + (block_rows - s0) / (s1 - s0) * (b1 - b0)
        return row[-1][1]


class IdealBandwidth:
    """Infinite bandwidth: all transfers complete instantly."""

    def rate(self, n_arrays: int, block_rows: int) -> float:
        return math.inf


BandwidthModel = ParametricBandwidth | TableBandwidth | IdealBandwidth


def effective_bandwidth(model: BandwidthModel, n_arrays: int, block_rows: int) -> float:
    """Achieved bytes/second for one array in the given configuration.

    The one lookup the model and the simulator both make; a rate that is
    not positive (zero, negative or NaN, e.g. a parametric rate that
    underflows at many arrays) raises CalibrationError.
    """
    if n_arrays < 1:
        raise ValueError("n_arrays must be >= 1")
    if block_rows < 1:
        raise ValueError("block_rows must be >= 1")
    bw = model.rate(n_arrays, block_rows)
    if not bw > 0:
        raise CalibrationError(f"bandwidth at n_arrays={n_arrays}, "
                               f"block_rows={block_rows} must be positive, got {bw!r}")
    return bw
