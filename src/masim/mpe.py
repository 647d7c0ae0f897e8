"""Matrix processing engine: the machine and its configurable linear PE arrays.

Machine is the one validated configuration every other module takes, and
Machine.array_counts the one feasibility rule that the PE walk
(blockmm.trace_block), the simulator and the explorer all apply. This
module holds no matrix data and imports no numpy.

Adjacent base arrays can be chained through multiplexers into longer
effective arrays (cooperation mode): a block of block_rows runs on a chain
of Machine.chain(block_rows) base arrays, and with all multiplexers off
each base array runs independently. A block executes on one effective
array in three stages:

  prefetch   the first column of the A block streams through the chain,
             each PE latching the element matching its position
             (block_rows cycles);
  compute    for each k, the k-th row of the B block streams past every
             PE while the (k+1)-th A column loads into the shadow
             register; the phase synchroniser pads each iteration to
             max(block_rows, block_cols) cycles;
  write-back results drain through the chain toward the memory
             controller, overlapped with the next block's compute.

Per-block charged cycles are therefore

    block_rows + max(block_rows, block_cols) * depth + fmac_stages

exactly. block_charges is the one place this is written: it gives the
total and its breakdown, simulator._schedule charges it without
touching matrix data, and model.bounds takes its compute time from it.
blockmm.trace_block walks one block's dataflow cycle by cycle and checks
the walk against block_charges.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

from .mac import BandwidthModel, ParametricBandwidth


class InfeasibleBlockError(ValueError):
    """Block geometry does not fit the target array."""


CONTENTION_MODES = ("per_array", "shared_port")


@dataclass(frozen=True)
class Machine:
    """The accelerator's configuration, validated once on construction.

    pm = max_arrays base arrays of p = pes_per_base PEs each, clocked at
    f_acc Hz, with an fmac_stages-deep multiply-accumulate pipeline and a
    result drain of one element per cycle. bw_model gives the
    effective bandwidth (anything with rate(n_arrays, block_rows));
    contention is the transfer regime of the simulator ("per_array" or
    "shared_port"). Every model and simulation call takes its machine
    parameters from one Machine, so they cannot disagree.
    """

    pes_per_base: int = 64
    max_arrays: int = 4
    f_acc: float = 2e8
    fmac_stages: int = 8
    bw_model: BandwidthModel = ParametricBandwidth()
    contention: str = "per_array"

    def __post_init__(self):
        for name, least in (("pes_per_base", 1), ("max_arrays", 1), ("fmac_stages", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) \
                    or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not isinstance(self.f_acc, numbers.Real) or isinstance(self.f_acc, bool) \
                or not 0 < self.f_acc < math.inf:
            raise ValueError(f"f_acc must be a positive finite number, got {self.f_acc!r}")
        if not callable(getattr(self.bw_model, "rate", None)):
            raise ValueError(f"bw_model must have a rate method, got {self.bw_model!r}")
        if self.contention not in CONTENTION_MODES:
            raise ValueError(f"contention must be one of {CONTENTION_MODES}, "
                             f"got {self.contention!r}")

    def chain(self, block_rows: int) -> int:
        """Base arrays one effective array chains for a block of block_rows."""
        return -(-block_rows // self.pes_per_base)

    @property
    def mc_depth(self) -> int:
        """Per-PE accumulator depth: a square block on the longest chain."""
        return self.max_arrays * self.pes_per_base

    @property
    def peak_gflops(self) -> float:
        """Every PE retires one multiply-add per cycle."""
        return 2.0 * self.f_acc * self.max_arrays * self.pes_per_base / 1e9

    def array_counts(self, block_rows: int, block_cols: int) -> range:
        """The feasibility rule: the array counts that can run the block.

        Each array chains the ceil(block_rows / pes_per_base) base arrays a
        block of block_rows needs, and the chains must fit in the
        max_arrays base arrays; block_cols must fit the accumulator depth.
        Empty when no count can.
        """
        if block_rows < 1 or block_cols < 1:
            raise ValueError("block sizes must be >= 1")
        if block_cols > self.mc_depth:
            return range(0)
        return range(1, self.max_arrays // self.chain(block_rows) + 1)

    def check(self, n_arrays: int, block_rows: int, block_cols: int):
        """Raise InfeasibleBlockError, with the feasibility table, unless
        n_arrays arrays can run block_rows x block_cols blocks."""
        if n_arrays not in self.array_counts(block_rows, block_cols):
            raise InfeasibleBlockError(
                f"design point (n_arrays={n_arrays}, block_rows={block_rows}, "
                f"block_cols={block_cols}) is infeasible on {self.max_arrays} "
                f"base arrays of {self.pes_per_base} PEs:\n" + self.feasibility_table())

    def feasibility_table(self) -> str:
        """The rule as text: array counts per range of block rows."""
        p, pm = self.pes_per_base, self.max_arrays
        lines = []
        for chain in range(1, pm + 1):
            counts = ", ".join(map(str, self.array_counts(chain * p, 1)))
            lines.append(f"  block rows {(chain - 1) * p + 1:>4}..{chain * p:<4} "
                         f"-> array count in {{{counts}}}")
        lines.append(f"  block rows > {pm * p:<7} -> infeasible")
        lines.append(f"  block cols > {self.mc_depth:<7} -> infeasible "
                     "(accumulator depth)")
        return "\n".join(lines)


class BlockCharges(NamedTuple):
    """Cycle breakdown of one block; prefetch + compute + stall = cycles."""

    cycles: int
    prefetch_cycles: int
    compute_cycles: int
    stall_cycles: int
    drain_cycles: int


def block_charges(block_rows: int, block_cols: int, depth: int,
                  machine: Machine) -> BlockCharges:
    """What one block is charged: the one cycle policy every path applies.

    Each compute iteration must cover both the B-row stream (block_cols
    cycles) and the next A-column load (block_rows cycles), so the phase
    synchroniser pads the shorter B side with max(block_rows, block_cols)
    - block_cols stall cycles per iteration. The drain streams the
    finished tile out of the chain one element per cycle; it overlaps the
    next block's compute and is not part of the charged cycles.
    """
    if block_rows < 1 or block_cols < 1:
        raise ValueError("block sizes must be >= 1")
    return BlockCharges(
        cycles=block_rows + max(block_rows, block_cols) * depth + machine.fmac_stages,
        prefetch_cycles=block_rows,
        compute_cycles=block_cols * depth + machine.fmac_stages,
        stall_cycles=(max(block_rows, block_cols) - block_cols) * depth,
        drain_cycles=block_rows * block_cols,
    )
