"""Matrix processing engine: the machine and its configurable linear PE arrays.

Machine is the one validated configuration every other module takes, and
Machine.array_counts the one feasibility rule that trace_block, the
simulator and the explorer all apply.

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
total and its breakdown, the run loop in the simulator charges it without
touching matrix data, and model.bounds takes its compute time from it.
trace_block ties the timing to the numerics: it walks one block's
dataflow cycle by cycle with explicit PE state and FIFO hops, checks the
walk against block_charges and the register-reuse invariants, and returns
the same bits as the k-ordered kernel blockmm.reference_gemm on the
block, because both apply the same float32 multiply-add sequence per
output element. That is also why the whole-matrix kernel equals the
tiles a run assembles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .blockmm import DTYPE, as_matrix
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
            if not isinstance(value, int) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not 0 < self.f_acc < math.inf:
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


@dataclass
class PeState:
    """Architectural state of one PE in the cycle-accurate walk."""

    pid: int
    ra_active: tuple[float, int] | None = None   # (value, column index)
    ra_shadow: tuple[float, int] | None = None
    mc: np.ndarray | None = None
    fifo_a: list = field(default_factory=list)   # A element in transit here
    fifo_c: list = field(default_factory=list)   # drained results
    reuse_this_iter: int = 0


@dataclass(frozen=True)
class TraceEvent:
    cycle: int
    kind: str
    block: int
    pe: int = -1
    k: int = -1


class _AFlight:
    """An A element travelling down the chain to its target PE."""

    __slots__ = ("value", "target", "col", "entered_at")

    def __init__(self, value, target, col, entered_at):
        self.value = value
        self.target = target
        self.col = col
        self.entered_at = entered_at


def trace_block(sa, sb, machine: Machine, *, block_id: int = 0
                ) -> tuple[np.ndarray, list[TraceEvent], list[PeState]]:
    """Cycle-by-cycle walk of one block sa @ sb on one array of the machine.

    Returns the block's tile, the events of the walk and the final PE
    states. The geometry comes from the operand shapes: sa is block_rows x
    depth and sb depth x block_cols. Raises InfeasibleBlockError unless the
    machine can run the block on one array.

    Independent of the kernel's whole-iteration updates: A elements
    hop PE to PE through fifo_a one stage per cycle (the column enters the
    chain in reverse element order, so every PE latches its element on the
    same cycle), the shadow register is checked against overwrite while
    the active value is still in use, and per-iteration reuse of the
    latched value is counted. Raises AssertionError if any architectural
    invariant breaks, among them a walk whose cycles or stalls disagree
    with block_charges. The B-row stream is modelled at its issue cycle;
    the per-PE skew of that stream is part of the pipeline constant.
    """
    sa = as_matrix(sa, "sa")
    sb = as_matrix(sb, "sb")
    (si, k_depth), sj = sa.shape, sb.shape[1]
    if sb.shape[0] != k_depth:
        raise ValueError(f"inner dimensions differ: {k_depth} vs {sb.shape[0]}")
    machine.check(1, si, sj)

    pes = [PeState(pid=p, mc=np.zeros(sj, DTYPE)) for p in range(si)]
    events: list[TraceEvent] = []
    cycle = 0
    stalls = 0

    def latch(pe: PeState, flight: _AFlight, into: str, at_cycle: int):
        if into == "active":
            pe.ra_active = (flight.value, flight.col)
        else:
            if pe.ra_shadow is not None:
                raise AssertionError(f"PE {pe.pid} shadow overwritten before swap")
            pe.ra_shadow = (flight.value, flight.col)
        events.append(TraceEvent(at_cycle, "a_latch", block_id, pe.pid, flight.col))

    def column_stream(col_idx: int, into: str):
        """Per-cycle advance function for one column entering the chain."""
        flights: list[_AFlight] = []
        entered = 0

        def advance(local_c: int, global_c: int):
            nonlocal entered
            if entered < si:
                entered += 1
                flights.append(_AFlight(sa[si - entered, col_idx],
                                        si - entered, col_idx, entered))
            for pe in pes:
                pe.fifo_a = []
            for f in list(flights):
                pos = local_c - f.entered_at
                if not 0 <= pos < si:
                    raise AssertionError("A element fell off the chain")
                if pos == f.target:
                    latch(pes[pos], f, into, global_c)
                    flights.remove(f)
                else:
                    pes[pos].fifo_a.append(f)

        return advance

    # Prefetch: column 0 into the active registers.
    advance = column_stream(0, "active")
    for c in range(1, si + 1):
        cycle += 1
        advance(c, cycle)
    for pe in pes:
        if pe.ra_active is None or pe.ra_active[1] != 0:
            raise AssertionError(f"PE {pe.pid} missed its prefetch latch")
        if pe.ra_active[0] != sa[pe.pid, 0]:
            raise AssertionError(f"PE {pe.pid} latched the wrong element")
    events.append(TraceEvent(cycle, "prefetch_done", block_id))

    iter_len = max(si, sj)
    ra_vec = np.empty(si, DTYPE)
    col = np.empty(si, DTYPE)
    for k in range(k_depth):
        advance = column_stream(k + 1, "shadow") if k + 1 < k_depth else None
        for p, pe in enumerate(pes):
            if pe.ra_active[1] != k:
                raise AssertionError(
                    f"PE {p} entered iteration {k} holding column {pe.ra_active[1]}")
            ra_vec[p] = pe.ra_active[0]
            pe.reuse_this_iter = 0
        for c in range(1, iter_len + 1):
            cycle += 1
            if c <= sj:
                bval = sb[k, c - 1]
                events.append(TraceEvent(cycle, "b_issue", block_id, -1, k))
                np.multiply(ra_vec, bval, out=col)
                for pe in pes:
                    pe.mc[c - 1] += col[pe.pid]
                    pe.reuse_this_iter += 1
            else:
                stalls += 1
                events.append(TraceEvent(cycle, "psu_stall", block_id, -1, k))
            if advance is not None and c <= si:
                advance(c, cycle)
        for pe in pes:
            if pe.reuse_this_iter != sj:
                raise AssertionError(
                    f"PE {pe.pid} reused its register {pe.reuse_this_iter} "
                    f"times in iteration {k}, expected {sj}")
            if k + 1 < k_depth:
                if pe.ra_shadow is None or pe.ra_shadow[1] != k + 1:
                    raise AssertionError(f"PE {pe.pid} shadow not ready at swap")
                pe.ra_active = pe.ra_shadow
                pe.ra_shadow = None
        if k + 1 < k_depth:
            events.append(TraceEvent(cycle, "swap", block_id, -1, k + 1))

    for _ in range(machine.fmac_stages):
        cycle += 1
        events.append(TraceEvent(cycle, "flush", block_id))

    charges = block_charges(si, sj, k_depth, machine)
    if cycle != charges.cycles:
        raise AssertionError(f"trace walked {cycle} cycles, contract says {charges.cycles}")
    if stalls != charges.stall_cycles:
        raise AssertionError(
            f"trace stalled {stalls} cycles, contract says {charges.stall_cycles}")

    for pe in pes:
        pe.fifo_c = list(pe.mc)
    events.append(TraceEvent(cycle + charges.drain_cycles, "drain_done", block_id))

    return np.stack([pe.mc for pe in pes]), events, pes
