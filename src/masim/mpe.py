"""Matrix processing engine: configurable linear PE arrays.

Adjacent base arrays can be chained through multiplexers into longer
effective arrays (cooperation mode); with all multiplexers off each base
array runs independently. A block executes on one effective array in three
stages:

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

exactly. block_charges gives this total and its breakdown; the run loop
in the simulator charges it and never touches matrix data. Two per-block
implementations tie the timing to the numerics: simulate_block returns
block_charges and the block's tile from the k-ordered kernel
blockmm.reference_gemm, and trace_block walks the dataflow cycle by
cycle with explicit PE state and FIFO hops (the audit of the closed form
and of the register-reuse invariants). Both produce bit-identical
numerics because they apply the same float32 multiply-add sequence per
output element, which is also why the whole-matrix kernel equals the
tiles a run assembles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .blockmm import DTYPE, reference_gemm


class InfeasibleBlockError(ValueError):
    """Block geometry does not fit the target array."""


@dataclass(frozen=True)
class EffectiveArray:
    array_id: int
    first_base: int
    n_bases: int
    pe_count: int


@dataclass(frozen=True)
class MpeLayout:
    """Base-array configuration plus the effective arrays it produces."""

    max_arrays: int            # number of base arrays
    pes_per_base: int
    mux: tuple[bool, ...]      # mux[k] joins base arrays k and k+1
    arrays: tuple[EffectiveArray, ...]
    mc_depth: int              # per-PE accumulator memory depth

    @property
    def n_arrays(self) -> int:
        return len(self.arrays)

    @property
    def total_pes(self) -> int:
        return self.max_arrays * self.pes_per_base


def configure_mpe(max_arrays: int, pes_per_base: int, mux,
                  mc_depth: int | None = None) -> MpeLayout:
    """Group base arrays into effective arrays according to the mux settings.

    mux must have max_arrays - 1 entries; entry k joins base arrays k and
    k+1 when enabled. mc_depth defaults to max_arrays * pes_per_base (deep
    enough for a square block on the longest possible chain).
    """
    if max_arrays < 1:
        raise ValueError("max_arrays must be >= 1")
    if pes_per_base < 1:
        raise ValueError("pes_per_base must be >= 1")
    mux = tuple(bool(x) for x in mux)
    if len(mux) != max_arrays - 1:
        raise ValueError(
            f"mux must have {max_arrays - 1} entries for {max_arrays} base arrays, "
            f"got {len(mux)}")
    arrays = []
    first = 0
    for k in range(max_arrays):
        if k == max_arrays - 1 or not mux[k]:
            n_bases = k - first + 1
            arrays.append(EffectiveArray(
                array_id=len(arrays), first_base=first, n_bases=n_bases,
                pe_count=n_bases * pes_per_base))
            first = k + 1
    if mc_depth is None:
        mc_depth = max_arrays * pes_per_base
    layout = MpeLayout(max_arrays, pes_per_base, mux, tuple(arrays), mc_depth)
    assert layout.n_arrays == max_arrays - sum(mux)
    assert sum(a.pe_count for a in layout.arrays) == layout.total_pes
    return layout


def layout_for_point(n_arrays: int, block_rows: int, pes_per_base: int,
                     max_arrays: int, mc_depth: int | None = None
                     ) -> tuple[MpeLayout, list[int]]:
    """Layout running n_arrays effective arrays long enough for block_rows.

    Each active array chains ceil(block_rows / pes_per_base) adjacent base
    arrays; leftover base arrays stay independent and unscheduled. Returns
    the layout and the ids of the active arrays.
    """
    if n_arrays < 1:
        raise ValueError("n_arrays must be >= 1")
    bases_each = max(1, -(-block_rows // pes_per_base))
    if n_arrays * bases_each > max_arrays:
        raise InfeasibleBlockError(
            f"{n_arrays} arrays of {bases_each} base arrays each do not fit "
            f"in {max_arrays} base arrays")
    mux = []
    for _ in range(n_arrays):
        mux.extend([True] * (bases_each - 1))
        mux.append(False)
    mux = (mux + [False] * max_arrays)[: max_arrays - 1]
    layout = configure_mpe(max_arrays, pes_per_base, mux, mc_depth)
    return layout, list(range(n_arrays))


def psu_stall_plan(block_rows: int, block_cols: int) -> int:
    """Stalls the phase synchroniser inserts per compute iteration.

    Each iteration must cover both the B-row stream (block_cols cycles)
    and the next A-column load (block_rows cycles); the shorter B side is
    padded up to the common max(block_rows, block_cols) duration.
    """
    if block_rows < 1 or block_cols < 1:
        raise ValueError("block sizes must be >= 1")
    return max(block_rows, block_cols) - block_cols


def block_cycles(block_rows: int, block_cols: int, depth: int, fmac_stages: int) -> int:
    """Charged cycles for one block on one array."""
    return block_rows + max(block_rows, block_cols) * depth + fmac_stages


class BlockCharges(NamedTuple):
    """Cycle breakdown of one block; prefetch + compute + stall = cycles."""

    cycles: int
    prefetch_cycles: int
    compute_cycles: int
    stall_cycles: int
    drain_cycles: int


def block_charges(block_rows: int, block_cols: int, depth: int, fmac_stages: int,
                  drain_width: int = 1) -> BlockCharges:
    """What one block is charged: the one cycle policy every path applies.

    The drain streams the finished tile out of the chain at drain_width
    elements per cycle; it overlaps the next block's compute and is not
    part of the charged cycles.
    """
    return BlockCharges(
        cycles=block_cycles(block_rows, block_cols, depth, fmac_stages),
        prefetch_cycles=block_rows,
        compute_cycles=block_cols * depth + fmac_stages,
        stall_cycles=psu_stall_plan(block_rows, block_cols) * depth,
        drain_cycles=-(-block_rows * block_cols // drain_width),
    )


@dataclass(frozen=True)
class BlockJob:
    """One block's data and geometry, ready to run on an array."""

    sa: np.ndarray             # block_rows x depth
    sb: np.ndarray             # depth x block_cols
    block_rows: int
    block_cols: int
    depth: int
    tile_row: int = 0
    tile_col: int = 0


@dataclass(frozen=True)
class BlockResult:
    tile: np.ndarray
    cycles: int
    prefetch_cycles: int
    compute_cycles: int
    stall_cycles: int
    drain_cycles: int


def _check_feasible(array: EffectiveArray, job: BlockJob, mc_depth: int):
    if job.block_rows > array.pe_count:
        raise InfeasibleBlockError(
            f"block_rows {job.block_rows} exceeds array {array.array_id} "
            f"length {array.pe_count}")
    if job.block_cols > mc_depth:
        raise InfeasibleBlockError(
            f"block_cols {job.block_cols} exceeds accumulator depth {mc_depth}")


def simulate_block(array: EffectiveArray, job: BlockJob, *,
                   fmac_stages: int = 8, mc_depth: int | None = None,
                   drain_width: int = 1) -> BlockResult:
    """Run one block on one array: exact tile numerics plus charged cycles.

    PE p holds element p of the current A column; each iteration k
    multiplies that buffered value against the streamed k-th B row and
    accumulates into the local result memory, which is the k-ordered
    kernel applied to the block. The cycles are block_charges.
    """
    if mc_depth is None:
        mc_depth = job.block_cols
    _check_feasible(array, job, mc_depth)
    si, sj, k_depth = job.block_rows, job.block_cols, job.depth
    if job.sa.shape != (si, k_depth) or job.sb.shape != (k_depth, sj):
        raise ValueError("job data does not match its geometry")

    return BlockResult(reference_gemm(job.sa, job.sb),
                       *block_charges(si, sj, k_depth, fmac_stages, drain_width))


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


def trace_block(array: EffectiveArray, job: BlockJob, *,
                fmac_stages: int = 8, mc_depth: int | None = None,
                drain_width: int = 1, block_id: int = 0
                ) -> tuple[BlockResult, list[TraceEvent], list[PeState]]:
    """Cycle-by-cycle walk of one block with explicit PE state.

    Independent of the kernel's whole-iteration updates: A elements
    hop PE to PE through fifo_a one stage per cycle (the column enters the
    chain in reverse element order, so every PE latches its element on the
    same cycle), the shadow register is checked against overwrite while
    the active value is still in use, and per-iteration reuse of the
    latched value is counted. Raises AssertionError if any architectural
    invariant breaks. The B-row stream is modelled at its issue cycle; the
    per-PE skew of that stream is part of the pipeline constant.
    """
    if mc_depth is None:
        mc_depth = job.block_cols
    _check_feasible(array, job, mc_depth)
    si, sj, k_depth = job.block_rows, job.block_cols, job.depth
    sa = np.ascontiguousarray(job.sa, DTYPE)
    sb = np.ascontiguousarray(job.sb, DTYPE)

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

    for _ in range(fmac_stages):
        cycle += 1
        events.append(TraceEvent(cycle, "flush", block_id))

    charges = block_charges(si, sj, k_depth, fmac_stages, drain_width)
    if cycle != charges.cycles:
        raise AssertionError(f"trace walked {cycle} cycles, contract says {charges.cycles}")
    if stalls != charges.stall_cycles:
        raise AssertionError("stall count disagrees with the stall plan")

    for pe in pes:
        pe.fifo_c = list(pe.mc)
    events.append(TraceEvent(cycle + charges.drain_cycles, "drain_done", block_id))

    result = BlockResult(np.stack([pe.mc for pe in pes]), *charges)
    return result, events, pes
