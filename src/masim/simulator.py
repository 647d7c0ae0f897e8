"""Event-driven simulation of the full accelerator.

The simulator is a pure timing engine: the schedule depends only on the
machine (mpe.Machine: clock, pipeline, bandwidth model, transfer regime),
the tile grid and the array count, never on the matrix values, so run_mpe
takes no matrix data. The machine's feasibility rule is checked for that
array count before anything runs. The output the modelled arrays
produce is the k-ordered kernel blockmm.reference_gemm applied to the
whole problem (mpe.trace_block ties each block's numerics to that
kernel); callers compute it once, after the schedule.

One run deals the tiles round-robin onto one work queue per active array
(wqm.partition_workload) and drives the arrays over them with overlapped
transfers: each array holds at most two resident blocks (one computing
from the active buffer, one prefetching into the shadow buffer), its
transfer engine serialises fetches and write-backs, and compute starts
only once a block's data is fully resident. Work stealing
(wqm.arbitrate) is evaluated at block boundaries, i.e. whenever the event
loop finishes a batch of same-time events.

Two transfer regimes are available. In the default per-array regime every
active array sees the effective bandwidth the bandwidth model assigns to
the (array count, block size) configuration. The shared-port regime
serialises all arrays' transfers through one port at the single-array
rate, so contention emerges from the schedule instead of the model.

Every padded tile moves the same bytes and is charged the same cycles
(mac.block_bytes, mpe.block_charges), so each array's totals are its block
count times one block's values; only busy_seconds is summed block by block.
Reported time runs to the last write-back completion. The chain-drain of
the final block (which the per-block cycle contract excludes, because
every earlier drain overlaps the next block's compute) is reported
separately in the per-array stats and in time_with_drain_seconds.

The event trace (one row per fetch, compute, write-back and steal) is
recorded only when the run is asked to write it; otherwise the loop keeps
nothing but the per-array statistics and the steal log.

A run is strictly deterministic: identical inputs produce an identical
report, event order is fixed by (time, insertion sequence), and
same-instant steal requests are resolved in round-robin order.
"""

from __future__ import annotations

import csv
import heapq
import itertools
import math
import os
from collections import deque
from dataclasses import dataclass, field

from . import mac, wqm
from .blockmm import TileGrid
from .mpe import Machine, block_charges


class SimulationError(RuntimeError):
    """Internal inconsistency: the event loop wedged or lost work."""


@dataclass
class ArrayRunStats:
    array_id: int
    compute_cycles: int = 0
    stall_cycles: int = 0
    prefetch_cycles: int = 0
    blocks_executed: int = 0
    idle_cycles: int = 0
    drain_cycles: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    steals_taken: int = 0
    busy_seconds: float = 0.0
    tiles: list[int] = field(default_factory=list)


@dataclass
class SimReport:
    shape: tuple[int, int, int]          # (m, depth, n)
    total_cycles: int
    time_seconds: float
    time_with_drain_seconds: float
    gflops: float
    arrays: list[ArrayRunStats]
    steal_events: list[wqm.StealEvent]
    tile_count: int


class _ArrayState:
    """Per-array run state: queue, transfer port, buffers."""

    def __init__(self, idx, queue, slowdown, port):
        self.idx = idx
        self.queue = queue
        self.slowdown = slowdown
        self.port = port               # [time its transfer engine is free]
        self.stats = ArrayRunStats(array_id=idx)
        self.resident = 0              # fetched (or fetching) but compute unfinished
        self.compute_busy = False
        self.ready: deque = deque()    # fetched tile ids awaiting compute
        self.last_compute_end = 0.0


def run_mpe(machine: Machine, grid: TileGrid, n_arrays: int, *,
            steal: bool = True, slowdowns=None, trace_path=None) -> SimReport:
    """Schedule the tiles of grid on n_arrays arrays of the machine and
    report the timing.

    The machine must be able to field n_arrays arrays for the grid's
    blocks (InfeasibleBlockError otherwise). With steal=False each array
    runs only the tiles dealt to it. slowdowns optionally maps array ids
    to factors that scale those arrays' clock periods (testing aid for
    load-imbalance scenarios; charged cycle stats stay nominal); an id
    outside range(n_arrays) or a factor that is not positive and finite
    raises ValueError. After every arbitration round the no-starvation
    rule is checked; a violation raises SimulationError. A makespan too
    long to count in cycles at the machine's clock raises OverflowError.

    With trace_path the event trace is written there as CSV, with header
    cycle,array,event,block and rows sorted by cycle. The file is opened
    before the first event, so a path that cannot be written raises
    OSError before anything is scheduled; a run that then fails removes
    the file again.
    """
    machine.check(n_arrays, grid.block_rows, grid.block_cols)
    slow = [1.0] * n_arrays
    for idx, factor in (slowdowns or {}).items():
        if idx not in range(n_arrays):
            raise ValueError(f"slowdowns names array {idx!r}; the run has {n_arrays}")
        if not 0 < factor < math.inf:
            raise ValueError(f"slowdown of array {idx} must be positive and finite, "
                             f"got {factor!r}")
        slow[idx] = float(factor)

    if trace_path is None:
        return _schedule(machine, grid, slow, steal, None)
    with open(trace_path, "w", newline="") as fh:
        trace: list[tuple[float, int, str, int]] = []
        try:
            report = _schedule(machine, grid, slow, steal, trace)
        except BaseException:
            fh.close()
            os.remove(trace_path)
            raise
        # seconds become cycles before sorting: rows in the same cycle are
        # ordered by array, event and block
        writer = csv.writer(fh)
        writer.writerow(["cycle", "array", "event", "block"])
        writer.writerows(sorted((round(t * machine.f_acc), idx, kind, tile)
                                for t, idx, kind, tile in trace))
    return report


def _schedule(machine: Machine, grid: TileGrid, slow: list[float], steal: bool,
              trace) -> SimReport:
    """The event loop of run_mpe over one array per slow entry; appends
    (seconds, array, event, tile id) rows to trace unless it is None."""
    n_active = len(slow)
    f_acc = machine.f_acc
    shared = machine.contention == "shared_port"
    # the shared port moves every array's data at the single-array rate
    bw = mac.effective_bandwidth(machine.bw_model, 1 if shared else n_active,
                                 grid.block_rows)
    in_bytes, out_bytes = mac.block_bytes(grid.block_rows, grid.block_cols, grid.depth)
    charges = block_charges(grid.block_rows, grid.block_cols, grid.depth, machine)
    block_seconds = charges.cycles / f_acc

    queues = wqm.partition_workload(grid.tile_count, n_active)
    port = [0.0]                   # the one port all arrays share under shared_port
    states = [_ArrayState(i, queues[i], slow[i], port if shared else [0.0])
              for i in range(n_active)]
    pointer = 0                    # round-robin pointer of the steal arbitration
    steal_log: list[wqm.StealEvent] = []
    executed: set[int] = set()

    heap: list = []
    order = itertools.count()      # same-time events pop in insertion order

    def transfer(st: _ArrayState, t: float, nbytes: int, tile: int,
                 start_kind: str, done_kind: str):
        """Queue nbytes on the array's transfer port from t on."""
        start = max(t, st.port[0])
        st.port[0] = end = start + nbytes / bw
        if trace is not None:
            trace.append((start, st.idx, start_kind, tile))
        heapq.heappush(heap, (end, next(order), done_kind, st, tile))

    def issue_fetches(st: _ArrayState, t: float):
        while st.resident < 2 and st.queue:
            st.resident += 1
            transfer(st, t, in_bytes, st.queue.popleft(), "fetch_start", "fetch_done")

    def start_compute(st: _ArrayState, t: float):
        if st.compute_busy or not st.ready:
            return
        tile = st.ready.popleft()
        st.compute_busy = True
        if trace is not None:
            trace.append((t, st.idx, "compute_start", tile))
        heapq.heappush(heap, (t + block_seconds * st.slowdown, next(order),
                              "compute_done", st, tile))

    def finish_compute(st: _ArrayState, tile: int, t: float):
        st.stats.tiles.append(tile)
        st.stats.busy_seconds += block_seconds * st.slowdown
        st.last_compute_end = t
        if tile in executed:
            raise SimulationError(f"tile {tile} executed twice")
        executed.add(tile)
        transfer(st, t, out_bytes, tile, "wb_start", "wb_done")
        st.resident -= 1
        st.compute_busy = False
        issue_fetches(st, t)
        start_compute(st, t)

    for st in states:
        issue_fetches(st, 0.0)

    t = 0.0
    while heap:
        t, _, kind, st, tile = heapq.heappop(heap)
        if trace is not None:
            trace.append((t, st.idx, kind, tile))
        if kind == "fetch_done":
            st.ready.append(tile)
            start_compute(st, t)
        elif kind == "compute_done":
            finish_compute(st, tile, t)
        if not steal or heap and heap[0][0] <= t:
            continue
        needy = [s.idx for s in states if not s.queue and s.resident < 2]
        if not needy:
            continue
        before = len(steal_log)
        pointer = wqm.arbitrate(queues, needy, pointer, t, steal_log)
        # each thief fetches its tile at once, in grant order, so the
        # shared port serves the stolen tiles in that order
        for ev in steal_log[before:]:
            thief = states[ev.thief]
            thief.stats.steals_taken += 1
            thief.resident += 1
            transfer(thief, t, in_bytes, ev.item_id, "fetch_start", "fetch_done")
            if trace is not None:
                trace.append((t, ev.thief, "steal", ev.item_id))
        if any(s.resident == 0 and not s.queue for s in states) and any(queues):
            raise SimulationError("array starved while another queue holds work")

    if len(executed) != grid.tile_count or any(queues):
        raise SimulationError(
            f"run ended with {len(executed)}/{grid.tile_count} tiles executed")

    time_seconds = t               # the last event: the latest write-back end
    # Every event, and so every trace row, lies within the makespan: one
    # check covers every seconds-to-cycles conversion of the run.
    if not math.isfinite(time_seconds * f_acc):
        raise OverflowError(f"simulated time of {time_seconds:g} s is too long to "
                            f"count in cycles at {f_acc:g} Hz")
    drain_end = 0.0
    for st in states:
        s = st.stats
        n = s.blocks_executed = len(s.tiles)
        s.prefetch_cycles = n * charges.prefetch_cycles
        s.compute_cycles = n * charges.compute_cycles
        s.stall_cycles = n * charges.stall_cycles
        s.bytes_in, s.bytes_out = n * in_bytes, n * out_bytes
        s.idle_cycles = max(0, round((time_seconds - s.busy_seconds) * f_acc))
        if n:
            s.drain_cycles = charges.drain_cycles
            drain_end = max(drain_end, st.last_compute_end
                            + charges.drain_cycles / f_acc * st.slowdown)

    m, k, n = grid.m, grid.depth, grid.n
    return SimReport(
        shape=(m, k, n),
        total_cycles=round(time_seconds * f_acc),
        time_seconds=time_seconds,
        time_with_drain_seconds=max(time_seconds, drain_end),
        gflops=2.0 * m * k * n / time_seconds / 1e9 if time_seconds > 0 else 0.0,
        arrays=[st.stats for st in states],
        steal_events=steal_log,
        tile_count=grid.tile_count,
    )
