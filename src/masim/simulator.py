"""Event-driven simulation of the full accelerator.

The simulator is a pure timing engine: the schedule depends only on the
machine (mpe.Machine: clock, pipeline, bandwidth model, transfer regime),
the tile grid and the queues, never on the matrix values, so run_mpe
takes no matrix data. The machine's feasibility rule is checked for one
array per queue before anything runs. The output the modelled arrays
produce is the k-ordered kernel blockmm.reference_gemm applied to the
whole problem (mpe.trace_block ties each block's numerics to that
kernel); callers compute it once, after the schedule.

One run drives the active arrays over their work queues with overlapped
transfers: each array holds at most two resident blocks (one computing
from the active buffer, one prefetching into the shadow buffer), its
transfer engine serialises fetches and write-backs, and compute starts
only once a block's data is fully resident. Work stealing is evaluated at
block boundaries, i.e. whenever the event loop finishes a batch of
same-time events.

Two transfer regimes are available. In the default per-array regime every
active array sees the effective bandwidth the bandwidth model assigns to
the (array count, block size) configuration. The shared-port regime
serialises all arrays' transfers through one port at the single-array
rate, so contention emerges from the schedule instead of the model.

Reported time runs to the last write-back completion. The chain-drain of
the final block (which the per-block cycle contract excludes, because
every earlier drain overlaps the next block's compute) is reported
separately in the per-array stats and in time_with_drain_seconds.

The event trace (one row per fetch, compute, write-back and steal) is
recorded only when the run is asked to write it; otherwise the loop keeps
nothing but the per-array statistics and the steal log.

A run is strictly deterministic: identical inputs produce an identical
report, event order is fixed by (time, insertion sequence), and
same-instant steal requests are resolved by the round-robin arbiter.
"""

from __future__ import annotations

import csv
import heapq
import math
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
    """Per-array run state: queue, engines, buffers."""

    def __init__(self, idx, queue, slowdown):
        self.idx = idx
        self.queue = queue
        self.slowdown = slowdown
        self.stats = ArrayRunStats(array_id=idx)
        self.resident = 0              # fetched (or fetching) but compute unfinished
        self.transfer_free = 0.0
        self.compute_busy = False
        self.ready: deque = deque()    # fetched tile ids awaiting compute
        self.last_compute_end = 0.0
        self.last_wb_end = 0.0
        self.last_drain_cycles = 0

    def needy(self) -> bool:
        return len(self.queue) == 0 and self.resident < 2


def run_mpe(machine: Machine, grid: TileGrid, queues: list[wqm.WorkQueue], *,
            steal: bool = True, slowdowns=None, trace_path=None) -> SimReport:
    """Schedule the tiles of grid on the machine and report the timing.

    queues come from the workload queue manager, one per active array;
    the machine must be able to field that many arrays for the grid's
    blocks (InfeasibleBlockError otherwise). slowdowns optionally scales
    individual arrays' clock periods (testing aid for load-imbalance
    scenarios; charged cycle stats stay nominal). After every arbitration
    round the queue counters and the no-starvation rule are checked; a
    violation raises SimulationError. A makespan too long to count in
    cycles at the machine's clock raises OverflowError.

    With trace_path the event trace is written there as CSV, with header
    cycle,array,event,block and rows sorted by cycle. The file is opened
    before the first event, so a path that cannot be written raises
    OSError before anything is scheduled.
    """
    n_active = len(queues)
    machine.check(n_active, grid.block_rows, grid.block_cols)
    if slowdowns is None:
        slow = [1.0] * n_active
    elif isinstance(slowdowns, dict):
        slow = [float(slowdowns.get(i, 1.0)) for i in range(n_active)]
    else:
        slow = [float(s) for s in slowdowns]
        if len(slow) != n_active:
            raise ValueError("slowdowns must match the number of active arrays")

    if trace_path is None:
        return _schedule(machine, grid, queues, slow, steal, None)
    with open(trace_path, "w", newline="") as fh:
        trace: list[tuple[float, int, str, int]] = []
        report = _schedule(machine, grid, queues, slow, steal, trace)
        # seconds become cycles before sorting: rows in the same cycle are
        # ordered by array, event and block
        writer = csv.writer(fh)
        writer.writerow(["cycle", "array", "event", "block"])
        writer.writerows(sorted((round(t * machine.f_acc), idx, kind, tile)
                                for t, idx, kind, tile in trace))
    return report


def _schedule(machine: Machine, grid: TileGrid, queues: list[wqm.WorkQueue],
              slow: list[float], steal: bool, trace) -> SimReport:
    """The event loop of run_mpe; appends (seconds, array, event, tile id)
    rows to trace unless it is None."""
    n_active = len(queues)
    f_acc = machine.f_acc
    per_array_bw = mac.effective_bandwidth(machine.bw_model, n_active, grid.block_rows)
    port_bw = mac.effective_bandwidth(machine.bw_model, 1, grid.block_rows)
    shared = machine.contention == "shared_port"
    shared_free = 0.0
    # Every padded tile moves the same bytes, so one plan serves the grid.
    plan = mac.plan_for_tile(grid, 0, 0)
    in_bytes, out_bytes = plan.in_bytes, plan.out_bytes
    charges = block_charges(grid.block_rows, grid.block_cols, grid.depth, machine)
    cycles = charges.cycles

    states = [_ArrayState(i, queues[i], slow[i]) for i in range(n_active)]
    arbiter = wqm.RoundRobinArbiter(n_active)
    steal_log: list[wqm.StealEvent] = []
    executed: set[int] = set()

    heap: list = []
    seq = 0

    def push(t, kind, idx, tile):
        nonlocal seq
        heapq.heappush(heap, (t, seq, kind, idx, tile))
        seq += 1

    def xfer(st: _ArrayState, t: float, nbytes: int):
        """Claim the array's (or the shared) transfer engine; return end time."""
        nonlocal shared_free
        if shared:
            start = max(t, shared_free)
            end = start + (nbytes / port_bw if math.isfinite(port_bw) else 0.0)
            shared_free = end
        else:
            start = max(t, st.transfer_free)
            end = start + (nbytes / per_array_bw if math.isfinite(per_array_bw) else 0.0)
            st.transfer_free = end
        return start, end

    def issue_fetches(st: _ArrayState, t: float):
        while st.resident < 2 and len(st.queue) > 0:
            tile = st.queue.pop_head()
            st.resident += 1
            start, end = xfer(st, t, in_bytes)
            st.stats.bytes_in += in_bytes
            if trace is not None:
                trace.append((start, st.idx, "fetch_start", tile))
            push(end, "fetch_done", st.idx, tile)

    def start_compute(st: _ArrayState, t: float):
        if st.compute_busy or not st.ready:
            return
        tile = st.ready.popleft()
        st.compute_busy = True
        if trace is not None:
            trace.append((t, st.idx, "compute_start", tile))
        push(t + cycles / f_acc * st.slowdown, "compute_done", st.idx, tile)

    def finish_compute(st: _ArrayState, tile: int, t: float):
        s = st.stats
        s.blocks_executed += 1
        s.tiles.append(tile)
        s.prefetch_cycles += charges.prefetch_cycles
        s.compute_cycles += charges.compute_cycles
        s.stall_cycles += charges.stall_cycles
        s.busy_seconds += cycles / f_acc * st.slowdown
        st.last_drain_cycles = charges.drain_cycles
        st.last_compute_end = t
        if tile in executed:
            raise SimulationError(f"tile {tile} executed twice")
        executed.add(tile)

        start, end = xfer(st, t, out_bytes)
        s.bytes_out += out_bytes
        if trace is not None:
            trace.append((start, st.idx, "wb_start", tile))
        push(end, "wb_done", st.idx, tile)
        st.resident -= 1
        st.compute_busy = False
        issue_fetches(st, t)
        start_compute(st, t)

    def arbitration(t: float):
        needy = [st.idx for st in states if st.needy()]
        if not needy:
            return

        def grant(thief: int):
            states[thief].stats.steals_taken += 1
            issue_fetches(states[thief], t)

        before = len(steal_log)
        wqm.arbitrate([st.queue for st in states], needy, arbiter, t, steal_log,
                      on_steal=grant)
        if trace is not None:
            trace.extend((ev.time_s, ev.thief, "steal", ev.item_id)
                         for ev in steal_log[before:])
        for st in states:
            st.queue.check_counter()
        still = [st for st in states if st.needy() and st.resident == 0
                 and len(st.queue) == 0]
        if still and any(st.queue.counter >= 1 for st in states):
            raise SimulationError("array starved while another queue holds work")

    for st in states:
        issue_fetches(st, 0.0)

    while heap:
        t, _, kind, idx, tile = heapq.heappop(heap)
        st = states[idx]
        if trace is not None:
            trace.append((t, idx, kind, tile))
        if kind == "fetch_done":
            st.ready.append(tile)
            start_compute(st, t)
        elif kind == "compute_done":
            finish_compute(st, tile, t)
        elif kind == "wb_done":
            st.last_wb_end = t
        if steal and (not heap or heap[0][0] > t):
            arbitration(t)

    if len(executed) != grid.tile_count or any(len(st.queue) for st in states):
        raise SimulationError(
            f"run ended with {len(executed)}/{grid.tile_count} tiles executed")

    time_seconds = max((max(st.last_wb_end, st.last_compute_end) for st in states),
                       default=0.0)
    # Every event, and so every trace row, lies within the makespan: one
    # check covers every seconds-to-cycles conversion of the run.
    if not math.isfinite(time_seconds * f_acc):
        raise OverflowError(f"simulated time of {time_seconds:g} s is too long to "
                            f"count in cycles at {f_acc:g} Hz")
    drain_end = 0.0
    for st in states:
        st.stats.drain_cycles = st.last_drain_cycles
        if st.stats.blocks_executed:
            drain_end = max(drain_end, st.last_compute_end
                            + st.last_drain_cycles / f_acc * st.slowdown)
    time_with_drain = max(time_seconds, drain_end)
    for st in states:
        st.stats.idle_cycles = max(0, round((time_seconds - st.stats.busy_seconds) * f_acc))

    m, k, n = grid.m, grid.depth, grid.n
    return SimReport(
        shape=(m, k, n),
        total_cycles=round(time_seconds * f_acc),
        time_seconds=time_seconds,
        time_with_drain_seconds=time_with_drain,
        gflops=2.0 * m * k * n / time_seconds / 1e9 if time_seconds > 0 else 0.0,
        arrays=[st.stats for st in states],
        steal_events=steal_log,
        tile_count=grid.tile_count,
    )
