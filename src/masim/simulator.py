"""Event-driven simulation of the full accelerator.

The simulator is a pure timing engine: run_mpe takes the same problem
shape, design point and machine as model.bounds, and the schedule depends
only on them (mpe.Machine: clock, pipeline, bandwidth model, transfer
regime), never on the matrix values, so it takes no matrix data. The
machine's feasibility rule is checked for the point before anything
runs. The output the modelled arrays produce is the k-ordered kernel
blockmm.reference_gemm applied to the whole problem (blockmm.trace_block
ties each block's numerics to that kernel); callers compute it once,
after the schedule.

One run deals the problem's tiles (model.ProblemShape.tile_count, with
row-major ids) round-robin onto one work queue per active array
(wqm.partition_workload) and drives the arrays over them with overlapped
transfers: each array holds at most two resident blocks (one computing
from the active buffer, one prefetching into the shadow buffer), its
transfer engine serialises fetches and write-backs, and compute starts
only once a block's data is fully resident. Work stealing
(wqm.arbitrate) is evaluated at block boundaries, i.e. whenever the event
loop finishes a batch of same-time events, once some queue has run dry
(only an array with no queued work asks for more).

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
import math
import os
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush

from . import mac, wqm
from .model import DesignPoint, ProblemShape
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
    total_cycles: int
    time_seconds: float
    time_with_drain_seconds: float
    gflops: float
    arrays: list[ArrayRunStats]
    steal_events: list[wqm.StealEvent]
    tile_count: int


def run_mpe(shape: ProblemShape, point: DesignPoint, machine: Machine, *,
            steal: bool = True, slowdowns=None, trace_path=None) -> SimReport:
    """Schedule the tiles of shape at the design point on the machine and
    report the timing.

    The machine must be able to field point.n_arrays arrays for the
    point's blocks (InfeasibleBlockError otherwise). With steal=False each
    array runs only the tiles dealt to it. slowdowns optionally maps array
    ids to factors that scale those arrays' clock periods (testing aid for
    load-imbalance scenarios; charged cycle stats stay nominal); an id
    outside range(point.n_arrays) or a factor that is not positive and
    finite raises ValueError. After every arbitration round the no-starvation
    rule is checked; a violation raises SimulationError. A makespan too
    long to count in cycles at the machine's clock raises OverflowError.

    With trace_path the event trace is written there as CSV, with header
    cycle,array,event,block and rows sorted by cycle. The file is opened
    before the first event, so a path that cannot be written raises
    OSError before anything is scheduled; a run that then fails removes
    the file again.
    """
    n_arrays = point.n_arrays
    machine.check(n_arrays, point.block_rows, point.block_cols)
    slow = [1.0] * n_arrays
    for idx, factor in (slowdowns or {}).items():
        if idx not in range(n_arrays):
            raise ValueError(f"slowdowns names array {idx!r}; the run has {n_arrays}")
        if not 0 < factor < math.inf:
            raise ValueError(f"slowdown of array {idx} must be positive and finite, "
                             f"got {factor!r}")
        slow[idx] = float(factor)

    if trace_path is None:
        return _schedule(shape, point, machine, slow, steal, None)
    with open(trace_path, "w", newline="") as fh:
        trace: list[tuple[float, int, str, int]] = []
        try:
            report = _schedule(shape, point, machine, slow, steal, trace)
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


def _schedule(shape: ProblemShape, point: DesignPoint, machine: Machine,
              slow: list[float], steal: bool, trace) -> SimReport:
    """The event loop of run_mpe over one array per slow entry; appends
    (seconds, array, event, tile id) rows to trace unless it is None."""
    n_active = len(slow)
    f_acc = machine.f_acc
    shared = machine.contention == "shared_port"
    si, sj, depth = point.block_rows, point.block_cols, shape.depth
    # the shared port moves every array's data at the single-array rate
    bw = mac.effective_bandwidth(machine.bw_model, 1 if shared else n_active, si)
    in_bytes, out_bytes = mac.block_bytes(si, sj, depth)
    in_s, out_s = in_bytes / bw, out_bytes / bw
    charges = block_charges(si, sj, depth, machine)
    compute_s = [charges.cycles / f_acc * factor for factor in slow]  # one block, slowed

    tile_count = shape.tile_count(si, sj)
    # one byte per tile, allocated before the deal builds its queues of every
    # tile id, so a tile count too large for memory raises MemoryError first
    executed = bytearray(tile_count)
    queues = wqm.partition_workload(tile_count, n_active)
    # [time the transfer port is free]; all arrays share one under shared_port
    ports = [[0.0]] * n_active if shared else [[0.0] for _ in range(n_active)]
    stats = [ArrayRunStats(array_id=i) for i in range(n_active)]
    last_end = [0.0] * n_active    # each array's last compute completion
    resident = [0] * n_active      # fetched (or fetching) but compute unfinished
    fetched = [deque() for _ in range(n_active)]  # not yet computed; the head computes
    pointer = 0                    # round-robin pointer of the steal arbitration
    steal_log: list[wqm.StealEvent] = []
    tracing = trace is not None
    heap: list = []                # (time, insertion sequence, kind, array, tile id)
    seq = 0                        # same-time events pop in insertion order
    FETCH_DONE, COMPUTE_DONE, WB_DONE = 0, 1, 2    # each kind indexes its trace name
    done_events = ("fetch_done", "compute_done", "wb_done")

    def fetch(i: int, t: float, tile: int):
        # the first fetches and stolen tiles; the loop inlines its refills
        nonlocal seq
        resident[i] += 1
        start = ports[i][0] if ports[i][0] > t else t
        ports[i][0] = end = start + in_s
        if tracing:
            trace.append((start, i, "fetch_start", tile))
        seq += 1
        heappush(heap, (end, seq, FETCH_DONE, i, tile))

    for i, q in enumerate(queues):
        for _ in range(min(2, len(q))):
            fetch(i, 0.0, q.popleft())
    arbitrating = steal and not all(queues)     # stealing on and some queue dry

    t = 0.0
    while heap:
        t, _, kind, i, tile = heappop(heap)
        if tracing:
            trace.append((t, i, done_events[kind], tile))
        if kind == COMPUTE_DONE:
            stats[i].tiles.append(tile)
            last_end[i] = t
            if executed[tile]:
                raise SimulationError(f"tile {tile} executed twice")
            executed[tile] = 1
            p = ports[i]
            start = p[0] if p[0] > t else t
            p[0] = end = start + out_s
            if tracing:
                trace.append((start, i, "wb_start", tile))
            seq += 1
            heappush(heap, (end, seq, WB_DONE, i, tile))
            resident[i] -= 1
            q = queues[i]
            while resident[i] < 2 and q:
                resident[i] += 1
                nxt = q.popleft()
                start = p[0] if p[0] > t else t
                p[0] = end = start + in_s
                if tracing:
                    trace.append((start, i, "fetch_start", nxt))
                seq += 1
                heappush(heap, (end, seq, FETCH_DONE, i, nxt))
                if not q:
                    arbitrating = steal
            fetched[i].popleft()
            tile = fetched[i][0] if fetched[i] else -1
        elif kind == FETCH_DONE:
            fetched[i].append(tile)
            if len(fetched[i]) > 1:
                tile = -1
        else:
            tile = -1
        if tile >= 0:              # array i starts computing tile now
            if tracing:
                trace.append((t, i, "compute_start", tile))
            seq += 1
            heappush(heap, (t + compute_s[i], seq, COMPUTE_DONE, i, tile))
        if not arbitrating or heap and heap[0][0] <= t:
            continue
        needy = [j for j in range(n_active) if not queues[j] and resident[j] < 2]
        if not needy:
            continue
        before = len(steal_log)
        pointer = wqm.arbitrate(queues, needy, pointer, t, steal_log)
        # each thief fetches its tile at once, in grant order, so the
        # shared port serves the stolen tiles in that order
        for ev in steal_log[before:]:
            stats[ev.thief].steals_taken += 1
            fetch(ev.thief, t, ev.item_id)
            if tracing:
                trace.append((t, ev.thief, "steal", ev.item_id))
        if any(r == 0 and not q for r, q in zip(resident, queues)) and any(queues):
            raise SimulationError("array starved while another queue holds work")

    if executed.count(1) != tile_count or any(queues):
        raise SimulationError(
            f"run ended with {executed.count(1)}/{tile_count} tiles executed")

    time_seconds = t               # the last event: the latest write-back end
    # Every event, and so every trace row, lies within the makespan: one
    # check covers every seconds-to-cycles conversion of the run.
    if not math.isfinite(time_seconds * f_acc):
        raise OverflowError(f"simulated time of {time_seconds:g} s is too long to "
                            f"count in cycles at {f_acc:g} Hz")
    drain_end = 0.0
    for i, s in enumerate(stats):
        n = s.blocks_executed = len(s.tiles)
        for _ in s.tiles:          # block by block: n * compute_s[i] rounds otherwise
            s.busy_seconds += compute_s[i]
        s.prefetch_cycles = n * charges.prefetch_cycles
        s.compute_cycles = n * charges.compute_cycles
        s.stall_cycles = n * charges.stall_cycles
        s.bytes_in, s.bytes_out = n * in_bytes, n * out_bytes
        s.idle_cycles = max(0, round((time_seconds - s.busy_seconds) * f_acc))
        if n:
            s.drain_cycles = charges.drain_cycles
            drain_end = max(drain_end, last_end[i]
                            + charges.drain_cycles / f_acc * slow[i])

    return SimReport(
        total_cycles=round(time_seconds * f_acc),
        time_seconds=time_seconds,
        time_with_drain_seconds=max(time_seconds, drain_end),
        gflops=shape.flops / time_seconds / 1e9 if time_seconds > 0 else 0.0,
        arrays=stats,
        steal_events=steal_log,
        tile_count=tile_count,
    )
