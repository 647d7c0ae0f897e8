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
Reported time runs to the last write-back completion, the latest time a
port is free. The chain-drain of the final block (which the per-block
cycle contract excludes, because every earlier drain overlaps the next
block's compute) is reported separately in the per-array stats and in
time_with_drain_seconds.

The event loop's heap holds fetch ends and compute ends only. A
write-back holds its port, but its end changes no state: an array can
steal only once a compute end frees a buffer with its queue dry (or from
the start, if dealt 0 or 1 tiles, and again at the next instant if one
steal left a buffer free), and a refused steal stays refused, as queues
only shrink. A traced run writes wb_done rows as it schedules write-backs.

A run has two phases. In the per-array regime the arrays share no state
until stealing can start, at h, the first instant at which some array can
steal (never, with stealing off): for an array dealt 0 or 1 tiles the
run's first fetch end, the first instant the loop handles; for any other
the compute end whose fetch empties its queue (the first, for 2 tiles).
Up to h each array's schedule is a recurrence over its own tiles
(_alone): its first two fetches at t = 0; each compute starts at the
later of its fetch end and the previous compute end; each compute end
puts its write-back and then the next fetch onto the array's port. The
recurrence applies the loop's own float operations in the loop's order,
so its times are the loop's bit for bit. At h each array's port, queue,
fetched tiles, statistics, pending fetches and running compute go to the
event loop, which runs unchanged from there. Pending events keep the
loop's push order within each array; their order across arrays does not
matter, because same-time events of different arrays touch different
state, and arbitration waits until every event of an instant has been
handled. The loop runs the whole schedule from t = 0 only under
shared_port (one port from the start) and when the trace is recorded.

The event trace (one row per fetch, compute, write-back and steal) is
recorded only when the run is asked to write it; otherwise the run keeps
nothing but the per-array statistics and the steal log. A traced run
thus takes the event loop from t = 0 throughout, the reference its
untraced twin is tested against: every report field agrees.

A run is strictly deterministic: identical inputs produce an identical
report, event order is fixed by (time, insertion sequence), and
same-instant steal requests are resolved in round-robin order.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import islice

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
        if not isinstance(idx, numbers.Integral) or idx not in range(n_arrays):
            raise ValueError(f"slowdowns names array {idx!r}; the run has {n_arrays}")
        if not isinstance(factor, numbers.Real) or not 0 < factor < math.inf:
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
    """The schedule of run_mpe over one array per slow entry: each array
    alone up to h, then the event loop (from t = 0 under shared_port or
    with a trace); appends (seconds, array, event, tile id) rows to trace
    unless it is None."""
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
    FETCH_DONE, COMPUTE_DONE = 0, 1                # each kind indexes its trace name
    done_events = ("fetch_done", "compute_done")

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

    if shared or tracing:
        # the arrays share a port from the start, or the trace is kept
        for i, q in enumerate(queues):
            for _ in range(min(2, len(q))):
                fetch(i, 0.0, q.popleft())
    else:
        # No array can touch another before h, the first instant at which
        # an array can steal (never, with stealing off): each runs alone
        # up to h, and the loop takes over there with their pending events.
        h = math.inf
        alone = [None] * n_active
        # the deal gives the last arrays the fewest tiles, so at equal
        # clocks the first walk finds h and no later one goes past it
        for i in reversed(range(n_active)):
            alone[i] = _alone(len(queues[i]), in_s, out_s, compute_s[i], h, steal)
            h = min(h, alone[i][-1])
        for i, q in enumerate(queues):
            k, port, last, f0, f1, _ = alone[i]
            if k and last >= h:                 # went past h: walk again
                k, port, last, f0, f1, _ = _alone(len(q), in_s, out_s, compute_s[i],
                                                  h, steal)
            ports[i][0], last_end[i] = port, last
            tiles = stats[i].tiles
            tiles.extend(islice(q, k))
            for tile in tiles:
                executed[tile] = 1
            queues[i] = q = deque(islice(q, k, None))
            # the fetches still pending at h, in the order the loop pushed
            # them, then the compute running there
            for end in (f0, f1)[:len(q)]:
                resident[i] += 1
                tile = q.popleft()
                if end >= h:
                    seq += 1
                    heappush(heap, (end, seq, FETCH_DONE, i, tile))
                else:
                    fetched[i].append(tile)
            if fetched[i]:                      # computing since before h
                seq += 1
                heappush(heap, ((f0 if f0 > last else last) + compute_s[i],
                                seq, COMPUTE_DONE, i, fetched[i][0]))
        if executed.count(1) != sum(len(s.tiles) for s in stats):
            raise SimulationError("the deal gave a tile twice")
    arbitrating = steal and not all(queues)     # stealing on and some queue dry

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
            p[0] = end = start + out_s     # no event: its end changes no state
            if tracing:
                trace.append((start, i, "wb_start", tile))
                trace.append((end, i, "wb_done", tile))
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
        else:
            fetched[i].append(tile)
            if len(fetched[i]) > 1:
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

    time_seconds = max(p[0] for p in ports)    # the latest write-back end
    # Every event, and so every trace row, lies within the makespan: one
    # check covers every seconds-to-cycles conversion of the run.
    if not math.isfinite(time_seconds * f_acc):
        raise OverflowError(f"simulated time of {time_seconds:g} s is too long to "
                            f"count in cycles at {f_acc:g} Hz")
    drain_end = 0.0
    for i, s in enumerate(stats):
        n = s.blocks_executed = len(s.tiles)
        busy, block = 0.0, compute_s[i]
        for _ in range(n):         # block by block: n * block rounds otherwise
            busy += block
        s.busy_seconds = busy
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


def _alone(count: int, in_s: float, out_s: float, compute_s: float, h: float,
           dry: bool):
    """The compute ends of one array over count tiles, taken in the order
    the event loop reaches them while no other array can touch it, with
    the loop's own float operations: the first two fetches at t = 0; each
    compute starts at the later of its fetch end and the previous compute
    end; each compute end puts its write-back and then the next fetch onto
    the array's port (which the write-back leaves free no earlier than the
    compute end).

    Takes every compute end before h. With dry set it stops at the array's
    first chance to steal: the run's first fetch end (in_s) if it was dealt
    fewer than two tiles, else the compute end whose fetch empties its
    queue (the first, for two tiles). Returns (compute ends taken, which
    are the first tiles'; the time the port is free; the last compute end
    taken, or 0.0; the fetch ends of the next two tiles; the first chance
    to steal, or inf). The times of tiles that do not exist mean nothing.
    """
    p = last = f0 = f1 = 0.0
    if count:
        p = f0 = in_s
    if count > 1:
        p = f1 = p + in_s
    if dry and count < 2:
        return 0, p, last, f0, f1, in_s
    stop = max(count - 3, 0) if dry else count
    for k in range(count):
        end = (f0 if f0 > last else last) + compute_s
        if k == stop:
            return k, p, last, f0, f1, end
        if end >= h:
            return k, p, last, f0, f1, math.inf
        last = end
        p = (p if p > end else end) + out_s
        if k + 2 < count:          # the next fetch, once the write-back is on
            p = p + in_s
            f0, f1 = f1, p
        else:                      # the last two fetch nothing
            f0 = f1
    return count, p, last, f0, f1, math.inf
