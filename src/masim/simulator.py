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
(wqm.partition_workload; each queue is a range of the ids of one residue
modulo the array count) and drives the arrays over them with overlapped
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
rate, so contention emerges from the schedule instead of the model. One
array's port is the shared port, so a one-array run takes the per-array
regime under either name.

Every padded tile moves the same bytes and is charged the same cycles
(mac.block_bytes, mpe.block_charges), so each array's totals are its block
count times one block's values; only busy_seconds is summed block by block,
once for each distinct (block count, slowdown).
Reported time runs to the last write-back completion, the latest time a
port is free. The chain-drain of the final block (which the per-block
cycle contract excludes, because every earlier drain overlaps the next
block's compute) is reported separately in the per-array stats and in
time_with_drain_seconds.

The event loop's heap holds fetch ends and compute ends only. A
write-back holds its port, but its end changes no state: an array asks
for work only while its queue is dry and it holds fewer than two tiles,
and a refused steal stays refused, as queues only shrink. A traced run
writes wb_done rows as it schedules write-backs.

The walks schedule a run up to its first steal (all of it, if it never
steals) by a recurrence that applies the loop's own float operations in
the loop's order, so its times are the loop's bit for bit: the first two
fetches of each array at t = 0; each compute starts at the later of its
fetch end and the previous compute end; each compute end puts its
write-back and then the next fetch onto the port. An array dealt count
tiles takes its last queued tile at its compute end count - 3 and asks
for work from its compute end count - 2. The deal's counts differ by at
most one, so if it deals an array fewer than two tiles, every queue is
dry after the first fetches and the run never steals.

In the per-array regime each array walks its whole run alone (_alone),
and the run steals exactly when the least compute end count - 2 is
earlier than the greatest compute end count - 3; only unequal clocks
(slowdowns) bring that about, and such a run takes the loop from t = 0.
Arrays dealt one count at one clock walk alike, so the run walks once
per distinct (count, slowdown): at equal clocks at most twice, as the
deal's counts differ by at most one.
Under shared_port one walk takes every array's compute ends in (time,
array) order on the one port (_shared) and stops at the first compute end
count - 2 that finds a tile still queued: the first steal. The fetches
and the compute running there become the loop's pending events, in the
loop's push order within each array, and the loop runs unchanged from
there. On one port the order of same-instant events decides whose
transfer the port serves first; the loop serves them in array order, as
a fixed-priority arbiter does, and so does the walk, so the walk never
falls back on the loop. The loop runs the whole schedule from t = 0 only
when the trace is recorded or when a per-array run steals.

A walked array's tiles are a prefix of its queue, a range, so an
untraced run lists them in C and touches no tile in Python. The tile
check counts: walked ranges hold disjoint residues, and each tile the
loop computes is checked against its residue's walked range and the
loop's earlier tiles, so a tile computed twice or left undone is still
named. The loop keeps a count of the tiles still queued and holds no
arbitration round once it is 0, as such a round cannot grant.

The event trace (one row per fetch, compute, write-back and steal) is
recorded only when the run is asked to write it; otherwise the run keeps
nothing but the per-array statistics and the steal log. A traced run
thus takes the event loop from t = 0 throughout, the reference its
untraced twin is tested against: every report field agrees.

A run is strictly deterministic: identical inputs produce an identical
report, event order is fixed by (time, array, insertion sequence), so
same-instant events go in array order and each array's in the order they
were queued, and same-instant steal requests are resolved in round-robin
order.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush, heapreplace

from . import mac, wqm
from .model import DesignPoint, ProblemShape
from .mpe import Machine, block_charges


class SimulationError(RuntimeError):
    """Internal inconsistency: the event loop wedged or lost work."""


FETCH_DONE, COMPUTE_DONE = 0, 1    # the event loop's kinds of event


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
    that is not an int in range(point.n_arrays) (a bool is not) or a
    factor that is not positive and finite raises ValueError. After every arbitration round the no-starvation
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
        if not isinstance(idx, numbers.Integral) or isinstance(idx, bool) \
                or idx not in range(n_arrays):
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
    """The schedule of run_mpe over one array per slow entry: a recurrence
    up to the run's first steal (_alone once per distinct array, or _shared
    for two or more arrays on one port), then the event loop from the
    events pending there. The loop runs from t = 0 with a trace or when a
    per-array run steals. Appends (seconds, array, event, tile id) rows to
    trace unless it is None."""
    n_active = len(slow)
    f_acc = machine.f_acc
    # one array's port is the shared port: the regime needs two arrays
    shared = machine.contention == "shared_port" and n_active > 1
    si, sj, depth = point.block_rows, point.block_cols, shape.depth
    # the shared port moves every array's data at the single-array rate
    bw = mac.effective_bandwidth(machine.bw_model, 1 if shared else n_active, si)
    in_bytes, out_bytes = mac.block_bytes(si, sj, depth)
    in_s, out_s = in_bytes / bw, out_bytes / bw
    charges = block_charges(si, sj, depth, machine)
    compute_s = [charges.cycles / f_acc * factor for factor in slow]  # one block, slowed

    tile_count = shape.tile_count(si, sj)
    # one byte per tile the event loop executes, allocated before the walks
    # (whose time grows with the tiles), so a tile count too large for
    # memory raises MemoryError first
    looped = bytearray(tile_count)
    queues = wqm.partition_workload(tile_count, n_active)
    # the tiles each array's walk executed, a prefix of its queue: these
    # ranges hold disjoint residues modulo n_active
    walked = [range(0)] * n_active
    # [time the transfer port is free]; all arrays share one under shared_port
    ports = [[0.0]] * n_active if shared else [[0.0] for _ in range(n_active)]
    stats = [ArrayRunStats(array_id=i) for i in range(n_active)]
    last_end = [0.0] * n_active    # each array's last compute completion
    resident = [0] * n_active      # fetched (or fetching) but compute unfinished
    fetched = [deque() for _ in range(n_active)]  # not yet computed; the head computes
    pointer = 0                    # round-robin pointer of the steal arbitration
    steal_log: list[wqm.StealEvent] = []
    tracing = trace is not None
    heap: list = []                # (time, array, insertion sequence, kind, tile id)
    seq = 0                        # same-time events pop in array, then insertion order
    done_events = ("fetch_done", "compute_done")   # indexed by kind

    def fetch(i: int, t: float, tile: int):
        nonlocal seq
        resident[i] += 1
        start = ports[i][0] if ports[i][0] > t else t
        ports[i][0] = end = start + in_s
        if tracing:
            trace.append((start, i, "fetch_start", tile))
        seq += 1
        heappush(heap, (end, i, seq, FETCH_DONE, tile))

    # the walks up to the run's first steal, the loop from there
    h, walks = math.inf, None
    if shared and not tracing:
        h, walks = _shared([len(q) for q in queues], in_s, out_s, compute_s, steal)
    elif not tracing:
        # arrays dealt one count at one clock walk alike: one walk for each
        alone = {key: _alone(key[0], in_s, out_s, key[1])
                 for key in dict.fromkeys(zip(map(len, queues), compute_s))}
        # a run steals if an array asks for work (from its compute end
        # count - 2) before another's queue is dry (at its compute end
        # count - 3); it then runs the loop from t = 0
        if not steal or min(a[3] for a in alone.values()) >= \
                max(a[2] for a in alone.values()):
            walks = [(len(q), *alone[len(q), c][:2], (), ())
                     for q, c in zip(queues, compute_s)]
    if walks is None:
        # a kept trace or a per-array steal: the loop from t = 0
        for i, q in enumerate(queues):
            queues[i] = q[2:]
            for tile in q[:2]:
                fetch(i, 0.0, tile)
    else:
        for i, (k, port, last, ends, events) in enumerate(walks):
            ports[i][0], last_end[i] = port, last
            q = queues[i]
            walked[i], held, queues[i] = q[:k], q[k:k + len(ends)], q[k + len(ends):]
            stats[i].tiles = list(walked[i])
            resident[i] = len(held)
            fetched[i].extend(tile for tile, end in zip(held, ends) if end < h)
            for end, kind, j in events:
                seq += 1
                heappush(heap, (end, i, seq, kind, held[j]))
    queued = sum(map(len, queues))                 # the tiles still queued
    arbitrating = steal and not all(queues)        # stealing on and some queue dry

    while heap:
        t, i, _, kind, tile = heappop(heap)
        if tracing:
            trace.append((t, i, done_events[kind], tile))
        if kind == COMPUTE_DONE:
            if tile in walked[tile % n_active] or looped[tile]:
                raise SimulationError(f"tile {tile} executed twice")
            looped[tile] = 1
            stats[i].tiles.append(tile)
            last_end[i] = t
            p = ports[i]
            start = p[0] if p[0] > t else t
            p[0] = end = start + out_s     # no event: its end changes no state
            if tracing:
                trace.append((start, i, "wb_start", tile))
                trace.append((end, i, "wb_done", tile))
            resident[i] -= 1
            q = queues[i]
            while resident[i] < 2 and q:
                nxt, q = q[0], q[1:]
                queued -= 1
                fetch(i, t, nxt)
                if not q:
                    arbitrating = steal
            queues[i] = q
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
            heappush(heap, (t + compute_s[i], i, seq, COMPUTE_DONE, tile))
        # no round while another event is due now, or once no queue holds
        # a tile: such a round cannot grant
        if not arbitrating or not queued or heap and heap[0][0] <= t:
            continue
        needy = [j for j in range(n_active) if not queues[j] and resident[j] < 2]
        if not needy:
            continue
        before = len(steal_log)
        pointer = wqm.arbitrate(queues, needy, pointer, t, steal_log)
        queued = sum(map(len, queues))
        # each thief fetches its tile at once, in grant order, so the
        # shared port serves the stolen tiles in that order
        for ev in steal_log[before:]:
            stats[ev.thief].steals_taken += 1
            fetch(ev.thief, t, ev.item_id)
            if tracing:
                trace.append((t, ev.thief, "steal", ev.item_id))
        if queued and any(r == 0 and not q for r, q in zip(resident, queues)):
            raise SimulationError("array starved while another queue holds work")

    # loop tiles are checked against every earlier one, and walks hold
    # disjoint residues: the tiles listed are distinct
    executed = sum(len(s.tiles) for s in stats)
    if executed != tile_count or queued:
        raise SimulationError(f"run ended with {executed}/{tile_count} tiles executed")

    time_seconds = max(p[0] for p in ports)    # the latest write-back end
    # Every event, and so every trace row, lies within the makespan: one
    # check covers every seconds-to-cycles conversion of the run.
    if not math.isfinite(time_seconds * f_acc):
        raise OverflowError(f"simulated time of {time_seconds:g} s is too long to "
                            f"count in cycles at {f_acc:g} Hz")
    drain_end = 0.0
    busy = {}                      # (blocks, one block's seconds): busy seconds
    for i, s in enumerate(stats):
        n = s.blocks_executed = len(s.tiles)
        block = compute_s[i]
        if (n, block) not in busy:
            total = 0.0
            for _ in range(n):     # block by block: n * block rounds otherwise
                total += block
            busy[n, block] = total
        s.busy_seconds = busy[n, block]
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


def _alone(count: int, in_s: float, out_s: float, compute_s: float):
    """The schedule of one array over count tiles while no other array
    touches it, with the event loop's own float operations: the first two
    fetches at t = 0; each compute starts at the later of its fetch end and
    the previous compute end; each compute end puts its write-back and then
    the next fetch onto the array's port (which the write-back leaves free
    no earlier than the compute end).

    Returns (port, last, dry, needy): the time the port is free, the last
    compute end, the compute end count - 3, whose refill takes the last
    queued tile, and the compute end count - 2, from which the array asks
    for work. dry and needy are 0.0 for an array dealt too few tiles to
    have them: its queue is dry from the start.
    """
    p = last = f0 = f1 = dry = needy = 0.0
    if count:
        p = f0 = in_s
    if count > 1:
        p = f1 = p + in_s
    for k in range(count):
        dry, needy = needy, last   # at the end: the compute ends count - 3 and count - 2
        last = (f0 if f0 > last else last) + compute_s
        p = (p if p > last else last) + out_s
        if k + 2 < count:          # the next fetch, once the write-back is on
            p = p + in_s
            f0, f1 = f1, p
        else:                      # the last two fetch nothing
            f0 = f1
    return p, last, dry, needy


def _shared(counts: list[int], in_s: float, out_s: float, compute_s: list[float],
            steal: bool):
    """_alone for arrays of counts tiles on one shared port, up to the
    run's first steal: every array's compute ends in time order, with the
    loop's own float operations. The first two fetches of each array in
    array order at t = 0; each compute starts at the later of its fetch
    end and the previous compute end; each compute end puts its write-back
    and then its refill fetch onto the port.

    Compute ends at one instant go in array order, as the loop serves
    them. The walk stops at the first compute end count - 2 of an array
    (from which it asks for work) while some tile is still queued, and
    otherwise walks to the end. Returns that instant h (inf if the run
    never steals) and one (compute ends taken, port free, last compute
    end, held fetch ends, pending events) tuple per array.
    """
    n = len(counts)
    p = 0.0
    f0, f1, last, taken = [0.0] * n, [0.0] * n, [0.0] * n, [0] * n
    for i, count in enumerate(counts):     # the first fetches, in array order
        if count:
            p = f0[i] = p + in_s
        if count > 1:
            p = f1[i] = p + in_s
    # the tiles still queued; counted from zero with stealing off, so never positive
    queued = sum(max(count - 2, 0) for count in counts) if steal else 0
    h = math.inf
    heap = [(f0[i] + compute_s[i], i) for i in range(n) if counts[i]]
    heapify(heap)
    while heap:
        end, i = heap[0]
        k = taken[i]
        if queued > 0 and k == counts[i] - 2:
            h = end
            break
        last[i] = end
        p = (p if p > end else end) + out_s
        if k + 2 < counts[i]:      # the refill, once the write-back is on
            p = p + in_s
            f0[i], f1[i] = f1[i], p
            queued -= 1
        else:
            f0[i] = f1[i]
        taken[i] = k = k + 1
        if k < counts[i]:
            heapreplace(heap, ((f0[i] if f0[i] > end else end) + compute_s[i], i))
        else:
            heappop(heap)
    walks = []
    for i, count in enumerate(counts):
        # the events pending at h in the loop's push order: the fetches that
        # end at or after h, then the compute running at h
        ends = (f0[i], f1[i])[:count - taken[i]]
        events = [(end, FETCH_DONE, j) for j, end in enumerate(ends) if end >= h]
        if ends and ends[0] < h:
            events.append(((ends[0] if ends[0] > last[i] else last[i]) + compute_s[i],
                           COMPUTE_DONE, 0))
        walks.append((taken[i], p, last[i], ends, events))
    return h, walks
