"""Walks that schedule the full accelerator.

The simulator is a pure timing engine: run_mpe takes the same problem
shape, design point and machine as model.bounds, and the schedule depends
only on them (mpe.Machine: clock, pipeline, bandwidth model, transfer
regime), never on the matrix values, so it takes no matrix data. The
machine's feasibility rule is checked for the point before anything
runs. The output the modelled arrays produce is the k-ordered kernel
blockmm.reference_gemm applied to the whole problem (blockmm.trace_block
ties each block's numerics to that kernel); `masim run` computes it after
the schedule, strip by strip, in blockmm.verified_output's walk.

One run deals the problem's tiles (model.ProblemShape.tile_count, with
row-major ids) round-robin onto one work queue per active array
(wqm.partition_workload; each queue is a range of the ids of one residue
modulo the array count) and drives the arrays over them with overlapped
transfers: each array holds at most two resident blocks (one computing
from the active buffer, one prefetching into the shadow buffer), its
transfer engine serialises fetches and write-backs, and compute starts
only once a block's data is fully resident. Work stealing
(wqm.arbitrate) is evaluated at block boundaries, i.e. after the last
compute end of each instant, once some queue has run dry (only an array
with no queued work asks for more).

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

Two schedulers apply one set of float operations in one order, so their
times agree bit for bit: each array's first two fetches at t = 0, in
array order; each compute from the later of its fetch end and the
previous compute end; at each compute end its write-back and then the
array's next fetch on the port.

_walk schedules every traced run, every shared_port run of two or more
arrays and every per_array run that steals. It takes all arrays' compute
ends in (time, array) order, on one port per array or on the one shared
port, so at a tie the lower array id's transfer goes first, as behind a
fixed-priority arbiter. After the last compute end of an instant, the
arrays it left with a dry queue and fewer than two tiles ask for work
while some tile is still queued; each thief fetches its tile at once, in
grant order. Fetch and write-back ends are no steps of the walk, as they
change nothing a round reads: a thief that gets a tile holds two, and a
refused request means no tile is queued anywhere. Each array's tiles are
its queue's prefix followed by its stolen ids in grant order, so the walk
names a tile only to write a trace row or to grant a steal. So after
each round every queue must be a prefix of what it held before (a thief
takes only tails), each granted tile one of the tails its queue lost, and
every asking array must hold two tiles while some tile is still queued.

_alone walks one array's whole run on its own port. It schedules the
untraced per_array runs it proves steal-free, which is every run of the
explorer's per_array points: an array dealt count tiles takes its last
queued tile at its compute end count - 3 and asks for work from its
compute end count - 2, so the run steals exactly when the least compute
end count - 2 is earlier than the greatest compute end count - 3; only
unequal clocks (slowdowns) bring that about. Arrays dealt one count at
one clock walk alike, so the run walks once per distinct (count,
slowdown): at equal clocks at most twice, as the deal's counts differ by
at most one. Its arrays' tiles are their queues' ranges, listed in C, so
such a run does no Python work per tile.

The event trace (one row per fetch, compute, write-back and steal) is
recorded only when the run is asked to write it; otherwise the run keeps
nothing but the per-array statistics and the steal log.

A run is strictly deterministic: identical inputs produce an identical
report, same-instant compute ends go in array order, and same-instant
steal requests are resolved in round-robin order.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from dataclasses import dataclass, field
from heapq import heapify, heappop, heapreplace

from . import mac, wqm
from .model import DesignPoint, ProblemShape
from .mpe import Machine, block_charges


class SimulationError(RuntimeError):
    """Internal inconsistency: a walk lost or repeated a tile, an
    arbitration round changed a queue other than by taking its tail, or an
    array asked for work in vain while another queue held some."""


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
    factor that is not positive and finite raises ValueError. After every
    arbitration round the no-starvation rule is checked; a violation
    raises SimulationError. A makespan too long to count in cycles at the
    machine's clock raises OverflowError.

    With trace_path the event trace is written there as CSV, with header
    cycle,array,event,block and rows sorted by cycle. The file is opened
    before the schedule, so a path that cannot be written raises
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
    """The schedule of run_mpe over one array per slow entry: _alone once
    per distinct array for an untraced per_array run that it proves
    steal-free, _walk for every other run. Appends (seconds, array, event,
    tile id) rows to trace unless it is None."""
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
    # one byte per tile, marked as _walk grants it, allocated before the
    # deal (the walks' time grows with the tiles), so a tile count too
    # large for memory raises MemoryError first
    granted = bytearray(tile_count)
    queues = wqm.partition_workload(tile_count, n_active)
    run = None
    if not shared and trace is None:
        # arrays dealt one count at one clock walk alike: one walk for each
        alone = {key: _alone(key[0], in_s, out_s, key[1])
                 for key in dict.fromkeys(zip(map(len, queues), compute_s))}
        # a run steals if an array asks for work (from its compute end
        # count - 2) before another's queue is dry (at its compute end
        # count - 3)
        if not steal or min(a[3] for a in alone.values()) >= \
                max(a[2] for a in alone.values()):
            walks = [alone[len(q), c] for q, c in zip(queues, compute_s)]
            run = ([w[0] for w in walks], [w[1] for w in walks],
                   [list(q) for q in queues], [])
    ports, last_end, tiles, steal_log = run or _walk(
        queues, in_s, out_s, compute_s, shared, steal, trace, granted)

    stats = [ArrayRunStats(array_id=i, tiles=t) for i, t in enumerate(tiles)]
    for ev in steal_log:
        stats[ev.thief].steals_taken += 1
    executed = sum(map(len, tiles))
    if executed != tile_count:
        raise SimulationError(f"run ended with {executed}/{tile_count} tiles executed")

    time_seconds = max(ports)      # the latest write-back end
    # Every time the run sets, and so every trace row, lies within the
    # makespan: one check covers every seconds-to-cycles conversion of the run.
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
    touches its port, with _walk's float operations: the first two fetches
    at t = 0; each compute starts at the later of its fetch end and the
    previous compute end; each compute end puts its write-back and then
    the next fetch onto the port (which the write-back leaves free no
    earlier than the compute end).

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


def _walk(queues: list[range], in_s: float, out_s: float, compute_s: list[float],
          shared: bool, steal: bool, trace, granted: bytearray):
    """The schedule of the arrays of queues over all their compute ends in
    (time, array) order, on one port under shared and one port per array
    otherwise: each array's first two fetches at t = 0, in array order;
    each compute from the later of its fetch end and the previous compute
    end; each compute end puts its write-back and then the array's next
    fetch onto its port. With steal, after the last compute end of an
    instant, the arrays it left with a dry queue and fewer than two tiles
    ask wqm.arbitrate for work while some tile is still queued; each thief,
    which holds one tile, fetches its tile at once, in grant order, and
    granted marks the tile. No array asks for work before its first
    compute end while a tile is queued: the deal's counts differ by at
    most one, so if it deals an array fewer than two tiles, every array
    fetches all of its own at once. A round that breaks wqm.arbitrate's
    contract raises SimulationError.

    Returns the time each port is free, each array's last compute end,
    each array's tiles in compute order and the steal log.
    """
    n = len(queues)
    tracing = trace is not None
    ports = [0.0] * (1 if shared else n)
    own = [min(len(q), 2) for q in queues]    # tiles taken, a prefix of the queue
    left = [len(q) - k for q, k in zip(queues, own)]   # tiles still queued
    queued = sum(left)
    held = own[:]              # tiles fetched or fetching, their compute not ended
    nxt = [0.0] * n            # fetch end of the held tile that computes next
    last = [0.0] * n           # each array's last compute end
    stolen = [[] for _ in range(n)]
    done = [0] * n             # compute ends, counted when tracing
    steal_log: list[wqm.StealEvent] = []
    needy, pointer, heap = [], 0, []    # heap: (compute end, array)

    def tile(i: int, k: int) -> int:    # array i's k-th tile
        return queues[i][k] if k < own[i] else stolen[i][k - own[i]]

    def computes(i: int, start: float, k: int):
        trace.append((start, i, "compute_start", k))
        trace.append((start + compute_s[i], i, "compute_done", k))

    for i, q in enumerate(queues):
        j = 0 if shared else i
        for k in range(own[i]):
            start = ports[j]
            ports[j] = nxt[i] = f = start + in_s
            if tracing:
                trace += [(start, i, "fetch_start", q[k]), (f, i, "fetch_done", q[k])]
            if not k:              # the first compute, from the first fetch end
                heap.append((f + compute_s[i], i))
                if tracing:
                    computes(i, f, q[0])
    heapify(heap)

    while heap:
        t, i = heap[0]
        last[i] = t
        j = 0 if shared else i
        p = ports[j]
        start = p if p > t else t
        p = start + out_s
        if tracing:
            k = tile(i, done[i])
            done[i] += 1
            trace += [(start, i, "wb_start", k), (p, i, "wb_done", k)]
        if left[i]:                # the next fetch, once the write-back is on
            start, p = p, p + in_s
            if tracing:
                k = queues[i][own[i]]
                trace += [(start, i, "fetch_start", k), (p, i, "fetch_done", k)]
            own[i] += 1
            left[i] -= 1
            queued -= 1
            f, nxt[i] = nxt[i], p
        else:
            held[i] -= 1
            f = nxt[i] if held[i] else None
            if steal and queued:
                needy.append(i)
        ports[j] = p
        if f is None:
            heappop(heap)
        else:
            start = f if f > t else t
            heapreplace(heap, (start + compute_s[i], i))
            if tracing:
                computes(i, start, tile(i, done[i]))
        if not needy or heap and heap[0][0] <= t:
            continue
        if queued:                 # the instant's last compute end: one round
            rest = [q[k:k + m] for q, k, m in zip(queues, own, left)]
            qs = rest[:]
            before = len(steal_log)
            pointer = wqm.arbitrate(qs, needy, pointer, t, steal_log)
            for r, (q, was) in enumerate(zip(qs, rest)):
                if q != was[:len(q)]:   # a thief takes only a queue's tail
                    raise SimulationError(f"queue {r} changed other than by losing its tail")
            left = list(map(len, qs))
            queued = sum(left)
            for ev in steal_log[before:]:
                i, k = ev.thief, ev.item_id
                r = k % n
                if granted[k] or k not in rest[r][left[r]:]:
                    raise SimulationError(f"tile {k} executed twice")
                granted[k] = 1
                stolen[i].append(k)
                j = 0 if shared else i
                p = ports[j]
                start = p if p > t else t
                ports[j] = nxt[i] = start + in_s
                held[i] += 1       # a thief held one tile, so it holds two
                if tracing:
                    trace += [(start, i, "fetch_start", k), (nxt[i], i, "fetch_done", k),
                              (t, i, "steal", k)]
            if queued and any(held[i] < 2 for i in needy):
                raise SimulationError("array starved while another queue holds work")
        needy = []

    tiles = [[*q[:k], *s] for q, k, s in zip(queues, own, stolen)]
    return ports, last, tiles, steal_log
