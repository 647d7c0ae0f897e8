"""The event loop the simulator's walks are checked against.

run_mpe here is masim.run_mpe scheduled by a discrete-event loop from
t = 0 instead of the walks: a heap of fetch ends and compute ends, popped
in (time, array, insertion sequence) order, and one arbitration round
after the last event of each instant once some queue is dry. Each array
fetches its first two tiles at t = 0; a compute starts when its data is
resident and the array's previous compute has ended; a compute end puts
its write-back and then the array's next fetch onto the port. A
write-back holds the port but its end changes no state, so it is no
event. It imports no numpy, so it runs wherever the timing engine does.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush

from masim import mac, simulator, wqm
from masim.mpe import block_charges
from masim.simulator import ArrayRunStats, SimReport, SimulationError

FETCH_DONE, COMPUTE_DONE = 0, 1


def run_mpe(shape, point, machine, **kwargs):
    """masim.run_mpe, keyword for keyword, with the loop in place of the
    simulator's schedulers (its checks and trace writing kept)."""
    schedulers, simulator._schedule = simulator._schedule, schedule
    try:
        return simulator.run_mpe(shape, point, machine, **kwargs)
    finally:
        simulator._schedule = schedulers


def schedule(shape, point, machine, slow, steal, trace) -> SimReport:
    """simulator._schedule by the event loop from t = 0."""
    n_active = len(slow)
    f_acc = machine.f_acc
    shared = machine.contention == "shared_port" and n_active > 1
    si, sj, depth = point.block_rows, point.block_cols, shape.depth
    bw = mac.effective_bandwidth(machine.bw_model, 1 if shared else n_active, si)
    in_bytes, out_bytes = mac.block_bytes(si, sj, depth)
    in_s, out_s = in_bytes / bw, out_bytes / bw
    charges = block_charges(si, sj, depth, machine)
    compute_s = [charges.cycles / f_acc * factor for factor in slow]

    tile_count = shape.tile_count(si, sj)
    looped = bytearray(tile_count)
    queues = wqm.partition_workload(tile_count, n_active)
    # [time the transfer port is free]; all arrays share one under shared_port
    ports = [[0.0]] * n_active if shared else [[0.0] for _ in range(n_active)]
    stats = [ArrayRunStats(array_id=i) for i in range(n_active)]
    last_end = [0.0] * n_active    # each array's last compute completion
    resident = [0] * n_active      # fetched (or fetching) but compute unfinished
    fetched = [deque() for _ in range(n_active)]  # not yet computed; the head computes
    pointer = 0
    steal_log: list[wqm.StealEvent] = []
    tracing = trace is not None
    heap: list = []                # (time, array, insertion sequence, kind, tile id)
    seq = 0
    done_events = ("fetch_done", "compute_done")

    def fetch(i, t, tile):
        nonlocal seq
        resident[i] += 1
        start = ports[i][0] if ports[i][0] > t else t
        ports[i][0] = end = start + in_s
        if tracing:
            trace.append((start, i, "fetch_start", tile))
        seq += 1
        heappush(heap, (end, i, seq, FETCH_DONE, tile))

    for i, q in enumerate(queues):
        queues[i] = q[2:]
        for tile in q[:2]:
            fetch(i, 0.0, tile)
    queued = sum(map(len, queues))
    arbitrating = steal and not all(queues)

    while heap:
        t, i, _, kind, tile = heappop(heap)
        if tracing:
            trace.append((t, i, done_events[kind], tile))
        if kind == COMPUTE_DONE:
            if looped[tile]:
                raise SimulationError(f"tile {tile} executed twice")
            looped[tile] = 1
            stats[i].tiles.append(tile)
            last_end[i] = t
            p = ports[i]
            start = p[0] if p[0] > t else t
            p[0] = end = start + out_s
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
        if not arbitrating or not queued or heap and heap[0][0] <= t:
            continue
        needy = [j for j in range(n_active) if not queues[j] and resident[j] < 2]
        if not needy:
            continue
        before = len(steal_log)
        pointer = wqm.arbitrate(queues, needy, pointer, t, steal_log)
        queued = sum(map(len, queues))
        for ev in steal_log[before:]:
            stats[ev.thief].steals_taken += 1
            fetch(ev.thief, t, ev.item_id)
            if tracing:
                trace.append((t, ev.thief, "steal", ev.item_id))
        if queued and any(r == 0 and not q for r, q in zip(resident, queues)):
            raise SimulationError("array starved while another queue holds work")

    executed = sum(len(s.tiles) for s in stats)
    if executed != tile_count or queued:
        raise SimulationError(f"run ended with {executed}/{tile_count} tiles executed")

    time_seconds = max(p[0] for p in ports)
    if not math.isfinite(time_seconds * f_acc):
        raise OverflowError(f"simulated time of {time_seconds:g} s is too long to "
                            f"count in cycles at {f_acc:g} Hz")
    drain_end = 0.0
    for i, s in enumerate(stats):
        n = s.blocks_executed = len(s.tiles)
        for _ in range(n):
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
