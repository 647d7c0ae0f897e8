"""Workload queue management: the round-robin deal and work stealing.

Each array owns a FIFO of pending tasks, the row-major tile ids of a
problem (model.ProblemShape.tile_count), dealt round-robin. When an array runs dry it steals a
single task from the queue holding the most work; concurrent steal
requests at the same instant are granted in round-robin order. Stealing
always takes the victim's tail (its last-to-run task) so the victim's
imminent prefetches are untouched, and only tasks whose transfers have not
started are ever moved.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class StealEvent:
    time_s: float
    thief: int
    victim: int
    item_id: int


def partition_workload(tile_count: int, n_queues: int) -> list[deque[int]]:
    """Deal tile ids 0..tile_count-1 round-robin onto n_queues queues, so
    per-queue counts differ by at most one."""
    if n_queues < 1:
        raise ValueError("n_queues must be >= 1")
    return [deque(range(i, tile_count, n_queues)) for i in range(n_queues)]


def arbitrate(queues: list[deque[int]], needy, pointer: int, time_s: float,
              log: list[StealEvent]) -> int:
    """One arbitration round; returns the round-robin pointer after it.

    needy are the ids of arrays whose queues are empty and which can accept
    work now. They are served in cyclic order from pointer; each pops the
    tail of the fullest other queue (ties go to the first queue in cyclic
    order from the current pointer), a StealEvent is appended to log, and
    the pointer moves past the thief. The stolen id does not enter the
    thief's queue: the thief, read off the log, takes it at once, so a
    thief never becomes a victim later in the same round. A request that
    finds no other queue with work is dropped for this round.
    """
    n = len(queues)
    for thief in sorted(needy, key=lambda i: (i - pointer) % n):
        victim = max((i % n for i in range(pointer, pointer + n) if i % n != thief),
                     key=lambda i: len(queues[i]), default=None)
        if victim is None or not queues[victim]:
            continue
        log.append(StealEvent(time_s, thief, victim, queues[victim].pop()))
        pointer = (thief + 1) % n
    return pointer
