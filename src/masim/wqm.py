"""Workload queue management: the round-robin deal and work stealing.

Each array owns a queue of pending tasks, the row-major tile ids of a
problem (model.ProblemShape.tile_count), dealt round-robin: with n queues,
queue i is range(i, tile_count, n). A queue is a range and stays one: an
array takes its head (q[0], then q[1:]) and a thief its tail (q[-1], then
q[:-1]), so every queue is an arithmetic range with step n, its length and
ends cost O(1), and the queues of different arrays hold disjoint residues
modulo n. When an array runs dry it steals a single task from the queue
holding the most work; concurrent steal requests at the same instant are
granted in round-robin order. Stealing always takes the victim's tail (its
last-to-run task) so the victim's imminent prefetches are untouched, and
only tasks whose transfers have not started are ever moved.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StealEvent:
    time_s: float
    thief: int
    victim: int
    item_id: int


def partition_workload(tile_count: int, n_queues: int) -> list[range]:
    """Deal tile ids 0..tile_count-1 round-robin onto n_queues queues, so
    per-queue counts differ by at most one."""
    if n_queues < 1:
        raise ValueError("n_queues must be >= 1")
    return [range(i, tile_count, n_queues) for i in range(n_queues)]


def arbitrate(queues: list[range], needy, pointer: int, time_s: float,
              log: list[StealEvent]) -> int:
    """One arbitration round; returns the round-robin pointer after it.

    needy are the ids of arrays whose queues are empty and which can accept
    work now. They are served in cyclic order from pointer; each takes the
    tail of the fullest other queue (ties go to the first queue in cyclic
    order from the current pointer), which queues then holds without it, a
    StealEvent is appended to log, and the pointer moves past the thief.
    The stolen id does not enter the thief's queue: the thief, read off the
    log, takes it at once, so a thief never becomes a victim later in the
    same round. A request that finds no other queue with work is dropped
    for this round.
    """
    n = len(queues)
    for thief in sorted(needy, key=lambda i: (i - pointer) % n):
        victim = max((i % n for i in range(pointer, pointer + n) if i % n != thief),
                     key=lambda i: len(queues[i]), default=None)
        if victim is None or not queues[victim]:
            continue
        log.append(StealEvent(time_s, thief, victim, queues[victim][-1]))
        queues[victim] = queues[victim][:-1]
        pointer = (thief + 1) % n
    return pointer
