"""Workload queue management: per-array task queues with work stealing.

Each array owns a FIFO of pending tasks, the row-major tile ids of a
blockmm.TileGrid, plus a counter mirroring its length. When an array
runs dry it steals a single task from the queue holding the most work;
concurrent steal requests at the same instant are granted in round-robin
order. Stealing always takes the victim's tail (its last-to-run task) so
the victim's imminent prefetches are untouched, and only tasks whose
transfers have not started are ever moved.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .blockmm import TileGrid


@dataclass(frozen=True)
class StealEvent:
    time_s: float
    thief: int
    victim: int
    item_id: int


class WorkQueue:
    """FIFO of pending tile ids with an explicit task counter."""

    def __init__(self, array_id: int):
        self.array_id = array_id
        self._items: deque[int] = deque()
        self.counter = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, item: int):
        self._items.append(item)
        self.counter += 1

    def pop_head(self) -> int:
        item = self._items.popleft()
        self.counter -= 1
        return item

    def pop_tail(self) -> int:
        item = self._items.pop()
        self.counter -= 1
        return item

    def check_counter(self):
        if self.counter != len(self._items):
            raise AssertionError(
                f"queue {self.array_id} counter {self.counter} != length {len(self._items)}")


def partition_workload(grid: TileGrid, n_queues: int) -> list[WorkQueue]:
    """Assign every tile id to exactly one of n_queues queues.

    The ids are dealt round-robin in row-major order, so per-queue counts
    differ by at most one.
    """
    if n_queues < 1:
        raise ValueError("n_queues must be >= 1")
    queues = [WorkQueue(i) for i in range(n_queues)]
    for tile_id in range(grid.tile_count):
        queues[tile_id % n_queues].push(tile_id)
    return queues


@dataclass
class RoundRobinArbiter:
    """Pointer state shared by steal-request ordering and victim tie-breaks."""

    n: int
    pointer: int = 0

    def order(self, requesters) -> list[int]:
        """Requesters sorted cyclically starting from the pointer."""
        req = set(requesters)
        return [i % self.n for i in range(self.pointer, self.pointer + self.n)
                if i % self.n in req]

    def granted(self, thief: int):
        self.pointer = (thief + 1) % self.n


def select_victim(counters, arbiter: RoundRobinArbiter, thief: int) -> int | None:
    """Index of the fullest queue (>= 1 task) other than the thief's.

    Ties on the maximal counter are broken by scanning cyclically from the
    arbiter pointer. Returns None when no other queue has work.
    """
    n = len(counters)
    best = None
    best_count = 0
    for off in range(n):
        idx = (arbiter.pointer + off) % n
        if idx == thief:
            continue
        if counters[idx] > best_count:
            best = idx
            best_count = counters[idx]
    return best


def steal(thief_q: WorkQueue, victim_q: WorkQueue, time_s: float,
          log: list[StealEvent]) -> int:
    """Move one tile id from the victim's tail into the thief's queue."""
    if victim_q.counter < 1:
        raise ValueError(f"victim queue {victim_q.array_id} is empty")
    item = victim_q.pop_tail()
    thief_q.push(item)
    log.append(StealEvent(time_s, thief_q.array_id, victim_q.array_id, item))
    return item


def arbitrate(queues: list[WorkQueue], needy, arbiter: RoundRobinArbiter,
              time_s: float, log: list[StealEvent],
              on_steal=None) -> list[StealEvent]:
    """One arbitration round: grant at most one steal per requesting array.

    needy is the set of array ids whose queues are empty and which can
    accept work right now. Requests are served in round-robin order; a
    request that finds no victim is dropped for this round (it will be
    re-raised at the next event if the array is still starved). The loop
    is bounded by the number of queues.
    """
    granted: list[StealEvent] = []
    remaining = set(needy)
    while remaining:
        thief = arbiter.order(remaining)[0]
        remaining.discard(thief)
        if queues[thief].counter > 0:
            continue
        counters = [q.counter for q in queues]
        victim = select_victim(counters, arbiter, thief)
        if victim is None:
            continue
        steal(queues[thief], queues[victim], time_s, log)
        granted.append(log[-1])
        arbiter.granted(thief)
        if on_steal is not None:
            on_steal(thief)
    return granted
