import numpy as np
import pytest
from conftest import assemble_run

import masim
from masim import wqm


def queues_for(tiles_m, tiles_n, n_queues):
    grid = masim.partition(tiles_m * 4, tiles_n * 4, 4, 4, 4)
    return masim.partition_workload(grid, n_queues), grid


class TestPartitionWorkload:
    def test_conv1_split_two_ways(self):
        grid = masim.partition(96, 3025, 363, 128, 128)   # 24 tiles
        queues = masim.partition_workload(grid, 2)
        assert [q.counter for q in queues] == [12, 12]

    def test_single_tile_four_queues(self):
        grid = masim.partition(1, 1, 1, 1, 1)
        queues = masim.partition_workload(grid, 4)
        assert [q.counter for q in queues] == [1, 0, 0, 0]

    def test_seven_tiles_three_queues(self):
        grid = masim.partition(7, 4, 4, 1, 4)
        queues = masim.partition_workload(grid, 3)
        assert [q.counter for q in queues] == [3, 2, 2]

    def test_every_tile_exactly_once(self):
        queues, grid = queues_for(5, 7, 4)
        seen = []
        for q in queues:
            while len(q):
                seen.append(q.pop_head())
        assert sorted(seen) == list(range(grid.tile_count))

    def test_counts_differ_by_at_most_one(self):
        for n_q in (1, 2, 3, 4):
            queues, _ = queues_for(3, 5, n_q)
            counts = [q.counter for q in queues]
            assert max(counts) - min(counts) <= 1

    def test_rejects_zero_queues(self):
        grid = masim.partition(4, 4, 4, 4, 4)
        with pytest.raises(ValueError):
            masim.partition_workload(grid, 0)


class TestSelectVictim:
    def test_unique_maximum(self):
        arb = masim.RoundRobinArbiter(4)
        assert masim.select_victim([0, 5, 3, 2], arb, thief=0) == 1

    def test_nothing_to_steal(self):
        arb = masim.RoundRobinArbiter(4)
        assert masim.select_victim([0, 0, 0, 0], arb, thief=0) is None

    def test_thief_never_picks_itself(self):
        arb = masim.RoundRobinArbiter(2)
        assert masim.select_victim([4, 0], arb, thief=0) is None

    def test_tie_break_follows_pointer(self):
        arb = masim.RoundRobinArbiter(4, pointer=2)
        assert masim.select_victim([0, 4, 4, 0], arb, thief=0) == 2
        arb.pointer = 0
        assert masim.select_victim([0, 4, 4, 0], arb, thief=0) == 1

    def test_concurrent_thieves_get_distinct_victims(self):
        grid = masim.partition(16, 4, 4, 2, 4)   # 8 tiles
        queues = masim.partition_workload(grid, 4)
        # shape counters to [0, 4, 4, 0]
        while len(queues[0]):
            queues[1].push(queues[0].pop_head())
        while len(queues[3]):
            queues[2].push(queues[3].pop_head())
        assert [q.counter for q in queues] == [0, 4, 4, 0]
        arb = masim.RoundRobinArbiter(4)
        log = []
        granted = masim.arbitrate(queues, {0, 3}, arb, 0.0, log)
        assert [(e.thief, e.victim) for e in granted] == [(0, 1), (3, 2)]
        assert [q.counter for q in queues] == [1, 3, 3, 1]


class TestSteal:
    def test_takes_victim_tail(self):
        grid = masim.partition(3, 4, 4, 1, 4)   # 3 tiles
        queues = masim.partition_workload(grid, 1)
        thief = wqm.WorkQueue(1)
        log = []
        assert masim.steal(thief, queues[0], 1.5, log) == 2    # last-to-run task
        assert [q.counter for q in (queues[0], thief)] == [2, 1]
        assert log[0] == masim.StealEvent(1.5, 1, 0, 2)

    def test_single_task_leaves_victim_empty(self):
        grid = masim.partition(1, 1, 1, 1, 1)
        queues = masim.partition_workload(grid, 1)
        thief = wqm.WorkQueue(1)
        masim.steal(thief, queues[0], 0.0, [])
        assert queues[0].counter == 0 and thief.counter == 1

    def test_rejects_empty_victim(self):
        with pytest.raises(ValueError):
            masim.steal(wqm.WorkQueue(0), wqm.WorkQueue(1), 0.0, [])

    def test_skewed_rates_case(self):
        # 2 arrays, 8 tasks, array 0 runs twice as slow, ideal bandwidth:
        # static round-robin keeps 4 tasks on the slow array (4 * 40 = 160
        # cycles); with stealing the fast array takes one of them and the
        # slow array finishes 3 (3 * 40 = 120 cycles).
        grid = masim.partition(8, 16, 4, 4, 4)
        machine = masim.Machine(fmac_stages=0, bw_model=masim.IdealBandwidth())
        results = {}
        for steal_on in (False, True):
            queues = masim.partition_workload(grid, 2)
            rep = masim.run_mpe(machine, grid, queues, steal=steal_on,
                                slowdowns={0: 2.0})
            results[steal_on] = rep
        assert results[False].total_cycles == 160
        assert results[True].total_cycles == 120
        assert len(results[True].steal_events) == 1
        assert results[True].steal_events[0].victim == 0


class TestQueueInvariants:
    def test_counter_tracks_length(self):
        q = wqm.WorkQueue(0)
        grid = masim.partition(4, 4, 2, 2, 2)
        for tile_id in range(grid.tile_count):
            q.push(tile_id)
            q.check_counter()
        q.pop_head()
        q.pop_tail()
        q.check_counter()
        assert q.counter == len(q) == 2

    def test_no_idle_while_work_available(self):
        # After any arbitration round, an array can only be left dry if
        # every other queue is empty too.
        grid = masim.partition(20, 4, 4, 2, 4)   # 10 tiles
        queues = masim.partition_workload(grid, 4)
        while len(queues[2]):
            queues[1].push(queues[2].pop_head())
        while len(queues[3]):
            queues[1].push(queues[3].pop_head())
        arb = masim.RoundRobinArbiter(4)
        masim.arbitrate(queues, {2, 3}, arb, 0.0, [])
        starved = [q.array_id for q in queues if q.counter == 0]
        assert 2 not in starved and 3 not in starved


class TestStealInsideRuns:
    def test_exactly_once_under_heavy_stealing(self):
        rng = np.random.default_rng(1)
        machine = masim.Machine(bw_model=masim.IdealBandwidth())
        for trial in range(25):
            m = int(rng.integers(2, 6)) * 4
            n = int(rng.integers(2, 6)) * 4
            grid = masim.partition(m, n, 4, 4, 4)
            a = rng.random((m, 4), dtype=np.float32)
            b = rng.random((4, n), dtype=np.float32)
            n_arrays = int(rng.integers(2, 5))
            slow = {i: float(rng.choice([1.0, 2.0, 4.0])) for i in range(n_arrays)}
            queues = masim.partition_workload(grid, n_arrays)
            rep = masim.run_mpe(machine, grid, queues, steal=True, slowdowns=slow)
            executed = sorted(t for s in rep.arrays for t in s.tiles)
            assert executed == list(range(grid.tile_count))
            out = assemble_run(rep, grid, a, b)
            assert np.array_equal(out, masim.reference_gemm(a, b))

    def test_makespan_dominance(self):
        rng = np.random.default_rng(2)
        machine = masim.Machine(bw_model=masim.IdealBandwidth())
        for trial in range(10):
            m, n = 16, int(rng.integers(3, 8)) * 4
            grid = masim.partition(m, n, 8, 4, 4)
            slow = {i: float(rng.choice([1.0, 1.5, 3.0])) for i in range(4)}
            times = {}
            for steal_on in (False, True):
                queues = masim.partition_workload(grid, 4)
                rep = masim.run_mpe(machine, grid, queues, steal=steal_on,
                                    slowdowns=slow)
                times[steal_on] = rep.time_seconds
            assert times[True] <= times[False] * (1 + 1e-12)
