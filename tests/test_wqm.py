import dataclasses
import hashlib

import numpy as np
import pytest
from conftest import assemble_run
from hypothesis import given, settings
from hypothesis import strategies as st

import masim
from masim import wqm


def queues_of(*lengths):
    """Queues holding the given numbers of distinct tile ids: queue i holds
    ids of residue i, as a deal onto len(lengths) queues does."""
    n = len(lengths)
    return [range(i, i + n * length, n) for i, length in enumerate(lengths)]


def victim(lengths, thief, pointer=0):
    """The queue a lone thief steals from, or None."""
    log = []
    wqm.arbitrate(queues_of(*lengths), [thief], pointer, 0.0, log)
    return log[0].victim if log else None


class TestPartitionWorkload:
    def test_conv1_split_two_ways(self):
        tiles = masim.ProblemShape(96, 363, 3025).tile_count(128, 128)   # 24 tiles
        queues = masim.partition_workload(tiles, 2)
        assert [len(q) for q in queues] == [12, 12]

    def test_single_tile_four_queues(self):
        queues = masim.partition_workload(1, 4)
        assert [len(q) for q in queues] == [1, 0, 0, 0]

    def test_seven_tiles_three_queues(self):
        tiles = masim.ProblemShape(7, 4, 4).tile_count(1, 4)
        queues = masim.partition_workload(tiles, 3)
        assert [len(q) for q in queues] == [3, 2, 2]

    def test_every_tile_exactly_once(self):
        queues = masim.partition_workload(35, 4)
        assert sorted(t for q in queues for t in q) == list(range(35))

    def test_counts_differ_by_at_most_one(self):
        for n_q in (1, 2, 3, 4):
            counts = [len(q) for q in masim.partition_workload(15, n_q)]
            assert max(counts) - min(counts) <= 1

    def test_rejects_zero_queues(self):
        with pytest.raises(ValueError):
            masim.partition_workload(1, 0)


class TestSelectVictim:
    def test_unique_maximum(self):
        assert victim([0, 5, 3, 2], thief=0) == 1

    def test_nothing_to_steal(self):
        log = []
        assert wqm.arbitrate(queues_of(0, 0, 0, 0), [0, 2], 3, 0.0, log) == 3
        assert log == []

    def test_thief_never_picks_itself(self):
        assert victim([4, 0], thief=0) is None

    def test_tie_break_follows_pointer(self):
        assert victim([0, 4, 4, 0], thief=0, pointer=2) == 2
        assert victim([0, 4, 4, 0], thief=0, pointer=0) == 1

    def test_concurrent_thieves_get_distinct_victims(self):
        queues = queues_of(0, 4, 4, 0)
        log = []
        assert wqm.arbitrate(queues, [3, 0], 0, 0.0, log) == 0
        assert [(e.thief, e.victim) for e in log] == [(0, 1), (3, 2)]
        # a stolen id goes to its thief's fetch, not into its queue
        assert [len(q) for q in queues] == [0, 3, 3, 0]


class TestSteal:
    def test_takes_victim_tail(self):
        queues = masim.partition_workload(3, 1) + [range(0)]
        log = []
        assert wqm.arbitrate(queues, [1], 0, 1.5, log) == 0
        assert log == [masim.StealEvent(1.5, 1, 0, 2)]    # last-to-run task
        assert [list(q) for q in queues] == [[0, 1], []]

    def test_single_task_leaves_victim_empty(self):
        queues = masim.partition_workload(1, 1) + [range(0)]
        log = []
        wqm.arbitrate(queues, [1], 0, 0.0, log)
        assert [e.item_id for e in log] == [0] and not any(queues)

    def test_skewed_rates_case(self):
        # 2 arrays, 8 tasks, array 0 runs twice as slow, ideal bandwidth:
        # static round-robin keeps 4 tasks on the slow array (4 * 40 = 160
        # cycles); with stealing the fast array takes one of them and the
        # slow array finishes 3 (3 * 40 = 120 cycles).
        shape, point = masim.ProblemShape(8, 4, 16), masim.DesignPoint(2, 4)
        machine = masim.Machine(fmac_stages=0, bw_model=masim.IdealBandwidth())
        results = {}
        for steal_on in (False, True):
            results[steal_on] = masim.run_mpe(shape, point, machine, steal=steal_on,
                                              slowdowns={0: 2.0})
        assert results[False].total_cycles == 160
        assert results[True].total_cycles == 120
        assert len(results[True].steal_events) == 1
        assert results[True].steal_events[0].victim == 0


class TestQueueInvariants:
    def test_no_idle_while_work_available(self):
        # After any arbitration round, an array can only be left dry if
        # every other queue is empty too.
        log = []
        wqm.arbitrate(queues_of(3, 7, 0, 0), [2, 3], 0, 0.0, log)
        assert sorted(e.thief for e in log) == [2, 3]

    # each step either pops the head of one queue, as an array taking its
    # next tile does, or holds an arbitration round for some dry queues
    @given(tile_count=st.integers(0, 60), n=st.integers(1, 6),
           steps=st.lists(st.tuples(st.booleans(), st.integers(0, 5),
                                    st.sets(st.integers(0, 5))), max_size=40))
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_queues_stay_ranges_and_hold_each_tile_once(self, tile_count, n, steps):
        queues = wqm.partition_workload(tile_count, n)
        taken, log, pointer = [], [], 0
        for pop, i, thieves in steps:
            if pop and queues[i % n]:
                q = queues[i % n]
                taken.append(q[0])
                queues[i % n] = q[1:]
            elif not pop:
                needy = [j for j in sorted(thieves) if j < n and not queues[j]]
                pointer = wqm.arbitrate(queues, needy, pointer, 0.0, log)
            for j, q in enumerate(queues):
                assert isinstance(q, range) and q.step == n and q.start % n == j
        stolen = [e.item_id for e in log]
        assert sorted(taken + stolen + [t for q in queues for t in q]) \
            == list(range(tile_count))


class TestStealInsideRuns:
    def test_exactly_once_under_heavy_stealing(self):
        rng = np.random.default_rng(1)
        machine = masim.Machine(bw_model=masim.IdealBandwidth())
        for trial in range(25):
            m = int(rng.integers(2, 6)) * 4
            n = int(rng.integers(2, 6)) * 4
            a = rng.random((m, 4), dtype=np.float32)
            b = rng.random((4, n), dtype=np.float32)
            n_arrays = int(rng.integers(2, 5))
            point = masim.DesignPoint(n_arrays, 4)
            slow = {i: float(rng.choice([1.0, 2.0, 4.0])) for i in range(n_arrays)}
            rep = masim.run_mpe(masim.ProblemShape(m, 4, n), point, machine,
                                steal=True, slowdowns=slow)
            executed = sorted(t for s in rep.arrays for t in s.tiles)
            assert executed == list(range(rep.tile_count))
            out = assemble_run(rep, point, a, b)
            assert np.array_equal(out, masim.reference_gemm(a, b))

    def test_makespan_dominance(self):
        rng = np.random.default_rng(2)
        machine = masim.Machine(bw_model=masim.IdealBandwidth())
        for trial in range(10):
            m, n = 16, int(rng.integers(3, 8)) * 4
            shape, point = masim.ProblemShape(m, 8, n), masim.DesignPoint(4, 4)
            slow = {i: float(rng.choice([1.0, 1.5, 3.0])) for i in range(4)}
            times = {}
            for steal_on in (False, True):
                rep = masim.run_mpe(shape, point, machine, steal=steal_on, slowdowns=slow)
                times[steal_on] = rep.time_seconds
            assert times[True] <= times[False] * (1 + 1e-12)

    def test_steal_schedule_pinned(self):
        # A seeded sweep over both transfer regimes, ideal and finite
        # bandwidth, 3-4 arrays (so victims tie and the pointer breaks the
        # tie) and uneven slowdowns, with stealing on and off. The digest
        # covers the makespan, the steal log and each array's tiles, which
        # are the whole of the schedule the steal rule decides.
        rng = np.random.default_rng(11)
        digest = hashlib.sha256()
        runs = steals = 0
        for contention in ("per_array", "shared_port"):
            for bw in (masim.IdealBandwidth(), masim.ParametricBandwidth(4e8, 8, 0.3)):
                machine = masim.Machine(bw_model=bw, contention=contention)
                for _ in range(38):
                    n_arrays = int(rng.integers(3, 5))
                    m, n, k = (int(rng.integers(2, hi)) * 4 for hi in (7, 7, 9))
                    shape = masim.ProblemShape(m, k, n)
                    point = masim.DesignPoint(n_arrays, 4)
                    slow = {i: float(rng.choice([1.0, 1.25, 2.0, 3.0]))
                            for i in range(n_arrays)}
                    for steal_on in (False, True):
                        rep = masim.run_mpe(shape, point, machine,
                                            steal=steal_on, slowdowns=slow)
                        runs += 1
                        steals += len(rep.steal_events)
                        digest.update(repr((
                            rep.time_seconds,
                            [dataclasses.astuple(e) for e in rep.steal_events],
                            [s.tiles for s in rep.arrays])).encode())
        assert runs == 304 and steals >= 100
        assert digest.hexdigest() == \
            "b4d783264c292eefc39eebe2ddb049cf5388eff5ee0fb1088cd43ba2555dc32d"
