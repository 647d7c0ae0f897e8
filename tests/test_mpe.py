import dataclasses

import numpy as np
import pytest
from conftest import assemble_run

import masim
from masim.mpe import TraceEvent


def rand(rng, r, c):
    return rng.random((r, c), dtype=np.float32)


def job_of(rng, si, sj, k):
    return masim.BlockJob(rand(rng, si, k), rand(rng, k, sj), si, sj, k)


SINGLE_128 = masim.configure_mpe(1, 128, []).arrays[0]


class TestConfigureMpe:
    def test_all_independent(self):
        lay = masim.configure_mpe(4, 64, [False, False, False])
        assert [a.pe_count for a in lay.arrays] == [64, 64, 64, 64]

    def test_fully_joined(self):
        lay = masim.configure_mpe(4, 64, [True, True, True])
        assert [a.pe_count for a in lay.arrays] == [256]

    def test_two_pairs(self):
        lay = masim.configure_mpe(4, 64, [True, False, True])
        assert [a.pe_count for a in lay.arrays] == [128, 128]

    def test_array_count_matches_mux(self):
        for mux in ([True, False, False], [False, True, False], [True, True, False]):
            lay = masim.configure_mpe(4, 64, mux)
            assert lay.n_arrays == 4 - sum(mux)
            assert sum(a.pe_count for a in lay.arrays) == 256

    def test_joins_are_adjacent(self):
        lay = masim.configure_mpe(4, 64, [False, True, False])
        joined = [a for a in lay.arrays if a.n_bases == 2][0]
        assert joined.first_base == 1

    def test_wrong_mux_length(self):
        with pytest.raises(ValueError):
            masim.configure_mpe(4, 64, [True])

    def test_layout_for_point_three_arrays(self):
        lay, active = masim.layout_for_point(3, 64, 64, 4)
        assert active == [0, 1, 2]
        assert [a.pe_count for a in lay.arrays] == [64, 64, 64, 64]

    def test_layout_for_point_long_blocks(self):
        lay, active = masim.layout_for_point(2, 100, 64, 4)
        assert [lay.arrays[i].pe_count for i in active] == [128, 128]

    def test_layout_for_point_infeasible(self):
        with pytest.raises(masim.InfeasibleBlockError):
            masim.layout_for_point(3, 100, 64, 4)


class TestPsuStallPlan:
    @pytest.mark.parametrize("si,sj,stalls", [
        (128, 128, 0), (96, 64, 32), (64, 96, 0), (1, 1, 0), (10, 3, 7),
    ])
    def test_examples(self, si, sj, stalls):
        assert masim.psu_stall_plan(si, sj) == stalls

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            masim.psu_stall_plan(0, 4)


class TestSimulateBlock:
    def test_cycle_example_small(self):
        rng = np.random.default_rng(0)
        res = masim.simulate_block(SINGLE_128, job_of(rng, 2, 3, 2), fmac_stages=4)
        assert res.cycles == 12

    def test_cycle_example_minimal(self):
        rng = np.random.default_rng(1)
        res = masim.simulate_block(SINGLE_128, job_of(rng, 1, 1, 1), fmac_stages=0)
        assert res.cycles == 2

    def test_cycle_example_fc6_sized(self):
        assert masim.block_cycles(128, 128, 9216, 8) == 1179784

    def test_cycle_breakdown_sums(self):
        rng = np.random.default_rng(2)
        for si, sj, k, st in [(4, 7, 3, 0), (7, 4, 3, 8), (16, 16, 5, 4)]:
            res = masim.simulate_block(SINGLE_128, job_of(rng, si, sj, k),
                                       fmac_stages=st)
            assert (res.prefetch_cycles + res.compute_cycles + res.stall_cycles
                    == res.cycles == masim.block_cycles(si, sj, k, st))
            assert dataclasses.astuple(res)[1:] == masim.block_charges(si, sj, k, st)

    def test_bit_identical_to_tile_accumulate(self):
        # a ragged edge tile: the block equals the kernel on its zero-filled
        # slices, and its live region equals that part of the full product
        rng = np.random.default_rng(3)
        a, b = rand(rng, 13, 16), rand(rng, 16, 11)
        g = masim.partition(13, 11, 16, 8, 8)
        tile = masim.make_tile(g, 1, 1, a, b)
        res = masim.simulate_block(SINGLE_128,
                                   masim.BlockJob(tile.sa(), tile.sb(), 8, 8, 16))
        assert np.array_equal(res.tile, masim.reference_gemm(tile.sa(), tile.sb()))
        assert np.array_equal(res.tile[:5, :3], masim.reference_gemm(a, b)[8:, 8:])

    def test_block_too_tall(self):
        rng = np.random.default_rng(4)
        arr = masim.configure_mpe(1, 4, []).arrays[0]
        with pytest.raises(masim.InfeasibleBlockError):
            masim.simulate_block(arr, job_of(rng, 5, 2, 1))

    def test_block_too_wide_for_accumulator(self):
        rng = np.random.default_rng(5)
        with pytest.raises(masim.InfeasibleBlockError):
            masim.simulate_block(SINGLE_128, job_of(rng, 2, 9, 1), mc_depth=8)

    def test_drain_respects_width(self):
        rng = np.random.default_rng(6)
        res1 = masim.simulate_block(SINGLE_128, job_of(rng, 8, 8, 2), drain_width=1)
        res4 = masim.simulate_block(SINGLE_128, job_of(rng, 8, 8, 2), drain_width=4)
        assert res1.drain_cycles == 64 and res4.drain_cycles == 16


class TestTraceBlock:
    def test_matches_fast_path_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for si, sj, k in [(1, 1, 1), (2, 3, 2), (8, 8, 16), (5, 7, 3),
                          (16, 4, 9), (4, 16, 9)]:
            job = job_of(rng, si, sj, k)
            fast = masim.simulate_block(SINGLE_128, job)
            slow, _, _ = masim.trace_block(SINGLE_128, job)
            assert fast.cycles == slow.cycles
            assert np.array_equal(fast.tile, slow.tile)

    def test_prefetch_latches_by_pid(self):
        rng = np.random.default_rng(8)
        job = job_of(rng, 6, 3, 2)
        _, events, pes = masim.trace_block(SINGLE_128, job)
        latches = [e for e in events if e.kind == "a_latch" and e.k == 0]
        # every PE latches its own element, all on the same cycle
        assert sorted(e.pe for e in latches) == list(range(6))
        assert len({e.cycle for e in latches}) == 1
        for p, pe in enumerate(pes):
            assert pe.pid == p

    def test_stall_events_match_plan(self):
        rng = np.random.default_rng(9)
        si, sj, k = 9, 4, 5
        _, events, _ = masim.trace_block(SINGLE_128, job_of(rng, si, sj, k))
        stalls = [e for e in events if e.kind == "psu_stall"]
        assert len(stalls) == masim.psu_stall_plan(si, sj) * k

    def test_reuse_and_swap_sequence(self):
        rng = np.random.default_rng(10)
        si, sj, k = 4, 6, 3
        _, events, pes = masim.trace_block(SINGLE_128, job_of(rng, si, sj, k))
        swaps = [e for e in events if e.kind == "swap"]
        assert [e.k for e in swaps] == [1, 2]
        assert all(pe.reuse_this_iter == sj for pe in pes)

    def test_drain_event_after_flush(self):
        rng = np.random.default_rng(11)
        res, events, _ = masim.trace_block(SINGLE_128, job_of(rng, 3, 3, 2),
                                           fmac_stages=2)
        drain = [e for e in events if e.kind == "drain_done"][0]
        assert drain.cycle == res.cycles + res.drain_cycles

    def test_results_parked_in_output_fifo(self):
        rng = np.random.default_rng(12)
        res, _, pes = masim.trace_block(SINGLE_128, job_of(rng, 3, 4, 2))
        parked = np.array([pe.fifo_c for pe in pes], dtype=np.float32)
        assert np.array_equal(parked, res.tile)


class TestModeEquivalence:
    def test_joined_vs_independent_same_values(self):
        rng = np.random.default_rng(13)
        m, n, k = 32, 48, 20
        a, b = rand(rng, m, k), rand(rng, k, n)
        grid = masim.partition(m, n, k, 16, 16)
        outputs = []
        times = []
        for n_arrays in (4, 1):
            layout, active = masim.layout_for_point(n_arrays, 16, 64, 4)
            queues = masim.partition_workload(grid, n_arrays)
            rep = masim.run_mpe(layout, grid, queues,
                                masim.ParametricBandwidth(), active_arrays=active)
            outputs.append(assemble_run(rep, layout, active, grid, a, b))
            times.append(rep.time_seconds)
        assert np.array_equal(outputs[0], outputs[1])
        assert times[0] != times[1]
