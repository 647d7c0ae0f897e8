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


MACHINE = masim.Machine()
# one base array of 128 PEs, accumulator depth 128
M128 = masim.Machine(pes_per_base=128, max_arrays=1)
SINGLE_128 = masim.configure_mpe(M128, []).arrays[0]


def m128(**fields):
    return dataclasses.replace(M128, **fields)


class TestConfigureMpe:
    def test_all_independent(self):
        lay = masim.configure_mpe(MACHINE, [False, False, False])
        assert [a.pe_count for a in lay.arrays] == [64, 64, 64, 64]

    def test_fully_joined(self):
        lay = masim.configure_mpe(MACHINE, [True, True, True])
        assert [a.pe_count for a in lay.arrays] == [256]

    def test_two_pairs(self):
        lay = masim.configure_mpe(MACHINE, [True, False, True])
        assert [a.pe_count for a in lay.arrays] == [128, 128]

    def test_array_count_matches_mux(self):
        for mux in ([True, False, False], [False, True, False], [True, True, False]):
            lay = masim.configure_mpe(MACHINE, mux)
            assert lay.n_arrays == 4 - sum(mux)
            assert sum(a.pe_count for a in lay.arrays) == 256

    def test_joins_are_adjacent(self):
        lay = masim.configure_mpe(MACHINE, [False, True, False])
        joined = [a for a in lay.arrays if a.n_bases == 2][0]
        assert joined.first_base == 1

    def test_wrong_mux_length(self):
        with pytest.raises(ValueError):
            masim.configure_mpe(MACHINE, [True])

    def test_layout_for_point_three_arrays(self):
        lay = masim.layout_for_point(MACHINE, 3, 64)
        assert [a.pe_count for a in lay.arrays] == [64, 64, 64, 64]

    def test_layout_for_point_long_blocks(self):
        lay = masim.layout_for_point(MACHINE, 2, 100)
        assert [a.pe_count for a in lay.arrays] == [128, 128]

    def test_layout_for_point_infeasible(self):
        with pytest.raises(masim.InfeasibleBlockError):
            masim.layout_for_point(MACHINE, 3, 100)
        with pytest.raises(masim.InfeasibleBlockError):
            masim.layout_for_point(MACHINE, 1, 64, MACHINE.mc_depth + 1)


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
        res = masim.simulate_block(SINGLE_128, job_of(rng, 2, 3, 2), m128(fmac_stages=4))
        assert res.cycles == 12

    def test_cycle_example_minimal(self):
        rng = np.random.default_rng(1)
        res = masim.simulate_block(SINGLE_128, job_of(rng, 1, 1, 1), m128(fmac_stages=0))
        assert res.cycles == 2

    def test_cycle_example_fc6_sized(self):
        assert masim.block_cycles(128, 128, 9216, MACHINE) == 1179784

    def test_cycle_breakdown_sums(self):
        rng = np.random.default_rng(2)
        for si, sj, k, st in [(4, 7, 3, 0), (7, 4, 3, 8), (16, 16, 5, 4)]:
            machine = m128(fmac_stages=st)
            res = masim.simulate_block(SINGLE_128, job_of(rng, si, sj, k), machine)
            assert (res.prefetch_cycles + res.compute_cycles + res.stall_cycles
                    == res.cycles == masim.block_cycles(si, sj, k, machine))
            assert dataclasses.astuple(res)[1:] == masim.block_charges(si, sj, k, machine)

    def test_bit_identical_to_tile_accumulate(self):
        # a ragged edge tile: the block equals the kernel on its zero-filled
        # slices, and its live region equals that part of the full product
        rng = np.random.default_rng(3)
        a, b = rand(rng, 13, 16), rand(rng, 16, 11)
        g = masim.partition(13, 11, 16, 8, 8)
        tile = masim.make_tile(g, 1, 1, a, b)
        res = masim.simulate_block(SINGLE_128,
                                   masim.BlockJob(tile.sa(), tile.sb(), 8, 8, 16), M128)
        assert np.array_equal(res.tile, masim.reference_gemm(tile.sa(), tile.sb()))
        assert np.array_equal(res.tile[:5, :3], masim.reference_gemm(a, b)[8:, 8:])

    def test_block_too_tall(self):
        rng = np.random.default_rng(4)
        machine = masim.Machine(pes_per_base=4, max_arrays=2)
        arr = masim.configure_mpe(machine, [False]).arrays[0]
        with pytest.raises(masim.InfeasibleBlockError):
            masim.simulate_block(arr, job_of(rng, 5, 2, 1), machine)

    def test_block_too_wide_for_accumulator(self):
        rng = np.random.default_rng(5)
        machine = masim.Machine(pes_per_base=4, max_arrays=2)     # depth 8
        arr = masim.configure_mpe(machine, [True]).arrays[0]
        masim.simulate_block(arr, job_of(rng, 2, 8, 1), machine)
        with pytest.raises(masim.InfeasibleBlockError):
            masim.simulate_block(arr, job_of(rng, 2, 9, 1), machine)

    def test_drain_respects_width(self):
        rng = np.random.default_rng(6)
        res1 = masim.simulate_block(SINGLE_128, job_of(rng, 8, 8, 2), m128(drain_width=1))
        res4 = masim.simulate_block(SINGLE_128, job_of(rng, 8, 8, 2), m128(drain_width=4))
        assert res1.drain_cycles == 64 and res4.drain_cycles == 16


class TestTraceBlock:
    def test_matches_fast_path_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for si, sj, k in [(1, 1, 1), (2, 3, 2), (8, 8, 16), (5, 7, 3),
                          (16, 4, 9), (4, 16, 9)]:
            job = job_of(rng, si, sj, k)
            fast = masim.simulate_block(SINGLE_128, job, M128)
            slow, _, _ = masim.trace_block(SINGLE_128, job, M128)
            assert fast.cycles == slow.cycles
            assert np.array_equal(fast.tile, slow.tile)

    def test_prefetch_latches_by_pid(self):
        rng = np.random.default_rng(8)
        job = job_of(rng, 6, 3, 2)
        _, events, pes = masim.trace_block(SINGLE_128, job, M128)
        latches = [e for e in events if e.kind == "a_latch" and e.k == 0]
        # every PE latches its own element, all on the same cycle
        assert sorted(e.pe for e in latches) == list(range(6))
        assert len({e.cycle for e in latches}) == 1
        for p, pe in enumerate(pes):
            assert pe.pid == p

    def test_stall_events_match_plan(self):
        rng = np.random.default_rng(9)
        si, sj, k = 9, 4, 5
        _, events, _ = masim.trace_block(SINGLE_128, job_of(rng, si, sj, k), M128)
        stalls = [e for e in events if e.kind == "psu_stall"]
        assert len(stalls) == masim.psu_stall_plan(si, sj) * k

    def test_reuse_and_swap_sequence(self):
        rng = np.random.default_rng(10)
        si, sj, k = 4, 6, 3
        _, events, pes = masim.trace_block(SINGLE_128, job_of(rng, si, sj, k), M128)
        swaps = [e for e in events if e.kind == "swap"]
        assert [e.k for e in swaps] == [1, 2]
        assert all(pe.reuse_this_iter == sj for pe in pes)

    def test_drain_event_after_flush(self):
        rng = np.random.default_rng(11)
        res, events, _ = masim.trace_block(SINGLE_128, job_of(rng, 3, 3, 2),
                                           m128(fmac_stages=2))
        drain = [e for e in events if e.kind == "drain_done"][0]
        assert drain.cycle == res.cycles + res.drain_cycles

    def test_results_parked_in_output_fifo(self):
        rng = np.random.default_rng(12)
        res, _, pes = masim.trace_block(SINGLE_128, job_of(rng, 3, 4, 2), M128)
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
            queues = masim.partition_workload(grid, n_arrays)
            rep = masim.run_mpe(MACHINE, grid, queues)
            outputs.append(assemble_run(rep, MACHINE, grid, a, b))
            times.append(rep.time_seconds)
        assert np.array_equal(outputs[0], outputs[1])
        assert times[0] != times[1]


class TestMachine:
    @pytest.mark.parametrize("field,value", [
        ("pes_per_base", 0),
        ("max_arrays", 0),
        ("f_acc", float("inf")),
        ("fmac_stages", -1),
        ("drain_width", 0),
        ("bw_model", "parametric"),     # a spec string, not a model
        ("contention", "both"),
    ])
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            masim.Machine(**{field: value})

    def test_rejects_non_integer_sizes(self):
        with pytest.raises(ValueError):
            masim.Machine(pes_per_base=64.0)

    def test_derived_values(self):
        m = masim.Machine(pes_per_base=32, max_arrays=3, f_acc=1e8)
        assert m.mc_depth == 96
        assert m.peak_gflops == pytest.approx(2 * 1e8 * 96 / 1e9)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            MACHINE.f_acc = 1e9


class TestOneRule:
    """The rule, layout_for_point, run_mpe, simulate_block, trace_block and
    explore accept exactly the same design points."""

    MACHINE = masim.Machine(pes_per_base=4, max_arrays=4)    # accumulator depth 16

    def test_every_path_agrees_with_the_rule(self):
        m = self.MACHINE
        rng = np.random.default_rng(14)
        shape = masim.ProblemShape(20, 3, 20)
        for n_arrays in range(1, m.max_arrays + 2):
            for block_rows in (1, 3, 4, 5, 8, 9, 12, 16, 17):
                for block_cols in (1, 4, 5, 16, 17):
                    ok = n_arrays in m.array_counts(block_rows, block_cols)
                    point = (n_arrays, block_rows, block_cols)
                    assert self.accepts(masim.layout_for_point, m, *point) == ok, point
                    grid = masim.partition(shape.m, shape.n, shape.depth,
                                           block_rows, block_cols)
                    queues = masim.partition_workload(grid, n_arrays)
                    assert self.accepts(masim.run_mpe, m, grid, queues) == ok, point
                    if n_arrays <= m.max_arrays:
                        # the first of n_arrays equal chains as long as they can be
                        bases = m.max_arrays // n_arrays
                        mux = ([True] * (bases - 1) + [False]) * n_arrays + [False] * 4
                        array = masim.configure_mpe(m, mux[: m.max_arrays - 1]).arrays[0]
                        job = job_of(rng, block_rows, block_cols, 2)
                        for run in (masim.simulate_block, masim.trace_block):
                            assert self.accepts(run, array, job, m) == ok, point
                    if block_rows == block_cols:
                        try:
                            ranked = masim.explore(shape, m, [block_rows]).entries
                        except masim.InfeasibleBlockError:
                            ranked = []
                        assert (n_arrays in [e.point.n_arrays for e in ranked]) == ok

    @staticmethod
    def accepts(fn, *args):
        try:
            fn(*args)
        except masim.InfeasibleBlockError:
            return False
        return True

    def test_rule_covers_accumulator_depth(self):
        m = self.MACHINE
        assert list(m.array_counts(4, 16)) == [1, 2, 3, 4]
        assert list(m.array_counts(4, 17)) == []
        with pytest.raises(masim.InfeasibleBlockError, match="block cols > 16"):
            m.check(1, 4, 17)
