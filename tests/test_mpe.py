import dataclasses

import numpy as np
import pytest
from conftest import assemble_run

import masim


def rand(rng, r, c):
    return rng.random((r, c), dtype=np.float32)


def block_of(rng, si, sj, k):
    """Operands of one si x sj block of depth k."""
    return rand(rng, si, k), rand(rng, k, sj)


def walked_cycles(events):
    """Cycles the walk took: its last event before the drain."""
    return max(e.cycle for e in events if e.kind != "drain_done")


MACHINE = masim.Machine()
# one base array of 128 PEs, accumulator depth 128
M128 = masim.Machine(pes_per_base=128, max_arrays=1)


def m128(**fields):
    return dataclasses.replace(M128, **fields)


class TestPsuStallPlan:
    """The phase synchroniser's stalls per compute iteration, as
    block_charges counts them."""

    @pytest.mark.parametrize("si,sj,stalls", [
        (128, 128, 0), (96, 64, 32), (64, 96, 0), (1, 1, 0), (10, 3, 7),
    ])
    def test_examples(self, si, sj, stalls):
        assert masim.block_charges(si, sj, 1, MACHINE).stall_cycles == stalls
        assert masim.block_charges(si, sj, 5, MACHINE).stall_cycles == 5 * stalls

    def test_rejects_nonpositive(self):
        for si, sj in ((0, 4), (4, 0)):
            with pytest.raises(ValueError):
                masim.block_charges(si, sj, 1, MACHINE)


class TestSimulateBlock:
    """What simulating one block costs: block_charges, the one cycle policy,
    audited by the cycle-by-cycle walk of trace_block (which raises unless
    its walked cycles and stalls equal the charges)."""

    def test_cycle_example_small(self):
        rng = np.random.default_rng(0)
        machine = m128(fmac_stages=4)
        assert masim.block_charges(2, 3, 2, machine).cycles == 12
        _, events, _ = masim.trace_block(*block_of(rng, 2, 3, 2), machine)
        assert walked_cycles(events) == 12

    def test_cycle_example_minimal(self):
        rng = np.random.default_rng(1)
        machine = m128(fmac_stages=0)
        assert masim.block_charges(1, 1, 1, machine).cycles == 2
        _, events, _ = masim.trace_block(*block_of(rng, 1, 1, 1), machine)
        assert walked_cycles(events) == 2

    def test_cycle_example_fc6_sized(self):
        assert masim.block_charges(128, 128, 9216, MACHINE).cycles == 1179784

    def test_cycle_breakdown_sums(self):
        rng = np.random.default_rng(2)
        for si, sj, k, st in [(4, 7, 3, 0), (7, 4, 3, 8), (16, 16, 5, 4)]:
            machine = m128(fmac_stages=st)
            charges = masim.block_charges(si, sj, k, machine)
            assert (charges.prefetch_cycles + charges.compute_cycles + charges.stall_cycles
                    == charges.cycles == si + max(si, sj) * k + st)
            _, events, _ = masim.trace_block(*block_of(rng, si, sj, k), machine)
            assert walked_cycles(events) == charges.cycles
            assert sum(e.kind == "psu_stall" for e in events) == charges.stall_cycles

    def test_bit_identical_to_tile_accumulate(self):
        # a ragged edge tile, zero-filled to the full block the transfers
        # charge: the walk equals the kernel on that block, and its live
        # region equals that part of the full product
        rng = np.random.default_rng(3)
        a, b = rand(rng, 13, 16), rand(rng, 16, 11)
        sa = np.zeros((8, 16), np.float32)
        sb = np.zeros((16, 8), np.float32)
        sa[:5], sb[:, :3] = a[8:], b[:, 8:]
        tile, _, _ = masim.trace_block(sa, sb, M128)
        assert np.array_equal(tile, masim.reference_gemm(sa, sb))
        assert np.array_equal(tile[:5, :3], masim.reference_gemm(a, b)[8:, 8:])

    def test_block_too_tall(self):
        rng = np.random.default_rng(4)
        machine = masim.Machine(pes_per_base=4, max_arrays=2)    # chains of 8 PEs
        masim.trace_block(*block_of(rng, 8, 2, 1), machine)
        with pytest.raises(masim.InfeasibleBlockError):
            masim.trace_block(*block_of(rng, 9, 2, 1), machine)

    def test_block_too_wide_for_accumulator(self):
        rng = np.random.default_rng(5)
        machine = masim.Machine(pes_per_base=4, max_arrays=2)     # depth 8
        masim.trace_block(*block_of(rng, 2, 8, 1), machine)
        with pytest.raises(masim.InfeasibleBlockError):
            masim.trace_block(*block_of(rng, 2, 9, 1), machine)


class TestTraceBlock:
    def test_matches_fast_path_bit_for_bit(self):
        # the walk gives the kernel's bits and block_charges' cycles
        rng = np.random.default_rng(7)
        for si, sj, k in [(1, 1, 1), (2, 3, 2), (8, 8, 16), (5, 7, 3),
                          (16, 4, 9), (4, 16, 9)]:
            sa, sb = block_of(rng, si, sj, k)
            tile, events, _ = masim.trace_block(sa, sb, M128)
            assert walked_cycles(events) == masim.block_charges(si, sj, k, M128).cycles
            assert np.array_equal(tile, masim.reference_gemm(sa, sb))

    def test_prefetch_latches_by_pid(self):
        rng = np.random.default_rng(8)
        _, events, pes = masim.trace_block(*block_of(rng, 6, 3, 2), M128)
        latches = [e for e in events if e.kind == "a_latch" and e.k == 0]
        # every PE latches its own element, all on the same cycle
        assert sorted(e.pe for e in latches) == list(range(6))
        assert len({e.cycle for e in latches}) == 1
        for p, pe in enumerate(pes):
            assert pe.pid == p

    def test_stall_events_match_plan(self):
        rng = np.random.default_rng(9)
        si, sj, k = 9, 4, 5
        _, events, _ = masim.trace_block(*block_of(rng, si, sj, k), M128)
        stalls = [e for e in events if e.kind == "psu_stall"]
        assert len(stalls) == masim.block_charges(si, sj, k, M128).stall_cycles
        assert len(stalls) == (si - sj) * k

    def test_reuse_and_swap_sequence(self):
        rng = np.random.default_rng(10)
        si, sj, k = 4, 6, 3
        _, events, pes = masim.trace_block(*block_of(rng, si, sj, k), M128)
        swaps = [e for e in events if e.kind == "swap"]
        assert [e.k for e in swaps] == [1, 2]
        assert all(pe.reuse_this_iter == sj for pe in pes)

    def test_drain_event_after_flush(self):
        rng = np.random.default_rng(11)
        machine = m128(fmac_stages=2)
        _, events, _ = masim.trace_block(*block_of(rng, 3, 3, 2), machine,
                                         block_id=5)
        charges = masim.block_charges(3, 3, 2, machine)
        [flush, drain] = [e for e in events if e.kind in ("flush", "drain_done")][-2:]
        assert flush.cycle == charges.cycles
        assert drain.cycle == charges.cycles + charges.drain_cycles
        assert {e.block for e in events} == {5}

    def test_results_parked_in_output_fifo(self):
        rng = np.random.default_rng(12)
        tile, _, pes = masim.trace_block(*block_of(rng, 3, 4, 2), M128)
        parked = np.array([pe.fifo_c for pe in pes], dtype=np.float32)
        assert np.array_equal(parked, tile)

    def test_rejects_mismatched_operands(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            masim.trace_block(np.ones((2, 3)), np.ones((4, 2)), M128)


class TestModeEquivalence:
    def test_joined_vs_independent_same_values(self):
        rng = np.random.default_rng(13)
        m, n, k = 32, 48, 20
        a, b = rand(rng, m, k), rand(rng, k, n)
        grid = masim.partition(m, n, k, 16, 16)
        outputs = []
        times = []
        for n_arrays in (4, 1):
            rep = masim.run_mpe(MACHINE, grid, n_arrays)
            outputs.append(assemble_run(rep, grid, a, b))
            times.append(rep.time_seconds)
        assert np.array_equal(outputs[0], outputs[1])
        assert times[0] != times[1]


class TestMachine:
    @pytest.mark.parametrize("field,value", [
        ("pes_per_base", 0),
        ("max_arrays", 0),
        ("f_acc", float("inf")),
        ("fmac_stages", -1),
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

    def test_chain_lengths(self):
        # base arrays one effective array joins: 64-row blocks run on
        # independent base arrays, 100-row blocks on pairs, 256-row on all
        assert [MACHINE.chain(rows) for rows in (1, 64, 65, 100, 128, 129, 256)] \
            == [1, 1, 2, 2, 2, 3, 4]

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            MACHINE.f_acc = 1e9


class TestOneRule:
    """The rule, run_mpe, trace_block and explore accept exactly the same
    design points."""

    MACHINE = masim.Machine(pes_per_base=4, max_arrays=4)    # accumulator depth 16

    def test_every_path_agrees_with_the_rule(self):
        m = self.MACHINE
        rng = np.random.default_rng(14)
        shape = masim.ProblemShape(20, 3, 20)
        for block_rows in (1, 3, 4, 5, 8, 9, 12, 16, 17):
            for block_cols in (1, 4, 5, 16, 17):
                # the walk runs one block on one array
                one = 1 in m.array_counts(block_rows, block_cols)
                sa, sb = block_of(rng, block_rows, block_cols, 2)
                assert self.accepts(masim.trace_block, sa, sb, m) == one
                for n_arrays in range(1, m.max_arrays + 2):
                    ok = n_arrays in m.array_counts(block_rows, block_cols)
                    point = (n_arrays, block_rows, block_cols)
                    grid = masim.partition(shape.m, shape.n, shape.depth,
                                           block_rows, block_cols)
                    assert self.accepts(masim.run_mpe, m, grid, n_arrays) == ok, point
                    if block_rows == block_cols:
                        try:
                            ranked = masim.explore(shape, m, [block_rows])
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
