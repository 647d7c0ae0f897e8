import numpy as np
import pytest

import masim


CONV1 = masim.ProblemShape(96, 363, 3025)
CONV2 = masim.ProblemShape(128, 1200, 729)
FC6 = masim.ProblemShape(128, 9216, 4096)
MACHINE = masim.Machine()


def machine(bw_model):
    return masim.Machine(bw_model=bw_model)


class TestWorkPerArray:
    def test_conv1_two_arrays(self):
        assert masim.n_work(CONV1, 128, 128, 2) == 12

    def test_whole_problem_on_one_array(self):
        shape = masim.ProblemShape(100, 50, 200)
        assert masim.n_work(shape, 256, 256, 1) == 1

    def test_fc6_two_arrays(self):
        assert masim.n_work(FC6, 128, 128, 2) == 16

    def test_monotone_in_block_and_arrays(self):
        shape = masim.ProblemShape(130, 77, 99)
        for n_arrays in (1, 2, 3, 4):
            works = [masim.n_work(shape, s, s, n_arrays) for s in range(1, 129)]
            assert works == sorted(works, reverse=True)
        for s in (8, 32, 100):
            works = [masim.n_work(shape, s, s, n) for n in (1, 2, 3, 4)]
            assert works == sorted(works, reverse=True)

    def test_simulator_deals_the_model_tiles(self):
        # at every explored point of every preset, a static run executes
        # the shape's tiles and its busiest array the model's work per array
        machine = masim.Machine(bw_model=masim.IdealBandwidth())
        points = 0
        for m, depth, n in masim.LAYER_PRESETS.values():
            shape = masim.ProblemShape(m, depth, n)
            for entry in masim.explore(shape, machine):
                point = entry.point
                rep = masim.run_mpe(shape, point, machine, steal=False)
                assert rep.tile_count == shape.tile_count(point.block_rows,
                                                          point.block_cols), point
                assert max(s.blocks_executed for s in rep.arrays) \
                    == entry.estimate.work_per_array, point
                points += 1
        assert points == 176


class TestComputeTime:
    """The busiest array's compute time, the model's compute_seconds."""

    def test_fc6_at_two_by_128(self):
        t = masim.bounds(FC6, masim.DesignPoint(2, 128), MACHINE).compute_seconds
        assert t == pytest.approx(16 * 1179784 / 2e8)
        assert t == pytest.approx(0.09438272)

    def test_formula_collapse(self):
        shape = masim.ProblemShape(16, 1, 16)
        t = masim.bounds(shape, masim.DesignPoint(1, 16),
                         masim.Machine(fmac_stages=0, f_acc=1e6)).compute_seconds
        assert t == pytest.approx((16 + 16) / 1e6)

    def test_conv2_at_two_by_128(self):
        t = masim.bounds(CONV2, masim.DesignPoint(2, 128), MACHINE).compute_seconds
        assert t == pytest.approx(3 * (128 + 153600 + 8) / 2e8)
        assert t == pytest.approx(2.30604e-3)

    def test_rejects_bad_frequency(self):
        for f_acc in (0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                masim.Machine(f_acc=f_acc)


class TestTransferTimeModel:
    """Transfer-only time of one array's share, the model's transfer_seconds."""

    @staticmethod
    def transfer(shape, point, bw_model):
        return masim.bounds(shape, point, machine(bw_model)).transfer_seconds

    def test_single_block_equals_one_load(self):
        shape = masim.ProblemShape(64, 100, 64)
        point = masim.DesignPoint(1, 64)
        bw = masim.ParametricBandwidth(1e9, 0, 0)
        assert self.transfer(shape, point, bw) == pytest.approx(
            sum(masim.block_bytes(64, 64, 100)) / 1e9)

    def test_conv1_chain(self):
        point = masim.DesignPoint(2, 128)
        bw = masim.ParametricBandwidth(1.6e9, 0, 0)   # flat 1.6e9 at any point
        assert self.transfer(CONV1, point, bw) == pytest.approx(12 * 273.28e-6)

    def test_doubling_bandwidth_halves_transfer(self):
        point = masim.DesignPoint(2, 64)
        t1 = self.transfer(CONV2, point, masim.ParametricBandwidth(1e9, 0, 0))
        t2 = self.transfer(CONV2, point, masim.ParametricBandwidth(2e9, 0, 0))
        assert t1 == pytest.approx(2 * t2)


class TestBounds:
    def test_lower_never_exceeds_upper(self):
        for shape in (CONV1, CONV2, FC6):
            for point in masim.feasible_points(MACHINE):
                est = masim.bounds(shape, point, MACHINE)
                assert est.lower_seconds <= est.upper_seconds
                assert est.gflops_lower <= est.gflops_upper

    def test_fc6_upper_gflops_brackets_measured(self):
        est = masim.bounds(FC6, masim.DesignPoint(2, 128), MACHINE)
        assert est.gflops_upper == pytest.approx(102.4, abs=0.1)
        measured = 100.9
        assert measured < est.gflops_upper
        assert (est.gflops_upper - measured) / measured < 0.02

    def test_estimate_fields_consistent(self):
        est = masim.bounds(CONV2, masim.DesignPoint(2, 128), MACHINE)
        assert est.lower_seconds == est.compute_seconds
        assert est.upper_seconds == pytest.approx(
            est.transfer_seconds + est.compute_seconds)
        assert est.transfer_seconds == pytest.approx(
            est.work_per_array * est.load_seconds)


def counts(block_rows, block_cols=None, m=MACHINE):
    return list(m.array_counts(block_rows, block_rows if block_cols is None else block_cols))


class TestFeasibility:
    def test_short_blocks_allow_all_counts(self):
        assert counts(32) == [1, 2, 3, 4]

    def test_medium_blocks(self):
        assert counts(100) == [1, 2]

    def test_long_blocks(self):
        assert counts(200) == [1]

    def test_too_long(self):
        assert counts(300) == []

    def test_boundaries(self):
        assert counts(64) == [1, 2, 3, 4]
        assert counts(65) == [1, 2]
        assert counts(128) == [1, 2]
        assert counts(129) == [1]
        assert counts(256) == [1]
        assert counts(257) == []
        # the accumulator depth bounds the block columns
        assert counts(8, 256) == [1, 2, 3, 4]
        assert counts(8, 257) == []

    def test_generalised_geometry(self):
        # two base arrays of 32 PEs
        m = masim.Machine(pes_per_base=32, max_arrays=2)
        assert counts(16, m=m) == [1, 2]
        assert counts(40, m=m) == [1]
        assert counts(70, m=m) == []

    def test_feasible_points_sound(self):
        for p in masim.feasible_points(MACHINE):
            MACHINE.check(p.n_arrays, p.block_rows, p.block_cols)
        for n_arrays, block_rows in ((3, 100), (2, 200)):
            with pytest.raises(masim.InfeasibleBlockError):
                MACHINE.check(n_arrays, block_rows, block_rows)

    def test_default_candidates(self):
        assert masim.default_block_candidates(MACHINE) == [8, 16, 32, 64, 96, 128, 192, 256]


class TestPeak:
    def test_default_machine_peak(self):
        assert MACHINE.peak_gflops == 102.4

    def test_upper_gflops_never_beats_peak(self):
        peak = MACHINE.peak_gflops
        for shape in (CONV1, CONV2, FC6):
            for entry in masim.explore(shape, MACHINE):
                assert entry.estimate.gflops_upper <= peak + 1e-9

    def test_upper_gflops_bounded_by_own_configuration(self):
        ideal = machine(masim.IdealBandwidth())
        for shape in (CONV2, masim.ProblemShape(333, 41, 577)):
            for point in masim.feasible_points(ideal):
                est = masim.bounds(shape, point, ideal)
                chains = -(-point.block_rows // 64)
                pe_count = chains * 64
                cap = 2.0 * 2e8 * point.n_arrays * pe_count / 1e9
                assert est.gflops_upper <= cap + 1e-9


class TestExplore:
    def test_abundant_bandwidth_ranks_by_compute(self):
        ranked = masim.explore(CONV2, machine(masim.IdealBandwidth()))
        uppers = [e.estimate.upper_seconds for e in ranked]
        computes = [e.estimate.compute_seconds for e in ranked]
        assert uppers == computes == sorted(computes)

    def test_single_candidate_single_row(self):
        [entry] = masim.explore(CONV2, MACHINE, candidates=[200])
        assert entry.point == masim.DesignPoint(1, 200)

    def test_memory_bound_anomaly_ordering(self):
        # single narrow array with longer bursts beats two arrays with
        # shorter ones when both are starved for bandwidth
        table = masim.TableBandwidth({
            (1, 16): 7e8, (1, 32): 1.0e9,
            (2, 16): 5e8, (2, 32): 7e8,
            (3, 16): 4e8, (3, 32): 5.5e8,
            (4, 16): 3.5e8, (4, 32): 4.5e8,
        })
        ranked = [(e.point.n_arrays, e.point.block_rows)
                  for e in masim.explore(CONV2, machine(table), candidates=[16, 32])]
        assert ranked.index((1, 32)) < ranked.index((2, 16))

    def test_rejects_empty_candidates(self):
        with pytest.raises(masim.InfeasibleBlockError, match="block rows"):
            masim.explore(CONV2, MACHINE, candidates=[2048])

    def test_ranks_only_the_array_counts_the_table_rates(self):
        partial = machine(masim.TableBandwidth({(1, 64): 1e9, (1, 128): 2e9}))
        ranked = masim.explore(CONV2, partial)
        assert ranked
        assert {e.point.n_arrays for e in ranked} == {1}
        # a table that rates no feasible point still ends the search
        only_three = machine(masim.TableBandwidth({(3, 64): 1e9}))
        with pytest.raises(masim.CalibrationMissingError, match="n_arrays=1"):
            masim.explore(CONV2, only_three, candidates=[128])

    def test_rectangular_point_keeps_general_formulas(self):
        est = masim.bounds(CONV2, masim.DesignPoint(2, 128, 64), MACHINE)
        work = masim.n_work(CONV2, 128, 64, 2)
        assert est.work_per_array == work
        assert est.compute_seconds == pytest.approx(
            work * masim.block_charges(128, 64, 1200, MACHINE).cycles / 2e8)
        assert est.load_seconds == pytest.approx(
            sum(masim.block_bytes(128, 64, 1200))
            / masim.effective_bandwidth(MACHINE.bw_model, 2, 128))


class TestShapeValidation:
    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            masim.ProblemShape(0, 4, 4)

    def test_point_defaults_square(self):
        p = masim.DesignPoint(2, 96)
        assert p.block_cols == 96

    def test_point_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            masim.DesignPoint(0, 64)

    @pytest.mark.parametrize("make,name", [
        (lambda: masim.DesignPoint(1, 1.5), "block_rows"),
        (lambda: masim.DesignPoint(2.5, 4), "n_arrays"),
        (lambda: masim.DesignPoint(1, 4, 0.5), "block_cols"),
        (lambda: masim.ProblemShape(4, 1.5, 4), "depth"),
    ])
    def test_rejects_non_integer_entries(self, make, name):
        with pytest.raises(ValueError, match=rf"^{name} must be a positive integer, got "):
            make()
