import csv
import dataclasses

import numpy as np
import pytest
from conftest import assemble_run

import masim
from masim import cli


def rand(rng, r, c):
    return rng.random((r, c), dtype=np.float32)


def run_problem(m, n, k, si, sj, n_arrays, bw_model, seed=0, slowdowns=None,
                **machine_fields):
    """Schedule an m x k x n problem; return the report and its per-tile output."""
    rng = np.random.default_rng(seed)
    a, b = rand(rng, m, k), rand(rng, k, n)
    grid = masim.partition(m, n, k, si, sj)
    machine = masim.Machine(bw_model=bw_model, **machine_fields)
    queues = masim.partition_workload(grid, n_arrays)
    rep = masim.run_mpe(machine, grid, queues, slowdowns=slowdowns)
    return rep, a, b, assemble_run(rep, machine, grid, a, b)


def schedule(shape, n_arrays, si):
    """Grid and queues for a square-block point; no matrix data."""
    grid = masim.partition(shape.m, shape.n, shape.depth, si, si)
    return grid, masim.partition_workload(grid, n_arrays)


class TestSingleBlock:
    def test_ideal_bandwidth_charges_exact_block_cycles(self):
        rep, *_ = run_problem(8, 8, 8, 8, 8, 1, masim.IdealBandwidth())
        assert rep.total_cycles == masim.block_cycles(8, 8, 8, masim.Machine())
        assert rep.arrays[0].idle_cycles == 0

    def test_finite_bandwidth_adds_first_fetch(self):
        bw = masim.ParametricBandwidth(1e6, 0, 0)   # deliberately slow
        rep, *_ = run_problem(8, 8, 8, 8, 8, 1, bw)
        grid = masim.partition(8, 8, 8, 8, 8)
        plan = masim.plan_for_tile(grid, 0, 0)
        expected = plan.in_bytes / 1e6 + masim.block_cycles(8, 8, 8, masim.Machine()) / 2e8 \
            + plan.out_bytes / 1e6
        assert rep.time_seconds == pytest.approx(expected)

    def test_drain_reported_separately(self):
        rep, *_ = run_problem(8, 8, 8, 8, 8, 1, masim.IdealBandwidth())
        assert rep.arrays[0].drain_cycles == 64
        assert rep.time_with_drain_seconds == pytest.approx(
            rep.time_seconds + 64 / 2e8)


class TestBalancedRun:
    def test_four_arrays_equal_busy_cycles(self):
        # 24 identical tiles split 6/6/6/6 on identical arrays
        rep, *_ = run_problem(32, 96, 16, 8, 16, 4, masim.IdealBandwidth())
        busy = [s.busy_seconds for s in rep.arrays]
        assert busy.count(busy[0]) == 4
        assert [s.blocks_executed for s in rep.arrays] == [6, 6, 6, 6]
        assert not rep.steal_events

    def test_per_block_cycle_contract_from_stats(self):
        # the run loop charges each block what simulate_block reports
        # (16x8 blocks, so the phase synchroniser stalls)
        rep, a, b, _ = run_problem(32, 96, 16, 16, 8, 4, masim.ParametricBandwidth(),
                                   drain_width=4)
        machine = masim.Machine(drain_width=4)
        array = masim.layout_for_point(machine, 4, 16, 8).arrays[0]
        res = masim.simulate_block(array, masim.BlockJob(a[:16], b[:, :8], 16, 8, 16),
                                   machine)
        assert res.cycles == masim.block_cycles(16, 8, 16, machine) and res.stall_cycles > 0
        for s in rep.arrays:
            n = s.blocks_executed
            assert (s.prefetch_cycles, s.compute_cycles, s.stall_cycles) == (
                n * res.prefetch_cycles, n * res.compute_cycles, n * res.stall_cycles)
            assert s.drain_cycles == res.drain_cycles == 32


class TestNumericalExactness:
    def test_randomized_problems_match_reference(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            m, n, k = (int(rng.integers(1, 65)) for _ in range(3))
            si = int(rng.choice([4, 8, 16, 32]))
            sj = int(rng.choice([4, 8, 16, 32]))
            n_arrays = int(rng.choice([1, 2, 4]))
            _, a, b, out = run_problem(m, n, k, si, sj, n_arrays,
                                       masim.IdealBandwidth(),
                                       seed=int(rng.integers(1e9)))
            ref = masim.reference_gemm(a, b, accumulate="f64")
            np.testing.assert_allclose(out, ref, rtol=1e-4)
            # same k order: the tiles a run executes are bitwise equal to
            # the whole-matrix kernel and to the functional blocked path
            grid = masim.partition(m, n, k, si, sj)
            assert np.array_equal(out, masim.reference_gemm(a, b))
            assert np.array_equal(out, masim.multiply_blocked(a, b, grid))

    def test_fast_numerics_within_tolerance(self, cli_output, tmp_path):
        assert cli.main(["run", "--shape", "33x41x29", "--np", "2", "--si", "8",
                         "--fast-numerics", "--out", str(tmp_path / "r.json")]) == 0
        [(a, b, out)] = cli_output
        ref = masim.reference_gemm(a, b, accumulate="f64")
        np.testing.assert_allclose(out, ref, rtol=1e-4)


class TestBracketing:
    def test_conv2_within_model_bounds(self):
        shape = masim.ProblemShape(128, 1200, 729)
        point = masim.DesignPoint(2, 128)
        machine = masim.Machine()
        est = masim.bounds(shape, point, machine)
        rep = masim.run_mpe(machine, *schedule(shape, 2, 128))
        assert est.lower_seconds * (1 - 1e-3) <= rep.time_seconds <= est.upper_seconds

    def test_bounds_hold_across_points(self):
        shape = masim.ProblemShape(96, 80, 200)
        machine = masim.Machine(bw_model=masim.ParametricBandwidth(8e8, 32, 0.4))
        for n_arrays, si in [(1, 16), (2, 16), (4, 16), (1, 48), (2, 48), (1, 96)]:
            point = masim.DesignPoint(n_arrays, si)
            est = masim.bounds(shape, point, machine)
            rep = masim.run_mpe(machine, *schedule(shape, n_arrays, si))
            assert est.lower_seconds * (1 - 1e-3) <= rep.time_seconds \
                <= est.upper_seconds, (n_arrays, si)


class TestDeterminism:
    def test_identical_runs_identical_reports(self):
        (r0, _, _, out0), (r1, _, _, out1) = [
            run_problem(24, 24, 12, 4, 4, 3, masim.ParametricBandwidth(), seed=7,
                        slowdowns={1: 2.0})
            for _ in range(2)]
        assert r0.time_seconds == r1.time_seconds
        assert r0.trace == r1.trace
        assert r0.steal_events == r1.steal_events
        assert [dataclasses.asdict(s) for s in r0.arrays] \
            == [dataclasses.asdict(s) for s in r1.arrays]
        assert np.array_equal(out0, out1)


class TestSharedPort:
    def test_same_values_slower_or_equal_time(self):
        kwargs = dict(seed=3)
        per, _, _, per_out = run_problem(32, 32, 16, 8, 8, 4,
                                         masim.ParametricBandwidth(),
                                         contention="per_array", **kwargs)
        shared, _, _, shared_out = run_problem(32, 32, 16, 8, 8, 4,
                                               masim.ParametricBandwidth(),
                                               contention="shared_port", **kwargs)
        assert np.array_equal(per_out, shared_out)
        assert shared.time_seconds > 0


class TestTraceOutput:
    def test_csv_schema(self, tmp_path):
        path = tmp_path / "trace.csv"
        grid = masim.partition(8, 8, 4, 4, 4)
        queues = masim.partition_workload(grid, 2)
        rep = masim.run_mpe(masim.Machine(bw_model=masim.IdealBandwidth()), grid, queues,
                            trace_path=path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["cycle", "array", "event", "block"]
        kinds = {r[2] for r in rows[1:]}
        assert {"fetch_start", "fetch_done", "compute_start",
                "compute_done", "wb_start", "wb_done"} <= kinds
        assert len(rows) - 1 == len(rep.trace)

    def test_every_block_appears_once_in_compute_events(self):
        rep, _, _, _ = run_problem(16, 16, 8, 4, 4, 2, masim.ParametricBandwidth())
        done = [r[3] for r in rep.trace if r[2] == "compute_done"]
        assert sorted(done) == list(range(rep.tile_count))


class TestErrorPaths:
    def test_infeasible_block_rejected_upfront(self):
        # four arrays of 64 PEs cannot hold 128-row blocks, and no array
        # holds 257-column blocks
        for si, sj, n_arrays in ((128, 16, 4), (16, 257, 1)):
            grid = masim.partition(128, 300, 8, si, sj)
            queues = masim.partition_workload(grid, n_arrays)
            with pytest.raises(masim.InfeasibleBlockError, match="block rows"):
                masim.run_mpe(masim.Machine(), grid, queues)

    def test_more_queues_than_the_machine_can_field(self):
        grid = masim.partition(8, 8, 4, 4, 4)
        machine = masim.Machine(max_arrays=2)
        masim.run_mpe(machine, grid, masim.partition_workload(grid, 2))
        with pytest.raises(masim.InfeasibleBlockError):
            masim.run_mpe(machine, grid, masim.partition_workload(grid, 3))
