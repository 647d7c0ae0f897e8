import csv
import dataclasses
import hashlib

import numpy as np
import pytest
from conftest import assemble_run

import masim
from masim import cli, simulator, wqm


def rand(rng, r, c):
    return rng.random((r, c), dtype=np.float32)


def run_problem(m, n, k, si, sj, n_arrays, bw_model, seed=0, slowdowns=None,
                **machine_fields):
    """Schedule an m x k x n problem; return the report and its per-tile output."""
    rng = np.random.default_rng(seed)
    a, b = rand(rng, m, k), rand(rng, k, n)
    point = masim.DesignPoint(n_arrays, si, sj)
    machine = masim.Machine(bw_model=bw_model, **machine_fields)
    rep = masim.run_mpe(masim.ProblemShape(m, k, n), point, machine,
                        slowdowns=slowdowns)
    return rep, a, b, assemble_run(rep, point, a, b)


class TestSingleBlock:
    def test_ideal_bandwidth_charges_exact_block_cycles(self):
        rep, *_ = run_problem(8, 8, 8, 8, 8, 1, masim.IdealBandwidth())
        assert rep.total_cycles == masim.block_charges(8, 8, 8, masim.Machine()).cycles
        assert rep.arrays[0].idle_cycles == 0

    def test_finite_bandwidth_adds_first_fetch(self):
        # one tile on one array overlaps nothing: the run takes the model's
        # upper bound, so both charge the same bytes and cycles
        bw = masim.ParametricBandwidth(1e6, 0, 0)   # deliberately slow
        rep, *_ = run_problem(8, 8, 8, 8, 8, 1, bw)
        est = masim.bounds(masim.ProblemShape(8, 8, 8), masim.DesignPoint(1, 8),
                           masim.Machine(bw_model=bw))
        assert rep.time_seconds == pytest.approx(est.upper_seconds)
        in_bytes, out_bytes = masim.block_bytes(8, 8, 8)
        assert (rep.arrays[0].bytes_in, rep.arrays[0].bytes_out) == (in_bytes, out_bytes)

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
        # the run loop charges each block what block_charges gives, which
        # the cycle-by-cycle walk of one block audits (16x8 blocks, so the
        # phase synchroniser stalls)
        rep, a, b, _ = run_problem(32, 96, 16, 16, 8, 4, masim.ParametricBandwidth())
        machine = masim.Machine()
        res = masim.block_charges(16, 8, 16, machine)
        masim.trace_block(a[:16], b[:, :8], machine)
        assert res.cycles == 16 + 16 * 16 + 8 and res.stall_cycles > 0
        for s in rep.arrays:
            n = s.blocks_executed
            assert (s.prefetch_cycles, s.compute_cycles, s.stall_cycles) == (
                n * res.prefetch_cycles, n * res.compute_cycles, n * res.stall_cycles)
            assert s.drain_cycles == res.drain_cycles == 16 * 8


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
            ref = a.astype(np.float64) @ b.astype(np.float64)
            np.testing.assert_allclose(out, ref, rtol=1e-4)
            # same k order: the tiles a run executes are bitwise equal to
            # the whole-matrix kernel
            assert np.array_equal(out, masim.reference_gemm(a, b))

    def test_fast_numerics_flag_gives_the_kernel_bits(self, cli_output, tmp_path):
        # --fast-numerics is accepted and changes nothing: one numerics path
        report = tmp_path / "r.json"
        assert cli.main(["run", "--shape", "33x41x29", "--np", "2", "--si", "8",
                         "--fast-numerics", "--out", str(report)]) == 0
        [(a, b, out)] = cli_output
        assert np.array_equal(out.view(np.uint32),
                              masim.reference_gemm(a, b).view(np.uint32))
        assert '"numerics": "exact"' in report.read_text()


class TestBracketing:
    def test_conv2_within_model_bounds(self):
        shape = masim.ProblemShape(128, 1200, 729)
        point = masim.DesignPoint(2, 128)
        machine = masim.Machine()
        est = masim.bounds(shape, point, machine)
        rep = masim.run_mpe(shape, point, machine)
        assert est.lower_seconds * (1 - 1e-3) <= rep.time_seconds <= est.upper_seconds

    def test_bounds_hold_across_points(self):
        shape = masim.ProblemShape(96, 80, 200)
        machine = masim.Machine(bw_model=masim.ParametricBandwidth(8e8, 32, 0.4))
        for n_arrays, si in [(1, 16), (2, 16), (4, 16), (1, 48), (2, 48), (1, 96)]:
            point = masim.DesignPoint(n_arrays, si)
            est = masim.bounds(shape, point, machine)
            rep = masim.run_mpe(shape, point, machine)
            assert est.lower_seconds * (1 - 1e-3) <= rep.time_seconds \
                <= est.upper_seconds, (n_arrays, si)


def traced_run(path, m=24, n=24, k=12, si=4, n_arrays=3, slowdowns=None, **fields):
    """Schedule a square-block problem with its trace written to path;
    return the report and the trace rows as read back from the CSV."""
    rep = masim.run_mpe(masim.ProblemShape(m, k, n), masim.DesignPoint(n_arrays, si),
                        masim.Machine(**fields), slowdowns=slowdowns, trace_path=path)
    with open(path, newline="") as fh:
        return rep, list(csv.reader(fh))


class TestDeterminism:
    def test_identical_runs_identical_reports(self, tmp_path):
        (r0, t0), (r1, t1) = [traced_run(tmp_path / f"{i}.csv", slowdowns={1: 2.0})
                              for i in range(2)]
        assert r0.time_seconds == r1.time_seconds
        assert t0 == t1 and len(t0) > 1
        assert r0.steal_events == r1.steal_events
        assert [dataclasses.asdict(s) for s in r0.arrays] \
            == [dataclasses.asdict(s) for s in r1.arrays]
        rng = np.random.default_rng(7)
        a, b = rand(rng, 24, 12), rand(rng, 12, 24)
        point = masim.DesignPoint(3, 4)
        assert np.array_equal(assemble_run(r0, point, a, b), assemble_run(r1, point, a, b))

    def test_trace_path_changes_no_report_field(self, tmp_path, monkeypatch):
        # A traced run keeps the event loop from t = 0; an untraced one runs
        # each array alone until the arrays can interact, then the loop.
        # Every report field agrees, in both transfer regimes, with ideal
        # and finite bandwidth, pipelines of 0 and 8 stages, ragged grids on
        # 1-4 arrays, arrays of 1-2 tiles, slowdowns, and stealing on and off.
        # Every untraced per_array run walks the recurrence; no shared_port
        # run and no traced run does.
        alone = []
        walk = simulator._alone
        monkeypatch.setattr(simulator, "_alone",
                            lambda *args: alone.append(1) or walk(*args))
        rng = np.random.default_rng(29)
        path = tmp_path / "t.csv"
        runs = few = 0
        for contention in ("per_array", "shared_port"):
            for bw in (masim.IdealBandwidth(), masim.ParametricBandwidth(4e8, 8, 0.3)):
                for stages in (0, 8):
                    machine = masim.Machine(bw_model=bw, contention=contention,
                                            fmac_stages=stages)
                    for _ in range(12):
                        n_arrays = int(rng.integers(1, 5))
                        si, sj = (int(rng.choice([3, 4, 8])) for _ in range(2))
                        hi = int(rng.choice([13, 65]))
                        m, n, k = (int(rng.integers(1, hi)) for _ in range(3))
                        shape = masim.ProblemShape(m, k, n)
                        point = masim.DesignPoint(n_arrays, si, sj)
                        few += shape.tile_count(si, sj) < 3 * n_arrays
                        slow = None
                        if rng.random() < 0.75:
                            slow = {i: float(rng.choice([1.0, 1.5, 2.0, 3.0]))
                                    for i in range(n_arrays)}
                        for steal_on in (False, True):
                            walks = len(alone)
                            plain = masim.run_mpe(shape, point, machine, steal=steal_on,
                                                  slowdowns=slow)
                            assert (len(alone) > walks) == (contention == "per_array")
                            walks = len(alone)
                            traced = masim.run_mpe(shape, point, machine, steal=steal_on,
                                                   slowdowns=slow, trace_path=path)
                            assert len(alone) == walks
                            for f in dataclasses.fields(masim.SimReport):
                                assert getattr(plain, f.name) == getattr(traced, f.name), \
                                    (f.name, shape, point, contention, bw, slow, steal_on)
                            runs += 1
        # runs, and runs with an array of 1-2 tiles
        assert (runs, few) == (192, 29)

    def test_reports_and_traces_pinned(self, tmp_path):
        # A seeded sweep over both transfer regimes, ideal and finite
        # bandwidth, pipelines of 0 and 8 stages, ragged grids on 1-4
        # arrays, with and without slowdowns and stealing. The digest
        # covers every report field and the bytes of every trace, so any
        # change to the event loop's output shows here.
        rng = np.random.default_rng(23)
        digest = hashlib.sha256()
        path = tmp_path / "trace.csv"
        runs = steals = 0
        for contention in ("per_array", "shared_port"):
            for bw in (masim.IdealBandwidth(), masim.ParametricBandwidth(4e8, 8, 0.3)):
                for stages in (0, 8):
                    machine = masim.Machine(bw_model=bw, contention=contention,
                                            fmac_stages=stages)
                    for _ in range(10):
                        n_arrays = int(rng.integers(1, 5))
                        si, sj = (int(rng.choice([3, 4, 8])) for _ in range(2))
                        m, n, k = (int(rng.integers(1, hi)) for hi in (65, 65, 33))
                        shape = masim.ProblemShape(m, k, n)
                        point = masim.DesignPoint(n_arrays, si, sj)
                        slow = None
                        if rng.random() < 0.75:
                            slow = {i: float(rng.choice([1.0, 1.5, 2.0, 3.0]))
                                    for i in range(n_arrays)}
                        for steal_on in (False, True):
                            rep = masim.run_mpe(shape, point, machine, steal=steal_on,
                                                slowdowns=slow, trace_path=path)
                            runs += 1
                            steals += len(rep.steal_events)
                            digest.update(repr(dataclasses.asdict(rep)).encode())
                            digest.update(path.read_bytes())
                            # one write-back end per tile, none before its
                            # compute end; the latest is the makespan and the
                            # trace's last cycle (a zero-time write-back's
                            # wb_start row sorts after its wb_done)
                            with open(path, newline="") as fh:
                                rows = list(csv.reader(fh))[1:]
                            done, wb = ({tile: int(cycle) for cycle, _, event, tile in rows
                                         if event == kind}
                                        for kind in ("compute_done", "wb_done"))
                            assert sum(r[2] == "wb_done" for r in rows) == len(wb) \
                                == len(done) == rep.tile_count
                            assert all(wb[tile] >= done[tile] for tile in done)
                            assert int(rows[-1][0]) == max(wb.values()) == rep.total_cycles
        assert (runs, steals) == (160, 218)
        assert digest.hexdigest() == \
            "f2b7872b307385d0b2b15acf411b06e15d1f286fcba10bf54d04b6b0c0d85613"

    def test_explorer_points_pinned(self):
        # The traffic explore --simulate serves: every explored point of
        # the 8 presets, in both transfer regimes, with stealing on (the
        # CLI default). The digest covers every report field.
        digest = hashlib.sha256()
        runs = steals = 0
        for contention in ("per_array", "shared_port"):
            machine = masim.Machine(contention=contention)
            for m, depth, n in masim.LAYER_PRESETS.values():
                shape = masim.ProblemShape(m, depth, n)
                for entry in masim.explore(shape, machine):
                    rep = masim.run_mpe(shape, entry.point, machine)
                    runs += 1
                    steals += len(rep.steal_events)
                    digest.update(repr(dataclasses.asdict(rep)).encode())
        assert (runs, steals) == (352, 45)
        assert digest.hexdigest() == \
            "067e9193c5bd1d801829ad5bef93a56870d6b5b0fea590acd0bb125539a9459d"


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
        rep, rows = traced_run(tmp_path / "trace.csv", 8, 8, 4, 4, 2,
                               bw_model=masim.IdealBandwidth())
        assert rows[0] == ["cycle", "array", "event", "block"]
        kinds = {r[2] for r in rows[1:]}
        assert {"fetch_start", "fetch_done", "compute_start",
                "compute_done", "wb_start", "wb_done"} <= kinds
        # six events per tile, sorted by cycle
        assert len(rows) - 1 == 6 * rep.tile_count
        cycles = [int(r[0]) for r in rows[1:]]
        assert cycles == sorted(cycles) and cycles[-1] == rep.total_cycles

    def test_every_block_appears_once_in_compute_events(self, tmp_path):
        rep, rows = traced_run(tmp_path / "trace.csv", 16, 16, 8, 4, 2)
        done = [int(r[3]) for r in rows[1:] if r[2] == "compute_done"]
        assert sorted(done) == list(range(rep.tile_count))


class TestErrorPaths:
    def test_infeasible_block_rejected_upfront(self):
        # four arrays of 64 PEs cannot hold 128-row blocks, and no array
        # holds 257-column blocks
        for si, sj, n_arrays in ((128, 16, 4), (16, 257, 1)):
            point = masim.DesignPoint(n_arrays, si, sj)
            with pytest.raises(masim.InfeasibleBlockError, match="block rows"):
                masim.run_mpe(masim.ProblemShape(128, 8, 300), point, masim.Machine())

    def test_rejects_bad_slowdowns(self):
        shape, point = masim.ProblemShape(8, 4, 8), masim.DesignPoint(2, 4)
        for slow in ({7: 3.0}, {-1: 2.0}, {0: -1.0}, {1: 0.0},
                     {0: float("nan")}, {1: float("inf")}, {1.0: 2.0}, {0: "2"}):
            with pytest.raises(ValueError, match="slowdown"):
                masim.run_mpe(shape, point, masim.Machine(), slowdowns=slow)

    # The loop's consistency guards, each tripped by a queue manager that
    # breaks its contract.
    def test_tile_executed_twice(self, monkeypatch):
        def regrant(queues, needy, pointer, time_s, log):
            if not log:            # once, so a run without the guard ends
                log.append(wqm.StealEvent(time_s, needy[0], needy[0], 0))
            return pointer
        monkeypatch.setattr(wqm, "arbitrate", regrant)
        # one array, three tiles: it asks for work after tile 0 has run
        with pytest.raises(masim.SimulationError, match="tile 0 executed twice"):
            masim.run_mpe(masim.ProblemShape(12, 4, 4), masim.DesignPoint(1, 4),
                          masim.Machine())

    def test_lost_tile(self, monkeypatch):
        deal = wqm.partition_workload

        def drop_last(tile_count, n_queues):
            queues = deal(tile_count, n_queues)
            queues[0].pop()
            return queues
        monkeypatch.setattr(wqm, "partition_workload", drop_last)
        with pytest.raises(masim.SimulationError,
                           match="run ended with 5/6 tiles executed"):
            masim.run_mpe(masim.ProblemShape(24, 4, 4), masim.DesignPoint(1, 4),
                          masim.Machine())

    def test_starved_array(self, monkeypatch):
        monkeypatch.setattr(wqm, "arbitrate",
                            lambda queues, needy, pointer, time_s, log: pointer)
        # array 1 runs its two tiles while the slow array 0 still queues a
        # third; denied a steal, array 1 runs dry with work left
        with pytest.raises(masim.SimulationError, match="array starved"):
            masim.run_mpe(masim.ProblemShape(20, 4, 4), masim.DesignPoint(2, 4),
                          masim.Machine(bw_model=masim.IdealBandwidth()),
                          slowdowns={0: 3.0})

    def test_more_queues_than_the_machine_can_field(self):
        shape = masim.ProblemShape(8, 4, 8)
        machine = masim.Machine(max_arrays=2)
        masim.run_mpe(shape, masim.DesignPoint(2, 4), machine)
        with pytest.raises(masim.InfeasibleBlockError):
            masim.run_mpe(shape, masim.DesignPoint(3, 4), machine)
