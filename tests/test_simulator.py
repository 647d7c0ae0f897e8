import csv
import dataclasses
import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
import reference_loop
from conftest import assemble_run
from hypothesis import given, settings
from hypothesis import strategies as st

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


def logged_calls(monkeypatch, name):
    """Wrap simulator.<name>; return the list its results are appended to."""
    results, walk = [], getattr(simulator, name)

    def logged(*args):
        results.append(walk(*args))
        return results[-1]
    monkeypatch.setattr(simulator, name, logged)
    return results


def refuse_arbitration(monkeypatch):
    """Fail on any arbitration round: a run that must not steal holds none,
    as a round is held only for an array asking for work while a tile is
    still queued."""
    def refuse(*args):
        raise AssertionError("arbitration round in a run that cannot steal")
    monkeypatch.setattr(wqm, "arbitrate", refuse)


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
        # A traced run takes _walk; an untraced one takes _alone when it
        # is a per_array run that cannot steal, and _walk otherwise. Every
        # report field agrees, in both transfer regimes, with ideal and
        # finite bandwidth, a bandwidth at which a fetch adds less than half
        # an ulp, a 1 Hz clock and 4 B/s port on which every time is a whole
        # number of seconds (so compute ends tie while transfers take time,
        # and the port's order matters), pipelines of 0 and 8 stages, ragged
        # grids on 1-4 arrays, arrays of 1-2 tiles, no, equal and unequal
        # slowdowns, and stealing on and off. Every untraced per_array run
        # walks _alone once per distinct (dealt count, slowdown), and so
        # does every one-array run (its port is the shared port); it takes
        # _walk exactly when it steals. Every other run takes _walk alone.
        alone, walked = (logged_calls(monkeypatch, name) for name in ("_alone", "_walk"))
        rng = np.random.default_rng(29)
        path = tmp_path / "t.csv"
        runs = few = shared = stole = 0
        for contention in ("per_array", "shared_port"):
            for bw, f_acc in ((masim.IdealBandwidth(), 2e8),
                              (masim.ParametricBandwidth(4e8, 8, 0.3), 2e8),
                              (masim.ParametricBandwidth(1e300, 0, 0), 2e8),
                              (masim.ParametricBandwidth(4, 0, 0), 1.0)):
                for stages in (0, 8):
                    machine = masim.Machine(bw_model=bw, contention=contention,
                                            fmac_stages=stages, f_acc=f_acc)
                    for _ in range(12):
                        n_arrays = int(rng.integers(1, 5))
                        si, sj = (int(rng.choice([3, 4, 8])) for _ in range(2))
                        hi = int(rng.choice([13, 65]))
                        m, n, k = (int(rng.integers(1, hi)) for _ in range(3))
                        shape = masim.ProblemShape(m, k, n)
                        point = masim.DesignPoint(n_arrays, si, sj)
                        few += shape.tile_count(si, sj) < 3 * n_arrays
                        slow = [None, {i: 2.0 for i in range(n_arrays)},
                                {i: float(rng.choice([1.0, 1.5, 2.0, 3.0]))
                                 for i in range(n_arrays)}][int(rng.integers(3))]
                        queues = masim.partition_workload(shape.tile_count(si, sj), n_arrays)
                        dealt = {(len(q), (slow or {}).get(i, 1.0))
                                 for i, q in enumerate(queues)}
                        for steal_on in (False, True):
                            reports = []
                            for trace in (None, path):
                                del alone[:], walked[:]
                                reports.append(masim.run_mpe(shape, point, machine,
                                                             steal=steal_on, slowdowns=slow,
                                                             trace_path=trace))
                                steals = reports[-1].steal_events
                                if trace is None and (contention == "per_array"
                                                      or n_arrays == 1):
                                    assert len(alone) == len(dealt)
                                    assert len(walked) == bool(steals)
                                    stole += bool(steals)
                                else:
                                    assert not alone and len(walked) == 1
                            plain, traced = reports
                            for f in dataclasses.fields(masim.SimReport):
                                assert getattr(plain, f.name) == getattr(traced, f.name), \
                                    (f.name, shape, point, contention, bw, slow, steal_on)
                            runs += 1
                            shared += contention == "shared_port" and n_arrays > 1
        # runs, runs with an array of 1-2 tiles, the multi-array
        # shared_port runs, and the untraced runs _alone handed to _walk
        # to steal
        assert (runs, few, shared, stole) == (384, 92, 146, 11)

    # ideal and finite bandwidth, and an integer-time machine (a 1 Hz clock
    # and a 4 B/s port) on which compute ends and transfers tie; ragged
    # grids on 1-4 arrays, slowdowns (all 1.0 among them) and stealing on
    # and off
    @given(contention=st.sampled_from(masim.mpe.CONTENTION_MODES),
           machine=st.sampled_from([(masim.IdealBandwidth(), 2e8),
                                    (masim.ParametricBandwidth(4e8, 8, 0.3), 2e8),
                                    (masim.ParametricBandwidth(4, 0, 0), 1.0)]),
           stages=st.sampled_from([0, 8]), n_arrays=st.integers(1, 4),
           block=st.tuples(*[st.sampled_from([1, 3, 4, 8])] * 2),
           mkn=st.tuples(st.integers(1, 48), st.integers(1, 16), st.integers(1, 48)),
           factors=st.lists(st.sampled_from([1.0, 1.5, 2.0, 3.0]), min_size=4, max_size=4),
           steal_on=st.booleans())
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_untraced_report_equals_traced(self, contention, machine, stages, n_arrays,
                                           block, mkn, factors, steal_on):
        # Untraced and traced, the run equals reference_loop's, which
        # schedules it by a discrete-event loop from t = 0: every report
        # field, and the trace byte for byte.
        bw, f_acc = machine
        machine = masim.Machine(bw_model=bw, contention=contention, fmac_stages=stages,
                                f_acc=f_acc)
        m, k, n = mkn
        shape, point = masim.ProblemShape(m, k, n), masim.DesignPoint(n_arrays, *block)
        slow = dict(enumerate(factors[:n_arrays]))
        with tempfile.TemporaryDirectory() as tmp:
            sim, ref = Path(tmp) / "sim.csv", Path(tmp) / "ref.csv"
            reports = [run(shape, point, machine, steal=steal_on, slowdowns=slow,
                           trace_path=path)
                       for run, path in ((masim.run_mpe, None), (masim.run_mpe, sim),
                                         (reference_loop.run_mpe, None),
                                         (reference_loop.run_mpe, ref))]
            for f in dataclasses.fields(masim.SimReport):
                values = [getattr(rep, f.name) for rep in reports]
                assert values == values[:1] * 4, f.name
            assert sim.read_bytes() == ref.read_bytes()

    def test_reports_and_traces_pinned(self, tmp_path):
        # A seeded sweep over both transfer regimes, ideal and finite
        # bandwidth, pipelines of 0 and 8 stages, ragged grids on 1-4
        # arrays, with and without slowdowns and stealing. The digest
        # covers every report field and the bytes of every trace, so any
        # change to the schedulers' output shows here.
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

    def test_explorer_points_pinned(self, monkeypatch):
        # The traffic explore --simulate serves: every explored point of
        # the 8 presets, in both transfer regimes, with stealing on (the
        # CLI default). The digest covers every report field. At equal
        # clocks no per_array run steals, so none holds an arbitration
        # round or takes _walk, and a run that records no steal equals its
        # steal=False twin. Arrays dealt one count walk alike, so a run
        # walks _alone once per distinct dealt count (at most twice), or
        # not at all when several arrays share the port.
        alone, walked = (logged_calls(monkeypatch, name) for name in ("_alone", "_walk"))
        digest = hashlib.sha256()
        runs = steals = 0
        for contention in ("per_array", "shared_port"):
            machine = masim.Machine(contention=contention)
            with pytest.MonkeyPatch.context() as mp:
                if contention == "per_array":
                    refuse_arbitration(mp)
                for m, depth, n in masim.LAYER_PRESETS.values():
                    shape = masim.ProblemShape(m, depth, n)
                    for entry in masim.explore(shape, machine):
                        point = entry.point
                        del alone[:], walked[:]
                        rep = masim.run_mpe(shape, point, machine)
                        tiles = shape.tile_count(point.block_rows, point.block_cols)
                        dealt = {len(q) for q in
                                 masim.partition_workload(tiles, point.n_arrays)}
                        one = contention == "per_array" or point.n_arrays == 1
                        assert len(alone) == (len(dealt) if one else 0) <= 2
                        assert len(walked) == (not one)
                        if not rep.steal_events:
                            assert rep == masim.run_mpe(shape, entry.point, machine,
                                                        steal=False)
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
        assert shared.time_seconds >= per.time_seconds > 0

    @pytest.mark.parametrize("shape, point, slowdowns, stages, seconds", [
        ((10, 2, 2), (2, 4, 1), None, 8, 96.0),
        ((5, 2, 5), (3, 4, 1), {2: 3.0}, 0, 164.0),   # the tie is not the heap's first child
    ])
    def test_tie_goes_in_array_order(self, tmp_path, shape, point,
                                     slowdowns, stages, seconds):
        # On a 1 Hz clock and a 4 B/s port every time is a whole number of
        # seconds, and here two arrays' compute ends meet at one instant.
        # Both the walk and the reference loop serve them in array order:
        # the port serves the lower array id's write-back first and the
        # other's once it ends.
        shape, point = masim.ProblemShape(*shape), masim.DesignPoint(*point)
        machine = masim.Machine(bw_model=masim.ParametricBandwidth(4, 0, 0), f_acc=1.0,
                                fmac_stages=stages, contention="shared_port")
        plain, ref = (run(shape, point, machine, steal=False, slowdowns=slowdowns)
                      for run in (masim.run_mpe, reference_loop.run_mpe))
        path = tmp_path / "t.csv"
        traced = masim.run_mpe(shape, point, machine, steal=False, slowdowns=slowdowns,
                               trace_path=path)
        assert plain == traced == ref and plain.time_seconds == seconds
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        done, starts, ends = ({(int(array), tile): int(cycle)
                               for cycle, array, event, tile in rows if event == kind}
                              for kind in ("compute_done", "wb_start", "wb_done"))
        [(first, second)] = [(a, b) for a in done for b in done
                             if a[0] < b[0] and done[a] == done[b]]
        assert done[first] <= starts[first] < starts[second] == ends[first]

    @given(n_arrays=st.integers(1, 4), stages=st.sampled_from([0, 8]),
           block=st.tuples(*[st.sampled_from([1, 3, 4, 8])] * 2),
           mkn=st.tuples(st.integers(1, 48), st.integers(1, 16), st.integers(1, 48)),
           factors=st.lists(st.sampled_from([1.0, 1.5, 2.0, 3.0]), min_size=4, max_size=4),
           steal_on=st.booleans())
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_ideal_bandwidth_port_changes_nothing(self, n_arrays, stages, block, mkn,
                                                  factors, steal_on):
        # Under IdealBandwidth a transfer takes no time, so sharing the
        # port delays no array: both regimes give one report, slowdowns
        # (all 1.0 among them) and steals included.
        m, k, n = mkn
        shape, point = masim.ProblemShape(m, k, n), masim.DesignPoint(n_arrays, *block)
        slow = dict(enumerate(factors[:n_arrays]))
        reports = []
        for contention in masim.mpe.CONTENTION_MODES:
            machine = masim.Machine(bw_model=masim.IdealBandwidth(), contention=contention,
                                    fmac_stages=stages)
            reports.append(masim.run_mpe(shape, point, machine, steal=steal_on,
                                         slowdowns=slow))
        per, shared = reports
        assert per == shared

    def test_few_tile_runs_walk_whole(self, tmp_path, monkeypatch):
        # An explorer point can deal an array fewer than two tiles. The deal's
        # counts differ by at most one, so every queue is dry after the first
        # fetches and the run never steals, so it holds no arbitration
        # round, and every report field agrees with the traced twin's.
        refuse_arbitration(monkeypatch)
        runs = 0
        for contention in masim.mpe.CONTENTION_MODES:
            machine = masim.Machine(contention=contention)
            for m, depth, n in masim.LAYER_PRESETS.values():
                shape = masim.ProblemShape(m, depth, n)
                for entry in masim.explore(shape, machine):
                    point = entry.point
                    tiles = shape.tile_count(point.block_rows, point.block_cols)
                    if tiles >= 2 * point.n_arrays:
                        continue
                    plain = masim.run_mpe(shape, point, machine)
                    assert not plain.steal_events, (shape, point)
                    traced = masim.run_mpe(shape, point, machine, trace_path=tmp_path / "t.csv")
                    assert plain == traced, (shape, point)
                    runs += 1
        assert runs == 12

    def test_few_tiles_on_many_arrays_never_arbitrate(self, monkeypatch):
        # 5,000 tiles on 3,000 arrays: every queue is dry after the first
        # fetches, so the run completes without one arbitration round (each
        # would cost time quadratic in the array count, and none can grant)
        refuse_arbitration(monkeypatch)
        shape, point = masim.ProblemShape(5000, 1, 1), masim.DesignPoint(3000, 1)
        for contention in masim.mpe.CONTENTION_MODES:
            machine = masim.Machine(pes_per_base=1, max_arrays=3000, contention=contention)
            rep = masim.run_mpe(shape, point, machine)
            assert sorted(s.blocks_executed for s in rep.arrays) == [1] * 1000 + [2] * 2000

    def test_no_arbitration_once_every_queue_is_empty(self, tmp_path, monkeypatch):
        # A traced run takes _walk. Once the last queue is empty no round
        # can grant, so none is held: one tile on 1,000
        # arrays holds none at all, and 300 arrays with slowed clocks steal
        # while every round finds some tile still queued.
        queued, arbitrate = [], wqm.arbitrate

        def counted(queues, *args):
            queued.append(sum(map(len, queues)))
            return arbitrate(queues, *args)
        monkeypatch.setattr(wqm, "arbitrate", counted)
        for n_arrays, tiles, slow in ((1000, 1, None),
                                      (300, 1500, {i: 3.0 for i in range(0, 300, 7)})):
            del queued[:]
            machine = masim.Machine(pes_per_base=1, max_arrays=n_arrays,
                                    bw_model=masim.IdealBandwidth())
            rep = masim.run_mpe(masim.ProblemShape(tiles, 1, 1),
                                masim.DesignPoint(n_arrays, 1), machine,
                                slowdowns=slow, trace_path=tmp_path / "t.csv")
            assert bool(queued) == bool(rep.steal_events) == (slow is not None)
            assert all(queued)

    def test_one_array_same_report(self, tmp_path):
        # one array's port is the shared port, so one array walks alone in
        # both regimes: every report field agrees at the one-array explorer
        # points of the 8 presets, traced and untraced, stealing on and off
        runs = 0
        for m, depth, n in masim.LAYER_PRESETS.values():
            shape = masim.ProblemShape(m, depth, n)
            for entry in masim.explore(shape, masim.Machine()):
                if entry.point.n_arrays > 1:
                    continue
                for steal_on in (False, True):
                    per, *others = (masim.run_mpe(shape, entry.point,
                                                  masim.Machine(contention=contention),
                                                  steal=steal_on, trace_path=path)
                                    for contention in ("per_array", "shared_port")
                                    for path in (None, tmp_path / "t.csv"))
                    for other in others:
                        assert per == other, (shape, entry.point, steal_on)
                    runs += 1
        assert runs == 128


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
                     {0: float("nan")}, {1: float("inf")}, {1.0: 2.0}, {True: 2.0},
                     {0: "2"}):
            with pytest.raises(ValueError, match="slowdown"):
                masim.run_mpe(shape, point, masim.Machine(), slowdowns=slow)

    # The walks' consistency guards, each tripped by a queue manager that
    # breaks its contract, in both transfer regimes.
    def test_tile_executed_twice(self, monkeypatch):
        # two arrays of three tiles: array 0 asks for work while the slowed
        # array 1 still queues a tile, a real steal, and the arbiter grants
        # array 0 its own tile 0 again
        shape, point = masim.ProblemShape(24, 4, 4), masim.DesignPoint(2, 4)
        machines = [masim.Machine(bw_model=masim.IdealBandwidth(), contention=c)
                    for c in masim.mpe.CONTENTION_MODES]
        for machine in machines:
            assert masim.run_mpe(shape, point, machine, slowdowns={1: 3.0}).steal_events

        def regrant(queues, needy, pointer, time_s, log):
            if not log:            # once, so a run without the guard ends
                log.append(wqm.StealEvent(time_s, needy[0], 1, 0))
            return pointer
        monkeypatch.setattr(wqm, "arbitrate", regrant)
        for machine in machines:
            with pytest.raises(masim.SimulationError, match="tile 0 executed twice"):
                masim.run_mpe(shape, point, machine, slowdowns={1: 3.0})

    def test_lost_tile(self, monkeypatch):
        deal = wqm.partition_workload

        def drop_last(tile_count, n_queues):
            queues = deal(tile_count, n_queues)
            queues[0] = queues[0][:-1]
            return queues
        monkeypatch.setattr(wqm, "partition_workload", drop_last)
        for contention in masim.mpe.CONTENTION_MODES:
            with pytest.raises(masim.SimulationError,
                               match="run ended with 5/6 tiles executed"):
                masim.run_mpe(masim.ProblemShape(24, 4, 4), masim.DesignPoint(1, 4),
                              masim.Machine(contention=contention))

    def test_steal_from_the_head(self, monkeypatch):
        # two arrays of six tiles: array 0 asks for work while the slowed
        # array 1 still queues tiles 7, 9 and 11, and the arbiter grants it
        # the head, 7, which array 1 would fetch next, in place of the tail
        shape, point = masim.ProblemShape(48, 4, 4), masim.DesignPoint(2, 4)
        machines = [masim.Machine(bw_model=masim.IdealBandwidth(), contention=c)
                    for c in masim.mpe.CONTENTION_MODES]
        for machine in machines:
            assert masim.run_mpe(shape, point, machine, slowdowns={1: 3.0}).steal_events

        def take_head(queues, needy, pointer, time_s, log):
            for thief in needy:
                victim = 1 - thief
                if queues[victim]:
                    log.append(wqm.StealEvent(time_s, thief, victim, queues[victim][0]))
                    queues[victim] = queues[victim][1:]
            return pointer
        monkeypatch.setattr(wqm, "arbitrate", take_head)
        for machine in machines:
            with pytest.raises(masim.SimulationError,
                               match="queue 1 changed other than by losing its tail"):
                masim.run_mpe(shape, point, machine, slowdowns={1: 3.0})

    def test_starved_array(self, monkeypatch):
        monkeypatch.setattr(wqm, "arbitrate",
                            lambda queues, needy, pointer, time_s, log: pointer)
        # array 1 runs its two tiles while the slow array 0 still queues a
        # third; denied a steal, array 1 runs dry with work left
        for contention in masim.mpe.CONTENTION_MODES:
            with pytest.raises(masim.SimulationError, match="array starved"):
                masim.run_mpe(masim.ProblemShape(20, 4, 4), masim.DesignPoint(2, 4),
                              masim.Machine(bw_model=masim.IdealBandwidth(),
                                            contention=contention),
                              slowdowns={0: 3.0})

    def test_more_queues_than_the_machine_can_field(self):
        shape = masim.ProblemShape(8, 4, 8)
        machine = masim.Machine(max_arrays=2)
        masim.run_mpe(shape, masim.DesignPoint(2, 4), machine)
        with pytest.raises(masim.InfeasibleBlockError):
            masim.run_mpe(shape, masim.DesignPoint(3, 4), machine)
