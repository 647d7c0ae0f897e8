"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success)."""

import functools
import json
import time

import numpy as np
from conftest import assemble_run

import masim
from masim import cli


def criterion(num, summary):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} FAIL: {summary}")
                raise
            print(f"criterion {num} PASS: {summary}")
        return wrapper
    return deco


def rand(rng, r, c):
    return rng.random((r, c), dtype=np.float32)


MACHINE = masim.Machine()


def simulate(shape, n_arrays, si, sj, bw_model, **kwargs):
    """Schedule an (m, k, n) problem; the timing needs no matrix data."""
    point = masim.DesignPoint(n_arrays, si, sj)
    machine = masim.Machine(bw_model=bw_model)
    rep = masim.run_mpe(masim.ProblemShape(*shape), point, machine, **kwargs)
    return rep, machine, point


@criterion(1, "simulated output matches the reference product at 1e-4 "
              "relative over 200 randomized problems in under 2 minutes")
def test_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(20260301)
    tiny = np.finfo(np.float64).tiny
    padded_cases = rect_cases = 0
    for trial in range(200):
        if trial % 10 == 0:
            # small problems exercise the smallest block sizes
            m, n, k = (int(rng.integers(1, 33)) for _ in range(3))
            si = int(rng.choice([2, 4, 8]))
            sj = int(rng.choice([2, 4, 8]))
        else:
            m, n, k = (int(rng.integers(1, 257)) for _ in range(3))
            si = int(rng.choice([16, 32, 64, 96, 128, 192, 256]))
            sj = int(rng.choice([16, 32, 64, 128]))
        n_arrays = int(rng.choice(MACHINE.array_counts(si, sj)))
        rect_cases += si != sj
        padded_cases += (m % si != 0) or (n % sj != 0)
        rep, _, point = simulate((m, k, n), n_arrays, si, sj,
                                 masim.ParametricBandwidth())
        data = np.random.default_rng(int(rng.integers(2**31)))
        a, b = rand(data, m, k), rand(data, k, n)
        # the tiles the run executed, each through the kernel on its
        # slices, equal the whole-matrix kernel the CLI computes
        out = assemble_run(rep, point, a, b)
        assert np.array_equal(out, masim.reference_gemm(a, b))
        ref = a.astype(np.float64) @ b.astype(np.float64)
        rel = np.abs(out - ref) / np.maximum(np.abs(ref), tiny)
        assert rel.max() <= 1e-4, (m, n, k, si, sj, n_arrays)
    assert rect_cases >= 50 and padded_cases >= 50
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


@criterion(2, "charged block cycles equal "
              "block_rows + max(block_rows, block_cols) * depth + stages, exactly")
def test_cycle_contract():
    rng = np.random.default_rng(1)
    machines = [masim.Machine(pes_per_base=128, max_arrays=1, fmac_stages=stage)
                for stage in (0, 4, 8)]
    sizes = [1, 2, 4, 8, 16, 64, 128]
    for si in sizes:
        for sj in sizes:
            for k in (1, 3, 10, 100):
                for machine in machines:
                    stage = machine.fmac_stages
                    res = masim.block_charges(si, sj, k, machine)
                    assert res.cycles == si + max(si, sj) * k + stage
                    assert res.prefetch_cycles + res.compute_cycles \
                        + res.stall_cycles == res.cycles
    # the cycle-by-cycle walk lands on the same count (it raises otherwise)
    for si, sj, k in ((1, 1, 1), (16, 4, 10), (4, 16, 3), (64, 64, 3)):
        for machine in machines:
            masim.trace_block(rand(rng, si, k), rand(rng, k, sj), machine)


@criterion(3, "simulated conv-2 time lies within the model's bounds at every "
              "feasible array count and block size, and tracks the lower "
              "bound when bandwidth is abundant")
def test_bracketing(tmp_path):
    shape = masim.ProblemShape(128, 1200, 729)
    configs = [(n_p, si) for si in (16, 32, 64, 96, 128)
               for n_p in MACHINE.array_counts(si, si) if n_p <= 4]
    assert {n_p for n_p, _ in configs} == {1, 2, 3, 4}
    for n_p, si in configs:
        out = tmp_path / f"conv2_{n_p}_{si}.json"
        rc = cli.main(["run", "--preset", "conv-2", "--np", str(n_p),
                       "--si", str(si), "--fast-numerics", "--no-verify",
                       "--out", str(out)])
        assert rc == 0, (n_p, si)
        rep = json.loads(out.read_text())
        lo = rep["estimate"]["lower_seconds"]
        hi = rep["estimate"]["upper_seconds"]
        t = rep["sim"]["time_seconds"]
        assert lo * (1 - 1e-3) <= t <= hi, (n_p, si, lo, t, hi)
        assert rep["checks"]["bounds_ok"] is True

    # with abundant bandwidth the run sits just above the lower bound
    roomy = masim.ParametricBandwidth(256e9, 64, 0.3)
    for n_p, si in [(1, 128), (2, 128), (4, 64)]:
        point = masim.DesignPoint(n_p, si)
        est = masim.bounds(shape, point, masim.Machine(bw_model=roomy))
        rep, *_ = simulate((128, 1200, 729), n_p, si, si, roomy)
        assert est.lower_seconds <= rep.time_seconds <= 1.02 * est.lower_seconds


@criterion(4, "global peak is exactly 102.4 GFLOPS and the fc-6 upper bound "
              "exceeds the measured 100.9 by less than 2%")
def test_peak_arithmetic():
    machine = masim.Machine(pes_per_base=64, max_arrays=4, f_acc=2e8, fmac_stages=8,
                            bw_model=masim.ParametricBandwidth())
    assert machine.peak_gflops == 102.4
    est = masim.bounds(masim.ProblemShape(128, 9216, 4096),
                       masim.DesignPoint(2, 128), machine)
    assert abs(est.gflops_upper - 102.4) <= 0.1
    measured = 100.9
    assert measured < est.gflops_upper
    assert (est.gflops_upper - measured) / measured < 0.02


@criterion(5, "feasible array counts reproduce the constraint table for "
              "every block size from 1 to 300")
def test_feasibility_table():
    machine = masim.Machine(pes_per_base=64, max_arrays=4)
    for si in range(1, 301):
        counts = list(machine.array_counts(si, si))
        if si <= 64:
            assert counts == [1, 2, 3, 4], si
        elif si <= 128:
            assert counts == [1, 2], si
        elif si <= 256:
            assert counts == [1], si
        else:
            assert counts == [], si


@criterion(6, "one wide-burst array beats two narrow-burst arrays when both "
              "are memory bound, in the model and in the simulator")
def test_memory_bound_anomaly():
    table = masim.TableBandwidth({
        (1, 16): 7e8, (1, 32): 1.0e9,
        (2, 16): 5e8, (2, 32): 7e8,
    })
    shape = masim.ProblemShape(128, 1200, 729)
    single = masim.DesignPoint(1, 32)
    double = masim.DesignPoint(2, 16)
    est_single = masim.bounds(shape, single, masim.Machine(bw_model=table))
    est_double = masim.bounds(shape, double, masim.Machine(bw_model=table))
    # precondition: both starved for bandwidth
    assert est_single.transfer_seconds > est_single.compute_seconds
    assert est_double.transfer_seconds > est_double.compute_seconds
    assert est_single.upper_seconds < est_double.upper_seconds

    rep_single, *_ = simulate((128, 1200, 729), 1, 32, 32, table)
    rep_double, *_ = simulate((128, 1200, 729), 2, 16, 16, table)
    assert rep_single.time_seconds < rep_double.time_seconds


@criterion(7, "work stealing executes every tile exactly once, beats the "
              "static split under skew, and arbitrates deterministically")
def test_work_stealing(tmp_path):
    # (a) exactly-once over 1000 randomized steal-heavy runs
    rng = np.random.default_rng(9)
    total_steals = 0
    for _ in range(1000):
        tm = int(rng.integers(2, 7))
        tn = int(rng.integers(2, 7))
        m, n = 4 * tm, 4 * tn
        n_arrays = int(rng.integers(2, 5))
        slow = {i: float(rng.choice([1.0, 2.0, 4.0])) for i in range(n_arrays)}
        rng.integers(2**31)               # data seed: keeps the problem sequence
        rep, *_ = simulate((m, 4, n), n_arrays, 4, 4, masim.IdealBandwidth(),
                           slowdowns=slow)
        executed = sorted(t for s in rep.arrays for t in s.tiles)
        assert executed == list(range(rep.tile_count))
        total_steals += len(rep.steal_events)
    assert total_steals > 500, "runs were not steal-heavy"

    # (b) one array slowed 2x on a 64-tile workload
    shape = (32, 8, 32)                       # 8x8 grid of 4x4 tiles
    slow = {0: 2.0}
    makespans = {}
    for steal_on in (False, True):
        rep, *_ = simulate(shape, 4, 4, 4, masim.IdealBandwidth(),
                           steal=steal_on, slowdowns=slow)
        makespans[steal_on] = rep.time_seconds
    blocks = masim.block_charges(4, 4, 8, MACHINE).cycles
    ideal = 64 * blocks / 2e8 / (0.5 + 1 + 1 + 1)
    assert makespans[True] <= makespans[False]
    assert makespans[True] <= 1.15 * ideal, (makespans[True], ideal)

    # (c) steal arbitration is deterministic; the schedule never reads
    # matrix data, so the skew pattern is what varies
    for slow in ({1: 3.0, 2: 1.5}, {0: 2.0}, {3: 4.0, 0: 1.5}):
        logs = []
        for _ in range(2):
            rep, *_ = simulate((40, 4, 12), 4, 4, 4, masim.IdealBandwidth(),
                               slowdowns=slow)
            logs.append(rep.steal_events)
        assert logs[0] == logs[1]
        assert logs[0], "expected steals in the skewed run"


@criterion(8, "identical configuration and seed produce byte-identical "
              "reports up to the timestamp")
def test_report_determinism(tmp_path):
    args = ["run", "--shape", "40x56x24", "--np", "3", "--si", "8",
            "--seed", "5", "--trace"]
    texts = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        trace = tmp_path / f"{tag}.csv"
        rc = cli.main(args[:-1] + ["--trace", str(trace), "--out", str(out)])
        assert rc == 0
        lines = [ln for ln in out.read_text().splitlines()
                 if '"created_at"' not in ln]
        texts.append(("\n".join(lines), trace.read_text()))
    assert texts[0][0] == texts[1][0]
    assert texts[0][1] == texts[1][1]
