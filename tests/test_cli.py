import collections
import contextlib
import csv
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import (BLAS_THREAD_VARS, SRC, assemble_run, assemble_strips, needs_cc,
                      seeded_matrices)
from hypothesis import given, settings
from hypothesis import strategies as st

import masim
from masim import blockmm, cli, model, wqm

DATA = Path(__file__).resolve().parent / "data"
ORACLE_FIELDS = ("oracle_ok", "max_rel_error", "oracle_skipped")


def run_cli(*argv):
    return cli.main(list(argv))


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


class TestRun:
    def test_small_exact_run(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("run", "--shape", "8x8x8", "--np", "1", "--si", "8",
                       "--out", str(out)) == 0
        rep = load_report(out)
        assert rep["checks"]["oracle_ok"] is True
        assert rep["checks"]["bounds_ok"] is True
        assert rep["checks"]["max_rel_error"] < 1e-4
        assert rep["sim"]["gflops"] > 0
        assert len(rep["arrays"]) == 1

    def test_conv2_report_contents(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("run", "--preset", "conv-2", "--np", "2", "--si", "128",
                       "--fast-numerics", "--no-verify", "--out", str(out)) == 0
        rep = load_report(out)
        est, sim = rep["estimate"], rep["sim"]
        assert est["lower_seconds"] * (1 - 1e-3) <= sim["time_seconds"] \
            <= est["upper_seconds"] * (1 + 1e-9)
        assert {"work_per_array", "load_seconds", "transfer_seconds",
                "compute_seconds", "gflops_upper", "gflops_lower"} \
            <= est.keys()
        stats_keys = {"compute_cycles", "stall_cycles", "prefetch_cycles",
                      "blocks_executed", "idle_cycles"}
        assert stats_keys <= rep["arrays"][0].keys()

    def test_rectangular_blocks(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("run", "--shape", "48x32x40", "--np", "2", "--si", "16",
                       "--sj", "8", "--out", str(out)) == 0
        rep = load_report(out)
        assert rep["config"]["block_cols"] == 8
        assert rep["checks"]["oracle_ok"] is True

    def test_auto_matches_explore_argmin(self, tmp_path):
        rep_path = tmp_path / "r.json"
        table_path = tmp_path / "t.json"
        assert run_cli("run", "--preset", "fc-6", "--auto", "--fast-numerics",
                       "--no-verify", "--out", str(rep_path)) == 0
        assert run_cli("explore", "--preset", "fc-6", "--out", str(table_path)) == 0
        rep = load_report(rep_path)
        best = load_report(table_path)["best"]
        assert rep["config"]["n_arrays"] == best["n_arrays"]
        assert rep["config"]["block_rows"] == best["block_rows"]

    def test_infeasible_point_fails_with_table(self, capsys):
        # too many arrays for the chain, too few PEs, a too-deep accumulator row
        for point in (("--np", "3", "--si", "100"), ("--np", "1", "--si", "300"),
                      ("--np", "1", "--si", "64", "--sj", "300")):
            assert run_cli("run", "--shape", "8x8x8", *point) == 2
            err = capsys.readouterr().err
            assert "infeasible" in err
            assert "block rows" in err      # the feasibility rows are listed
            assert "block cols > 256" in err

    def test_requires_problem(self):
        assert run_cli("run", "--np", "1", "--si", "8") == 2

    def test_unknown_preset(self):
        assert run_cli("run", "--preset", "conv-9", "--np", "1", "--si", "8") == 2

    def test_trace_file(self, tmp_path):
        trace = tmp_path / "trace.csv"
        assert run_cli("run", "--shape", "16x16x8", "--np", "2", "--si", "8",
                       "--trace", str(trace), "--out", str(tmp_path / "r.json")) == 0
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["cycle", "array", "event", "block"]
        assert len(rows) > 1


class TestInvalidFlags:
    """Out-of-range numbers and unwritable outputs are configuration errors:
    exit 2, one error line, no traceback."""

    POINT = ("--shape", "8x8x8", "--np", "1", "--si", "8")
    MISSING = "{tmp}/no-such-dir"       # a directory that does not exist

    @pytest.mark.parametrize("argv", [
        ("run", *POINT, "--freq", "0"),
        ("run", *POINT, "--freq", "nan"),
        ("run", *POINT, "--p", "0"),
        ("run", "--shape", "8x8x8", "--np", "0", "--si", "8"),
        ("run", *POINT, "--sj", "0"),
        ("run", "--shape", "64x0x64", "--np", "1", "--si", "8"),
        ("run", *POINT, "--stage", "-5"),
        ("explore", "--shape", "64x64x64", "--candidates", "0,8"),
        ("explore", "--shape", "64x64x64", "--candidates", "x"),
        ("explore", "--shape", "64x64x64", "--candidates", "1000"),
        ("run", *POINT, "--verify-cutoff", "-5"),
        ("run", *POINT, "--seed", "-1"),
        ("run", *POINT, "--out", f"{MISSING}/r.json"),
        ("run", *POINT, "--trace", f"{MISSING}/t.csv"),
        ("explore", "--shape", "64x64x64", "--out", f"{MISSING}/t.csv"),
        ("calibrate", "{tmp}/table.csv", "--out", f"{MISSING}/t.csv"),
        ("run", *POINT, "--bw-model", "parametric:1e9,nan,0"),
        ("run", *POINT, "--bw-model", "parametric:1e9,inf,0"),
        # makespans too long to count in cycles
        ("run", "--shape", "8x8x8", "--np", "1", "--si", "8", "--freq", "5e-324"),
        ("run", "--preset", "conv-1", "--np", "1", "--si", "64",
         "--bw-model", "parametric:1e-300,0,0", "--no-verify"),
        ("explore", "--preset", "conv-1", "--simulate",
         "--bw-model", "parametric:1e-300,0,0"),
        # a rate that underflows to zero at three or more arrays
        ("run", "--shape", "2x2x2", "--np", "3", "--si", "1",
         "--bw-model", "parametric:1,1,1e308", "--no-verify"),
        # no point has finite bounds
        ("explore", "--shape", "8x8x8", "--freq", "5e-324"),
    ])
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, argv):
        (tmp_path / "table.csv").write_text("n_p,s_i,bytes_per_second\n1,64,1e9\n")
        self.assert_config_error(capsys, [a.format(tmp=tmp_path) for a in argv])

    def test_explore_ranks_only_the_points_it_can_rate(self, tmp_path):
        # the rate underflows to zero at three or more arrays, as in the run
        # above, and at two a block's load is inf; the 1-array points are
        # still ranked and simulated
        out = tmp_path / "t.csv"
        assert run_cli("explore", "--shape", "2x2x2", "--bw-model",
                       "parametric:1,1,1e308", "--simulate", "--out", str(out)) == 0
        with open(out, newline="") as fh:
            counts = {int(row["n_arrays"]) for row in csv.DictReader(fh)}
        assert counts == {1}

    @pytest.mark.parametrize("rows", [
        "1,64,1e9\n1,128,2e9\n",      # no row for the 2 arrays asked for
        "2,64,fast\n",                 # not a number
        "1,64\n",                      # a field short
        "2,32,inf\n2,64,inf\n",        # infinite rates (48 interpolates to inf - inf)
    ])
    def test_calibration_table_errors(self, tmp_path, capsys, rows):
        table = tmp_path / "table.csv"
        table.write_text("n_p,s_i,bytes_per_second\n" + rows)
        self.assert_config_error(capsys, ("run", "--shape", "64x64x64", "--np", "2",
                                          "--si", "48", "--bw-model", str(table)))

    @pytest.mark.parametrize("rows", ["2,64,fast\n", "1,64\n", "1,32,inf\n1,64,inf\n"])
    def test_calibrate_rejects_malformed_rows(self, tmp_path, capsys, rows):
        table = tmp_path / "table.csv"
        table.write_text("n_p,s_i,bytes_per_second\n" + rows)
        self.assert_config_error(capsys, ("calibrate", str(table)))

    def test_problem_too_large_for_memory(self):
        # a child whose own address space is capped at 3 GiB cannot hold the
        # 30000 x 30000 float32 A (3.4 GiB), which the verify loop draws whole
        code = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, resource.RLIM_INFINITY)); "
                "sys.path.insert(0, sys.argv[1]); from masim.cli import main; "
                "sys.exit(main(sys.argv[2:]))")
        done = subprocess.run([sys.executable, "-c", code, str(SRC), "run", "--shape",
                               "30000x30000x1", "--np", "1", "--si", "256"],
                              env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert [line for line in done.stderr.splitlines() if "error:" in line] \
            == [line for line in done.stderr.splitlines() if line]
        assert "Unable to allocate" in done.stderr

    def test_tile_count_too_large_for_memory(self):
        # about 2.4e12 tiles; the child's address space is capped at 1 GiB, so
        # the schedule's per-tile bytes fail to allocate, and a deal started
        # before that allocation would exit 3. Never run this argv uncapped:
        # with overcommit on, the zero-fill would exhaust the host's memory.
        code = ("import os, sys; sys.path.insert(0, sys.argv[1]); "
                "from masim import wqm; "
                "wqm.partition_workload = lambda *args: os._exit(3); "
                "from masim.cli import main; sys.exit(main(sys.argv[2:]))")

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.RLIM_INFINITY))

        done = subprocess.run([sys.executable, "-c", code, str(SRC), "run", "--shape",
                               "100000000x1x100000000", "--np", "1", "--si", "64",
                               "--no-verify"],
                              env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                              preexec_fn=cap, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr

    @staticmethod
    def assert_config_error(capsys, argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:       # argparse rejected a flag value
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert sum("error:" in line for line in err.splitlines()) == 1

    def test_unwritable_trace_fails_before_scheduling(self, tmp_path, capsys,
                                                      monkeypatch):
        # every schedule starts by dealing the tiles onto the queues; a
        # writable trace path (the control) gets that far, an unwritable
        # one does not
        dealt = []
        deal = wqm.partition_workload
        monkeypatch.setattr(wqm, "partition_workload",
                            lambda *args: dealt.append(args) or deal(*args))
        argv = ("run", "--preset", "conv-3", "--np", "1", "--si", "64", "--no-verify")
        self.assert_config_error(capsys, (
            *argv, "--trace", str(tmp_path / "no-such-dir" / "x.csv")))
        assert dealt == []
        assert run_cli(*argv, "--trace", str(tmp_path / "x.csv")) == 0
        assert len(dealt) == 1

    def test_failed_run_leaves_no_trace(self, tmp_path, capsys):
        # the trace file is opened before the schedule, and removed again
        # when the makespan then overflows
        trace = tmp_path / "t.csv"
        self.assert_config_error(capsys, ("run", *self.POINT, "--freq", "5e-324",
                                          "--trace", str(trace)))
        assert not trace.exists()

    def test_zero_pipeline_stages_is_valid(self):
        assert run_cli("run", *self.POINT, "--stage", "0", "--no-verify") == 0


class TestBoundsOk:
    """The one bounds check behind run's bounds_ok and explore's in_bounds."""

    @staticmethod
    def estimate(lower, upper):
        return masim.ModelEstimate(work_per_array=1, load_seconds=0.0,
                                   transfer_seconds=0.0, compute_seconds=0.0,
                                   lower_seconds=lower, upper_seconds=upper,
                                   gflops_upper=0.0, gflops_lower=0.0)

    def test_edges(self):
        est = self.estimate(1.0, 2.0)
        lowest = 1.0 - cli.LOWER_BOUND_SLACK
        highest = 2.0 * (1.0 + cli.UPPER_BOUND_GUARD)
        assert cli.bounds_ok(est, lowest) and cli.bounds_ok(est, highest)
        assert not cli.bounds_ok(est, lowest * (1 - 1e-9))
        assert not cli.bounds_ok(est, highest * (1 + 1e-12))
        assert type(cli.bounds_ok(est, 1.5)) is bool


class TestArgvFuzz:
    """Any argv, in range or not: exit 0, 1 or 2, never a traceback, and 1
    only when the report holds a failed check."""

    # flag: (in-range values, out-of-range values); at most one flag of an
    # argv is out of range, so that most argvs get past parsing
    COMMON = {
        "--shape": ([f"{m}x{k}x{n}" for m, k, n in ((8, 8, 8), (24, 5, 17), (1, 24, 3))],
                    ["0x4x4", "4x-1x4", "4x4"]),
        "--p": ([64, 4, 8, 1], [0, -1]),
        "--pm": ([4, 2, 1], [0]),
        "--freq": (["2e8", "1e6"], ["0", "nan", "inf"]),
        "--stage": ([8, 0], [-1]),
        "--bw-model": (["parametric", "ideal", "parametric:1e9,0,0"],
                       ["no-such.csv", "parametric:1e9,inf,0", "parametric:0,1,1"]),
        "--contention": (["per_array", "shared_port"], ["both"]),
        "--seed": ([0, 7], [-1]),
    }
    RUN = {
        "--np": ([1, 2, 3, 4], [0, -1, 5]),
        "--si": ([1, 4, 8, 16, 24], [0, 300]),
        "--sj": ([1, 4, 8, 16, 24], [0, 300]),
        "--verify-cutoff": ([10**12, 0], [-1]),
    }
    EXPLORE = {"--candidates": (["2,4", "16", "1,8,24"], ["300", "0,8", "x"])}
    SWITCHES = {"run": ["--no-steal", "--fast-numerics", "--no-verify", "--auto"],
                "explore": ["--no-steal", "--fast-numerics", "--simulate"]}

    @st.composite
    def argvs(draw, common=COMMON, run=RUN, explore=EXPLORE, switches=SWITCHES):
        command = draw(st.sampled_from(["run", "explore"]))
        flags = {**common, **(run if command == "run" else explore)}
        bad = draw(st.one_of(st.none(), st.sampled_from(sorted(flags))))
        argv = [command] + [f for f in switches[command] if draw(st.booleans())]
        auto = "--auto" in argv           # which replaces the design point
        for flag, (good, out_of_range) in flags.items():
            point = flag in ("--np", "--si", "--sj")
            needed = flag == "--shape" or (point and flag != "--sj" and not auto)
            if flag == bad or needed or (not (point and auto) and draw(st.booleans())):
                value = draw(st.sampled_from(out_of_range if flag == bad else good))
                argv.append(f"{flag}={value}")
        return argv

    @given(argv=argvs())
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_exit_status_contract(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out.json"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = cli.main([*argv, "--out", str(out)])
                except SystemExit as exc:       # argparse rejected a flag value
                    code = exc.code
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err.getvalue(), argv
            failed = False
            if code != 2:
                report = load_report(out)
                if argv[0] == "run":
                    failed = False in report["checks"].values()
                else:
                    failed = any(r.get("in_bounds") is False for r in report["entries"])
            assert (code == 1) == failed, (argv, err.getvalue())


def test_cli_import_loads_no_pool_module():
    # concurrent.futures alone costs milliseconds of start-up on every run
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import masim.cli; "
            "print([m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"


# Every public name of masim; the numerics ones load numpy on first access.
MASIM_NAMES = (
    "DTYPE", "as_matrix", "max_rel_error", "reference_gemm", "CalibrationError",
    "CalibrationMissingError", "IdealBandwidth", "ParametricBandwidth",
    "TableBandwidth", "block_bytes", "effective_bandwidth", "DesignPoint",
    "ExploreEntry", "ModelEstimate", "ProblemShape", "bounds",
    "default_block_candidates", "explore", "feasible_points", "n_work",
    "BlockCharges", "InfeasibleBlockError", "Machine", "PeState", "block_charges",
    "trace_block", "LAYER_PRESETS", "ArrayRunStats", "SimReport", "SimulationError",
    "run_mpe", "StealEvent", "arbitrate", "partition_workload", "__version__")

TIMING_CORE = """
import sys
sys.path.insert(0, sys.argv[1])
import masim, masim.mpe
from masim import mac, model, presets, simulator, wqm
shape = model.ProblemShape(*presets.LAYER_PRESETS["conv-3"])
for contention in masim.mpe.CONTENTION_MODES:
    machine = masim.mpe.Machine(contention=contention)
    for entry in model.explore(shape, machine):
        simulator.run_mpe(shape, entry.point, machine)
simulator.run_mpe(shape, entry.point, machine, trace_path=sys.argv[2])
print("numpy" in sys.modules)
for name in sys.argv[3:]:
    getattr(masim, name)
print("numpy" in sys.modules, hasattr(masim, "no_such_name"))
"""


def test_timing_core_loads_no_numpy(tmp_path):
    trace = tmp_path / "t.csv"
    done = subprocess.run([sys.executable, "-c", TIMING_CORE, str(SRC), str(trace),
                           *MASIM_NAMES],
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.split() == ["False", "True", "False"]
    assert trace.stat().st_size > 0
    # perfbench/op.py reads sys.modules["numpy"] right after importing
    # masim.cli, so the CLI must keep loading it
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import masim.cli; "
            "print('numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.strip() == "True"


def test_cli_import_builds_no_kernel(tmp_path):
    # the compiled kernel is built on the first exact product, not on import
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import masim.cli; "
            "print([m for m in ('subprocess', 'hashlib') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          env={**os.environ, "XDG_CACHE_HOME": str(tmp_path)},
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"
    assert list(tmp_path.iterdir()) == []


RUN_LOADS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import masim.cli
names = ("numpy.random", "hashlib", "_hashlib")
loaded = [[name in sys.modules for name in names]]
code = masim.cli.main(["run", "--preset", "conv-3", "--auto", "--seed", "7",
                       "--out", sys.argv[2]])
loaded.append([name in sys.modules for name in names])
print(json.dumps([code, *loaded]))
"""


@needs_cc
def test_run_with_the_compiled_library_loads_no_numpy_rng(tmp_path):
    # numpy 1.24-1.26 load numpy.random with numpy itself, and with it
    # hashlib (through secrets and hmac), so the run must leave each loaded
    # or not as the import did: the cache name of the library takes no
    # hashlib either. With no cc on PATH the numpy fill loads numpy.random,
    # and the report is the same
    reports, loads = [], []
    interpreter_only = os.path.dirname(sys.executable)
    for path in (os.environ["PATH"], interpreter_only):
        out = tmp_path / f"r{len(reports)}.json"
        done = subprocess.run([sys.executable, "-c", RUN_LOADS, str(SRC), str(out)],
                              env={**os.environ, "PATH": path},
                              capture_output=True, text=True, check=True, timeout=120)
        code, before, after = json.loads(done.stdout)
        assert code == 0
        loads.append((before, after))
        report = load_report(out)
        del report["created_at"]
        reports.append(report)
    assert loads[0][1] == loads[0][0]
    assert loads[1][1][0] is True
    assert reports[0] == reports[1]


class TestOutputAndOracle:
    def test_exact_output_equals_per_tile_blocks(self, tmp_path, cli_output):
        # a ragged 4x6 grid of 16x8 blocks (50 rows, 43 columns), two arrays
        out_path = tmp_path / "r.json"
        assert run_cli("run", "--shape", "50x32x43", "--np", "2", "--si", "16",
                       "--sj", "8", "--seed", "4", "--out", str(out_path)) == 0
        [(a, b, out)] = cli_output
        point = masim.DesignPoint(2, 16, 8)
        rep = masim.run_mpe(masim.ProblemShape(50, 32, 43), point, masim.Machine())
        tiles = assemble_run(rep, point, a, b)
        assert np.array_equal(out.view(np.uint32), tiles.view(np.uint32))

    def test_planted_error_in_last_ragged_panel_fails(self, tmp_path, monkeypatch):
        # 136 rows, 262 columns and depth 520 leave the last 128x256x512
        # oracle panel 8x6x8; the error is planted once all 520 k of the
        # last, 6-column strip are in
        kernel = blockmm._k_loop
        depths = []

        def planted(a, b, out, buffers):
            kernel(a, b, out, buffers)
            if b.shape[1] == 6:
                depths.append(b.shape[0])
                if sum(depths) == 520:
                    out[-1, -1] *= 1 + 10 * cli.ORACLE_RTOL

        monkeypatch.setattr(blockmm, "_k_loop", planted)
        out_path = tmp_path / "r.json"
        assert run_cli("run", "--shape", "136x520x262", "--np", "1", "--si", "64",
                       "--out", str(out_path)) == 1
        checks = load_report(out_path)["checks"]
        assert checks["oracle_ok"] is False
        assert checks["max_rel_error"] == pytest.approx(10 * cli.ORACLE_RTOL, rel=1e-2)

    def test_oracle_runs_above_former_size_cutoff(self, tmp_path):
        out_path = tmp_path / "r.json"       # 512 * 513 * 520 > 2**27
        assert run_cli("run", "--shape", "512x513x520", "--np", "1", "--si", "256",
                       "--fast-numerics", "--out", str(out_path)) == 0
        checks = load_report(out_path)["checks"]
        assert checks["oracle_ok"] is True and "oracle_skipped" not in checks

    @pytest.mark.parametrize("flags,reason", [
        (("--no-verify",), "--no-verify"),
        (("--verify-cutoff", "1000"), "--verify-cutoff"),
    ])
    def test_skipped_oracle_gives_reason_and_builds_nothing(
            self, tmp_path, monkeypatch, flags, reason):
        monkeypatch.setattr(blockmm, "verified_output", None)
        monkeypatch.setattr(blockmm, "draw_matrix", None)
        out_path = tmp_path / "r.json"
        assert run_cli("run", "--shape", "16x16x8", "--np", "1", "--si", "8",
                       *flags, "--out", str(out_path)) == 0
        checks = load_report(out_path)["checks"]
        assert checks["oracle_ok"] is None and checks["max_rel_error"] is None
        assert checks["oracle_skipped"] == reason

    def test_cutoff_above_problem_still_verifies(self, tmp_path):
        out_path = tmp_path / "r.json"
        assert run_cli("run", "--shape", "8x8x8", "--np", "1", "--si", "8",
                       "--verify-cutoff", "512", "--out", str(out_path)) == 0
        assert load_report(out_path)["checks"]["oracle_ok"] is True


class TestGoldenOutputs:
    """Reports and traces of three runs, pinned byte for byte: the per-array
    default, the shared port (two steals) and a static split. The oracle
    fields are left out of the reports."""

    CASES = {
        "per_array": ("--shape", "50x32x43", "--np", "2", "--si", "16", "--sj", "8"),
        "shared_port": ("--shape", "40x48x36", "--np", "3", "--si", "16",
                        "--contention", "shared_port"),
        "no_steal": ("--shape", "72x24x36", "--np", "4", "--si", "8", "--no-steal"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_report_and_trace_unchanged(self, tmp_path, name):
        out_path, trace = tmp_path / "r.json", tmp_path / "t.csv"
        code = run_cli("run", *self.CASES[name], "--seed", "3",
                       "--out", str(out_path), "--trace", str(trace))
        rep = load_report(out_path)
        assert code == (1 if rep["checks"]["bounds_ok"] is False else 0)
        del rep["created_at"]
        for key in ORACLE_FIELDS:
            rep["checks"].pop(key, None)
        text = json.dumps(rep, indent=2, sort_keys=True) + "\n"
        assert text == (DATA / f"{name}.json").read_text()
        assert trace.read_bytes() == (DATA / f"{name}.csv").read_bytes()


class TestDeterminism:
    def strip_timestamp(self, path):
        rep = load_report(path)
        del rep["created_at"]
        return json.dumps(rep, indent=2, sort_keys=True)

    def test_same_seed_byte_identical(self, tmp_path):
        args = ("run", "--shape", "40x56x24", "--np", "3", "--si", "8",
                "--seed", "11")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert self.strip_timestamp(a) == self.strip_timestamp(b)

    @pytest.mark.parametrize("problem", [
        ("--preset", "conv-1"),
        # odd A, B and output element counts; the output's two strips are two
        # parts' worth on 4 cores
        ("--shape", "301x257x263"),
    ])
    def test_core_count_changes_no_byte(self, tmp_path, monkeypatch,
                                        started_threads, problem):
        texts = {}
        for cores in (1, 4):
            monkeypatch.setattr(blockmm, "usable_cores", lambda: cores)
            path = tmp_path / f"{cores}.json"
            assert run_cli("run", *problem, "--auto", "--seed", "7",
                           "--out", str(path)) == 0
            texts[cores] = self.strip_timestamp(path)
            assert (len(started_threads) > 0) == (cores > 1)
        assert texts[1] == texts[4]
        assert json.loads(texts[1])["checks"]["oracle_ok"] is True


class TestMatrixDraw:
    """The seeded matrices, drawn whole on the calling thread whatever the
    core count and B again panel by panel, are numpy's serial draw."""

    CORES = pytest.mark.parametrize("cores", [1, 2, 3, 4, 5])
    SHAPES = pytest.mark.parametrize("m,depth,n", [(1, 1, 1), (3, 5, 7), (7, 9, 2),
                                                   (96, 363, 64)])

    @CORES
    @SHAPES
    def test_chunked_draw_is_the_serial_draw(self, monkeypatch, fine_switching,
                                             cores, m, depth, n):
        self.check_chunked_draw(monkeypatch, cores, m, depth, n)

    @CORES
    @SHAPES
    def test_chunked_numpy_fill_is_the_serial_draw(self, monkeypatch, fine_switching,
                                                   cores, m, depth, n):
        monkeypatch.setattr(blockmm, "_library", lambda: None)
        self.check_chunked_draw(monkeypatch, cores, m, depth, n)

    @staticmethod
    def check_chunked_draw(monkeypatch, cores, m, depth, n):
        # A drawn whole, with a part floor of one element; then B and a
        # third matrix, each starting where the serial draw before it ends,
        # drawn whole and in 3 x 5 panels, in the verify loop's strip-major
        # order: odd m*depth makes B's first element the high half of an
        # output, and odd n every other row's of B
        monkeypatch.setattr(blockmm, "usable_cores", lambda: cores)
        monkeypatch.setattr(blockmm, "PART_MIN_ELEMS", 1)
        serial, stream = np.random.default_rng(5), blockmm.Stream(*blockmm.pcg64_seed(5))
        want = serial.random((m, depth), dtype=np.float32).view(np.uint32)
        assert np.array_equal(blockmm.draw_matrix(stream, m, depth).view(np.uint32), want)
        first = m * depth
        for rows, cols in ((depth, n), (5, 3)):
            want = serial.random((rows, cols), dtype=np.float32).view(np.uint32)
            whole = np.empty((rows, cols), np.float32)
            blockmm.draw_block(stream, first, cols, whole)
            assert np.array_equal(whole.view(np.uint32), want)
            panels = np.empty((rows, cols), np.float32)
            for c0 in range(0, cols, 5):
                for r0 in range(0, rows, 3):
                    blockmm.draw_block(stream, first + r0 * cols + c0, cols,
                                       panels[r0: r0 + 3, c0: c0 + 5])
            assert np.array_equal(panels.view(np.uint32), want)
            first += rows * cols

    def test_no_matrix_starts_a_thread(self, monkeypatch, started_threads):
        # tile-sized, and two oracle parts' worth on eight cores
        monkeypatch.setattr(blockmm, "usable_cores", lambda: 8)
        stream = blockmm.Stream(*blockmm.pcg64_seed(5))
        blockmm.draw_matrix(stream, 128, 255)
        blockmm.draw_matrix(stream, 2, blockmm.PART_MIN_ELEMS)
        assert started_threads == []

    def test_b_is_drawn_in_strip_panels(self, monkeypatch):
        # fc-6's width: 16 strips of 256 columns, each walked down B in
        # 512-deep panels, the last one ragged; never a full-width row block
        draw = blockmm.draw_block
        panels = []

        def recording(stream, first, width, out):
            panels.append((first, out.shape))
            return draw(stream, first, width, out)

        monkeypatch.setattr(blockmm, "draw_block", recording)
        m, depth, n = 1, 1025, 4096
        blockmm.verified_output(model.ProblemShape(m, depth, n), 5)
        assert panels[0] == (0, (1, depth))         # A, whole
        assert panels[1:] == [(m * depth + k0 * n + c0, (min(512, depth - k0), 256))
                              for c0 in range(0, n, 256) for k0 in range(0, depth, 512)]

    def test_out_must_be_a_contiguous_float32_matrix(self):
        stream = blockmm.Stream(*blockmm.pcg64_seed(5))
        for out in (np.empty((4, 6), np.float32)[:, ::2], np.empty((4, 3)),
                    np.empty(3, np.float32)):
            with pytest.raises(ValueError, match="float32 matrix with contiguous rows"):
                blockmm.draw_block(stream, 0, 3, out)


def assert_whole_matrix_check(shape, seed, rel, strips):
    """Every strip the verify loop checked is reference_gemm's on its rows
    and columns, bit for bit, the strips cover the output once, and rel is
    max_rel_error's of the whole output."""
    a, b = seeded_matrices(shape, seed)
    whole = masim.reference_gemm(a, b)
    for rows, cols, strip in strips:
        assert np.array_equal(strip.view(np.uint32), whole[rows, cols].view(np.uint32))
    assert not np.isnan(assemble_strips(strips, shape.m, shape.n)).any()
    assert rel == masim.max_rel_error(a, b, whole)


class TestStreamedCheck:
    """The verify loop's error, B drawn panel by panel into 256-column
    output strips that each part adds up in a buffer of its own, is the
    whole-matrix reference_gemm's and max_rel_error's."""

    # the ids name the one numerics path, "exact", as the report's
    # config.numerics does
    @pytest.mark.parametrize("m,depth,n", [
        pytest.param(3, 1, 5, id="3-1-5-exact"),            # depth 1
        # one panel short of 512; two row panels, ragged strip
        pytest.param(130, 511, 300, id="130-511-300-exact"),
        pytest.param(129, 512, 257, id="129-512-257-exact"),    # exactly one panel
        pytest.param(7, 513, 260, id="7-513-260-exact"),    # one row past it; odd m*depth
        # three panels, the last ragged; odd m*depth
        pytest.param(131, 1101, 70, id="131-1101-70-exact"),
    ])
    def test_equals_the_whole_matrix_check(self, monkeypatch, checked_strips, m, depth, n):
        monkeypatch.setattr(blockmm, "PART_MIN_ELEMS", 1 << 10)
        shape = model.ProblemShape(m, depth, n)
        rel = blockmm.verified_output(shape, 9)
        assert_whole_matrix_check(shape, 9, rel, checked_strips)

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_any_part_count_gives_the_whole_matrix_check(
            self, monkeypatch, started_threads, checked_strips, parts):
        # three strips, the last ragged, and one strip cut by rows, each over
        # three panels of an odd m*depth; each part keeps its one thread for
        # the whole loop, and A is drawn on the caller
        monkeypatch.setattr(blockmm, "PART_MIN_ELEMS", 1 << 10)
        monkeypatch.setattr(blockmm, "usable_cores", lambda: parts)
        for n in (701, 200):
            started_threads.clear()
            checked_strips.clear()
            shape = model.ProblemShape(331, 1101, n)
            rel = blockmm.verified_output(shape, 9)
            assert len(started_threads) == parts - 1
            assert_whole_matrix_check(shape, 9, rel, checked_strips)

    def test_a_slow_part_takes_fewer_strips(self, monkeypatch):
        # 16 strips, one panel of B each, over two parts: the worker sleeps
        # in every kernel call, and the caller takes the strips the worker
        # would have walked; the error is the one part's
        monkeypatch.setattr(blockmm, "usable_cores", lambda: 2)
        kernel = blockmm._k_loop
        caller = threading.get_ident()
        taken = collections.Counter()

        def slowed(a, b, out, buffers):
            kernel(a, b, out, buffers)
            me = threading.get_ident()
            taken[me == caller] += 1
            if me != caller:
                time.sleep(0.05)

        monkeypatch.setattr(blockmm, "_k_loop", slowed)
        shape = model.ProblemShape(128, 64, 16 * 256)
        rel = blockmm.verified_output(shape, 4)
        assert taken[True] + taken[False] == 16
        assert taken[False] < taken[True]
        monkeypatch.setattr(blockmm, "usable_cores", lambda: 1)
        assert rel == blockmm.verified_output(shape, 4)

    def test_one_slice_equals_the_whole_matrix_check(self, checked_strips):
        shape = model.ProblemShape(96, 363, 3025)          # conv-1
        rel = blockmm.verified_output(shape, 7)
        assert_whole_matrix_check(shape, 7, rel, checked_strips)

    def test_nan_in_an_early_slice_is_reported(self, monkeypatch):
        # one strip of 20 columns, its panels 512, 512 and 76 deep; a NaN
        # planted after the first stays in every later sum
        kernel = blockmm._k_loop
        calls = []

        def first_nan(a, b, out, buffers):
            kernel(a, b, out, buffers)
            if not calls:
                out[5, 7] = np.nan
            calls.append(b.shape[0])

        monkeypatch.setattr(blockmm, "_k_loop", first_nan)
        rel = blockmm.verified_output(model.ProblemShape(9, 1100, 20), 3)
        assert calls == [512, 512, 76]
        assert np.isnan(rel)

    def test_never_holds_b(self, monkeypatch):
        # B is 16 MB, a full-width panel of it 8 MB, the output 4 MB and an
        # m x n float64 8 MB; the loop holds A and, per part, a 512 x 256
        # float32 panel of B, a 128 x 256 error panel, an m x 256 strip of
        # the reference in float64 and one of the output in float32, 1.5
        # MB, and takes the error in place on the error panel and the
        # reference (the compiled reference's packs are C allocations,
        # which tracemalloc does not see). Without the library the part's
        # buffers add the kernel's product and columns of A, 0.75 MB, and
        # the float64 reference loop's product and columns of A, 1.5 MB. A
        # first tiny run builds the library or imports the numpy fill,
        # neither of them the loop's
        shape = model.ProblemShape(256, 1024, 4096)
        a_only = 4 * shape.m * shape.depth
        blockmm.verified_output(model.ProblemShape(1, 1, 1), 1)
        per_part = (3 << 20) if blockmm._library() else (4 << 20)
        for parts in (1, 2):
            monkeypatch.setattr(blockmm, "usable_cores", lambda: parts)
            tracemalloc.start()
            try:
                rel = blockmm.verified_output(shape, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rel <= cli.ORACLE_RTOL
            assert peak < a_only + parts * per_part

    def test_memory_does_not_grow_with_n(self, monkeypatch):
        # outputs of 4,096 and 65,536 columns (1 and 16 MB in float32):
        # the two loops' peaks differ by less than one part's buffers,
        # under 1 MB here with or without the library
        monkeypatch.setattr(blockmm, "usable_cores", lambda: 2)
        blockmm.verified_output(model.ProblemShape(1, 1, 1), 1)
        peaks = []
        for n in (4096, 65536):
            tracemalloc.start()
            try:
                blockmm.verified_output(model.ProblemShape(64, 64, n), 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 1 << 20


class TestModuleEntryPoint:
    """python -m masim runs the CLI without an installed script."""

    def run_module(self, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-m", "masim", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_tiny_run_exits_0(self):
        done = self.run_module("run", "--shape", "8x8x8", "--np", "1", "--si", "8")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["checks"]["oracle_ok"] is True

    def test_pins_blas_unless_the_user_set_it(self, monkeypatch):
        # one variable unset, one set to 1 and one set to 3 by the user: the
        # entry point sets only the missing one, before the CLI (and numpy)
        # is imported
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.setenv("MKL_NUM_THREADS", "3")
        code = ("import json, os, sys; from masim import __main__ as entry; "
                "before = sorted({'masim.cli', 'numpy'} & set(sys.modules)); "
                "sys.argv[1:] = ['run', '--shape', '8x8x8', '--np', '1', '--si', '8', "
                "'--no-verify', '--out', os.devnull]; code = entry.main(); "
                "print(json.dumps([code, before, "
                "[os.environ.get(v) for v in entry.BLAS_THREAD_VARS]]))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [0, [], ["1", "1", "3"]]

    def test_bad_flag_exits_2(self):
        done = self.run_module("run", "--shape", "8x8x8", "--no-such-flag")
        assert done.returncode == 2
        assert "unrecognized arguments: --no-such-flag" in done.stderr

    def test_report_does_not_depend_on_the_blas_threads(self, monkeypatch):
        # BLAS reads its thread count once, at load, so each setting gets a
        # fresh process, and the entry point keeps a count the user set;
        # --fast-numerics, too, takes the one exact path
        argv = ("run", "--preset", "conv-2", "--auto", "--seed", "7", "--fast-numerics")
        reports = []
        for threads in ("1", "2"):
            for var in BLAS_THREAD_VARS:
                monkeypatch.setenv(var, threads)
            done = self.run_module(*argv)
            assert done.returncode == 0, done.stderr
            reports.append([line for line in done.stdout.splitlines()
                            if '"created_at"' not in line])
        assert reports[0] == reports[1]
        assert '    "numerics": "exact",' in reports[0]


class TestExplore:
    def test_csv_table(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run_cli("explore", "--preset", "conv-1", "--out", str(out)) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) > 5
        uppers = [float(r["upper_seconds"]) for r in rows]
        assert uppers == sorted(uppers)
        assert rows[0]["rank"] == "0"

    def test_single_candidate(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run_cli("explore", "--shape", "64x64x64", "--candidates", "256",
                       "--out", str(out)) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["n_arrays"] == "1"

    def test_simulate_builds_no_matrices(self, tmp_path, monkeypatch):
        monkeypatch.setattr(blockmm, "verified_output", None)
        monkeypatch.setattr(blockmm, "draw_matrix", None)
        out = tmp_path / "sweep.json"
        assert run_cli("explore", "--shape", "64x48x64", "--simulate",
                       "--fast-numerics", "--candidates", "8,16",
                       "--out", str(out)) == 0
        assert all(r["in_bounds"] for r in load_report(out)["entries"])

    def test_simulate_adds_measured_columns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("explore", "--shape", "64x48x64", "--simulate",
                       "--candidates", "8,16,32", "--out", str(out)) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert row["in_bounds"] == "True"
            assert float(row["measured_seconds"]) > 0


class TestPresets:
    def test_exactly_eight_layers(self):
        from masim import LAYER_PRESETS
        assert LAYER_PRESETS == {
            "conv-1": (96, 363, 3025),
            "conv-2": (128, 1200, 729),
            "conv-3": (384, 2304, 169),
            "conv-4": (192, 1728, 169),
            "conv-5": (128, 1728, 169),
            "fc-6": (128, 9216, 4096),
            "fc-7": (128, 4096, 4096),
            "fc-8": (128, 4096, 1000),
        }

    def test_table_over_all_presets(self, tmp_path):
        from masim import LAYER_PRESETS
        for name in LAYER_PRESETS:
            out = tmp_path / f"{name}.csv"
            assert run_cli("explore", "--preset", name, "--out", str(out)) == 0
            with open(out) as fh:
                best = next(csv.DictReader(fh))
            assert best["rank"] == "0"
            assert float(best["lower_seconds"]) <= float(best["upper_seconds"])


class TestCalibrate:
    def test_accepts_monotone_table(self, tmp_path, capsys):
        src = tmp_path / "cal.csv"
        src.write_text("n_p,s_i,bytes_per_second\n"
                       "1,16,8e8\n1,64,1.5e9\n2,16,5e8\n2,64,1.1e9\n")
        out = tmp_path / "val.csv"
        assert run_cli("calibrate", str(src), "--out", str(out)) == 0
        assert "accepted" in capsys.readouterr().out
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == 4

    def test_rejects_rising_with_array_count(self, tmp_path, capsys):
        src = tmp_path / "cal.csv"
        src.write_text("n_p,s_i,bytes_per_second\n1,64,1.5e9\n2,64,1.6e9\n")
        assert run_cli("calibrate", str(src)) == 2
        assert "n_p=1 to n_p=2" in capsys.readouterr().err

    def test_rejects_empty_file(self, tmp_path):
        src = tmp_path / "cal.csv"
        src.write_text("")
        assert run_cli("calibrate", str(src)) == 2


class TestBandwidthSpecs:
    def test_parametric_with_arguments(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("run", "--shape", "8x8x8", "--np", "1", "--si", "8",
                       "--bw-model", "parametric:2e9,32,0.5",
                       "--out", str(out)) == 0
        assert load_report(out)["config"]["bw_model"] == "parametric:2e9,32,0.5"

    def test_ideal_keyword(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("run", "--shape", "8x8x8", "--np", "1", "--si", "8",
                       "--bw-model", "ideal", "--out", str(out)) == 0

    def test_table_file(self, tmp_path):
        cal = tmp_path / "cal.csv"
        cal.write_text("n_p,s_i,bytes_per_second\n1,8,8e8\n")
        out = tmp_path / "r.json"
        assert run_cli("run", "--shape", "8x8x8", "--np", "1", "--si", "8",
                       "--bw-model", str(cal), "--out", str(out)) == 0

    def test_table_without_single_array_rows(self, tmp_path):
        # the per-array regime looks up only the array count it runs
        cal = tmp_path / "cal.csv"
        cal.write_text("n_p,s_i,bytes_per_second\n2,32,1e9\n2,64,2e9\n")
        out = tmp_path / "r.json"
        assert run_cli("run", "--shape", "64x64x64", "--np", "2", "--si", "32",
                       "--bw-model", str(cal), "--out", str(out)) == 0

    def test_auto_on_partial_table(self, tmp_path):
        # a table with n_p = 1 rows only: --auto chooses among the
        # calibrated array counts
        cal = tmp_path / "cal.csv"
        cal.write_text("n_p,s_i,bytes_per_second\n1,64,1e9\n1,128,2e9\n")
        out = tmp_path / "r.json"
        assert run_cli("run", "--preset", "conv-3", "--auto", "--bw-model", str(cal),
                       "--out", str(out)) == 0
        assert load_report(out)["config"]["n_arrays"] == 1

    def test_bad_spec(self):
        assert run_cli("run", "--shape", "8x8x8", "--np", "1", "--si", "8",
                       "--bw-model", "no-such-file.csv") == 2
