import sys
import threading

import numpy as np
import pytest

import masim
from masim import blockmm, cli


def assemble_run(rep, grid, a, b):
    """Output of the k-ordered kernel run on every tile the run executed.

    Each executed tile is reference_gemm on its slices A[r0:r1] and
    B[:, c0:c1]: padding would only add rows and columns that are cropped.
    The assembled result is what the accelerator writes back.
    """
    out = np.full((grid.m, grid.n), np.nan, np.float32)
    for stats in rep.arrays:
        for tid in stats.tiles:
            i, j = grid.tile_coords(tid)
            rows = slice(i * grid.block_rows, (i + 1) * grid.block_rows)
            cols = slice(j * grid.block_cols, (j + 1) * grid.block_cols)
            out[rows, cols] = masim.reference_gemm(a[rows], b[:, cols])
    return out


@pytest.fixture(scope="session", autouse=True)
def session_kernel_cache(tmp_path_factory):
    """Cache the compiled kernel in a directory of this session, never the
    user's home: the session's first exact product is one cold build, and
    the CLI subprocesses the tests start inherit the directory."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        blockmm._library.cache_clear()
        yield
    blockmm._library.cache_clear()


@pytest.fixture
def cli_output(monkeypatch):
    """Record (a, b, out) each time the CLI hands an output to the oracle."""
    seen = []
    check = cli.max_rel_error

    def recording(a, b, out):
        seen.append((a, b, out))
        return check(a, b, out)

    monkeypatch.setattr(cli, "max_rel_error", recording)
    return seen


@pytest.fixture
def started_threads(monkeypatch):
    """Record every thread blockmm.run_parts starts."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(blockmm.threading, "Thread", Counted)
    return started


@pytest.fixture
def pinned_blas(monkeypatch):
    """The standard thread variables pin BLAS to one thread, as far as
    blockmm.blas_pinned can tell (the loaded BLAS keeps its own setting)."""
    for var in blockmm.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")


@pytest.fixture
def fine_switching():
    """A 1 us switch interval, so threads interleave finely."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
