import shutil
import sys
import threading

import numpy as np
import pytest

import masim
from masim import blockmm


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


def tile_slices(m, n, block_rows, block_cols):
    """The (rows, cols) slices of every tile of an m x n output cut into
    block_rows x block_cols blocks, listed by row-major tile id."""
    return [(slice(r0, r0 + block_rows), slice(c0, c0 + block_cols))
            for r0 in range(0, m, block_rows) for c0 in range(0, n, block_cols)]


def assemble_run(rep, point, a, b):
    """Output of the k-ordered kernel run on every tile the run executed.

    Each executed tile is reference_gemm on its slices A[r0:r1] and
    B[:, c0:c1]: padding would only add rows and columns that are cropped.
    The assembled result is what the accelerator writes back.
    """
    m, n = a.shape[0], b.shape[1]
    tiles = tile_slices(m, n, point.block_rows, point.block_cols)
    out = np.full((m, n), np.nan, np.float32)
    for stats in rep.arrays:
        for tid in stats.tiles:
            rows, cols = tiles[tid]
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


def seeded_matrices(shape, seed):
    """A and B as the CLI's seed makes them, drawn whole and serially."""
    rng = np.random.default_rng(seed)
    return (rng.random((shape.m, shape.depth), dtype=np.float32),
            rng.random((shape.depth, shape.n), dtype=np.float32))


@pytest.fixture
def cli_output(monkeypatch):
    """Record (a, b, out) each time the CLI's verify loop returns an output,
    with a and b drawn whole from the run's seed."""
    seen = []
    verify = blockmm.verified_output

    def recording(shape, seed):
        out, rel = verify(shape, seed)
        seen.append((*seeded_matrices(shape, seed), out))
        return out, rel

    monkeypatch.setattr(blockmm, "verified_output", recording)
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
