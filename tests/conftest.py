import shutil
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import masim
from masim import blockmm
# the variables that set how many threads OpenBLAS, OpenMP and MKL run per
# call, which the tests set and unset to show that no result depends on them
from masim.__main__ import BLAS_THREAD_VARS  # noqa: F401

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")

SRC = Path(__file__).resolve().parent.parent / "src"


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
def checked_strips(monkeypatch):
    """Record each output strip the verify loop finishes as (rows, cols,
    strip), strip a copy of the part's float32 output strip once the panel
    of B that ends its depth is added. blockmm._k_loop is wrapped: its A is
    a slice of the drawn A, whose offset gives the rows, and its B the
    buffer that draw_block (wrapped too) has just filled on the same thread
    from draw m * depth + k0 * n + c0, which gives the columns and the
    depth. A _k_loop call on any other B (reference_gemm's) is not
    recorded."""
    strips = []
    drawn = {}
    draw, kernel = blockmm.draw_block, blockmm._k_loop

    def recording_draw(stream, first, width, out):
        drawn[threading.get_ident()] = first, width, out
        return draw(stream, first, width, out)

    def recording_kernel(aa, bb, out, buffers=None):
        kernel(aa, bb, out, buffers)
        first, n, panel = drawn.get(threading.get_ident(), (0, 1, None))
        if panel is not bb:
            return
        a = aa.base
        m, depth = a.shape
        k0, c0 = divmod(first - m * depth, n)
        if k0 + bb.shape[0] == depth:
            r0 = (aa.ctypes.data - a.ctypes.data) // a.strides[0]
            strips.append((slice(r0, r0 + out.shape[0]), slice(c0, c0 + out.shape[1]),
                           out.copy()))

    monkeypatch.setattr(blockmm, "draw_block", recording_draw)
    monkeypatch.setattr(blockmm, "_k_loop", recording_kernel)
    return strips


def assemble_strips(strips, m, n):
    """The m x n output the strips make up, NaN where none lies; raises
    AssertionError if two strips overlap."""
    out = np.full((m, n), np.nan, np.float32)
    for rows, cols, strip in strips:
        assert np.isnan(out[rows, cols]).all(), "strips overlap"
        out[rows, cols] = strip
    return out


@pytest.fixture
def cli_output(monkeypatch, checked_strips):
    """Record (a, b, out) each time the CLI's verify loop returns, with a
    and b drawn whole from the run's seed and out made up of the strips
    the loop checked."""
    seen = []
    verify = blockmm.verified_output

    def recording(shape, seed):
        checked_strips.clear()
        rel = verify(shape, seed)
        seen.append((*seeded_matrices(shape, seed),
                     assemble_strips(checked_strips, shape.m, shape.n)))
        return rel

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
def fine_switching():
    """A 1 us switch interval, so threads interleave finely."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
