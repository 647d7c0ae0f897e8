"""Tiling arithmetic, the k-ordered GEMM kernel and the float64 oracle.

Element data and accumulation are float32 throughout. reference_gemm is
the one k-ordered accumulation kernel: the inner dimension is summed in
strictly ascending k order, so the whole-matrix product, the kernel on
one tile's slices of A and B, and the cycle-level PE walk
(mpe.trace_block) all round identically and agree bit for bit. Its inner
loop is a small C kernel shipped beside this module (_kernel.c), compiled
on first use into a per-user cache and called through ctypes; it packs a
panel of B and keeps a block of C in registers across k, in the manner of
Goto and van de Geijn's GEMM, without changing any element's order of
summation. Where it cannot be built or loaded, the same loop runs in
numpy, one row panel of the output at a time, and gives the same bits.
A large output is split into row bands, one per core the process may run
on, each band on its own thread. Neither the panels nor the bands change
any element's order of summation, so the bits do not depend on the core
count, nor on whether B comes in k-slices added into one output.

max_rel_error is the float64 oracle, add_reference into a zeroed
reference; the CLI streams B's k-slices through both (cli.verified_output)
with the same bits. When BLAS is pinned to one thread per call, the
oracle splits its 256-column panel strips over the usable cores, and its
result does not depend on the core count either. run_parts is the one
thread helper behind the bands, the strips and the CLI's seeded matrix
draw, and part_count the one rule for how many parts each gets; a
process limited to one core (taskset -c 0) runs all of them on the
calling thread.

Padding exists only in the traffic accounting: mac charges every tile
full padded blocks, which is exactly what the transfer model assumes. A
tile's numerics are the kernel on its slices A[r0:r1] and B[:, c0:c1];
padding would only add output rows and columns that are cropped.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import shutil
import tempfile
import threading
from dataclasses import dataclass

import numpy as np

DTYPE = np.float32

# Output rows, output columns and inner-dimension depth of one
# add_reference step. Each thread holds a panel of A, a strip of B and a
# scratch panel in float64, 1.8 MB at most, besides the m x n reference.
# 128x256x512 measured faster (0.26 s vs 0.56 s on fc-6) than 32x64 panels
# over the full depth; converting A's slice whole, not per panel, was
# slower (conv-3's oracle 8 ms -> 13 ms, for its fresh pages).
ORACLE_PANEL = (128, 256, 512)

# Output elements in one row panel of _k_loop's numpy loop, the fallback
# where the compiled kernel cannot be had, which is
# max(1, KERNEL_PANEL_ELEMS // n) full rows of C. A float32 panel and its
# scratch take 1 MB together and stay in a 2 MB per-core L2 across all k;
# the whole fc-6 output and its scratch (4 MB) did not, so every k went to
# L3 (fc-6 2.8 s -> 1.5 s). 2**16 and 2**18 measured no faster. Rows, not
# columns: a row panel is one contiguous block and reads each row of B
# whole, while column panels made every per-k operation strided and slower.
KERNEL_PANEL_ELEMS = 1 << 17

# Elements each part of a threaded stage must have (part_count): the
# kernel's row bands, the oracle's column strips and the seeded matrix
# draw all split work over E elements into min(usable_cores(),
# E // KERNEL_BAND_MIN_ELEMS) parts, at least one, and with one part the
# caller runs it all on its own thread. The floor was set on the kernel: on
# two cores, two bands of 32k-47k elements ran 13-42% faster than one on
# nine of eleven shapes tried (256x363x256 broke even, 256x1200x256 ran
# 11-28% slower); bands of 8k-11k elements ran 24-72% slower, because
# handing the GIL round the per-k ufunc calls cost more than the second core
# saved. Outputs under 2**16 elements stay serial: conv-3..5, and a single
# 128x128 or 192x192 tile (the blocks --auto picks).
KERNEL_BAND_MIN_ELEMS = 1 << 15

# The variables that set how many threads OpenBLAS, OpenMP and MKL run per
# call. The oracle is BLAS-bound, so it splits its strips over threads only
# when these pin BLAS to one thread (blas_pinned). On two cores, fc-6's
# oracle took 0.34 s serial and 0.17 s on two strip threads with BLAS
# pinned; with BLAS's own threads it took 0.25 s serial and 0.34 s on two
# strip threads, which oversubscribed the cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The compiled kernel's source and build flags. -ffp-contract=off keeps
# every multiply and add rounded on its own, never fused into an FMA, and
# there is no -ffast-math (or -Ofast): it reassociates sums, and its start-up
# code turns on flush-to-zero for the whole process. On x86-64 the source
# asks GCC for AVX-512, AVX2 and baseline clones of the kernel, picked at
# load time, so one build runs on any x86-64 CPU.
KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
KERNEL_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float32 C-order array."""
    out = np.ascontiguousarray(a, dtype=DTYPE)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got {out.ndim} dims")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column")
    return out


def _operands(a, b) -> tuple[np.ndarray, np.ndarray]:
    """a and b as float32 matrices (as_matrix) with a's columns as many as
    b's rows."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape[1]} vs {b.shape[0]}")
    return a, b


@dataclass(frozen=True)
class TileGrid:
    """Partition of an m x n result into block_rows x block_cols tiles.

    The inner dimension (depth) is never split: each tile covers the full
    reduction. Padded dimensions are the smallest multiples of the block
    sizes covering the problem.
    """

    m: int
    n: int
    depth: int
    block_rows: int
    block_cols: int
    grid_rows: int
    grid_cols: int
    padded_rows: int
    padded_cols: int

    @property
    def tile_count(self) -> int:
        return self.grid_rows * self.grid_cols

    def tile_coords(self, tile_id: int) -> tuple[int, int]:
        """Map a row-major tile id back to (tile_row, tile_col)."""
        return divmod(tile_id, self.grid_cols)

    def tile_id(self, tile_row: int, tile_col: int) -> int:
        return tile_row * self.grid_cols + tile_col


def partition(m: int, n: int, depth: int, block_rows: int, block_cols: int) -> TileGrid:
    """Split an (m, depth) x (depth, n) product into a tile grid.

    Raises ValueError for non-positive dimensions or block sizes.
    """
    for name, v in (("m", m), ("n", n), ("depth", depth),
                    ("block_rows", block_rows), ("block_cols", block_cols)):
        if int(v) != v or v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v!r}")
    grid_rows = -(-m // block_rows)
    grid_cols = -(-n // block_cols)
    return TileGrid(
        m=m, n=n, depth=depth,
        block_rows=block_rows, block_cols=block_cols,
        grid_rows=grid_rows, grid_cols=grid_cols,
        padded_rows=grid_rows * block_rows,
        padded_cols=grid_cols * block_cols,
    )


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _build(cc: str, path: str) -> None:
    """Compile KERNEL_SOURCE into path: into a temporary file beside it, then
    renamed into place, so no process loads a partly written library. A
    failed build leaves no file behind."""
    import subprocess
    fd, tmp = tempfile.mkstemp(".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        if subprocess.run([cc, *KERNEL_FLAGS, "-o", tmp, KERNEL_SOURCE],
                          stdin=subprocess.DEVNULL, capture_output=True).returncode == 0:
            os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def _library():
    """The compiled kernel's entry point, or None where it cannot be had.

    The library is built on first use into the per-user cache,
    $XDG_CACHE_HOME/masim or else ~/.cache/masim, under a name hashed from
    the source, the flags, the compiler (its resolved path, size and mtime)
    and the machine type, so a cache hit starts no process. A cached file
    that will not load (cut short, or not this kernel) is built again once.
    No cc, a failed build, an unwritable cache or a library that will not
    load after its build gives None, and _k_loop runs its numpy loop.
    """
    import hashlib
    cc = shutil.which("cc")
    if cc is None:
        return None
    try:
        cc = os.path.realpath(cc)
        info = os.stat(cc)
        with open(KERNEL_SOURCE, "rb") as fh:
            key = (fh.read(), KERNEL_FLAGS, cc, info.st_size, info.st_mtime_ns,
                   platform.machine())
        cache = os.path.join(os.environ.get("XDG_CACHE_HOME")
                             or os.path.expanduser("~/.cache"), "masim")
        digest = hashlib.sha256(repr(key).encode()).hexdigest()[:16]
        path = os.path.join(cache, f"kernel-{digest}.so")
        try:
            kernel = ctypes.CDLL(path).masim_k_loop
        except (OSError, AttributeError):   # no such file, or not this kernel
            os.makedirs(cache, mode=0o700, exist_ok=True)
            _build(cc, path)
            kernel = ctypes.CDLL(path).masim_k_loop
    except (OSError, AttributeError):
        return None
    kernel.argtypes = (ctypes.c_void_p,) * 3 + (ctypes.c_long,) * 6
    kernel.restype = ctypes.c_int
    return kernel


def _k_loop(aa: np.ndarray, bb: np.ndarray, out: np.ndarray) -> None:
    """out += aa @ bb, k ascending, for float32 matrices whose rows are
    contiguous: by the compiled kernel when _library() has one, else as one
    rank-1 update per ascending k, one row panel of KERNEL_PANEL_ELEMS
    elements at a time, with a scratch of its own. Both paths give every
    element c = fl(c + fl(a * b)) per k, so they agree bit for bit."""
    kernel = _library()
    if kernel is not None:
        if (any(x.dtype != DTYPE or x.strides[1] != x.itemsize for x in (aa, bb, out))
                or out.shape != (aa.shape[0], bb.shape[1]) or aa.shape[1] != bb.shape[0]):
            raise ValueError("the kernel needs conforming float32 matrices "
                             "with contiguous rows")
        strides = (x.strides[0] // x.itemsize for x in (aa, bb, out))
        if kernel(aa.ctypes.data, bb.ctypes.data, out.ctypes.data,
                  *aa.shape, bb.shape[1], *strides):
            raise MemoryError("no memory for the kernel's packed panel of B")
        return
    n = out.shape[1]
    rows = max(1, KERNEL_PANEL_ELEMS // n)
    scratch = np.empty((min(rows, out.shape[0]), n), out.dtype)
    for r0 in range(0, out.shape[0], rows):
        panel = out[r0: r0 + rows]
        t = scratch[: panel.shape[0]]
        a_panel = aa[r0: r0 + rows]
        for k in range(aa.shape[1]):
            np.multiply.outer(a_panel[:, k], bb[k], out=t)
            np.add(panel, t, out=panel)


def part_count(elements: int) -> int:
    """Parts to split work over `elements` elements into: one per usable
    core, each of at least KERNEL_BAND_MIN_ELEMS elements, and at least one."""
    return max(1, min(usable_cores(), elements // KERNEL_BAND_MIN_ELEMS))


def run_parts(work, parts: int) -> None:
    """work(0), ..., work(parts - 1) at once: the caller runs part 0 and one
    thread each the rest. A worker's exception is re-raised here, and every
    started thread is joined before return."""
    errors = []

    def part(i: int) -> None:
        try:
            work(i)
        except BaseException as exc:    # re-raised in the caller below
            errors.append(exc)

    started = []
    try:
        for i in range(1, parts):
            worker = threading.Thread(target=part, args=(i,))
            worker.start()
            started.append(worker)
        work(0)
    finally:
        for worker in started:
            worker.join()
    if errors:
        raise errors[0]


def blas_pinned() -> bool:
    """Whether the standard thread variables pin BLAS to one thread: at
    least one of BLAS_THREAD_VARS is set, and every one set reads 1."""
    values = [os.environ[v].strip() for v in BLAS_THREAD_VARS if v in os.environ]
    return bool(values) and all(v == "1" for v in values)


def reference_gemm(a, b, out=None) -> np.ndarray:
    """Reference product C[i, j] = sum_k A[i, k] * B[k, j], k ascending.

    This is the accelerator's numerics: each PE accumulates its output
    elements in exactly this order, so the kernel applied to the whole
    matrix, to one tile, or walked cycle by cycle gives the same bits. The
    sum is built as a sequence of rank-1 updates, one per k, so the
    rounding sequence per output element is fully determined: every element
    gets c = fl(c + fl(a[i, k] * b[k, j])) for k = 0, 1, 2, ..., in float32.

    Given out (float32, m x n, contiguous rows), the updates continue its
    sums and it is returned: c is float32 between any two k, so k-slices
    of a product added in ascending order give the whole product's bits.

    The updates run in _k_loop: the compiled kernel, which keeps each 4x64
    block of C in registers across k, or its numpy fallback, which applies
    them one row panel of C at a time (see KERNEL_PANEL_ELEMS). An output
    of at least 2 * KERNEL_BAND_MIN_ELEMS elements is first split into
    min(m, part_count(m * n)) contiguous row bands, each on its own thread
    (ctypes and the numpy ufuncs release the GIL). The library is resolved
    here, on the calling thread, so bands never race to build it. Each
    element belongs to one block (or panel) of one band and sees the same
    updates in the same order, on one thread, as in a whole-matrix pass, so
    the bits depend on neither the path, the panel size nor the band count.
    """
    a, b = _operands(a, b)
    m, n = a.shape[0], b.shape[1]
    if out is None:
        out = np.zeros((m, n), DTYPE)
    elif out.dtype != DTYPE or out.shape != (m, n) or out.strides[1] != out.itemsize:
        raise ValueError(f"out must be a float32 {m}x{n} array with contiguous rows")
    _library()
    bands = min(m, part_count(m * n))
    edges = [m * i // bands for i in range(bands + 1)]

    def band(i: int) -> None:
        rows = slice(edges[i], edges[i + 1])
        _k_loop(a[rows], b, out[rows])

    run_parts(band, bands)
    return out


def add_reference(a, b, ref: np.ndarray, out=None) -> float | None:
    """ref += A @ B in float64, and, given out, the largest element-wise
    relative error of out against the updated ref.

    Each ORACLE_PANEL panel product (B's strip converted to float64 once
    per 512-deep slice of k, A's panel per product) goes into a scratch
    panel and is added into ref, k ascending. So k-slices of a product
    that start at multiples of the panel depth, added into one ref, give
    the whole product's bits. A NaN anywhere in out makes the error NaN.

    When blas_pinned(), part_count(m * n) threads (at most one per strip)
    each take the next untaken 256-column strip as they finish one, so a
    thread that starts late takes fewer; otherwise BLAS runs its own
    threads inside each matmul and one thread walks the strips. The sums
    do not change and the per-part maxima are combined exactly, so the
    result does not depend on the part count or on who took which strip.
    """
    a, b = _operands(a, b)
    m, n = a.shape[0], b.shape[1]
    if ref.dtype != np.float64 or ref.shape != (m, n):
        raise ValueError(f"ref must be a float64 {m}x{n} array")
    if out is not None and out.shape != (m, n):
        raise ValueError(f"out has shape {out.shape}, expected {(m, n)}")
    panel_rows, panel_cols, panel_depth = ORACLE_PANEL
    tiny = np.finfo(np.float64).tiny
    depths = [slice(k0, k0 + panel_depth) for k0 in range(0, a.shape[1], panel_depth)]
    strips = range(0, n, panel_cols)
    parts = min(len(strips), part_count(m * n)) if blas_pinned() else 1
    worst = [np.float64(0.0)] * parts
    untaken = iter(strips)
    lock = threading.Lock()

    def strip_part(p: int) -> None:
        scratch = np.empty((min(panel_rows, m), min(panel_cols, n)))
        while True:
            with lock:
                c0 = next(untaken, None)
            if c0 is None:
                return
            cols = slice(c0, c0 + panel_cols)
            for ks in depths:
                b64 = b[ks, cols].astype(np.float64)
                for r0 in range(0, m, panel_rows):
                    rows = slice(r0, r0 + panel_rows)
                    panel = ref[rows, cols]
                    product = scratch[: panel.shape[0], : panel.shape[1]]
                    np.matmul(a[rows, ks].astype(np.float64), b64, out=product)
                    np.add(panel, product, out=panel)
            if out is None:
                continue
            for r0 in range(0, m, panel_rows):
                panel = ref[r0: r0 + panel_rows, cols]
                err = np.abs(out[r0: r0 + panel_rows, cols] - panel)
                worst[p] = np.maximum(worst[p],
                                      (err / np.maximum(np.abs(panel), tiny)).max())

    run_parts(strip_part, parts)
    # np.maximum, not max(): a NaN from any part must survive
    return None if out is None else float(np.maximum.reduce(worst))


def max_rel_error(a, b, out) -> float:
    """Largest element-wise relative error of out against a float64 product:
    add_reference into a zeroed m x n float64 reference (8 * m * n bytes).
    A NaN anywhere in out makes the result NaN."""
    a, b = _operands(a, b)
    return add_reference(a, b, np.zeros((a.shape[0], b.shape[1])), out)
