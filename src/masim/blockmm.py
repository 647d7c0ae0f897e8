"""The numerics, the one module that touches matrix data or imports numpy:
the k-ordered GEMM kernel, the float64 oracle, the seeded draw and verify
loop of `masim run`, and the cycle-level PE walk.

Element data and accumulation are float32 throughout. reference_gemm is
the one k-ordered accumulation kernel: the inner dimension is summed in
strictly ascending k order, so the whole-matrix product, the kernel on
one tile's slices of A and B, and the cycle-level PE walk (trace_block)
all round identically and agree bit for bit. Its inner loop is a small C
kernel in the library shipped beside this module (_kernel.c), compiled
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
reference; verified_output streams B's k-slices through both with the
same bits. When BLAS is pinned to one thread per call, the oracle splits
its 256-column panel strips over the usable cores, and its result does
not depend on the core count either. Every threaded stage (the kernel's
row bands, the oracle's runs of strips and the seeded matrix draw,
draw_matrix) cuts its work with the one rule, split, and hands the parts
to the one runner, run_parts, which returns their results in part order;
a process limited to one core (taskset -c 0) runs all of them on the
calling thread.

The seeded draw reproduces np.random.default_rng(seed)'s float32 draws
bit for bit without numpy's generator: pcg64_seed is numpy's SeedSequence
hash and PCG64 seeding, _advance is PCG64's jump-ahead, and a Stream is
the position in the seed's stream. Each chunk of a draw is filled by the
library's masim_draw or, where the library cannot be had, by numpy's
PCG64 set to the chunk's state; only that path imports numpy.random.

trace_block ties the timing to the numerics: it walks one block cycle by
cycle on one array of an mpe.Machine, checks the walk against
mpe.block_charges, and returns the same bits as reference_gemm on the
block, because both apply the same float32 multiply-add sequence per
output element.
"""

from __future__ import annotations

import ctypes
import functools
import operator
import os
import platform
import shutil
import tempfile
import threading
from dataclasses import dataclass

import numpy as np

from .model import ProblemShape
from .mpe import Machine, block_charges

DTYPE = np.float32

# Output rows, output columns and inner-dimension depth of one
# add_reference step. The panel shapes and the strip starts (multiples of
# 256 columns) fix the reference's bits: each panel product is one dgemm
# call, whose rounding depends on its shape, so no split of the work over
# threads may move them. Each thread holds a panel of A, a strip of B and
# a scratch panel in float64, 1.8 MB at most, besides the m x n reference.
# 128x256x512 measured faster (0.26 s vs 0.56 s on fc-6) than 32x64 panels
# over the full depth; converting A's slice whole, not per panel, was
# slower (conv-3's oracle 8 ms -> 13 ms, for its fresh pages).
ORACLE_PANEL = (128, 256, 512)

# Bytes in one k-slice of B (build_matrices): its depth is the largest
# multiple of the oracle's 512-deep panel that fits, one panel at least, so
# fc-6 and fc-7 take 1024-deep slices and the other presets one slice.
# Each slice costs a hand-off to the draw's, the kernel's and the oracle's
# threads: on 2 vCPUs fc-8's check took 0.048 s in 512-deep slices and
# 0.039 s in one, and fc-6's 0.240 s in 512-deep, 0.235 s in 1024-deep
# and 0.267 s in one (medians of 12). Each doubling of the slice adds
# 16 MB to fc-6's 71 MB peak.
B_SLICE_BYTES = 16 << 20

# Output elements in one row panel of _k_loop's numpy loop, the fallback
# where the compiled kernel cannot be had, which is
# max(1, KERNEL_PANEL_ELEMS // n) full rows of C. A float32 panel and its
# scratch take 1 MB together and stay in a 2 MB per-core L2 across all k;
# the whole fc-6 output and its scratch (4 MB) did not, so every k went to
# L3 (fc-6 2.8 s -> 1.5 s). On one core of a 2-vCPU Xeon (2 MB L2 per
# core) one whole-matrix loop took 1.07x (fc-8) to 2.11x (fc-7) the panels'
# time, medians of 5. 2**16 and 2**18 measured no faster. Rows, not
# columns: a row panel is one contiguous block and reads each row of B
# whole, while column panels made every per-k operation strided and slower.
KERNEL_PANEL_ELEMS = 1 << 17

# Elements each part of a threaded stage must have (split): the kernel's
# row bands, the oracle's runs of column strips and the seeded matrix draw
# all cut work over E elements into contiguous parts, at most
# min(usable_cores(), E // KERNEL_BAND_MIN_ELEMS), at least one, and with
# one part the caller runs it all on its own thread. The floor was set on
# the kernel: on two cores, two bands of 32k-47k elements ran 13-42% faster
# than one on nine of eleven shapes tried (256x363x256 broke even,
# 256x1200x256 ran 11-28% slower); bands of 8k-11k elements ran 24-72%
# slower, because handing the GIL round the per-k ufunc calls cost more
# than the second core saved. Outputs under 2**16 elements stay serial, conv-3..5 among them.
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


def _load(path: str) -> ctypes.CDLL:
    """The library at path with both entry points typed; OSError if it will
    not load, AttributeError if it lacks either."""
    lib = ctypes.CDLL(path)
    lib.masim_k_loop.argtypes = (ctypes.c_void_p,) * 3 + (ctypes.c_long,) * 6
    lib.masim_k_loop.restype = ctypes.c_int
    lib.masim_draw.argtypes = (ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p)
    lib.masim_draw.restype = None
    return lib


@functools.cache
def _library():
    """The compiled library, whose entry points are masim_k_loop (the
    kernel) and masim_draw (the seeded draw's fill), or None where it
    cannot be had.

    The library is built on first use into the per-user cache,
    $XDG_CACHE_HOME/masim or else ~/.cache/masim, under a name hashed from
    the source, the flags, the compiler (its resolved path, size and mtime)
    and the machine type, so a cache hit starts no process. A cached file
    that will not load (cut short, or not this library: either entry point
    missing) is built again once. No cc, a failed build, an unwritable
    cache or a library that will not load after its build gives None, and
    _k_loop and _fill run their numpy paths.
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
            return _load(path)
        except (OSError, AttributeError):   # no such file, or not this library
            os.makedirs(cache, mode=0o700, exist_ok=True)
            _build(cc, path)
            return _load(path)
    except (OSError, AttributeError):
        return None


def _k_loop(aa: np.ndarray, bb: np.ndarray, out: np.ndarray) -> None:
    """out += aa @ bb, k ascending, for float32 matrices whose rows are
    contiguous: by the compiled kernel when _library() has one, else as one
    rank-1 update per ascending k, one row panel of KERNEL_PANEL_ELEMS
    elements at a time, with a scratch of its own. Both paths give every
    element c = fl(c + fl(a * b)) per k, so they agree bit for bit."""
    lib = _library()
    if lib is not None:
        if (any(x.dtype != DTYPE or x.strides[1] != x.itemsize for x in (aa, bb, out))
                or out.shape != (aa.shape[0], bb.shape[1]) or aa.shape[1] != bb.shape[0]):
            raise ValueError("the kernel needs conforming float32 matrices "
                             "with contiguous rows")
        strides = (x.strides[0] // x.itemsize for x in (aa, bb, out))
        if lib.masim_k_loop(aa.ctypes.data, bb.ctypes.data, out.ctypes.data,
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


def split(length: int, elements: int, align: int = 1) -> list[int]:
    """Cut points 0, ..., length, strictly increasing, that split work over
    `length` rows, columns or elements touching `elements` elements into
    parts: one per usable core, each of at least KERNEL_BAND_MIN_ELEMS
    elements, at most ceil(length / align), and at least one. Every inner
    cut is a multiple of align."""
    units = -(-length // align)
    parts = max(1, min(units, usable_cores(), elements // KERNEL_BAND_MIN_ELEMS))
    return [align * (units * i // parts) for i in range(parts)] + [length]


def run_parts(work, edges: list[int]) -> list:
    """[work(lo, hi) for each pair of neighbouring cut points], at once: the
    caller runs the first part and one thread each the rest. A worker's
    exception is re-raised here, and every started thread is joined before
    return."""
    results = [None] * (len(edges) - 1)
    errors = []

    def part(i: int) -> None:
        try:
            results[i] = work(edges[i], edges[i + 1])
        except BaseException as exc:    # re-raised in the caller below
            errors.append(exc)

    started = []
    try:
        for i in range(1, len(results)):
            worker = threading.Thread(target=part, args=(i,))
            worker.start()
            started.append(worker)
        results[0] = work(edges[0], edges[1])
    finally:
        for worker in started:
            worker.join()
    if errors:
        raise errors[0]
    return results


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
    of at least 2 * KERNEL_BAND_MIN_ELEMS elements is first cut into the
    contiguous row bands of split(m, m * n), each on its own thread
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
    run_parts(lambda lo, hi: _k_loop(a[lo:hi], b, out[lo:hi]), split(m, m * n))
    return out


def add_reference(a, b, ref: np.ndarray, out=None) -> float | None:
    """ref += A @ B in float64, and, given out, the largest element-wise
    relative error of out against the updated ref.

    Each ORACLE_PANEL panel product (B's strip converted to float64 once
    per 512-deep slice of k, A's panel per product) goes into a scratch
    panel and is added into ref, k ascending. So k-slices of a product
    that start at multiples of the panel depth, added into one ref, give
    the whole product's bits. A NaN anywhere in out makes the error NaN.

    When blas_pinned(), the columns are cut by split(n, m * n, 256) into
    contiguous runs of whole strips, and each part walks its own run on
    its own thread; otherwise BLAS runs its own threads inside each matmul
    and one part walks all the strips. The panels and their sums do not
    change and the per-part maxima are combined exactly, so the result
    does not depend on the part count. It can depend on BLAS's own thread
    count, which may change a panel product's last bits.
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
    edges = split(n, m * n, panel_cols) if blas_pinned() else [0, n]

    def strips(lo: int, hi: int) -> np.float64:
        worst = np.float64(0.0)
        scratch = np.empty((min(panel_rows, m), min(panel_cols, n)))
        for c0 in range(lo, hi, panel_cols):
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
                worst = np.maximum(worst, (err / np.maximum(np.abs(panel), tiny)).max())
        return worst

    worst = run_parts(strips, edges)
    # np.maximum, not max(): a NaN from any part must survive
    return None if out is None else float(np.maximum.reduce(worst))


def max_rel_error(a, b, out) -> float:
    """Largest element-wise relative error of out against a float64 product:
    add_reference into a zeroed m x n float64 reference (8 * m * n bytes).
    A NaN anywhere in out makes the result NaN."""
    a, b = _operands(a, b)
    return add_reference(a, b, np.zeros((a.shape[0], b.shape[1])), out)


# PCG64, the generator behind np.random.default_rng: a 128-bit LCG,
# state = state * PCG64_MULT + inc, whose XSL-RR output is 64 bits (O'Neill,
# "PCG", HMC-CS-2014-0905, 2014), seeded by numpy's SeedSequence hash.
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def pcg64_seed(seed: int) -> tuple[int, int]:
    """(state, inc) of np.random.default_rng(seed)'s PCG64, for an int seed
    of at least 0: the seed's little-endian 32-bit words hashed into a
    4-word pool by numpy's SeedSequence, generate_state(4, uint64) of the
    pool, then PCG64's seeding from its (initstate, initseq) words."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed >> s & M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & M32
        value = value * hash_const & M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & M32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    halves = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & M32
        value = value * hash_const & M32
        halves.append(value ^ value >> 16)
    u64 = [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]
    initstate, initseq = u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]
    inc = (initseq << 1 | 1) & M128
    state = (_advance(0, inc, 1) + initstate) & M128
    return _advance(state, inc, 1), inc


def _advance(state: int, inc: int, delta: int) -> int:
    """The PCG64 state delta steps on, as PCG64.advance(delta) leaves it:
    the LCG's delta-th power by square and multiply (Brown, "Random number
    generation with arbitrary strides", 1994)."""
    mult, plus, acc_mult, acc_plus = PCG64_MULT, inc, 1, 0
    while delta:
        if delta & 1:
            acc_mult = acc_mult * mult & M128
            acc_plus = (acc_plus * mult + plus) & M128
        plus = (mult + 1) * plus & M128
        mult = mult * mult & M128
        delta >>= 1
    return (acc_mult * state + acc_plus) & M128


@dataclass
class Stream:
    """Where np.random.default_rng(seed) stands in its float32 draws: the
    PCG64 state and increment, and the high 32-bit half of the last 64-bit
    output when a draw of odd size left it for the next (numpy's uinteger
    while has_uint32), else None."""

    state: int
    inc: int
    half: int | None = None


def _fill(out: np.ndarray, state: int, inc: int) -> tuple[int, int | None]:
    """Draw out (a contiguous float32 vector) from PCG64 state as
    Generator.random(dtype=np.float32) does, each 64-bit output giving
    two floats (its 32-bit halves, low first, as (half >> 8) * 2**-24);
    returns the state after the last output and, for an odd size, that
    output's undrawn high half, else None. By the compiled masim_draw
    when _library() has one, else by numpy's PCG64 set to the state, the
    one place a run imports numpy.random."""
    lib = _library()
    if lib is not None:
        st = (ctypes.c_uint64 * 5)(state & M64, state >> 64, inc & M64, inc >> 64, 0)
        lib.masim_draw(out.ctypes.data, out.size, st)
        return st[1] << 64 | st[0], st[4] if out.size % 2 else None
    from numpy.random import PCG64, Generator
    gen = PCG64(0)
    gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                 "has_uint32": 0, "uinteger": 0}
    Generator(gen).random(out=out, dtype=np.float32)
    after = gen.state
    return after["state"]["state"], after["uinteger"] if after["has_uint32"] else None


def draw_matrix(stream: Stream, rows: int, cols: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """The next rows x cols float32 draw of stream, bit for bit
    np.random.default_rng(seed).random((rows, cols), dtype=np.float32) at
    the same point of the seed's stream, into out (a C-contiguous float32
    rows x cols array) when given; stream is left where the serial draw
    leaves numpy's generator.

    A half left buffered by an odd-sized earlier draw is the first
    element. The rest is drawn in the contiguous chunks of
    split(size, size, 2) at once, each by _fill from the state advanced by
    its even element offset over two; the last chunk ends where the serial
    draw ends, and buffers its last output's high half if its size is odd.
    """
    if out is None:
        out = np.empty((rows, cols), np.float32)
    elif out.shape != (rows, cols) or out.dtype != np.float32 \
            or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float32 {rows}x{cols} array")
    flat = out.reshape(-1)
    if stream.half is not None:
        flat[0] = (stream.half >> 8) * 2.0 ** -24
        stream.half = None
        flat = flat[1:]
    start, inc = stream.state, stream.inc
    _library()      # resolved here, so chunks never race to build it
    stream.state, stream.half = run_parts(
        lambda lo, hi: _fill(flat[lo:hi], _advance(start, inc, lo // 2), inc),
        split(flat.size, flat.size, 2))[-1]
    return out


def build_matrices(shape: ProblemShape, seed: int):
    """The seeded A, and an iterator of (ks, B[ks]) over B's k-slices (see
    B_SLICE_BYTES), each drawn into one reused buffer, so valid until the
    next is drawn. B's rows are contiguous in the seed's stream, so
    these are np.random.default_rng(seed)'s serial draws of A and B, bit
    for bit."""
    stream = Stream(*pcg64_seed(seed))
    a = draw_matrix(stream, shape.m, shape.depth)
    panel = ORACLE_PANEL[2]
    step = max(panel, B_SLICE_BYTES // (4 * shape.n) // panel * panel)

    def b_slices():
        buffer = np.empty((min(step, shape.depth), shape.n), np.float32)
        for k0 in range(0, shape.depth, step):
            ks = slice(k0, min(k0 + step, shape.depth))
            depth = ks.stop - k0
            yield ks, draw_matrix(stream, depth, shape.n, out=buffer[:depth])

    return a, b_slices()


def verified_output(shape: ProblemShape, seed: int):
    """The run's output on the seeded matrices and its largest relative
    error: each k-slice of B is added into the output by reference_gemm
    and into the float64 reference by add_reference, which takes the error
    on the last slice. The slices start at multiples of the oracle's panel
    depth, so the output and the error are the whole-matrix reference_gemm's
    and max_rel_error's. It holds A, the output, its reference
    (8 * m * n bytes) and one slice."""
    a, b_slices = build_matrices(shape, seed)
    out = np.zeros((shape.m, shape.n), np.float32)
    ref = np.zeros((shape.m, shape.n))
    rel = None
    for ks, b in b_slices:
        a_slice = np.ascontiguousarray(a[:, ks])
        reference_gemm(a_slice, b, out)
        rel = add_reference(a_slice, b, ref, out if ks.stop == shape.depth else None)
    return out, rel


@dataclass
class PeState:
    """Architectural state of one PE in the cycle-accurate walk."""

    pid: int
    ra_active: tuple[float, int] | None = None   # (value, column index)
    ra_shadow: tuple[float, int] | None = None
    mc: np.ndarray | None = None
    reuse_this_iter: int = 0


@dataclass(frozen=True)
class TraceEvent:
    cycle: int
    kind: str
    block: int
    pe: int = -1
    k: int = -1


def trace_block(sa, sb, machine: Machine, *, block_id: int = 0
                ) -> tuple[np.ndarray, list[TraceEvent], list[PeState]]:
    """Cycle-by-cycle walk of one block sa @ sb on one array of the machine.

    Returns the block's tile, the events of the walk and the final PE
    states. The geometry comes from the operand shapes: sa is block_rows x
    depth and sb depth x block_cols. Raises InfeasibleBlockError unless the
    machine can run the block on one array.

    Independent of the kernel's whole-iteration updates: A elements
    hop PE to PE down the chain one stage per cycle (the column enters the
    chain in reverse element order, so every PE latches its element on the
    same cycle), the shadow register is checked against overwrite while
    the active value is still in use, and per-iteration reuse of the
    latched value is counted. Raises AssertionError if any architectural
    invariant breaks, among them a walk whose cycles or stalls disagree
    with block_charges. The B-row stream is modelled at its issue cycle;
    the per-PE skew of that stream is part of the pipeline constant.
    """
    sa, sb = _operands(sa, sb)
    (si, k_depth), sj = sa.shape, sb.shape[1]
    machine.check(1, si, sj)

    pes = [PeState(pid=p, mc=np.zeros(sj, DTYPE)) for p in range(si)]
    events: list[TraceEvent] = []
    cycle = 0
    stalls = 0
    flights: list[tuple[int, int]] = []   # (target PE, entry cycle) in the chain

    def hop(col: int, into: str, c: int):
        """Load cycle c of column col: element si - c enters the chain, each
        element moves one PE, and one that reaches its target latches there."""
        flights.append((si - c, c))
        for target, entered in list(flights):
            pos = c - entered
            if not 0 <= pos < si:
                raise AssertionError("A element fell off the chain")
            if pos == target:
                pe = pes[pos]
                if into == "active":
                    pe.ra_active = (sa[pos, col], col)
                else:
                    if pe.ra_shadow is not None:
                        raise AssertionError(f"PE {pe.pid} shadow overwritten before swap")
                    pe.ra_shadow = (sa[pos, col], col)
                events.append(TraceEvent(cycle, "a_latch", block_id, pos, col))
                flights.remove((target, entered))

    # Prefetch: column 0 into the active registers.
    for c in range(1, si + 1):
        cycle += 1
        hop(0, "active", c)
    for pe in pes:
        if pe.ra_active is None or pe.ra_active[1] != 0:
            raise AssertionError(f"PE {pe.pid} missed its prefetch latch")
        if pe.ra_active[0] != sa[pe.pid, 0]:
            raise AssertionError(f"PE {pe.pid} latched the wrong element")
    events.append(TraceEvent(cycle, "prefetch_done", block_id))

    iter_len = max(si, sj)
    ra_vec = np.empty(si, DTYPE)
    for k in range(k_depth):
        for p, pe in enumerate(pes):
            if pe.ra_active[1] != k:
                raise AssertionError(
                    f"PE {p} entered iteration {k} holding column {pe.ra_active[1]}")
            ra_vec[p] = pe.ra_active[0]
            pe.reuse_this_iter = 0
        for c in range(1, iter_len + 1):
            cycle += 1
            if c <= sj:
                bval = sb[k, c - 1]
                events.append(TraceEvent(cycle, "b_issue", block_id, -1, k))
                for pe in pes:
                    pe.mc[c - 1] += ra_vec[pe.pid] * bval
                    pe.reuse_this_iter += 1
            else:
                stalls += 1
                events.append(TraceEvent(cycle, "psu_stall", block_id, -1, k))
            if k + 1 < k_depth and c <= si:
                hop(k + 1, "shadow", c)
        for pe in pes:
            if pe.reuse_this_iter != sj:
                raise AssertionError(
                    f"PE {pe.pid} reused its register {pe.reuse_this_iter} "
                    f"times in iteration {k}, expected {sj}")
            if k + 1 < k_depth:
                if pe.ra_shadow is None or pe.ra_shadow[1] != k + 1:
                    raise AssertionError(f"PE {pe.pid} shadow not ready at swap")
                pe.ra_active = pe.ra_shadow
                pe.ra_shadow = None
        if k + 1 < k_depth:
            events.append(TraceEvent(cycle, "swap", block_id, -1, k + 1))

    for _ in range(machine.fmac_stages):
        cycle += 1
        events.append(TraceEvent(cycle, "flush", block_id))

    charges = block_charges(si, sj, k_depth, machine)
    if cycle != charges.cycles:
        raise AssertionError(f"trace walked {cycle} cycles, contract says {charges.cycles}")
    if stalls != charges.stall_cycles:
        raise AssertionError(
            f"trace stalled {stalls} cycles, contract says {charges.stall_cycles}")

    events.append(TraceEvent(cycle + charges.drain_cycles, "drain_done", block_id))

    return np.stack([pe.mc for pe in pes]), events, pes
