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
Goto and van de Geijn's GEMM. Where it cannot be built or loaded, the
same loop runs in numpy, one row panel of the output at a time. Neither
changes any element's order of summation, so the bits depend neither on
the path nor on whether B comes in k-slices added into one output.

max_rel_error is the float64 oracle (_oracle), which walks the output in
256-column strips and B in 512-deep panels per strip, and sums its
reference with the same k-ordered loop in float64 (_ref_loop), in the
compiled library or its numpy path, never in BLAS; verified_output, the
verify loop of `masim run`, walks the same strips with the seeded B,
drawing each panel of B only when its strip needs it and adding it with
the kernel into an output strip of the part's own, which is checked and
then reused for the next strip, so it holds neither B, nor the output,
nor a whole float64 reference, and gives the same bits. The oracle's
strips are the one threaded stage: split sets the part count over the
usable cores, run_parts runs each part on a thread of its own for the
whole loop, and each part takes the next strip from one shared iterator
(an output of one strip is cut into runs of its 128-row panels instead);
the result does not depend on the part count. On one core (taskset -c 0)
every strip is the caller's.

The seeded draw reproduces np.random.default_rng(seed)'s float32 draws
bit for bit without numpy's generator: pcg64_seed is numpy's SeedSequence
hash and PCG64 seeding, and a Stream is the start of the seed's stream.
draw_block fills any block of the draws read as a row-major matrix by the
library's masim_draw_block, whose PCG64 jump-ahead is the package's one,
or, where the library cannot be had, by numpy's PCG64 advanced from the
stream's start to each row; only that path imports numpy.random.

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
import zlib
from dataclasses import dataclass

import numpy as np

from .model import ProblemShape
from .mpe import Machine, block_charges

DTYPE = np.float32

# Output rows, output columns and inner-dimension depth of the oracle's
# (_oracle) panels. Its 256-column output strips are also the verify
# loop's unit of work, handed to the parts one at a time, and each 512-deep
# panel of B is one _ref_loop call per strip; the 128-row panels are the
# error step's, and the parts of an output of one strip. The reference's
# bits depend on none of these: each element is one float64 sum in
# ascending k. Each part allocates one float32 panel of B, a float64 error
# panel and its strip's m x 256 float64 reference once, and in the verify
# loop its m x 256 float32 output strip (1.1 MB in all on fc-6), and takes
# the error in place on the error panel and the spent reference.
ORACLE_PANEL = (128, 256, 512)

# Output elements in one row panel of _k_loop's numpy loop, the fallback
# where the compiled kernel cannot be had, which is
# max(1, KERNEL_PANEL_ELEMS // n) full rows of C (half as many in
# _ref_loop's float64 loop, for the same bytes). A float32 panel and its
# scratch take 1 MB together and stay in a 2 MB per-core L2 across all k;
# the whole fc-6 output and its scratch (4 MB) did not, so every k went to
# L3 (fc-6 2.8 s -> 1.5 s). On one core of a 2-vCPU Xeon (2 MB L2 per
# core) one whole-matrix loop took 1.07x (fc-8) to 2.11x (fc-7) the panels'
# time, medians of 5. 2**16 and 2**18 measured no faster. Rows, not
# columns: a row panel is one contiguous block and reads each row of B
# whole, while column panels made every per-k operation strided and slower.
KERNEL_PANEL_ELEMS = 1 << 17

# Output elements each part of the oracle's strips must have (split): an
# output of E elements is cut into at most min(usable_cores(), E //
# PART_MIN_ELEMS) runs of strips (or of row panels), at least one. The
# floor was measured on the exact kernel's row bands, since removed: on two cores, bands of
# 32k-47k elements ran 13-42% faster than one on nine of eleven shapes,
# and bands of 8k-11k ran 24-72% slower, as handing the GIL round the
# per-k ufunc calls cost more than the second core saved. It is kept for
# the strip parts: outputs under 2**16 elements (conv-3..5) stay serial.
PART_MIN_ELEMS = 1 << 15

# The compiled library's source and build flags. -ffp-contract=off keeps
# every multiply and add of the float32 kernel rounded on its own, never
# fused into an FMA (the float64 reference kernel, whose products are
# exact, opts back in to contraction for itself), and
# there is no -ffast-math (or -Ofast): it reassociates sums, and its start-up
# code turns on flush-to-zero for the whole process. On x86-64 the source
# asks GCC for AVX-512, AVX2 (for the reference, FMA) and baseline clones
# of each kernel, picked at load time, so one build runs on any x86-64 CPU.
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


def _build(cc: str, path: str) -> ctypes.CDLL:
    """Compile KERNEL_SOURCE into a temporary file beside path, load the
    library from there and rename the file into place; returns the library.
    No process loads a partly written file, and this one gets the fresh
    build even after loading a stale file of path's name (loading a name
    again gives back the library already loaded under it). A build or load
    that fails raises OSError or AttributeError, as _load, and leaves no
    file behind."""
    import subprocess
    fd, tmp = tempfile.mkstemp(".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        if subprocess.run([cc, *KERNEL_FLAGS, "-o", tmp, KERNEL_SOURCE],
                          stdin=subprocess.DEVNULL, capture_output=True).returncode:
            raise OSError(f"{cc} could not build {KERNEL_SOURCE}")
        lib = _load(tmp)
        os.replace(tmp, path)
        return lib
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load(path: str) -> ctypes.CDLL:
    """The library at path with its three entry points typed; OSError if it
    will not load, AttributeError if it lacks any."""
    lib = ctypes.CDLL(path)
    for kernel in (lib.masim_k_loop, lib.masim_ref_loop):
        kernel.argtypes = (ctypes.c_void_p,) * 3 + (ctypes.c_long,) * 6
        kernel.restype = ctypes.c_int
    lib.masim_draw_block.argtypes = ((ctypes.c_void_p,) + (ctypes.c_long,) * 5
                                     + (ctypes.c_void_p,))
    lib.masim_draw_block.restype = None
    return lib


@functools.cache
def _library():
    """The compiled library, whose entry points are masim_k_loop (the
    kernel), masim_ref_loop (the oracle's float64 reference) and
    masim_draw_block (the seeded draw), or None where it cannot be had.

    The library is built on first use into the per-user cache,
    $XDG_CACHE_HOME/masim or else ~/.cache/masim, under a name made of the
    zlib CRC-32 and Adler-32 (64 bits) of the source, the flags, the
    compiler (its resolved path, size and mtime) and the machine type, so a
    cache hit starts no process and loads no hashlib (OpenSSL's libcrypto
    added 3.3 MB to fc-6's peak RSS). A cached file that will not load (cut
    short, or not this library: an entry point missing) is built again
    once. No cc, a failed build, an unwritable cache or a library that will
    not load after its build gives None, and _k_loop, _ref_loop and
    draw_block run their numpy paths.
    """
    cc = shutil.which("cc")
    if cc is None:
        return None
    try:
        cc = os.path.realpath(cc)
        info = os.stat(cc)
        with open(KERNEL_SOURCE, "rb") as fh:
            key = repr((fh.read(), KERNEL_FLAGS, cc, info.st_size, info.st_mtime_ns,
                        platform.machine())).encode()
        cache = os.path.join(os.environ.get("XDG_CACHE_HOME")
                             or os.path.expanduser("~/.cache"), "masim")
        name = f"kernel-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so"
        path = os.path.join(cache, name)
        try:
            return _load(path)
        except (OSError, AttributeError):   # no such file, or not this library
            os.makedirs(cache, mode=0o700, exist_ok=True)
            return _build(cc, path)
    except (OSError, AttributeError):
        return None


class Buffers:
    """Arrays that one part of a loop reuses from call to call: take(name,
    shape, dtype) gives a C-order view of the first elements of the one
    array of that name and dtype, grown to the largest size asked of it."""

    def __init__(self):
        self._arrays = {}

    def take(self, name: str, shape: tuple[int, int], dtype) -> np.ndarray:
        size = shape[0] * shape[1]
        key = name, np.dtype(dtype)
        array = self._arrays.get(key)
        if array is None or array.size < size:
            array = self._arrays[key] = np.empty(size, dtype)
        return array[:size].reshape(shape)


def _add_product(aa: np.ndarray, bb: np.ndarray, out: np.ndarray, entry: str,
                 buffers: Buffers | None) -> None:
    """out += aa @ bb, k ascending, for float32 aa and bb and an out of
    float32 (entry "masim_k_loop") or float64 ("masim_ref_loop"), all
    three conforming with contiguous rows: by that entry point of
    _library() when it has one, else by _rank1_loop in buffers (a part's
    own, reused from call to call) or fresh ones."""
    dtype = DTYPE if entry == "masim_k_loop" else np.float64
    if (aa.dtype != DTYPE or bb.dtype != DTYPE or out.dtype != dtype
            or any(x.strides[1] != x.itemsize for x in (aa, bb, out))
            or out.shape != (aa.shape[0], bb.shape[1]) or aa.shape[1] != bb.shape[0]):
        raise ValueError("the kernel needs conforming float32 matrices with "
                         f"contiguous rows, summed into {np.dtype(dtype).name}")
    lib = _library()
    if lib is None:
        _rank1_loop(aa, bb, out, buffers or Buffers())
        return
    strides = (x.strides[0] // x.itemsize for x in (aa, bb, out))
    if getattr(lib, entry)(aa.ctypes.data, bb.ctypes.data, out.ctypes.data,
                           *aa.shape, bb.shape[1], *strides):
        raise MemoryError("no memory for the kernel's packed panels")


def _rank1_loop(aa: np.ndarray, bb: np.ndarray, out: np.ndarray, buffers: Buffers) -> None:
    """out += aa @ bb in out's dtype as one rank-1 update per ascending k,
    one row panel of KERNEL_PANEL_ELEMS float32 elements' bytes at a time.
    A's rows transposed in out's dtype, the product and (for a panel whose
    rows are apart, as a strip of a wider output's are) the panel's sum
    are arrays of buffers, so every per-k operation runs on contiguous
    memory: `masim run --preset fc-6 --auto` without the library took
    4.8-5.4 s on the strided panel and columns and 3.9-4.1 s on these (2
    vCPUs). np.multiply.outer of a float64 column of A and a float32 row of
    B runs in float64, as fast as on a float64 copy of B (30 ms on a
    128 x 512 x 256 panel either way), and its products are exact."""
    n, depth = out.shape[1], aa.shape[1]
    rows = max(1, KERNEL_PANEL_ELEMS * DTYPE().itemsize // (out.itemsize * n))
    for r0 in range(0, out.shape[0], rows):
        dest = out[r0: r0 + rows]
        panel = dest
        if not dest.flags.c_contiguous:
            panel = buffers.take("panel", dest.shape, out.dtype)
            np.copyto(panel, dest)
        t = buffers.take("product", dest.shape, out.dtype)
        a_cols = buffers.take("a", (depth, dest.shape[0]), out.dtype)
        np.copyto(a_cols, aa[r0: r0 + rows].T)
        for k in range(depth):
            np.multiply.outer(a_cols[k], bb[k], out=t)
            np.add(panel, t, out=panel)
        if panel is not dest:
            np.copyto(dest, panel)


def _k_loop(aa: np.ndarray, bb: np.ndarray, out: np.ndarray,
            buffers: Buffers | None = None) -> None:
    """out += aa @ bb, k ascending, for float32 matrices whose rows are
    contiguous (_add_product): by the compiled kernel, or by the numpy
    loop. Both give every element c = fl(c + fl(a * b)) per k, so they
    agree bit for bit, and since c is float32 between any two k, k-slices
    of a product added in ascending order into one out give the whole
    product's bits."""
    _add_product(aa, bb, out, "masim_k_loop", buffers)


def _ref_loop(aa: np.ndarray, bb: np.ndarray, ref: np.ndarray, buffers: Buffers) -> None:
    """ref += aa @ bb in float64, k ascending, for float32 aa and bb and a
    float64 ref (_add_product): by the library's masim_ref_loop, or by the
    numpy loop in float64. A float32 product is exact in float64, so every
    element gets r = fl(r + a * b) per k in either path, fused or not, and
    the bits depend on the operands and the order of k only: not on BLAS,
    which neither path calls, nor on how the 256-column strips, the k
    panels or the rows are cut."""
    _add_product(aa, bb, ref, "masim_ref_loop", buffers)


def split(length: int, elements: int, align: int = 1) -> list[int]:
    """Cut points 0, ..., length, strictly increasing, that split work over
    `length` rows, columns or elements touching `elements` elements into
    parts: one per usable core, each of at least PART_MIN_ELEMS elements,
    at most ceil(length / align), and at least one. Every inner cut is a
    multiple of align."""
    units = -(-length // align)
    parts = max(1, min(units, usable_cores(), elements // PART_MIN_ELEMS))
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


def reference_gemm(a, b) -> np.ndarray:
    """Reference product C[i, j] = sum_k A[i, k] * B[k, j], k ascending.

    This is the accelerator's numerics: each PE accumulates its output
    elements in exactly this order, so the kernel applied to the whole
    matrix, to one tile, or walked cycle by cycle gives the same bits. The
    sum is built as a sequence of rank-1 updates, one per k, so the
    rounding sequence per output element is fully determined: every element
    gets c = fl(c + fl(a[i, k] * b[k, j])) for k = 0, 1, 2, ..., in float32.

    The updates run in one _k_loop call on the calling thread: the compiled
    kernel, which keeps each 4x64 block of C in registers across k, or its
    numpy fallback, which applies them one row panel of C at a time (see
    KERNEL_PANEL_ELEMS). Each element sees the same updates in the same
    order in either, so the bits depend on neither the path nor the panel
    size.
    """
    a, b = _operands(a, b)
    out = np.zeros((a.shape[0], b.shape[1]), DTYPE)
    _k_loop(a, b, out)
    return out


def _oracle(a: np.ndarray, n: int, b_panel, out: np.ndarray | None = None) -> float:
    """The largest element-wise relative error of an m x n float32 output
    against the float64 product of a (m x depth) and B, whose panels
    b_panel(rows, ks, cols, buffer, strip, buffers) gives: B[ks, cols] as
    float32 with contiguous rows, for which it may fill buffer, a float32
    array of that shape of the calling part's own, and use the part's
    buffers (a Buffers). The output is out, a caller's whole output, or,
    when out is None, one that b_panel adds up strip by strip: each part
    then holds one float32 output strip of its own (m x 256, or its rows of
    a one-strip output), zeroes it for each strip and hands it to b_panel
    as strip, into which b_panel adds the panel's product. With out given,
    strip is out[rows, cols]. A NaN anywhere in the output makes the error
    NaN.

    Each 256-column strip of the output is walked by itself. For each
    512-deep panel of B, k ascending, _ref_loop adds the panel's product
    into the strip's float64 reference (m x 256, or the part's rows of it);
    once its last panel is in, the strip's error is taken against the
    output strip, one 128-row panel at a time, in place on an error panel
    and the spent reference.

    split(n, m * n, 256) sets the part count, and each part takes the next
    strip from one shared iterator whenever it is done with its last, so a
    part on a slower core takes fewer strips. An output of one strip (n <=
    256) is cut by split(m, m * n, 128) into runs of 128-row panels
    instead, each part walking the strip on its rows. Every reference
    element is one float64 sum in ascending k whatever the cut, and the
    per-part maxima are combined exactly, so the result depends on neither
    the part count nor which part takes which strip, nor on BLAS, which no
    part calls.
    """
    m, depth = a.shape
    panel_rows, panel_cols, panel_depth = ORACLE_PANEL
    tiny = np.finfo(np.float64).tiny

    def strips(rows: slice, starts) -> np.float64:
        worst = np.float64(0.0)
        height = rows.stop - rows.start
        ref = np.empty((height, min(panel_cols, n)))
        err = np.empty((min(panel_rows, height), min(panel_cols, n)))
        buffer = np.empty((min(panel_depth, depth), min(panel_cols, n)), np.float32)
        buffers = Buffers()
        for c0 in starts:
            cols = slice(c0, min(c0 + panel_cols, n))
            strip = ref[:, : cols.stop - c0]
            strip.fill(0.0)
            if out is None:
                got = buffers.take("output", strip.shape, DTYPE)
                got.fill(0.0)
            else:
                got = out[rows, cols]
            for k0 in range(0, depth, panel_depth):
                ks = slice(k0, min(k0 + panel_depth, depth))
                b32 = b_panel(rows, ks, cols, buffer[: ks.stop - k0, : cols.stop - c0],
                              got, buffers)
                _ref_loop(a[rows, ks], b32, strip, buffers)
            # the error in place: |got - ref| / max(|ref|, tiny) per panel,
            # the strip's reference being spent once its error is taken
            for r0 in range(0, height, panel_rows):
                panel = strip[r0: r0 + panel_rows]
                e = err[: panel.shape[0], : panel.shape[1]]
                np.subtract(got[r0: r0 + panel_rows], panel, out=e)
                np.abs(e, out=e)
                np.abs(panel, out=panel)
                np.maximum(panel, tiny, out=panel)
                np.divide(e, panel, out=e)
                worst = np.maximum(worst, e.max())
        return worst

    if n <= panel_cols:     # one strip: its row panels are the parts
        edges = split(m, m * n, panel_rows)
        results = run_parts(lambda lo, hi: strips(slice(lo, hi), [0]), edges)
    else:
        lock = threading.Lock()
        starts = iter(range(0, n, panel_cols))

        def claimed():
            """The shared strips, each to the first part that asks."""
            while True:
                with lock:
                    c0 = next(starts, None)
                if c0 is None:
                    return
                yield c0

        edges = split(n, m * n, panel_cols)
        results = run_parts(lambda lo, hi: strips(slice(0, m), claimed()), edges)
    # np.maximum, not max(): a NaN from any part must survive
    return float(np.maximum.reduce(results))


def max_rel_error(a, b, out) -> float:
    """Largest element-wise relative error of out against a float64
    product: the oracle (_oracle) over the given B. A NaN anywhere in out
    makes the result NaN."""
    a, b = _operands(a, b)
    if out.shape != (a.shape[0], b.shape[1]):
        raise ValueError(f"out has shape {out.shape}, expected {(a.shape[0], b.shape[1])}")
    return _oracle(a, out.shape[1],
                   lambda rows, ks, cols, buffer, strip, buffers: b[ks, cols], out)


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
    state = (inc + initstate) & M128        # one LCG step from 0, plus initstate
    return (state * PCG64_MULT + inc) & M128, inc


@dataclass(frozen=True)
class Stream:
    """The start of np.random.default_rng(seed)'s float32 draws, as
    pcg64_seed gives it: the PCG64 state and increment."""

    state: int
    inc: int


def draw_block(stream: Stream, first: int, width: int, out: np.ndarray) -> np.ndarray:
    """Fill out (float32, rows x cols, its rows contiguous) with a block of
    stream's float32 draws read as a row-major matrix of width columns, and
    return it: row r is draws first + r * width, ..., first + r * width +
    cols - 1, bit for bit those of np.random.default_rng(seed).random(...,
    dtype=np.float32), which makes each 64-bit PCG64 output two draws, its
    low 32-bit half and then its high one.

    By the compiled masim_draw_block when _library() has one, which jumps
    to the block's first row and then from each row's state to the next,
    and steps four rows' states at once, so that their 128-bit LCG steps
    overlap (fc-6's 288 panels of B took 0.034-0.038 s on one thread,
    0.074-0.079 s one row at a time). Else each row is drawn by numpy's
    PCG64 set to the stream's start and advanced to the row's first output
    (a row that starts at an odd draw draws one more and drops the first),
    the one place a run imports numpy.random. Either way a block costs no
    draw outside it."""
    if out.ndim != 2 or out.dtype != np.float32 or out.strides[1] != out.itemsize:
        raise ValueError("out must be a float32 matrix with contiguous rows")
    rows, cols = out.shape
    lib = _library()
    if lib is not None:
        st = (ctypes.c_uint64 * 4)(stream.state & M64, stream.state >> 64,
                                   stream.inc & M64, stream.inc >> 64)
        lib.masim_draw_block(out.ctypes.data, out.strides[0] // out.itemsize,
                             rows, cols, width, first, st)
        return out
    from numpy.random import PCG64, Generator
    gen = PCG64(0)
    random = Generator(gen).random
    start = {"bit_generator": "PCG64",
             "state": {"state": stream.state, "inc": stream.inc},
             "has_uint32": 0, "uinteger": 0}
    scratch = np.empty(cols + 1, np.float32)
    for r, e in enumerate(range(first, first + rows * width, width)):
        gen.state = start
        gen.advance(e // 2)
        odd = e & 1
        out[r] = random(out=scratch[: cols + odd], dtype=np.float32)[odd:]
    return out


def draw_matrix(stream: Stream, rows: int, cols: int) -> np.ndarray:
    """The stream's first rows x cols float32 draws as a matrix (the seeded
    A), bit for bit np.random.default_rng(seed).random((rows, cols),
    dtype=np.float32), drawn by draw_block on the calling thread."""
    return draw_block(stream, 0, cols, np.empty((rows, cols), np.float32))


def verified_output(shape: ProblemShape, seed: int) -> float:
    """The largest relative error of the run's output on the seeded
    matrices, max_rel_error's of the whole-matrix reference_gemm bit for
    bit, without ever holding B, the output or a whole float64 reference.

    A, the seed's first m * depth draws, is drawn whole (draw_matrix) on
    the calling thread before the oracle starts its parts, so the compiled
    library is resolved (and if need be built) by one thread only; B
    follows A in the stream. The oracle's walk (_oracle) fetches each
    512 x 256 panel of B in turn, strip by strip and k ascending within a
    strip: the part walking the strip draws the panel into its own buffer
    (draw_block) and adds it into its float32 output strip with the kernel
    (_k_loop, in the part's buffers when it has no library), which
    continues each element's k-ordered sum as float32, before the oracle
    adds the same panel into the strip's float64 reference (_ref_loop).
    The part zeroes its output strip for each strip it takes and reuses it
    once the strip's error is taken. It holds A and, per part, one float32
    panel of B, an error panel, a 256-column strip of the reference and one
    of the output; the parts are the oracle's, one thread each for the
    whole loop. Parts that split the rows of a one-strip output each draw
    the strip's panels of B."""
    stream = Stream(*pcg64_seed(seed))
    m, depth, n = shape.m, shape.depth, shape.n
    a = draw_matrix(stream, m, depth)

    def b_panel(rows: slice, ks: slice, cols: slice, buffer: np.ndarray,
                strip: np.ndarray, buffers: Buffers) -> np.ndarray:
        draw_block(stream, m * depth + ks.start * n + cols.start, n, buffer)
        _k_loop(a[rows, ks], buffer, strip, buffers)
        return buffer

    return _oracle(a, n, b_panel)


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
