import hashlib
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from conftest import (BLAS_THREAD_VARS, SRC, assemble_strips, needs_cc, seeded_matrices,
                      tile_slices)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import masim
from masim import blockmm


def rand(rng, r, c):
    return rng.random((r, c), dtype=np.float32)


class TestPartition:
    """The one tile rule, ProblemShape.tile_count, which the model's work
    per array and the simulator's deal both use, and the checks on the
    shape and the design point it cuts by."""

    def test_conv1_shape(self):
        # one row of 24 tiles over conv-1's 96 x 3025 output
        assert masim.ProblemShape(96, 363, 3025).tile_count(128, 128) == 24
        assert tile_slices(96, 3025, 128, 128)[23] == (slice(0, 128), slice(2944, 3072))

    def test_exact_fit(self):
        assert masim.ProblemShape(128, 128, 128).tile_count(128, 128) == 1

    def test_ragged(self):
        # 3 x 2 tiles, row-major; the last one is cut short to 2 x 36
        assert masim.ProblemShape(130, 50, 100).tile_count(64, 64) == 6
        rows, cols = tile_slices(130, 100, 64, 64)[5]
        assert np.empty((130, 100))[rows, cols].shape == (2, 36)

    @pytest.mark.parametrize("bad", [
        dict(m=0), dict(n=-1), dict(depth=0), dict(block_rows=0), dict(block_cols=-2),
        dict(m=2.0), dict(block_rows=True),
    ])
    def test_rejects_nonpositive(self, bad):
        # such a problem or point cannot be built, so it never reaches run_mpe;
        # nor can one of a float or bool entry, though it equals an integer
        kw = dict(m=4, n=4, depth=4, block_rows=2, block_cols=2) | bad
        [(name, value)] = bad.items()
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer, "
                                             f"got {value}$"):
            masim.run_mpe(masim.ProblemShape(kw["m"], kw["depth"], kw["n"]),
                          masim.DesignPoint(1, kw["block_rows"], kw["block_cols"]),
                          masim.Machine())


class TestReferenceGemm:
    def test_identity_passthrough(self):
        rng = np.random.default_rng(1)
        b = rand(rng, 4, 5)
        assert np.array_equal(masim.reference_gemm(np.eye(4, dtype=np.float32), b), b)

    def test_two_by_two(self):
        c = masim.reference_gemm([[1, 2], [3, 4]], [[5, 6], [7, 8]])
        assert c.tolist() == [[19, 22], [43, 50]]

    def test_zero_a(self):
        rng = np.random.default_rng(2)
        c = masim.reference_gemm(np.zeros((3, 4), np.float32), rand(rng, 4, 6))
        assert not c.any()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            masim.reference_gemm(np.ones((2, 3)), np.ones((4, 2)))

    def test_close_to_float64_product(self):
        rng = np.random.default_rng(3)
        a, b = rand(rng, 20, 30), rand(rng, 30, 10)
        c32 = masim.reference_gemm(a, b)
        assert c32.dtype == np.float32
        np.testing.assert_allclose(c32, f64_product(a, b), rtol=1e-5)

    def test_large_outputs_start_no_thread(self, monkeypatch, started_threads):
        # one tile of the 128x128 and 192x192 blocks --auto picks, and an
        # output of two oracle parts' worth: the kernel runs on the caller
        monkeypatch.setattr(blockmm, "usable_cores", lambda: 8)
        rng = np.random.default_rng(13)
        a, b = signed(rng, 192, 40), signed(rng, 40, 192)
        for tile in (128, 192):
            masim.reference_gemm(a[:tile], b[:, :tile])
        a, b = signed(rng, 2, 3), signed(rng, 3, blockmm.PART_MIN_ELEMS)
        assert same_bits(masim.reference_gemm(a, b), k_loop(a, b))
        assert started_threads == []


def f64_product(a, b):
    """The float64 yardstick: a matmul of the operands widened to float64."""
    return np.asarray(a, np.float64) @ np.asarray(b, np.float64)


def k_loop(a, b, dt=np.float32):
    """Whole-matrix k-ordered product in dt: one rank-1 update of all of C per k."""
    aa, bb = a.astype(dt), b.astype(dt)
    out = np.zeros((a.shape[0], b.shape[1]), dt)
    tmp = np.empty_like(out)
    for k in range(a.shape[1]):
        np.multiply.outer(aa[:, k], bb[k, :], out=tmp)
        np.add(out, tmp, out=out)
    return out


# The kernel accumulates in float32 only; the k-loop yardstick runs in the
# same dtype.
KERNEL_DTYPE = pytest.mark.parametrize("dtype_name, dt", [("f32", np.float32)])


def signed(rng, r, c):
    return rng.random((r, c), dtype=np.float32) - np.float32(0.5)


class TestKernelPanels:
    """The row-panelled kernel rounds exactly like one whole-matrix k loop."""

    # sha256 of reference_gemm(a, b).view(np.uint32), recorded from the
    # whole-matrix kernel before row panels existed.
    @pytest.mark.parametrize("m, depth, n, seed, digest", [
        # 1000 columns -> 131-row panels; 300 rows leave a 38-row last panel
        (300, 20, 1000, 1,
         "73625639d4425019588190e1317050c460bc1b3db2adcf00d1d8a6fb8914f2ed"),
        # n > KERNEL_PANEL_ELEMS: one row per panel
        (3, 4, (1 << 17) + 5, 2,
         "f98268a4b8f19e82c68ae15454c68fff812fc6904061d5eedadc2c3f92763ff2"),
        (1, 50, 77, 3,
         "3dac964bc8583e48dfdfe44b4e9487bd3b64ddc09861c33e3c56175b01368bed"),
        # fc-8
        (128, 4096, 1000, 4,
         "bfad76e915a80b6958c633f78888f0228b5e3f1eb29f88ee25c625e28a909741"),
    ])
    def test_golden_digest(self, m, depth, n, seed, digest):
        rng = np.random.default_rng(seed)
        a, b = signed(rng, m, depth), signed(rng, depth, n)
        out = masim.reference_gemm(a, b)
        assert hashlib.sha256(out.view(np.uint32).tobytes()).hexdigest() == digest

    @KERNEL_DTYPE
    @pytest.mark.parametrize("panel_elems", [1, 10, 33, 77, 1 << 17])
    def test_any_panel_size_matches_whole_matrix_loop(self, monkeypatch, numpy_kernel,
                                                      panel_elems, dtype_name, dt):
        # the panels are the numpy loop's. 11 columns: 1 and 10 elements give
        # one-row panels, 33 three rows (23 rows leave a 2-row last panel),
        # 77 seven rows, 1 << 17 one panel
        monkeypatch.setattr(blockmm, "KERNEL_PANEL_ELEMS", panel_elems)
        rng = np.random.default_rng(10)
        a, b = signed(rng, 23, 37), signed(rng, 37, 11)
        got = masim.reference_gemm(a, b)
        assert got.dtype == dt
        assert np.array_equal(got.view(np.uint32), k_loop(a, b, dt).view(np.uint32))


class KernelFault(Exception):
    pass


class TestSplitAndRunParts:
    """The cut rule and the runner of the one threaded stage, the oracle's
    runs of strips."""

    @pytest.mark.parametrize("cores", [1, 2, 3, 8])
    @pytest.mark.parametrize("align", [1, 2, 256])
    def test_split(self, monkeypatch, cores, align):
        monkeypatch.setattr(blockmm, "usable_cores", lambda: cores)
        floor = blockmm.PART_MIN_ELEMS
        for length in range(1, 601):
            units = -(-length // align)
            for elements in (length, length * 100, length * floor):
                cuts = blockmm.split(length, elements, align)
                parts = len(cuts) - 1
                assert cuts[0] == 0 and cuts[-1] == length
                assert all(x < y for x, y in zip(cuts, cuts[1:]))
                assert all(c % align == 0 for c in cuts[1:-1])
                assert 1 <= parts <= cores and parts <= units
                assert parts <= max(1, elements // floor)
                assert parts == max(1, min(units, cores, elements // floor))

    def test_run_parts_returns_in_part_order(self, started_threads, fine_switching):
        # earlier parts sleep longer, so the parts finish in reverse order
        edges = [0, 3, 5, 9, 10]
        caller = threading.current_thread()

        def work(lo, hi):
            time.sleep(0.01 * (10 - lo))
            return lo, hi, threading.current_thread() is caller

        assert blockmm.run_parts(work, edges) == [
            (0, 3, True), (3, 5, False), (5, 9, False), (9, 10, False)]
        assert len(started_threads) == len(edges) - 2


class TestPcg64Stream:
    """The seeded draw's PCG64 seeding is numpy's."""

    # 2**200 + 1 has seven 32-bit words, three past SeedSequence's pool
    SEEDS = (0, 1, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**127 + 3, 2**200 + 1)

    @pytest.mark.parametrize("seed", SEEDS, ids=["0", "1", "7", "2^32-1", "2^32",
                                                 "2^64+5", "2^127+3", "2^200+1"])
    def test_seed_is_default_rngs(self, seed):
        state = np.random.default_rng(seed).bit_generator.state["state"]
        assert blockmm.pcg64_seed(seed) == (state["state"], state["inc"])

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            blockmm.pcg64_seed(-1)


class TestBlockDraw:
    """Any block of the seeded A or B, drawn by itself with the compiled or
    the numpy fill, is that block of numpy's serial draw."""

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
    @given(seed=st.integers(0, 2**70), m=st.integers(1, 40), depth=st.integers(1, 40),
           n=st.integers(1, 40), corners=st.lists(st.integers(0, 2**16), min_size=8,
                                                  max_size=8))
    # corners: A's first row and column and its extra rows and columns,
    # then B's. Depth 1 and B's whole row after an odd m*depth, whose first
    # element is the high half of an output; n = 1; odd n, so every other
    # row of B's block starts at a high half
    @example(seed=5, m=3, depth=1, n=4, corners=[0, 0, 2, 0, 0, 0, 0, 3])
    @example(seed=5, m=2, depth=3, n=1, corners=[1, 0, 0, 0, 1, 0, 1, 0])
    @example(seed=7, m=3, depth=5, n=7, corners=[0, 0, 2, 4, 1, 2, 3, 4])
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_any_block_is_the_serial_draws(self, compiled, seed, m, depth, n, corners):
        if compiled and blockmm._library() is None:
            pytest.skip("no compiled library")
        rng = np.random.default_rng(seed)
        stream = blockmm.Stream(*blockmm.pcg64_seed(seed))
        first = 0
        corners = iter(corners)
        for rows, cols in ((m, depth), (depth, n)):
            want = rng.random((rows, cols), dtype=np.float32)
            r0, c0 = next(corners) % rows, next(corners) % cols
            r1 = r0 + 1 + next(corners) % (rows - r0)
            c1 = c0 + 1 + next(corners) % (cols - c0)
            # a block of a wider buffer, as the verify loop's ragged panels
            out = np.full((r1 - r0, c1 - c0 + 2), np.nan, np.float32)[:, 1:-1]
            with pytest.MonkeyPatch.context() as mp:
                if not compiled:
                    mp.setattr(blockmm, "_library", lambda: None)
                got = blockmm.draw_block(stream, first + r0 * cols + c0, cols, out)
            assert got is out
            assert same_bits(out, want[r0:r1, c0:c1])
            first += rows * cols

    @pytest.mark.parametrize("rows", [1, 3, 4, 5, 7, 9])
    @pytest.mark.parametrize("first, width, cols", [
        (0, 6, 6),      # every row starts at a low half
        (7, 11, 5),     # odd first and width: a group's rows alternate
        (7, 13, 8),     # halves, and their row ends differ by one draw
        (3, 9, 1),      # one column
    ])
    def test_interleave_edges(self, rows, first, width, cols):
        # the compiled fill steps four rows at a time: whole groups, a
        # ragged last group of 1-3 rows, and rows of mixed start parity
        if blockmm._library() is None:
            pytest.skip("no compiled library")
        stream = blockmm.Stream(*blockmm.pcg64_seed(11))
        serial = np.random.default_rng(11).random(first + rows * width, dtype=np.float32)
        want = serial[first:].reshape(rows, width)[:, :cols]
        compiled = blockmm.draw_block(stream, first, width, np.empty((rows, cols), np.float32))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blockmm, "_library", lambda: None)
            fallback = blockmm.draw_block(stream, first, width,
                                          np.empty((rows, cols), np.float32))
        assert same_bits(compiled, fallback)
        assert same_bits(compiled, want)


@pytest.fixture
def cold_kernel_cache(tmp_path, monkeypatch):
    """An empty kernel cache of the test's own, and no library resolved yet
    in this process; afterwards the next call resolves it afresh."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg-cache"))
    blockmm._library.cache_clear()
    yield tmp_path / "xdg-cache" / "masim"
    blockmm._library.cache_clear()


@pytest.fixture
def numpy_kernel(monkeypatch):
    """Force _k_loop's numpy loop, as where no compiled kernel can be had."""
    monkeypatch.setattr(blockmm, "_library", lambda: None)


def both_paths(monkeypatch, a, b):
    """reference_gemm(a, b) by the compiled kernel, then by the numpy loop
    (which warns of the NaNs that inf * 0 and NaN inputs make)."""
    assert blockmm._library() is not None
    compiled = masim.reference_gemm(a, b)
    with monkeypatch.context() as mp, np.errstate(invalid="ignore"):
        mp.setattr(blockmm, "_library", lambda: None)
        fallback = masim.reference_gemm(a, b)
    return compiled, fallback


def same_bits(x, y):
    return np.array_equal(x.view(np.uint32), y.view(np.uint32))


def f32(*rows):
    return np.array(rows, np.float32)


@needs_cc
class TestCompiledKernel:
    """The compiled kernel rounds exactly like _k_loop's numpy loop."""

    @pytest.mark.parametrize("m, depth, n", [
        (1, 1, 1),
        (1, 37, 200),       # one row
        (37, 20, 1),        # one column
        (23, 1, 130),       # depth 1
        (5, 13, 63),        # m past a multiple of 4, n short of one of 64
        (6, 7, 65),
        (9, 2100, 129),     # three 1024-deep slices of k, the last ragged
        (128, 300, 1000),   # fc-8's output shape
    ])
    def test_ragged_shapes(self, monkeypatch, m, depth, n):
        rng = np.random.default_rng(m * depth + n)
        compiled, fallback = both_paths(monkeypatch, signed(rng, m, depth),
                                        signed(rng, depth, n))
        assert same_bits(compiled, fallback)

    @given(m=st.integers(1, 20), depth=st.integers(1, 40), n=st.integers(1, 150),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_any_shape_of_signed_data(self, m, depth, n, seed):
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            compiled, fallback = both_paths(mp, signed(rng, m, depth),
                                            signed(rng, depth, n))
        assert same_bits(compiled, fallback)

    def test_band_and_column_slices(self, monkeypatch):
        # _k_loop on a band of rows 3..10, then on columns 5..74, whose row
        # stride exceeds their row length; the second call adds onto the
        # first one's values where the two overlap
        rng = np.random.default_rng(20)
        a, b = signed(rng, 13, 30), signed(rng, 30, 80)
        outs = []
        for kernel in (blockmm._library(), None):
            monkeypatch.setattr(blockmm, "_library", lambda: kernel)
            out = np.zeros((13, 80), np.float32)
            blockmm._k_loop(a[3:11], b, out[3:11])
            blockmm._k_loop(a, b[:, 5:75], out[:, 5:75])
            outs.append(out)
        assert same_bits(*outs)

    def test_signed_zeros(self, monkeypatch):
        # 0 * -1 is -0, and +0 + -0 is +0: every element starts at +0
        a = f32([0, -0.0], [-1, 1], [-0.0, -0.0])
        b = f32([-1, 0, -0.0], [1, -0.0, 0])
        compiled, fallback = both_paths(monkeypatch, a, b)
        assert same_bits(compiled, fallback)
        assert not compiled[0].view(np.uint32).any()
        assert compiled[1].tolist() == [2, 0, 0]

    def test_infinities_and_subnormals(self, monkeypatch):
        # bits, not values, are compared: with flush-to-zero on, the float32
        # constants would flush too
        tiny = np.float32(2.0 ** -70)       # tiny * tiny = 2**-140, subnormal
        sub = np.float32(2.0 ** -149)       # the least subnormal
        a = f32([tiny, sub], [np.inf, 1], [-np.inf, 1])
        b = f32([tiny, 2], [2, 1])
        compiled, fallback = both_paths(monkeypatch, a, b)
        assert same_bits(compiled, fallback)
        # 2**-140 + 2**-148: neither flushed to zero (FTZ) nor read as zero (DAZ)
        assert compiled.view(np.uint32)[0, 0] == (1 << 9) + (1 << 1)
        assert compiled.view(np.uint32)[1:].tolist() == [[0x7F800000] * 2,
                                                         [0xFF800000] * 2]
        # nor did loading the library turn either on for this thread
        assert (np.array([tiny]) * tiny).view(np.uint32)[0] == 1 << 9

    def test_nan_positions(self, monkeypatch):
        rng = np.random.default_rng(21)
        a, b = signed(rng, 9, 6), signed(rng, 6, 70)
        a[2, 3] = np.nan
        b[4, 65] = np.nan
        a[5, 0] = np.inf            # inf * 0 is NaN too
        b[0, 7] = 0
        compiled, fallback = both_paths(monkeypatch, a, b)
        assert np.array_equal(np.isnan(compiled), np.isnan(fallback))
        assert np.isnan(compiled).sum() == 70 + 9 - 1 + 1
        assert same_bits(compiled[~np.isnan(compiled)], fallback[~np.isnan(fallback)])

    def test_multiply_and_add_are_not_fused(self, monkeypatch):
        # -1 + fl((1 + 2**-12)**2) is 2**-11; a fused multiply-add keeps the
        # product's last bit and gives 2**-11 + 2**-24
        x = 1 + 2.0 ** -12
        a = np.tile(f32([-1, x]), (5, 1))
        b = np.tile(f32([1], [x]), (1, 70))
        compiled, fallback = both_paths(monkeypatch, a, b)
        assert (compiled == np.float32(2.0 ** -11)).all()
        assert same_bits(compiled, fallback)


def both_references(monkeypatch, a, b, start, width=None):
    """start + a @ b summed in float64 by _ref_loop, by the compiled
    masim_ref_loop and then by the numpy loop; with width, into the first
    columns of a ref whose rows are width apart, whose rest must stay."""
    outs = []
    for lib in (blockmm._library(), None):
        monkeypatch.setattr(blockmm, "_library", lambda: lib)
        ref = np.full((start.shape[0], width or start.shape[1]), 7.0)
        ref[:, : start.shape[1]] = start
        with np.errstate(invalid="ignore"):
            blockmm._ref_loop(a, b, ref[:, : start.shape[1]], blockmm.Buffers())
        assert (ref[:, start.shape[1]:] == 7.0).all()
        outs.append(ref[:, : start.shape[1]])
    return outs


def f64_sum(start, a, b):
    """start plus one exact float64 rank-1 update per ascending k."""
    out = start.copy()
    for k in range(a.shape[1]):
        out += np.multiply.outer(a[:, k].astype(np.float64), b[k].astype(np.float64))
    return out


@needs_cc
class TestCompiledReference:
    """The compiled float64 reference sums exactly as the numpy float64
    loop and a float64 k loop do, from any start."""

    @pytest.mark.parametrize("m, depth, n, width", [
        (1, 1, 1, None),
        (7, 3, 23, None),       # m short of a multiple of 8, n of one of 24
        (9, 513, 25, 40),       # one past each; a second, 1-deep slice of k
        (130, 1100, 50, None),  # a second 128-row chunk; three slices of k
        (128, 512, 256, 300),   # fc-6's panel, in a strip of a wider ref
    ])
    def test_ragged_shapes(self, monkeypatch, m, depth, n, width):
        rng = np.random.default_rng(m + depth + n)
        a, b = signed(rng, m, depth), signed(rng, depth, n)
        start = rng.standard_normal((m, n))
        want = f64_sum(start, a, b)
        for got in both_references(monkeypatch, a, b, start, width):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_products_are_exact(self, monkeypatch):
        # -1 + (1 + 2**-12)**2 is 2**-11 + 2**-24 in float64, fused or not;
        # the float32 kernel rounds the product and gives 2**-11
        x = 1 + 2.0 ** -12
        a = np.tile(f32([-1, x]), (9, 1))
        b = np.tile(f32([1], [x]), (1, 30))
        for got in both_references(monkeypatch, a, b, np.zeros((9, 30))):
            assert (got == 2.0 ** -11 + 2.0 ** -24).all()

    def test_special_values(self, monkeypatch):
        # signed zeros (+0 + -0 is +0), a float32 subnormal squared (normal
        # in float64), infinities and NaN (inf * 0 is NaN)
        sub = np.float32(2.0 ** -149)
        a = f32([0, -0.0], [-1, 1], [sub, 1], [np.inf, 1], [np.nan, 1])
        b = f32([-1, 0, sub], [1, -0.0, 0])
        compiled, fallback = both_references(monkeypatch, a, b, np.zeros((5, 3)))
        assert np.array_equal(np.isnan(compiled), np.isnan(fallback))
        assert np.array_equal(compiled[~np.isnan(compiled)].view(np.uint64),
                              fallback[~np.isnan(fallback)].view(np.uint64))
        assert not compiled[0].view(np.uint64).any()
        assert compiled[2, 2] == 2.0 ** -298
        assert compiled[3].tolist()[::2] == [-np.inf, np.inf]
        assert np.isnan(compiled[3, 1]) and np.isnan(compiled[4]).all()


class TestKernelCache:
    """Building, caching and loading the compiled kernel, and falling back."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Count calls of the build step."""
        calls = []
        build = blockmm._build

        def counted(cc, path):
            calls.append(path)
            return build(cc, path)

        monkeypatch.setattr(blockmm, "_build", counted)
        return calls

    @needs_cc
    def test_cold_cache_under_two_oracle_parts_builds_once(
            self, monkeypatch, cold_kernel_cache, started_threads, builds,
            checked_strips):
        # two strips of two parts' worth: A's draw on the caller resolves the
        # library before the worker draws and adds its first panel of B
        monkeypatch.setattr(blockmm, "usable_cores", lambda: 2)
        shape = masim.ProblemShape(128, 3, 2 * blockmm.PART_MIN_ELEMS // 128)
        blockmm.verified_output(shape, 22)
        assert len(started_threads) == 1
        assert len(builds) == 1
        assert [p.suffix for p in cold_kernel_cache.iterdir()] == [".so"]
        assert (cold_kernel_cache.stat().st_mode & 0o777) == 0o700
        assert blockmm._library() is not None
        want = k_loop(*seeded_matrices(shape, 22))
        assert same_bits(assemble_strips(checked_strips, shape.m, shape.n), want)

    @needs_cc
    def test_warm_cache_starts_no_process(self, monkeypatch, cold_kernel_cache, builds):
        assert blockmm._library() is not None
        blockmm._library.cache_clear()

        def no_process(*args, **kwargs):
            raise AssertionError("a warm cache started a process")

        monkeypatch.setattr(subprocess, "Popen", no_process)
        assert blockmm._library() is not None
        assert len(builds) == 1

    # with no cc, _library() builds nothing, so a build cannot fail nor a
    # library be cut short; "no compiler" covers that host
    @pytest.mark.parametrize("fault", [
        "no compiler", pytest.param("failing build", marks=needs_cc), "unwritable cache",
        pytest.param("truncated library", marks=needs_cc),
        pytest.param("stale library", marks=needs_cc)])
    def test_fault_falls_back_to_the_same_bits(self, monkeypatch, tmp_path,
                                               cold_kernel_cache, builds, fault):
        # every fault gives the numpy loop's bits, except a cached library
        # cut short or lacking an entry point, which is built again once
        # and then loads
        cache_home = cold_kernel_cache.parent
        if fault == "no compiler":
            monkeypatch.setattr(blockmm.shutil, "which", lambda name: None)
        elif fault == "failing build":
            broken = tmp_path / "broken.c"
            broken.write_text("this is not C\n")
            monkeypatch.setattr(blockmm, "KERNEL_SOURCE", str(broken))
        elif fault == "unwritable cache":
            # a file where the directory would go (the tests may run as root,
            # for whom permission bits forbid nothing)
            cache_home.write_text("")
        else:
            # the library cut short, or one that loads but lacks the draw,
            # under its own name in a second cache: a path this process has
            # not loaded
            blockmm._library()
            [built] = cold_kernel_cache.iterdir()
            cache_home = tmp_path / "second-cache"
            (cache_home / "masim").mkdir(parents=True)
            stale = cache_home / "masim" / built.name
            if fault == "truncated library":
                stale.write_bytes(built.read_bytes()[:512])
            else:
                source = tmp_path / "kernel_only.c"
                source.write_text("int masim_k_loop(void) { return 1; }\n")
                subprocess.run(["cc", "-shared", "-fPIC", "-o", str(stale), str(source)],
                               check=True)
            monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
            blockmm._library.cache_clear()
            builds.clear()
        rng = np.random.default_rng(23)
        a, b = signed(rng, 7, 50), signed(rng, 50, 90)
        got = masim.reference_gemm(a, b)
        assert same_bits(got, k_loop(a, b))
        cache = cache_home / "masim"
        left = sorted(p.name for p in cache.iterdir()) if cache.is_dir() else []
        if fault in ("truncated library", "stale library"):
            assert blockmm._library() is not None
            assert builds == [str(cache / built.name)]
            assert left == [built.name]
            assert (cache / built.name).stat().st_size == built.stat().st_size
        else:
            assert blockmm._library() is None
            assert len(builds) == (fault == "failing build")
            assert left == []


class TestSlicesOfK:
    """Products added k-slice by k-slice into one output (_k_loop, as the
    verify loop adds each panel of B) give the whole product's bits."""

    # cut inside and across the compiled kernel's 1024-deep slices
    CUTS = (0, 3, 700, 1030, 2048, 2100)

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
    def test_kernel_slices_add_up_to_the_whole_product(self, monkeypatch, compiled):
        if compiled and blockmm._library() is None:
            pytest.skip("no compiled kernel")
        if not compiled:
            monkeypatch.setattr(blockmm, "_library", lambda: None)
        rng = np.random.default_rng(24)
        a, b = signed(rng, 9, 2100), signed(rng, 2100, 129)
        out = np.zeros((9, 129), np.float32)
        for k0, k1 in zip(self.CUTS, self.CUTS[1:]):
            blockmm._k_loop(a[:, k0:k1], b[k0:k1], out)
        assert same_bits(out, k_loop(a, b))

    @needs_cc
    def test_outputs_of_the_wrong_kind_are_rejected(self):
        # the compiled kernel's check before the ctypes call: a float64, a
        # wrong-shaped or a column-strided output never reaches the C loop
        assert blockmm._library() is not None
        a, b = np.ones((4, 3), np.float32), np.ones((3, 5), np.float32)
        for out in (np.zeros((4, 5)), np.zeros((5, 4), np.float32),
                    np.zeros((4, 10), np.float32)[:, ::2]):
            with pytest.raises(ValueError, match="conforming float32 matrices"):
                blockmm._k_loop(a, b, out)


def tile_of(a, b, block_rows, block_cols, tile_id):
    """The tile with id tile_id of block_rows x block_cols blocks: the
    k-ordered kernel on its slices of a and b."""
    a, b = np.asarray(a, np.float32), np.asarray(b, np.float32)
    rows, cols = tile_slices(a.shape[0], b.shape[1], block_rows, block_cols)[tile_id]
    return masim.reference_gemm(a[rows], b[:, cols])


def blocked(a, b, block_rows, block_cols):
    """Every tile by tile_of, assembled into the m x n product."""
    out = np.full((a.shape[0], b.shape[1]), np.nan, np.float32)
    tiles = tile_slices(a.shape[0], b.shape[1], block_rows, block_cols)
    for tile_id, (rows, cols) in enumerate(tiles):
        out[rows, cols] = tile_of(a, b, block_rows, block_cols, tile_id)
    return out


class TestTileOuterAccumulate:
    """A tile accumulated by the k-ordered kernel on its slices of A and B."""

    def test_single_outer_product(self):
        assert tile_of([[1], [2]], [[3, 4]], 2, 2, 0).tolist() == [[3, 4], [6, 8]]

    def test_zero_columns(self):
        rng = np.random.default_rng(4)
        assert not tile_of(np.zeros((4, 3), np.float32), rand(rng, 3, 4), 4, 4, 0).any()

    def test_matches_reference_subblock(self):
        rng = np.random.default_rng(5)
        a, b = rand(rng, 8, 16), rand(rng, 16, 8)
        np.testing.assert_allclose(tile_of(a, b, 8, 8, 0), f64_product(a, b), rtol=1e-5)

    def test_padded_tail_is_zero(self):
        # the padded block the transfers charge gives the slice's tile
        # bit for bit, plus zero rows past m and zero cols past n
        rng = np.random.default_rng(6)
        a, b = rand(rng, 5, 3), rand(rng, 3, 6)
        sa = np.zeros((4, 3), np.float32)
        sb = np.zeros((3, 4), np.float32)
        sa[:1], sb[:, :2] = a[4:], b[:, 4:]
        padded = masim.reference_gemm(sa, sb)
        assert not padded[1:, :].any()
        assert not padded[:, 2:].any()
        # tile (1, 1) of the 2 x 2 grid has id 3
        assert np.array_equal(padded[:1, :2], tile_of(a, b, 4, 4, 3))


class TestBlockedMultiply:
    @given(m=st.integers(1, 40), n=st.integers(1, 40), k=st.integers(1, 24),
           si=st.integers(1, 16), sj=st.integers(1, 16),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_oracle_equivalence(self, m, n, k, si, sj, seed):
        rng = np.random.default_rng(seed)
        a, b = rand(rng, m, k), rand(rng, k, n)
        got = blocked(a, b, si, sj)
        # identical k-ascending order makes the paths bitwise equal
        assert np.array_equal(got, masim.reference_gemm(a, b))
        np.testing.assert_allclose(got, f64_product(a, b), rtol=1e-4)

    def test_padding_neutrality(self):
        rng = np.random.default_rng(7)
        a, b = rand(rng, 5, 3), rand(rng, 3, 7)
        exact = blocked(a, b, 5, 7)
        padded = blocked(a, b, 8, 8)
        assert np.array_equal(exact, padded)


class TestMaxRelError:
    """The float64 oracle: a k-ordered float64 sum over bounded output panels."""

    def test_agrees_with_float64_k_loop(self, monkeypatch):
        # bit for bit: each reference element is the k loop's float64 sum
        rng = np.random.default_rng(8)
        a, b = rand(rng, 45, 70), rand(rng, 70, 83)
        out = masim.reference_gemm(a, b)
        ref = k_loop(a, b, np.float64)
        want = (np.abs(out - ref) / np.abs(ref)).max()
        assert masim.max_rel_error(a, b, out) == want
        for panel in ((32, 64, 16), (7, 5, 3), (45, 83, 70), (100, 100, 1)):
            monkeypatch.setattr(blockmm, "ORACLE_PANEL", panel)
            assert masim.max_rel_error(a, b, out) == want, panel

    # a wide output, cut into runs of strips, and a tall one of one strip,
    # cut into runs of row panels
    SETTINGS_SHAPES = ((200, 700, 600), (600, 300, 100))
    SETTINGS_CODE = """if True:
        import sys
        import numpy as np
        import masim
        for m, depth, n in {shapes}:
            rng = np.random.default_rng(17)
            a = rng.random((m, depth), dtype=np.float32)
            b = rng.random((depth, n), dtype=np.float32)
            print(repr(masim.max_rel_error(a, b, masim.reference_gemm(a, b))))
        """

    def test_same_bits_in_every_setting(self, monkeypatch, started_threads):
        # BLAS pinned and on its own threads (each in a fresh process:
        # BLAS reads its thread count once, at load), on one and three
        # usable cores, and with np.matmul raising: the oracle calls no
        # BLAS, so every setting gives the float64 k loop's bits
        code = self.SETTINGS_CODE.format(shapes=self.SETTINGS_SHAPES)
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        printed = []
        for pinned in (True, False):
            done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, timeout=120,
                                  env={**env, **dict.fromkeys(BLAS_THREAD_VARS, "1")}
                                  if pinned else env)
            assert done.returncode == 0, done.stderr
            printed.append(done.stdout.split())
        assert printed[0] == printed[1]

        def no_blas(*args, **kwargs):
            raise AssertionError("the oracle called np.matmul")

        monkeypatch.setattr(np, "matmul", no_blas)
        monkeypatch.setattr(blockmm, "PART_MIN_ELEMS", 1 << 10)
        for (m, depth, n), text in zip(self.SETTINGS_SHAPES, printed[0]):
            rng = np.random.default_rng(17)
            a, b = rand(rng, m, depth), rand(rng, depth, n)
            out = k_loop(a, b)
            ref = k_loop(a, b, np.float64)
            want = (np.abs(out - ref) / np.abs(ref)).max()
            assert float(text) == want
            for cores in (1, 3):
                monkeypatch.setattr(blockmm, "usable_cores", lambda: cores)
                del started_threads[:]
                assert masim.max_rel_error(a, b, out) == want, (m, depth, n, cores)
                assert len(started_threads) == cores - 1

    def test_every_panel_is_checked(self, monkeypatch):
        monkeypatch.setattr(blockmm, "ORACLE_PANEL", (4, 4, 3))
        rng = np.random.default_rng(9)
        a, b = rand(rng, 10, 7), rand(rng, 7, 9)
        for i in range(10):
            for j in range(9):
                out = masim.reference_gemm(a, b)
                out[i, j] *= 1.01
                assert masim.max_rel_error(a, b, out) > 5e-3, (i, j)

    def test_nan_is_reported(self, monkeypatch):
        monkeypatch.setattr(blockmm, "ORACLE_PANEL", (2, 2, 512))
        a = np.ones((3, 2), np.float32)
        out = masim.reference_gemm(a, a.T)
        out[2, 1] = np.nan
        assert np.isnan(masim.max_rel_error(a, a.T, out))

    def test_rejects_wrong_output_shape(self):
        a = np.ones((3, 2), np.float32)
        with pytest.raises(ValueError):
            masim.max_rel_error(a, a.T, np.ones((3, 2), np.float32))

    @pytest.mark.parametrize("parts", [1, 2, 3, 5])
    def test_any_part_count_matches_one_part(self, monkeypatch,
                                             started_threads, fine_switching, parts):
        # 4-column strips: 83 columns give 21 strips, the last one ragged,
        # each of four row panels and three depth slices
        monkeypatch.setattr(blockmm, "ORACLE_PANEL", (16, 4, 32))
        monkeypatch.setattr(blockmm, "PART_MIN_ELEMS", 1)
        rng = np.random.default_rng(14)
        a, b = signed(rng, 50, 70), signed(rng, 70, 83)
        out = k_loop(a, b)
        monkeypatch.setattr(blockmm, "usable_cores", lambda: 1)
        want = masim.max_rel_error(a, b, out)
        assert started_threads == []
        monkeypatch.setattr(blockmm, "usable_cores", lambda: parts)
        assert masim.max_rel_error(a, b, out) == want
        assert len(started_threads) == parts - 1

    def test_nan_on_a_worker_strip_is_reported(self, monkeypatch):
        # two parts over two 2-column strips: the worker covers columns 2-3,
        # and the caller's strip holds a larger finite error that the builtin
        # max would keep in place of the worker's NaN
        monkeypatch.setattr(blockmm, "ORACLE_PANEL", (2, 2, 512))
        monkeypatch.setattr(blockmm, "PART_MIN_ELEMS", 1)
        monkeypatch.setattr(blockmm, "usable_cores", lambda: 2)
        a = np.ones((3, 2), np.float32)
        b = np.ones((2, 4), np.float32)
        out = masim.reference_gemm(a, b)
        out[0, 0] *= 2
        out[2, 3] = np.nan
        assert np.isnan(masim.max_rel_error(a, b, out))

    @pytest.mark.parametrize("on_caller", [False, True])
    def test_fault_is_raised_and_no_thread_outlives_the_call(self, monkeypatch, on_caller):
        # reading the output raises on the calling thread or on the workers;
        # the parts that do not raise are slow, so they still run when it does
        caller = threading.current_thread()

        class Faulty(np.ndarray):
            def __getitem__(self, key):
                if (threading.current_thread() is caller) == on_caller:
                    raise KernelFault
                time.sleep(0.05)
                return super().__getitem__(key)

        monkeypatch.setattr(blockmm, "ORACLE_PANEL", (16, 4, 300))
        monkeypatch.setattr(blockmm, "PART_MIN_ELEMS", 1)
        monkeypatch.setattr(blockmm, "usable_cores", lambda: 4)
        rng = np.random.default_rng(15)
        a, b = signed(rng, 16, 300), signed(rng, 300, 16)
        out = masim.reference_gemm(a, b).view(Faulty)
        before = threading.active_count()
        with pytest.raises(KernelFault):
            masim.max_rel_error(a, b, out)
        assert threading.active_count() == before

    def test_tile_sized_outputs_start_no_thread(self, monkeypatch,
                                                started_threads):
        monkeypatch.setattr(blockmm, "usable_cores", lambda: 8)
        rng = np.random.default_rng(16)
        a, b = rand(rng, 512, 40), rand(rng, 40, 512)
        # one tile of the 128x128 and 192x192 blocks --auto picks
        for tile in (128, 192):
            masim.max_rel_error(a[:tile], b[:, :tile], k_loop(a[:tile], b[:, :tile]))
        assert started_threads == []
        # a tall output of four parts' worth has one strip, whose four
        # 128-row panels are the parts: it starts three threads
        masim.max_rel_error(a, b[:, :256], k_loop(a, b[:, :256]))
        assert len(started_threads) == 3
        # two strips of 128x256 make two parts' worth, and start one thread
        del started_threads[:]
        masim.max_rel_error(a[:128], b, k_loop(a[:128], b))
        assert len(started_threads) == 1


class TestMatrixValidation:
    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            blockmm.as_matrix([1, 2, 3])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            blockmm.as_matrix(np.zeros((0, 3), np.float32))

    def test_casts_to_float32(self):
        out = blockmm.as_matrix([[1.0, 2.0]])
        assert out.dtype == np.float32
