import hashlib
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import masim
from masim import blockmm


def rand(rng, r, c):
    return rng.random((r, c), dtype=np.float32)


class TestPartition:
    def test_conv1_shape(self):
        g = masim.partition(96, 3025, 363, 128, 128)
        assert (g.grid_rows, g.grid_cols) == (1, 24)
        assert (g.padded_rows, g.padded_cols) == (128, 3072)

    def test_exact_fit(self):
        g = masim.partition(128, 128, 128, 128, 128)
        assert (g.grid_rows, g.grid_cols) == (1, 1)
        assert (g.padded_rows, g.padded_cols) == (128, 128)

    def test_ragged(self):
        g = masim.partition(130, 100, 50, 64, 64)
        assert (g.grid_rows, g.grid_cols) == (3, 2)
        assert (g.padded_rows, g.padded_cols) == (192, 128)

    @pytest.mark.parametrize("bad", [
        dict(m=0), dict(n=-1), dict(depth=0), dict(block_rows=0), dict(block_cols=-2),
    ])
    def test_rejects_nonpositive(self, bad):
        kwargs = dict(m=4, n=4, depth=4, block_rows=2, block_cols=2) | bad
        with pytest.raises(ValueError):
            masim.partition(**kwargs)

    @given(m=st.integers(1, 300), n=st.integers(1, 300),
           si=st.integers(1, 200), sj=st.integers(1, 200))
    @settings(max_examples=200, deadline=None)
    def test_padding_invariants(self, m, n, si, sj):
        g = masim.partition(m, n, 7, si, sj)
        assert g.padded_rows >= m and g.padded_rows - m < si
        assert g.padded_cols >= n and g.padded_cols - n < sj
        assert g.padded_rows == g.grid_rows * si
        assert g.padded_cols == g.grid_cols * sj

    def test_tile_id_round_trip(self):
        g = masim.partition(130, 100, 50, 64, 64)
        for tid in range(g.tile_count):
            assert g.tile_id(*g.tile_coords(tid)) == tid


def fetch_a_bursts(a, grid, tile_row):
    """Bursts the tile row's A descriptor reads from the padded, transposed
    image of a: one row of block_rows elements per inner step."""
    image = np.zeros((grid.depth, grid.padded_rows), np.float32)
    image[:, : grid.m] = np.asarray(a, np.float32).T
    flat = image.ravel()
    d = masim.plan_for_tile(grid, tile_row, 0).a
    starts = [d.addr + i * d.stride for i in range(d.n_bursts)]
    return np.stack([flat[s0: s0 + d.burst_elems] for s0 in starts])


class TestTranspose:
    """The transposed A image that the A descriptors address."""

    def test_single_element(self):
        g = masim.partition(1, 1, 1, 1, 1)
        assert fetch_a_bursts([[3.5]], g, 0).tolist() == [[3.5]]

    def test_two_by_three(self):
        g = masim.partition(2, 1, 3, 2, 1)
        bursts = fetch_a_bursts([[1, 2, 3], [4, 5, 6]], g, 0)
        assert bursts.tolist() == [[1, 4], [2, 5], [3, 6]]

    def test_involution(self):
        # transposing the fetched bursts back gives each tile's A block,
        # zero rows past m included
        rng = np.random.default_rng(0)
        a = rand(rng, 70, 48)
        g = masim.partition(70, 8, 48, 16, 8)
        for i in range(g.grid_rows):
            block = np.zeros((16, 48), np.float32)
            rows = a[i * 16: (i + 1) * 16]
            block[: len(rows)] = rows
            assert np.array_equal(fetch_a_bursts(a, g, i).T, block)

    def test_row_major_result(self):
        # the tile rows' bursts cover the row-major image exactly once
        g = masim.partition(70, 8, 48, 16, 8)
        hits = np.zeros(g.depth * g.padded_rows, int)
        for i in range(g.grid_rows):
            d = masim.plan_for_tile(g, i, 0).a
            for k in range(d.n_bursts):
                hits[d.addr + k * d.stride: d.addr + k * d.stride + d.burst_elems] += 1
        assert (hits == 1).all()


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
    def test_any_panel_size_matches_whole_matrix_loop(self, monkeypatch, panel_elems,
                                                      dtype_name, dt):
        # 11 columns: 1 and 10 elements give one-row panels, 33 three rows
        # (23 rows leave a 2-row last panel), 77 seven rows, 1 << 17 one panel
        monkeypatch.setattr(blockmm, "KERNEL_PANEL_ELEMS", panel_elems)
        rng = np.random.default_rng(10)
        a, b = signed(rng, 23, 37), signed(rng, 37, 11)
        got = masim.reference_gemm(a, b)
        assert got.dtype == dt
        assert np.array_equal(got.view(np.uint32), k_loop(a, b, dt).view(np.uint32))


class KernelFault(Exception):
    pass


class TestKernelBands:
    """Row bands on threads round exactly like one whole-matrix k loop."""

    @KERNEL_DTYPE
    @pytest.mark.parametrize("panel_elems", [33, 1 << 17])
    @pytest.mark.parametrize("cores", [1, 2, 3, 5, 40])
    def test_any_band_count_matches_whole_matrix_loop(self, monkeypatch, cores,
                                                      panel_elems, dtype_name, dt):
        # 23 rows: 40 cores give one row per band; 33-element panels put
        # several panels, the last one ragged, in each band of 3+ rows. A
        # short switch interval makes the threads interleave finely.
        monkeypatch.setattr(blockmm, "usable_cores", lambda: cores)
        monkeypatch.setattr(blockmm, "KERNEL_BAND_MIN_ELEMS", 1)
        monkeypatch.setattr(blockmm, "KERNEL_PANEL_ELEMS", panel_elems)
        rng = np.random.default_rng(11)
        a, b = signed(rng, 23, 37), signed(rng, 37, 11)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = masim.reference_gemm(a, b)
        finally:
            sys.setswitchinterval(interval)
        assert got.dtype == dt
        assert np.array_equal(got.view(np.uint32), k_loop(a, b, dt).view(np.uint32))

    @pytest.mark.parametrize("on_caller", [False, True])
    def test_fault_is_raised_and_no_thread_outlives_the_call(self, monkeypatch,
                                                             on_caller):
        # _k_loop raises on the calling thread or on the workers; the threads
        # that do not raise are slow, so they still run when the fault is raised
        kernel = blockmm._k_loop
        caller = threading.current_thread()

        def faulty(aa, bb, out):
            if (threading.current_thread() is caller) == on_caller:
                raise KernelFault
            time.sleep(0.1)
            kernel(aa, bb, out)

        monkeypatch.setattr(blockmm, "_k_loop", faulty)
        monkeypatch.setattr(blockmm, "usable_cores", lambda: 4)
        monkeypatch.setattr(blockmm, "KERNEL_BAND_MIN_ELEMS", 1)
        rng = np.random.default_rng(12)
        a, b = signed(rng, 16, 300), signed(rng, 300, 64)
        before = threading.active_count()
        with pytest.raises(KernelFault):
            masim.reference_gemm(a, b)
        assert threading.active_count() == before

    def test_tile_sized_calls_start_no_thread(self, monkeypatch):
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(blockmm.threading, "Thread", Counted)
        monkeypatch.setattr(blockmm, "usable_cores", lambda: 8)
        rng = np.random.default_rng(13)
        a, b = signed(rng, 192, 40), signed(rng, 40, 192)
        # one tile of the 128x128 and 192x192 blocks --auto picks
        for tile in (128, 192):
            masim.reference_gemm(a[:tile], b[:, :tile])
        assert started == []
        # two bands' worth of output does start one
        masim.reference_gemm(signed(rng, 2, 3),
                             signed(rng, 3, blockmm.KERNEL_BAND_MIN_ELEMS))
        assert len(started) == 1


def tile_of(a, b, grid, tile_id):
    """The tile with id tile_id: the k-ordered kernel on its slices of a and b."""
    i, j = grid.tile_coords(tile_id)
    rows = slice(i * grid.block_rows, (i + 1) * grid.block_rows)
    cols = slice(j * grid.block_cols, (j + 1) * grid.block_cols)
    return masim.reference_gemm(np.asarray(a, np.float32)[rows],
                                np.asarray(b, np.float32)[:, cols])


def blocked(a, b, grid):
    """Every tile of the grid by tile_of, assembled into the m x n product."""
    rows = [np.hstack([tile_of(a, b, grid, grid.tile_id(i, j))
                       for j in range(grid.grid_cols)])
            for i in range(grid.grid_rows)]
    return np.vstack(rows)


class TestTileOuterAccumulate:
    """A tile accumulated by the k-ordered kernel on its slices of A and B."""

    def test_single_outer_product(self):
        g = masim.partition(2, 2, 1, 2, 2)
        assert tile_of([[1], [2]], [[3, 4]], g, 0).tolist() == [[3, 4], [6, 8]]

    def test_zero_columns(self):
        g = masim.partition(4, 4, 3, 4, 4)
        rng = np.random.default_rng(4)
        assert not tile_of(np.zeros((4, 3), np.float32), rand(rng, 3, 4), g, 0).any()

    def test_matches_reference_subblock(self):
        rng = np.random.default_rng(5)
        a, b = rand(rng, 8, 16), rand(rng, 16, 8)
        g = masim.partition(8, 8, 16, 8, 8)
        np.testing.assert_allclose(tile_of(a, b, g, 0), f64_product(a, b), rtol=1e-5)

    def test_padded_tail_is_zero(self):
        # the padded block the transfers charge gives the slice's tile
        # bit for bit, plus zero rows past m and zero cols past n
        rng = np.random.default_rng(6)
        a, b = rand(rng, 5, 3), rand(rng, 3, 6)
        g = masim.partition(5, 6, 3, 4, 4)
        sa = np.zeros((4, 3), np.float32)
        sb = np.zeros((3, 4), np.float32)
        sa[:1], sb[:, :2] = a[4:], b[:, 4:]
        padded = masim.reference_gemm(sa, sb)
        assert not padded[1:, :].any()
        assert not padded[:, 2:].any()
        assert np.array_equal(padded[:1, :2], tile_of(a, b, g, g.tile_id(1, 1)))


class TestBlockedMultiply:
    @given(m=st.integers(1, 40), n=st.integers(1, 40), k=st.integers(1, 24),
           si=st.integers(1, 16), sj=st.integers(1, 16),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_oracle_equivalence(self, m, n, k, si, sj, seed):
        rng = np.random.default_rng(seed)
        a, b = rand(rng, m, k), rand(rng, k, n)
        got = blocked(a, b, masim.partition(m, n, k, si, sj))
        # identical k-ascending order makes the paths bitwise equal
        assert np.array_equal(got, masim.reference_gemm(a, b))
        np.testing.assert_allclose(got, f64_product(a, b), rtol=1e-4)

    def test_padding_neutrality(self):
        rng = np.random.default_rng(7)
        a, b = rand(rng, 5, 3), rand(rng, 3, 7)
        exact = blocked(a, b, masim.partition(5, 7, 3, 5, 7))
        padded = blocked(a, b, masim.partition(5, 7, 3, 8, 8))
        assert np.array_equal(exact, padded)


class TestMaxRelError:
    """The float64 oracle: a matmul over bounded output panels."""

    def test_agrees_with_float64_k_loop(self, monkeypatch):
        rng = np.random.default_rng(8)
        a, b = rand(rng, 45, 70), rand(rng, 70, 83)
        out = masim.reference_gemm(a, b)
        ref = k_loop(a, b, np.float64)
        want = (np.abs(out - ref) / np.abs(ref)).max()
        assert masim.max_rel_error(a, b, out) == pytest.approx(want, rel=1e-6)
        for panel in ((32, 64, 16), (7, 5, 3), (45, 83, 70), (100, 100, 1)):
            monkeypatch.setattr(blockmm, "ORACLE_PANEL", panel)
            assert masim.max_rel_error(a, b, out) == pytest.approx(want, rel=1e-6), panel

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
