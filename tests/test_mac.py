import math

import pytest

import masim
from masim import mac


class TestTransferPlan:
    """The one traffic rule, mac.block_bytes: (in_bytes, out_bytes)."""

    def test_conv1_block_bytes(self):
        assert sum(mac.block_bytes(128, 128, 363)) == 4 * (46464 + 46464 + 16384) == 437248

    def test_minimal_block(self):
        assert mac.block_bytes(1, 1, 1) == (8, 4)
        assert sum(mac.block_bytes(1, 1, 1)) == 12

    def test_rectangular_block(self):
        assert sum(mac.block_bytes(128, 64, 100)) == 4 * (12800 + 6400 + 8192) == 109568

    def test_in_out_split(self):
        assert mac.block_bytes(8, 8, 4) == (4 * (8 * 4 + 8 * 4), 4 * 64)

    def test_byte_accounting_formula(self):
        for si, sj, k in [(1, 1, 1), (3, 5, 7), (128, 96, 363), (64, 64, 1200)]:
            assert sum(mac.block_bytes(si, sj, k)) == 4 * (si * k + sj * k + si * sj)


class TestParametricBandwidth:
    def test_documented_point(self):
        m = masim.ParametricBandwidth(3.2e9, 64, 0.3)
        assert masim.effective_bandwidth(m, 1, 64) == pytest.approx(1.6e9)

    def test_monotone_in_block_rows(self):
        m = masim.ParametricBandwidth()
        for n_p in (1, 2, 3, 4):
            rates = [masim.effective_bandwidth(m, n_p, s) for s in (8, 16, 64, 128, 256)]
            assert rates == sorted(rates)

    def test_monotone_in_array_count(self):
        m = masim.ParametricBandwidth()
        for s in (8, 64, 256):
            rates = [masim.effective_bandwidth(m, n_p, s) for n_p in (1, 2, 3, 4)]
            assert rates == sorted(rates, reverse=True)

    def test_doubling_block_never_hurts(self):
        m = masim.ParametricBandwidth(2.5e9, 32, 0.1)
        for s in (1, 7, 64, 200):
            assert masim.effective_bandwidth(m, 2, 2 * s) >= masim.effective_bandwidth(m, 2, s)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            masim.ParametricBandwidth(peak_bps=0)
        with pytest.raises(ValueError):
            masim.ParametricBandwidth(contention=-0.1)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                masim.ParametricBandwidth(latency_elems=bad)
            with pytest.raises(ValueError):
                masim.ParametricBandwidth(contention=bad)

    def test_validates_arguments(self):
        m = masim.ParametricBandwidth()
        with pytest.raises(ValueError):
            masim.effective_bandwidth(m, 0, 8)
        with pytest.raises(ValueError):
            masim.effective_bandwidth(m, 1, 0)


class TestTableBandwidth:
    TABLE = {
        (1, 16): 8e8, (1, 32): 1.0e9, (1, 64): 1.5e9,
        (2, 16): 5e8, (2, 32): 7e8, (2, 64): 1.1e9,
    }

    def test_exact_lookup(self):
        t = masim.TableBandwidth(self.TABLE)
        assert masim.effective_bandwidth(t, 1, 32) == 1.0e9

    def test_interpolation_and_clamping(self):
        t = masim.TableBandwidth(self.TABLE)
        assert masim.effective_bandwidth(t, 1, 48) == pytest.approx(1.25e9)
        assert masim.effective_bandwidth(t, 1, 8) == 8e8
        assert masim.effective_bandwidth(t, 1, 500) == 1.5e9

    def test_missing_array_count(self):
        t = masim.TableBandwidth(self.TABLE)
        with pytest.raises(masim.CalibrationMissingError):
            masim.effective_bandwidth(t, 3, 32)

    def test_rejects_nonmonotone_in_block(self):
        bad = dict(self.TABLE)
        bad[(1, 64)] = 9e8   # falls below (1, 32)
        with pytest.raises(masim.CalibrationError):
            masim.TableBandwidth(bad)

    def test_rejects_rising_with_array_count(self):
        bad = dict(self.TABLE)
        bad[(2, 64)] = 1.6e9   # above (1, 64)
        with pytest.raises(masim.CalibrationError):
            masim.TableBandwidth(bad)

    def test_csv_round_trip(self, tmp_path):
        t = masim.TableBandwidth(self.TABLE)
        path = tmp_path / "cal.csv"
        t.to_csv(path)
        back = masim.TableBandwidth.from_csv(path)
        assert back.table == t.table

    def test_csv_requires_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,16,8e8\n")
        with pytest.raises(masim.CalibrationError):
            masim.TableBandwidth.from_csv(path)

    def test_empty_table_rejected(self):
        with pytest.raises(masim.CalibrationError):
            masim.TableBandwidth({})


class TestTransferTime:
    """One block's transfer time, the model's load_seconds: padded block
    bytes / rate."""

    @staticmethod
    def load(shape, point, rate):
        flat = masim.Machine(bw_model=masim.ParametricBandwidth(rate, 0, 0))
        return masim.bounds(shape, point, flat).load_seconds

    def test_conv1_at_documented_rate(self):
        shape = masim.ProblemShape(96, 363, 3025)
        assert self.load(shape, masim.DesignPoint(1, 128), 1.6e9) \
            == pytest.approx(273.28e-6)

    def test_bytes_equal_rate(self):
        shape = masim.ProblemShape(1, 1, 1)
        assert self.load(shape, masim.DesignPoint(1, 1), 12.0) == 1.0

    def test_fc6_block(self):
        assert sum(mac.block_bytes(128, 128, 9216)) == 9502720
        shape = masim.ProblemShape(128, 9216, 4096)
        assert self.load(shape, masim.DesignPoint(2, 128), 2.0e9) \
            == pytest.approx(4.75136e-3)

    def test_rejects_nonpositive_rate(self, tmp_path):
        # effective_bandwidth is the one lookup: the model and the
        # simulator both reject a rate that is not positive
        class Stalled:
            def rate(self, n_arrays, block_rows):
                return 0.0

        with pytest.raises(ValueError, match="positive"):
            masim.effective_bandwidth(Stalled(), 1, 1)
        machine = masim.Machine(bw_model=Stalled())
        with pytest.raises(ValueError, match="positive"):
            masim.bounds(masim.ProblemShape(1, 1, 1), masim.DesignPoint(1, 1), machine)
        with pytest.raises(ValueError, match="positive"):
            masim.run_mpe(masim.ProblemShape(1, 1, 1), masim.DesignPoint(1, 1), machine,
                          trace_path=tmp_path / "t.csv")
        assert not (tmp_path / "t.csv").exists()

    def test_ideal_bandwidth_is_instant(self):
        ideal = masim.IdealBandwidth()
        bw = masim.effective_bandwidth(ideal, 4, 8)
        assert math.isinf(bw)
        shape = masim.ProblemShape(8, 8, 8)
        machine = masim.Machine(bw_model=ideal)
        assert masim.bounds(shape, masim.DesignPoint(4, 8), machine).load_seconds == 0.0
