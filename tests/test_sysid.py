import math

import numpy as np
import pytest

from wncs.lti import DiscreteTf, filter_sequence
from wncs.models import pulse_tf_exact
from wncs.sysid import (
    ArxModel,
    SampleSeries,
    arx_to_first_order_ct,
    fit_arx,
    normalize,
    percent_fit,
    read_sample_csv,
)


def _series_from(tf, n=300, seed=2):
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, n)
    y = filter_sequence(tf, u)
    return SampleSeries(tf.sample_time, u, y)


class TestSampleSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SampleSeries(0.02, np.ones(5), np.ones(4))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            SampleSeries(0.02, np.ones(3), np.ones(3))

    def test_bad_sample_time_rejected(self):
        with pytest.raises(ValueError):
            SampleSeries(0.0, np.ones(8), np.ones(8))

    @pytest.mark.parametrize("name", ["inputs", "outputs"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, name, bad):
        # before the check, fit_arx on such a series printed LAPACK DLASCL
        # lines and raised LinAlgError
        rng = np.random.default_rng(0)
        arrays = {"inputs": rng.uniform(0.0, 1.0, 10), "outputs": rng.uniform(0.0, 1.0, 10)}
        arrays[name][6] = bad
        arrays[name][8] = bad
        with pytest.raises(ValueError, match=rf"^{name}\[6\] is not finite$"):
            fit_arx(SampleSeries(0.02, arrays["inputs"], arrays["outputs"]), 1, 1, 1)


class TestReadSampleCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        rows = ["t,u,y"] + [f"{k*0.02:.10g},{k},{2*k}" for k in range(6)]
        path.write_text("\n".join(rows) + "\n")
        series = read_sample_csv(path)
        assert series.sample_time == pytest.approx(0.02)
        np.testing.assert_allclose(series.inputs, np.arange(6))
        np.testing.assert_allclose(series.outputs, 2 * np.arange(6))

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("time,u,y\n0,0,0\n")
        with pytest.raises(ValueError, match="line 1"):
            read_sample_csv(path)

    def test_nonuniform_time_base(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("t,u,y\n0,1,1\n0.02,1,1\n0.05,1,1\n0.07,1,1\n")
        with pytest.raises(ValueError, match="line 4"):
            read_sample_csv(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("t,u,y\n0,1,1\n0.02,x,1\n0.04,1,1\n0.06,1,1\n")
        with pytest.raises(ValueError, match="line 3"):
            read_sample_csv(path)

    @pytest.mark.parametrize(
        "row, lineno",
        [("nan,1,1", 2), ("0.02,inf,1", 3), ("0.04,1,-inf", 4), ("0.02,1,1e999", 3)],
    )
    def test_non_finite_field(self, tmp_path, row, lineno):
        rows = ["0,1,1", "0.02,1,1", "0.04,1,1", "0.06,1,1"]
        rows[lineno - 2] = row
        path = tmp_path / "data.csv"
        path.write_text("t,u,y\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=f"line {lineno}: non-finite field"):
            read_sample_csv(path)


class TestNormalize:
    def test_scales_both_channels_to_unit_range(self):
        series = SampleSeries(0.02, np.array([2.0, 4.0, 6.0, 8.0]), np.array([10.0, 0.0, 5.0, 10.0]))
        scaled = normalize(series)
        assert scaled.inputs.min() == 0.0 and scaled.inputs.max() == 1.0
        assert scaled.outputs.min() == 0.0 and scaled.outputs.max() == 1.0

    def test_constant_channel_rejected(self):
        series = SampleSeries(0.02, np.ones(6), np.arange(6.0))
        with pytest.raises(ValueError, match="constant"):
            normalize(series)


class TestFitArx:
    def test_recovers_first_order_exactly(self):
        tf = pulse_tf_exact()
        model = fit_arx(_series_from(tf), 1, 1, 1)
        assert model.a_coeffs[0] == pytest.approx(tf.den[1], abs=1e-10)
        assert model.b_coeffs[0] == pytest.approx(tf.num[1], abs=1e-10)
        assert model.residual_ss < 1e-20

    def test_recovers_second_order_exactly(self):
        g2 = DiscreteTf((0.0, 0.2, 0.1), (1.0, -1.1, 0.3), 0.02)
        model = fit_arx(_series_from(g2), 2, 2, 1)
        np.testing.assert_allclose(model.a_coeffs, (-1.1, 0.3), atol=1e-9)
        np.testing.assert_allclose(model.b_coeffs, (0.2, 0.1), atol=1e-9)

    def test_simulate_matches_source(self):
        tf = pulse_tf_exact()
        series = _series_from(tf)
        model = fit_arx(series, 1, 1, 1)
        np.testing.assert_allclose(model.simulate(series.inputs), series.outputs, atol=1e-8)

    def test_to_discrete_tf_carries_delay_zeros(self):
        model = ArxModel(a_coeffs=(-0.9,), b_coeffs=(0.5,), delay_nk=2, sample_time=0.02, residual_ss=0.0)
        tf = model.to_discrete_tf()
        assert tf.num == (0.0, 0.0, 0.5)
        assert tf.den == (1.0, -0.9)

    def test_no_excitation_rejected(self):
        n = 40
        series = SampleSeries(0.02, np.zeros(n), np.zeros(n))
        with pytest.raises(ValueError):
            fit_arx(series, 1, 1, 1)

    def test_too_short_rejected(self):
        series = SampleSeries(0.02, np.ones(4), np.arange(4.0))
        with pytest.raises(ValueError):
            fit_arx(series, 3, 3, 1)

    def test_bad_orders_rejected(self):
        series = _series_from(pulse_tf_exact(), n=50)
        with pytest.raises(ValueError):
            fit_arx(series, -1, 1, 1)
        with pytest.raises(ValueError):
            fit_arx(series, 1, 0, 1)
        with pytest.raises(ValueError):
            fit_arx(series, 1, 1, 0)


class TestPercentFit:
    def test_perfect_match_is_hundred(self):
        y = np.array([0.0, 1.0, 2.0, 1.5])
        assert percent_fit(y, y) == 100.0

    def test_known_value(self):
        y = np.array([0.0, 1.0])
        yh = np.array([1.0, 0.0])
        # ||e|| = sqrt(2), ||y - mean|| = sqrt(0.5): 100 (1 - 2) = -100
        assert percent_fit(yh, y) == pytest.approx(-100.0)

    def test_constant_actual_rejected(self):
        with pytest.raises(ValueError):
            percent_fit(np.ones(4), np.ones(4))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            percent_fit(np.ones(3), np.ones(4))


class TestContinuousReconstruction:
    def test_roundtrip_from_exact_pulse_model(self):
        model = fit_arx(_series_from(pulse_tf_exact()), 1, 1, 1)
        ct = arx_to_first_order_ct(model)
        assert ct.num[0] == pytest.approx(4.159, abs=1e-8)
        assert ct.den[0] == pytest.approx(3.888, abs=1e-8)

    def test_rounded_device_coefficients(self):
        # reconstructing from the rounded pulse coefficients gives the
        # slightly different continuous pair they imply
        model = ArxModel(a_coeffs=(-0.92,), b_coeffs=(0.0831,), delay_nk=1, sample_time=0.02, residual_ss=0.0)
        ct = arx_to_first_order_ct(model)
        a = -math.log(0.92) / 0.02
        assert ct.den[0] == pytest.approx(a, rel=1e-12)
        assert ct.num[0] == pytest.approx(a * 0.0831 / 0.08, rel=1e-12)

    def test_wrong_structure_rejected(self):
        model = ArxModel(a_coeffs=(-0.9, 0.1), b_coeffs=(0.5,), delay_nk=1, sample_time=0.02, residual_ss=0.0)
        with pytest.raises(ValueError):
            arx_to_first_order_ct(model)

    def test_unstable_pole_rejected(self):
        model = ArxModel(a_coeffs=(-1.0,), b_coeffs=(0.5,), delay_nk=1, sample_time=0.02, residual_ss=0.0)
        with pytest.raises(ValueError):
            arx_to_first_order_ct(model)
