"""Delay-margin analysis tests.

Oracles are closed forms: for K/(s + a) with K > a the unit-magnitude
crossing is at sqrt(K^2 - a^2) and the margin at dead time tau is
180 - atan(wg/a)*180/pi - wg*tau*180/pi. The tabulated margins those
formulas produce were cross-checked by hand at tau = 0 and tau = 2
(159.19 and -10.11 degrees for the stock loop).

nyquist_locus evaluates its grid as arrays; the per-point scalar path it
replaced stays here as its reference, held equal bit for bit.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wncs.lti import ContinuousTf, freq_response
from wncs import models
from wncs.models import MAX_DURATION_S, motor_ct_tf
from wncs.stability import (
    MarginReport,
    default_omega_grid,
    encirclements,
    gain_crossover,
    margin_table,
    nyquist_locus,
    phase_margin,
)

# (tau_d seconds, phase margin degrees) for the 4.159/(s + 3.888) loop
MARGIN_ROWS = (
    (0.0, 159.19),
    (0.04, 156.68),
    (0.120, 148.73),
    (0.180, 144.83),
    (0.240, 139.30),
    (0.300, 134.02),
    (0.400, 126.31),
    (0.600, 106.0),
    (1.0, 74.53),
    (2.0, -10.11),
)


def _analytic_wg(k, a):
    return math.sqrt(k * k - a * a)


def _analytic_pm(k, a, tau):
    wg = _analytic_wg(k, a)
    return 180.0 - math.degrees(math.atan2(wg, a)) - math.degrees(wg * tau)


class TestGainCrossover:
    def test_stock_loop_closed_form(self):
        wg = gain_crossover(motor_ct_tf())
        assert wg == pytest.approx(_analytic_wg(4.159, 3.888), abs=1e-9)
        assert wg == pytest.approx(1.4767318646253784, abs=1e-9)

    def test_unit_pole_closed_form(self):
        wg = gain_crossover(ContinuousTf((2.0,), (1.0, 1.0)))
        assert wg == pytest.approx(math.sqrt(3.0), abs=1e-9)

    def test_crossing_magnitude_is_unity(self):
        wg = gain_crossover(motor_ct_tf())
        assert abs(freq_response(motor_ct_tf(), wg)) == pytest.approx(1.0, abs=1e-9)

    def test_low_gain_loop_rejected(self):
        with pytest.raises(ValueError, match="no gain crossover"):
            gain_crossover(ContinuousTf((0.5,), (1.0, 1.0)))

    def test_unity_dc_gain_rejected(self):
        with pytest.raises(ValueError):
            gain_crossover(ContinuousTf((1.0,), (1.0, 1.0)))


class TestPhaseMargin:
    @pytest.mark.parametrize("tau,expected", MARGIN_ROWS)
    def test_tabulated_margins(self, tau, expected):
        report = phase_margin(motor_ct_tf(), tau)
        assert report.phase_margin_deg == pytest.approx(expected, abs=2.5)

    def test_matches_analytic_formula(self):
        for tau in (0.0, 0.3, 1.7):
            report = phase_margin(motor_ct_tf(), tau)
            assert report.phase_margin_deg == pytest.approx(
                _analytic_pm(4.159, 3.888, tau), abs=1e-7
            )

    def test_margin_is_affine_in_dead_time(self):
        # pm(tau) - pm(0) must be exactly -wg*tau in degrees
        base = phase_margin(motor_ct_tf(), 0.0)
        for tau in (0.25, 0.8, 1.5):
            report = phase_margin(motor_ct_tf(), tau)
            drop = math.degrees(base.gain_crossover_omega * tau)
            assert report.phase_margin_deg == pytest.approx(
                base.phase_margin_deg - drop, abs=1e-9
            )

    def test_stability_flag_flips_between_one_and_two_seconds(self):
        assert phase_margin(motor_ct_tf(), 1.0).stable is True
        assert phase_margin(motor_ct_tf(), 2.0).stable is False

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            phase_margin(motor_ct_tf(), -0.1)


class TestMarginTable:
    def test_matches_single_calls(self):
        taus = [row[0] for row in MARGIN_ROWS]
        table = margin_table(motor_ct_tf(), taus)
        for row, tau in zip(table, taus):
            single = phase_margin(motor_ct_tf(), tau)
            assert isinstance(row, MarginReport)
            assert row.phase_margin_deg == pytest.approx(single.phase_margin_deg, abs=1e-9)
            assert row.gain_crossover_omega == pytest.approx(single.gain_crossover_omega)
            assert row.stable == single.stable

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            margin_table(motor_ct_tf(), [0.1, -0.2])

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            margin_table(motor_ct_tf(), [0.1, tau])
        with pytest.raises(ValueError, match="finite and nonnegative"):
            phase_margin(motor_ct_tf(), tau)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            nyquist_locus(motor_ct_tf(), tau)

    def test_huge_tau_rejected(self):
        # finite, but the phase lag in degrees overflows
        with pytest.raises(ValueError, match="tau_d = 1e\\+308 is too large"):
            margin_table(motor_ct_tf(), [0.1, 1e308])
        with pytest.raises(ValueError, match="tau_d = 1e\\+308 is too large"):
            nyquist_locus(motor_ct_tf(), 1e308)

    def test_one_dead_time_bound(self):
        # both accept the bound itself and reject the next float above it
        margin_table(motor_ct_tf(), [MAX_DURATION_S])
        nyquist_locus(motor_ct_tf(), MAX_DURATION_S)
        above = math.nextafter(MAX_DURATION_S, math.inf)
        with pytest.raises(ValueError, match="is too large"):
            margin_table(motor_ct_tf(), [0.1, above])
        with pytest.raises(ValueError, match="is too large"):
            nyquist_locus(motor_ct_tf(), above)


class TestNyquist:
    def test_locus_shape_and_dc_limit(self):
        locus = nyquist_locus(motor_ct_tf(), 0.0)
        assert locus.omegas.shape == locus.points.shape
        # low-frequency end approaches the DC gain 4.159/3.888
        assert locus.points[0] == pytest.approx(4.159 / 3.888, abs=1e-3)

    def test_grid_validation(self):
        # the grid is the module's own; only the dead time is checked
        with pytest.raises(ValueError):
            nyquist_locus(motor_ct_tf(), -0.5)

    def test_dead_time_rotates_phase_only(self):
        bare = nyquist_locus(motor_ct_tf(), 0.0)
        delayed = nyquist_locus(motor_ct_tf(), 0.3)
        np.testing.assert_array_equal(delayed.omegas, bare.omegas)
        np.testing.assert_allclose(np.abs(delayed.points), np.abs(bare.points), rtol=1e-12)
        # the added lag is omega*tau, up to whole turns
        lag = np.angle(bare.points) - np.angle(delayed.points)
        turns = (lag - delayed.omegas * 0.3) / (2.0 * math.pi)
        np.testing.assert_allclose(turns, np.round(turns), rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("gain", [4.159, 1e11, 5e11])
    def test_every_point_finite_at_the_dead_time_bound(self, gain):
        # Why the locus needs no phase-lag check: the grid tops out at
        # 2*omega_g, gain_crossover keeps omega_g below 2^39 rad/s, so at
        # MAX_DURATION_S the lag omega*tau stays below about 4e15 rad.
        loop = ContinuousTf((gain,), (3.888, 1.0))
        wg = gain_crossover(loop)
        assert wg == pytest.approx(_analytic_wg(gain, 3.888), rel=1e-9)
        locus = nyquist_locus(loop, MAX_DURATION_S)
        assert locus.omegas[-1] == pytest.approx(max(1e3, 2.0 * wg))
        assert np.isfinite(locus.points).all()

    @pytest.mark.parametrize("tau,winding", [(0.0, 0), (0.3, 0), (1.0, 0), (2.0, 2)])
    def test_winding_count_tracks_margin_sign(self, tau, winding):
        assert encirclements(nyquist_locus(motor_ct_tf(), tau)) == winding

    def test_small_loop_never_encircles(self):
        # |G| < 1 everywhere: the locus cannot reach the critical point
        locus = nyquist_locus(ContinuousTf((0.5,), (1.0, 1.0)), 2.0)
        assert encirclements(locus) == 0

    def test_locus_through_critical_point_rejected(self):
        # a pure gain of -1 is the degenerate case: every point sits on -1
        locus = nyquist_locus(ContinuousTf((-1.0,), (1.0,)), 0.0)
        with pytest.raises(ValueError, match="critical point"):
            encirclements(locus)



def _pi_loop():
    """The shipped PI on the motor, duty bytes to rev/s: g(ki + kp s) / (s(s + a))."""
    g = models.MOTOR_GAIN * models.SPEED_SPAN_RPS / models.DUTY_SPAN
    kp, ki, a = models.DEFAULT_KP, models.DEFAULT_KI, models.MOTOR_POLE
    return ContinuousTf((ki * g, kp * g), (0.0, a, 1.0)), (g, kp, ki, a)


def _pi_loop_wg(g, kp, ki, a):
    # |G(jw)| = 1 is w^4 + (a^2 - g^2 kp^2) w^2 - g^2 ki^2 = 0, a quadratic in w^2
    b = a * a - (g * kp) ** 2
    return math.sqrt((-b + math.sqrt(b * b + 4.0 * (g * ki) ** 2)) / 2.0)


class TestTypeOneLoop:
    """A pole at s = 0, as in every loop with a PI: |G(0)| is infinite."""

    def test_integrator_with_a_lag_closed_form(self):
        # 2/(s(s + 1)): w^4 + w^2 - 4 = 0
        wg = gain_crossover(ContinuousTf((2.0,), (0.0, 1.0, 1.0)))
        assert wg == pytest.approx(math.sqrt((math.sqrt(17.0) - 1.0) / 2.0), rel=1e-12)

    def test_pi_loop_crossover_closed_form(self):
        loop, params = _pi_loop()
        wg = gain_crossover(loop)
        assert wg == pytest.approx(_pi_loop_wg(*params), rel=1e-12)
        assert wg == pytest.approx(5.7514, abs=5e-5)
        assert abs(freq_response(loop, wg)) == pytest.approx(1.0, abs=1e-12)

    def test_pi_loop_margins(self):
        loop, (g, kp, ki, a) = _pi_loop()
        wg = _pi_loop_wg(g, kp, ki, a)
        # angle of G(jw) = atan(kp w / ki) - 90 deg - atan(w / a)
        pm0 = 90.0 + math.degrees(math.atan2(kp * wg, ki) - math.atan2(wg, a))
        reports = margin_table(loop, [0.0, 0.2, 0.3])
        for tau, rep in zip([0.0, 0.2, 0.3], reports):
            assert rep.phase_margin_deg == pytest.approx(pm0 - math.degrees(wg * tau), abs=1e-9)
        assert reports[0].phase_margin_deg == pytest.approx(86.627, abs=5e-4)
        assert [rep.stable for rep in reports] == [True, True, False]
        # the delay margin: the dead time that takes the margin to zero
        assert math.radians(reports[0].phase_margin_deg) / wg == pytest.approx(0.26288, abs=5e-6)

    def test_grid_densified_around_the_crossover(self):
        loop, params = _pi_loop()
        wg = _pi_loop_wg(*params)
        grid = default_omega_grid(loop)
        assert grid.size > 1000
        dense = grid[(grid >= wg / 2.0 * (1 - 1e-12)) & (grid <= wg * 2.0 * (1 + 1e-12))]
        assert dense.size >= 200

    def test_locus_runs_from_the_grid(self):
        loop, _ = _pi_loop()
        locus = nyquist_locus(loop, 0.2)
        assert locus.omegas[0] == 1e-3
        assert np.isfinite(locus.points).all()
        # the integrator's -90 degrees dominates the low end
        assert abs(locus.points[0]) > 1e3


def _scalar_locus(ctf, tau):
    """The locus one point at a time, in the interpreter's complex arithmetic."""
    omegas = default_omega_grid(ctf)
    return np.array([freq_response(ctf, w) * cmath.exp(-1j * w * tau) for w in omegas])


def _outcome(evaluate):
    """evaluate()'s value, or the error a pole or an overflowing |G| raised."""
    try:
        return evaluate()
    except (ZeroDivisionError, OverflowError) as exc:
        return exc


# Coefficients of either sign, 1e-300 to 1e300 in size; zeros of either
# sign below the top one.
_SIZED = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
    st.sampled_from([1.0, -1.0]),
    st.floats(1.0, 9.99),
    st.integers(-300, 299),
)
_COEFF = st.one_of(st.sampled_from([0.0, -0.0]), _SIZED)


@st.composite
def _loops(draw):
    den_degree = draw(st.integers(0, 4))
    num_degree = draw(st.integers(0, den_degree))
    num = draw(st.lists(_COEFF, min_size=num_degree, max_size=num_degree)) + [draw(_SIZED)]
    den = draw(st.lists(_COEFF, min_size=den_degree, max_size=den_degree)) + [draw(_SIZED)]
    return ContinuousTf(tuple(num), tuple(den))


class TestNyquistArrays:
    @settings(deadline=None)
    @given(
        ctf=_loops(),
        tau=st.one_of(
            st.sampled_from([row[0] for row in MARGIN_ROWS]), st.floats(0.0, MAX_DURATION_S)
        ),
    )
    # G(jw) real, its zero imaginary part signed: Horner's "+ 0.0" decides it
    @example(ctf=ContinuousTf((-1.0, -0.0, -1.0), (1.0, -0.0, -1.0)), tau=0.0)
    # G(jw) infinite: re + 1j*im would make the real part NaN
    @example(ctf=ContinuousTf((1e300,), (1e-300,)), tau=0.3)
    def test_bit_equal_to_the_scalar_path(self, ctf, tau):
        want = _outcome(lambda: _scalar_locus(ctf, tau))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(lambda: nyquist_locus(ctf, tau))
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            return
        np.testing.assert_array_equal(got.omegas, default_omega_grid(ctf))
        got = np.concatenate([got.points.real, got.points.imag])
        want = np.concatenate([want.real, want.imag])
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        np.testing.assert_array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))

    def test_pole_on_the_axis_raises_as_the_scalar_path(self):
        # 1/(s^2 + w0^2) with w0 a point of the plain grid; |G(0)| < 1, so
        # there is no crossover and the grid is the plain one
        w0 = np.geomspace(1e-3, 1e3, 1000)[700]
        assert w0 >= 1.0
        ctf = ContinuousTf((1.0,), (w0 * w0, 0.0, 1.0))
        with pytest.raises(ZeroDivisionError) as scalar:
            _scalar_locus(ctf, 0.3)
        assert str(scalar.value) == f"pole on the imaginary axis at omega = {w0}"
        with pytest.raises(ZeroDivisionError) as arrays:
            nyquist_locus(ctf, 0.3)
        assert str(arrays.value) == str(scalar.value)
