"""Transfer-function plumbing: construction, discretization, responses.

The discretization tests lean on closed forms a scalar calculator can
check: the step-invariant map of K/(s+a) and the Tustin map of a first-
order lag are both textbook one-liners, so the expected coefficients are
computed inline rather than frozen as opaque literals.
"""

import math

import numpy as np
import pytest

from wncs.lti import (
    ContinuousTf,
    DifferenceEqState,
    DiscreteTf,
    bilinear_discretize,
    feedback_unity,
    filter_sequence,
    freq_response,
    impulse_response,
    series_connect,
    step_response,
    zoh_discretize_first_order,
)
from wncs.models import pulse_tf_exact

MOTOR = ContinuousTf((4.159,), (3.888, 1.0))


def _reference_filter(tf, u):
    # textbook direct-form loop, deliberately naive
    b, a = tf.num, tf.den
    y = np.zeros(len(u))
    for k in range(len(u)):
        acc = 0.0
        for i in range(len(b)):
            if k - i >= 0:
                acc += b[i] * u[k - i]
        for i in range(1, len(a)):
            if k - i >= 0:
                acc -= a[i] * y[k - i]
        y[k] = acc
    return y


class TestContinuousTf:
    def test_trims_trailing_zero_coefficients(self):
        g = ContinuousTf((1.0, 0.0, 0.0), (2.0, 1.0, 0.0))
        assert g.num == (1.0,)
        assert g.den == (2.0, 1.0)

    def test_improper_rejected(self):
        with pytest.raises(ValueError):
            ContinuousTf((1.0, 1.0), (1.0,))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            ContinuousTf((1.0,), (0.0, 0.0))

    def test_negative_dead_time_rejected(self):
        with pytest.raises(ValueError):
            ContinuousTf((1.0,), (1.0, 1.0), dead_time=-0.1)

    def test_dc_gain(self):
        assert MOTOR.dc_gain() == pytest.approx(4.159 / 3.888, abs=1e-12)

    def test_dc_gain_integrator_rejected(self):
        with pytest.raises(ValueError):
            ContinuousTf((1.0,), (0.0, 1.0)).dc_gain()


class TestDiscreteTf:
    def test_normalizes_leading_denominator(self):
        g = DiscreteTf((2.0, 4.0), (2.0, -1.0), 0.02)
        assert g.num == (1.0, 2.0)
        assert g.den == (1.0, -0.5)

    def test_zero_leading_denominator_rejected(self):
        with pytest.raises(ValueError):
            DiscreteTf((1.0,), (0.0, 1.0), 0.02)

    def test_bad_sample_time_rejected(self):
        with pytest.raises(ValueError):
            DiscreteTf((1.0,), (1.0,), 0.0)

    def test_dc_gain(self):
        g = DiscreteTf((0.0, 0.0831), (1.0, -0.92), 0.02)
        assert g.dc_gain() == pytest.approx(0.0831 / 0.08, rel=1e-12)

    def test_dc_gain_pole_at_one_rejected(self):
        with pytest.raises(ValueError):
            DiscreteTf((1.0,), (1.0, -1.0), 0.02).dc_gain()


class TestZohDiscretize:
    def test_exact_motor_coefficients(self):
        g = zoh_discretize_first_order(4.159, 3.888, 0.02)
        p = math.exp(-3.888 * 0.02)
        b1 = (4.159 / 3.888) * (1.0 - p)
        assert g.num == (0.0, pytest.approx(b1, abs=1e-15))
        assert g.den == (1.0, pytest.approx(-p, abs=1e-15))
        # the device documentation rounds these to 0.0831 and 0.92
        assert b1 == pytest.approx(0.0831, abs=0.004)
        assert p == pytest.approx(0.92, abs=0.006)

    def test_frozen_reference_values(self):
        g = zoh_discretize_first_order(4.159, 3.888, 0.02)
        assert g.num[1] == pytest.approx(0.0800281833109718, abs=1e-9)
        assert -g.den[1] == pytest.approx(0.9251864446470165, abs=1e-9)

    def test_dc_gain_preserved(self):
        g = zoh_discretize_first_order(4.159, 3.888, 0.02)
        assert g.dc_gain() == pytest.approx(4.159 / 3.888, rel=1e-12)

    def test_unit_gain_limit(self):
        # K = a with a long sample time drives the pole to 0 and DC to 1
        g = zoh_discretize_first_order(7.0, 7.0, 10.0)
        assert g.dc_gain() == pytest.approx(1.0, abs=1e-12)
        assert abs(g.den[1]) < 1e-12

    @pytest.mark.parametrize("gain,pole,T", [(1.0, 0.0, 0.02), (1.0, -1.0, 0.02), (1.0, 1.0, 0.0)])
    def test_domain_errors(self, gain, pole, T):
        with pytest.raises(ValueError):
            zoh_discretize_first_order(gain, pole, T)


class TestBilinear:
    def test_first_order_closed_form(self):
        # Tustin of 1/(s+a): (T(1+z^-1)) / ((2+aT) + (aT-2)z^-1)
        a, T = 3.888, 0.02
        g = bilinear_discretize(ContinuousTf((1.0,), (a, 1.0)), T)
        scale = 2.0 + a * T
        np.testing.assert_allclose(g.num, (T / scale, T / scale), atol=1e-15)
        np.testing.assert_allclose(g.den, (1.0, (a * T - 2.0) / scale), atol=1e-15)

    def test_dc_gain_preserved(self):
        g = ContinuousTf((2.0, 1.0), (4.0, 3.0, 1.0))
        d = bilinear_discretize(g, 0.05)
        assert d.dc_gain() == pytest.approx(g.dc_gain(), rel=1e-12)

    def test_frequency_map_at_prewarp_free_points(self):
        # the z-domain response at omega must equal the s-domain response at
        # the warped frequency (2/T) tan(omega T / 2)
        g = ContinuousTf((1.0,), (1.0, 0.4, 1.0))
        T = 0.05
        d = bilinear_discretize(g, T)
        for w in (0.5, 2.0, 10.0):
            z = np.exp(1j * w * T)
            num = sum(c * z ** -i for i, c in enumerate(d.num))
            den = sum(c * z ** -i for i, c in enumerate(d.den))
            warped = (2.0 / T) * math.tan(w * T / 2.0)
            assert num / den == pytest.approx(freq_response(g, warped), abs=1e-12)

    def test_dead_time_rejected(self):
        with pytest.raises(ValueError):
            bilinear_discretize(ContinuousTf((1.0,), (1.0, 1.0), dead_time=0.1), 0.02)

    def test_degenerate_pole_at_two_over_T(self):
        # a continuous pole at s = 2/T maps to z = infinity
        with pytest.raises(ValueError):
            bilinear_discretize(ContinuousTf((1.0,), (1.0, -0.01)), 0.02)


class TestFreqResponse:
    def test_dc_gain_value(self):
        assert freq_response(MOTOR, 0.0) == pytest.approx(4.159 / 3.888, abs=1e-9)

    def test_unit_magnitude_at_gain_crossover(self):
        wg = math.sqrt(4.159**2 - 3.888**2)
        assert abs(freq_response(MOTOR, wg)) == pytest.approx(1.0, abs=1e-12)

    def test_dead_time_rotates_phase_only(self):
        delayed = ContinuousTf((4.159,), (3.888, 1.0), dead_time=0.3)
        w = 1.7
        bare = freq_response(MOTOR, w)
        shifted = freq_response(delayed, w)
        assert abs(shifted) == pytest.approx(abs(bare), abs=1e-12)
        assert np.angle(shifted) == pytest.approx(np.angle(bare) - w * 0.3, abs=1e-12)

    def test_dead_time_vanishes_at_dc(self):
        delayed = ContinuousTf((4.159,), (3.888, 1.0), dead_time=5.0)
        assert freq_response(delayed, 0.0) == freq_response(MOTOR, 0.0)

    def test_pole_on_axis(self):
        with pytest.raises(ZeroDivisionError):
            freq_response(ContinuousTf((1.0,), (0.0, 1.0)), 0.0)

    def test_negative_omega_rejected(self):
        with pytest.raises(ValueError):
            freq_response(MOTOR, -1.0)


class TestConnections:
    def test_series_is_polynomial_product(self):
        a = DiscreteTf((1.0, 0.5), (1.0, -0.9), 0.02)
        b = DiscreteTf((0.0, 2.0), (1.0, 0.3), 0.02)
        g = series_connect(a, b)
        np.testing.assert_allclose(g.num, np.convolve(a.num, b.num), atol=1e-15)
        np.testing.assert_allclose(g.den, np.convolve(a.den, b.den), atol=1e-15)

    def test_series_rate_mismatch(self):
        a = DiscreteTf((1.0,), (1.0,), 0.02)
        b = DiscreteTf((1.0,), (1.0,), 0.01)
        with pytest.raises(ValueError):
            series_connect(a, b)

    def test_feedback_unity_closed_loop(self):
        g = DiscreteTf((0.0, 0.0831), (1.0, -0.92), 0.02)
        cl = feedback_unity(g)
        np.testing.assert_allclose(cl.num, (0.0, 0.0831), atol=1e-15)
        np.testing.assert_allclose(cl.den, (1.0, -0.92 + 0.0831), atol=1e-15)

    def test_feedback_algebraic_loop(self):
        with pytest.raises(ValueError):
            feedback_unity(DiscreteTf((-1.0,), (1.0,), 0.02))


class TestDifferenceEqState:
    TF = DiscreteTf((0.0, 0.0831), (1.0, -0.92), 0.02)

    def test_peek_does_not_advance(self):
        st = DifferenceEqState(self.TF)
        st.step(1.0)
        before = st.peek(1.0)
        again = st.peek(1.0)
        assert before == again
        assert st.step(1.0) == before

    def test_step_matches_filter_sequence(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(64)
        st = DifferenceEqState(self.TF)
        manual = [st.step(x) for x in u]
        np.testing.assert_allclose(manual, filter_sequence(self.TF, u), atol=1e-12)

    def test_rebind_keeps_newest_history(self):
        # second-order model so the input window holds two past samples
        st = DifferenceEqState(DiscreteTf((0.0, 0.1, 0.05), (1.0, -0.9, 0.1), 0.02))
        st.step(1.0)
        st.step(2.0)
        assert list(st._inputs) == [2.0, 1.0]  # newest first
        wider = DiscreteTf((0.0, 0.1, 0.05, 0.01), (1.0, -0.9, 0.1, 0.05), 0.02)
        st.rebind(wider)
        assert st.tf is wider
        assert list(st._inputs) == [2.0, 1.0, 0.0]  # zero-padded oldest side
        narrower = DiscreteTf((0.0, 0.2), (1.0, -0.5), 0.02)
        st.rebind(narrower)
        assert list(st._inputs) == [2.0]  # oldest entries dropped

    def test_rebind_to_identity_empties_memory(self):
        st = DifferenceEqState(self.TF)
        st.step(3.0)
        st.rebind(DiscreteTf((1.0,), (1.0,), 0.02))
        assert st.step(7.0) == 7.0


class TestFilterSequence:
    @pytest.mark.parametrize(
        "tf",
        [
            pulse_tf_exact(),
            DiscreteTf((0.5, 0.2, -0.1, 0.05), (1.0, -1.2, 0.5, -0.08), 0.02),
            DiscreteTf((0.0, 0.0, 0.3, 0.1), (1.0, -0.7), 0.02),  # ARX-style input delay
            DiscreteTf((1.0,), (1.0,), 0.02),
        ],
        ids=["motor", "third-order", "leading-zeros", "identity"],
    )
    def test_matches_reference_loop(self, tf):
        u = np.random.default_rng(11).standard_normal(300)
        y = filter_sequence(tf, u)
        assert y.dtype == np.float64
        np.testing.assert_array_equal(y, _reference_filter(tf, u))

    def test_empty_input(self):
        y = filter_sequence(DiscreteTf((1.0,), (1.0,), 0.02), np.zeros(0))
        assert y.dtype == np.float64 and y.size == 0


class TestResponses:
    def test_impulse_of_first_order_pulse_model(self):
        tf = zoh_discretize_first_order(4.159, 3.888, 0.02)
        b1, p = tf.num[1], -tf.den[1]
        y = impulse_response(tf, 8)
        ref = [0.0] + [b1 * p**k for k in range(7)]
        np.testing.assert_allclose(y, ref, atol=1e-14)

    def test_step_approaches_dc_gain(self):
        tf = zoh_discretize_first_order(4.159, 3.888, 0.02)
        y = step_response(tf, 600)
        assert y[-1] == pytest.approx(tf.dc_gain(), rel=1e-6)

    def test_step_is_cumulative_impulse(self):
        tf = DiscreteTf((0.5, 0.2), (1.0, -0.7), 0.02)
        np.testing.assert_allclose(
            step_response(tf, 40), np.cumsum(impulse_response(tf, 40)), atol=1e-12
        )
