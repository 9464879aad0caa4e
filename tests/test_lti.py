"""Transfer-function plumbing: construction, discretization, responses.

The discretization tests lean on closed forms a scalar calculator can
check: the step-invariant map of K/(s+a) and the Tustin map of a first-
order lag are both textbook one-liners, so the expected coefficients are
computed inline rather than frozen as opaque literals.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wncs.lti import (
    ContinuousTf,
    DifferenceEqState,
    DiscreteTf,
    bilinear_discretize,
    filter_sequence,
    freq_response,
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


def _reference_tustin(ctf, T):
    # generic n-th-order Tustin by polynomial products, ascending in z^-1
    n = len(ctf.den) - 1
    c = 2.0 / T

    def substitute(coeffs):
        acc = np.zeros(n + 1)
        for i, ci in enumerate(coeffs):
            term = np.array([ci * c**i])
            for _ in range(i):
                term = np.convolve(term, [-1.0, 1.0])
            for _ in range(n - i):
                term = np.convolve(term, [1.0, 1.0])
            acc += term
        return tuple(acc[::-1].tolist())

    return substitute(ctf.num), substitute(ctf.den)


def _stepped(tf, u):
    # the stateful reference: a fresh DifferenceEqState, one step per sample
    state = DifferenceEqState(tf)
    return np.array([state.step(x) for x in np.asarray(u, dtype=np.float64).tolist()])


def _hex(tf):
    return tuple(x.hex() for x in tf.num), tuple(x.hex() for x in tf.den)


def _random_coeffs(rng, k):
    # magnitudes over six decades, with exact and signed zeros mixed in
    c = rng.standard_normal(k) * 10.0 ** rng.integers(-3, 4, k)
    c[rng.random(k) < 0.1] = 0.0
    c[rng.random(k) < 0.1] = -0.0
    return tuple(c.tolist())


# coefficients with exact and signed zeros; samples up to 1e300, so sums
# overflow to inf and inf - inf makes nan
_COEFFS = st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0)
_SAMPLES = st.sampled_from([0.0, -0.0]) | st.floats(-1e300, 1e300)


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

    def test_degenerate_pole_at_two_over_T(self):
        # a continuous pole at s = 2/T maps to z = infinity
        with pytest.raises(ValueError):
            bilinear_discretize(ContinuousTf((1.0,), (1.0, -0.01)), 0.02)

    def test_matches_generic_map_bit_for_bit(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            n = int(rng.integers(0, 3))
            den = _random_coeffs(rng, n) + (float(rng.uniform(0.01, 10.0)),)
            ctf = ContinuousTf(_random_coeffs(rng, int(rng.integers(1, n + 2))), den)
            T = float(rng.choice([0.02, 1e-3, 0.05, 0.7]))
            num, den = _reference_tustin(ctf, T)
            if abs(den[0]) <= 1e-12 * max(abs(x) for x in den):
                with pytest.raises(ValueError, match="degenerate"):
                    bilinear_discretize(ctf, T)
                continue
            assert _hex(bilinear_discretize(ctf, T)) == _hex(DiscreteTf(num, den, T)), ctf

    def test_third_order_rejected(self):
        with pytest.raises(ValueError, match="order at most 2, got 3"):
            bilinear_discretize(ContinuousTf((1.0,), (1.0, 3.0, 3.0, 1.0)), 0.02)


class TestFreqResponse:
    def test_dc_gain_value(self):
        assert freq_response(MOTOR, 0.0) == pytest.approx(4.159 / 3.888, abs=1e-9)

    def test_unit_magnitude_at_gain_crossover(self):
        wg = math.sqrt(4.159**2 - 3.888**2)
        assert abs(freq_response(MOTOR, wg)) == pytest.approx(1.0, abs=1e-12)

    def test_pole_on_axis(self):
        with pytest.raises(ZeroDivisionError):
            freq_response(ContinuousTf((1.0,), (0.0, 1.0)), 0.0)

    def test_negative_omega_rejected(self):
        with pytest.raises(ValueError):
            freq_response(MOTOR, -1.0)


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
        manual = np.array([st.step(x) for x in u])
        assert manual.tobytes() == filter_sequence(self.TF, u).tobytes()

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

    @pytest.mark.parametrize(
        "first, second",
        [
            (DiscreteTf((0.0, 0.1, 0.05), (1.0, -0.9, 0.1), 0.02),
             DiscreteTf((0.2, 0.3, -0.2), (1.0, -0.5, 0.2), 0.02)),
            (DiscreteTf((0.0, 0.0831), (1.0, -0.92), 0.02),
             DiscreteTf((0.4, -0.3, 0.1), (1.0, -1.1, 0.3), 0.02)),
            (DiscreteTf((0.4, -0.3, 0.1), (1.0, -1.1, 0.3), 0.02),
             DiscreteTf((1.0,), (1.0,), 0.02)),
        ],
        ids=["same-shape", "wider", "to-identity"],
    )
    def test_rebound_peek_equals_fresh_state(self, first, second):
        # peek sums over the new coefficients and the refitted windows
        st = DifferenceEqState(first)
        for u in np.random.default_rng(4).standard_normal(5):
            st.step(float(u))
        st.rebind(second)
        fresh = DifferenceEqState(second)
        fresh._inputs.extendleft(reversed(st._inputs))
        fresh._outputs.extendleft(reversed(st._outputs))
        assert list(fresh._inputs) == list(st._inputs)
        assert list(fresh._outputs) == list(st._outputs)
        for u in (0.0, 0.7, -1.3):
            assert st.peek(u) == fresh.peek(u)


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

    @given(
        leading=st.integers(0, 4),
        taps=st.lists(_COEFFS, min_size=1, max_size=5),
        den_tail=st.lists(_COEFFS, max_size=4),
        u=st.lists(_SAMPLES, max_size=60),
    )
    def test_byte_equal_to_stepping_a_state(self, leading, taps, den_tail, u):
        # tobytes, so signed zeros, inf and nan all have to agree
        tf = DiscreteTf(((0.0,) * leading + tuple(taps))[:5], (1.0, *den_tail), 0.02)
        assert filter_sequence(tf, u).tobytes() == _stepped(tf, u).tobytes()

    @pytest.mark.parametrize("den", [(1.0,), (1.0, -1.5), (1.0, -1.9, 0.95), (1.0, 2.0, 2.0, 2.0)])
    def test_overflow_warns_nothing(self, den):
        # an ARX-style model (input delay nk = 2) driven past the largest float
        tf = DiscreteTf((0.0, 0.0, 1e10, -1e10, 1e10), den, 0.02)
        u = np.array([1e300, -1e300, 1e300, 0.0, -0.0] * 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = filter_sequence(tf, u)
        assert not np.isfinite(y).all()
        assert y.tobytes() == _stepped(tf, u).tobytes()


class TestResponses:
    def test_impulse_of_first_order_pulse_model(self):
        tf = zoh_discretize_first_order(4.159, 3.888, 0.02)
        b1, p = tf.num[1], -tf.den[1]
        y = filter_sequence(tf, _impulse(8))
        ref = [0.0] + [b1 * p**k for k in range(7)]
        np.testing.assert_allclose(y, ref, atol=1e-14)

    def test_step_approaches_dc_gain(self):
        tf = zoh_discretize_first_order(4.159, 3.888, 0.02)
        y = filter_sequence(tf, np.ones(600))
        assert y[-1] == pytest.approx(tf.dc_gain(), rel=1e-6)

    def test_step_is_cumulative_impulse(self):
        tf = DiscreteTf((0.5, 0.2), (1.0, -0.7), 0.02)
        np.testing.assert_allclose(
            filter_sequence(tf, np.ones(40)),
            np.cumsum(filter_sequence(tf, _impulse(40))),
            atol=1e-12,
        )


def _impulse(n):
    u = np.zeros(n)
    u[0] = 1.0
    return u
