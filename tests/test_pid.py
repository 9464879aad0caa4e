"""PI algorithm tests built on hand-worked update sequences.

Each saturation case is small enough to trace on paper; the expected
values in the asserts are those traces, not captured output.
"""

import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wncs.models import pulse_tf_nominal
from wncs.lti import DiscreteTf
from wncs.pid import (
    PiGains,
    PiState,
    design_pi_root_locus,
    dominant_pole,
    pi_pulse_tf,
    pi_step,
    root_locus_design_report,
)


class TestConstruction:
    def test_ki_t_is_per_sample_gain(self):
        gains = PiGains(kp=1.69, ki=7.44, sample_time=0.02)
        assert gains.ki_t == pytest.approx(0.1488)

    def test_bad_sample_time(self):
        with pytest.raises(ValueError):
            PiGains(kp=1.0, ki=1.0, sample_time=0.0)

    def test_non_finite_gain(self):
        with pytest.raises(ValueError):
            PiGains(kp=math.nan, ki=1.0, sample_time=0.02)

    def test_limits_ordering(self):
        state = PiState()
        with pytest.raises(ValueError, match="min_duty must be below max_duty"):
            pi_step(PiGains(kp=1.0, ki=1.0, sample_time=1.0), state, 10, 10, 3.0)
        assert state == PiState()


class TestPiStep:
    def test_unsaturated_update(self):
        # e=3: sum=3, u = 2*3 + (5*0.1)*3 = 7.5, truncated to 7
        gains = PiGains(kp=2.0, ki=5.0, sample_time=0.1)
        state = PiState()
        duty = pi_step(gains, state, 0, 255, 3.0)
        assert duty == 7
        assert isinstance(duty, int)
        assert state.integral_sum == 3.0
        assert state.saturated_last is False

    def test_accumulation_across_steps(self):
        # second e=3: sum=6, u = 6 + 0.5*6 = 9
        gains = PiGains(kp=2.0, ki=5.0, sample_time=0.1)
        state = PiState()
        pi_step(gains, state, 0, 255, 3.0)
        assert pi_step(gains, state, 0, 255, 3.0) == 9
        assert state.integral_sum == 6.0

    def test_upper_saturation_pins_error_sum(self):
        # ki*T = 1, e=25: u=25 > 10, sum pinned to max_duty/ki_t = 10
        gains = PiGains(kp=0.0, ki=1.0, sample_time=1.0)
        state = PiState()
        assert pi_step(gains, state, 0, 10, 25.0) == 10
        assert state.integral_sum == 10.0
        assert state.saturated_last is True
        # the pinned sum reproduces max_duty on a zero-error follow-up
        assert pi_step(gains, state, 0, 10, 0.0) == 10
        assert state.saturated_last is False

    def test_lower_clamp_leaves_sum_alone(self):
        # u = 1*(-50) + 1*(-50) = -100 < 0: clamp output only
        gains = PiGains(kp=1.0, ki=1.0, sample_time=1.0)
        state = PiState()
        assert pi_step(gains, state, 0, 255, -50.0) == 0
        assert state.integral_sum == -50.0
        assert state.saturated_last is True

    def test_truncation_is_toward_zero(self):
        # u = 0.5 * -3.2 = -1.6 -> -1, not floor's -2
        gains = PiGains(kp=0.5, ki=0.0, sample_time=0.02)
        assert pi_step(gains, PiState(), -255, 255, -3.2) == -1

    def test_proportional_only_skips_pin(self):
        # ki*T = 0: saturation must not divide by it
        gains = PiGains(kp=100.0, ki=0.0, sample_time=1.0)
        state = PiState()
        assert pi_step(gains, state, 0, 255, 5.0) == 255
        assert state.integral_sum == 5.0

    @given(
        errors=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
        kp=st.floats(0.0, 50.0),
        ki=st.floats(0.0, 50.0),
    )
    def test_duty_always_integer_inside_limits(self, errors, kp, ki):
        gains = PiGains(kp=kp, ki=ki, sample_time=0.02)
        state = PiState()
        for e in errors:
            duty = pi_step(gains, state, 0, 255, e)
            assert isinstance(duty, int)
            assert 0 <= duty <= 255


class TestPulseTf:
    def test_shipped_gains(self):
        tf = pi_pulse_tf(PiGains(kp=1.69, ki=7.44, sample_time=0.02))
        assert tf.num == pytest.approx((1.8388, -1.69))
        assert tf.den == (1.0, -1.0)
        assert tf.sample_time == 0.02

    def test_zero_becomes_kp_over_k(self):
        tf = pi_pulse_tf(PiGains(kp=3.0, ki=50.0, sample_time=0.02))
        k = 3.0 + 1.0
        assert -tf.num[1] / tf.num[0] == pytest.approx(3.0 / k)

    def test_pure_proportional_rejected(self):
        with pytest.raises(ValueError):
            pi_pulse_tf(PiGains(kp=2.0, ki=0.0, sample_time=0.02))

    def test_degenerate_gain_sum_rejected(self):
        # ki*T = 50*0.02 rounds to exactly 1.0, cancelling kp
        with pytest.raises(ValueError):
            pi_pulse_tf(PiGains(kp=-1.0, ki=50.0, sample_time=0.02))


class TestDominantPole:
    def test_frozen_target(self):
        zd = dominant_pole(0.94, 0.1)
        assert zd == pytest.approx(0.14326323588258472 + 0.10408683356836142j, abs=1e-15)

    def test_matches_closed_form(self):
        zeta, ratio = 0.7, 0.05
        r = math.exp(-2.0 * math.pi * zeta / math.sqrt(1 - zeta**2) * ratio)
        assert dominant_pole(zeta, ratio) == pytest.approx(cmath.rect(r, 2 * math.pi * ratio))

    @pytest.mark.parametrize("zeta", [0.0, 1.0, 1.2, -0.5])
    def test_zeta_domain(self, zeta):
        with pytest.raises(ValueError):
            dominant_pole(zeta, 0.1)

    @pytest.mark.parametrize("ratio", [0.0, 0.5, 0.7])
    def test_ratio_domain(self, ratio):
        with pytest.raises(ValueError):
            dominant_pole(0.94, ratio)


class TestRootLocusDesign:
    def test_design_point(self):
        report = root_locus_design_report(pulse_tf_nominal(), 0.94, 0.1)
        assert report.zero == pytest.approx(0.5440195760518076, abs=1e-12)
        assert report.loop_gain == pytest.approx(19.656721158060545, abs=1e-9)
        assert report.gains.kp == pytest.approx(10.693641110976694, abs=1e-9)
        assert report.gains.ki == pytest.approx(448.1540023541925, abs=1e-6)
        assert report.target_pole == pytest.approx(
            0.14326323588258472 + 0.10408683356836142j, abs=1e-15
        )

    def test_residuals_vanish_at_the_design_point(self):
        report = root_locus_design_report(pulse_tf_nominal(), 0.94, 0.1)
        assert abs(report.angle_residual_deg) < 1e-12
        assert abs(report.magnitude_residual) < 1e-12

    def test_placed_pole_closes_the_loop(self):
        # 1 + K(z-c)b/((z-1)(z-p)) must vanish at the target pole
        report = root_locus_design_report(pulse_tf_nominal(), 0.94, 0.1)
        zd = report.target_pole
        loop = (
            report.loop_gain * (zd - report.zero) * 0.0831
            / ((zd - 1.0) * (zd - 0.92))
        )
        assert abs(1.0 + loop) < 1e-12

    def test_gains_shortcut_matches_report(self):
        assert design_pi_root_locus(pulse_tf_nominal(), 0.94, 0.1) == root_locus_design_report(
            pulse_tf_nominal(), 0.94, 0.1
        ).gains

    def test_plant_shape_validated(self):
        second_order = DiscreteTf((0.0, 0.2, 0.1), (1.0, -1.1, 0.3), 0.02)
        with pytest.raises(ValueError):
            root_locus_design_report(second_order, 0.94, 0.1)
        direct_feedthrough = DiscreteTf((0.5, 0.1), (1.0, -0.9), 0.02)
        with pytest.raises(ValueError):
            root_locus_design_report(direct_feedthrough, 0.94, 0.1)

    def test_unplaceable_target_rejected(self):
        # slow pole and a barely damped, slow target push the zero angle
        # out of (0, 180) degrees
        plant = DiscreteTf((0.0, 0.0831), (1.0, 0.5), 0.02)
        with pytest.raises(ValueError, match="zero angle"):
            root_locus_design_report(plant, 0.1, 0.01)
