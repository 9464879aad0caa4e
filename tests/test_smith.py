"""Predictor minor-loop tests.

The load-bearing one is the cancellation identity: with a perfect model
copy the compensated loop must reproduce the delay-free loop shifted by
the dead time, to numerical noise, for any shift length. Its failure mode
(a mismatched model pole) is pinned at the magnitude observed with the
0.90-for-0.92 substitution so regressions in either direction show up.
"""

import pytest

from wncs.delay_approx import ApproxKind
from wncs.lti import DiscreteTf, step_response
from wncs.models import pulse_tf_nominal
from wncs.pid import PiGains
from wncs.smith import (
    SmithConfig,
    SmithPredictor,
    adaptive_predictor,
    classical_predictor,
    predictor_identity_check,
)

CONTROLLER = PiGains(kp=1.69, ki=7.44, sample_time=0.02)


class TestConfig:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            SmithConfig(mode="feedforward")

    def test_negative_tau(self):
        with pytest.raises(ValueError):
            SmithConfig(mode="classical", tau_s=-0.1)

    @pytest.mark.parametrize("smoothing", [-0.1, 1.0, 1.5])
    def test_smoothing_domain(self, smoothing):
        with pytest.raises(ValueError):
            SmithConfig(mode="adaptive", smoothing=smoothing)

    def test_nominal_must_be_strictly_proper(self):
        direct = DiscreteTf((0.5, 0.1), (1.0, -0.9), 0.02)
        with pytest.raises(ValueError, match="strictly proper"):
            SmithPredictor(SmithConfig(mode="classical", tau_s=0.04, nominal=direct))

    def test_adaptive_kind_accepts_string(self):
        assert adaptive_predictor(kind="pade2")._kind is ApproxKind.PADE2


class TestClassical:
    def test_correction_is_model_minus_shifted_model(self):
        # constant input: correction(k) must equal y(k) - y(k-2) of the
        # model's step response
        d = 2
        state = classical_predictor(d * 0.02, nominal=pulse_tf_nominal())
        y = step_response(pulse_tf_nominal(), 12)
        for k in range(12):
            expected = y[k] - (y[k - d] if k >= d else 0.0)
            assert state.correction(1.0) == pytest.approx(expected, abs=1e-12)

    def test_zero_tau_correction_vanishes(self):
        state = classical_predictor(0.0, nominal=pulse_tf_nominal())
        for u in (1.0, -0.5, 2.0, 0.0):
            assert state.correction(u) == 0.0

    def test_update_rejected(self):
        state = classical_predictor(0.04)
        with pytest.raises(ValueError, match="classical"):
            state.update_delay_estimate(100)

    def test_one_shot_equals_preview_commit(self):
        a = classical_predictor(0.06, nominal=pulse_tf_nominal())
        b = classical_predictor(0.06, nominal=pulse_tf_nominal())
        inputs = [1.0, 0.5, -0.25, 2.0, 0.0, 1.0]
        for u in inputs:
            via_one_shot = a.correction(u)
            via_phases = b.preview()
            b.commit(u)
            assert via_one_shot == via_phases


class TestAdaptive:
    def test_starts_as_identity_delay(self):
        state = adaptive_predictor(nominal=pulse_tf_nominal())
        for u in (1.0, 0.5, 2.0):
            assert state.correction(u) == 0.0

    def test_update_engages_the_series(self):
        state = adaptive_predictor(nominal=pulse_tf_nominal())
        state.update_delay_estimate(200)
        corrections = [state.correction(1.0) for _ in range(6)]
        assert any(abs(c) > 1e-6 for c in corrections)

    def test_negative_estimate_rejected(self):
        state = adaptive_predictor()
        with pytest.raises(ValueError):
            state.update_delay_estimate(-5)

    def test_unchanged_estimate_skips_rebind(self):
        state = adaptive_predictor(nominal=pulse_tf_nominal())
        state.update_delay_estimate(150)
        rebuilt = state._delay.tf
        state.update_delay_estimate(150)
        assert state._delay.tf is rebuilt

    def test_smoothing_blends_successive_estimates(self):
        state = adaptive_predictor(nominal=pulse_tf_nominal(), smoothing=0.5)
        state.update_delay_estimate(100)
        assert state._current_tau == pytest.approx(0.1)
        state.update_delay_estimate(200)
        # 0.5 * 0.1 + 0.5 * 0.2
        assert state._current_tau == pytest.approx(0.15)

    def test_no_smoothing_tracks_estimate_directly(self):
        state = adaptive_predictor(nominal=pulse_tf_nominal())
        state.update_delay_estimate(100)
        state.update_delay_estimate(200)
        assert state._current_tau == pytest.approx(0.2)


class TestIdentity:
    @pytest.mark.parametrize("d", [1, 7, 30])
    def test_perfect_model_cancels(self, d):
        worst = predictor_identity_check(CONTROLLER, pulse_tf_nominal(), d)
        assert worst < 1e-9

    def test_no_delay_is_exactly_zero(self):
        assert predictor_identity_check(CONTROLLER, pulse_tf_nominal(), 0) == 0.0

    def test_mismatched_model_breaks_cancellation(self):
        wrong = DiscreteTf((0.0, 0.0831), (1.0, -0.90), 0.02)
        worst = predictor_identity_check(
            CONTROLLER, pulse_tf_nominal(), 10, model=wrong
        )
        assert worst > 1e-3
        # magnitude observed for the 0.90-for-0.92 pole substitution
        assert worst == pytest.approx(0.0772, abs=0.002)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            predictor_identity_check(CONTROLLER, pulse_tf_nominal(), -1)
        with pytest.raises(ValueError):
            predictor_identity_check(CONTROLLER, pulse_tf_nominal(), 5, n_samples=0)
        direct = DiscreteTf((0.5,), (1.0, -0.9), 0.02)
        with pytest.raises(ValueError):
            predictor_identity_check(CONTROLLER, direct, 5)
