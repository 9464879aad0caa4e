"""Predictor minor-loop tests.

The load-bearing one is the cancellation identity: with a perfect model
copy the compensated loop must reproduce the delay-free loop shifted by
the dead time, to numerical noise, for any shift length. Its failure mode
(a mismatched model pole) is pinned at the magnitude observed with the
0.90-for-0.92 substitution so regressions in either direction show up.
"""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wncs.smith
from wncs.delay_approx import ApproxKind, discretize_series
from wncs.lti import DifferenceEqState, DiscreteTf, filter_sequence
from wncs.models import pulse_tf_nominal
from wncs.pid import PiGains
from wncs.scenario import apply_smith_variant, preset_config, run_closed_loop
from wncs.smith import (
    SmithConfig,
    SmithPredictor,
    delay_schedule,
    predictor_identity_check,
)
from wncs.stability import MAX_DEAD_TIME_S

CONTROLLER = PiGains(kp=1.69, ki=7.44, sample_time=0.02)


def _classical(tau_s, nominal=None):
    return SmithPredictor(SmithConfig(mode="classical", tau_s=tau_s, nominal=nominal))


def _adaptive(nominal=None, **kwargs):
    return SmithPredictor(SmithConfig(mode="adaptive", nominal=nominal, **kwargs))


def _tick(predictor, u):
    """One loop tick: the correction first, then the decided input."""
    correction = predictor.preview()
    predictor.commit(u)
    return correction


class TestConfig:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            SmithConfig(mode="feedforward")

    def test_negative_tau(self):
        with pytest.raises(ValueError):
            SmithConfig(mode="classical", tau_s=-0.1)

    @pytest.mark.parametrize("tau_s", [math.nan, math.inf, math.nextafter(3600.0, math.inf)])
    def test_tau_outside_the_dead_time_bound(self, tau_s):
        # the shift register holds round(tau_s / T) slots, allocated up front
        with pytest.raises(ValueError, match="tau_s must be within 0..3600 s"):
            SmithConfig(mode="classical", tau_s=tau_s)

    def test_tau_at_the_bound_builds(self):
        assert len(_classical(MAX_DEAD_TIME_S)._shift) == 180_000

    @pytest.mark.parametrize("smoothing", [-0.1, 1.0, 1.5])
    def test_smoothing_domain(self, smoothing):
        with pytest.raises(ValueError):
            SmithConfig(mode="adaptive", smoothing=smoothing)

    def test_nominal_must_be_strictly_proper(self):
        direct = DiscreteTf((0.5, 0.1), (1.0, -0.9), 0.02)
        with pytest.raises(ValueError, match="strictly proper"):
            SmithPredictor(SmithConfig(mode="classical", tau_s=0.04, nominal=direct))

    def test_adaptive_kind_accepts_string(self):
        assert _adaptive(kind="pade2")._kind is ApproxKind.PADE2


class TestClassical:
    def test_correction_is_model_minus_shifted_model(self):
        # constant input: correction(k) must equal y(k) - y(k-2) of the
        # model's step response
        d = 2
        state = _classical(d * 0.02, nominal=pulse_tf_nominal())
        y = filter_sequence(pulse_tf_nominal(), [1.0] * 12)
        for k in range(12):
            expected = y[k] - (y[k - d] if k >= d else 0.0)
            assert _tick(state, 1.0) == pytest.approx(expected, abs=1e-12)
    def test_zero_tau_correction_vanishes(self):
        state = _classical(0.0, nominal=pulse_tf_nominal())
        for u in (1.0, -0.5, 2.0, 0.0):
            assert _tick(state, u) == 0.0

    def test_update_rejected(self):
        state = _classical(0.04)
        with pytest.raises(ValueError, match="classical"):
            state.update_delay_estimate(100)


class TestAdaptive:
    def test_starts_as_identity_delay(self):
        state = _adaptive(nominal=pulse_tf_nominal())
        for u in (1.0, 0.5, 2.0):
            assert _tick(state, u) == 0.0

    def test_update_engages_the_series(self):
        state = _adaptive(nominal=pulse_tf_nominal())
        state.update_delay_estimate(200)
        corrections = [_tick(state, 1.0) for _ in range(6)]
        assert any(abs(c) > 1e-6 for c in corrections)

    def test_negative_estimate_rejected(self):
        state = _adaptive()
        with pytest.raises(ValueError):
            state.update_delay_estimate(-5)

    def test_unchanged_estimate_skips_rebind(self):
        state = _adaptive(nominal=pulse_tf_nominal())
        state.update_delay_estimate(150)
        rebuilt = state._delay.tf
        state.update_delay_estimate(150)
        assert state._delay.tf is rebuilt

    def test_smoothing_blends_successive_estimates(self):
        state = _adaptive(nominal=pulse_tf_nominal(), smoothing=0.5)
        state.update_delay_estimate(100)
        assert state._current_tau == pytest.approx(0.1)
        state.update_delay_estimate(200)
        # 0.5 * 0.1 + 0.5 * 0.2
        assert state._current_tau == pytest.approx(0.15)

    def test_no_smoothing_tracks_estimate_directly(self):
        state = _adaptive(nominal=pulse_tf_nominal())
        state.update_delay_estimate(100)
        state.update_delay_estimate(200)
        assert state._current_tau == pytest.approx(0.2)


class _Retarget:
    """Retargets a delay state as update_delay_estimate does: smoothing,
    then a fresh discretization on every change of tau."""

    def __init__(self, delay, kind, smoothing):
        self.delay = delay
        self.kind = ApproxKind(kind)
        self.alpha = smoothing
        self.smoothed = None
        self.tau = 0.0

    def update_delay_estimate(self, tau_ms):
        tau = tau_ms / 1000.0
        if self.alpha > 0.0:
            if self.smoothed is None:
                self.smoothed = tau
            else:
                self.smoothed = self.alpha * self.smoothed + (1.0 - self.alpha) * tau
            tau = self.smoothed
        if tau != self.tau:
            self.delay.rebind(discretize_series(self.kind, tau, 0.02))
            self.tau = tau


# A run's estimates drawn from a small pool, so values repeat and return to
# earlier taus; zero and 40 ms (where the marshall and laguerre series drop
# to a lower order) are always in it. Each tick: its estimate and whether
# the controller runs (every tick under "resend").
_SCHEDULE_TICKS = st.lists(st.integers(0, 600), min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(
        st.tuples(st.sampled_from([0, 40, *pool]), st.booleans()), min_size=1, max_size=80
    )
)


class TestDelaySchedule:
    """smith.delay_schedule against SmithPredictor updated tick by tick."""

    @settings(deadline=None, max_examples=80)
    @given(
        kind=st.sampled_from(ApproxKind),
        smoothing=st.just(0.0) | st.floats(0.0, 0.9),
        policy=st.sampled_from(["resend", "hold"]),
        ticks=_SCHEDULE_TICKS,
    )
    def test_schedule_equals_update_delay_estimate(self, kind, smoothing, policy, ticks):
        tm_ms = np.array([tm for tm, _ in ticks], dtype=np.int64)
        updates = [policy == "resend" or runs for _, runs in ticks]
        schedule = delay_schedule(kind, smoothing, tm_ms, np.flatnonzero(updates))
        predictor = _adaptive(nominal=pulse_tf_nominal(), kind=kind, smoothing=smoothing)
        assert len(schedule.index) == len(ticks)
        for tm, update, k in zip(tm_ms.tolist(), updates, schedule.index.tolist()):
            if update:
                predictor.update_delay_estimate(tm)
            assert schedule.taus[k] == predictor._current_tau
            assert schedule.series[k] == predictor._delay.tf
        assert schedule.taus.tolist() == sorted(set(schedule.taus.tolist()))

    def test_negative_estimate_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            delay_schedule(ApproxKind.DFR, 0.0, np.array([0, -1]), np.array([0, 1]))

    def test_each_tau_discretized_once_per_run(self, monkeypatch):
        taus = []

        def counting_discretize(kind, tau, sample_time):
            taus.append(tau)
            return discretize_series(kind, tau, sample_time)

        monkeypatch.setattr(wncs.smith, "discretize_series", counting_discretize)
        config = apply_smith_variant(preset_config("intermediate-uniform", 1), "adaptive-dfr")
        record = run_closed_loop(config)
        # "resend" updates on every tick, so each tick's tau is its estimate
        assert sorted(taus) == sorted(set((record.tm_ms / 1000.0).tolist()))
        assert len(taus) < 0.15 * record.t_ms.size


class _Recomputing:
    """Two-phase stepping with every sum evaluated afresh: preview peeks
    both recurrences and commit steps them again."""

    def __init__(self, mode, kind, smoothing):
        self.model = DifferenceEqState(pulse_tf_nominal())
        self.shift = deque([0.0] * 3) if mode == "classical" else None  # 60 ms
        self.delay = None
        if mode == "adaptive":
            self.delay = DifferenceEqState(DiscreteTf((1.0,), (1.0,), 0.02))
            self.retarget = _Retarget(self.delay, kind, smoothing)

    def preview(self):
        yhat = self.model.peek(0.0)
        if self.delay is None:
            return yhat - self.shift[0]
        return yhat - self.delay.peek(yhat)

    def commit(self, u):
        yhat = self.model.step(u)
        if self.delay is None:
            self.shift.popleft()
            self.shift.append(yhat)
        else:
            self.delay.step(yhat)


def _windows(model, delay, shift):
    states = [model] + ([delay] if delay is not None else [])
    out = [(list(s._inputs), list(s._outputs)) for s in states]
    return out + ([list(shift)] if shift is not None else [])


# One tick: input, whether preview runs (hold skips it on a vacant tick),
# an estimate before preview and one between preview and commit (None:
# no update at that point).
_REUSE_TICKS = st.lists(
    st.tuples(
        st.floats(-1.0, 1.0),
        st.booleans(),
        st.none() | st.integers(0, 400),
        st.none() | st.integers(0, 400),
    ),
    min_size=1,
    max_size=60,
)


class TestPreviewReuse:
    @settings(deadline=None, max_examples=80)
    @given(
        mode=st.sampled_from(["classical", "adaptive"]),
        kind=st.sampled_from(ApproxKind),
        smoothing=st.just(0.0) | st.floats(0.0, 0.9),
        ticks=_REUSE_TICKS,
    )
    def test_reuse_is_invisible(self, mode, kind, smoothing, ticks):
        if mode == "classical":
            predictor = _classical(0.06, nominal=pulse_tf_nominal())
        else:
            predictor = _adaptive(nominal=pulse_tf_nominal(), kind=kind, smoothing=smoothing)
        reference = _Recomputing(mode, kind, smoothing)
        for u, previewed, before, between in ticks:
            if mode == "adaptive" and before is not None:
                predictor.update_delay_estimate(before)
                reference.retarget.update_delay_estimate(before)
            if previewed:
                assert predictor.preview() == reference.preview()
            if mode == "adaptive" and between is not None:
                predictor.update_delay_estimate(between)
                reference.retarget.update_delay_estimate(between)
            predictor.commit(u)
            reference.commit(u)
            got = _windows(predictor._model, predictor._delay, predictor._shift)
            assert got == _windows(reference.model, reference.delay, reference.shift)


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
