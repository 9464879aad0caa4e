"""Dead-time compensation around the PI loop (Smith's predictor structure).

The compensator runs an internal copy of the plant model without delay and
a delayed version of the same prediction, and feeds the controller

    correction(k) = y_model(k) - y_model_delayed(k)

added to the measured feedback. With a perfect model the delayed prediction
cancels the measurement exactly and the controller sees the undelayed
model: the loop behaves like the delay-free design, shifted by the dead
time. Classical form: the delayed prediction is the model output
round(tau/T) samples back. Adaptive form: the delay is a rational series
(wncs.delay_approx) that follows the online millisecond estimate, the
filter windows carrying over each swap.

SmithPredictor steps one compensator tick by tick and rediscretizes its
delay model on each change of tau. The closed-loop runner does not step
it: it runs the same recurrences as local floats, and takes the adaptive
delay model from delay_schedule, which computes before the first tick the
tau in effect at every tick, the taps of every distinct tau in one array
pass (delay_approx.series_taps), and the window entries each swap of
model zeroes. SmithPredictor is the reference those are held equal to;
predictor_identity_check steps the runner's classical delay-line form
itself.

Stepping is two-phase because the correction for tick k must exist before
the control output u(k) does: preview() computes the correction from state
only (the model copy is strictly proper, so u(k) cannot influence it), and
commit(u) steps the internal filters once u(k) is decided. A tick may
commit without a preview (a vacant tick under the hold policy).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .delay_approx import ApproxKind, discretize_series, series_taps
from .lti import DifferenceEqState, DiscreteTf
from .models import MAX_DURATION_S, SAMPLE_TIME, predictor_model_tf
from .pid import pi_pulse_tf

__all__ = [
    "SmithConfig",
    "SmithPredictor",
    "DelaySchedule",
    "delay_schedule",
    "RESET_X1",
    "RESET_X2",
    "RESET_W1",
    "RESET_W2",
    "predictor_identity_check",
]


@dataclass(frozen=True)
class SmithConfig:
    """Mode and knobs of a compensator around models.predictor_model_tf()."""

    mode: str  # "classical" or "adaptive"
    tau_s: float = 0.0  # classical: fixed dead time to shift by
    kind: ApproxKind = ApproxKind.DFR  # adaptive: series family
    smoothing: float = 0.0  # adaptive: exponential weight on past estimates

    def __post_init__(self):
        if self.mode not in ("classical", "adaptive"):
            raise ValueError(f"unknown predictor mode {self.mode!r}")
        if not 0.0 <= self.tau_s <= MAX_DURATION_S:
            raise ValueError(f"tau_s must be within 0..{MAX_DURATION_S:g} s")
        if not 0.0 <= self.smoothing < 1.0:
            raise ValueError("smoothing must be in [0, 1)")


class SmithPredictor:
    """Runnable predictor minor loop, built from a SmithConfig."""

    def __init__(self, config):
        self.config = config
        self.mode = config.mode
        self._model = DifferenceEqState(predictor_model_tf())
        if config.mode == "classical":
            d = round(config.tau_s / SAMPLE_TIME)
            self._shift = deque([0.0] * d)
            self._delay = None
        else:
            kind = ApproxKind(config.kind)
            self._shift = None
            self._delay = DifferenceEqState(DiscreteTf((1.0,), (1.0,), SAMPLE_TIME))
            self._kind = kind
            self._current_tau = 0.0
            self._smoothed = None

    def preview(self):
        """Correction for the current tick, no state advanced."""
        yhat = self._model.peek(0.0)
        if self.mode == "classical":
            delayed = self._shift[0] if self._shift else yhat
        else:
            delayed = self._delay.peek(yhat)
        return yhat - delayed

    def commit(self, u):
        """Advance the internal filters with the tick's decided input."""
        yhat = self._model.step(u)
        if self.mode == "classical":
            if self._shift:
                self._shift.popleft()
                self._shift.append(yhat)
        else:
            self._delay.step(yhat)

    def update_delay_estimate(self, tau_ms):
        """Retarget the adaptive delay model at a millisecond estimate.

        Smoothing (if configured) exponentially averages successive
        estimates before they reach the coefficients. Each change of tau
        discretizes the series afresh. Filter windows are retained across
        the swap; an estimate of exactly zero collapses the delay model to
        identity, which empties its memory.
        """
        if self.mode != "adaptive":
            raise ValueError("classical predictor has no delay estimate to update")
        if tau_ms < 0:
            raise ValueError("delay estimate must be nonnegative")
        tau = tau_ms / 1000.0
        alpha = self.config.smoothing
        if alpha > 0.0:
            if self._smoothed is None:
                self._smoothed = tau
            else:
                self._smoothed = alpha * self._smoothed + (1.0 - alpha) * tau
            tau = self._smoothed
        if tau == self._current_tau:
            return
        self._delay.rebind(discretize_series(self._kind, tau, SAMPLE_TIME))
        self._current_tau = tau


# DelaySchedule.resets bits: the delay line's past inputs x1, x2 and past
# outputs w1, w2 (newest first) that a swap of model zeroes.
RESET_X1, RESET_X2, RESET_W1, RESET_W2 = 1, 2, 4, 8
# The bits a swap sets, by the entries (0, 1 or 2) it keeps of each window.
_ZEROED_X = np.array([RESET_X1 | RESET_X2, RESET_X2, 0])
_ZEROED_W = np.array([RESET_W1 | RESET_W2, RESET_W2, 0])


@dataclass(frozen=True)
class DelaySchedule:
    """The adaptive delay model in effect at every tick of a run.

    taus holds the distinct taus in seconds, ascending, and taps the
    columns (b0, b1, b2, a1, a2, nx, nw) of delay_approx.series_taps, one
    row per tau; index[k] picks tick k's row. The identity model (tau = 0)
    is in effect before the first update. resets[k] is the RESET_* bits of
    the window entries the swap at tick k zeroes, 0 where index does not
    change.
    """

    taus: np.ndarray
    taps: tuple
    index: np.ndarray
    resets: np.ndarray


def delay_schedule(kind, smoothing, tm_ms, update_ticks):
    """A run's adaptive delay model, computed before its first tick.

    tm_ms[k] is tick k's delay estimate in milliseconds and update_ticks
    the sorted ticks at which the controller runs (every tick under the
    "resend" policy, the arrival ticks under "hold"). Each update sets tau
    exactly as SmithPredictor.update_delay_estimate does, smoothing
    included, and the tau holds until the next update. The distinct taus
    are discretized together, each to the taps discretize_series gives it.

    A swap keeps what DifferenceEqState.rebind keeps: the newest
    min(old n, new n) entries of each window, n being the model's nx or
    nw; the entries past that are zeroed. No model (n = 0) precedes tick 0,
    so the swap at tick 0 zeroes every entry.
    """
    tm = np.asarray(tm_ms)
    update_ticks = np.asarray(update_ticks, dtype=np.int64)
    tau = tm[update_ticks] / 1000.0
    if tau.size and tau.min() < 0.0:
        raise ValueError("delay estimate must be nonnegative")
    if smoothing > 0.0:
        # The scalar recurrence of update_delay_estimate, in its float order.
        values = tau.tolist()
        for i in range(1, len(values)):
            values[i] = smoothing * values[i - 1] + (1.0 - smoothing) * values[i]
        tau = np.array(values)
    # held[k]: the number of updates made by tick k.
    held = np.cumsum(np.bincount(update_ticks, minlength=tm.size))
    taus, index = np.unique(np.concatenate(([0.0], tau))[held], return_inverse=True)
    taps = series_taps(kind, taus)
    nx, nw = taps[5][index], taps[6][index]
    keep_x = np.minimum(nx, np.concatenate(([0], nx[:-1])))
    keep_w = np.minimum(nw, np.concatenate(([0], nw[:-1])))
    swapped = index != np.concatenate(([-1], index[:-1]))
    resets = (_ZEROED_X[keep_x] + _ZEROED_W[keep_w]) * swapped
    return DelaySchedule(taus, taps, index, resets)


def predictor_identity_check(controller, plant, delay_samples, model=None):
    """Max deviation between the compensated loop and the shifted ideal loop.

    Runs the plant behind a pure delay of `delay_samples` with the predictor
    minor loop active (delay model = the model output the same number of
    ticks back), and separately the delay-free loop; with a perfect model
    the compensated output must equal the delay-free output shifted by the
    same amount, so the return value is numerical noise. Pass a deliberately wrong `model`
    to see the cancellation break.

    controller is a PiGains; the check uses its linear pulse form (no
    saturation, no quantization). The plant and model must be strictly
    proper, and tau_s = delay_samples * T at most models.MAX_DURATION_S.
    """
    if delay_samples < 0:
        raise ValueError("delay_samples must be nonnegative")
    model = plant if model is None else model
    if plant.num[0] != 0.0:
        raise ValueError("plant must be strictly proper")
    if model.num[0] != 0.0:
        raise ValueError("model must be strictly proper")
    if delay_samples * plant.sample_time > MAX_DURATION_S:
        raise ValueError(f"tau_s must be within 0..{MAX_DURATION_S:g} s")
    if delay_samples == 0:
        # No transport delay: the delayed prediction equals the undelayed
        # one, the correction is identically zero, and both loops are the
        # same structure.
        return 0.0
    n_ticks = 120
    setpoint = 1.0
    lag = delay_samples

    # Compensated loop: controller + predictor, plant behind a lag-sample
    # delay. Both delay lines are the runner's form: every past value after
    # lag zeros, read lag back.
    gc = DifferenceEqState(pi_pulse_tf(controller))
    gp = DifferenceEqState(plant)
    gm = DifferenceEqState(model)
    past_yhat = [0.0] * lag  # the model's outputs
    past_u = [0.0] * lag  # the controller's outputs
    y_comp = []
    for _ in range(n_ticks):
        yk = gp.step(past_u[-lag])  # the plant sees u(k - lag)
        yhat = gm.peek(0.0)  # strictly proper: this tick's input is irrelevant
        corr = yhat - past_yhat[-lag]
        e = setpoint - yk - corr
        uk = gc.step(e)
        past_yhat.append(gm.step(uk))
        past_u.append(uk)
        y_comp.append(yk)

    # Delay-free reference loop, same controller.
    gc0 = DifferenceEqState(pi_pulse_tf(controller))
    gp0 = DifferenceEqState(plant)
    y_ref = []
    for _ in range(n_ticks):
        yk = gp0.peek(0.0)  # strictly proper: this tick's input is irrelevant
        e = setpoint - yk
        uk = gc0.step(e)
        gp0.step(uk)
        y_ref.append(yk)

    worst = 0.0
    for k in range(n_ticks):
        ref = y_ref[k - lag] if k >= lag else 0.0
        worst = max(worst, abs(y_comp[k] - ref))
    return worst
