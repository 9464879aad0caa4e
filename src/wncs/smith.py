"""Dead-time compensation around the PI loop (Smith's predictor structure).

The compensator runs an internal copy of the plant model without delay and
a delayed version of the same prediction, and feeds the controller

    correction(k) = y_model(k) - y_model_delayed(k)

added to the measured feedback. With a perfect model the delayed prediction
cancels the measurement exactly and the controller sees the undelayed
model: the loop behaves like the delay-free design, shifted by the dead
time. Classical form: the delay is a fixed shift register of round(tau/T)
samples. Adaptive form: the delay is a rational series (wncs.delay_approx)
that follows the online millisecond estimate, the filter windows carrying
over each swap.

SmithPredictor steps one compensator tick by tick and rediscretizes its
delay model on each change of tau. The closed-loop runner does not step
it: it runs the same recurrences as local floats, and takes the adaptive
delay model from delay_schedule, which computes before the first tick the
tau in effect at every tick and discretizes each distinct tau once.
SmithPredictor is the reference those are held equal to, and serves
predictor_identity_check.

Stepping is two-phase because the correction for tick k must exist before
the control output u(k) does: preview() computes the correction from state
only (the nominal model is strictly proper, so u(k) cannot influence it),
and commit(u) steps the internal filters once u(k) is decided. A tick may
commit without a preview (a vacant tick under the hold policy).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .delay_approx import ApproxKind, discretize_series
from .lti import DifferenceEqState, DiscreteTf
from .models import SAMPLE_TIME, predictor_model_tf
from .pid import pi_pulse_tf

__all__ = [
    "SmithConfig",
    "SmithPredictor",
    "DelaySchedule",
    "delay_schedule",
    "predictor_identity_check",
]


@dataclass(frozen=True)
class SmithConfig:
    """Compensator wiring: mode plus the knobs the chosen mode reads."""

    mode: str  # "classical" or "adaptive"
    tau_s: float = 0.0  # classical: fixed dead time to shift by
    kind: ApproxKind = ApproxKind.DFR  # adaptive: series family
    smoothing: float = 0.0  # adaptive: exponential weight on past estimates
    nominal: DiscreteTf | None = None  # plant copy; None = stock model

    def __post_init__(self):
        # Imported here: at module level it would add stability's import
        # (about 4 ms) to every `import wncs`, which runs no analysis.
        from .stability import MAX_DEAD_TIME_S

        if self.mode not in ("classical", "adaptive"):
            raise ValueError(f"unknown predictor mode {self.mode!r}")
        if not 0.0 <= self.tau_s <= MAX_DEAD_TIME_S:
            raise ValueError(f"tau_s must be within 0..{MAX_DEAD_TIME_S:g} s")
        if not 0.0 <= self.smoothing < 1.0:
            raise ValueError("smoothing must be in [0, 1)")


class SmithPredictor:
    """Runnable predictor minor loop, built from a SmithConfig."""

    def __init__(self, config):
        nominal = config.nominal if config.nominal is not None else predictor_model_tf()
        if nominal.num[0] != 0.0:
            raise ValueError(
                "nominal model must be strictly proper (b0 = 0): the correction "
                "for a tick is computed before that tick's input exists"
            )
        self.config = config
        self.mode = config.mode
        self._model = DifferenceEqState(nominal)
        if config.mode == "classical":
            d = round(config.tau_s / nominal.sample_time)
            self._shift = deque([0.0] * d)
            self._delay = None
        else:
            kind = ApproxKind(config.kind)
            self._shift = None
            self._delay = DifferenceEqState(
                DiscreteTf((1.0,), (1.0,), nominal.sample_time)
            )
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
        self._delay.rebind(discretize_series(self._kind, tau, self._model.tf.sample_time))
        self._current_tau = tau


@dataclass(frozen=True)
class DelaySchedule:
    """The adaptive delay model in effect at every tick of a run.

    taus holds the distinct taus in seconds, ascending, and series the
    discretized model of each; index[k] picks tick k's entry. The identity
    model (tau = 0) is in effect before the first update.
    """

    taus: np.ndarray
    series: tuple
    index: np.ndarray


def delay_schedule(kind, smoothing, tm_ms, update_ticks):
    """A run's adaptive delay model, computed before its first tick.

    tm_ms[k] is tick k's delay estimate in milliseconds and update_ticks
    the sorted ticks at which the controller runs (every tick under the
    "resend" policy, the arrival ticks under "hold"). Each update sets tau
    exactly as SmithPredictor.update_delay_estimate does, smoothing
    included, and the tau holds until the next update. Each distinct tau
    is discretized once.
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
    held = np.searchsorted(update_ticks, np.arange(tm.size), side="right")
    taus, index = np.unique(np.concatenate(([0.0], tau))[held], return_inverse=True)
    kind = ApproxKind(kind)
    series = tuple(discretize_series(kind, t, SAMPLE_TIME) for t in taus.tolist())
    return DelaySchedule(taus, series, index)


def predictor_identity_check(controller, plant, delay_samples, n_samples=120, model=None):
    """Max deviation between the compensated loop and the shifted ideal loop.

    Runs the plant behind a pure delay of `delay_samples` with the predictor
    minor loop active (delay model = shift register of the same length), and
    separately the delay-free loop; with a perfect model the compensated
    output must equal the delay-free output shifted by the same amount, so
    the return value is numerical noise. Pass a deliberately wrong `model`
    to see the cancellation break.

    controller is a PiGains; the check uses its linear pulse form (no
    saturation, no quantization).
    """
    if delay_samples < 0:
        raise ValueError("delay_samples must be nonnegative")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if plant.num[0] != 0.0:
        raise ValueError("plant must be strictly proper")
    if delay_samples == 0:
        # No transport delay: the delayed prediction equals the undelayed
        # one, the correction is identically zero, and both loops are the
        # same structure.
        return 0.0
    model = plant if model is None else model
    setpoint = 1.0
    d = delay_samples
    tau = d * plant.sample_time

    # Compensated loop: controller + predictor, plant behind a d-sample delay.
    gc = DifferenceEqState(pi_pulse_tf(controller))
    gp = DifferenceEqState(plant)
    sp = SmithPredictor(SmithConfig(mode="classical", tau_s=tau, nominal=model))
    dline = deque([0.0] * d)
    y_comp = []
    for _ in range(n_samples):
        xk = dline.popleft()  # the plant sees u(k - d)
        yk = gp.step(xk)
        corr = sp.preview()
        e = setpoint - yk - corr
        uk = gc.step(e)
        sp.commit(uk)
        dline.append(uk)
        y_comp.append(yk)

    # Delay-free reference loop, same controller.
    gc0 = DifferenceEqState(pi_pulse_tf(controller))
    gp0 = DifferenceEqState(plant)
    y_ref = []
    for _ in range(n_samples):
        yk = gp0.peek(0.0)  # strictly proper: this tick's input is irrelevant
        e = setpoint - yk
        uk = gc0.step(e)
        gp0.step(uk)
        y_ref.append(yk)

    worst = 0.0
    for k in range(n_samples):
        ref = y_ref[k - d] if k >= d else 0.0
        worst = max(worst, abs(y_comp[k] - ref))
    return worst
