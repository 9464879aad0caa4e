"""Dead-time compensation around the PI loop (Smith's predictor structure).

The compensator runs an internal copy of the plant model without delay and
a delayed version of the same prediction, and feeds the controller

    correction(k) = y_model(k) - y_model_delayed(k)

added to the measured feedback. With a perfect model the delayed prediction
cancels the measurement exactly and the controller sees the undelayed
model: the loop behaves like the delay-free design, shifted by the dead
time. Classical form: the delay is a fixed shift register of round(tau/T)
samples. Adaptive form: the delay is a rational series (wncs.delay_approx)
whose coefficients are regenerated from the online millisecond estimate
every update, the filter windows carrying over.

Stepping is two-phase because the correction for tick k must exist before
the control output u(k) does: preview() computes the correction from state
only (the nominal model is strictly proper, so u(k) cannot influence it),
and commit(u) advances the internal filters once u(k) is decided. The
one-shot correction(u) runs preview-then-commit for callers that already
know the tick's input.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .delay_approx import ApproxKind, discretize_series
from .lti import DifferenceEqState, DiscreteTf
from .models import predictor_model_tf
from .pid import pi_pulse_tf

__all__ = [
    "SmithConfig",
    "SmithPredictor",
    "classical_predictor",
    "adaptive_predictor",
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
        if self.mode not in ("classical", "adaptive"):
            raise ValueError(f"unknown predictor mode {self.mode!r}")
        if self.tau_s < 0.0:
            raise ValueError("tau_s must be nonnegative")
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

    def correction(self, u):
        """One-shot preview-then-commit for a tick with known input."""
        out = self.preview()
        self.commit(u)
        return out

    def update_delay_estimate(self, tau_ms):
        """Regenerate the adaptive delay model from a millisecond estimate.

        Smoothing (if configured) exponentially averages successive
        estimates before they reach the coefficients. Filter windows are
        retained across the swap; an estimate of exactly zero collapses the
        delay model to identity, which empties its memory.
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
        sample_time = self._model.tf.sample_time
        self._delay.rebind(discretize_series(self._kind, tau, sample_time))
        self._current_tau = tau


def classical_predictor(tau_s, nominal=None):
    """Fixed-delay predictor shifting by round(tau_s/T) samples."""
    return SmithPredictor(SmithConfig(mode="classical", tau_s=tau_s, nominal=nominal))


def adaptive_predictor(kind=ApproxKind.DFR, nominal=None, smoothing=0.0):
    """Predictor whose delay model tracks the online estimate."""
    return SmithPredictor(
        SmithConfig(mode="adaptive", kind=ApproxKind(kind), smoothing=smoothing, nominal=nominal)
    )


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
    sp = classical_predictor(tau, nominal=model)
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
