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
tau in effect at every tick and the row of taps of every distinct tau.
Rows come from a table kept for the life of the process, keyed by (kind,
tau): a sweep asks for the same taus run after run (the 84 adaptive runs
of one pass of the benchmark's fixed-delay sweep ask for 528 taus, 42 of
them distinct), so a run discretizes only the taus no earlier run has
asked for. Each is discretized by delay_approx.discretize_series, as
SmithPredictor discretizes it, and laid out as a row by _row, the one
place that knows the row's layout. The table is an lti._Memo of at most
4096 rows, about 1.3 MB, so a long process of ever-new taus cannot grow
it without bound. The runner applies each swap of model as
DifferenceEqState.rebind does, when it takes the new row. SmithPredictor
is the reference those are held equal to; predictor_identity_check steps
the runner's classical delay-line form itself. It imports wncs.pid (for
the controller's pulse form) when it runs, not with this module, so the
closed-loop runner's imports leave pid out.

Stepping is two-phase because the correction for tick k must exist before
the control output u(k) does: preview() computes the correction from state
only (the model copy is strictly proper, so u(k) cannot influence it), and
commit(u) steps the internal filters once u(k) is decided. A tick may
commit without a preview (a vacant tick under the hold policy).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .delay_approx import ApproxKind, discretize_series
from .lti import DifferenceEqState, DiscreteTf, _distinct, _Memo
from .models import MAX_DURATION_S, SAMPLE_TIME, predictor_model_tf

__all__ = [
    "SmithPredictor",
    "delay_schedule",
    "predictor_identity_check",
]


class SmithPredictor:
    """Runnable predictor minor loop around models.predictor_model_tf().

    mode is "classical" (shift by the fixed dead time tau_s) or "adaptive"
    (a delay series of family kind, retargeted by update_delay_estimate).
    """

    def __init__(self, mode, tau_s=0.0, kind=ApproxKind.DFR):
        if mode not in ("classical", "adaptive"):
            raise ValueError(f"unknown predictor mode {mode!r}")
        if not 0.0 <= tau_s <= MAX_DURATION_S:
            raise ValueError(f"tau_s must be within 0..{MAX_DURATION_S:g} s")
        self.mode = mode
        self._model = DifferenceEqState(predictor_model_tf())
        if mode == "classical":
            self._shift = deque([0.0] * round(tau_s / SAMPLE_TIME))
            self._delay = None
        else:
            self._shift = None
            self._delay = DifferenceEqState(DiscreteTf((1.0,), (1.0,), SAMPLE_TIME))
            self._kind = ApproxKind(kind)
            self._current_tau = 0.0

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

        The model's tau is the estimate in seconds. Each change of tau
        discretizes the series afresh. Filter windows are retained across
        the swap; an estimate of exactly zero collapses the delay model to
        identity, which empties its memory.
        """
        if self.mode != "adaptive":
            raise ValueError("classical predictor has no delay estimate to update")
        if tau_ms < 0:
            raise ValueError("delay estimate must be nonnegative")
        tau = tau_ms / 1000.0
        if tau == self._current_tau:
            return
        self._delay.rebind(discretize_series(self._kind, tau, SAMPLE_TIME))
        self._current_tau = tau


# The tau table: (kind, tau) -> _row(kind, tau). 4096 rows (about 320 bytes
# each) are far more than the distinct taus of a sweep, tens to hundreds.
_TABLE = _Memo(4096)


def _row(kind, tau):
    """discretize_series(kind, tau, SAMPLE_TIME) as the row (b0, b1, b2, a1,
    a2, nx, nw): the numerator and the denominator past a0 = 1, a missing
    coefficient 0.0, and nx and nw the numbers of past inputs and outputs
    the model reads (len(num) - 1 and len(den) - 1)."""
    tf = discretize_series(kind, tau, SAMPLE_TIME)
    num = tf.num + (0.0,) * (3 - len(tf.num))
    den = tf.den[1:] + (0.0,) * (3 - len(tf.den))
    return (*num, *den, len(tf.num) - 1, len(tf.den) - 1)


def delay_schedule(kind, tm_ms, update_ticks, updated_by):
    """A run's adaptive delay model, computed before its first tick.

    tm_ms[k] is tick k's delay estimate in milliseconds, update_ticks the
    sorted ticks at which the controller runs (every tick under the
    "resend" policy, the arrival ticks under "hold") and updated_by[k] the
    number of them up to and including tick k. Each update sets tau
    exactly as SmithPredictor.update_delay_estimate does, and the tau holds
    until the next update. Each distinct tau's row is the one
    discretize_series gives it, taken from the table.

    Returns (taus, rows, index): taus holds the distinct taus in seconds,
    ascending, and rows one tuple (b0, b1, b2, a1, a2, nx, nw) of Python
    numbers per tau, as _row lays it out; index[k] picks tick k's row. The
    identity model (tau = 0) is in effect before the first update. Where
    index changes, the runner swaps in the new row and keeps what
    DifferenceEqState.rebind keeps: the newest min(old n, new n) entries of
    each window, n being the model's nx or nw, the entries past that
    zeroed. No model (n = 0) precedes tick 0, so the swap at tick 0 zeroes
    every entry.
    """
    kind = ApproxKind(kind)
    tm = np.asarray(tm_ms)
    tau = tm[update_ticks] / 1000.0
    if tau.size and tau.min() < 0.0:
        raise ValueError("delay estimate must be nonnegative")
    # No tau is -0.0 (tm_ms holds nonnegative ints), so which of two equal
    # zeros is kept never arises.
    per_tick = np.concatenate(([0.0], tau))[updated_by]
    taus = _distinct(per_tick)
    return taus, _table_rows(kind, taus.tolist()), np.searchsorted(taus, per_tick)


def _table_rows(kind, taus):
    """The rows of kind's series at taus, through the table: a tau it lacks
    is discretized and stored, charged one."""
    get, store = _TABLE.get, _TABLE.store
    rows = []
    for tau in taus:
        key = (kind, tau)
        rows.append(get(key) or store(key, _row(kind, tau), 1))
    return rows


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
    from .pid import pi_pulse_tf

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
