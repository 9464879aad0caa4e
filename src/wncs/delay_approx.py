"""Rational approximations of a pure dead time and their ISE scoring.

A transport delay e^(-tau*s) has no finite-order rational form, so the
adaptive compensator substitutes a second-order series. Six published
candidates are carried. Four share the all-pass shape

    (1 - c1*tau*s + c2*tau^2*s^2) / (1 + c1*tau*s + c2*tau^2*s^2)

Marshall's flips the even term instead, (1 - c*(tau*s)^2)/(1 + c*(tau*s)^2),
and Paynter's is the low-pass 1/(1 + tau*s + 0.405*tau^2*s^2). The diagonal
Pade coefficient is the exact 1/12 (its familiar three-digit form 0.0833 is
a rounding); the direct-frequency-response fit uses 0.49 and 0.0954 as
published. Scored by the integral squared error of the approximation's
unit-step response against the exactly shifted step.

discretize_series maps one tau to a DiscreteTf; series_taps maps a whole
array of taus at the rig's models.SAMPLE_TIME to the same coefficients as
columns, the form the closed loop's adaptive delay line reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lti import ContinuousTf, _tustin, bilinear_discretize, filter_sequence
from .models import SAMPLE_TIME

__all__ = [
    "ApproxKind",
    "series_ctf",
    "discretize_series",
    "series_taps",
    "IseReport",
    "ise_vs_true_delay",
    "ise_table",
    "MAX_ISE_SAMPLES",
]

# Most samples one ISE score may filter; the default 1 ms step reaches it at
# tau = 100 s (a 1000 s horizon).
MAX_ISE_SAMPLES = 1_000_000


class ApproxKind(str, Enum):
    PADE2 = "pade2"
    MARSHALL = "marshall"
    PRODUCT = "product"
    LAGUERRE = "laguerre"
    PAYNTER = "paynter"
    DFR = "dfr"


# Polynomial coefficients in (tau*s), numerator and denominator, per kind.
_FORMS = {
    ApproxKind.PADE2: ((1.0, -0.5, 1.0 / 12.0), (1.0, 0.5, 1.0 / 12.0)),
    ApproxKind.MARSHALL: ((1.0, 0.0, -0.0625), (1.0, 0.0, 0.0625)),
    ApproxKind.PRODUCT: ((1.0, -0.5, 0.125), (1.0, 0.5, 0.125)),
    ApproxKind.LAGUERRE: ((1.0, -0.5, 0.0625), (1.0, 0.5, 0.0625)),
    ApproxKind.PAYNTER: ((1.0,), (1.0, 1.0, 0.405)),
    ApproxKind.DFR: ((1.0, -0.49, 0.0954), (1.0, 0.49, 0.0954)),
}


def series_ctf(kind, tau):
    """Second-order rational stand-in for e^(-tau*s); tau = 0 is identity."""
    kind = ApproxKind(kind)
    if tau < 0.0 or not math.isfinite(tau):
        raise ValueError("tau must be finite and nonnegative")
    if tau == 0.0:
        return ContinuousTf(num=(1.0,), den=(1.0,))
    num_form, den_form = _FORMS[kind]
    return ContinuousTf(
        num=tuple(c * tau**i for i, c in enumerate(num_form)),
        den=tuple(c * tau**i for i, c in enumerate(den_form)),
    )


def discretize_series(kind, tau, sample_time):
    """Bilinear discretization of the chosen series at the loop's rate."""
    return bilinear_discretize(series_ctf(kind, tau), sample_time)


# _FORMS per kind as one (3, 2, 1) array: [i] holds the numerator's and the
# denominator's coefficient of (tau*s)**i, a missing one 0.0.
_FORM_COLUMNS = {
    kind: np.array([num + (0.0,) * (3 - len(num)), den]).T[:, :, None]
    for kind, (num, den) in _FORMS.items()
}


def series_taps(kind, taus):
    """discretize_series at models.SAMPLE_TIME for every tau, as tap columns.

    Returns (b0, b1, b2, a1, a2, nx, nw): per tau, the numerator and the
    denominator past a0 = 1 of discretize_series(kind, tau, SAMPLE_TIME),
    a missing coefficient 0.0, and nx and nw the numbers of past inputs and
    outputs the model reads (len(num) - 1 and len(den) - 1). Every entry is
    the scalar path's to the last bit, and the checks of tau and of the
    mapped coefficients are discretize_series' with its messages.

    Every row is mapped as a second-order series, in one pass: the series
    coefficients take tau**2 per tau as series_ctf does, and lti._tustin
    maps the numerator and denominator columns stacked. A row whose top
    coefficient is 0.0 is of lower order after ContinuousTf's trim: the
    identity at tau = 0, and taus so small that tau**2 underflows. Those
    few rows are replaced by discretize_series itself. Their second-order
    map, being that of a tau below 1e-150, is finite with a leading
    denominator coefficient of at least 1, so it fails no check.
    """
    kind = ApproxKind(kind)
    tau = np.asarray(taus, dtype=np.float64)
    if not ((tau >= 0.0) & (tau < math.inf)).all():
        raise ValueError("tau must be finite and nonnegative")
    powers = np.array([np.ones_like(tau), tau, [t**2 for t in tau.tolist()]])
    cont = _FORM_COLUMNS[kind] * powers[:, None, :]

    # Overflow yields inf without a warning, as float arithmetic does.
    with np.errstate(over="ignore", invalid="ignore"):
        mapped = np.array(_tustin(cont, 2, 2.0 / SAMPLE_TIME))
    size = np.abs(mapped[:, 1])
    if (size[0] <= 1e-12 * size.max(axis=0)).any():
        raise ValueError("degenerate mapping: leading denominator coefficient vanished")
    finite = np.isfinite(mapped).all(axis=(0, 2))
    if not finite[0]:
        raise ValueError("numerator coefficients must be finite")
    if not finite[1]:
        raise ValueError("denominator coefficients must be finite")
    # Normalized by a0, then trailing exact zeros trimmed as
    # lti._trim_high_order trims them. A trimmed entry stays in place: each
    # _tustin sum starts from +0.0, so an exact zero is +0.0, and a0 is
    # positive (every form's denominator coefficients are nonnegative), so
    # it is still +0.0, the value a missing coefficient is padded with.
    c0, c1, c2 = mapped / mapped[0, 1]
    kept2 = c2 != 0.0
    length = np.add(kept2 | (c1 != 0.0), kept2, dtype=np.int64)
    taps = (c0[0], c1[0], c2[0], c1[1], c2[1], length[0], length[1])

    num_top = len(_FORMS[kind][0]) - 1
    lower = (cont[num_top, 0] == 0.0) | (cont[2, 1] == 0.0)
    for k in np.flatnonzero(lower).tolist():
        for col, value in zip(taps, _scalar_row(kind, float(tau[k]))):
            col[k] = value
    return taps


def _scalar_row(kind, tau):
    """One series_taps row, taken from discretize_series."""
    tf = discretize_series(kind, tau, SAMPLE_TIME)
    num = tf.num + (0.0,) * (3 - len(tf.num))
    den = tf.den[1:] + (0.0,) * (3 - len(tf.den))
    return (*num, *den, len(tf.num) - 1, len(tf.den) - 1)


@dataclass(frozen=True)
class IseReport:
    kind: ApproxKind
    tau: float
    ise: float
    horizon: float
    dt: float


def ise_vs_true_delay(kind, tau, dt=1e-3):
    """Integral squared error of the series' step response vs the true delay.

    The series is discretized at the scoring step dt (1 ms by default,
    required to be at most tau/10 or 1 ms) and driven with a unit step; the
    reference is the same step shifted by round(tau/dt) samples. The error
    is summed rectangularly over a horizon of max(5 s, 10*tau).
    """
    kind = ApproxKind(kind)
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if tau > 0.0 and dt > tau / 10.0 and dt > 1e-3 + 1e-15:
        raise ValueError(f"dt = {dt} too coarse for tau = {tau}")
    horizon = max(5.0, 10.0 * tau)
    if not horizon / dt <= MAX_ISE_SAMPLES:
        raise ValueError(
            f"dt = {dt} is too fine for tau = {tau}: the {horizon:g} s horizon "
            f"would need more than {MAX_ISE_SAMPLES} samples"
        )
    n = int(round(horizon / dt))
    shift = int(round(tau / dt))
    # The error is formed in place in the response filter_sequence returns.
    # Before the shift the target is 0.0, and y - 0.0 is y bit for bit, so
    # those samples are left as they are.
    err = filter_sequence(discretize_series(kind, tau, dt), np.ones(n))
    err[shift:] -= 1.0
    np.square(err, out=err)
    ise = float(np.sum(err) * dt)
    return IseReport(kind=kind, tau=tau, ise=ise, horizon=float(horizon), dt=float(dt))


def ise_table(taus, dt=1e-3):
    """ISE per (kind, tau) plus each kind's average across the tau list.

    Returns a list of (kind, [ise per tau], average), one row per ApproxKind
    in declaration order.
    """
    taus = tuple(float(t) for t in taus)
    if not taus:
        raise ValueError("need at least one tau")
    out = []
    for kind in ApproxKind:
        scores = [ise_vs_true_delay(kind, tau, dt=dt).ise for tau in taus]
        out.append((kind, scores, sum(scores) / len(scores)))
    return out
