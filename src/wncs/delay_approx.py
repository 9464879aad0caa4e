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
array of taus to the same coefficients as columns, the form the closed
loop's adaptive delay line reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lti import ContinuousTf, _tustin, bilinear_discretize, filter_sequence

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


def _trim_columns(cols):
    """Trailing exact zeros of each row trimmed, as lti._trim_high_order does.

    cols are the ascending coefficient columns of one polynomial per row.
    Returns the columns with every trimmed entry (a +0.0 or -0.0) set to
    +0.0, the value a missing coefficient is padded with, and each row's
    length after the trim (at least 1).
    """
    cols = list(cols)
    length = np.ones(cols[0].shape, dtype=np.int64)
    kept = np.zeros(cols[0].shape, dtype=bool)
    for i in range(len(cols) - 1, 0, -1):
        kept |= cols[i] != 0.0
        cols[i] = np.where(kept, cols[i], 0.0)
        length += kept
    return cols, length


def series_taps(kind, taus, sample_time):
    """discretize_series for every tau at once, as tap columns.

    Returns (b0, b1, b2, a1, a2, nx, nw): per tau, the numerator and the
    denominator past a0 = 1 of discretize_series(kind, tau, sample_time),
    a missing coefficient 0.0, and nx and nw the numbers of past inputs and
    outputs the model reads (len(num) - 1 and len(den) - 1). Every entry is
    the scalar path's to the last bit: the series coefficients take tau**2
    per tau as series_ctf does, the Tustin map is lti._tustin applied to
    the columns, and the checks are discretize_series' with its messages.
    """
    kind = ApproxKind(kind)
    tau = np.asarray(taus, dtype=np.float64)
    if not np.all(np.isfinite(tau) & (tau >= 0.0)):
        raise ValueError("tau must be finite and nonnegative")
    # c * tau**i, trimmed as ContinuousTf trims; tau = 0 trims to identity.
    powers = (np.ones_like(tau), tau, np.array([t**2 for t in tau.tolist()]))
    if sample_time <= 0.0:
        raise ValueError("sample_time must be positive")
    num_form, den_form = _FORMS[kind]
    num_ct, _ = _trim_columns(c * p for c, p in zip(num_form, powers))
    den_ct, den_len = _trim_columns(c * p for c, p in zip(den_form, powers))

    # The map of each continuous order n on its rows, padded to three taps;
    # _tustin pads a shorter numerator with 0.0 as on the scalar path.
    # Overflow yields inf without a warning, as float arithmetic does.
    c = 2.0 / sample_time
    num = [np.zeros_like(tau) for _ in range(3)]
    den = [np.zeros_like(tau) for _ in range(3)]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(3):
            rows = np.flatnonzero(den_len == n + 1)
            if rows.size:
                for out, ct in ((num, num_ct), (den, den_ct)):
                    mapped = _tustin([col[rows] for col in ct[: n + 1]], n, c)
                    for i, col in enumerate(mapped):
                        out[i][rows] = col
    scale = np.maximum.reduce([np.abs(col) for col in den])
    if np.any(np.abs(den[0]) <= 1e-12 * scale):
        raise ValueError("degenerate mapping: leading denominator coefficient vanished")
    if not np.isfinite(num).all():
        raise ValueError("numerator coefficients must be finite")
    if not np.isfinite(den).all():
        raise ValueError("denominator coefficients must be finite")
    if not (sample_time > 0.0 and math.isfinite(sample_time)):
        raise ValueError("sample_time must be positive")
    a0 = den[0]
    (b0, b1, b2), num_len = _trim_columns(col / a0 for col in num)
    (_, a1, a2), den_len = _trim_columns(col / a0 for col in den)
    return b0, b1, b2, a1, a2, num_len - 1, den_len - 1


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
    y = filter_sequence(discretize_series(kind, tau, dt), np.ones(n))
    target = np.ones(n)
    target[:shift] = 0.0
    ise = float(np.sum((y - target) ** 2) * dt)
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
