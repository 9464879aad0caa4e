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

discretize_series maps one tau to a DiscreteTf. It is the one
discretization of a series: SmithPredictor, the closed loop's tau table
(wncs.smith, which lays its taps out as the adaptive delay line reads
them) and ISE scoring all take theirs from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lti import ContinuousTf, bilinear_discretize, filter_sequence

__all__ = [
    "ApproxKind",
    "series_ctf",
    "discretize_series",
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
