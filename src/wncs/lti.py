"""Transfer functions, discretization, and difference-equation execution.

Continuous models are rational in s; a loop's dead time is not part of
them (stability rotates the phase by it, and delay_approx replaces it with
a rational series). Discrete models are rational in z^-1 at a fixed sample
time, denominator-normalized so a0 = 1. All coefficient sequences are
ascending: index i multiplies s^i or z^-i.

DifferenceEqState is the runnable realization of a DiscreteTf: it holds the
past-input/past-output windows and computes

    y(k) = b0 u(k) + b1 u(k-1) + ... - a1 y(k-1) - a2 y(k-2) - ...

from zero (relaxed) initial conditions. peek(u) evaluates that sum and
leaves the windows alone; step(u) evaluates it and advances both windows,
the one way a state moves on. Closed-loop wiring often needs this tick's
output before this tick's input is decided: for strictly proper models
(b0 = 0) peek gives that output whatever input is passed to it. rebind
swaps in a new model, keeping the newest window values.

filter_sequence runs a whole sequence from zero state in the same sum
order, so its output is byte-identical to stepping a fresh state: the
input terms for every sample at once as numpy arrays, then the output
terms as a loop over local floats. DifferenceEqState stays the stateful
reference the Smith predictor and the per-tick reference loops step.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ContinuousTf",
    "DiscreteTf",
    "DifferenceEqState",
    "zoh_discretize_first_order",
    "bilinear_discretize",
    "freq_response",
    "filter_sequence",
]


def _as_floats(coeffs, what):
    out = tuple(float(c) for c in coeffs)
    if not out:
        raise ValueError(f"{what} must have at least one coefficient")
    if not all(math.isfinite(c) for c in out):
        raise ValueError(f"{what} coefficients must be finite")
    return out


def _trim_high_order(coeffs):
    # Ascending order: trailing entries are the highest powers.
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0.0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class ContinuousTf:
    """Proper rational function of s."""

    num: tuple
    den: tuple

    def __post_init__(self):
        num = _trim_high_order(_as_floats(self.num, "numerator"))
        den = _trim_high_order(_as_floats(self.den, "denominator"))
        if den[-1] == 0.0:
            raise ValueError("denominator must be nonzero")
        if len(num) > len(den):
            raise ValueError("improper transfer function: numerator degree exceeds denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def dc_gain(self):
        if self.den[0] == 0.0:
            raise ValueError("pole at s = 0: DC gain undefined")
        return self.num[0] / self.den[0]


@dataclass(frozen=True)
class DiscreteTf:
    """Causal rational function of z^-1, normalized so den[0] = 1."""

    num: tuple
    den: tuple
    sample_time: float

    def __post_init__(self):
        num = _as_floats(self.num, "numerator")
        den = _as_floats(self.den, "denominator")
        if den[0] == 0.0:
            raise ValueError("denominator must have a nonzero leading coefficient")
        if not (self.sample_time > 0.0 and math.isfinite(self.sample_time)):
            raise ValueError("sample_time must be positive")
        a0 = den[0]
        num = _trim_high_order(tuple(c / a0 for c in num))
        den = _trim_high_order(tuple(c / a0 for c in den))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "sample_time", float(self.sample_time))

    def dc_gain(self):
        s = sum(self.den)
        if s == 0.0:
            raise ValueError("pole at z = 1: DC gain undefined")
        return sum(self.num) / s


class DifferenceEqState:
    """Past-value windows realizing one DiscreteTf, stepped once per sample."""

    def __init__(self, tf):
        self.tf = tf
        self._inputs = deque([0.0] * (len(tf.num) - 1), maxlen=len(tf.num) - 1)
        self._outputs = deque([0.0] * (len(tf.den) - 1), maxlen=len(tf.den) - 1)

    def peek(self, u):
        """Output for current input u, windows untouched."""
        num, den = self.tf.num, self.tf.den
        acc = num[0] * u
        for coeff, past in zip(num[1:], self._inputs):
            acc += coeff * past
        for coeff, past in zip(den[1:], self._outputs):
            acc -= coeff * past
        return acc

    def step(self, u):
        """Consume u(k), return y(k), advance both windows."""
        y = self.peek(u)
        self._inputs.appendleft(u)
        self._outputs.appendleft(y)
        return y

    def rebind(self, tf):
        """Swap in new coefficients, retaining window values newest-first.

        Windows grow with zero padding on the oldest side and shrink by
        dropping the oldest entries, so a state can track a model whose
        coefficients are regenerated on the fly.
        """

        def refit(window, n):
            vals = list(window)[:n]
            vals += [0.0] * (n - len(vals))
            return deque(vals, maxlen=n)

        self.tf = tf
        self._inputs = refit(self._inputs, len(tf.num) - 1)
        self._outputs = refit(self._outputs, len(tf.den) - 1)


def zoh_discretize_first_order(gain, pole, sample_time):
    """Step-invariant pulse transfer function of gain/(s + pole).

    A zero-order hold drives the plant between samples, so the map is exact:
    the discrete pole is e^(-pole*T) and the DC gain gain/pole is preserved.
    """
    if pole <= 0.0:
        raise ValueError("pole must be positive (stable first-order plant)")
    if sample_time <= 0.0:
        raise ValueError("sample_time must be positive")
    p = math.exp(-pole * sample_time)
    b1 = (gain / pole) * (1.0 - p)
    return DiscreteTf(num=(0.0, b1), den=(1.0, -p), sample_time=sample_time)


def bilinear_discretize(ctf, sample_time):
    """Tustin substitution s <- (2/T)(z-1)/(z+1), denominators cleared.

    Both polynomials are multiplied by (z+1)^n (n = denominator degree) and
    divided by z^n, giving ascending powers of z^-1, then normalized. Only
    n <= 2 is supported: the models mapped here are the second-order
    dead-time series of delay_approx, so the map is written out in closed
    form and a higher order is rejected.
    """
    if sample_time <= 0.0:
        raise ValueError("sample_time must be positive")
    n = len(ctf.den) - 1
    if n > 2:
        raise ValueError(f"bilinear_discretize supports denominator order at most 2, got {n}")
    c = 2.0 / sample_time
    num = _tustin(ctf.num, n, c)
    den = _tustin(ctf.den, n, c)
    if abs(den[0]) <= 1e-12 * max(abs(x) for x in den):
        raise ValueError("degenerate mapping: leading denominator coefficient vanished")
    return DiscreteTf(num, den, sample_time)


def _tustin(coeffs, n, c):
    # sum of a_i (z-1)^i (z+1)^(n-i) over i, divided by z^n: ascending in
    # z^-1. Each sum starts from 0.0 and adds the a0, a1, a2 parts in that
    # order, the order the golden outputs were recorded with; regrouping
    # them can move the last bit.
    a0, a1, a2 = (tuple(ci * c**i for i, ci in enumerate(coeffs)) + (0.0, 0.0))[:3]
    if n == 0:
        return (0.0 + a0,)
    if n == 1:
        return (0.0 + a0 + a1, 0.0 + a0 - a1)
    return (0.0 + a0 + a1 + a2, 0.0 + (a0 + a0) + (-a1 + a1) + (-a2 - a2), 0.0 + a0 - a1 + a2)


def _polyval_ascending(coeffs, x):
    acc = 0.0 + 0.0j
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def freq_response(ctf, omega):
    """G(j*omega) as a complex number."""
    if omega < 0.0:
        raise ValueError("omega must be nonnegative")
    s = 1j * omega
    den = _polyval_ascending(ctf.den, s)
    if den == 0:
        raise ZeroDivisionError(f"pole on the imaginary axis at omega = {omega}")
    return _polyval_ascending(ctf.num, s) / den


def filter_sequence(tf, inputs):
    """Batch-run a DiscreteTf over an input sequence (zero initial state).

    The result is byte-identical to stepping a fresh DifferenceEqState over
    the inputs, because the sums run in peek's order. peek adds b0*u(k),
    then b_i*u(k-i), then subtracts a_i*y(k-i); the input terms are a prefix
    of that sum, so they are computed for the whole sequence at once, each
    past input zero-padded as peek's initial window is. Only the output
    terms, which need the previous outputs, run as a loop over local floats.
    Overflow yields inf or nan without a warning, as float arithmetic does.
    """
    u = np.asarray(inputs, dtype=np.float64)
    n = u.size
    with np.errstate(over="ignore", invalid="ignore"):
        acc = tf.num[0] * u
        for i, b in enumerate(tf.num[1:], 1):
            past = np.zeros(n)
            past[i:] = u[: max(n - i, 0)]
            acc += b * past
    a = tf.den[1:]
    if not a:
        return acc
    out = []
    if len(a) == 1:
        (a1,) = a
        y1 = 0.0
        for x in acc.tolist():
            y1 = x - a1 * y1
            out.append(y1)
    elif len(a) == 2:
        a1, a2 = a
        y1 = y2 = 0.0
        for x in acc.tolist():
            y2, y1 = y1, x - a1 * y1 - a2 * y2
            out.append(y1)
    else:
        past_y = [0.0] * len(a)  # newest first, as DifferenceEqState keeps it
        for x in acc.tolist():
            for c, y in zip(a, past_y):
                x -= c * y
            past_y = [x] + past_y[:-1]
            out.append(x)
    return np.array(out, dtype=np.float64)
