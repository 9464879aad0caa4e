"""Transfer functions, discretization, and difference-equation execution.

Continuous models are rational in s with an optional dead time carried
symbolically (the e^(-tau*s) factor participates in frequency responses but
is never expanded into the polynomials). Discrete models are rational in
z^-1 at a fixed sample time, denominator-normalized so a0 = 1. All
coefficient sequences are ascending: index i multiplies s^i or z^-i.

DifferenceEqState is the runnable realization of a DiscreteTf: it holds the
past-input/past-output windows and computes

    y(k) = b0 u(k) + b1 u(k-1) + ... - a1 y(k-1) - a2 y(k-2) - ...

from zero (relaxed) initial conditions. The two-phase peek/step split
exists because closed-loop wiring often needs this tick's output before
this tick's input is decided; for strictly proper models (b0 = 0) the two
agree regardless of the input passed to peek. filter_sequence and the
step/impulse responses step a fresh state over the whole sequence, so the
recurrence has this one implementation.
"""

from __future__ import annotations

import cmath
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
    "series_connect",
    "feedback_unity",
    "filter_sequence",
    "step_response",
    "impulse_response",
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
    """Proper rational function of s plus a symbolic dead time in seconds."""

    num: tuple
    den: tuple
    dead_time: float = 0.0

    def __post_init__(self):
        num = _trim_high_order(_as_floats(self.num, "numerator"))
        den = _trim_high_order(_as_floats(self.den, "denominator"))
        if den[-1] == 0.0:
            raise ValueError("denominator must be nonzero")
        if len(num) > len(den):
            raise ValueError("improper transfer function: numerator degree exceeds denominator")
        if not (self.dead_time >= 0.0 and math.isfinite(self.dead_time)):
            raise ValueError("dead_time must be finite and nonnegative")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "dead_time", float(self.dead_time))

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
        b = self.tf.num
        a = self.tf.den
        acc = b[0] * u
        for coeff, past in zip(b[1:], self._inputs):
            acc += coeff * past
        for coeff, past in zip(a[1:], self._outputs):
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

    Both polynomials are multiplied by (z+1)^n (n = denominator degree), the
    result is expressed in ascending powers of z^-1 and normalized. Dead time
    must be approximated by a rational series before calling this.
    """
    if sample_time <= 0.0:
        raise ValueError("sample_time must be positive")
    if ctf.dead_time != 0.0:
        raise ValueError("dead time must be replaced by a rational approximation first")
    n = len(ctf.den) - 1
    c = 2.0 / sample_time
    zm1 = np.array([-1.0, 1.0])  # (z - 1), ascending in z
    zp1 = np.array([1.0, 1.0])  # (z + 1)

    def substitute(coeffs):
        acc = np.zeros(n + 1)
        for i, ci in enumerate(coeffs):
            term = np.array([ci * c**i])
            for _ in range(i):
                term = np.convolve(term, zm1)
            for _ in range(n - i):
                term = np.convolve(term, zp1)
            acc[: term.size] += term
        return acc

    num_z = substitute(ctf.num)
    den_z = substitute(ctf.den)
    # Dividing through by z^n turns ascending-in-z into ascending-in-z^-1,
    # which is a plain reversal of the coefficient arrays.
    num = num_z[::-1]
    den = den_z[::-1]
    if abs(den[0]) <= 1e-12 * np.abs(den).max():
        raise ValueError("degenerate mapping: leading denominator coefficient vanished")
    return DiscreteTf(tuple(num), tuple(den), sample_time)


def _polyval_ascending(coeffs, x):
    acc = 0.0 + 0.0j
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def freq_response(ctf, omega):
    """G(j*omega) as a complex number, dead-time factor included."""
    if omega < 0.0:
        raise ValueError("omega must be nonnegative")
    s = 1j * omega
    den = _polyval_ascending(ctf.den, s)
    if den == 0:
        raise ZeroDivisionError(f"pole on the imaginary axis at omega = {omega}")
    out = _polyval_ascending(ctf.num, s) / den
    if ctf.dead_time:
        out *= cmath.exp(-1j * omega * ctf.dead_time)
    return out


def _check_same_rate(a, b):
    if a.sample_time != b.sample_time:
        raise ValueError(
            f"sample-time mismatch: {a.sample_time} vs {b.sample_time}"
        )


def series_connect(a, b):
    """Cascade a*b at a shared sample time."""
    _check_same_rate(a, b)
    return DiscreteTf(
        tuple(np.convolve(a.num, b.num)),
        tuple(np.convolve(a.den, b.den)),
        a.sample_time,
    )


def feedback_unity(g):
    """Closed loop g/(1+g) with unity negative feedback."""
    num = np.asarray(g.num)
    den = np.asarray(g.den)
    m = max(num.size, den.size)
    closed = np.zeros(m)
    closed[: den.size] += den
    closed[: num.size] += num
    if closed[0] == 0.0:
        raise ValueError("algebraic loop: closed-loop denominator lost its leading coefficient")
    return DiscreteTf(tuple(num), tuple(closed), g.sample_time)


def filter_sequence(tf, inputs):
    """Batch-run a DiscreteTf over an input sequence (zero initial state)."""
    state = DifferenceEqState(tf)
    u = np.asarray(inputs, dtype=np.float64).tolist()
    return np.array([state.step(x) for x in u], dtype=np.float64)


def step_response(tf, n):
    return filter_sequence(tf, np.ones(n))


def impulse_response(tf, n):
    u = np.zeros(n)
    u[0] = 1.0
    return filter_sequence(tf, u)
