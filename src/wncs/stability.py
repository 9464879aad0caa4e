"""Delay-margin analysis of the continuous loop.

A pure dead time subtracts omega*tau of phase without touching magnitude,
so the gain crossover of the rational part is delay-independent and the
phase margin falls off affinely in tau:

    pm(tau) = 180 + angle(G(j*omega_g)) * 180/pi - omega_g * tau * 180/pi

The Nyquist view backs this up: the locus of G(j*omega) e^(-j*omega*tau),
sampled on the module's own log grid (default_omega_grid, densified around
the crossover), is mirrored across the real axis for negative frequencies
and its winding around the critical point -1 counts unstable closed-loop
poles (positive = clockwise = unstable for an open-loop-stable plant). The
loop model G carries no dead time of its own: tau is always passed here.

nyquist_locus evaluates the whole grid in one pass over float64 arrays of
real and imaginary parts, repeating the interpreter's complex arithmetic
one operation at a time: Horner's rule at s = j*omega, CPython's complex
division with its two scalings, the phase argument -1j*omega*tau as two
complex products, exp as e^re * (cos im, sin im), then the product. Each
point is bit-identical to the scalar freq_response(G, omega) *
cmath.exp(-1j*omega*tau), which gain_crossover's bisection keeps using
one point at a time; NumPy's complex operators round differently and
lose signed zeros, so they are not used.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .lti import freq_response
from .models import MAX_DURATION_S

__all__ = [
    "MarginReport",
    "NyquistLocus",
    "gain_crossover",
    "phase_margin",
    "default_omega_grid",
    "nyquist_locus",
    "encirclements",
    "margin_table",
]


@dataclass(frozen=True)
class MarginReport:
    gain_crossover_omega: float
    phase_margin_deg: float
    stable: bool


@dataclass(frozen=True)
class NyquistLocus:
    """Positive-frequency samples of the open loop, delay included."""

    omegas: np.ndarray
    points: np.ndarray


def gain_crossover(ctf):
    """Frequency where |G(j*omega)| = 1, by bracketing and bisection.

    Requires |G(0)| > 1 (otherwise there is nothing to cross) and assumes
    magnitude decreases through the crossing, which holds for the loop
    shapes this package analyzes. A pole at s = 0 (den[0] == 0, as in any
    loop with a PI) makes |G(0)| infinite; G is then never evaluated there,
    since the bisection only visits omega > 0.
    """
    if ctf.den[0] != 0.0 and abs(freq_response(ctf, 0.0)) <= 1.0:
        raise ValueError("no gain crossover: DC magnitude is at or below 1")
    lo = 0.0
    hi = 1.0
    while abs(freq_response(ctf, hi)) >= 1.0:
        lo = hi
        hi *= 2.0
        if hi > 1e12:
            raise ValueError("no gain crossover found below 1e12 rad/s")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if abs(freq_response(ctf, mid)) >= 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)


def phase_margin(ctf, tau_d):
    """Phase margin with an additional dead time tau_d seconds on the loop."""
    return margin_table(ctf, [tau_d])[0]


def _check_dead_time(tau_d):
    if not 0.0 <= tau_d < math.inf:
        raise ValueError(f"tau_d must be finite and nonnegative, got {tau_d}")
    if tau_d > MAX_DURATION_S:
        raise ValueError(f"tau_d = {tau_d:g} is too large: the limit is {MAX_DURATION_S:g} s")


def default_omega_grid(ctf):
    """Log grid over [1e-3, 1e3] rad/s, densified tenfold near crossover."""
    grid = np.geomspace(1e-3, 1e3, 1000)
    try:
        wg = gain_crossover(ctf)
    except ValueError:
        return grid
    dense = np.geomspace(wg / 2.0, wg * 2.0, 200)
    return np.unique(np.concatenate([grid, dense]))


def _horner_jw(coeffs, w):
    """Parts of the ascending polynomial at s = j*w, as lti._polyval_ascending.

    Each step is acc * (0 + j*w) + c in CPython's complex arithmetic: the
    product's four terms, then c added as the complex (c, 0.0).
    """
    re = np.zeros_like(w)
    im = np.zeros_like(w)
    for c in reversed(coeffs):
        re, im = (re * 0.0 - im * w) + c, (re * w + im * 0.0) + 0.0
    return re, im


def _quot(are, aim, bre, bim):
    """Parts of a / b by CPython's _Py_c_quot, b never 0 + 0j.

    Both scalings are computed everywhere and each point takes the one its
    branch picks: by the real part of b where |b.real| >= |b.imag|, else by
    the imaginary part; where neither comparison holds, a part of b is a
    NaN and so is the quotient.
    """
    by_real = np.abs(bre) >= np.abs(bim)
    by_imag = np.abs(bim) >= np.abs(bre)
    ratio = bim / bre
    denom = bre + bim * ratio
    re_real = (are + aim * ratio) / denom
    im_real = (aim - are * ratio) / denom
    ratio = bre / bim
    denom = bre * ratio + bim
    re_imag = (are * ratio + aim) / denom
    im_imag = (aim * ratio - are) / denom
    re = np.where(by_real, re_real, np.where(by_imag, re_imag, np.nan))
    im = np.where(by_real, im_real, np.where(by_imag, im_imag, np.nan))
    return re, im


def nyquist_locus(ctf, tau_d):
    """Sample G(j*omega) e^(-j*omega*tau_d) over default_omega_grid(ctf).

    The grid tops out at max(1e3, 2*omega_g) rad/s, and gain_crossover keeps
    omega_g below 1e12, so with tau_d at most models.MAX_DURATION_S every
    phase lag omega*tau_d is finite (below about 1e16 rad).

    The grid goes through float64 arrays of real and imaginary parts in
    the scalar path's operation order: Horner's rule at s = j*w, the
    quotient by _Py_c_quot's branches, the phase argument -1j * w * tau_d
    as two complex products, exp as e^re * (cos im, sin im), then the
    product. Each point equals freq_response(ctf, w) *
    cmath.exp(-1j * w * tau_d) bit for bit; only the bits inside a NaN may
    differ. NumPy's own complex arithmetic (polyval at 1j*w, complex
    division, np.exp) rounds differently on about half the points, and
    re + 1j*im would turn a -0.0 part into +0.0 and an infinite one into
    NaN, so the parts are stored through .real and .imag. A pole on the
    imaginary axis raises ZeroDivisionError at the first omega on it, as
    freq_response does.
    """
    _check_dead_time(tau_d)
    omegas = default_omega_grid(ctf)
    with np.errstate(all="ignore"):
        den_re, den_im = _horner_jw(ctf.den, omegas)
        on_pole = (den_re == 0.0) & (den_im == 0.0)
        if on_pole.any():
            omega = omegas[on_pole.argmax()]
            raise ZeroDivisionError(f"pole on the imaginary axis at omega = {omega}")
        g_re, g_im = _quot(*_horner_jw(ctf.num, omegas), den_re, den_im)
        # -1j is (-0.0, -1.0); times (w, 0.0), then times (tau_d, 0.0)
        lag_re = -0.0 * omegas - -1.0 * 0.0
        lag_im = -0.0 * 0.0 + -1.0 * omegas
        arg_re = lag_re * tau_d - lag_im * 0.0
        arg_im = lag_re * 0.0 + lag_im * tau_d
        scale = np.exp(arg_re)
        rot_re = scale * np.cos(arg_im)
        rot_im = scale * np.sin(arg_im)
        points = np.empty(omegas.size, dtype=np.complex128)
        points.real = g_re * rot_re - g_im * rot_im
        points.imag = g_re * rot_im + g_im * rot_re
    return NyquistLocus(omegas=omegas, points=points)


def encirclements(locus):
    """Signed winding count of the closed locus around -1; clockwise positive.

    The negative-frequency half is the complex-conjugate mirror of the
    sampled half; the path is closed by joining the two high-frequency ends
    (for strictly proper loops both sit near the origin). Raises if the
    locus passes within 1e-9 of the critical point, where the count is not
    well defined.
    """
    pts = np.concatenate([np.conj(locus.points[::-1]), locus.points])
    rel = pts + 1.0
    if np.abs(rel).min() < 1e-9:
        raise ValueError("locus passes through the critical point: marginal case")
    wrapped = np.concatenate([rel, rel[:1]])
    dphi = np.angle(wrapped[1:] / wrapped[:-1])
    total = float(dphi.sum())
    return int(round(-total / (2.0 * math.pi)))


def margin_table(ctf, taus):
    """MarginReport per dead time; the crossover is computed once."""
    wg = gain_crossover(ctf)
    base = math.degrees(cmath.phase(freq_response(ctf, wg)))
    out = []
    for tau in taus:
        _check_dead_time(tau)
        pm = 180.0 + base - math.degrees(wg * tau)
        out.append(MarginReport(gain_crossover_omega=wg, phase_margin_deg=pm, stable=pm > 0.0))
    return out
