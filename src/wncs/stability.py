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
    shapes this package analyzes.
    """
    if abs(freq_response(ctf, 0.0)) <= 1.0:
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


def nyquist_locus(ctf, tau_d):
    """Sample G(j*omega) e^(-j*omega*tau_d) over default_omega_grid(ctf).

    The grid tops out at max(1e3, 2*omega_g) rad/s, and gain_crossover keeps
    omega_g below 1e12, so with tau_d at most models.MAX_DURATION_S every
    phase lag omega*tau_d is finite (below about 1e16 rad).
    """
    _check_dead_time(tau_d)
    omegas = default_omega_grid(ctf)
    points = np.array(
        [freq_response(ctf, w) * cmath.exp(-1j * w * tau_d) for w in omegas]
    )
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
