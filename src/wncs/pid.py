"""Discrete PI control: the device's position algorithm, its linear pulse
form, and a root-locus design procedure against the first-order pulse model.

The implementation constant for the integral path is ki*sample_time (the
shipped gains kp = 1.69, ki = 7.44 at T = 20 ms give 0.1488 per accumulated
error unit). The shipped gains are used directly as (kp, ki).

The closed-loop runner computes the same position algorithm inline, in the
same float order; pi_step and PiState are the reference it is tested
against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .lti import DiscreteTf

__all__ = [
    "PiGains",
    "PiState",
    "pi_step",
    "pi_pulse_tf",
    "dominant_pole",
    "design_pi_root_locus",
    "root_locus_design_report",
    "RootLocusReport",
]


@dataclass(frozen=True)
class PiGains:
    kp: float
    ki: float  # 1/s; the per-sample integral gain is ki * sample_time
    sample_time: float

    def __post_init__(self):
        if not (self.sample_time > 0.0 and math.isfinite(self.sample_time)):
            raise ValueError("sample_time must be positive")
        if not (math.isfinite(self.kp) and math.isfinite(self.ki)):
            raise ValueError("gains must be finite")

    @property
    def ki_t(self):
        return self.ki * self.sample_time


@dataclass
class PiState:
    """Accumulated error sum plus a flag for the last step's saturation."""

    integral_sum: float = 0.0
    saturated_last: bool = False


def pi_step(gains, state, min_duty, max_duty, error):
    """One position-algorithm update; returns the integer duty command.

    Accumulate the error, form kp*e + ki*T*sum, clamp into min_duty..max_duty.
    Upper saturation pins the error sum to max_duty/(ki*T), the sum that
    reproduces max_duty through the integral path alone; the lower clamp
    leaves the sum alone (the device's algorithm only guards the top end).
    The duty byte is truncated toward zero, not rounded.
    """
    if min_duty >= max_duty:
        raise ValueError("min_duty must be below max_duty")
    state.integral_sum += error
    u = gains.kp * error + gains.ki_t * state.integral_sum
    saturated = False
    if u > max_duty:
        u = float(max_duty)
        saturated = True
        if gains.ki_t != 0.0:
            state.integral_sum = max_duty / gains.ki_t
    if u < min_duty:
        u = float(min_duty)
        saturated = True
    state.saturated_last = saturated
    return int(u)


def pi_pulse_tf(gains):
    """Pulse transfer function K(z - c)/(z - 1) of the linear PI law.

    K = kp + ki*T and c = kp/K: the controller contributes a pole at z = 1
    and a tunable zero. Saturation and duty quantization are not part of
    this linear picture.
    """
    k = gains.kp + gains.ki_t
    if gains.ki_t == 0.0:
        raise ValueError("ki*T = 0: the z = 1 pole/zero pair would cancel")
    if k == 0.0:
        raise ValueError("kp + ki*T = 0: degenerate controller")
    return DiscreteTf(
        num=(k, -gains.kp),
        den=(1.0, -1.0),
        sample_time=gains.sample_time,
    )


def dominant_pole(zeta, wd_over_ws):
    """Target closed-loop pole for a damping ratio and a wd/ws frequency ratio.

    |z| = exp(-2*pi*zeta/sqrt(1-zeta^2) * ratio), angle = 2*pi*ratio.
    """
    if not 0.0 < zeta < 1.0:
        raise ValueError("zeta must be in (0, 1)")
    if not 0.0 < wd_over_ws < 0.5:
        raise ValueError("wd/ws must be in (0, 0.5)")
    radius = math.exp(-2.0 * math.pi * zeta / math.sqrt(1.0 - zeta * zeta) * wd_over_ws)
    return cmath.rect(radius, 2.0 * math.pi * wd_over_ws)


@dataclass(frozen=True)
class RootLocusReport:
    """Design summary: gains plus the geometry that produced them."""

    gains: PiGains
    target_pole: complex
    zero: float
    loop_gain: float
    angle_residual_deg: float
    magnitude_residual: float


def root_locus_design_report(plant, zeta, wd_over_ws):
    """Place the PI zero and loop gain so the root locus of

        K (z - c)/(z - 1) * b/(z - p)

    passes through the dominant pole implied by (zeta, wd_over_ws).

    The angle criterion fixes c analytically; the magnitude criterion then
    fixes K. kp = K*c and ki*T = K*(1 - c). The report carries both
    criterion residuals so a caller can confirm the placement.
    """
    den = plant.den
    num = plant.num
    if len(den) != 2 or len(num) != 2 or num[0] != 0.0 or num[1] == 0.0:
        raise ValueError("plant must be a first-order pulse model b*z^-1/(1 - p*z^-1)")
    p = -den[1]
    b = num[1]
    zd = dominant_pole(zeta, wd_over_ws)
    if zd.imag <= 0.0:
        raise ValueError("target pole must be strictly complex")
    theta_c = cmath.phase(zd - 1.0) + cmath.phase(zd - p) - math.pi
    theta_c = math.remainder(theta_c, 2.0 * math.pi)
    if not 0.0 < theta_c < math.pi:
        raise ValueError(
            "angle criterion puts the zero angle outside (0, 180) degrees: "
            "no real zero can place the locus through the target pole"
        )
    c = zd.real - zd.imag / math.tan(theta_c)
    k = abs(zd - 1.0) * abs(zd - p) / (abs(zd - c) * abs(b))
    gains = PiGains(
        kp=k * c,
        ki=k * (1.0 - c) / plant.sample_time,
        sample_time=plant.sample_time,
    )
    angle_residual = math.degrees(cmath.phase(zd - c) - theta_c)
    magnitude_residual = abs(k * b * (zd - c) / ((zd - 1.0) * (zd - p))) - 1.0
    return RootLocusReport(
        gains=gains,
        target_pole=zd,
        zero=c,
        loop_gain=k,
        angle_residual_deg=angle_residual,
        magnitude_residual=magnitude_residual,
    )


def design_pi_root_locus(plant, zeta, wd_over_ws):
    """PI gains placing the dominant closed-loop pole; see the report variant."""
    return root_locus_design_report(plant, zeta, wd_over_ws).gains
