"""Plant node: motor dynamics in byte units plus the slotted-disc encoder.

The motor model runs in normalized units internally; motor_step takes the
8-bit duty command and returns true speed in rev/s. The encoder counts
whole light-barrier transitions over one sampling period, so its reading
is floor-quantized to ENCODER_RESOLUTION = 1/(ENCODER_SLOTS * SAMPLE_TIME)
rev/s (2.5 with the stock 20-slot disc at 20 ms) before being rounded into
the byte payload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lti import DifferenceEqState
from .models import DUTY_SPAN, SAMPLE_TIME, SPEED_SPAN_RPS, pulse_tf_nominal

__all__ = [
    "ENCODER_SLOTS",
    "ENCODER_RESOLUTION",
    "make_motor",
    "motor_step",
    "EncoderConfig",
    "encoder_miscounts",
    "encoder_read",
]

ENCODER_SLOTS = 20
# Speed per counted transition, rev/s.
ENCODER_RESOLUTION = 1.0 / (ENCODER_SLOTS * SAMPLE_TIME)

# Duty byte -> unit model input, the reciprocal taken once.
_DUTY_SCALE = 1.0 / DUTY_SPAN


def make_motor(tf=None):
    """Motor dynamics; defaults to the device's coarse pulse coefficients."""
    return DifferenceEqState(tf if tf is not None else pulse_tf_nominal())


def motor_step(model, duty):
    """Advance one sample under the applied duty; returns true speed, rev/s."""
    if not 0 <= duty <= DUTY_SPAN:
        raise ValueError(f"duty {duty} outside 0..{DUTY_SPAN}")
    return model.step(duty * _DUTY_SCALE) * SPEED_SPAN_RPS


@dataclass(frozen=True)
class EncoderConfig:
    """Slotted-disc speed sensor read once per sampling period.

    jitter adds a seeded +-1 transition miscount (worst case for a clean
    edge detector); off by default so runs stay exactly reproducible unless
    asked for.
    """

    jitter: bool = False


def encoder_miscounts(config, n, rng=None):
    """Transition miscounts of n successive reads, as an int64 array.

    Zeros without jitter; with it, one block of n draws from -1, 0, +1,
    the same values as n single draws from the same generator.
    """
    if not config.jitter:
        return np.zeros(n, dtype=np.int64)
    if rng is None:
        raise ValueError("jitter enabled but no rng supplied")
    return rng.integers(-1, 2, size=n)


def encoder_read(config, true_speed, miscount=0):
    """Quantize true speed to whole transitions, then to the byte payload.

    x = floor(speed/resolution) transitions are counted; with jitter the
    read's miscount (see encoder_miscounts) is added, keeping x nonnegative.
    The byte carries round(x * resolution) with halves rounding up, clipped
    to 0..255.
    """
    if true_speed < 0.0:
        raise ValueError("true_speed must be nonnegative")
    x = math.floor(true_speed / ENCODER_RESOLUTION)
    if config.jitter:
        x = max(x + miscount, 0)
    byte = math.floor(x * ENCODER_RESOLUTION + 0.5)
    return min(max(byte, 0), 255)
