"""Plant node: motor dynamics in byte units plus the slotted-disc encoder.

The motor model is the pulse transfer function in normalized units:
motor_step feeds a lti.DifferenceEqState over it the 8-bit duty command
times DUTY_SCALE and returns true speed in rev/s. The closed-loop runner
steps the same first-order recurrence as local floats, in the same float
order; motor_step is the reference it is tested against.

The encoder counts whole light-barrier transitions over one sampling
period, so its reading is floor-quantized to ENCODER_RESOLUTION =
1/(ENCODER_SLOTS * SAMPLE_TIME) rev/s (2.5 with the stock 20-slot disc at
20 ms) before being rounded into the byte payload. The closed-loop runner
counts the transitions inline, in the same float order, and looks the byte
up in a table of this rounding and clamp, one entry per count, built once;
it reads only the frames its controller reads. encoder_read is the
reference it is tested against.
"""

from __future__ import annotations

import math

from .models import DUTY_SPAN, SAMPLE_TIME, SPEED_SPAN_RPS

__all__ = [
    "ENCODER_SLOTS",
    "ENCODER_RESOLUTION",
    "DUTY_SCALE",
    "motor_step",
    "encoder_read",
]

ENCODER_SLOTS = 20
# Speed per counted transition, rev/s.
ENCODER_RESOLUTION = 1.0 / (ENCODER_SLOTS * SAMPLE_TIME)

# Duty byte -> unit model input, the reciprocal taken once.
DUTY_SCALE = 1.0 / DUTY_SPAN


def motor_step(model, duty):
    """Advance one sample under the applied duty; returns true speed, rev/s."""
    if not 0 <= duty <= DUTY_SPAN:
        raise ValueError(f"duty {duty} outside 0..{DUTY_SPAN}")
    return model.step(duty * DUTY_SCALE) * SPEED_SPAN_RPS


def encoder_read(true_speed):
    """Quantize true speed to whole transitions, then to the byte payload.

    x = floor(speed/resolution) transitions are counted. The byte carries
    round(x * resolution) with halves rounding up, clipped to 0..255.
    """
    if true_speed < 0.0:
        raise ValueError("true_speed must be nonnegative")
    x = math.floor(true_speed / ENCODER_RESOLUTION)
    byte = math.floor(x * ENCODER_RESOLUTION + 0.5)
    return min(max(byte, 0), 255)
