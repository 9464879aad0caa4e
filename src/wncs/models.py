"""Named constants for the reference motor rig this package models.

The simulated system is one concrete bench setup: a brushed DC motor driven
by an 8-bit PWM duty cycle, its speed read from a 20-slot encoder disc over
a 20 ms window and transmitted as a single byte across a serial radio link
to the controller node. The constants below are the rig's identified
first-order model, the coarse-coefficient pulse transfer function running on
the embedded device, the dead-time compensator's internal plant copy, and
the controller gains shipped on the device.
"""

from .lti import ContinuousTf, DiscreteTf, zoh_discretize_first_order

__all__ = [
    "MOTOR_GAIN",
    "MOTOR_POLE",
    "SAMPLE_TIME",
    "MAX_DURATION_S",
    "SPEED_SPAN_RPS",
    "DUTY_SPAN",
    "DEFAULT_KP",
    "DEFAULT_KI",
    "motor_ct_tf",
    "pulse_tf_nominal",
    "pulse_tf_exact",
    "predictor_model_tf",
]

# First-order fit K/(s + a) of normalized duty -> normalized speed, held-out
# fit 83.75%. Time constant 1/a is about 257 ms.
MOTOR_GAIN = 4.159
MOTOR_POLE = 3.888

# Control and measurement period of both nodes, seconds.
SAMPLE_TIME = 0.02

# Longest run a scenario may ask for (180,000 ticks, every per-tick column
# allocated up front), hence the longest dead time the compensator and the
# stability analysis accept.
MAX_DURATION_S = 3600.0

# Scaling between the byte world and physics: duty 0..255 maps to the unit
# model input, model output 0..1 maps to 0..200 rev/s.
SPEED_SPAN_RPS = 200.0
DUTY_SPAN = 255

# Loop-shaping gains shipped on the device (the root-locus design path in
# wncs.pid produces a more aggressive alternative).
DEFAULT_KP = 1.69
DEFAULT_KI = 7.44


def motor_ct_tf():
    """Identified continuous model K/(s + a), normalized units."""
    return ContinuousTf(num=(MOTOR_GAIN,), den=(MOTOR_POLE, 1.0))


def pulse_tf_nominal():
    """Pulse transfer function with the device's coarse coefficients.

    The embedded code carries 0.0831/(z - 0.92); the exact step-invariant
    map of the identified model is pulse_tf_exact(). Simulations default to
    this nominal form so they reproduce the device's behavior.
    """
    return DiscreteTf(num=(0.0, 0.0831), den=(1.0, -0.92), sample_time=SAMPLE_TIME)


def pulse_tf_exact():
    """Step-invariant discretization of the identified model, full precision."""
    return zoh_discretize_first_order(MOTOR_GAIN, MOTOR_POLE, SAMPLE_TIME)


def predictor_model_tf():
    """Internal plant copy used by the dead-time compensator.

    Carries its own rounding of the same model (0.0832 numerator); kept
    distinct from pulse_tf_nominal so model mismatch stays representable.
    """
    return DiscreteTf(num=(0.0, 0.0832), den=(1.0, -0.92), sample_time=SAMPLE_TIME)

