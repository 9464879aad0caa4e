"""Closed-loop runner: plant node and controller node joined by the link.

The run has a timing plane and a value plane. Frame delays depend only on
the channel policies and the seed, never on plant values, so before the
first tick the runner computes the whole timing plane as arrays:

  link schedule     each direction's delays drawn in one block, every
                    frame's deliver time and poll tick, the controller's
                    send ticks (under "hold" these follow the measurement
                    arrivals), and the counts drained and sent by each
                    tick, computed once for every reader below
                    (see _link_schedule)
  delay estimate    each tick's t_m, event code and kept RTT as int
                    columns (delay_est.estimate_stream: measurement
                    arrivals matched FIFO to the oldest pending send)
  read index        the frame each tick's controller reads: the count of
                    frames drained by then, 0 on a tick that drains none
  setpoint, time    the setpoint and t_ms columns
  encoder jitter    the run's miscounts, drawn in one block
  delay model       for the adaptive compensator, the tau in effect at
                    each tick and the taps of every distinct tau's
                    discretized series, from a table the process keeps
                    (smith.delay_schedule)

Where neither leg is UniformRandom, the link schedule, the read index and
the delay estimate draw nothing: they are a function of the two leg
policies, vacant_policy and the tick count alone. A sweep runs every
compensator over the same fixed links, so the process keeps these columns
in a memo keyed by those four (_timing_plane), as read-only arrays, each
as narrow as its values allow; the RunRecord gets its own int64 copies of
the estimator's. The memo is an lti._Memo of at most 2**16 ticks of
planes (about 2.2 MB), counting the delays of each Trace its keys hold.
A longer plane, such as an hour-long run's, bypasses it.

Per 20 ms tick the loop then runs only the value plane, in order:

  plant node        applies the newest command drained by this tick and
                    advances the motor one sample; the speed goes out in
                    the tick's measurement frame
  compensator       the predictor model's output for the tick and its
                    delayed copy (the output lag ticks back for the
                    classical form, the tick's scheduled series for the
                    adaptive one)
  controller node   if a measurement arrived, reads the encoder byte of
                    the newest frame; then, if one arrived (or always,
                    under "resend"), forms the error against it plus
                    the Smith correction, runs the PI step and sends the
                    duty byte; then the compensator's model and delay line
                    advance with the standing duty

The encoder byte depends only on the frame's own tick (its speed and its
miscount), so it is taken only for a frame the controller reads, on the
tick that reads it: a frame that another overtakes in the same drain, or
that never arrives, is never read. On the intermediate presets more than
half the ticks drain nothing.

The three linear recurrences (motor, predictor model, delay line) are
stepped as local floats, summed in lti.DifferenceEqState.peek's order, and
the PI step is computed inline in pid.pi_step's float order. The encoder
read counts its whole transitions inline, as plant.encoder_read does, and
looks the byte up in _ENCODER_BYTES, which states encoder_read's rounding
and clamp once per count, at import; _DUTY_INPUTS and _DUTY_FRACTIONS
likewise hold each duty byte's motor and predictor-model inputs. The loop
body calls no function of the package, and the run equals one stepped
through DifferenceEqState, smith.SmithPredictor, encoder_read and pi_step,
which stay as the references, to the last bit. The adaptive delay line
sums every model over five taps, a lower-order model's missing ones 0.0.
A 0.0 tap adds a signed zero, which can change only the sign of a sum
that is zero; that sign reaches later sums only through zero products,
and is lost where the correction is added to the nonnegative
measurement.

On a vacant sample the default policy recomputes and resends using the
stale measurement (the integral keeps accumulating); the "hold" policy
skips the controller entirely and leaves the last command standing. The
compensator's internal model advances every tick with the standing duty
either way, so it tracks what the actuator is actually doing.

The recorded speed_meas column is the controller's current view (the
newest received byte, 0 before anything arrives) and the duty column the
newest command sent; both are read off the schedule after the loop.
speed_true is the plant-side speed the same tick. Delay effects therefore
show up in the measured column and the error metrics built on it.

Everything is deterministic for a given config: the master seed spawns
independent child streams for each channel direction and the encoder. Only
a UniformRandom leg and encoder jitter draw from them; a run where neither
does spawns none, and builds no generator.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import numbers
import sys
import typing
from dataclasses import dataclass, field

import numpy as np

from .delay_approx import ApproxKind
from .delay_est import (
    EVENT_BYTES,
    EVENT_NAMES,
    EVENTS,
    distinct_cells,
    estimate_stream,
    read_text,
    write_table,
)
from .lti import _Memo, _packed
from .models import (
    DEFAULT_KI,
    DEFAULT_KP,
    DUTY_SPAN,
    MAX_DURATION_S,
    SAMPLE_TIME,
    SPEED_SPAN_RPS,
    predictor_model_tf,
    pulse_tf_exact,
    pulse_tf_nominal,
)
from .netchan import (
    Fixed,
    Trace,
    UniformRandom,
    draw_delays,
    fifo_deliver_times,
    read_delay_trace,
)
from .plant import DUTY_SCALE, ENCODER_RESOLUTION, encoder_miscounts
from .smith import delay_schedule

__all__ = [
    "ScenarioConfig",
    "RunRecord",
    "Metrics",
    "run_closed_loop",
    "compute_metrics",
    "write_metrics_csv",
    "load_config",
    "config_from_dict",
    "config_to_dict",
    "preset_config",
    "apply_smith_variant",
    "with_total_fixed_delay",
    "MAX_GAIN",
    "MIN_KI",
    "PRESET_NAMES",
    "SMITH_VARIANTS",
]

# Bound on the control error |e| that pi_step sees: the setpoint
# (0..SPEED_SPAN_RPS) minus the measured byte (0..255) plus the Smith
# correction. The correction is the predictor model's speed (at most its
# DC gain, 1.04, times SPEED_SPAN_RPS) minus a delayed copy of it. The
# classical copy is an earlier model output; the adaptive one passes
# through a delay series, and the marginally stable marshall series is the
# loudest: its impulse response sums to under 2e5 over MAX_DURATION_S of
# ticks. 2**40 rps is far above all of these.
_MAX_ERROR_RPS = 2.0**40

# Largest |kp| and |ki|. The integral sum holds at most MAX_DURATION_S / T
# errors, so |kp*e + ki*T*sum| is at most
# MAX_GAIN * _MAX_ERROR_RPS * (1 + MAX_DURATION_S), half the largest float:
# the PI output stays finite and never forms inf - inf (nan). About 2.3e292.
MAX_GAIN = sys.float_info.max / (2.0 * _MAX_ERROR_RPS * (1.0 + MAX_DURATION_S))

# Smallest nonzero |ki|. On upper saturation pi_step pins the integral sum
# to max_duty / (ki*T), at most DUTY_SPAN / (MIN_KI*T), half the largest
# float: the pin stays finite, and the errors added to it afterwards (under
# 2**40 * (1 + MAX_DURATION_S / T)) cannot reach inf. A smaller ki pinned
# the sum to inf and held the duty at max_duty for the rest of the run.
# About 1.42e-304; ki = 0 (no integral action) stays valid.
MIN_KI = 2.0 * DUTY_SPAN / (SAMPLE_TIME * sys.float_info.max)


@dataclass
class ScenarioConfig:
    """One closed-loop scenario, run at the rig's fixed models.SAMPLE_TIME."""

    duration_s: float = 25.0
    setpoint_rps: float = 100.0
    setpoint_start_s: float = 0.0
    setpoint_period_s: float = 0.0  # > 0: square wave between 0 and setpoint_rps
    seed: int = 0
    plant_model: str = "nominal"  # "nominal" (device coefficients) or "exact"
    encoder_jitter: bool = False
    kp: float = DEFAULT_KP
    ki: float = DEFAULT_KI
    min_duty: int = 0
    max_duty: int = 255
    ctrl_to_plant: Fixed | UniformRandom | Trace = field(default_factory=lambda: Fixed(0))
    plant_to_ctrl: Fixed | UniformRandom | Trace = field(default_factory=lambda: Fixed(0))
    smith_mode: str = "off"  # "off", "classical", "adaptive"
    smith_tau_ms: float = 60.0
    smith_kind: str = "dfr"
    vacant_policy: str = "resend"  # "resend" or "hold"

    def validate(self):
        """Check each field's annotated type and range; returns self.

        An integer in a float field is stored back as a float, and a numpy
        or other non-int integer in an int field as an int.
        """
        return self._validate({})

    def _validate(self, keys):
        # The messages call a field in keys by keys[field], else by its name;
        # an unknown choice is prefixed with keys[field] where keys has it.
        def name(field):
            return keys.get(field, field)

        def unknown(field, what):
            where = f"{keys[field]}: " if field in keys else ""
            return ValueError(f"{where}unknown {what} {getattr(self, field)!r}")

        for field, kind in _FIELD_TYPES.items():
            value = getattr(self, field)
            if not _has_type(value, kind):
                raise ValueError(
                    f"{name(field)} must be {_TYPE_NAMES.get(kind, 'a delay policy')}"
                )
            if kind is float:
                setattr(self, field, float(value))
            elif kind is int and type(value) is not int:
                setattr(self, field, int(value))
        if not SAMPLE_TIME <= self.duration_s <= MAX_DURATION_S:
            raise ValueError(
                f"{name('duration_s')} must be within {SAMPLE_TIME:g}..{MAX_DURATION_S:g} s"
            )
        if self.seed < 0:
            raise ValueError(f"{name('seed')} must be a nonnegative integer")
        if not 0.0 <= self.setpoint_rps <= SPEED_SPAN_RPS:
            raise ValueError(f"{name('setpoint_rps')} must be within 0..{SPEED_SPAN_RPS:g}")
        if self.setpoint_start_s < 0.0:
            raise ValueError(f"{name('setpoint_start_s')} must be nonnegative")
        if self.setpoint_period_s < 0.0:
            raise ValueError(f"{name('setpoint_period_s')} must be nonnegative")
        if self.plant_model not in ("nominal", "exact"):
            raise unknown("plant_model", "plant model")
        if self.vacant_policy not in ("resend", "hold"):
            raise unknown("vacant_policy", "vacant policy")
        if self.smith_mode not in ("off", "classical", "adaptive"):
            raise unknown("smith_mode", "smith mode")
        # No run is longer, so no longer dead time takes effect.
        if not 0.0 <= self.smith_tau_ms <= MAX_DURATION_S * 1000.0:
            raise ValueError(
                f"{name('smith_tau_ms')} must be within 0..{MAX_DURATION_S * 1000.0:.0f} ms"
            )
        try:
            ApproxKind(self.smith_kind)
        except ValueError:
            raise unknown("smith_kind", "series kind") from None
        if not (0 <= self.min_duty < self.max_duty <= DUTY_SPAN):
            raise ValueError(f"need 0 <= {name('min_duty')} < {name('max_duty')} <= {DUTY_SPAN}")
        for field in ("kp", "ki"):
            if not abs(getattr(self, field)) <= MAX_GAIN:
                raise ValueError(f"{name(field)} must be within -{MAX_GAIN:.4g}..{MAX_GAIN:.4g}")
        if 0.0 < abs(self.ki) < MIN_KI:
            raise ValueError(f"{name('ki')} must be 0 or at least {MIN_KI:.4g} in size")
        return self


_FIELD_TYPES = typing.get_type_hints(ScenarioConfig)
_TYPE_NAMES = {float: "a finite number", int: "an integer", bool: "true or false", str: "a string"}


def _has_type(value, kind):
    # A plain float or int skips the ABC tests, which are the slow part.
    exact = type(value)
    if kind is float:
        if exact is not float and exact is not int:
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                return False
            if isinstance(value, np.floating):
                # Compared as it is, a float32 would cast the bound to its own inf.
                value = float(value)
        # A range comparison, not math.isfinite: it is exact for integers of
        # any size and for Fractions, and false for nan.
        return -sys.float_info.max <= value <= sys.float_info.max
    if kind is int:
        return exact is int or (
            isinstance(value, numbers.Integral) and not isinstance(value, bool)
        )
    return isinstance(value, kind)


@dataclass
class RunRecord:
    """Per-tick trace of one closed-loop run plus channel accounting.

    Rows are models.SAMPLE_TIME apart. The delay estimator's output stays
    as estimate_stream gives it: codes index delay_est.EVENTS, and rtt_ms
    holds each tick's kept RTT, -1 where none was kept.
    """

    t_ms: np.ndarray
    setpoint: np.ndarray
    speed_meas: np.ndarray
    speed_true: np.ndarray
    duty: np.ndarray
    tm_ms: np.ndarray
    codes: np.ndarray
    rtt_ms: np.ndarray
    frame_stats: dict

    @property
    def event(self):
        """Each tick's event name."""
        return [EVENT_NAMES[code] for code in self.codes.tolist()]

    @property
    def estimator_log(self):
        """The estimator's rows as EstimatorState.log holds them:
        (sample_ms, Event, rtt_ms or None, tm_ms)."""
        return [
            (t, EVENTS[code], None if rtt < 0 else rtt, tm)
            for t, code, rtt, tm in zip(
                self.t_ms.tolist(), self.codes.tolist(), self.rtt_ms.tolist(), self.tm_ms.tolist()
            )
        ]

    def write_csv(self, path):
        """Write the per-tick trace with delay_est.write_table.

        setpoint and speed_meas take few distinct values, so each distinct
        bit pattern of theirs is formatted once (a -0.0 keeps its "-0").
        """
        setpoint = distinct_cells(self.setpoint, b"%.10g".__mod__)
        speed_meas = distinct_cells(self.speed_meas, b"%.10g".__mod__)
        columns = [self.t_ms.tolist(), setpoint, speed_meas, self.speed_true.tolist()]
        columns += [self.duty.tolist(), self.tm_ms.tolist(), EVENT_BYTES[self.codes].tolist()]
        header = b"t_ms,setpoint,speed_meas,speed_true,duty,tm_ms,event\n"
        write_table(path, header, b"%d,%s,%s,%.10g,%d,%d,%s\n", columns)


def _ctrl_send_ticks(arrived, vacant_policy):
    """Ticks at which the controller transmits a command.

    arrived[k] is true when a measurement reaches the controller at tick k;
    "hold" transmits only then, "resend" every tick.
    """
    if vacant_policy == "resend":
        return np.arange(arrived.size)
    return np.flatnonzero(arrived)


def _polled_by_tick(deliver, t_ms, n_ticks, earliest_tick=0):
    """Per tick, how many frames the receiver drains at it.

    A frame is drained at the first poll on or after its deliver time, and
    not before earliest_tick. A frame drained at tick n_ticks or later is
    not counted.
    """
    tick = np.minimum((deliver + (t_ms - 1)) // t_ms, n_ticks).astype(np.int64)
    tick = np.maximum(tick, earliest_tick)
    return np.bincount(tick, minlength=n_ticks + 1)[:n_ticks]


def _draw_leg(config, leg, n, rng=None):
    """draw_delays for the leg's policy, an error naming the leg."""
    try:
        return draw_delays(getattr(config, leg), n, rng)
    except ValueError as exc:
        raise ValueError(f"{leg}: {exc}") from None


class _Link(typing.NamedTuple):
    """Both link directions' timing for a whole run, as arrays.

    Each column is computed once here and shared by every part of the
    timing plane that reads it.
    """

    p2c_deliver: np.ndarray  # deliver time of each measurement frame (one sent per tick)
    p2c_arrivals: np.ndarray  # measurement frames drained at each tick
    p2c_drained: np.ndarray  # measurement frames drained by the end of each tick
    send_ticks: np.ndarray  # the ticks at which the controller sends a command
    sent_by: np.ndarray  # commands sent by the end of each tick
    c2p_drained: np.ndarray  # command frames drained by the end of each tick


def _link_schedule(config, n_ticks, t_ms, rng_c2p, rng_p2c):
    """Both link directions' deliveries for the whole run, before its first tick.

    Returns the _Link of the run. rng_c2p and rng_p2c are the directions'
    generators (None for one that draws nothing). Delays depend only on the
    policies and the seeds, so nothing here waits on a plant value.
    """
    p2c = config.plant_to_ctrl
    # A plant->controller trace that runs out fails the run at the tick of
    # its first missing frame. Schedule only the ticks before that one, so a
    # controller->plant trace that runs out sooner raises first. Within a
    # tick the plant sends before the controller, so a tie goes to p2c.
    n_served = n_ticks
    if isinstance(p2c, Trace) and not p2c.cycle:
        n_served = min(n_ticks, len(p2c.delays_ms))
    p2c_deliver = fifo_deliver_times(
        np.arange(n_served) * t_ms, _draw_leg(config, "plant_to_ctrl", n_served, rng_p2c)
    )
    p2c_arrivals = _polled_by_tick(p2c_deliver, t_ms, n_served)
    send_ticks = _ctrl_send_ticks(p2c_arrivals > 0, config.vacant_policy)
    c2p_delays = _draw_leg(config, "ctrl_to_plant", send_ticks.size, rng_c2p)
    if n_served < n_ticks:
        _draw_leg(config, "plant_to_ctrl", n_ticks)  # raises the trace's exhaustion error
    # The plant polls before the controller sends, so a command is seen on
    # the tick after its send at the earliest.
    c2p_arrivals = _polled_by_tick(
        fifo_deliver_times(send_ticks * t_ms, c2p_delays), t_ms, n_ticks, send_ticks + 1
    )
    return _Link(
        p2c_deliver,
        p2c_arrivals,
        np.cumsum(p2c_arrivals),
        send_ticks,
        np.cumsum(np.bincount(send_ticks, minlength=n_ticks)),
        np.cumsum(c2p_arrivals),
    )


class _Plane(typing.NamedTuple):
    """The timing-plane columns a run reads once its set-up is done.

    A plane in the memo is shared by every run that finds it there, so its
    arrays are read-only. Each column is stored at the width its values
    need: a count of frames or ticks, a time or an RTT in milliseconds is
    at most the 180,000 ticks or 3,600,000 ms of the longest run, so
    int32, and an event code int8. send_ticks and sent_by are int64: they
    index arrays, where numpy takes an int64 index fastest.
    """

    # The frame each tick's controller reads, counted from 1 (frame i left
    # at tick i), or 0 on a tick that drains none; int32.
    reading: np.ndarray
    send_ticks: np.ndarray  # the ticks at which the controller sends a command
    sent_by: np.ndarray  # commands sent by the end of each tick
    c2p_drained: np.ndarray  # command frames drained by the end of each tick; int32
    # The estimator's columns as estimate_stream gives them.
    tm_ms: np.ndarray  # each tick's estimate; int32
    codes: np.ndarray  # each tick's event, an index into delay_est.EVENTS; int8
    rtt_ms: np.ndarray  # each tick's kept RTT, -1 where none was; int32
    p2c_delivered: int  # measurement frames drained by the end of the run


# (c2p, p2c, vacant_policy, n_ticks) -> the _Plane of a draw-free run. A
# plane is charged its ticks (33 bytes each of columns), 32 for its fixed
# parts (key, tuples and array headers: about 1.5 KB) and one per delay of
# each Trace leg its key keeps alive: about 2.2 MB at most.
_PLANES = _Memo(2**16)


def _timing_plane(config, n_ticks, t_ms, rng_c2p, rng_p2c):
    """The run's _Plane, through the memo where neither leg draws.

    Where no leg is UniformRandom, the link schedule and the estimates
    depend only on the two policies, vacant_policy and n_ticks, so a plane
    is computed once per process for each such key. One charged more than
    the cap is not looked up (its key is not hashed) and changes nothing.
    """
    legs = (config.ctrl_to_plant, config.plant_to_ctrl)
    charge = n_ticks + 32 + sum(len(leg.delays_ms) for leg in legs if isinstance(leg, Trace))
    if charge > _PLANES.cap or any(isinstance(leg, UniformRandom) for leg in legs):
        return _new_plane(config, n_ticks, t_ms, rng_c2p, rng_p2c)
    key = (*legs, config.vacant_policy, n_ticks)
    plane = _PLANES.get(key)
    if plane is None:
        plane = _PLANES.store(key, _new_plane(config, n_ticks, t_ms, rng_c2p, rng_p2c), charge)
    return plane


def _new_plane(config, n_ticks, t_ms, rng_c2p, rng_p2c):
    """The run's _Plane, computed from its link schedule; read-only."""
    link = _link_schedule(config, n_ticks, t_ms, rng_c2p, rng_p2c)
    tm_ms, codes, rtt_ms = estimate_stream(
        link.p2c_deliver, link.p2c_arrivals, link.p2c_drained, link.send_ticks, link.sent_by, t_ms
    )
    columns = (
        np.where(link.p2c_arrivals > 0, link.p2c_drained, 0).astype(np.int32),
        link.send_ticks,
        link.sent_by,
        link.c2p_drained.astype(np.int32),
        tm_ms.astype(np.int32),
        codes.astype(np.int8),
        rtt_ms.astype(np.int32),
    )
    for column in columns:
        column.flags.writeable = False
    return _Plane(*columns, int(link.p2c_drained[-1]))


def _generators(config):
    """The run's (c2p, p2c, encoder) generators, or three Nones.

    Only a UniformRandom leg and encoder jitter draw. A run where neither
    does spawns no seed and builds no generator (numpy.random stays
    unimported); the three are spawned together or not at all, so no
    stream's seed depends on what the others draw.
    """
    legs = (config.ctrl_to_plant, config.plant_to_ctrl)
    if not (config.encoder_jitter or any(isinstance(leg, UniformRandom) for leg in legs)):
        return None, None, None
    return tuple(map(np.random.default_rng, np.random.SeedSequence(config.seed).spawn(3)))


def _setpoint_column(config, t_ms):
    """The setpoint at each tick's time t_ms (integer milliseconds).

    Zero before setpoint_start_s; with a period, a square wave that holds
    setpoint_rps for the first half of each period and zero for the second.
    The phase is taken in milliseconds, where the tick times are whole
    numbers, so a period that is a whole number of ticks splits into equal
    runs of ticks.
    """
    on = t_ms / 1000.0 >= config.setpoint_start_s
    period_ms = config.setpoint_period_s * 1000.0
    if period_ms > 0.0:
        # A start past about 1e305 s is -inf ms from every tick and gives a
        # nan phase; those ticks are off before the phase is read.
        with np.errstate(invalid="ignore"):
            phase = np.fmod(t_ms - config.setpoint_start_s * 1000.0, period_ms)
        on &= phase < period_ms / 2.0
    return np.where(on, config.setpoint_rps, 0.0)


# The encoder's byte per whole transition count x (plant.encoder_read's
# rounding, halves up, and its clamp at 255), as floats. The table ends at
# the first count x with x * ENCODER_RESOLUTION >= 255, which reads 255
# however it rounds; every larger count reads 255 as well.
_ENCODER_BYTES = [
    float(min(math.floor(x * ENCODER_RESOLUTION + 0.5), 255))
    for x in range(math.ceil(255 / ENCODER_RESOLUTION) + 1)
]

# Per duty byte d, the two floats the loop feeds its models: the motor's
# input d * DUTY_SCALE (plant.motor_step's) and the predictor model's input
# d / DUTY_SPAN (the fraction of full duty SmithPredictor.commit is given).
_DUTY_INPUTS = [d * DUTY_SCALE for d in range(DUTY_SPAN + 1)]
_DUTY_FRACTIONS = [d / DUTY_SPAN for d in range(DUTY_SPAN + 1)]


def _first_order(tf):
    """(b0, b1, a1) of a first-order model (b0 + b1 z^-1) / (1 + a1 z^-1)."""
    (b0, b1), (_, a1) = tf.num, tf.den
    return b0, b1, a1


def run_closed_loop(config):
    """Simulate one scenario tick by tick; returns the RunRecord."""
    config.validate()
    t_ms = round(SAMPLE_TIME * 1000.0)
    n_ticks = round(config.duration_s / SAMPLE_TIME)

    rng_c2p, rng_p2c, rng_enc = _generators(config)
    plane = _timing_plane(config, n_ticks, t_ms, rng_c2p, rng_p2c)
    send_ticks, sent_by = plane.send_ticks, plane.sent_by
    times = np.arange(n_ticks, dtype=np.int64) * t_ms
    setpoint = _setpoint_column(config, times)
    # Indexed by the read index, so padded with one leading entry.
    miscounts = [0] + encoder_miscounts(config.encoder_jitter, n_ticks, rng_enc).tolist()

    # The PI law's constants and its error sum (pid.pi_step's).
    kp = config.kp
    ki_t = config.ki * SAMPLE_TIME
    min_duty, max_duty = float(config.min_duty), float(config.max_duty)
    integral = 0.0
    floor = math.floor
    encoder_bytes = _ENCODER_BYTES
    duty_inputs, duty_fractions = _DUTY_INPUTS, _DUTY_FRACTIONS
    top = len(encoder_bytes)
    resend = config.vacant_policy == "resend"
    compensated = config.smith_mode != "off"
    adaptive = config.smith_mode == "adaptive"

    # The three linear recurrences, stepped as local floats in
    # DifferenceEqState.peek's order (b0*u, then past inputs, then past
    # outputs): the motor, the predictor's model and its delay line.
    b0, b1, a1 = _first_order(
        pulse_tf_nominal() if config.plant_model == "nominal" else pulse_tf_exact()
    )
    u1 = y1 = 0.0
    mb0, mb1, ma1 = _first_order(predictor_model_tf())
    mu1 = my1 = 0.0
    yhat = delayed = 0.0
    # Classical delay line: every past model output, after lag zeros, so
    # past[-lag] is the output lag = round(tau/T) ticks back.
    lag = 0
    if config.smith_mode == "classical":
        lag = round(config.smith_tau_ms / 1000.0 / SAMPLE_TIME)
    past = [0.0] * lag
    # Adaptive delay line: the scheduled model of each tick over two past
    # inputs and outputs. Where the model changes, the loop takes the new
    # row and applies DifferenceEqState.rebind's rule: each window keeps its
    # newest min(old, new) entries, the model's nx past inputs and nw past
    # outputs, and the rest are zeroed.
    x1 = x2 = w1 = w2 = 0.0
    current = -1
    nx = nw = 0  # no model precedes tick 0
    section = itertools.repeat(0)
    if adaptive:
        _, rows, index = delay_schedule(config.smith_kind, plane.tm_ms, send_ticks, sent_by)
        section = index.tolist()

    # The speed each tick's measurement frame carries, after the pad.
    speed_true = [0.0]
    reads = [0.0]  # the controller's view before the first measurement, then each read
    duties = [0]  # the idle actuator's duty, then each command sent
    last_meas = 0.0
    duty_out = 0

    # No operation in the loop mixes an int with a float: CPython's
    # interpreter specializes float-float and int-int arithmetic, list
    # indexing and math.floor, but not int-float arithmetic or comparison,
    # int(), or an assignment of four names from a tuple. So the duty limits
    # are floats, a duty's model inputs are looked up, floor truncates the
    # clamped command (as int() does on [0, 255]) and the delay line shifts
    # one name at a time; each gives the float the mixed form does. Nor
    # does it call min(), which builds an argument tuple: a swap tests
    # min(old, new) < n as old < n or new < n.
    for applied, read, sp_now, j in zip(
        plane.c2p_drained.tolist(),
        plane.reading.tolist(),
        setpoint.tolist(),
        section,
    ):
        # Plant node: apply the newest command, run the motor.
        u = duty_inputs[duties[applied]]
        y = b0 * u + b1 * u1 - a1 * y1
        u1, y1 = u, y
        speed_true.append(y * SPEED_SPAN_RPS)

        # Compensator: the model's output reads no input this tick (it is
        # strictly proper), and its delayed copy.
        if compensated:
            yhat = mb0 * 0.0 + mb1 * mu1 - ma1 * my1
            if adaptive:
                if j != current:
                    current = j
                    c0, c1, c2, d1, d2, new_nx, new_nw = rows[j]
                    if nx < 2 or new_nx < 2:
                        x2 = 0.0
                        if nx < 1 or new_nx < 1:
                            x1 = 0.0
                    if nw < 2 or new_nw < 2:
                        w2 = 0.0
                        if nw < 1 or new_nw < 1:
                            w1 = 0.0
                    nx, nw = new_nx, new_nw
                delayed = c0 * yhat + c1 * x1 + c2 * x2 - d1 * w1 - d2 * w2
            else:
                delayed = past[-lag] if lag else yhat

        # Controller node: the newest measurement drained by this tick. Its
        # byte is the encoder's read of its sending tick's speed with that
        # tick's miscount (plant.encoder_read): whole transitions plus the
        # miscount, then the byte of that count. The speed needs no sign
        # check: both motor models have b1 > 0 and 0 < pole < 1, and duties
        # are bytes.
        if read:
            x = floor(speed_true[read] / ENCODER_RESOLUTION)
            miscount = miscounts[read]
            if miscount:
                x += miscount
                if x < 0:
                    x = 0
            last_meas = encoder_bytes[x] if x < top else 255.0
            reads.append(last_meas)
        if read or resend:
            correction = (yhat - delayed) * SPEED_SPAN_RPS if compensated else 0.0
            error = sp_now - (last_meas + correction)
            # PI step (pid.pi_step): upper saturation pins the error sum,
            # the lower clamp leaves it; the duty is truncated.
            integral += error
            command = kp * error + ki_t * integral
            if command > max_duty:
                command = max_duty
                if ki_t != 0.0:
                    integral = max_duty / ki_t
            if command < min_duty:
                command = min_duty
            duty_out = floor(command)
            duties.append(duty_out)

        # The compensator advances with the standing duty every tick.
        if compensated:
            mu1, my1 = duty_fractions[duty_out], yhat
            if adaptive:
                x2 = x1
                x1 = yhat
                w2 = w1
                w1 = delayed
            else:
                past.append(yhat)

    frame_stats = {
        name: {"sent": sent, "delivered": delivered, "in_flight": sent - delivered}
        for name, sent, delivered in (
            ("ctrl_to_plant", send_ticks.size, int(plane.c2p_drained[-1])),
            ("plant_to_ctrl", n_ticks, plane.p2c_delivered),
        )
    }

    # The controller's view and the standing duty per tick: the newest
    # measurement read and the newest command sent by then (0 before any).
    speed_meas = _packed(reads, len(reads), "d")[np.cumsum(plane.reading > 0)]
    return RunRecord(
        t_ms=times,
        setpoint=setpoint,
        speed_meas=speed_meas,
        speed_true=_packed(speed_true, n_ticks + 1, "d")[1:],
        duty=_packed(duties, len(duties), "q")[sent_by],
        tm_ms=plane.tm_ms.astype(np.int64),
        codes=plane.codes.astype(np.int64),
        rtt_ms=plane.rtt_ms.astype(np.int64),
        frame_stats=frame_stats,
    )


@dataclass(frozen=True)
class Metrics:
    """Step-response quality figures for one run.

    Overshoot, settling, and steady-state error are physical properties and
    read the true plant speed; the error integrals read the measured column
    so transport staleness is part of the score. A zero setpoint leaves
    overshoot and settling undefined (None); a response that never stays in
    the 2% band settles at infinity.
    """

    percent_overshoot: float | None
    settling_time_s: float | None
    steady_state_error: float
    ise: float
    trailing_half_ise: float


def compute_metrics(record):
    """Metrics for a run, scored against the record's final setpoint."""
    if record.t_ms.size == 0:
        raise ValueError("empty record")
    sp = float(record.setpoint[-1])
    y = record.speed_true
    n = y.size
    dt = SAMPLE_TIME

    if sp > 0.0:
        overshoot = max(0.0, (float(y.max()) - sp) / sp * 100.0)
        outside = np.nonzero(np.abs(y - sp) > 0.02 * sp)[0]
        if outside.size == 0:
            settling = 0.0
        elif outside[-1] == n - 1:
            settling = math.inf
        else:
            settling = float(outside[-1] + 1) * dt
    else:
        overshoot = None
        settling = None

    tail = max(1, n // 10)
    sse = sp - float(y[-tail:].mean())

    err = record.setpoint - record.speed_meas
    ise = float(np.sum(err**2) * dt)
    trailing = float(np.sum(err[n // 2 :] ** 2) * dt)
    return Metrics(
        percent_overshoot=overshoot,
        settling_time_s=settling,
        steady_state_error=sse,
        ise=ise,
        trailing_half_ise=trailing,
    )


def write_metrics_csv(metrics, path):
    """Write the metrics as a header and one row of .10g cells, empty where None."""
    names = [f.name for f in dataclasses.fields(Metrics)]
    vals = [getattr(metrics, name) for name in names]
    row_format = b",".join(b"%s" if v is None else b"%.10g" for v in vals) + b"\n"
    header = ",".join(names).encode() + b"\n"
    write_table(path, header, row_format, [[b"" if v is None else v] for v in vals])


# Bundled delay patterns for the trace preset: measured-looking bursty
# sequences per direction, cycled as needed. Milliseconds.
TRACE_PATTERN_TO_PLANT = (
    90, 95, 110, 88, 102, 140, 96, 85, 93, 121, 156, 99,
    87, 92, 108, 183, 95, 89, 97, 104, 92, 131, 88, 86,
    115, 94, 90, 171, 98, 85, 101, 93, 127, 89, 96, 109,
    86, 144, 91, 99, 84, 118, 95, 88, 162, 92, 87, 103,
)
TRACE_PATTERN_TO_CTRL = (
    105, 92, 88, 134, 97, 90, 112, 86, 149, 94, 89, 100,
    120, 91, 85, 167, 96, 93, 107, 88, 125, 90, 95, 86,
    138, 99, 84, 111, 92, 176, 87, 98, 94, 116, 89, 91,
    152, 85, 102, 96, 129, 88, 93, 105, 86, 143, 90, 97,
)

PRESET_NAMES = ("wired", "p2p-80ms", "intermediate-uniform", "intermediate-trace")
SMITH_VARIANTS = ("off", "classical-60ms", "adaptive-dfr", "adaptive-pade")


def preset_config(name):
    """Named scenario starting points; tweak the returned config freely."""
    if name == "wired":
        c2p, p2c = Fixed(0), Fixed(0)
    elif name == "p2p-80ms":
        c2p, p2c = Fixed(40), Fixed(40)  # 80 ms round trip, split evenly
    elif name == "intermediate-uniform":
        c2p, p2c = UniformRandom(80, 200), UniformRandom(80, 200)
    elif name == "intermediate-trace":
        c2p = Trace(TRACE_PATTERN_TO_PLANT, cycle=True)
        p2c = Trace(TRACE_PATTERN_TO_CTRL, cycle=True)
    else:
        raise ValueError(
            f"unknown preset {name!r} (available: {', '.join(PRESET_NAMES)})"
        )
    return ScenarioConfig(ctrl_to_plant=c2p, plant_to_ctrl=p2c)


def apply_smith_variant(config, variant):
    """Overlay a named compensator setup on a config; returns a new config."""
    if variant == "off":
        return dataclasses.replace(config, smith_mode="off")
    if variant == "classical-60ms":
        return dataclasses.replace(config, smith_mode="classical", smith_tau_ms=60.0)
    if variant == "adaptive-dfr":
        return dataclasses.replace(config, smith_mode="adaptive", smith_kind="dfr")
    if variant == "adaptive-pade":
        return dataclasses.replace(config, smith_mode="adaptive", smith_kind="pade2")
    raise ValueError(
        f"unknown smith variant {variant!r} (available: {', '.join(SMITH_VARIANTS)})"
    )


def with_total_fixed_delay(config, total_ms):
    """Replace both legs with fixed delays summing to total_ms (even split)."""
    if total_ms < 0:
        raise ValueError("total delay must be nonnegative")
    half = total_ms // 2
    return dataclasses.replace(
        config,
        ctrl_to_plant=Fixed(half),
        plant_to_ctrl=Fixed(total_ms - half),
    )


# JSON configuration: section -> {key: ScenarioConfig field}, "" being the
# top level. Every key is optional; unknown keys are rejected so a typo cannot
# silently fall back to a default, and so are keys given twice. Values are
# passed through untouched and ScenarioConfig's checks name them by _JSON_KEYS.
_JSON_LAYOUT = {
    "": {
        "duration_s": "duration_s",
        "setpoint_rps": "setpoint_rps",
        "setpoint_start_s": "setpoint_start_s",
        "setpoint_period_s": "setpoint_period_s",
        "seed": "seed",
        "vacant_policy": "vacant_policy",
    },
    "controller": {"kp": "kp", "ki": "ki"},
    "limits": {"min_duty": "min_duty", "max_duty": "max_duty"},
    "plant": {"model": "plant_model", "encoder_jitter": "encoder_jitter"},
    "channel": {"ctrl_to_plant": "ctrl_to_plant", "plant_to_ctrl": "plant_to_ctrl"},
    "smith": {"mode": "smith_mode", "tau_ms": "smith_tau_ms", "kind": "smith_kind"},
}
_SECTIONS = _JSON_LAYOUT.keys() - {""}
# ScenarioConfig field -> its JSON key, "section.key" below the top level.
_JSON_KEYS = {
    name: f"{section}.{key}" if section else key
    for section, keys in _JSON_LAYOUT.items()
    for key, name in keys.items()
}
_POLICY_KEYS = {
    "fixed": {"policy", "delay_ms"},
    "uniform": {"policy", "lo_ms", "hi_ms"},
    "trace": {"policy", "file", "delays_ms", "cycle"},
}
_POLICY_NAMES = {Fixed: "fixed", UniformRandom: "uniform", Trace: "trace"}


def _reject_unknown(mapping, allowed, where):
    unknown = mapping.keys() - allowed
    if unknown:
        raise ValueError(f"{where}: unknown key {sorted(unknown)[0]!r}")


def _policy_from_dict(spec, direction, where):
    if not isinstance(spec, dict):
        raise ValueError(f"{where}: expected an object")
    kind = spec.get("policy")
    if not isinstance(kind, str) or kind not in _POLICY_KEYS:
        raise ValueError(
            f"{where}: policy must be one of {', '.join(sorted(_POLICY_KEYS))}"
        )
    _reject_unknown(spec, _POLICY_KEYS[kind], where)
    try:
        if kind == "fixed":
            return Fixed(spec.get("delay_ms", 0))
        if kind == "uniform":
            if "lo_ms" not in spec or "hi_ms" not in spec:
                raise ValueError("uniform policy needs lo_ms and hi_ms")
            return UniformRandom(spec["lo_ms"], spec["hi_ms"])
        if "file" in spec and "delays_ms" in spec:
            raise ValueError("give either file or delays_ms, not both")
        if "file" in spec:
            if not isinstance(spec["file"], str):
                raise ValueError("file must be a path string")
            delays = read_delay_trace(spec["file"])[direction]
        elif "delays_ms" in spec:
            delays = spec["delays_ms"]
        else:
            raise ValueError("trace policy needs file or delays_ms")
        return Trace(delays, cycle=spec.get("cycle", False))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    except OSError as exc:
        raise ValueError(f"{where}: {spec['file']}: {exc.strerror}") from None


def config_from_dict(raw, source="config"):
    """Build a validated ScenarioConfig from parsed JSON."""
    if not isinstance(raw, dict):
        raise ValueError(f"{source}: top level must be an object")
    values = {}
    for section, keys in _JSON_LAYOUT.items():
        where = f"{source}: {section}" if section else source
        spec = raw.get(section, {}) if section else raw
        if not isinstance(spec, dict):
            raise ValueError(f"{where}: expected an object")
        _reject_unknown(spec, keys.keys() | (set() if section else _SECTIONS), where)
        for key, name in keys.items():
            if key in spec:
                value = spec[key]
                if section == "channel":
                    value = _policy_from_dict(value, key, f"{where}.{key}")
                values[name] = value
    try:
        return ScenarioConfig(**values)._validate(_JSON_KEYS)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _policy_to_dict(policy):
    spec = {"policy": _POLICY_NAMES[type(policy)], **dataclasses.asdict(policy)}
    if isinstance(policy, Trace):
        spec["delays_ms"] = list(policy.delays_ms)
    return spec


def config_to_dict(config):
    """JSON document that config_from_dict reads back into an equal config.

    Every key is written; a trace policy read from a file is written as its
    inline delays_ms.
    """
    raw = {}
    for section, keys in _JSON_LAYOUT.items():
        spec = raw.setdefault(section, {}) if section else raw
        for key, name in keys.items():
            value = getattr(config, name)
            spec[key] = _policy_to_dict(value) if section == "channel" else value
    return raw


def _unique_keys(pairs):
    """A JSON object's dict, rejecting a key given twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_config(path):
    """Read and validate a UTF-8 JSON scenario file."""
    text = read_text(path)
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    return config_from_dict(raw, source=str(path))
