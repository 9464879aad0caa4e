"""Closed-loop runner: plant node and controller node joined by the link.

Per 20 ms tick, in order:

  plant node        polls the command channel (newest duty wins), advances
                    the motor one sample, reads the encoder, transmits the
                    speed byte
  controller node   polls the measurement channel, feeds every drained
                    frame to the delay estimator (oldest outstanding send
                    first), closes the estimation period, updates the
                    adaptive compensator, forms the error against the
                    corrected feedback, runs the PI step, transmits the
                    duty byte

On a vacant sample the default policy recomputes and resends using the
stale measurement (the integral keeps accumulating); the "hold" policy
skips the controller entirely and leaves the last command standing. The
compensator's internal model is committed every tick with the standing
duty either way, so it tracks what the actuator is actually doing.

The recorded speed_meas column is the controller's current view (the
newest received byte, 0 before anything arrives); speed_true is the
plant-side speed the same tick. Delay effects therefore show up in the
measured column and the error metrics built on it.

Everything is deterministic for a given config: the master seed spawns
independent child streams for each channel direction and the encoder.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .delay_approx import ApproxKind
from .delay_est import EstimatorState
from .models import (
    DEFAULT_KI,
    DEFAULT_KP,
    DUTY_SPAN,
    SPEED_SPAN_RPS,
    pulse_tf_exact,
    pulse_tf_nominal,
)
from .netchan import Channel, Fixed, Trace, UniformRandom, read_delay_trace
from .pid import ActuatorLimits, PiGains, PiState, pi_step
from .plant import EncoderConfig, encoder_read, make_motor, motor_step
from .smith import SmithConfig, SmithPredictor

__all__ = [
    "ScenarioConfig",
    "RunRecord",
    "Metrics",
    "run_closed_loop",
    "compute_metrics",
    "write_metrics_csv",
    "load_config",
    "config_from_dict",
    "preset_config",
    "apply_smith_variant",
    "with_total_fixed_delay",
    "PRESET_NAMES",
    "SMITH_VARIANTS",
]


_FLOAT_FIELDS = (
    "duration_s",
    "sample_time_s",
    "setpoint_rps",
    "setpoint_start_s",
    "setpoint_period_s",
    "kp",
    "ki",
    "smith_tau_ms",
    "smith_smoothing",
)


@dataclass
class ScenarioConfig:
    duration_s: float = 25.0
    sample_time_s: float = 0.02
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
    ctrl_to_plant: object = field(default_factory=lambda: Fixed(0))
    plant_to_ctrl: object = field(default_factory=lambda: Fixed(0))
    smith_mode: str = "off"  # "off", "classical", "adaptive"
    smith_tau_ms: float = 60.0
    smith_kind: str = "dfr"
    smith_smoothing: float = 0.0
    vacant_policy: str = "resend"  # "resend" or "hold"

    def validate(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            finite = isinstance(value, numbers.Real) and math.isfinite(value)
            if isinstance(value, bool) or not finite:
                raise ValueError(f"{name} must be a finite number")
        if not self.duration_s > 0.0:
            raise ValueError("duration_s must be positive")
        if not self.sample_time_s > 0.0:
            raise ValueError("sample_time_s must be positive")
        if self.duration_s < self.sample_time_s:
            raise ValueError("duration_s shorter than one sample")
        if not 0.0 <= self.setpoint_rps <= SPEED_SPAN_RPS:
            raise ValueError(f"setpoint_rps must be within 0..{SPEED_SPAN_RPS:g}")
        if self.setpoint_start_s < 0.0:
            raise ValueError("setpoint_start_s must be nonnegative")
        if self.setpoint_period_s < 0.0:
            raise ValueError("setpoint_period_s must be nonnegative")
        if self.plant_model not in ("nominal", "exact"):
            raise ValueError(f"unknown plant model {self.plant_model!r}")
        if self.vacant_policy not in ("resend", "hold"):
            raise ValueError(f"unknown vacant policy {self.vacant_policy!r}")
        if self.smith_mode not in ("off", "classical", "adaptive"):
            raise ValueError(f"unknown smith mode {self.smith_mode!r}")
        if self.smith_tau_ms < 0.0:
            raise ValueError("smith_tau_ms must be nonnegative")
        if not 0.0 <= self.smith_smoothing < 1.0:
            raise ValueError("smith_smoothing must be in [0, 1)")
        try:
            ApproxKind(self.smith_kind)
        except ValueError:
            raise ValueError(f"unknown series kind {self.smith_kind!r}") from None
        if not (0 <= self.min_duty < self.max_duty <= DUTY_SPAN):
            raise ValueError(f"need 0 <= min_duty < max_duty <= {DUTY_SPAN}")
        for name in ("ctrl_to_plant", "plant_to_ctrl"):
            if not isinstance(getattr(self, name), (Fixed, UniformRandom, Trace)):
                raise ValueError(f"{name} must be a delay policy instance")
        return self


@dataclass
class RunRecord:
    """Per-tick trace of one closed-loop run plus channel accounting."""

    sample_time_s: float
    t_ms: np.ndarray
    setpoint: np.ndarray
    speed_meas: np.ndarray
    speed_true: np.ndarray
    duty: np.ndarray
    tm_ms: np.ndarray
    event: list
    frame_stats: dict
    estimator_log: list

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("t_ms,setpoint,speed_meas,speed_true,duty,tm_ms,event\n")
            for i in range(self.t_ms.size):
                fh.write(
                    f"{int(self.t_ms[i])},{_fmt(self.setpoint[i])},"
                    f"{_fmt(self.speed_meas[i])},{_fmt(self.speed_true[i])},"
                    f"{int(self.duty[i])},{int(self.tm_ms[i])},{self.event[i]}\n"
                )


def _fmt(x):
    return format(float(x), ".10g")


def _setpoint_at(config, now_s):
    if now_s < config.setpoint_start_s:
        return 0.0
    if config.setpoint_period_s > 0.0:
        phase = math.fmod(now_s - config.setpoint_start_s, config.setpoint_period_s)
        if phase >= config.setpoint_period_s / 2.0:
            return 0.0
    return config.setpoint_rps


def run_closed_loop(config):
    """Simulate one scenario tick by tick; returns the RunRecord."""
    config.validate()
    t_ms = int(round(config.sample_time_s * 1000.0))
    if t_ms <= 0:
        raise ValueError("sample_time_s must be at least 1 ms")
    n_ticks = int(round(config.duration_s / config.sample_time_s))

    seed_c2p, seed_p2c, seed_enc = np.random.SeedSequence(config.seed).spawn(3)
    ch_c2p = Channel(config.ctrl_to_plant, seed=seed_c2p)
    ch_p2c = Channel(config.plant_to_ctrl, seed=seed_p2c)
    rng_enc = np.random.default_rng(seed_enc)

    motor = make_motor(pulse_tf_nominal() if config.plant_model == "nominal" else pulse_tf_exact())
    encoder = EncoderConfig(jitter=config.encoder_jitter)
    gains = PiGains(kp=config.kp, ki=config.ki, sample_time=config.sample_time_s)
    pi_state = PiState()
    limits = ActuatorLimits(min_duty=config.min_duty, max_duty=config.max_duty)
    estimator = EstimatorState()

    predictor = None
    if config.smith_mode != "off":
        predictor = SmithPredictor(
            SmithConfig(
                mode=config.smith_mode,
                tau_s=config.smith_tau_ms / 1000.0,
                kind=ApproxKind(config.smith_kind),
                smoothing=config.smith_smoothing,
            )
        )

    applied_duty = 0  # actuator idles until the first command arrives
    last_meas = 0.0  # controller's view before the first measurement
    duty_out = 0
    seq = 0

    cols = {name: [] for name in ("t", "sp", "meas", "true", "duty", "tm", "event")}
    for k in range(n_ticks):
        now = k * t_ms

        # Plant node: apply the newest command, run the motor, report speed.
        frame, _ = ch_c2p.poll(now)
        if frame is not None:
            applied_duty = frame.payload
        speed_true = motor_step(motor, applied_duty)
        meas_byte = encoder_read(encoder, speed_true, rng_enc)
        ch_p2c.send(meas_byte, now)

        # Controller node: drain arrivals into the estimator, oldest send first.
        frames = ch_p2c.poll_frames(now)
        for fr in frames:
            oldest = estimator.oldest_pending()
            if oldest is not None:
                estimator.on_receive(oldest, fr.deliver_time)
            else:
                estimator.on_unmatched_receive(fr.deliver_time)
            last_meas = float(fr.payload)
        tm, event = estimator.estimate_at_sample(now, t_ms)

        sp_now = _setpoint_at(config, now / 1000.0)
        if frames or config.vacant_policy == "resend":
            if predictor is not None and predictor.mode == "adaptive":
                predictor.update_delay_estimate(tm)
            correction = predictor.preview() * SPEED_SPAN_RPS if predictor else 0.0
            error = sp_now - (last_meas + correction)
            duty_out = pi_step(gains, pi_state, limits, error)
            ch_c2p.send(duty_out, now)
            estimator.on_send(seq, now)
            seq += 1
        if predictor is not None:
            predictor.commit(duty_out / DUTY_SPAN)

        cols["t"].append(now)
        cols["sp"].append(sp_now)
        cols["meas"].append(last_meas)
        cols["true"].append(speed_true)
        cols["duty"].append(duty_out)
        cols["tm"].append(tm)
        cols["event"].append(event.value)

    frame_stats = {}
    for name, ch in (("ctrl_to_plant", ch_c2p), ("plant_to_ctrl", ch_p2c)):
        if ch.sent != ch.delivered + ch.in_flight:
            raise RuntimeError(
                f"frame conservation violated on {name}: "
                f"{ch.sent} sent vs {ch.delivered} delivered + {ch.in_flight} in flight"
            )
        frame_stats[name] = {
            "sent": ch.sent,
            "delivered": ch.delivered,
            "in_flight": ch.in_flight,
        }

    return RunRecord(
        sample_time_s=config.sample_time_s,
        t_ms=np.array(cols["t"], dtype=np.int64),
        setpoint=np.array(cols["sp"]),
        speed_meas=np.array(cols["meas"]),
        speed_true=np.array(cols["true"]),
        duty=np.array(cols["duty"], dtype=np.int64),
        tm_ms=np.array(cols["tm"], dtype=np.int64),
        event=cols["event"],
        frame_stats=frame_stats,
        estimator_log=list(estimator.log),
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


def compute_metrics(record, setpoint=None):
    """Metrics for a run; setpoint defaults to the record's final value."""
    if record.t_ms.size == 0:
        raise ValueError("empty record")
    sp = float(record.setpoint[-1]) if setpoint is None else float(setpoint)
    y = record.speed_true
    n = y.size
    dt = record.sample_time_s

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
    fields = [
        "percent_overshoot",
        "settling_time_s",
        "steady_state_error",
        "ise",
        "trailing_half_ise",
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(fields) + "\n")
        vals = []
        for name in fields:
            v = getattr(metrics, name)
            vals.append("" if v is None else _fmt(v))
        fh.write(",".join(vals) + "\n")


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


def preset_config(name, seed=0):
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
    return ScenarioConfig(ctrl_to_plant=c2p, plant_to_ctrl=p2c, seed=seed)


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


# JSON configuration. Every key is optional; unknown keys are rejected so a
# typo cannot silently fall back to a default.

_POLICY_KEYS = {
    "fixed": {"policy", "delay_ms"},
    "uniform": {"policy", "lo_ms", "hi_ms"},
    "trace": {"policy", "file", "delays_ms", "cycle"},
}
_TOP_KEYS = {
    "duration_s",
    "sample_time_s",
    "setpoint_rps",
    "setpoint_start_s",
    "setpoint_period_s",
    "seed",
    "vacant_policy",
    "controller",
    "limits",
    "plant",
    "channel",
    "smith",
}


def _reject_unknown(mapping, allowed, where):
    unknown = set(mapping) - allowed
    if unknown:
        raise ValueError(f"{where}: unknown key {sorted(unknown)[0]!r}")


def _policy_from_dict(spec, direction, where):
    if not isinstance(spec, dict):
        raise ValueError(f"{where}: expected an object")
    kind = spec.get("policy")
    if kind not in _POLICY_KEYS:
        raise ValueError(
            f"{where}: policy must be one of {', '.join(sorted(_POLICY_KEYS))}"
        )
    _reject_unknown(spec, _POLICY_KEYS[kind], where)
    if kind == "fixed":
        return Fixed(int(spec.get("delay_ms", 0)))
    if kind == "uniform":
        if "lo_ms" not in spec or "hi_ms" not in spec:
            raise ValueError(f"{where}: uniform policy needs lo_ms and hi_ms")
        return UniformRandom(int(spec["lo_ms"]), int(spec["hi_ms"]))
    if "file" in spec and "delays_ms" in spec:
        raise ValueError(f"{where}: give either file or delays_ms, not both")
    if "file" in spec:
        delays = read_delay_trace(spec["file"])[direction]
    elif "delays_ms" in spec:
        delays = spec["delays_ms"]
    else:
        raise ValueError(f"{where}: trace policy needs file or delays_ms")
    return Trace(tuple(int(d) for d in delays), cycle=bool(spec.get("cycle", False)))


def config_from_dict(raw, source="config"):
    """Build a validated ScenarioConfig from parsed JSON."""
    if not isinstance(raw, dict):
        raise ValueError(f"{source}: top level must be an object")
    _reject_unknown(raw, _TOP_KEYS, source)
    cfg = ScenarioConfig()

    for key in (
        "duration_s",
        "sample_time_s",
        "setpoint_rps",
        "setpoint_start_s",
        "setpoint_period_s",
    ):
        if key in raw:
            setattr(cfg, key, float(raw[key]))
    if "seed" in raw:
        cfg.seed = raw["seed"]
    if "vacant_policy" in raw:
        cfg.vacant_policy = raw["vacant_policy"]

    controller = raw.get("controller", {})
    _reject_unknown(controller, {"kp", "ki"}, f"{source}: controller")
    cfg.kp = float(controller.get("kp", cfg.kp))
    cfg.ki = float(controller.get("ki", cfg.ki))

    limits = raw.get("limits", {})
    _reject_unknown(limits, {"min_duty", "max_duty"}, f"{source}: limits")
    cfg.min_duty = int(limits.get("min_duty", cfg.min_duty))
    cfg.max_duty = int(limits.get("max_duty", cfg.max_duty))

    plant = raw.get("plant", {})
    _reject_unknown(plant, {"model", "encoder_jitter"}, f"{source}: plant")
    cfg.plant_model = plant.get("model", cfg.plant_model)
    cfg.encoder_jitter = bool(plant.get("encoder_jitter", cfg.encoder_jitter))

    channel = raw.get("channel", {})
    _reject_unknown(channel, {"ctrl_to_plant", "plant_to_ctrl"}, f"{source}: channel")
    for direction in ("ctrl_to_plant", "plant_to_ctrl"):
        if direction in channel:
            setattr(
                cfg,
                direction,
                _policy_from_dict(
                    channel[direction], direction, f"{source}: channel.{direction}"
                ),
            )

    smith = raw.get("smith", {})
    _reject_unknown(smith, {"mode", "tau_ms", "kind", "smoothing"}, f"{source}: smith")
    cfg.smith_mode = smith.get("mode", cfg.smith_mode)
    cfg.smith_tau_ms = float(smith.get("tau_ms", cfg.smith_tau_ms))
    cfg.smith_kind = smith.get("kind", cfg.smith_kind)
    cfg.smith_smoothing = float(smith.get("smoothing", cfg.smith_smoothing))

    return cfg.validate()


def load_config(path):
    """Read and validate a UTF-8 JSON scenario file."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    return config_from_dict(raw, source=str(path))
