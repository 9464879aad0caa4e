"""Closed-loop runner tests.

The wired-preset goldens are hand-traceable: tick 0 measures 0, so the
duty is 1.69*100 + 0.1488*100 = 183.88 truncated to 183; tick 1 pairs the
measurement with the send from tick 0 (round trip one full period, hence
"delayed") and outputs 169 + 0.1488*200 = 198.76 -> 198; and so on. The
CSV lines below are those traces written through the 10-significant-digit
formatter.
"""

import dataclasses
import inspect
import itertools
import json
import math
import numbers
import sys
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_runner
from conftest import emptied_memo
from wncs import delay_est, lti, netchan, pid, plant, scenario, smith
from wncs.delay_approx import ApproxKind
from wncs.delay_est import EVENTS, EstimatorState, Event, estimate_stream
from wncs.lti import DiscreteTf
from wncs.models import (
    DEFAULT_KI,
    DEFAULT_KP,
    DUTY_SPAN,
    MAX_DURATION_S,
    SAMPLE_TIME,
    SPEED_SPAN_RPS,
)
from wncs.netchan import (
    Channel,
    Fixed,
    Trace,
    UniformRandom,
    draw_delays,
    fifo_deliver_times,
)
from wncs.pid import pi_step
from wncs.plant import ENCODER_RESOLUTION, encoder_read
from wncs.scenario import (
    MAX_GAIN,
    MIN_KI,
    PRESET_NAMES,
    SMITH_VARIANTS,
    Metrics,
    RunRecord,
    ScenarioConfig,
    apply_smith_variant,
    compute_metrics,
    config_from_dict,
    config_to_dict,
    load_config,
    preset_config,
    run_closed_loop,
    with_total_fixed_delay,
    write_metrics_csv,
)

WIRED_GOLDEN = [
    "t_ms,setpoint,speed_meas,speed_true,duty,tm_ms,event",
    "0,100,0,0,183,0,normal",
    "20,100,0,0,198,20,delayed",
    "40,100,10,11.92729412,195,20,delayed",
    "60,100,23,23.87805176,184,20,delayed",
    "80,100,33,34.67721939,177,20,delayed",
]


def _finite(lo=None, hi=None):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _valid_ki(gains):
    # ki is 0 or at least MIN_KI in size; the draws reach the floor itself
    return (
        gains.filter(lambda ki: ki == 0.0 or abs(ki) >= MIN_KI)
        | _finite(MIN_KI, 1e-300)
        | _finite(-1e-300, -MIN_KI)
        | st.sampled_from([MIN_KI, -MIN_KI])
    )


def _short(preset, seconds=0.4, **overrides):
    config = preset_config(preset)
    return dataclasses.replace(config, duration_s=seconds, **overrides)


def _record(speed_true, speed_meas=None, setpoint=100.0):
    y = np.asarray(speed_true, dtype=np.float64)
    n = y.size
    meas = y if speed_meas is None else np.asarray(speed_meas, dtype=np.float64)
    return RunRecord(
        t_ms=np.arange(n, dtype=np.int64) * 20,
        setpoint=np.full(n, float(setpoint)),
        speed_meas=meas,
        speed_true=y,
        duty=np.zeros(n, dtype=np.int64),
        tm_ms=np.zeros(n, dtype=np.int64),
        codes=np.full(n, EVENTS.index(Event.NORMAL), dtype=np.int64),
        rtt_ms=np.full(n, -1, dtype=np.int64),
        frame_stats={},
    )


class _Int(int):
    pass


class _Float(float):
    pass


# Values of every kind a config field may be given: plain, bool, numpy and
# subclassed numbers at and past the float range, and non-numbers.
_HUGE = int(sys.float_info.max)
_FIELD_VALUES = (
    st.floats()
    | st.integers()
    | st.integers(_HUGE - 2, _HUGE + 2)
    | st.integers(-_HUGE - 2, -_HUGE + 2)
    | st.booleans()
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.floats().map(np.float64)
    | st.floats(width=32).map(np.float32)
    | st.integers().map(_Int)
    | st.floats().map(_Float)
    | st.fractions()
    | st.text(max_size=2)
    | st.none()
)


def _has_type_by_abc(value, kind):
    """validate()'s type rule as the number ABCs state it, with no fast path."""
    if kind is float:
        # A rational number is compared with the float range exactly; any
        # other real is a binary float, within the range when it is finite.
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            return False
        if isinstance(value, numbers.Rational):
            return -sys.float_info.max <= value <= sys.float_info.max
        return math.isfinite(value)
    if kind is int:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    return isinstance(value, kind)


class TestConfigValidation:
    def test_defaults_pass(self):
        assert ScenarioConfig().validate() is not None

    @pytest.mark.parametrize(
        "overrides",
        [
            {"duration_s": 0.0},
            {"duration_s": 0.01},
            {"setpoint_rps": -1.0},
            {"setpoint_rps": 250.0},
            {"setpoint_start_s": -1.0},
            {"setpoint_period_s": -1.0},
            {"seed": -1},
            {"seed": "zero"},
            {"plant_model": "third-order"},
            {"vacant_policy": "retry"},
            {"smith_mode": "feedback"},
            {"smith_tau_ms": -10.0},
            {"smith_smoothing": 1.0},
            {"smith_kind": "euler"},
            {"min_duty": -1},
            {"min_duty": 200, "max_duty": 100},
            {"max_duty": 300},
            {"ctrl_to_plant": 40},
            {"plant_to_ctrl": "fast"},
            {"smith_tau_ms": math.nextafter(MAX_DURATION_S * 1000.0, math.inf)},
        ],
    )
    def test_bad_field_rejected(self, overrides):
        config = dataclasses.replace(ScenarioConfig(), **overrides)
        with pytest.raises(ValueError):
            config.validate()

    @pytest.mark.parametrize(
        "key, value",
        [("seed", True)]
        + [
            (key, value)
            for key in (
                "duration_s",
                "setpoint_rps",
                "setpoint_start_s",
                "setpoint_period_s",
                "kp",
                "ki",
                "smith_tau_ms",
                "smith_smoothing",
            )
            for value in (float("nan"), float("inf"))
        ],
    )
    def test_bool_seed_and_non_finite_floats_name_the_key(self, key, value):
        config = dataclasses.replace(ScenarioConfig(), **{key: value})
        with pytest.raises(ValueError, match=key):
            config.validate()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("width", [np.float16, np.float32])
    def test_non_finite_narrow_numpy_float_names_the_key(self, width, value):
        # Compared with the float range as it is, a float32 or float16 casts
        # the bound to its own type, where it overflows to inf: an inf passed,
        # with an overflow warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="setpoint_start_s"):
                ScenarioConfig(setpoint_start_s=width(value)).validate()
            huge = width(np.finfo(width).max)
            config = ScenarioConfig(setpoint_start_s=huge).validate()
        assert config.setpoint_start_s == float(huge)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("kp", 10**400),
            ("smith_tau_ms", "60"),
            ("duration_s", None),
            ("setpoint_rps", True),
            ("seed", 2.0),
            ("min_duty", 1.5),
            ("max_duty", True),
            ("encoder_jitter", "no"),
            ("encoder_jitter", 1),
            ("plant_model", 5),
            ("vacant_policy", ["hold"]),
        ],
    )
    def test_wrong_type_names_the_key(self, key, value):
        config = dataclasses.replace(ScenarioConfig(), **{key: value})
        with pytest.raises(ValueError, match=key):
            config.validate()

    def test_duration_cap(self):
        assert dataclasses.replace(ScenarioConfig(), duration_s=MAX_DURATION_S).validate()
        config = dataclasses.replace(ScenarioConfig(), duration_s=MAX_DURATION_S + 0.02)
        with pytest.raises(ValueError, match="duration_s"):
            config.validate()

    def test_gain_bound(self):
        assert MAX_GAIN.hex() == "0x1.2330b294dd854p+971"  # about 2.27e292
        # at the bound, the PI sum over the longest run of the largest
        # errors stays below the largest float
        error = scenario._MAX_ERROR_RPS
        integral = round(MAX_DURATION_S / SAMPLE_TIME) * error
        for kp in (MAX_GAIN, -MAX_GAIN):
            for ki in (MAX_GAIN, -MAX_GAIN):
                total = abs(kp * error) + abs(ki * SAMPLE_TIME * integral)
                assert total <= sys.float_info.max / 2.0

    @pytest.mark.parametrize("key", ["kp", "ki"])
    def test_gain_past_the_bound_names_the_key(self, key):
        for value in (MAX_GAIN, -MAX_GAIN):
            assert dataclasses.replace(ScenarioConfig(), **{key: value}).validate()
        for value in (math.nextafter(MAX_GAIN, math.inf), -1e308):
            config = dataclasses.replace(ScenarioConfig(), **{key: value})
            with pytest.raises(ValueError, match=f"{key} must be within"):
                config.validate()

    def test_ki_floor(self):
        assert MIN_KI.hex() == "0x1.8e70000000001p-1010"  # about 1.42e-304
        # at the floor, the upper-saturation pin and the errors added to it
        # over the longest run stay below the largest float
        pin = DUTY_SPAN / (MIN_KI * SAMPLE_TIME)
        errors = round(MAX_DURATION_S / SAMPLE_TIME) * scenario._MAX_ERROR_RPS
        assert pin <= sys.float_info.max / 2.0 and math.isfinite(pin + errors)

    def test_ki_below_the_floor_names_the_key(self):
        for value in (0.0, -0.0, MIN_KI, -MIN_KI):
            assert dataclasses.replace(ScenarioConfig(), ki=value).validate()
        for value in (math.nextafter(MIN_KI, 0.0), -1e-310, 5e-324):
            config = dataclasses.replace(ScenarioConfig(), ki=value)
            with pytest.raises(ValueError, match="ki must be 0 or at least"):
                config.validate()

    def test_tiny_ki_no_longer_sticks_the_duty_at_max(self, monkeypatch):
        # max_duty / (ki*T) overflowed to inf: duty 255 on every tick, and
        # 207.7 rev/s at the end against a setpoint of 0
        stuck = ScenarioConfig(duration_s=4.0, kp=10.0, ki=1e-310, setpoint_period_s=2.0)
        monkeypatch.setattr(scenario, "_link_schedule", _must_not_be_called)
        with pytest.raises(ValueError, match="ki must be 0 or at least"):
            run_closed_loop(stuck)
        monkeypatch.undo()
        record = run_closed_loop(dataclasses.replace(stuck, ki=MIN_KI))
        assert np.isfinite(record.speed_true).all()
        falling = record.setpoint[1:] < record.setpoint[:-1]
        # each time the setpoint drops to 0, the command leaves max_duty
        assert falling.any()
        for k in np.flatnonzero(falling) + 1:
            assert record.duty[k:].min() < 255

    def test_opposed_huge_gains_rejected_before_the_run(self, monkeypatch):
        # kp*e + ki*T*sum was inf + -inf on the first tick
        monkeypatch.setattr(scenario, "_link_schedule", _must_not_be_called)
        with pytest.raises(ValueError, match="kp must be within"):
            run_closed_loop(ScenarioConfig(duration_s=1.0, kp=1e308, ki=-1e308))

    @given(value=_FIELD_VALUES, kind=st.sampled_from([float, int, bool, str]))
    @example(value=np.float32("inf"), kind=float)
    def test_exact_type_fast_path_keeps_the_abc_verdict(self, value, kind):
        assert scenario._has_type(value, kind) == _has_type_by_abc(value, kind)


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_all_presets_validate(self, name):
        preset_config(name).validate()

    def test_wired_is_zero_delay(self):
        config = preset_config("wired")
        assert config.ctrl_to_plant == Fixed(0)
        assert config.plant_to_ctrl == Fixed(0)

    def test_p2p_splits_80ms(self):
        config = preset_config("p2p-80ms")
        assert config.ctrl_to_plant == Fixed(40)
        assert config.plant_to_ctrl == Fixed(40)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_config("5g")


class TestVariantsAndDelaysHelpers:
    def test_variants(self):
        base = preset_config("wired")
        assert apply_smith_variant(base, "off").smith_mode == "off"
        classical = apply_smith_variant(base, "classical-60ms")
        assert (classical.smith_mode, classical.smith_tau_ms) == ("classical", 60.0)
        dfr = apply_smith_variant(base, "adaptive-dfr")
        assert (dfr.smith_mode, dfr.smith_kind) == ("adaptive", "dfr")
        pade = apply_smith_variant(base, "adaptive-pade")
        assert (pade.smith_mode, pade.smith_kind) == ("adaptive", "pade2")

    def test_variant_does_not_mutate_input(self):
        base = preset_config("wired")
        apply_smith_variant(base, "adaptive-dfr")
        assert base.smith_mode == "off"

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown smith variant"):
            apply_smith_variant(preset_config("wired"), "adaptive-laguerre")

    def test_variant_names_exported(self):
        assert set(SMITH_VARIANTS) == {"off", "classical-60ms", "adaptive-dfr", "adaptive-pade"}

    def test_total_delay_even_split(self):
        config = with_total_fixed_delay(preset_config("wired"), 400)
        assert config.ctrl_to_plant == Fixed(200)
        assert config.plant_to_ctrl == Fixed(200)

    def test_total_delay_odd_split(self):
        config = with_total_fixed_delay(preset_config("wired"), 85)
        assert config.ctrl_to_plant == Fixed(42)
        assert config.plant_to_ctrl == Fixed(43)

    def test_total_delay_negative(self):
        with pytest.raises(ValueError):
            with_total_fixed_delay(preset_config("wired"), -1)


class TestRunClosedLoop:
    def test_wired_golden_csv(self, tmp_path):
        record = run_closed_loop(_short("wired"))
        path = tmp_path / "run.csv"
        record.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[: len(WIRED_GOLDEN)] == WIRED_GOLDEN

    def test_deterministic_repeat(self):
        config = _short("intermediate-uniform", seconds=2.0, seed=3)
        a = run_closed_loop(config)
        b = run_closed_loop(dataclasses.replace(config))
        np.testing.assert_array_equal(a.speed_true, b.speed_true)
        np.testing.assert_array_equal(a.duty, b.duty)
        np.testing.assert_array_equal(a.tm_ms, b.tm_ms)
        assert a.event == b.event

    def test_seed_changes_the_run(self):
        a = run_closed_loop(_short("intermediate-uniform", seconds=2.0, seed=0))
        b = run_closed_loop(_short("intermediate-uniform", seconds=2.0, seed=1))
        assert not np.array_equal(a.duty, b.duty)

    def test_tick_count_and_time_base(self):
        record = run_closed_loop(_short("wired", seconds=1.0))
        assert record.t_ms.size == 50
        assert record.t_ms[0] == 0 and record.t_ms[-1] == 980
        assert len(record.event) == 50
        assert len(record.estimator_log) == 50

    def test_frame_conservation_stats(self):
        record = run_closed_loop(_short("intermediate-uniform", seconds=2.0))
        for stats in record.frame_stats.values():
            assert stats["sent"] == stats["delivered"] + stats["in_flight"]
        # resend policy transmits a command every tick
        assert record.frame_stats["ctrl_to_plant"]["sent"] == 100

    def test_hold_policy_freezes_duty_on_vacant_samples(self):
        config = _short("intermediate-uniform", seconds=4.0, vacant_policy="hold")
        config.ctrl_to_plant = UniformRandom(160, 400)
        config.plant_to_ctrl = UniformRandom(160, 400)
        record = run_closed_loop(config)
        vacant_ticks = [k for k, e in enumerate(record.event) if e == "vacant"]
        assert vacant_ticks, "expected vacant samples under 160-400 ms delays"
        for k in vacant_ticks:
            previous = record.duty[k - 1] if k else 0
            assert record.duty[k] == previous
        assert record.frame_stats["ctrl_to_plant"]["sent"] < record.t_ms.size

    def test_resend_policy_keeps_integrating(self):
        config = _short("intermediate-uniform", seconds=4.0)
        config.ctrl_to_plant = UniformRandom(160, 400)
        config.plant_to_ctrl = UniformRandom(160, 400)
        record = run_closed_loop(config)
        changed = [
            k
            for k, e in enumerate(record.event)
            if e == "vacant" and k and record.duty[k] != record.duty[k - 1]
        ]
        assert changed, "resend must recompute during vacant stretches"

    def test_square_wave_setpoint(self):
        config = _short("wired", seconds=2.0)
        config.setpoint_period_s = 1.0
        record = run_closed_loop(config)
        assert (record.setpoint[:25] == 100.0).all()
        assert (record.setpoint[25:50] == 0.0).all()
        assert (record.setpoint[50:75] == 100.0).all()

    def test_delayed_setpoint_start(self):
        config = _short("wired", seconds=1.0)
        config.setpoint_start_s = 0.5
        record = run_closed_loop(config)
        assert (record.setpoint[:25] == 0.0).all()
        assert (record.setpoint[25:] == 100.0).all()

    def test_validation_runs_before_simulation(self):
        with pytest.raises(ValueError):
            run_closed_loop(dataclasses.replace(ScenarioConfig(), duration_s=-1.0))


def _write_csv_by_row(record):
    """Reference run.csv text: one f-string per row, every float cell .10g."""
    rows = zip(
        record.t_ms.tolist(),
        record.setpoint.tolist(),
        record.speed_meas.tolist(),
        record.speed_true.tolist(),
        record.duty.tolist(),
        record.tm_ms.tolist(),
        record.event,
    )
    return "t_ms,setpoint,speed_meas,speed_true,duty,tm_ms,event\n" + "".join(
        f"{t},{sp:.10g},{meas:.10g},{true:.10g},{duty},{tm},{event}\n"
        for t, sp, meas, true, duty, tm, event in rows
    )


# Float cells whose text a value-keyed or lossy shortcut would get wrong:
# signed zeros, subnormals, the largest finite magnitudes and
# integer-valued floats.
_CSV_FLOATS = (
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310])
    | _finite(1e300, None)
    | _finite(None, -1e300)
    | st.integers(-(2**60), 2**60).map(float)
    | _finite(-1e-300, 1e-300)
    | _finite()
)


@st.composite
def _csv_records(draw):
    n = draw(st.integers(0, 30))
    # Each float column draws from a small pool, so its values repeat;
    # the pool always holds both signed zeros.
    pool = [0.0, -0.0] + draw(st.lists(_CSV_FLOATS, min_size=1, max_size=6))
    floats = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
    ints = st.lists(st.integers(-(2**62), 2**62), min_size=n, max_size=n)
    return RunRecord(
        t_ms=np.array(draw(ints), dtype=np.int64),
        setpoint=np.array(draw(floats), dtype=np.float64),
        speed_meas=np.array(draw(floats), dtype=np.float64),
        speed_true=np.array(draw(floats), dtype=np.float64),
        duty=np.array(draw(ints), dtype=np.int64),
        tm_ms=np.array(draw(ints), dtype=np.int64),
        codes=np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int64),
        rtt_ms=np.array(draw(ints), dtype=np.int64),
        frame_stats={},
    )


class TestWriteCsv:
    """RunRecord.write_csv, formatted by column, against the per-row formatter."""

    @settings(deadline=None, max_examples=80)
    @given(record=_csv_records())
    def test_equals_per_row_formatter(self, tmp_path_factory, record):
        path = tmp_path_factory.getbasetemp() / "write_csv_property.csv"
        record.write_csv(path)
        assert path.read_bytes() == _write_csv_by_row(record).encode("utf-8")

    def test_negative_zero_setpoint_keeps_its_sign(self, tmp_path):
        # -0.0 passes validate(); its on-ticks print "-0", the off-ticks "0".
        config = _short("wired", seconds=1.0, setpoint_rps=-0.0, setpoint_start_s=0.5)
        record = run_closed_loop(config)
        path = tmp_path / "run.csv"
        record.write_csv(path)
        text = path.read_text()
        assert text == _write_csv_by_row(record)
        setpoints = [line.split(",")[1] for line in text.splitlines()[1:]]
        assert setpoints == ["0"] * 25 + ["-0"] * 25


def _must_not_be_called(*args, **kwargs):
    pytest.fail("reached code the run must not reach")


_SCHEDULE_POLICIES = (
    st.builds(Fixed, st.integers(0, 300) | st.integers(0, 2**63 - 1))
    | st.tuples(st.integers(0, 300) | st.integers(0, 2**63 - 1), st.integers(0, 300))
    .map(sorted)
    .map(lambda b: UniformRandom(b[0], b[1]))
    | st.integers(0, 2**63 - 1).map(lambda hi: UniformRandom(0, hi))
    | st.builds(Trace, st.lists(st.integers(0, 300), min_size=1, max_size=8), st.booleans())
)


class TestLinkSchedule:
    """The precomputed delivery schedule against Channel driven tick by tick."""

    @settings(deadline=None)
    @given(
        policy=_SCHEDULE_POLICIES,
        seed=st.integers(0, 2**32),
        sends=st.lists(st.booleans(), min_size=1, max_size=60),
        t_ms=st.integers(1, 50),
        poll_first=st.booleans(),
    )
    def test_schedule_matches_channel(self, policy, seed, sends, t_ms, poll_first):
        # poll_first is the command direction: within a tick the plant polls
        # before the controller sends. Otherwise it is the measurement
        # direction: the plant sends, then the controller polls.
        n_ticks = len(sends)
        send_ticks = np.flatnonzero(sends)
        ch = Channel(policy, seed=seed)
        deliver, arrivals = [], []
        try:
            for k, send in enumerate(sends):
                if poll_first:
                    arrivals.append(len(ch.poll_frames(k * t_ms)))
                if send:
                    deliver.append(ch.send(0, k * t_ms).deliver_time)
                if not poll_first:
                    arrivals.append(len(ch.poll_frames(k * t_ms)))
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                draw_delays(policy, send_ticks.size, np.random.default_rng(seed))
            return
        delays = draw_delays(policy, send_ticks.size, np.random.default_rng(seed))
        times = fifo_deliver_times(send_ticks * t_ms, delays)
        assert times.tolist() == deliver
        earliest = send_ticks + 1 if poll_first else 0
        assert scenario._polled_by_tick(times, t_ms, n_ticks, earliest).tolist() == arrivals

    def test_runner_uses_no_channel(self, monkeypatch):
        monkeypatch.setattr(netchan.Channel, "send", _must_not_be_called)
        monkeypatch.setattr(netchan.Channel, "poll_frames", _must_not_be_called)
        monkeypatch.setattr(netchan.Frame, "__post_init__", _must_not_be_called)
        calls = []

        def counted(policy, n, rng=None, offset=0):
            calls.append(policy)
            return draw_delays(policy, n, rng, offset)

        monkeypatch.setattr(scenario, "draw_delays", counted)
        config = _short("intermediate-uniform", seconds=2.0)
        run_closed_loop(config)
        # one block draw per direction per run
        assert calls == [config.plant_to_ctrl, config.ctrl_to_plant]

    @pytest.mark.parametrize("direction", ["ctrl_to_plant", "plant_to_ctrl"])
    def test_short_trace_fails_before_the_first_tick(self, monkeypatch, direction):
        monkeypatch.setattr(scenario, "estimate_stream", _must_not_be_called)
        config = _short("wired", seconds=1.0, **{direction: Trace((10,) * 5)})
        with pytest.raises(ValueError, match="delay trace exhausted after 5 frames"):
            run_closed_loop(config)

    @pytest.mark.parametrize(
        "c2p_len, p2c_len, p2c_delay, vacant_policy, leg, exhausted",
        [
            (20, 30, 10, "resend", "ctrl_to_plant", 20),
            (40, 30, 10, "resend", "plant_to_ctrl", 30),
            (25, 30, 100, "resend", "ctrl_to_plant", 25),
            # under hold the 26th command waits for the measurements: it
            # would go out at tick 29, 30 or 31, against the 31st
            # measurement at tick 30 (the plant sends first within a tick)
            (25, 30, 80, "hold", "ctrl_to_plant", 25),
            (25, 30, 100, "hold", "plant_to_ctrl", 30),
            (25, 30, 120, "hold", "plant_to_ctrl", 30),
        ],
        ids=[
            "20-30-10-resend-20",
            "40-30-10-resend-30",
            "25-30-100-resend-25",
            "25-30-80-hold-25",
            "25-30-100-hold-30",
            "25-30-120-hold-30",
        ],
    )
    def test_first_trace_to_run_out_names_the_error(
        self, c2p_len, p2c_len, p2c_delay, vacant_policy, leg, exhausted
    ):
        config = _short(
            "wired",
            seconds=2.0,
            vacant_policy=vacant_policy,
            ctrl_to_plant=Trace((5,) * c2p_len),
            plant_to_ctrl=Trace((p2c_delay,) * p2c_len),
        )
        with pytest.raises(ValueError) as exc:
            run_closed_loop(config)
        assert str(exc.value) == f"{leg}: delay trace exhausted after {exhausted} frames"

    def test_hold_sends_once_per_non_vacant_tick(self):
        record = run_closed_loop(
            _short("intermediate-uniform", seconds=25.0, vacant_policy="hold")
        )
        non_vacant = sum(event != "vacant" for event in record.event)
        assert non_vacant < record.t_ms.size
        assert record.frame_stats["ctrl_to_plant"]["sent"] == non_vacant

    @settings(deadline=None)
    @given(
        p2c=_SCHEDULE_POLICIES,
        vacant_policy=st.sampled_from(["resend", "hold"]),
        n_ticks=st.integers(1, 60),
        seed=st.integers(0, 2**32),
    )
    def test_shared_counts_follow_the_send_ticks_and_arrivals(
        self, p2c, vacant_policy, n_ticks, seed
    ):
        config = ScenarioConfig(plant_to_ctrl=p2c, vacant_policy=vacant_policy)
        rngs = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
        try:
            link = scenario._link_schedule(config, n_ticks, 20, *rngs)
        except ValueError:
            return  # a trace that runs out
        arrivals, sent = link.p2c_arrivals.tolist(), set(link.send_ticks.tolist())
        assert link.arrived.tolist() == [n > 0 for n in arrivals]
        assert link.p2c_drained.tolist() == list(itertools.accumulate(arrivals))
        sends = (k in sent for k in range(n_ticks))
        assert link.sent_by.tolist() == list(itertools.accumulate(sends))
        assert link.c2p_drained.size == n_ticks


_STREAM_POLICIES = (
    st.builds(Fixed, st.integers(0, 300) | st.integers(0, 3000))
    | st.tuples(st.integers(0, 300), st.integers(0, 300))
    .map(sorted)
    .map(lambda b: UniformRandom(b[0], b[1]))
    | st.lists(st.integers(0, 300), min_size=1, max_size=8).map(lambda d: Trace(d, cycle=True))
)


def _estimator_by_tick(deliver, arrivals, send_ticks, t_ms):
    """EstimatorState driven in the closed loop's order, one tick at a time:
    drain the tick's arrivals against the oldest pending send, estimate,
    then send."""
    estimator = EstimatorState()
    sends = set(send_ticks.tolist())
    first = 0
    for k, arrived in enumerate(arrivals.tolist()):
        for t2 in deliver[first : first + arrived].tolist():
            oldest = estimator.oldest_pending()
            if oldest is not None:
                estimator.on_receive(oldest, t2)
            else:
                estimator.on_unmatched_receive(t2)
        first += arrived
        estimator.estimate_at_sample(k * t_ms, t_ms)
        if k in sends:
            estimator.on_send(k, k * t_ms)
    return estimator.log


def _schedule(p2c, vacant_policy, n_ticks, t_ms=20, seed=0):
    config = ScenarioConfig(plant_to_ctrl=p2c, vacant_policy=vacant_policy)
    rngs = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    link = scenario._link_schedule(config, n_ticks, t_ms, *rngs)
    return link.p2c_deliver, link.p2c_arrivals, link.send_ticks


def _stream_rows(stream, t_ms):
    """estimate_stream's columns as EstimatorState.log rows."""
    return [
        (k * t_ms, EVENTS[code], None if rtt == -1 else rtt, tm)
        for k, (code, rtt, tm) in enumerate(
            zip(stream.codes.tolist(), stream.rtt_ms.tolist(), stream.tm_ms.tolist())
        )
    ]


def _assert_stream_matches_estimator(deliver, arrivals, send_ticks, t_ms):
    # the counts drained and sent up to and including each tick
    drained = np.cumsum(arrivals)
    sent_by = np.searchsorted(send_ticks, np.arange(arrivals.size), side="right")
    stream = estimate_stream(deliver, arrivals, drained, send_ticks, sent_by, t_ms)
    log = _estimator_by_tick(deliver, arrivals, send_ticks, t_ms)
    assert _stream_rows(stream, t_ms) == log
    assert [EVENTS[c] for c in stream.codes.tolist()] == [row[1] for row in log]
    assert stream.tm_ms.dtype == np.int64
    assert stream.tm_ms.tolist() == [row[3] for row in log]
    # the RTT column is int64, with -1 exactly where the log keeps no RTT
    assert stream.rtt_ms.dtype == np.int64
    assert stream.rtt_ms.tolist() == [-1 if row[2] is None else row[2] for row in log]
    return stream


V, N, D, R = Event.VACANT, Event.NORMAL, Event.DELAYED, Event.MESSAGE_REJECTION


class TestEstimateStream:
    """delay_est.estimate_stream against EstimatorState driven tick by tick."""

    @settings(deadline=None)
    @given(
        p2c=_STREAM_POLICIES,
        vacant_policy=st.sampled_from(["resend", "hold"]),
        n_ticks=st.integers(1, 80),
        t_ms=st.just(20) | st.integers(1, 50),
        seed=st.integers(0, 2**32),
    )
    def test_stream_matches_estimator(self, p2c, vacant_policy, n_ticks, t_ms, seed):
        _assert_stream_matches_estimator(*_schedule(p2c, vacant_policy, n_ticks, t_ms, seed), t_ms)

    @pytest.mark.parametrize(
        "p2c, vacant_policy, expected",
        [
            # an arrival before any send is unmatched and keeps the estimate;
            # each later one answers the send one period before it: delayed
            (Fixed(0), "resend", [(0, N, None, 0), (20, D, 20, 20), (40, D, 20, 20)]),
            # no growth before the first send or arrival, and none on the
            # unmatched arrival that starts the estimator
            (
                Fixed(50),
                "hold",
                [(0, V, None, 0), (20, V, None, 0), (40, V, None, 0), (60, N, None, 0),
                 (80, N, 10, 10), (100, N, 10, 10)],
            ),
            # vacant ticks after the first send grow the estimate by a period
            (
                Fixed(50),
                "resend",
                [(0, V, None, 0), (20, V, None, 20), (40, V, None, 40), (60, D, 50, 50),
                 (80, D, 50, 50), (100, D, 50, 50)],
            ),
            # two frames bunched by the FIFO clamp: rejection keeps the
            # newest RTT (70 ms for the first, 50 ms for the second)
            (
                Trace((70, 0), cycle=True),
                "resend",
                [(0, V, None, 0), (20, V, None, 20), (40, V, None, 40), (60, V, None, 60),
                 (80, R, 50, 50)],
            ),
            # a rejection with nothing pending, then one whose first arrival
            # matches the only pending send and whose others are unmatched
            (
                Trace((30, 0, 0), cycle=True),
                "hold",
                [(0, V, None, 0), (20, V, None, 0), (40, R, None, 0), (60, V, None, 20),
                 (80, V, None, 40), (100, R, 50, 50)],
            ),
        ],
    )
    def test_hand_traced_cases(self, p2c, vacant_policy, expected):
        stream = _assert_stream_matches_estimator(
            *_schedule(p2c, vacant_policy, len(expected)), 20
        )
        assert _stream_rows(stream, 20) == expected

    def test_links_longer_than_the_run(self):
        for vacant_policy in ("resend", "hold"):
            stream = _assert_stream_matches_estimator(
                *_schedule(Fixed(5000), vacant_policy, 3), 20
            )
            growth = 20 if vacant_policy == "resend" else 0
            assert stream.tm_ms.tolist() == [0, growth, 2 * growth]

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError, match="period must be positive"):
            estimate_stream([0], [1], np.array([1]), [0], np.array([1]), 0)

    def test_runner_drives_no_estimator_state(self, monkeypatch):
        runs = {}
        for vacant_policy in ("resend", "hold"):
            config = _short("intermediate-uniform", seconds=2.0, vacant_policy=vacant_policy)
            deliver, arrivals, send_ticks = _schedule(
                config.plant_to_ctrl, vacant_policy, 100, seed=config.seed
            )
            runs[vacant_policy] = (config, _estimator_by_tick(deliver, arrivals, send_ticks, 20))
        monkeypatch.setattr(delay_est.EstimatorState, "__init__", _must_not_be_called)
        for config, log in runs.values():
            record = run_closed_loop(apply_smith_variant(config, "adaptive-dfr"))
            assert record.estimator_log == log
            assert record.tm_ms.tolist() == [row[3] for row in log]


def _traced_run(run, config, func, statement, read):
    """run(config) under a line tracer on func's frames. Returns the result
    and read(frame locals), taken each time the one line of func that reads
    statement is about to run."""
    lines, first = inspect.getsourcelines(func)
    hits = [first + i for i, text in enumerate(lines) if text.strip() == statement]
    assert len(hits) == 1, hits
    line = hits[0]
    code = func.__code__
    seen = []

    def on_line(frame, event, arg):
        if event == "line" and frame.f_lineno == line:
            seen.append(read(frame.f_locals))
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        return run(config), seen
    finally:
        sys.settrace(previous)


def _assert_same_record(got, want):
    names = ("t_ms", "setpoint", "speed_meas", "speed_true", "duty", "tm_ms", "codes", "rtt_ms")
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.event == want.event
    assert got.frame_stats == want.frame_stats
    assert got.estimator_log == want.estimator_log


# A t_m of 40 ms is where the marshall and laguerre series drop to a lower
# order: fixed 40 ms from plant to controller holds it there under
# "resend", and traces of whole ticks move in and out of it.
_LOOP_LINKS = (
    st.builds(Fixed, st.sampled_from([0, 20, 40]) | st.integers(0, 120))
    | st.tuples(st.integers(0, 200), st.integers(0, 200))
    .map(sorted)
    .map(lambda b: UniformRandom(b[0], b[1]))
    | st.lists(st.sampled_from([0, 20, 40, 60]) | st.integers(0, 150), min_size=1, max_size=8)
    .map(lambda d: Trace(d, cycle=True))
)


# Gains from 1e-3 to 1e12 in size: a large kp turns a last-bit change in
# the Smith correction into a different duty byte.
_LOOP_GAINS = st.floats(-3.0, 12.0).map(lambda e: 10.0**e) | st.just(DEFAULT_KP)


@st.composite
def _loop_configs(draw):
    n_ticks = draw(st.integers(1, 300))
    return ScenarioConfig(
        duration_s=n_ticks * SAMPLE_TIME,
        kp=draw(_LOOP_GAINS),
        ki=draw(_LOOP_GAINS | st.just(DEFAULT_KI)),
        setpoint_period_s=draw(st.sampled_from([0.0, 0.2, 1.0]) | _finite(0.0, 2.0)),
        seed=draw(st.integers(0, 2**32)),
        plant_model=draw(st.sampled_from(["nominal", "exact"])),
        encoder_jitter=draw(st.booleans()),
        ctrl_to_plant=draw(_LOOP_LINKS),
        plant_to_ctrl=draw(_LOOP_LINKS),
        smith_mode=draw(st.sampled_from(["off", "classical", "adaptive"])),
        smith_tau_ms=draw(st.sampled_from([0.0, 60.0]) | _finite(0.0, 400.0)),
        smith_kind=draw(st.sampled_from([kind.value for kind in ApproxKind])),
        smith_smoothing=draw(st.just(0.0) | _finite(0.0, 0.9)),
        vacant_policy=draw(st.sampled_from(["resend", "hold"])),
    )


def _assert_runs_equal(config):
    """run_closed_loop against the reference loop: the records, and each PI
    step's error input, error sum and unclamped command by float.hex, which
    also show last-bit changes in the Smith correction and the PI law that
    the duty byte hides. The runner computes the step inline; its values
    are read off its frame where the upper clamp tests the command."""
    got, got_pi = _traced_run(
        run_closed_loop,
        config,
        run_closed_loop,
        "if command > max_duty:",
        lambda v: (v["error"].hex(), v["integral"].hex(), v["command"].hex()),
    )
    want, want_pi = _traced_run(
        reference_runner.run_closed_loop_reference,
        config,
        pi_step,
        "saturated = False",
        lambda v: (v["error"].hex(), v["state"].integral_sum.hex(), v["u"].hex()),
    )
    _assert_same_record(got, want)
    assert got_pi == want_pi


def _patch_everywhere(monkeypatch, func, replacement):
    """Replace func under every name a wncs module holds it by."""
    for name, module in list(sys.modules.items()):
        if name == "wncs" or name.startswith("wncs."):
            for key, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, key, replacement)


def _substitute_motor(monkeypatch, gain):
    """Run both loops on a nominal motor of pulse gain b1 = gain."""

    def motor():
        return DiscreteTf(num=(0.0, gain), den=(1.0, -0.92), sample_time=SAMPLE_TIME)

    monkeypatch.setattr(scenario, "pulse_tf_nominal", motor)
    monkeypatch.setattr(reference_runner, "pulse_tf_nominal", motor)


class TestValuePlane:
    """The runner's local-float recurrences against the per-object loop."""

    @settings(deadline=None, max_examples=150)
    @given(config=_loop_configs())
    def test_run_equals_the_reference_loop(self, config):
        _assert_runs_equal(config)

    # A zero setpoint keeps every delayed sum at exactly zero all run: the
    # only sums whose sign a lower-order series' 0.0 taps can change in the
    # runner, which the records and the PI errors must not show.
    @pytest.mark.parametrize(
        "kind, policy, setpoint_rps",
        [
            pytest.param(kind, policy, setpoint_rps, id=f"{kind}-{policy}{suffix}")
            for setpoint_rps, suffix in ((100.0, ""), (0.0, "-zero"))
            for policy in ("resend", "hold")
            for kind in ("marshall", "laguerre")
        ],
    )
    def test_lower_order_swaps_equal_the_reference_loop(self, kind, policy, setpoint_rps):
        # t_m alternates between 40 ms (a lower-order series) and others
        config = ScenarioConfig(
            duration_s=5.0,
            setpoint_rps=setpoint_rps,
            plant_to_ctrl=Trace((40, 60), cycle=True),
            smith_mode="adaptive",
            smith_kind=kind,
            vacant_policy=policy,
        )
        _assert_runs_equal(config)

    def test_swaps_keep_what_rebind_keeps(self, monkeypatch):
        # Made-up models whose orders (nx, nw) step through every pair of
        # {0, 1, 2}^2 on both sides of a swap, after a second-order model.
        # Each is held three ticks, so both windows hold nonzero values
        # again by the next swap.
        orders = list(itertools.product(range(3), repeat=2))
        sequence = [(2, 2)] + [pair for old in orders for new in orders for pair in (old, new)]
        rows = [
            (0.5, 0.25 * (nx > 0), 0.125 * (nx > 1), 0.1 * (nw > 0), 0.05 * (nw > 1), nx, nw)
            for nx, nw in sequence
        ]
        index = np.repeat(np.arange(len(rows)), 3)
        schedule = smith.DelaySchedule(np.arange(len(rows)) / 1000.0, rows, index)
        monkeypatch.setattr(scenario, "delay_schedule", lambda *args: schedule)
        config = ScenarioConfig(duration_s=index.size * SAMPLE_TIME, smith_mode="adaptive")

        def windows(v):
            return [v["x1"], v["x2"], v["w1"], v["w2"]]

        # Per tick: the previous model's orders and the windows as the tick
        # takes its model, then the windows it steps the delay line with.
        _, befores = _traced_run(
            run_closed_loop, config, run_closed_loop, "if j != current:",
            lambda v: (v["nx"], v["nw"], windows(v)),
        )
        _, afters = _traced_run(run_closed_loop, config, run_closed_loop, "x2 = x1", windows)
        assert len(befores) == len(afters) == index.size

        def model(nx, nw):
            return DiscreteTf((1.0,) * (nx + 1), (1.0,) + (0.5,) * nw, SAMPLE_TIME)

        previous = (0, 0)  # no model precedes tick 0
        for k, ((nx, nw, before), after) in enumerate(zip(befores, afters)):
            assert (nx, nw) == previous
            new = rows[index[k]][5:]
            if k and index[k] == index[k - 1]:
                assert [v.hex() for v in after] == [v.hex() for v in before]
            else:
                if k:
                    assert 0.0 not in before
                state = lti.DifferenceEqState(model(nx, nw))
                state._inputs = deque(before[:nx], maxlen=nx)
                state._outputs = deque(before[2 : 2 + nw], maxlen=nw)
                state.rebind(model(*new))
                x = list(state._inputs) + [0.0] * (2 - new[0])
                w = list(state._outputs) + [0.0] * (2 - new[1])
                assert [v.hex() for v in after] == [v.hex() for v in x + w]
            previous = new

    def test_encoder_table_equals_encoder_read(self):
        # The loop's lookup of the byte of a whole transition count x, plain
        # and with each miscount, against plant.encoder_read, to past the
        # table's end
        table = scenario._ENCODER_BYTES
        top = len(table)

        def lookup(x):
            return table[x] if x < top else 255.0

        for x in range(top + 10):
            speed = x * ENCODER_RESOLUTION
            assert type(lookup(x)) is float
            assert lookup(x) == encoder_read(speed)
            for miscount in (-1, 0, 1):
                assert lookup(max(x + miscount, 0)) == encoder_read(speed, miscount)

    def test_duty_tables_equal_the_mixed_forms(self):
        # The loop looks up the models' inputs of each duty byte d: the
        # motor's d * DUTY_SCALE and the predictor model's d / DUTY_SPAN
        inputs, fractions = scenario._DUTY_INPUTS, scenario._DUTY_FRACTIONS
        assert len(inputs) == len(fractions) == DUTY_SPAN + 1
        for d in range(DUTY_SPAN + 1):
            assert inputs[d].hex() == (d * plant.DUTY_SCALE).hex()
            assert fractions[d].hex() == (d / DUTY_SPAN).hex()

    # The loop truncates the clamped command with math.floor, which equals
    # int() on the clamp's range, signed zero and both ends included.
    @given(command=st.floats(0.0, float(DUTY_SPAN)))
    @example(command=-0.0)
    @example(command=0.0)
    @example(command=float(DUTY_SPAN))
    @example(command=math.nextafter(float(DUTY_SPAN), 0.0))
    def test_floor_truncates_the_clamped_command_as_int_does(self, command):
        assert type(math.floor(command)) is int
        assert math.floor(command) == int(command)

    # The stock motors top out near 208 rev/s (DC gain 1.04 times
    # SPEED_SPAN_RPS) and never turn backwards, so only a substituted motor
    # reaches the encoder's 255 clamp and its negative-speed check.
    @pytest.mark.parametrize("jitter", [False, True])
    def test_encoder_clamp_equals_the_reference_loop(self, monkeypatch, jitter):
        _substitute_motor(monkeypatch, 0.3)
        config = ScenarioConfig(
            duration_s=2.0, setpoint_rps=SPEED_SPAN_RPS, encoder_jitter=jitter
        )
        _assert_runs_equal(config)
        record = run_closed_loop(config)
        assert record.speed_true.max() > 256.0
        assert record.speed_meas.max() == 255.0

    @pytest.mark.parametrize("policy", ["resend", "hold"])
    @pytest.mark.parametrize("variant", SMITH_VARIANTS)
    def test_runner_steps_no_reference_object(self, monkeypatch, policy, variant):
        config = dataclasses.replace(preset_config("intermediate-uniform"), seed=1)
        config = apply_smith_variant(config, variant)
        config.vacant_policy = policy
        for name in ("__init__", "peek", "step", "rebind"):
            monkeypatch.setattr(lti.DifferenceEqState, name, _must_not_be_called)
        for name in ("__init__", "preview", "commit", "update_delay_estimate"):
            monkeypatch.setattr(smith.SmithPredictor, name, _must_not_be_called)
        for func in (pid.pi_step, plant.encoder_read, plant.motor_step):
            _patch_everywhere(monkeypatch, func, _must_not_be_called)
        run_closed_loop(config)
        monkeypatch.undo()
        _assert_runs_equal(config)


# Links that close the loop within a short run, including traces that may
# run out.
_SHORT_LINKS = (
    st.builds(Fixed, st.integers(0, 500))
    | st.tuples(st.integers(0, 500), st.integers(0, 500))
    .map(sorted)
    .map(lambda b: UniformRandom(b[0], b[1]))
    | st.builds(Trace, st.lists(st.integers(0, 500), min_size=1, max_size=8), st.booleans())
)
_GAINS = _finite(-MAX_GAIN, MAX_GAIN) | _finite(-50.0, 50.0) | st.sampled_from([MAX_GAIN, -MAX_GAIN])


@st.composite
def _short_valid_configs(draw):
    min_duty = draw(st.integers(0, DUTY_SPAN - 1))
    return ScenarioConfig(
        duration_s=draw(st.integers(1, 100)) * SAMPLE_TIME,
        setpoint_rps=draw(_finite(0.0, SPEED_SPAN_RPS)),
        setpoint_start_s=draw(_finite(0.0, 3.0)),
        setpoint_period_s=draw(_finite(0.0, 3.0)),
        seed=draw(st.integers(0, 2**64)),
        plant_model=draw(st.sampled_from(["nominal", "exact"])),
        encoder_jitter=draw(st.booleans()),
        kp=draw(_GAINS),
        ki=draw(_valid_ki(_GAINS)),
        min_duty=min_duty,
        max_duty=draw(st.integers(min_duty + 1, DUTY_SPAN)),
        ctrl_to_plant=draw(_SHORT_LINKS),
        plant_to_ctrl=draw(_SHORT_LINKS),
        smith_mode=draw(st.sampled_from(["off", "classical", "adaptive"])),
        smith_tau_ms=draw(_finite(0.0, 1000.0)),
        smith_kind=draw(st.sampled_from([kind.value for kind in ApproxKind])),
        smith_smoothing=draw(_finite(0.0, 0.999)),
        vacant_policy=draw(st.sampled_from(["resend", "hold"])),
    ).validate()


class TestRunInvariants:
    @settings(deadline=None, max_examples=150)
    @given(config=_short_valid_configs())
    def test_every_valid_config_runs_physically(self, config):
        try:
            record = run_closed_loop(config)
        except ValueError as exc:
            # only a non-cycling trace shorter than the run, and before the
            # first tick (the link schedule is computed up front)
            assert "delay trace exhausted" in str(exc)
            assert any(
                isinstance(link, Trace) and not link.cycle
                for link in (config.ctrl_to_plant, config.plant_to_ctrl)
            )
            return
        # before the first command the actuator idles at duty 0
        sent = [event != "vacant" for event in record.event]
        first_send = 0 if config.vacant_policy == "resend" else sent.index(True) if any(sent) else len(sent)
        assert (record.duty[:first_send] == 0).all()
        commanded = record.duty[first_send:]
        assert ((config.min_duty <= commanded) & (commanded <= config.max_duty)).all()
        assert np.isfinite(record.speed_true).all() and (record.speed_true >= 0.0).all()
        assert ((0.0 <= record.speed_meas) & (record.speed_meas <= 255.0)).all()
        for stats in record.frame_stats.values():
            assert stats["sent"] == stats["delivered"] + stats["in_flight"]
            assert stats["in_flight"] >= 0
        assert record.frame_stats["plant_to_ctrl"]["sent"] == record.t_ms.size
        assert (record.tm_ms >= 0).all()
        _assert_same_record(run_closed_loop(dataclasses.replace(config)), record)


def _fresh_run(config):
    """run_closed_loop(config) with the timing-plane memo emptied."""
    with emptied_memo(scenario, "_PLANES"):
        return run_closed_loop(config)


# Legs that draw nothing: fixed delays, cycling traces, and non-cycling
# traces that cover any run drawn with them (at most 50 ticks).
_DRAW_FREE_LINKS = (
    st.builds(Fixed, st.sampled_from([0, 20, 40]) | st.integers(0, 150))
    | st.lists(st.integers(0, 150), min_size=1, max_size=8).map(lambda d: Trace(d, cycle=True))
    | st.lists(st.integers(0, 150), min_size=50, max_size=60).map(Trace)
)


def _draw_free(ticks, c2p=Fixed(20), p2c=Fixed(40), **overrides):
    config = ScenarioConfig(
        duration_s=ticks * SAMPLE_TIME, ctrl_to_plant=c2p, plant_to_ctrl=p2c
    )
    return dataclasses.replace(config, **overrides)


class TestTimingPlaneMemo:
    """The memo of draw-free timing planes changes no run."""

    @settings(deadline=None)
    @given(
        links=st.lists(st.tuples(_DRAW_FREE_LINKS, _DRAW_FREE_LINKS), min_size=1, max_size=2),
        runs=st.lists(
            st.tuples(
                st.integers(0, 1),
                st.sampled_from(["resend", "hold"]),
                st.sampled_from(SMITH_VARIANTS),
                st.booleans(),
                st.sampled_from([1, 2, 25, 50]),
            ),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 2**32),
    )
    def test_a_run_equals_one_from_an_emptied_memo(self, links, runs, seed):
        # The runs of one example share the memo, so they hit each other's
        # planes wherever their keys agree.
        with emptied_memo(scenario, "_PLANES"):
            for pick, vacant_policy, variant, jitter, ticks in runs:
                c2p, p2c = links[pick % len(links)]
                config = apply_smith_variant(
                    _draw_free(
                        ticks, c2p, p2c, vacant_policy=vacant_policy, encoder_jitter=jitter,
                        seed=seed,
                    ),
                    variant,
                )
                _assert_same_record(run_closed_loop(config), _fresh_run(config))

    def test_each_part_of_the_key_keys_the_plane(self):
        # Under "hold" the sends follow the arrivals, so the policy moves
        # the plane; so does every other part of the key.
        configs = [
            _draw_free(50),
            _draw_free(50, vacant_policy="hold"),
            _draw_free(25),
            _draw_free(50, c2p=Fixed(60)),
            _draw_free(50, p2c=Trace((40, 90), cycle=True)),
        ]
        with emptied_memo(scenario, "_PLANES") as planes:
            for config in configs:
                _assert_same_record(run_closed_loop(config), _fresh_run(config))
            assert len(planes) == len(configs)
            for config in configs:
                _assert_same_record(run_closed_loop(config), _fresh_run(config))

    def test_a_repeat_run_reuses_its_plane(self, monkeypatch):
        # The compensator, the seed and encoder jitter are not in the key.
        with emptied_memo(scenario, "_PLANES"):
            config = _draw_free(50)
            run_closed_loop(config)
            monkeypatch.setattr(scenario, "_link_schedule", _must_not_be_called)
            monkeypatch.setattr(scenario, "estimate_stream", _must_not_be_called)
            for variant in SMITH_VARIANTS:
                repeat = dataclasses.replace(config, seed=7, encoder_jitter=True)
                run_closed_loop(apply_smith_variant(repeat, variant))

    @pytest.mark.parametrize(
        "c2p, p2c",
        [
            (UniformRandom(80, 200), UniformRandom(80, 200)),
            (UniformRandom(0, 40), Fixed(20)),
            (Trace((20, 60), cycle=True), UniformRandom(10, 30)),
        ],
        ids=["both", "c2p", "p2c"],
    )
    def test_a_drawing_leg_leaves_the_memo_unchanged(self, c2p, p2c):
        with emptied_memo(scenario, "_PLANES") as planes:
            run_closed_loop(_draw_free(50))
            before = dict(planes)
            for seed in (0, 1):
                run_closed_loop(_draw_free(50, c2p, p2c, seed=seed))
            assert planes.keys() == before.keys()
            assert all(planes[key] is plane for key, plane in before.items())

    def test_a_record_owns_its_arrays(self):
        config = _draw_free(50, smith_mode="adaptive")
        with emptied_memo(scenario, "_PLANES") as planes:
            first = run_closed_loop(config)
            want = _fresh_run(config)
            for name in ("tm_ms", "codes", "rtt_ms"):
                getattr(first, name)[:] = 7
            _assert_same_record(run_closed_loop(config), want)
            (plane,) = planes.values()
            columns = (plane.reading, plane.send_ticks, plane.sent_by, plane.c2p_drained)
            assert not any(column.flags.writeable for column in (*columns, *plane.estimates))

    @pytest.mark.parametrize("direction", ["ctrl_to_plant", "plant_to_ctrl"])
    def test_a_trace_that_runs_out_stores_nothing(self, direction):
        config = _draw_free(50, **{direction: Trace((10,) * 5)})
        with emptied_memo(scenario, "_PLANES") as planes:
            messages = []
            for _ in range(2):
                with pytest.raises(ValueError) as exc:
                    run_closed_loop(config)
                messages.append(str(exc.value))
            assert messages == [f"{direction}: delay trace exhausted after 5 frames"] * 2
            assert not planes

    def test_a_plane_over_the_cap_is_not_stored(self):
        # A plane is charged its ticks, 32 for its fixed parts and the
        # delays of its traces.
        with emptied_memo(scenario, "_PLANES", 100) as planes:
            stored = _draw_free(68)
            run_closed_loop(stored)
            for config in (_draw_free(69), _draw_free(10, p2c=Trace((40,) * 59, cycle=True))):
                _assert_same_record(run_closed_loop(config), _fresh_run(config))
                assert list(planes) == [(Fixed(20), Fixed(40), "resend", 68)]

    def test_an_overflowing_plane_empties_the_memo_first(self):
        with emptied_memo(scenario, "_PLANES", 100) as planes:
            run_closed_loop(_draw_free(18))
            run_closed_loop(_draw_free(18, vacant_policy="hold"))
            assert len(planes) == 2
            config = _draw_free(3, c2p=Trace((20, 40, 60)))
            _assert_same_record(run_closed_loop(config), _fresh_run(config))
            assert list(planes) == [(Trace((20, 40, 60)), Fixed(40), "resend", 3)]


# The width each timing-plane column is stored at.
_PLANE_DTYPES = {
    "reading": np.int32,
    "send_ticks": np.int64,
    "sent_by": np.int64,
    "c2p_drained": np.int32,
    "tm_ms": np.int32,
    "codes": np.int8,
    "rtt_ms": np.int32,
}


def _assert_plane_equals_the_int64_schedule(config, n_ticks):
    """The plane a run of config reads holds, value for value, what
    _link_schedule and estimate_stream give at int64, each column at its
    stated width and read-only; returns those int64 columns by name."""
    t_ms = round(SAMPLE_TIME * 1000.0)
    with emptied_memo(scenario, "_PLANES"):
        rng_c2p, rng_p2c, _ = scenario._generators(config)
        plane = scenario._timing_plane(config, n_ticks, t_ms, rng_c2p, rng_p2c)
    rng_c2p, rng_p2c, _ = scenario._generators(config)
    link = scenario._link_schedule(config, n_ticks, t_ms, rng_c2p, rng_p2c)
    arrivals = link.p2c_arrivals
    want = {
        "reading": np.where(arrivals > 0, np.cumsum(arrivals), 0),
        "send_ticks": link.send_ticks,
        "sent_by": link.sent_by,
        "c2p_drained": link.c2p_drained,
        **estimate_stream(
            link.p2c_deliver, arrivals, link.p2c_drained, link.send_ticks, link.sent_by, t_ms
        )._asdict(),
    }
    got = {**plane._asdict(), **plane.estimates._asdict()}
    for name, dtype in _PLANE_DTYPES.items():
        assert want[name].dtype == np.int64, name
        assert got[name].dtype == dtype, name
        assert got[name].tolist() == want[name].tolist(), name
        assert not got[name].flags.writeable, name
    assert plane.p2c_delivered == int(link.p2c_drained[-1])
    return want


class TestTimingPlaneWidths:
    """The plane's narrow columns hold the int64 schedule's values."""

    @settings(deadline=None)
    @given(
        c2p=_LOOP_LINKS,
        p2c=_LOOP_LINKS,
        vacant_policy=st.sampled_from(["resend", "hold"]),
        ticks=st.integers(1, 300),
        seed=st.integers(0, 2**32),
    )
    def test_columns_equal_the_int64_schedule(self, c2p, p2c, vacant_policy, ticks, seed):
        config = _draw_free(ticks, c2p, p2c, vacant_policy=vacant_policy, seed=seed)
        _assert_plane_equals_the_int64_schedule(config, ticks)

    def test_an_hour_of_vacant_ticks_keeps_its_estimate(self):
        # No measurement arrives within the run, so t_m grows by one period
        # every tick after the first send, to 3,599,980 ms on the last one.
        n_ticks = round(MAX_DURATION_S / SAMPLE_TIME)
        config = _draw_free(n_ticks, p2c=Fixed(round(MAX_DURATION_S * 1000.0)))
        want = _assert_plane_equals_the_int64_schedule(config, n_ticks)
        assert want["tm_ms"].max() == 3_599_980
        assert want["rtt_ms"].max() == -1

    def test_an_hour_long_run_keeps_a_late_first_rtt(self):
        # The first measurement arrives 3,000,000 ms after tick 0's send.
        n_ticks = round(MAX_DURATION_S / SAMPLE_TIME)
        config = _draw_free(n_ticks, p2c=Fixed(3_000_000))
        want = _assert_plane_equals_the_int64_schedule(config, n_ticks)
        assert want["rtt_ms"].max() >= 3_000_000


def _setpoint_at(config, t_ms):
    """The setpoint rule at one tick time, phase taken in milliseconds."""
    if t_ms / 1000.0 < config.setpoint_start_s:
        return 0.0
    period_ms = config.setpoint_period_s * 1000.0
    if period_ms > 0.0:
        phase = math.fmod(t_ms - config.setpoint_start_s * 1000.0, period_ms)
        if phase >= period_ms / 2.0:
            return 0.0
    return config.setpoint_rps


class TestSetpointColumn:
    @settings(deadline=None)
    @given(
        start=st.floats(0.0, 3.0) | st.sampled_from([0.0, 0.013, 0.02, 0.5]),
        period=st.just(0.0) | st.floats(0.001, 3.0) | st.sampled_from([0.04, 0.5, 1.0, 0.3]),
        rps=st.floats(0.0, SPEED_SPAN_RPS),
    )
    def test_column_equals_the_scalar_rule(self, start, period, rps):
        config = ScenarioConfig(
            setpoint_start_s=start, setpoint_period_s=period, setpoint_rps=rps
        )
        times = np.arange(200, dtype=np.int64) * 20
        column = scenario._setpoint_column(config, times)
        assert column.dtype == np.float64
        assert column.tolist() == [_setpoint_at(config, t) for t in times.tolist()]

    def test_start_off_the_tick_grid(self):
        config = ScenarioConfig(setpoint_start_s=0.013)
        column = scenario._setpoint_column(config, np.arange(3, dtype=np.int64) * 20)
        assert column.tolist() == [0.0, 100.0, 100.0]

    def test_tick_at_exactly_half_a_period_is_off(self):
        # ticks 0.5 s and 1.5 s into a 1 s period start its second half
        config = ScenarioConfig(setpoint_period_s=1.0, duration_s=2.0)
        record = run_closed_loop(config)
        assert record.setpoint[[24, 25, 49, 50, 74, 75]].tolist() == [100, 0, 0, 100, 100, 0]
        assert record.setpoint.tolist() == [_setpoint_at(config, t) for t in record.t_ms.tolist()]

    def test_two_tick_period_alternates_every_tick(self):
        config = ScenarioConfig(setpoint_period_s=0.04)
        column = scenario._setpoint_column(config, np.arange(200, dtype=np.int64) * 20)
        assert column.tolist() == [100.0, 0.0] * 100

    def test_ten_tick_period_splits_into_runs_of_five(self):
        # a phase taken in seconds gives runs of 5, 5, 6, 4, 6, ... ticks
        config = ScenarioConfig(setpoint_period_s=0.2)
        column = scenario._setpoint_column(config, np.arange(1000, dtype=np.int64) * 20)
        assert column.tolist() == ([100.0] * 5 + [0.0] * 5) * 100

    def test_whole_periods_after_an_offset_start(self):
        # 2.3 s is two whole 1 s periods after a 0.3 s start, so it opens a
        # period: on, where a phase taken in seconds lands just short of it
        config = ScenarioConfig(setpoint_start_s=0.3, setpoint_period_s=1.0)
        column = scenario._setpoint_column(config, np.array([2280, 2300, 2780, 2800]))
        assert column.tolist() == [0.0, 100.0, 100.0, 0.0]


class TestComputeMetrics:
    def test_first_order_settling_time(self):
        # 0.92^k leaves the 2% band for good at k=47: 47 * 20 ms = 0.94 s
        k = np.arange(100)
        record = _record(100.0 * (1.0 - 0.92**k))
        metrics = compute_metrics(record)
        assert metrics.settling_time_s == pytest.approx(0.94)
        assert metrics.percent_overshoot == 0.0

    def test_overshoot_percent(self):
        record = _record([0.0, 120.0] + [100.0] * 18)
        metrics = compute_metrics(record)
        assert metrics.percent_overshoot == pytest.approx(20.0)
        assert metrics.settling_time_s == pytest.approx(0.04)

    def test_zero_setpoint_leaves_step_figures_undefined(self):
        record = _record(np.zeros(10), setpoint=0.0)
        metrics = compute_metrics(record)
        assert metrics.percent_overshoot is None
        assert metrics.settling_time_s is None

    def test_never_in_band_settles_at_infinity(self):
        record = _record(np.full(20, 50.0))
        metrics = compute_metrics(record)
        assert metrics.settling_time_s == np.inf
        assert metrics.percent_overshoot == 0.0

    def test_perfect_tracking(self):
        record = _record(np.full(20, 100.0))
        metrics = compute_metrics(record)
        assert metrics.settling_time_s == 0.0
        assert metrics.percent_overshoot == 0.0
        assert metrics.steady_state_error == 0.0
        assert metrics.ise == 0.0

    def test_steady_state_error_reads_trailing_tenth(self):
        record = _record([0.0] * 9 + [97.0])
        assert compute_metrics(record).steady_state_error == pytest.approx(3.0)

    def test_error_integrals_read_measured_column(self):
        record = _record(
            np.full(4, 100.0), speed_meas=np.array([98.0, 99.0, 99.0, 100.0])
        )
        metrics = compute_metrics(record)
        assert metrics.ise == pytest.approx((4 + 1 + 1 + 0) * 0.02)
        assert metrics.trailing_half_ise == pytest.approx((1 + 0) * 0.02)

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(_record(np.zeros(0)))

    def test_metrics_csv_roundtrip(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(
            Metrics(
                percent_overshoot=None,
                settling_time_s=0.94,
                steady_state_error=0.5,
                ise=12.25,
                trailing_half_ise=1.0,
            ),
            path,
        )
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "percent_overshoot,settling_time_s,steady_state_error,ise,trailing_half_ise"
        )
        assert lines[1] == ",0.94,0.5,12.25,1"


# Every place a JSON document can put a value: each key, each section, and
# each trace/fixed/uniform policy key except "file".
_SECTION_KEYS = {
    "controller": ("kp", "ki"),
    "limits": ("min_duty", "max_duty"),
    "plant": ("model", "encoder_jitter"),
    "smith": ("mode", "tau_ms", "kind", "smoothing"),
}
_POLICY_FIELDS = ("policy", "delay_ms", "lo_ms", "hi_ms", "delays_ms", "cycle")
_VALUE_PATHS = (
    [(key,) for key in ("duration_s", "setpoint_rps", "setpoint_start_s",
                        "setpoint_period_s", "seed", "vacant_policy")]
    + [(section,) for section in (*_SECTION_KEYS, "channel")]
    + [(section, key) for section, keys in _SECTION_KEYS.items() for key in keys]
    + [("channel", d) for d in ("ctrl_to_plant", "plant_to_ctrl")]
    + [("channel", d, key) for d in ("ctrl_to_plant", "plant_to_ctrl") for key in _POLICY_FIELDS]
)
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-300, 300)
    | st.sampled_from([10**400, -(10**400), 2**63])
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


@st.composite
def _fuzzed_documents(draw):
    raw = {}
    for path in draw(st.lists(st.sampled_from(_VALUE_PATHS), max_size=5)):
        if path[-1] == "policy":
            value = draw(st.sampled_from(["fixed", "uniform", "trace"]) | _JSON_VALUES)
        else:
            value = draw(_JSON_VALUES)
        node = raw
        for key in path[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                break
        else:
            node[path[-1]] = value
    return raw


class TestConfigFromDict:
    def test_empty_object_gives_defaults(self):
        config = config_from_dict({})
        assert config.duration_s == 25.0
        assert config.smith_mode == "off"

    def test_full_document(self):
        config = config_from_dict(
            {
                "duration_s": 5.0,
                "setpoint_rps": 120.0,
                "seed": 9,
                "vacant_policy": "hold",
                "controller": {"kp": 2.0, "ki": 8.0},
                "limits": {"min_duty": 10, "max_duty": 200},
                "plant": {"model": "exact", "encoder_jitter": True},
                "channel": {
                    "ctrl_to_plant": {"policy": "fixed", "delay_ms": 40},
                    "plant_to_ctrl": {"policy": "uniform", "lo_ms": 80, "hi_ms": 200},
                },
                "smith": {"mode": "adaptive", "kind": "pade2", "smoothing": 0.3},
            }
        )
        assert config.duration_s == 5.0
        assert config.kp == 2.0 and config.ki == 8.0
        assert config.min_duty == 10 and config.max_duty == 200
        assert config.plant_model == "exact" and config.encoder_jitter is True
        assert config.ctrl_to_plant == Fixed(40)
        assert config.plant_to_ctrl == UniformRandom(80, 200)
        assert config.smith_mode == "adaptive"
        assert config.smith_kind == "pade2"
        assert config.smith_smoothing == 0.3
        assert config.vacant_policy == "hold"

    def test_inline_trace_policy(self):
        config = config_from_dict(
            {"channel": {"ctrl_to_plant": {"policy": "trace", "delays_ms": [30, 40], "cycle": True}}}
        )
        assert config.ctrl_to_plant == Trace((30, 40), cycle=True)

    def test_trace_policy_from_file(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "direction,delay_ms\nctrl_to_plant,35\nctrl_to_plant,50\nplant_to_ctrl,60\n"
        )
        config = config_from_dict(
            {"channel": {"ctrl_to_plant": {"policy": "trace", "file": str(trace)}}}
        )
        assert config.ctrl_to_plant == Trace((35, 50))

    def test_trace_file_not_utf8_names_the_file_line(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_bytes(b"direction,delay_ms\nctrl_to_plant,35\nctrl_to_plant,\xe950\n")
        with pytest.raises(ValueError) as exc:
            config_from_dict({"channel": {"ctrl_to_plant": {"policy": "trace", "file": str(trace)}}})
        assert str(exc.value) == f"config: channel.ctrl_to_plant: {trace}: line 3: not valid UTF-8"

    @pytest.mark.parametrize(
        "raw,fragment",
        [
            ({"durations_s": 5.0}, "durations_s"),
            ({"controller": {"kd": 1.0}}, "kd"),
            ({"limits": {"mid_duty": 3}}, "mid_duty"),
            ({"plant": {"order": 2}}, "order"),
            ({"channel": {"uplink": {}}}, "uplink"),
            ({"smith": {"horizon": 3}}, "horizon"),
            (
                {"channel": {"ctrl_to_plant": {"policy": "fixed", "jitter_ms": 5}}},
                "jitter_ms",
            ),
        ],
    )
    def test_unknown_keys_rejected(self, raw, fragment):
        with pytest.raises(ValueError, match=fragment):
            config_from_dict(raw)

    def test_top_level_must_be_object(self):
        with pytest.raises(ValueError, match="top level"):
            config_from_dict([1, 2, 3])

    def test_policy_spec_must_be_object(self):
        with pytest.raises(ValueError, match="expected an object"):
            config_from_dict({"channel": {"ctrl_to_plant": 40}})

    def test_policy_name_required(self):
        with pytest.raises(ValueError, match="policy must be one of"):
            config_from_dict({"channel": {"ctrl_to_plant": {"delay_ms": 40}}})

    def test_uniform_needs_both_bounds(self):
        with pytest.raises(ValueError, match="lo_ms and hi_ms"):
            config_from_dict({"channel": {"ctrl_to_plant": {"policy": "uniform", "lo_ms": 10}}})

    def test_trace_rejects_file_and_inline_together(self):
        with pytest.raises(ValueError, match="not both"):
            config_from_dict(
                {
                    "channel": {
                        "ctrl_to_plant": {
                            "policy": "trace",
                            "file": "x.csv",
                            "delays_ms": [1],
                        }
                    }
                }
            )

    def test_trace_needs_a_source(self):
        with pytest.raises(ValueError, match="file or delays_ms"):
            config_from_dict({"channel": {"ctrl_to_plant": {"policy": "trace"}}})

    def test_bad_seed_type_caught_by_validate(self):
        with pytest.raises(ValueError, match="seed"):
            config_from_dict({"seed": "zero"})

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"seed": 1.5}, "seed must be an integer"),
            ({"vacant_policy": "drop"}, "vacant_policy: unknown vacant policy 'drop'"),
            ({"controller": {"kp": "x"}}, "controller.kp must be a finite number"),
            ({"controller": {"ki": 1e-310}},
             "controller.ki must be 0 or at least 1.418e-304 in size"),
            ({"limits": {"min_duty": 9, "max_duty": 9}},
             "need 0 <= limits.min_duty < limits.max_duty <= 255"),
            ({"plant": {"encoder_jitter": 1}}, "plant.encoder_jitter must be true or false"),
            ({"plant": {"model": "kp"}}, "plant.model: unknown plant model 'kp'"),
            ({"smith": {"tau_ms": -1}}, "smith.tau_ms must be within 0..3600000 ms"),
            ({"smith": {"kind": "euler"}}, "smith.kind: unknown series kind 'euler'"),
        ],
        ids=["seed", "vacant_policy", "controller.kp", "controller.ki", "limits",
             "plant.encoder_jitter", "plant.model", "smith.tau_ms", "smith.kind"],
    )
    def test_validate_error_names_the_source_and_json_key(self, raw, message):
        with pytest.raises(ValueError) as exc:
            config_from_dict(raw, source="c.json")
        assert str(exc.value) == f"c.json: {message}"

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"seed": 1.5}, "seed must be an integer"),
            ({"kp": "x"}, "kp must be a finite number"),
            ({"min_duty": 9, "max_duty": 9}, "need 0 <= min_duty < max_duty <= 255"),
            ({"plant_model": "kp"}, "unknown plant model 'kp'"),
            ({"smith_kind": "euler"}, "unknown series kind 'euler'"),
        ],
        ids=["seed", "kp", "duty", "plant_model", "smith_kind"],
    )
    def test_validate_in_code_names_the_field(self, changes, message):
        with pytest.raises(ValueError) as exc:
            dataclasses.replace(ScenarioConfig(), **changes).validate()
        assert str(exc.value) == message

    def test_json_integers_in_float_fields_stay_floats(self):
        config = config_from_dict({"duration_s": 1, "setpoint_rps": 100})
        assert type(config.setpoint_rps) is float
        record = run_closed_loop(config)
        assert record.setpoint.dtype == np.float64

    @settings(deadline=None)
    @given(raw=_fuzzed_documents())
    def test_any_json_is_a_config_or_a_value_error(self, raw):
        try:
            config = config_from_dict(raw)
        except ValueError:
            return
        assert config.validate() is config


_DELAYS = st.integers(0, 2**63 - 1)
_POLICIES = (
    st.builds(Fixed, _DELAYS)
    | st.tuples(_DELAYS, _DELAYS).map(lambda b: UniformRandom(min(b), max(b)))
    | st.builds(Trace, st.lists(_DELAYS, min_size=1, max_size=5), st.booleans())
)


@st.composite
def _valid_configs(draw):
    min_duty = draw(st.integers(0, DUTY_SPAN - 1))
    return ScenarioConfig(
        duration_s=draw(_finite(0.02, MAX_DURATION_S)),
        setpoint_rps=draw(_finite(0.0, SPEED_SPAN_RPS)),
        setpoint_start_s=draw(_finite(0.0)),
        setpoint_period_s=draw(_finite(0.0)),
        seed=draw(st.integers(0, 2**64)),
        plant_model=draw(st.sampled_from(["nominal", "exact"])),
        encoder_jitter=draw(st.booleans()),
        kp=draw(_finite(-MAX_GAIN, MAX_GAIN)),
        ki=draw(_valid_ki(_finite(-MAX_GAIN, MAX_GAIN))),
        min_duty=min_duty,
        max_duty=draw(st.integers(min_duty + 1, DUTY_SPAN)),
        ctrl_to_plant=draw(_POLICIES),
        plant_to_ctrl=draw(_POLICIES),
        smith_mode=draw(st.sampled_from(["off", "classical", "adaptive"])),
        smith_tau_ms=draw(_finite(0.0, MAX_DURATION_S * 1000.0)),
        smith_kind=draw(st.sampled_from([kind.value for kind in ApproxKind])),
        smith_smoothing=draw(_finite(0.0, 0.999)),
        vacant_policy=draw(st.sampled_from(["resend", "hold"])),
    ).validate()


class TestConfigToDict:
    @given(config=_valid_configs())
    def test_round_trip(self, config):
        raw = config_to_dict(config)
        assert json.loads(json.dumps(raw)) == raw
        assert config_from_dict(raw) == config

    # A numpy integer in an int field or a delay policy is stored back as an
    # int: the config dumps to JSON, reads back equal, and runs as the same
    # config written with plain ints.
    @pytest.mark.parametrize(
        "key, make",
        [
            ("seed", lambda i: i(3)),
            ("min_duty", lambda i: i(10)),
            ("max_duty", lambda i: i(200)),
            ("ctrl_to_plant", lambda i: Fixed(i(40))),
            ("plant_to_ctrl", lambda i: UniformRandom(i(20), i(90))),
            ("plant_to_ctrl", lambda i: Trace((i(40), i(60)), cycle=True)),
        ],
        ids=["seed", "min_duty", "max_duty", "fixed", "uniform", "trace"],
    )
    def test_numpy_integers_are_stored_as_ints(self, key, make):
        base = ScenarioConfig(duration_s=2.0, smith_mode="adaptive")
        plain = dataclasses.replace(base, **{key: make(int)}).validate()
        config = dataclasses.replace(base, **{key: make(np.int64)}).validate()
        raw = json.loads(json.dumps(config_to_dict(config)))
        assert raw == config_to_dict(plain)
        assert config_from_dict(raw) == config
        _assert_same_record(run_closed_loop(config), run_closed_loop(plain))

    def test_trace_file_is_written_inline(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "direction,delay_ms\nctrl_to_plant,35\nctrl_to_plant,50\nplant_to_ctrl,60\n"
        )
        config = config_from_dict(
            {"channel": {"ctrl_to_plant": {"policy": "trace", "file": str(trace)}}}
        )
        assert config_to_dict(config)["channel"]["ctrl_to_plant"] == {
            "policy": "trace",
            "delays_ms": [35, 50],
            "cycle": False,
        }


class TestLoadConfig:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"duration_s": 3.0, "seed": 4}))
        config = load_config(path)
        assert config.duration_s == 3.0
        assert config.seed == 4

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "absent.json")
