"""Closed-loop runner tests.

The wired-preset goldens are hand-traceable: tick 0 measures 0, so the
duty is 1.69*100 + 0.1488*100 = 183.88 truncated to 183; tick 1 pairs the
measurement with the send from tick 0 (round trip one full period, hence
"delayed") and outputs 169 + 0.1488*200 = 198.76 -> 198; and so on. The
CSV lines below are those traces written through the 10-significant-digit
formatter.
"""

import dataclasses
import json

import numpy as np
import pytest

from wncs.netchan import Fixed, Trace, UniformRandom
from wncs.scenario import (
    PRESET_NAMES,
    SMITH_VARIANTS,
    Metrics,
    RunRecord,
    ScenarioConfig,
    apply_smith_variant,
    compute_metrics,
    config_from_dict,
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


def _short(preset, seconds=0.4, **overrides):
    config = preset_config(preset)
    return dataclasses.replace(config, duration_s=seconds, **overrides)


def _record(speed_true, speed_meas=None, setpoint=100.0, dt=0.02):
    y = np.asarray(speed_true, dtype=np.float64)
    n = y.size
    meas = y if speed_meas is None else np.asarray(speed_meas, dtype=np.float64)
    return RunRecord(
        sample_time_s=dt,
        t_ms=np.arange(n, dtype=np.int64) * int(dt * 1000),
        setpoint=np.full(n, float(setpoint)),
        speed_meas=meas,
        speed_true=y,
        duty=np.zeros(n, dtype=np.int64),
        tm_ms=np.zeros(n, dtype=np.int64),
        event=["normal"] * n,
        frame_stats={},
        estimator_log=[],
    )


class TestConfigValidation:
    def test_defaults_pass(self):
        assert ScenarioConfig().validate() is not None

    @pytest.mark.parametrize(
        "overrides",
        [
            {"duration_s": 0.0},
            {"sample_time_s": 0.0},
            {"duration_s": 0.01, "sample_time_s": 0.02},
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
                "sample_time_s",
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

    def test_setpoint_override(self):
        record = _record(np.full(10, 60.0), setpoint=0.0)
        metrics = compute_metrics(record, setpoint=50.0)
        assert metrics.percent_overshoot == pytest.approx(20.0)

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
