"""Command-line behavior through main(argv): exit codes, files, stdout."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wncs
from wncs import scenario
from wncs.cli import main
from wncs.lti import filter_sequence
from wncs.models import pulse_tf_exact


@pytest.fixture
def step_csv(tmp_path):
    tf = pulse_tf_exact()
    rng = np.random.default_rng(5)
    u = rng.uniform(0.0, 1.0, 200)
    y = filter_sequence(tf, u)
    path = tmp_path / "step.csv"
    rows = ["t,u,y"] + [
        f"{k * 0.02:.10g},{u[k]:.12g},{y[k]:.12g}" for k in range(u.size)
    ]
    path.write_text("\n".join(rows) + "\n")
    return path


def _must_not_run(config):
    pytest.fail("an invalid config reached the closed loop")


class TestSimulate:
    def test_preset_run_writes_three_files(self, tmp_path, capsys):
        out = tmp_path / "demo"
        code = main(
            ["simulate", "--preset", "wired", "--duration", "0.4", "--out", str(out)]
        )
        assert code == 0
        for name in ("run.csv", "metrics.csv", "estimator.csv"):
            assert (out / name).exists()
        stdout = capsys.readouterr().out
        assert "20 ticks" in stdout
        assert "ise" in stdout
        first = (out / "run.csv").read_text().splitlines()[:3]
        assert first == [
            "t_ms,setpoint,speed_meas,speed_true,duty,tm_ms,event",
            "0,100,0,0,183,0,normal",
            "20,100,0,0,198,20,delayed",
        ]

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        args = ["simulate", "--preset", "intermediate-uniform", "--seed", "7",
                "--duration", "2", "--smith", "adaptive-dfr"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        for name in ("run.csv", "metrics.csv", "estimator.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_config_file_run(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"duration_s": 0.4, "seed": 2}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_config_and_preset_together_rejected(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text("{}")
        with pytest.raises(SystemExit):
            main(
                ["simulate", "--config", str(cfg), "--preset", "wired",
                 "--out", str(tmp_path / "o")]
            )

    def test_neither_config_nor_preset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--out", str(tmp_path / "o")])

    def test_unknown_preset_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--preset", "lte", "--out", str(tmp_path / "o")])

    def test_bad_config_key_is_a_clean_error(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"durations": 5}))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_overflowing_smith_tau_is_a_clean_error(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text('{"smith": {"mode": "classical", "tau_ms": 1e400}}')
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "smith_tau_ms" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"duration_s": None}, "duration_s"),
            ({"duration_s": [1]}, "duration_s"),
            ({"controller": 5}, "controller"),
            ({"plant": []}, "plant"),
            ({"limits": {"max_duty": 1e400}}, "max_duty"),
            ({"controller": {"kp": 10**400}}, "kp"),
            ({"plant": {"encoder_jitter": "no"}}, "encoder_jitter"),
            ({"smith": {"mode": "classical", "tau_ms": "60"}}, "tau_ms"),
            ({"channel": {"ctrl_to_plant": {"policy": "fixed", "delay_ms": 40.9}}}, "delay_ms"),
            ({"channel": {"ctrl_to_plant": {"policy": "trace", "delays_ms": 5}}}, "delays_ms"),
            ({"sample_time_s": 0.01}, "sample_time_s"),
            ({"duration_s": 1e9}, "duration_s"),
        ],
    )
    def test_bad_config_value_is_one_error_line(self, tmp_path, capsys, monkeypatch, doc, key):
        monkeypatch.setattr(scenario, "run_closed_loop", _must_not_run)
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(doc))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and key in err

    def test_duration_over_the_cap_fails_before_any_tick(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(scenario, "run_closed_loop", _must_not_run)
        out = tmp_path / "o"
        code = main(["simulate", "--preset", "wired", "--duration", "1e9", "--out", str(out)])
        assert code == 2
        assert "duration_s" in capsys.readouterr().err
        assert not out.exists()

    def test_total_delay_override(self, tmp_path):
        code = main(
            ["simulate", "--preset", "wired", "--total-delay-ms", "85",
             "--duration", "1", "--out", str(tmp_path / "o")]
        )
        assert code == 0


class TestIdentify:
    def test_raw_fit_recovers_continuous_model(self, step_csv, capsys):
        code = main(
            ["identify", "--data", str(step_csv), "--na", "1", "--nb", "1",
             "--nk", "1", "--raw"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fit            100.00 %" in out
        assert "K = 4.159, a = 3.888" in out

    def test_normalized_fit_runs(self, step_csv, capsys):
        code = main(
            ["identify", "--data", str(step_csv), "--na", "1", "--nb", "1", "--nk", "1"]
        )
        assert code == 0
        assert "fit" in capsys.readouterr().out

    def test_higher_order_skips_continuous_line(self, tmp_path, capsys):
        # second-order data keeps the 2/2/1 regressor full rank
        from wncs.lti import DiscreteTf

        tf = DiscreteTf((0.0, 0.2, 0.1), (1.0, -1.1, 0.3), 0.02)
        rng = np.random.default_rng(6)
        u = rng.uniform(0.0, 1.0, 200)
        y = filter_sequence(tf, u)
        path = tmp_path / "second.csv"
        rows = ["t,u,y"] + [
            f"{k * 0.02:.10g},{u[k]:.12g},{y[k]:.12g}" for k in range(u.size)
        ]
        path.write_text("\n".join(rows) + "\n")
        assert main(["identify", "--data", str(path), "--na", "2", "--nb", "2", "--nk", "1"]) == 0
        assert "continuous" not in capsys.readouterr().out

    def test_missing_data_file(self, tmp_path, capsys):
        code = main(
            ["identify", "--data", str(tmp_path / "none.csv"), "--na", "1",
             "--nb", "1", "--nk", "1"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_order_is_a_clean_error(self, step_csv, capsys):
        code = main(
            ["identify", "--data", str(step_csv), "--na", "-1", "--nb", "1", "--nk", "1"]
        )
        assert code == 2


class TestDesignPi:
    def test_stock_design_point(self, capsys):
        assert main(["design-pi", "--zeta", "0.94", "--wd-over-ws", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "zero           0.544020" in out
        assert "loop gain K    19.6567" in out
        assert "kp             10.6936" in out
        assert "ki             448.1540" in out

    def test_invalid_zeta(self, capsys):
        assert main(["design-pi", "--zeta", "1.5", "--wd-over-ws", "0.1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestIseTable:
    def test_table_layout(self, capsys):
        assert main(["ise-table", "--taus", "0.2,0.4"]) == 0
        out = capsys.readouterr().out
        assert "tau=0.2" in out and "tau=0.4" in out and "avg" in out
        for kind in ("pade2", "marshall", "product", "laguerre", "paynter", "dfr"):
            assert kind in out

    def test_empty_tau_list(self):
        with pytest.raises(SystemExit):
            main(["ise-table", "--taus", ","])

    def test_infinite_tau_is_a_clean_error(self, capsys):
        assert main(["ise-table", "--taus", "0.2,inf"]) == 2
        assert capsys.readouterr().err.startswith("error: tau")


class TestStability:
    def test_margin_table_output(self, capsys):
        assert main(["stability", "--tau-list", "0,0.3,2"]) == 0
        out = capsys.readouterr().out
        assert "gain crossover 1.47673 rad/s" in out
        assert "yes" in out and "no" in out

    def test_out_directory_files(self, tmp_path, capsys):
        out = tmp_path / "margins"
        assert main(["stability", "--tau-list", "0,2", "--out", str(out)]) == 0
        margins = (out / "margins.csv").read_text().splitlines()
        assert margins[0] == "tau_s,gain_crossover_rad_s,phase_margin_deg,stable"
        assert len(margins) == 3
        assert margins[1].startswith("0,") and margins[1].endswith(",1")
        assert margins[2].startswith("2,") and margins[2].endswith(",0")
        assert (out / "nyquist_tau_0.csv").exists()
        assert (out / "nyquist_tau_2.csv").exists()
        locus = (out / "nyquist_tau_2.csv").read_text().splitlines()
        assert locus[0] == "omega,re,im"
        assert "locus file(s)" in capsys.readouterr().out

    def test_empty_tau_list(self):
        with pytest.raises(SystemExit):
            main(["stability", "--tau-list", " "])


class TestEstimatorDemo:
    def test_replay_table(self, capsys):
        assert main(["estimator-demo"]) == 0
        out = capsys.readouterr().out
        assert "sample_ms" in out
        assert "delayed" in out and "vacant" in out
        assert "send-to-arrival diffs: 23, 22, 29, 9, 25, 16, 19, 24, 17" in out

    def test_log_file(self, tmp_path):
        path = tmp_path / "estimator.csv"
        assert main(["estimator-demo", "--out", str(path)]) == 0
        assert path.read_text().startswith("sample_ms,event,rtt_ms,tm_ms")


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["replay"])


def test_cli_import_loads_no_numba_or_scipy():
    # Every CLI invocation pays this import; scipy alone would add over a second.
    src = str(Path(wncs.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, wncs.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'numba', 'scipy'}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
