"""Command-line behavior through main(argv): exit codes, files, stdout."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wncs
from wncs import cli, scenario
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


def _printed(argv):
    """The lines main(argv) prints, asserting that it succeeds."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    return out.getvalue().splitlines()


def _table_cells(lines):
    """A printed table's header and rows, split on whitespace, after
    checking that every line has the header's number of cells and that
    every column is padded to one width, so all lines are equally long."""
    header, *rows = (line.split() for line in lines)
    assert all(len(row) == len(header) for row in rows)
    assert len({len(line) for line in lines}) == 1
    return header, rows


# Distinct taus from 0 to hi, within a command's limits. The explicit
# examples add a tau one float away from another.
def _distinct_taus(hi):
    return st.lists(st.floats(0.0, hi), min_size=1, max_size=5, unique=True)


# SHA-256 of run.csv, metrics.csv and estimator.csv from
# `wncs simulate --preset P --smith V --seed 3 --duration 5`. A change that
# moves one output byte must update these and say why.
GOLDEN_DIGESTS = {
    ("wired", "off"): (
        "b2459bb2498959421cb5390dc9333d50fb6a930e320acb65ff0249beda820a15",
        "08f3c6e4ce24366f04d099906b41c24e32cd42ecfa5f4d2895d83609d4a0423d",
        "128d98ee901787191d151e5262867f1df44577c35f75f5272062c137d2e9b54d",
    ),
    ("wired", "classical-60ms"): (
        "dce1ea8b106f6822be34f8192d664103a8f79c376a7130905aa05d3154b541eb",
        "0fe5dc908bf449bfe5941eb904d22c08643b8791cd7c7acda9dfefd7e6500f44",
        "128d98ee901787191d151e5262867f1df44577c35f75f5272062c137d2e9b54d",
    ),
    ("wired", "adaptive-dfr"): (
        "1832b2cf8f34043633999ce9507cd72ab7e76e56dbe05568a6af02f43659ad55",
        "6bebbb52f8498aa200e1f92478bdf237d4f2424b21d4ca17809eb711c6aea063",
        "128d98ee901787191d151e5262867f1df44577c35f75f5272062c137d2e9b54d",
    ),
    ("wired", "adaptive-pade"): (
        "eaa73594b81e1a2edb4a76749c9746e69d71b38c1a5a3d4c30e13a12b7cb1ce2",
        "91b293baecaef3bff7ee3bc08defa3d4d9046c39574fb1b543a7e972bdf39534",
        "128d98ee901787191d151e5262867f1df44577c35f75f5272062c137d2e9b54d",
    ),
    ("p2p-80ms", "off"): (
        "b95a3f9332d13282194db20d1b4158217e0b7856d9b6e82226bf22507bae64ff",
        "7b7b5634a08034fad14dec3f26a6fbbbc447cd85839f223ab4017d199677e705",
        "bd5e75525808b8700ac5fb4cc4333bce8bba695ff2051e23229dc192227a9e57",
    ),
    ("p2p-80ms", "classical-60ms"): (
        "bcb7c9d281670d42401f8f1976dd6d66c2a94c33adb53becf7efe0703d111ac6",
        "ec5e1775ed3740f648461523e081061154a4e0ef4af3b345d833eee6c02ddba1",
        "bd5e75525808b8700ac5fb4cc4333bce8bba695ff2051e23229dc192227a9e57",
    ),
    ("p2p-80ms", "adaptive-dfr"): (
        "b9706385dca47b12641c943401d1e8536aa182ecdf6f6ea6d81ce5cc75e51e98",
        "a2e61217802917d67a79dd0409e155fb1e2ee6f342583b4c42a81bfa54642d23",
        "bd5e75525808b8700ac5fb4cc4333bce8bba695ff2051e23229dc192227a9e57",
    ),
    ("p2p-80ms", "adaptive-pade"): (
        "a1fc72abdc25cbd56206ccb214ad60ead9ae9dcd5c2bff6922898abdbf4397ec",
        "f2fc093f186277d99e4dc5e1e49fe388826014190bada3e069da5a73b82623eb",
        "bd5e75525808b8700ac5fb4cc4333bce8bba695ff2051e23229dc192227a9e57",
    ),
    ("intermediate-uniform", "off"): (
        "e78d32797bca773bb942448fc60aebca6311dd221cfb601d7e11397f58f1799d",
        "5f1833e958af8cf210e9cf9c8a69a239c66571327a284add8b5b24f8298626f5",
        "29d83fd3246fda1e1d47ef2e2c63c882ab437931c5d55eb4e4b1f21eca77ba97",
    ),
    ("intermediate-uniform", "classical-60ms"): (
        "09d266b19a0433daeeb41644dfbe489b3ede41f20b56404e568c046dfc160a9b",
        "9e8f99d500b26b3129f46f63d74d4adedd0f3a0bb6e4eaa9e2eaa501e3b48a4e",
        "29d83fd3246fda1e1d47ef2e2c63c882ab437931c5d55eb4e4b1f21eca77ba97",
    ),
    ("intermediate-uniform", "adaptive-dfr"): (
        "c3b6bb334e366f9997fff4895c9d8963ce1fe838daa10459b805a7a2550bfe1b",
        "a7fe0d22a76ffd3120c15d7d0ce2374fc19d1a26a43d811ab95efb2e54627e82",
        "29d83fd3246fda1e1d47ef2e2c63c882ab437931c5d55eb4e4b1f21eca77ba97",
    ),
    ("intermediate-uniform", "adaptive-pade"): (
        "1af67b5c071bdbb3c449ca573b6f9796d0313e9f543efcd24dc6fa2562f0f58d",
        "44a320eb94e1c4acf7134540638031bbeb0a336c55c4e56b769b52802514dc94",
        "29d83fd3246fda1e1d47ef2e2c63c882ab437931c5d55eb4e4b1f21eca77ba97",
    ),
    ("intermediate-trace", "off"): (
        "76410e04242c2db6d4b15a1d55cf2252b8dc04d94dfdb5ce47c290e264a2d92a",
        "9abc8b380f3d374dc2dbfb1ce982ba3c6f9db0795c37bb523c274c4c11613067",
        "f7f4f26dff4b969ff91ef9e883f75376139f3663aa0b9eb9770099a6f04d4a3d",
    ),
    ("intermediate-trace", "classical-60ms"): (
        "3cc447cf8e8bbaf4786939b71bca65c59f9185172553b508eda23345acc0004c",
        "5ba1fac919d3a6d232cc973dff1aaa0c9a5d5523b17bc92144816f0800e1765f",
        "f7f4f26dff4b969ff91ef9e883f75376139f3663aa0b9eb9770099a6f04d4a3d",
    ),
    ("intermediate-trace", "adaptive-dfr"): (
        "4b870aa796ea7c968ca17747e87a1351fae7890b50fc1b587d9b56c6b8a29fa9",
        "35f41d279a8ed5d037fdb10d3486c9b92ef632ac0e55072070cc289eb0732d41",
        "f7f4f26dff4b969ff91ef9e883f75376139f3663aa0b9eb9770099a6f04d4a3d",
    ),
    ("intermediate-trace", "adaptive-pade"): (
        "0f5a84a6d053911609fd2f765e3c3b170107f67c9e3d582e8974242b72ae7e0d",
        "e2ab7f2ecf96d648b720c30833986dc75cfb2c464911df3fcba4e384dbb07e6c",
        "f7f4f26dff4b969ff91ef9e883f75376139f3663aa0b9eb9770099a6f04d4a3d",
    ),
}


# The same files under vacant_policy "hold", where the controller's sends
# follow the measurement arrivals: `wncs simulate --config C` with C written
# by config_to_dict from preset P, variant V, seed 3, 5 s and "hold".
GOLDEN_HOLD_DIGESTS = {
    ("wired", "off"): (
        "b2459bb2498959421cb5390dc9333d50fb6a930e320acb65ff0249beda820a15",
        "08f3c6e4ce24366f04d099906b41c24e32cd42ecfa5f4d2895d83609d4a0423d",
        "128d98ee901787191d151e5262867f1df44577c35f75f5272062c137d2e9b54d",
    ),
    ("wired", "classical-60ms"): (
        "dce1ea8b106f6822be34f8192d664103a8f79c376a7130905aa05d3154b541eb",
        "0fe5dc908bf449bfe5941eb904d22c08643b8791cd7c7acda9dfefd7e6500f44",
        "128d98ee901787191d151e5262867f1df44577c35f75f5272062c137d2e9b54d",
    ),
    ("wired", "adaptive-dfr"): (
        "1832b2cf8f34043633999ce9507cd72ab7e76e56dbe05568a6af02f43659ad55",
        "6bebbb52f8498aa200e1f92478bdf237d4f2424b21d4ca17809eb711c6aea063",
        "128d98ee901787191d151e5262867f1df44577c35f75f5272062c137d2e9b54d",
    ),
    ("wired", "adaptive-pade"): (
        "eaa73594b81e1a2edb4a76749c9746e69d71b38c1a5a3d4c30e13a12b7cb1ce2",
        "91b293baecaef3bff7ee3bc08defa3d4d9046c39574fb1b543a7e972bdf39534",
        "128d98ee901787191d151e5262867f1df44577c35f75f5272062c137d2e9b54d",
    ),
    ("p2p-80ms", "off"): (
        "d0d6769e1140fefcdbfeffeda3a6f5ba22aec697108e0603bd70358e9a4a3299",
        "5c1995b4ae6b4850f77c40e93f34e8cadbdd0eb461d14c8345e42b901e335779",
        "398fa90454f435b2633c2a8e532f379b1aa41dd23a99ffb8b4b713f93f433732",
    ),
    ("p2p-80ms", "classical-60ms"): (
        "eb23b821c2b0a051b16224afa8d4333e49be4785efdf788eebf80239609c587b",
        "1718ab4f3ccc63aeb7a69e407085cda5304a6133325f614aebf77ef472b63189",
        "398fa90454f435b2633c2a8e532f379b1aa41dd23a99ffb8b4b713f93f433732",
    ),
    ("p2p-80ms", "adaptive-dfr"): (
        "8e82f91d740ca522572ded07a6ee7e4852e5662f22d32e825b16a7302db828f2",
        "2c0ac20ed572097f36b38409a861d1f165c130a315fe1233d0b92c39fdd90f5f",
        "398fa90454f435b2633c2a8e532f379b1aa41dd23a99ffb8b4b713f93f433732",
    ),
    ("p2p-80ms", "adaptive-pade"): (
        "030ea8c8e3d8104f54e8a61a00ff01d14d89867c93916a3103b2123a5dcb506d",
        "0722f76b659aeb67251bcfcb04d396a9f24de90f59374a7aa67195ca770f141c",
        "398fa90454f435b2633c2a8e532f379b1aa41dd23a99ffb8b4b713f93f433732",
    ),
    ("intermediate-uniform", "off"): (
        "500b6fdbf959e7281fed117b30a49abd626dd99c5475857a25ced9534fa5ba3d",
        "8dcffe0b3d602c0383c648c0e83af06bf2dd59026457534cb1cef244d488b621",
        "f8c36bae9eb35af41893fb0926ae82027f428d2f6b43933ee7306e9e12b3b86b",
    ),
    ("intermediate-uniform", "classical-60ms"): (
        "cb064ef2634aa0d48ce8149e1b21b1a1a4a9fed8ce05890bfcd3010fd841771e",
        "ce77bd583f9dcfce55194e55753f2d16077b828fae71bac889c149ba30508344",
        "f8c36bae9eb35af41893fb0926ae82027f428d2f6b43933ee7306e9e12b3b86b",
    ),
    ("intermediate-uniform", "adaptive-dfr"): (
        "41d6b55f27db93d2f04d70f2fbb15eb66956dce2e7698163a0ecceb381c1b64b",
        "a5eb70f5b6044b9dbf57d7ecfb9a399112622c24683dc08898f78abd36abf44f",
        "f8c36bae9eb35af41893fb0926ae82027f428d2f6b43933ee7306e9e12b3b86b",
    ),
    ("intermediate-uniform", "adaptive-pade"): (
        "a4686e2017d66bdb09396c9cf2ef215ee3ec4b7ecf48b923244cf19f7c9b5542",
        "f47d06fec6423e24891a8de0a2028859ab5e4cd7c19554365db411d6f402eb27",
        "f8c36bae9eb35af41893fb0926ae82027f428d2f6b43933ee7306e9e12b3b86b",
    ),
    ("intermediate-trace", "off"): (
        "acff0b7c37ba7f7f1d26874d83b427080ec8cca2b21ead0147282af4a4d0d5e9",
        "0bf7bfee17a6c1bbf93905e04de005a11cd3dd478c6213cb151765bcf0b55010",
        "945070977ae8edb7c092099b0eec64f085063fc5c9b2e8206c56d9d8c503ca5b",
    ),
    ("intermediate-trace", "classical-60ms"): (
        "78bb9c5af85aa0637c1a4af38a8b62f708d44e93516bae787450623d57433ed7",
        "d5915d7d46d3e649b89fcc7dd0bce24d6e3eb95d08a8cb8e7e15f1a7f3d4f398",
        "945070977ae8edb7c092099b0eec64f085063fc5c9b2e8206c56d9d8c503ca5b",
    ),
    ("intermediate-trace", "adaptive-dfr"): (
        "f45891b89430b0f6db7bf7a97ed9cf94c00305b5760b38812e44e9f84d6f662e",
        "b60c91de79caf423792b727da1ec81a845efb2e22c981d27e0dfe822338baf57",
        "945070977ae8edb7c092099b0eec64f085063fc5c9b2e8206c56d9d8c503ca5b",
    ),
    ("intermediate-trace", "adaptive-pade"): (
        "2bc73a3f6ca96ed38dd10b39edccbf8cae74f8eb736668adca5ec14d18597425",
        "76c26c95f569ad734cf9000845e6b597d87388b1cd05287a431f4d731244a4a0",
        "945070977ae8edb7c092099b0eec64f085063fc5c9b2e8206c56d9d8c503ca5b",
    ),
}


# The same files with encoder_jitter on, which draws the encoder's
# miscounts from the run's seed: `wncs simulate --config C` with C written
# by config_to_dict from preset P, variant V, seed 3, 5 s and the policy.
GOLDEN_JITTER_DIGESTS = {
    ("intermediate-uniform", "adaptive-dfr", "resend"): (
        "3feb0ac0a6a957ab45b60916a95e36b786335c7a863e948ed3fc3f275a9ea77f",
        "414a208deb5a17a64d33a3177b8329fc8284153ee9440c03380ade623429b449",
        "29d83fd3246fda1e1d47ef2e2c63c882ab437931c5d55eb4e4b1f21eca77ba97",
    ),
    ("intermediate-trace", "classical-60ms", "hold"): (
        "11bb96908013f2d236acc8ad65a88d27609b3ea2d769ae2409162598aed3a4b5",
        "0d7fab6d258076f259c4a8cf7777030ef446554613668ff00e2cf40cfd22f14f",
        "945070977ae8edb7c092099b0eec64f085063fc5c9b2e8206c56d9d8c503ca5b",
    ),
}


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

    def test_second_call_keeps_no_option_of_the_first(self, tmp_path):
        # The parser is built once per process; a seed given to one call
        # must not carry over to the next.
        args = ["simulate", "--preset", "intermediate-uniform", "--duration", "1"]
        cli._build_parser.cache_clear()
        assert main(args + ["--seed", "5", "--out", str(tmp_path / "seeded")]) == 0
        assert main(args + ["--out", str(tmp_path / "default")]) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        proc = subprocess.run(
            [sys.executable, "-m", "wncs.cli", *args, "--out", str(tmp_path / "fresh")],
            capture_output=True,
            text=True,
            env=_src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        for name in ("run.csv", "metrics.csv", "estimator.csv"):
            default = (tmp_path / "default" / name).read_bytes()
            assert default == (tmp_path / "fresh" / name).read_bytes(), name
        assert (tmp_path / "seeded" / "run.csv").read_bytes() != (
            tmp_path / "default" / "run.csv"
        ).read_bytes()

    def test_config_file_run(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"duration_s": 0.4, "seed": 2}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_config_and_preset_together_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text("{}")
        argv = ["simulate", "--config", str(cfg), "--preset", "wired", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: simulate: give exactly one of --config or --preset\n"
        )
        assert not (tmp_path / "o").exists()

    def test_neither_config_nor_preset_rejected(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: simulate: give exactly one of --config or --preset\n"
        )
        assert not (tmp_path / "o").exists()

    def test_unknown_preset_rejected_by_parser(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--preset", "lte", "--out", str(tmp_path / "o")])
        names = ", ".join(repr(name) for name in scenario.PRESET_NAMES)
        assert f"invalid choice: 'lte' (choose from {names})" in capsys.readouterr().err

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
        assert err.startswith("error:") and "smith.tau_ms" in err
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
            ({"channel": {"plant_to_ctrl": {"policy": "uniform", "lo_ms": 0, "hi_ms": 2**63}}},
             "hi_ms"),
            ({"smith": {"mode": "classical", "tau_ms": 1e300}}, "smith.tau_ms"),
            # inf - inf in the first PI step once ran into a nan duty
            ({"duration_s": 1.0, "controller": {"kp": 1e308, "ki": -1e308}}, "kp"),
            ({"controller": {"ki": -1e300}}, "ki"),
            # the integral pin max_duty / (ki*T) overflowed and held duty at 255
            ({"duration_s": 4.0, "setpoint_period_s": 2.0,
              "controller": {"kp": 10.0, "ki": 1e-310}}, "ki"),
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
        # run_closed_loop validates the overridden config before it builds
        # the link schedule that every tick reads.
        monkeypatch.setattr(scenario, "_link_schedule", lambda *args: _must_not_run(args))
        out = tmp_path / "o"
        code = main(["simulate", "--preset", "wired", "--duration", "1e9", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: duration_s must be within 0.02..3600 s\n"
        assert not out.exists()

    @pytest.mark.parametrize("preset, variant", list(GOLDEN_DIGESTS))
    def test_outputs_match_golden_digests(self, tmp_path, preset, variant):
        out = tmp_path / "o"
        args = ["simulate", "--preset", preset, "--smith", variant,
                "--seed", "3", "--duration", "5", "--out", str(out)]
        assert main(args) == 0
        got = tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("run.csv", "metrics.csv", "estimator.csv")
        )
        assert got == GOLDEN_DIGESTS[(preset, variant)]

    @pytest.mark.parametrize("preset, variant", list(GOLDEN_HOLD_DIGESTS))
    def test_hold_outputs_match_golden_digests(self, tmp_path, preset, variant):
        config = scenario.apply_smith_variant(
            dataclasses.replace(scenario.preset_config(preset), seed=3), variant
        )
        config.duration_s = 5.0
        config.vacant_policy = "hold"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario.config_to_dict(config)))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        got = tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("run.csv", "metrics.csv", "estimator.csv")
        )
        assert got == GOLDEN_HOLD_DIGESTS[(preset, variant)]

    @pytest.mark.parametrize("preset, variant, policy", list(GOLDEN_JITTER_DIGESTS))
    def test_jitter_outputs_match_golden_digests(self, tmp_path, preset, variant, policy):
        config = scenario.apply_smith_variant(
            dataclasses.replace(scenario.preset_config(preset), seed=3), variant
        )
        config.duration_s = 5.0
        config.vacant_policy = policy
        config.encoder_jitter = True
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario.config_to_dict(config)))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        got = tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("run.csv", "metrics.csv", "estimator.csv")
        )
        assert got == GOLDEN_JITTER_DIGESTS[(preset, variant, policy)]

    def test_short_trace_is_one_error_line(self, tmp_path, capsys):
        # the trace runs out at tick 10 of 50; the run fails before any output
        doc = {
            "duration_s": 1.0,
            "channel": {"plant_to_ctrl": {"policy": "trace", "delays_ms": [30] * 10}},
        }
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: plant_to_ctrl: delay trace exhausted after 10 frames\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'{"seed": \xff}', "line 1: not valid UTF-8"),
            (b'{"seed": ' + b"9" * 5000 + b"}", "invalid JSON: Exceeds the limit ("),
            (b"[" * 100_000, "invalid JSON: maximum recursion depth exceeded"),
        ],
        ids=["not-utf8", "5000-digits", "deep-nesting"],
    )
    def test_unreadable_config_is_one_error_line(self, tmp_path, capsys, data, message):
        cfg = tmp_path / "scenario.json"
        cfg.write_bytes(data)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "is_dir, reason",
        [(False, "No such file or directory"), (True, "Is a directory")],
        ids=["missing", "directory"],
    )
    def test_unopenable_trace_file_is_one_error_line(self, tmp_path, capsys, is_dir, reason):
        file = tmp_path / "trace.csv"
        if is_dir:
            file.mkdir()
        cfg = tmp_path / "scenario.json"
        policy = {"policy": "trace", "file": str(file)}
        cfg.write_text(json.dumps({"channel": {"ctrl_to_plant": policy}}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: channel.ctrl_to_plant: {file}: {reason}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, key",
        [('{"seed": 1, "seed": 2}', "seed"),
         ('{"smith": {"mode": "classical", "tau_ms": 60, "mode": "off"}}', "mode"),
         ('{"channel": {"ctrl_to_plant": {"policy": "fixed", "policy": "fixed"}}}', "policy")],
        ids=["top-level", "nested", "in-a-policy"],
    )
    def test_duplicate_key_is_one_error_line(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: invalid JSON: duplicate key {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, message",
        [({"seed": 1.5}, "seed must be an integer"),
         ({"controller": {"kp": "x"}}, "controller.kp must be a finite number")],
        ids=["seed", "controller.kp"],
    )
    def test_bad_config_value_names_the_file_and_key(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("marked", ["scenario.json", "trace.csv"])
    def test_byte_order_mark_is_dropped(self, tmp_path, marked):
        trace = tmp_path / "trace.csv"
        trace.write_text("direction,delay_ms\nctrl_to_plant,35\nplant_to_ctrl,9\n")
        policy = {"policy": "trace", "file": str(trace), "cycle": True}
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"duration_s": 1.0, "channel": {"ctrl_to_plant": policy}}))

        def run(out):
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            return [(out / name).read_bytes() for name in ("run.csv", "estimator.csv")]

        plain = run(tmp_path / "plain")
        path = tmp_path / marked
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert run(tmp_path / "marked") == plain

    def test_shorter_rerun_into_one_directory_leaves_no_stale_tail(self, tmp_path):
        # The writers rewrite an existing file in place, so a shorter run
        # must cut each file to its own length. At seed 7 every file of the
        # 5 s run is longer than the 1 s run's.
        args = ["simulate", "--preset", "intermediate-uniform", "--smith", "adaptive-dfr",
                "--seed", "7"]
        out, fresh = tmp_path / "o", tmp_path / "fresh"
        names = ("run.csv", "metrics.csv", "estimator.csv")
        assert main(args + ["--duration", "5", "--out", str(out)]) == 0
        longer = {name: (out / name).stat().st_size for name in names}
        assert main(args + ["--duration", "1", "--out", str(out)]) == 0
        assert main(args + ["--duration", "1", "--out", str(fresh)]) == 0
        for name in names:
            want = (fresh / name).read_bytes()
            assert longer[name] > len(want), name
            assert (out / name).read_bytes() == want, name

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

    def test_non_finite_sample_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "inf.csv"
        rows = ["t,u,y"] + [f"{k * 0.02:.10g},1,{k}" for k in range(8)]
        rows[5] = "0.08,1,inf"
        path.write_text("\n".join(rows) + "\n")
        code = main(["identify", "--data", str(path), "--na", "1", "--nb", "1", "--nk", "1"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: line 6: non-finite field\n"

    def test_invalid_utf8_names_the_file_line(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"t,u,y\n0,1,1\n0.02,1,\xff\n0.04,1,1\n0.06,1,1\n")
        code = main(["identify", "--data", str(path), "--na", "1", "--nb", "1", "--nk", "1"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: line 3: not valid UTF-8\n"

    def test_byte_order_mark_is_dropped(self, step_csv, tmp_path, capsys):
        # as a spreadsheet's "CSV UTF-8" export writes it
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + step_csv.read_bytes())
        orders = ["--na", "1", "--nb", "1", "--nk", "1"]
        assert main(["identify", "--data", str(step_csv), *orders]) == 0
        plain = capsys.readouterr().out
        assert main(["identify", "--data", str(marked), *orders]) == 0
        assert capsys.readouterr().out == plain

    def test_oversized_field_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text('t,u,y\n0,1,1\n"' + "x" * 131_073 + '",1,1\n')
        code = main(["identify", "--data", str(path), "--na", "1", "--nb", "1", "--nk", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: line 3: field larger than field limit (131072)\n"

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

    def test_labels_are_separated_and_distinct(self):
        # 0.123457 used to print as tau=0.123457 flush against tau=0.1
        assert _printed(["ise-table", "--taus=0.1,0.123457"]) == [
            "series    tau=0.1  tau=0.123457      avg",
            "pade2      0.0154        0.0189   0.0172",
            "marshall  10.1511       10.2009  10.1760",
            "product    0.0133        0.0165   0.0149",
            "laguerre   0.0183        0.0224   0.0204",
            "paynter    0.0146        0.0181   0.0163",
            "dfr        0.0142        0.0174   0.0158",
        ]

    @settings(deadline=None, max_examples=20)
    @given(taus=_distinct_taus(5.0))
    @example(taus=[0.1, math.nextafter(0.1, 1.0), 1e-05, 0.0])
    def test_printed_table_reads_back(self, taus):
        lines = _printed(["ise-table", "--taus=" + ",".join(map(repr, taus))])
        header, rows = _table_cells(lines)
        assert header[0] == "series" and header[-1] == "avg"
        assert [float(cell.removeprefix("tau=")) for cell in header[1:-1]] == taus
        assert len(rows) == 6

    def test_negative_zero_tau_is_zero(self, capsys):
        assert main(["ise-table", "--taus=-0,0.1"]) == 0
        negative = capsys.readouterr().out
        assert main(["ise-table", "--taus=0,0.1"]) == 0
        assert negative == capsys.readouterr().out

    def test_empty_tau_list(self, capsys):
        assert main(["ise-table", "--taus", ","]) == 2
        assert capsys.readouterr().err == "error: ise-table: --taus needs at least one value\n"

    def test_non_numeric_tau_is_a_clean_error(self, capsys):
        assert main(["ise-table", "--taus", "0.2,x"]) == 2
        assert capsys.readouterr().err == (
            "error: ise-table: --taus: could not convert string to float: 'x'\n"
        )

    def test_infinite_tau_is_a_clean_error(self, capsys):
        assert main(["ise-table", "--taus", "0.2,inf"]) == 2
        assert capsys.readouterr().err.startswith("error: tau")

    @pytest.mark.parametrize("dt", ["1e-300", "1e-9"])
    def test_too_fine_dt_is_a_clean_error(self, capsys, dt):
        assert main(["ise-table", "--taus", "0.2", "--dt", dt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dt") and err.count("\n") == 1 and "tau = 0.2" in err


# SHA-256 of each file `stability --tau-list 0,0.3,2 --out` writes.
STABILITY_DIGESTS = {
    "margins.csv": "559d450c0c49b9dc644c59ba1972a94d9a8794f6af80bf7694b70c1b91985519",
    "nyquist_tau_0.csv": "f1a182b514344b803d6c64a4f7aefc7a2b7c5b24a78da2a8b0a7c0cad3bc2392",
    "nyquist_tau_0.3.csv": "f90e0504e3934a8fe4b8dac3234db08a272de320385fd1a442becb57ecbe4d8b",
    "nyquist_tau_2.csv": "cc7e62b7beb51d675036b03c45e0e446880665a4e70f71426c998456f873e420",
}


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

    def test_out_directory_bytes(self, tmp_path):
        out = tmp_path / "o"
        assert main(["stability", "--tau-list", "0,0.3,2", "--out", str(out)]) == 0
        got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
        assert got == STABILITY_DIGESTS

    def test_labels_are_separated_and_distinct(self):
        # 0.0001 and 0.0004 used to print as two rows labelled 0.000
        assert _printed(["stability", "--tau-list", "3599.9,0.0001,0.0004"]) == [
            "gain crossover 1.47673 rad/s",
            "tau_s   phase_margin_deg  stable",
            "3599.9        -304430.15      no",
            "0.0001            159.19     yes",
            "0.0004            159.17     yes",
        ]

    @settings(deadline=None, max_examples=40)
    @given(taus=_distinct_taus(3600.0))
    @example(taus=[0.0001, math.nextafter(0.0001, 1.0), 3599.9, 0.0])
    def test_printed_table_reads_back(self, taus):
        lines = _printed(["stability", "--tau-list=" + ",".join(map(repr, taus))])
        assert lines[0].startswith("gain crossover ")
        header, rows = _table_cells(lines[1:])
        assert header == ["tau_s", "phase_margin_deg", "stable"]
        assert [float(row[0]) for row in rows] == taus

    def test_negative_zero_tau_is_zero(self, tmp_path, capsys):
        # -0 is the dead time 0: printed as 0.0 and written as 0, into
        # nyquist_tau_0.csv, not a second file nyquist_tau_-0.csv
        seen = []
        for taus in ("-0,0.3", "0,0.3"):
            out = tmp_path / taus
            assert main(["stability", f"--tau-list={taus}", "--out", str(out)]) == 0
            files = {path.name: path.read_bytes() for path in out.iterdir()}
            seen.append((capsys.readouterr().out.replace(str(out), "OUT"), files))
        assert seen[0] == seen[1]

    def test_empty_tau_list(self, capsys):
        assert main(["stability", "--tau-list", " "]) == 2
        assert capsys.readouterr().err == (
            "error: stability: --tau-list needs at least one value\n"
        )

    def test_non_numeric_tau_is_a_clean_error(self, capsys):
        assert main(["stability", "--tau-list", "0,x"]) == 2
        assert capsys.readouterr().err == (
            "error: stability: --tau-list: could not convert string to float: 'x'\n"
        )

    @pytest.mark.parametrize(
        "tau, message",
        [
            ("nan", "tau_d must be finite and nonnegative"),
            ("inf", "tau_d must be finite and nonnegative"),
            ("1e308", "tau_d = 1e+308 is too large"),
        ],
        ids=["nan", "inf", "1e308"],
    )
    def test_non_finite_tau_is_a_clean_error(self, capsys, tau, message):
        assert main(["stability", "--tau-list", f"0,{tau}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""

    def test_dead_time_past_the_bound_writes_nothing(self, tmp_path, capsys):
        # every tau is checked before the table prints or a file is written
        assert main(["stability", "--tau-list", "0,1e306", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: tau_d = 1e+306 is too large")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "taus, first, second, name",
        [
            ("0.1234567,0.1234568,0.3", "0.1234567", "0.1234568", "nyquist_tau_0.123457.csv"),
            ("0,0", "0.0", "0.0", "nyquist_tau_0.csv"),
            ("0,-0", "0.0", "0.0", "nyquist_tau_0.csv"),
        ],
        ids=["six-digits", "repeat", "signed-zero"],
    )
    def test_taus_sharing_a_locus_file_are_a_clean_error(
        self, tmp_path, capsys, taus, first, second, name
    ):
        # A locus file is named by its tau's six significant digits, so two
        # taus that round alike would leave one file for two reported.
        assert main(["stability", "--tau-list", taus, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: stability: --tau-list: {first} and {second} share the locus file {name}\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestEstimatorDemo:
    def test_replay_table(self, capsys):
        assert main(["estimator-demo"]) == 0
        out = capsys.readouterr().out
        assert "sample_ms" in out
        assert "delayed" in out and "vacant" in out
        assert "send-to-arrival diffs: 23, 22, 29, 9, 25, 16, 19, 24, 17" in out

    def test_log_file(self, tmp_path):
        # The replay's rows come from EstimatorState.log, with None for a
        # sample that kept no RTT: its cell is empty.
        path = tmp_path / "estimator.csv"
        assert main(["estimator-demo", "--out", str(path)]) == 0
        assert path.read_text().startswith("sample_ms,event,rtt_ms,tm_ms")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "2c582f57f6e031579bc86291a583bc4478a23d9dddc0b8a38a34434cf68dbeaa"
        )

    def test_log_to_the_null_device(self, capsys):
        # /dev/null reports size 0 and refuses ftruncate, so the writer must
        # not cut it
        assert main(["estimator-demo", "--out", os.devnull]) == 0
        assert capsys.readouterr().out.endswith(f"wrote {os.devnull}\n")


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["replay"])


def _src_env():
    """The environment with this checkout's wncs first on PYTHONPATH."""
    src = str(Path(wncs.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _run_probe(probe, *argv):
    """Run probe in a fresh interpreter and return its last stdout line."""
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_cli_import_loads_no_numba_or_scipy():
    # Every CLI invocation pays this import; scipy alone would add over a second.
    probe = (
        "import sys, wncs.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'numba', 'scipy'}))"
    )
    assert _run_probe(probe) == "[]"


# What simulate runs: the closed-loop runner and everything it imports.
CLOSED_LOOP = {"scenario", "delay_approx", "delay_est", "lti", "models", "netchan", "plant", "smith"}


# The wncs modules a fresh import of each entry module loads.
LOADED = {
    "wncs.cli": {"cli", "delay_approx", "delay_est", "lti", "models"},
    "wncs.scenario": CLOSED_LOOP,
    "wncs.delay_approx": {"delay_approx", "lti"},
    "wncs.stability": {"stability", "lti", "models"},
    "wncs.sysid": {"sysid", "lti"},
}


@pytest.mark.parametrize("module", LOADED)
def test_entry_module_loads_only_what_it_runs(module):
    # Each wncs module a fresh process imports is paid on every start: the
    # package re-exports nothing, the CLI leaves scenario, pid, stability
    # and sysid to the commands that run them, and the closed loop does not
    # load pid.
    probe = (
        f"import sys, {module}; "
        "print(' '.join(sorted(m[5:] for m in sys.modules if m.startswith('wncs.'))))"
    )
    assert set(_run_probe(probe).split()) == LOADED[module]


@pytest.mark.parametrize("preset, draws", [("p2p-80ms", False), ("intermediate-uniform", True)])
def test_simulate_imports_numpy_random_only_for_a_run_that_draws(preset, draws, tmp_path):
    # numpy.random costs a fresh process about 16 ms to import. Only a
    # uniform leg or encoder jitter draws; fixed links build no generator.
    probe = (
        "import sys; from wncs.cli import main; "
        "main(['simulate', '--preset', sys.argv[1], '--duration', '1', '--out', sys.argv[2]]); "
        "print('numpy.random' in sys.modules)"
    )
    assert _run_probe(probe, preset, str(tmp_path / "run")) == str(draws)


def test_stability_does_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on first use, about 17 ms in a fresh
    # process; the frequency grid is deduplicated without it.
    probe = (
        "import sys; from wncs.cli import main; "
        "main(['stability', '--tau-list', '0,0.3', '--out', sys.argv[1]]); "
        "print('numpy.ma' in sys.modules)"
    )
    assert _run_probe(probe, str(tmp_path / "margins")) == "False"


def test_analysis_commands_import_their_module_when_they_run(step_csv, tmp_path):
    # simulate runs last: scenario still unloaded then shows that no other
    # command, nor a parse of their arguments, loaded it
    probe = """
import json, sys
from wncs.cli import main
seen = []
for module, argv in [
    ("wncs.stability", ["stability", "--tau-list", "0,0.3"]),
    ("wncs.pid", ["design-pi", "--zeta", "0.94", "--wd-over-ws", "0.1"]),
    ("wncs.sysid", ["identify", "--data", sys.argv[1], "--na", "1", "--nb", "1", "--nk", "1"]),
    ("wncs.scenario", ["simulate", "--preset", "wired", "--duration", "1", "--out", sys.argv[2]]),
]:
    before = module in sys.modules
    seen.append([module, before, main(argv), module in sys.modules])
print(json.dumps(seen))
"""
    seen = json.loads(_run_probe(probe, str(step_csv), str(tmp_path / "run")))
    assert seen == [
        ["wncs.stability", False, 0, True],
        ["wncs.pid", False, 0, True],
        ["wncs.sysid", False, 0, True],
        ["wncs.scenario", False, 0, True],
    ]
