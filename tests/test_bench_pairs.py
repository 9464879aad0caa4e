"""tools/bench_pairs.py: the pair order and the summary it prints."""

import importlib.util
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_quartiles_of_five_runs():
    assert bench_pairs.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (2.0, 3.0, 4.0)


def test_wins_follow_the_better_direction_and_ties_count_for_neither():
    pairs = [({"m": 1.0}, {"m": c}) for c in (0.5, 0.6, 1.0, 2.0)]
    assert "change better in 2 of 4" in bench_pairs.summarize(pairs, "m", "lower")
    assert "change better in 1 of 4" in bench_pairs.summarize(pairs, "m", "higher")


def test_pairs_alternate_which_side_runs_first(monkeypatch, capsys):
    order = []

    def fake_run(checkout, workload, seed, seconds):
        assert seconds == bench_pairs.BENCHMARK["run_seconds"]
        order.append(checkout.name)
        return {m["name"]: 1.0 for m in bench_pairs.BENCHMARK["end_to_end"]}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    argv = ["a/parent", "b/change", "--workload", "analysis", "--pairs", "3"]
    assert bench_pairs.main(argv) == 0
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    out = capsys.readouterr().out
    assert "op_ms_p50: parent 1 [1, 1] -> change 1 [1, 1]" in out


def test_out_appends_one_session_per_call(monkeypatch, tmp_path):
    names = [m["name"] for m in bench_pairs.BENCHMARK["end_to_end"]]
    values = iter(range(1000))

    def fake_run(checkout, workload, seed, seconds):
        value = float(next(values))
        return dict.fromkeys(names, value)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setenv("MALLOC_ARENA_MAX", "2")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    out = tmp_path / "BENCH_sweep_fixed.json"
    parent = tmp_path / "parent"  # not a git checkout
    argv = [str(parent), str(ROOT), "--workload", "sweep_fixed", "--pairs", "2", "--seed", "1",
            "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert bench_pairs.main(argv) == 0
    first, second = json.loads(out.read_text())

    env = first["environment"]
    assert env["python"].count(".") == 2 and env["numpy"]
    assert env["cpu_count"] >= env["usable_cpus"] >= 1
    assert env["PYTHONDONTWRITEBYTECODE"] == "1" and env["MALLOC_ARENA_MAX"] == "2"
    assert first["parent"] == {"commit": None, "dirty": None}
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode == 0:
        assert first["change"]["commit"] == head.stdout.strip()
        assert isinstance(first["change"]["dirty"], bool)
    assert (first["workload"], first["seed"], first["pairs"]) == ("sweep_fixed", 1, 2)
    assert first["metrics"].keys() == set(names)

    # pair 0 runs the parent first, pair 1 the change: each run reads the
    # next value on every metric, so the parent reads 0 and 3, the change 1
    # and 2
    op = first["metrics"]["op_ms_p50"]
    assert op["parent"] == {"runs": [0.0, 3.0], "q1": 0.75, "median": 1.5, "q3": 2.25}
    assert op["change"] == {"runs": [1.0, 2.0], "q1": 1.25, "median": 1.5, "q3": 1.75}
    assert (op["better"], op["wins"]) == ("lower", 1)
    assert second["metrics"]["op_ms_p50"]["parent"]["runs"] == [4.0, 7.0]
