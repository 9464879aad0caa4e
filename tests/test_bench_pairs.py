"""tools/bench_pairs.py: the pair order and the summary it prints."""

import importlib.util
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
