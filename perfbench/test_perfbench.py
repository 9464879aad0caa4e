"""The benchmark's own checks, at a tiny size.

    python3 -m pytest perfbench
"""

import argparse
import json
import shutil

import pytest

import run
import tracing
import workloads

run.use_checkout_src()

with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _measure(workload, trace, tmp_path, seed=5):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.0, trace=trace)
    workdir = tmp_path / f"{workload}-{trace}"
    try:
        return run.measure(args, str(workdir), tiny=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _assert_printed(result, lines):
    for name, m in result["metrics"].items():
        assert any(
            line.startswith(f"{name} = ") and line.endswith(f" {m['unit']}") for line in lines
        ), name


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    result, lines = _measure(workload, 0, tmp_path)
    _assert_printed(result, lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first, lines = _measure(workload, 1, tmp_path)
    second, _ = _measure(workload, 1, tmp_path)
    _assert_printed(first, lines)
    assert first["correct"] and second["correct"]
    got = {name: m["unit"] for name, m in first["metrics"].items()}
    assert got == _declared("per_layer")
    counts = [name for name, unit, _ in tracing.LAYER_METRICS if unit != "s"]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_tracing_leaves_the_program_unpatched(tmp_path):
    from wncs import lti, scenario

    originals = (scenario.run_closed_loop, lti.DifferenceEqState.step)
    _measure("sweep_fixed", 1, tmp_path)
    assert (scenario.run_closed_loop, lti.DifferenceEqState.step) == originals


def test_a_wrong_output_fails_the_op():
    checker = run.Checker({"op": [1.0, "abc"]}, rel_tol=1e-9)
    assert checker.check("op", [1.0 + 1e-12, "abc"])
    assert not checker.check("op", [1.0 + 1e-6, "abc"])
    assert not checker.check("op", [1.0, "abd"])
    # Without a reference, the first observation becomes one.
    assert checker.check("other", [2])
    assert not checker.check("other", [3])
    assert checker.failed_keys == ["op", "op", "other"]
