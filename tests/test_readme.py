"""README against what it describes: its table of benchmark medians is
rendered from BENCHMARK.json and the BENCH_*.json sessions, its module table
names every module, and its config example and config error lines are what
the config reader accepts and raises."""

import itertools
import json
import pkgutil
import re
from pathlib import Path

import pytest

import wncs
from wncs.scenario import config_from_dict, config_to_dict

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

# The smallest document behind each config error line README gives, by the
# file name the line starts with.
BAD_DOCUMENTS = {
    "c.json": {"seed": 1.5},
    "d.json": {"controller": {"kp": "fast"}},
    "e.json": {"limits": {"min_duty": 200, "max_duty": 100}},
    "f.json": {"plant": {"model": "linear"}},
}


def _section(title):
    """README's section '## title', up to the next section."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end >= 0 else len(README)]


def render_medians():
    """README's table of medians: per workload of BENCHMARK.json, the newest
    seed-0 session of BENCH_<workload>.json, its change side's median of
    each end-to-end metric as %.4g and its change commit."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    header = ["workload", *(f"`{m['name']}` ({m['unit']})" for m in metrics), "change"]
    lines = ["| " + " | ".join(header) + " |", "| --- |" + " ---: |" * len(metrics) + " --- |"]
    for workload in benchmark["workloads"]:
        name = workload["name"]
        sessions = json.loads((ROOT / f"BENCH_{name}.json").read_text())
        session = [s for s in sessions if s["seed"] == 0][-1]
        by_metric = session["metrics"]
        cells = [f"`{name}`", *("%.4g" % by_metric[m["name"]]["change"]["median"] for m in metrics)]
        cells.append(f"`{session['change']['commit'][:7]}`")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def test_table_of_medians_is_rendered_from_the_sessions():
    expected = render_medians()
    lines = _section("Performance").splitlines()
    start = next((i for i, line in enumerate(lines) if line.startswith("| workload |")), len(lines))
    table = "\n".join(itertools.takewhile(lambda line: line.startswith("|"), lines[start:]))
    assert table == expected, f"README's table of medians should read:\n\n{expected}\n"


def test_module_table_names_every_module():
    named = re.findall(r"^\| `wncs\.(\w+)`", _section("What is in the box"), re.MULTILINE)
    assert sorted(named) == sorted(info.name for info in pkgutil.iter_modules(wncs.__path__))


def _holds(given, written):
    """Whether every key of the document given is in written, with its value."""
    if isinstance(given, dict):
        return all(key in written and _holds(value, written[key]) for key, value in given.items())
    return given == written


def test_config_example_loads_as_given():
    raw = json.loads(re.search(r"```json\n(.*?)```", README, re.DOTALL).group(1))
    assert _holds(raw, config_to_dict(config_from_dict(raw)))


def test_config_error_lines_are_what_the_reader_raises():
    documented = re.findall(r"`(\w+\.json: [^`]+)`", _section("Command line"))
    raised = []
    for source, raw in BAD_DOCUMENTS.items():
        with pytest.raises(ValueError) as info:
            config_from_dict(raw, source=source)
        raised.append(str(info.value))
    assert documented == raised
