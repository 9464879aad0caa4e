"""The committed mutants stay applicable.

tests/mutants.json lists hand-made faults: the exact text of a file, its
replacement, and the invariant the replacement breaks. The suite must fail
on each one: tests/run_mutants.py runs them all and records the verdicts in
tests/mutants_result.json. A mutant applies only where its
text occurs exactly once, so a refactor that moves or rewrites that text
fails here instead of leaving the list stale in silence.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tests" / "mutants.json").read_text(encoding="utf-8"))


def test_ids_are_unique():
    ids = [mutant["id"] for mutant in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant["id"])
def test_text_occurs_once(mutant):
    assert mutant.keys() == {"id", "file", "text", "replacement", "breaks"}
    assert mutant["replacement"] != mutant["text"]
    source = (ROOT / mutant["file"]).read_text(encoding="utf-8")
    assert source.count(mutant["text"]) == 1


def test_result_file_covers_every_mutant():
    # A mutant added to the list without a run of tests/run_mutants.py
    # would have no verdict.
    result = json.loads((ROOT / "tests" / "mutants_result.json").read_text(encoding="utf-8"))
    assert [entry["id"] for entry in result["mutants"]] == [mutant["id"] for mutant in MUTANTS]
