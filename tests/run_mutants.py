"""Run every mutant in tests/mutants.json against tier-1 and record the verdict.

    python3 tests/run_mutants.py    # rewrites tests/mutants_result.json

The tree, without .git and caches, is copied once into a temporary
directory. Every run there leaves out tests/test_mutants.py: it fails on
every mutant by construction, and on the clean tree too until this script
has recorded the verdicts of newly listed mutants. Tier-1 first runs there
unmutated: the tests that fail on the clean tree (c04 and c08, which fail
by design) cannot tell a mutant from it, so they are deselected from every
mutant's run. Then, one mutant at a time, its text is replaced in its
file, tier-1 runs with -x, and the file is restored. A mutant is caught
when that run fails, and the test that failed first is recorded. A missed
mutant needs a new test or a written reason why it is equivalent; it is
never dropped.

Each run starts without pytest's or hypothesis' cache, so no run replays a
failing example that an earlier mutant found, and runs under the "mutants"
hypothesis profile of tests/conftest.py, which leaves out the shrink
phase: a verdict needs the first failing example, not the smallest one.
pytest does not collect this file, since tier-1 collects only test_*.py.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tests" / "mutants.json"
RESULT = ROOT / "tests" / "mutants_result.json"
TIMEOUT_S = 1800  # tier-1 takes under a minute; a mutant that hangs a test counts as caught
SKIP = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_tmp", "*.egg-info")


def run_tier1(tree, args):
    """Run tier-1 in tree with extra pytest args; return the failing node ids."""
    for cache in (".pytest_cache", ".hypothesis"):
        shutil.rmtree(tree / cache, ignore_errors=True)
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    # No bytecode cache: a mutant and the restored file can share a size and
    # an mtime second, and a stale .pyc would then run the wrong source.
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--hypothesis-profile=mutants", *args]
    try:
        subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [f"(no result within {TIMEOUT_S} s)"]
    lastfailed = tree / ".pytest_cache" / "v" / "cache" / "lastfailed"
    if not lastfailed.exists():
        return []
    return list(json.loads(lastfailed.read_text(encoding="utf-8")))


def main():
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix="wncs-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(*SKIP))
        ignore = ["--ignore=tests/test_mutants.py"]
        deselected = run_tier1(tree, ignore)
        print(f"failing on the clean tree, deselected: {', '.join(deselected) or 'none'}",
              flush=True)
        args = ["-x", *ignore]
        for node in deselected:
            args += ["--deselect", node]
        results = []
        for mutant in mutants:
            path = tree / mutant["file"]
            source = path.read_text(encoding="utf-8")
            if source.count(mutant["text"]) != 1:
                raise SystemExit(f"{mutant['id']}: text does not occur exactly once")
            path.write_text(source.replace(mutant["text"], mutant["replacement"]), encoding="utf-8")
            start = time.monotonic()
            try:
                failed = run_tier1(tree, args)
            finally:
                path.write_text(source, encoding="utf-8")
            result = {
                "id": mutant["id"],
                "result": "caught" if failed else "missed",
                "first_failure": failed[0] if failed else None,
            }
            results.append(result)
            print(f"{result['id']:34} {result['result']:7} {time.monotonic() - start:6.1f} s"
                  f"  {result['first_failure'] or ''}", flush=True)
    missed = [result["id"] for result in results if result["result"] == "missed"]
    print(f"{len(results) - len(missed)} of {len(results)} caught;"
          f" missed: {', '.join(missed) or 'none'}")
    doc = {"deselected": deselected, "mutants": results}
    RESULT.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {RESULT.relative_to(ROOT)}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
