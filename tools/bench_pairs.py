"""Run the benchmark in two checkouts as alternating pairs and compare them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload analysis --pairs 10 --seed 0

PARENT and CHANGE are the roots of two checkouts of this repository. Each
pair runs `python3 perfbench/run.py --trace 0` once in each, from that
checkout's root; even pairs run PARENT first and odd pairs CHANGE first,
so a drift in host speed does not favour one side. Every run lasts
BENCHMARK.json's run_seconds, the length the benchmark is judged at. The
environment is passed to both sides unchanged, so a check under other
settings (such as glibc's MALLOC_TOP_PAD_ and MALLOC_TRIM_THRESHOLD_) is
the same command with those variables set.

Prints one line per run, then per end-to-end metric of BENCHMARK.json:
each side's median and quartiles, the number of pairs the change wins
(ties count for neither side), and the gap between the medians against
the parent's quartile spread. A run that fails or reports an incorrect
op stops the script.

    python3 tools/bench_pairs.py PARENT CHANGE --workload sweep_fixed --out BENCH_sweep_fixed.json

--out FILE appends the session to FILE, a JSON list of sessions (created
if missing): the environment (Python and numpy versions, CPU count and
the CPUs this process may use, PYTHONDONTWRITEBYTECODE and every MALLOC_*
variable), each checkout's commit and whether its tree has uncommitted
changes, the workload, seed and number of pairs, and per metric both
sides' runs, medians and quartiles and the pairs the change wins. A
trajectory is then a chain of same-session ratios, not of absolute
figures taken on different days.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def run_once(checkout, workload, seed, seconds):
    """One benchmark run in checkout; returns its metrics as {name: value}."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: run failed (exit {proc.returncode})\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {result['failed']} of {result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    """(first quartile, median, third quartile), linear between the order statistics."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(pairs, name, better):
    """Metric name over [(parent, change)] metric dicts: each side's runs and
    quartiles, and the pairs the change wins."""
    sides = {}
    for side, runs in (("parent", [p[name] for p, _ in pairs]),
                       ("change", [c[name] for _, c in pairs])):
        q1, median, q3 = quartiles(runs)
        sides[side] = {"runs": runs, "q1": q1, "median": median, "q3": q3}
    sign = 1.0 if better == "higher" else -1.0
    runs = zip(sides["parent"]["runs"], sides["change"]["runs"])
    wins = sum(sign * (c - p) > 0.0 for p, c in runs)
    return {**sides, "better": better, "wins": wins}


def summarize(pairs, name, better):
    """One summary line for metric name over [(parent, change)] metric dicts."""
    got = compare(pairs, name, better)
    p1, p2, p3 = (got["parent"][q] for q in ("q1", "median", "q3"))
    c1, c2, c3 = (got["change"][q] for q in ("q1", "median", "q3"))
    return (
        f"{name}: parent {p2:.6g} [{p1:.6g}, {p3:.6g}] -> change {c2:.6g} [{c1:.6g}, {c3:.6g}]"
        f" ({(c2 - p2) / p2:+.1%}), change better in {got['wins']} of {len(pairs)},"
        f" gap {abs(c2 - p2):.4g} against parent spread {p3 - p1:.4g}"
    )


def environment():
    """The settings a timing depends on, as this process sees them."""
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }
    env.update(sorted((k, v) for k, v in os.environ.items() if k.startswith("MALLOC_")))
    return env


def checkout_state(checkout):
    """{"commit", "dirty"} of a git checkout; both None where git cannot tell."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
        return proc.stdout if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit is not None else None
    return {
        "commit": commit.strip() if commit is not None else None,
        "dirty": bool(status) if status is not None else None,
    }


def append_session(path, session):
    """Append session to the JSON list in path, creating the file if needed.

    The list is written one session per line, so an appended session is
    one added line in a diff.
    """
    sessions = json.loads(path.read_text()) if path.exists() else []
    sessions.append(session)
    path.write_text("[\n" + ",\n".join(json.dumps(x) for x in sessions) + "\n]\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in BENCHMARK["workloads"]])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, help="append the session to this JSON file")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2 (quartiles need two runs per side)")

    metrics = BENCHMARK["end_to_end"]
    seconds = BENCHMARK["run_seconds"]
    pairs = []
    for k in range(args.pairs):
        sides = [("parent", args.parent), ("change", args.change)]
        got = {}
        for side, checkout in sides if k % 2 == 0 else sides[::-1]:
            got[side] = run_once(checkout, args.workload, args.seed, seconds)
            values = " ".join(f"{m['name']}={got[side][m['name']]:.6g}" for m in metrics)
            print(f"pair {k} {side}: {values}", flush=True)
        pairs.append((got["parent"], got["change"]))
    print(f"{args.workload}, seed {args.seed}, {seconds:g} s runs, {args.pairs} pairs")
    for m in metrics:
        print(summarize(pairs, m["name"], m["better"]))
    if args.out is not None:
        append_session(args.out, {
            "environment": environment(),
            "parent": checkout_state(args.parent),
            "change": checkout_state(args.change),
            "workload": args.workload,
            "seed": args.seed,
            "run_seconds": seconds,
            "pairs": args.pairs,
            "metrics": {m["name"]: compare(pairs, m["name"], m["better"]) for m in metrics},
        })
    return 0


if __name__ == "__main__":
    sys.exit(main())
