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
"""

import argparse
import json
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


def summarize(pairs, name, better):
    """One summary line for metric name over [(parent, change)] metric dicts."""
    parent = [p[name] for p, _ in pairs]
    change = [c[name] for _, c in pairs]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    p1, p2, p3 = quartiles(parent)
    c1, c2, c3 = quartiles(change)
    return (
        f"{name}: parent {p2:.6g} [{p1:.6g}, {p3:.6g}] -> change {c2:.6g} [{c1:.6g}, {c3:.6g}]"
        f" ({(c2 - p2) / p2:+.1%}), change better in {wins} of {len(pairs)},"
        f" gap {abs(c2 - p2):.4g} against parent spread {p3 - p1:.4g}"
    )


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in BENCHMARK["workloads"]])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
