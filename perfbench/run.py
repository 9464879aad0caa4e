"""wncs benchmark: one workload per invocation, one process, no extra threads.

    python3 perfbench/run.py --workload sweep_fixed --seed 0 --seconds 15 --trace 0

Run from the root of a checkout; wncs is imported from its `src/`. Every
workload is a closed batch: one caller issues the next op only after the
previous one returns. The workload seed draws the scenario seeds, the delay
grids' random points and the identification series; wncs sees only the
generated configs and arrays.

--trace 0 measures the end-to-end metrics: set-up time (median of several
fresh interpreters importing wncs and building the inputs), then whole
passes over the workload's fixed batch of ops until --seconds have passed,
and at least three. Times are host time from time.perf_counter, rescaled
to a reference host speed (see "host speed" below).

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracing.LAYER_METRICS, plus the tracing overhead and coverage.

Every op's output is checked: against references stored in refs/ for the
seeds that have them, otherwise against the first pass's output (repeating
an op must give identical bytes). A mismatch or an exception fails the op.
The last stdout line is the JSON result; the lines before it give the
environment, each metric with its unit, and the sample counts.
"""

import time

STARTED = time.perf_counter()  # a set-up probe's time counts from here

import os  # noqa: E402

# One thread: BLAS reads these when numpy is first imported (by workloads).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import deque  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP_ROOT = ROOT / ".perfbench_tmp"  # ops write here; removed on exit
SETUP_PROBES = 11
MIN_PASSES = 3  # so each op's median time drops one preempted run
ANALYSIS_REL_TOL = 1e-9  # analysis values vs stored references
ANALYSIS_ABS_TOL = 1e-12  # for values that are rounding noise around 0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: build the inputs, print the set-up seconds, exit")
    return p.parse_args(argv)


def use_checkout_src():
    """Import wncs from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "wncs" / "__init__.py").is_file():
        raise SystemExit(f"error: no wncs sources under {src}")
    sys.path.insert(0, str(src))


# --- output check -------------------------------------------------------------


def _same(got, want, rel_tol):
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_same(g, w, rel_tol) for g, w in zip(got, want))
        )
    if rel_tol and isinstance(want, float) and isinstance(got, float):
        return math.isclose(got, want, rel_tol=rel_tol, abs_tol=ANALYSIS_ABS_TOL)
    return got == want


class Checker:
    """Compares each op's observation with its reference or first repeat."""

    def __init__(self, refs, rel_tol):
        self.refs = refs
        self.rel_tol = rel_tol
        self.first = {}
        self.failed_keys = []

    def check(self, key, obs):
        obs = json.loads(json.dumps(obs))  # the form references are stored in
        if key in self.refs:
            ok = _same(obs, self.refs[key], self.rel_tol)
        else:
            ok = obs == self.first.setdefault(key, obs)
        if not ok:
            self.failed_keys.append(key)
        return ok


def refs_path(workload, seed):
    return HERE / "refs" / f"{workload}-seed{seed}.json"


def load_refs(workload, seed):
    path = refs_path(workload, seed)
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# --- host speed ---------------------------------------------------------------
#
# The host's speed swings by up to 2x within seconds, because other tenants
# share its cores, and raw perf_counter figures of one workload moved by 20%
# between runs a minute apart. So every time is rescaled to a reference
# speed: a fixed calibration loop is timed at most CAL_INTERVAL_S apart, and
# each op's host time is multiplied by CAL_REF_S over the loop's mean time
# just before and just after the op. A rescaled figure is the host time the
# op would take on a host where the loop takes 3 ms.
#
# The loop mixes what wncs spends its time on: object creation, method
# calls, float arithmetic, deque, dict and list updates, and numpy calls on
# tiny arrays. Across runs a few minutes apart, the spread (interquartile
# range over median) of sweep_fixed's wall_s was 19% raw, 6% rescaled with a
# loop of bare float arithmetic and 4% with this loop; jitter_cli's was 1.4%.
# It runs no wncs code, so a faster wncs cannot speed it up.

CAL_ITERATIONS = 1500
CAL_REF_S = 3e-3
CAL_INTERVAL_S = 0.2


class _Affine:
    __slots__ = ("gain", "offset")

    def __init__(self, gain, offset):
        self.gain = gain
        self.offset = offset

    def apply(self, x):
        return self.gain * x + self.offset


_ZM1 = np.array([-1.0, 1.0])


def _calibration_loop():
    window = deque([0.0, 0.0, 0.0], maxlen=3)
    latest = {}
    out = []
    for i in range(CAL_ITERATIONS):
        y = _Affine(i * 0.5, 1.0).apply(window[0]) - 0.1 * window[1]
        window.appendleft(math.floor(y) % 97)
        latest[i % 61] = (y, i)
        out.append(min(max(int(y), 0), 255))
        if i % 5 == 0:
            out[-1] += float(np.convolve(np.array([y]), _ZM1)[-1] > 0.0)
    return out


def loop_seconds():
    """Best of three host timings of the calibration loop."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - t0)
    return best


# --- passes -------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_op(op, checker, tally, tracer=None):
    """Execute, time and check one op; returns its host seconds."""
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        result = op.call()
        raised = None
    except Exception:
        raised = traceback.format_exc()
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.fold()
    if raised is not None:
        problem = f"raised:\n{raised}"
    elif not checker.check(op.key, op.observe(result)):
        problem = "output differs from its reference"
    else:
        return elapsed
    tally.failed += 1
    if tally.failed <= 3:
        print(f"op {op.key} {problem}", file=sys.stderr)
    return elapsed


class Pass:
    """Rescaled per-op seconds of one pass, and its unscaled host total."""

    def __init__(self, scaled, host_wall):
        self.scaled = scaled
        self.wall = sum(scaled)
        self.host_wall = host_wall


def run_pass(ops, checker, tally, tracer=None):
    """One pass over the batch, traced if a tracer is given."""
    patches = tracing.instrument(tracer) if tracer is not None else None
    host, factors = [], []
    try:
        before = loop_seconds()
        mark = time.perf_counter()
        for op in ops:
            host.append(run_op(op, checker, tally, tracer))
            if time.perf_counter() - mark >= CAL_INTERVAL_S or len(host) == len(ops):
                after = loop_seconds()
                factor = 2.0 * CAL_REF_S / (before + after)
                factors.extend([factor] * (len(host) - len(factors)))
                before, mark = after, time.perf_counter()
    finally:
        if patches is not None:
            tracing.uninstrument(patches)
    return Pass([h * f for h, f in zip(host, factors)], sum(host))


def warm_up(ops, checker, tally):
    """One op of each cost group, so lazy set-up is not timed."""
    seen = set()
    for op in ops:
        if op.group not in seen:
            seen.add(op.group)
            run_op(op, checker, tally)


def setup_seconds(workload, seed):
    """Median set-up time of fresh interpreters, each rescaled by its own
    calibration loop run right after its inputs are ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             check=True, timeout=120)
        samples.append(float(out.stdout))
    return statistics.median(samples)


# --- reporting ------------------------------------------------------------------


def environment(args):
    import importlib.metadata
    import importlib.util
    import platform

    import numpy
    import wncs

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "wncs_using_numba": wncs.USING_NUMBA,
        "WNCS_NO_NUMBA": os.environ.get("WNCS_NO_NUMBA"),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timer": "time.perf_counter in this process, rescaled to the calibration loop",
    }


def typical_op_seconds(passes):
    """Each op's median rescaled time over the passes, which drops the
    occasional op that the host preempted."""
    return [statistics.median(times) for times in zip(*(p.scaled for p in passes))]


def end_to_end(passes, setup_s):
    op_s = typical_op_seconds(passes)
    wall = sum(op_s)
    q = statistics.quantiles([t * 1e3 for t in op_s], n=10, method="inclusive")
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(op_s) / wall, "1/s"),
        "op_ms_p50": (q[4], "ms"),
        "op_ms_p90": (q[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(untraced, traced, tracers):
    """Layer times are rescaled with their pass's mean speed factor."""
    out = {}
    for name, unit, value in tracing.LAYER_METRICS:
        if unit == "s":
            out[name] = (
                statistics.median(
                    value(t) * p.wall / p.host_wall for t, p in zip(tracers, traced)
                ),
                unit,
            )
        else:
            out[name] = (value(tracers[0]), unit)
    traced_wall = statistics.median(p.wall for p in traced)
    untraced_wall = statistics.median(p.wall for p in untraced)
    coverage = statistics.median(t.covered_s / p.host_wall for t, p in zip(tracers, traced))
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    out["trace.coverage"] = (coverage, "ratio")
    return out


def counts_repeat(tracers):
    """Every count metric is identical across the traced passes."""
    return all(
        len({value(t) for t in tracers}) == 1
        for _, unit, value in tracing.LAYER_METRICS
        if unit != "s"
    )


def measure(args, workdir, tiny=False):
    """Run one benchmark invocation; returns (result dict, report lines)."""
    t_setup = time.perf_counter()
    ops = workloads.build(args.workload, args.seed, workdir, tiny=tiny)
    build_s = time.perf_counter() - t_setup
    refs = load_refs(args.workload, args.seed)
    lines = []
    if refs is None:
        lines.append(
            f"no stored references for {args.workload} seed {args.seed}: "
            "checking that repeating each op gives identical outputs"
        )
        refs = {}
    else:
        lines.append(f"checking against {refs_path(args.workload, args.seed).relative_to(ROOT)}")
    rel_tol = ANALYSIS_REL_TOL if args.workload == "analysis" else 0.0
    checker = Checker(refs, rel_tol)
    tally = Tally()
    os.makedirs(workdir, exist_ok=True)

    setup_s = None
    if not args.trace:
        setup_s = build_s if tiny else setup_seconds(args.workload, args.seed)
    warm_up(ops, checker, tally)

    untraced, traced, tracers = [], [], []
    min_passes = 1 if args.trace else MIN_PASSES
    start = time.perf_counter()
    while len(untraced) < min_passes or time.perf_counter() - start < args.seconds:
        untraced.append(run_pass(ops, checker, tally))
        if args.trace:
            tracers.append(tracing.Tracer())
            traced.append(run_pass(ops, checker, tally, tracers[-1]))

    correct = tally.failed == 0
    if args.trace:
        metrics = per_layer(untraced, traced, tracers)
        if not counts_repeat(tracers):
            lines.append("count metrics differ between traced passes")
            correct = False
    else:
        metrics = end_to_end(untraced, setup_s)
        beyond = sum(t * 1e3 > metrics["op_ms_p90"][0] for t in typical_op_seconds(untraced))
        lines.append(
            f"{len(untraced)} passes of {len(ops)} ops; op quantiles over the "
            f"{len(ops)} ops' median times, {beyond} beyond p90"
        )
    host_wall = statistics.median(p.host_wall for p in untraced)
    lines.append(
        f"unscaled host wall per pass = {host_wall:.6g} s "
        f"(rescaled {statistics.median(p.wall for p in untraced):.6g} s)"
    )
    lines.append(
        f"failed_frac = {tally.failed / tally.attempted:.6g} "
        f"({tally.failed} of {tally.attempted} ops)"
    )
    if checker.failed_keys:
        lines.append(f"mismatched ops: {', '.join(checker.failed_keys[:5])}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None):
    args = _parse(argv)
    use_checkout_src()
    if args.setup_probe:
        workloads.build(args.workload, args.seed, str(TMP_ROOT))
        ready_s = time.perf_counter() - STARTED
        print(repr(ready_s * CAL_REF_S / loop_seconds()))
        return 0

    TMP_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        result, lines = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    env = environment(args)
    print("env " + json.dumps(env))
    if not env["wncs_using_numba"]:
        print(
            "numba is not in use: the jitted kernel in wncs._accel is not measured, "
            "and README's two-orders-of-magnitude claim for it is unverified"
        )
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
