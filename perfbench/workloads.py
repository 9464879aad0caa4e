"""The benchmark's workloads: each workload function turns a seed into a fixed
batch of ops.

An op is one call a wncs user makes and waits for: a closed-loop run, a
`wncs simulate` invocation or one analysis call. `call` does the work and
is the only part that is timed; `observe` turns its result into the
JSON-able observation the output check compares (digests of arrays and
files, or the numbers an analysis call returns).

wncs is imported inside the workload functions, so the time to import it
counts as set-up time, and a checkout without `src/wncs` fails at the first
import.

Each workload mixes ops of very different cost (an adaptive Smith run
costs about five times an uncompensated one). The op counts per cost group
are chosen so that the median and the 90th percentile of op time fall well
inside one group, never on the gap between two groups, where the quantile
would jump from run to run. The comment above each workload function gives
the split.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

WORKLOADS = ("sweep_fixed", "jitter_cli", "analysis")

# Closed-loop runs last 25 s of simulated time at the 20 ms tick.
RUN_DURATION_S = 25.0
SQUARE_PERIOD_S = 5.0

# c04's and c07's delay grids (tests/test_acceptance.py), seconds.
C04_TAUS = (0.04, 0.12, 0.24, 0.3, 1.0)
C07_TAUS = (0.0, 0.04, 0.12, 0.18, 0.24, 0.3, 0.4, 0.6, 1.0, 2.0)


@dataclass(frozen=True)
class Op:
    key: str  # unique in the batch; with the workload seed, names the inputs
    group: str  # ops of one group cost about the same
    call: Callable[[], object]
    observe: Callable[[object], list]


def build(workload, seed, workdir, tiny=False):
    """The workload's batch of ops, in a seed-shuffled order.

    `workdir` is the directory ops may write into (jitter_cli only); it is
    not created here. `tiny` shrinks every grid to a handful of ops for the
    benchmark's own test.
    """
    if workload == "sweep_fixed":
        ops = _sweep_fixed(seed, tiny)
    elif workload == "jitter_cli":
        ops = _jitter_cli(seed, workdir, tiny)
    elif workload == "analysis":
        ops = _analysis(seed, tiny)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = np.random.default_rng([seed, 1]).permutation(len(ops))
    return [ops[i] for i in order]


# --- sweep_fixed ------------------------------------------------------------
#
# The widened c08 grid, in process: p2p-80ms with both legs replaced by
# fixed delays, every Smith variant, step and square-wave setpoints. The
# adaptive variants use a 20 ms delay step and off/classical a 40 ms step,
# so adaptive runs (about 22 ms each at the reference speed, against 14 ms
# for off and 17 ms for classical) are two thirds of the 128 ops and the
# median op is one of them; with an even split the median would sit on the
# gap between classical and adaptive runs.


def _sweep_fixed(seed, tiny):
    from wncs.scenario import (
        SMITH_VARIANTS,
        apply_smith_variant,
        preset_config,
        with_total_fixed_delay,
    )

    rng = np.random.default_rng(seed)
    ops = []
    for variant in SMITH_VARIANTS:
        step_ms = 20 if variant.startswith("adaptive") else 40
        delays = (120,) if tiny else range(0, 401, step_ms)
        periods = (0.0,) if tiny else (0.0, SQUARE_PERIOD_S)
        for delay in delays:
            for period in periods:
                cfg = apply_smith_variant(
                    with_total_fixed_delay(preset_config("p2p-80ms"), delay), variant
                )
                cfg = dataclasses.replace(
                    cfg,
                    duration_s=RUN_DURATION_S,
                    setpoint_period_s=period,
                    seed=int(rng.integers(2**31)),
                )
                shape = "square" if period else "step"
                ops.append(
                    Op(
                        key=f"{variant}/{delay}ms/{shape}/seed{cfg.seed}",
                        group=variant,
                        call=partial(_closed_loop, cfg),
                        observe=_observe_closed_loop,
                    )
                )
    return ops


def _closed_loop(cfg):
    from wncs.scenario import compute_metrics, run_closed_loop

    record = run_closed_loop(cfg)
    return record, compute_metrics(record)


def _observe_closed_loop(result):
    record, metrics = result
    h = hashlib.sha256()
    for arr in (
        record.t_ms,
        record.setpoint,
        record.speed_meas,
        record.speed_true,
        record.duty,
        record.tm_ms,
    ):
        h.update(str(arr.dtype).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(",".join(record.event).encode())
    h.update(repr(sorted(record.frame_stats.items())).encode())
    h.update(
        repr([(s, e.value, rtt, tm) for s, e, rtt, tm in record.estimator_log]).encode()
    )
    return [h.hexdigest(), [getattr(metrics, f.name) for f in dataclasses.fields(metrics)]]


# --- jitter_cli -------------------------------------------------------------
#
# `wncs simulate` on the two jittery presets. Adaptive variants run twice
# as many scenario seeds as off/classical, so adaptive runs (about 130 ms
# at the reference speed, against 20-35 ms for off/classical) are two thirds of the 108 ops: the median op is an adaptive run on the
# uniform preset and the 90th percentile one on the trace preset. The trace
# preset ignores the scenario seed, so its repeats do identical work.

JITTER_PRESETS = ("intermediate-uniform", "intermediate-trace")


class _Discard(io.TextIOBase):
    def write(self, s):
        return len(s)


_DISCARD = _Discard()


def _jitter_cli(seed, workdir, tiny):
    from wncs.scenario import SMITH_VARIANTS

    n_seeds = 1 if tiny else 9
    rng = np.random.default_rng(seed)
    scenario_seeds = [int(s) for s in rng.choice(2**31, size=2 * n_seeds, replace=False)]
    out = os.path.join(workdir, "simulate")
    ops = []
    for preset in JITTER_PRESETS:
        for variant in SMITH_VARIANTS:
            k = 2 * n_seeds if variant.startswith("adaptive") else n_seeds
            for s in scenario_seeds[:k]:
                argv = ["simulate", "--preset", preset, "--smith", variant,
                        "--seed", str(s), "--out", out]
                ops.append(
                    Op(
                        key=f"{preset}/{variant}/seed{s}",
                        group=f"{preset}/{variant}",
                        call=partial(_simulate, argv),
                        observe=partial(_observe_simulate, out),
                    )
                )
    return ops


def _simulate(argv):
    from wncs import cli

    with contextlib.redirect_stdout(_DISCARD):
        return cli.main(argv)


def _observe_simulate(out, rc):
    digests = []
    for name in ("run.csv", "metrics.csv", "estimator.csv"):
        with open(os.path.join(out, name), "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    return [rc] + digests


# --- analysis ---------------------------------------------------------------
#
# Direct calls to the analysis API. ISE scoring (about 14 ms per call at
# the reference speed on the 5 s horizon, 30 ms at tau = 1 s) makes 90 of
# the 129 ops: the 39
# cheaper ops (design points, margins, Nyquist loci, ARX fits, all under
# 4 ms) fill the bottom 30%, so the median and the 90th percentile are both
# ISE calls on the 5 s horizon.


def _analysis(seed, tiny):
    from wncs.delay_approx import ApproxKind
    from wncs.lti import filter_sequence
    from wncs.models import motor_ct_tf, pulse_tf_exact, pulse_tf_nominal

    rng = np.random.default_rng(seed)
    # Ten more taus on a 1 ms grid, distinct from c04's. They stay at or
    # below 0.5 s, where the scoring horizon is the 5 s default, so every
    # seed scores the same number of samples.
    grid_ms = [ms for ms in range(20, 501) if ms / 1000.0 not in C04_TAUS]
    drawn_ms = rng.choice(grid_ms, size=1 if tiny else 10, replace=False)
    ise_taus = (C04_TAUS[:1] if tiny else C04_TAUS) + tuple(
        int(ms) / 1000.0 for ms in drawn_ms
    )
    loop = motor_ct_tf()
    ops = []
    for kind in ApproxKind:
        for tau in ise_taus:
            ops.append(
                Op(f"ise/{kind.value}/{tau!r}", "ise", partial(_ise, kind, tau), _observe_ise)
            )
    ops.append(Op("margin/c07", "margin", partial(_margins, loop, C07_TAUS), _observe_margins))
    for tau in C07_TAUS[:2] if tiny else C07_TAUS:
        ops.append(
            Op(f"nyquist/{tau!r}", "nyquist", partial(_nyquist, loop, tau), _observe_nyquist)
        )

    plant = pulse_tf_exact()
    n_series = 1 if tiny else 4
    for i in range(n_series):
        # A seeded excitation through the exact motor model plus measurement
        # noise, fitted at the true order and one order higher.
        u = rng.uniform(0.0, 1.0, 1000)
        y = filter_sequence(plant, u) + rng.normal(0.0, 0.002, u.size)
        for order in ((1, 1, 1), (2, 2, 1)):
            ops.append(
                Op(
                    f"identify/series{i}/{order}",
                    "identify",
                    partial(_identify, plant.sample_time, u, y, order),
                    _observe_identify,
                )
            )

    design_plant = pulse_tf_nominal()
    zetas = (0.94,) if tiny else (0.6, 0.7, 0.8, 0.9, 0.94)
    ratios = (0.1,) if tiny else (0.05, 0.08, 0.1, 0.12)
    for zeta in zetas:
        for ratio in ratios:
            ops.append(
                Op(
                    f"design/{zeta!r}/{ratio!r}",
                    "design",
                    partial(_design, design_plant, zeta, ratio),
                    _observe_design,
                )
            )
    return ops


def _ise(kind, tau):
    from wncs.delay_approx import ise_vs_true_delay

    return ise_vs_true_delay(kind, tau)


def _observe_ise(report):
    return [report.ise]


def _margins(loop, taus):
    from wncs.stability import margin_table

    return margin_table(loop, taus)


def _observe_margins(reports):
    return [reports[0].gain_crossover_omega] + [
        [r.phase_margin_deg, int(r.stable)] for r in reports
    ]


def _nyquist(loop, tau):
    """One stability verdict: the sampled locus and its winding count."""
    from wncs.stability import encirclements, nyquist_locus

    locus = nyquist_locus(loop, tau)
    return locus, encirclements(locus)


def _observe_nyquist(result):
    locus, winding = result
    p = locus.points
    picks = [p[0], p[p.size // 2], p[-1]]
    return [
        int(p.size),
        float(p.real.sum()),
        float(p.imag.sum()),
        float(np.abs(p).sum()),
        [[float(z.real), float(z.imag)] for z in picks],
        winding,
    ]


def _identify(sample_time, u, y, order):
    """Fit, free-run simulate and score one ARX model, as `wncs identify`."""
    from wncs.sysid import SampleSeries, fit_arx, percent_fit

    model = fit_arx(SampleSeries(sample_time, u, y), *order)
    return model, percent_fit(model.simulate(u), y)


def _observe_identify(result):
    model, fit = result
    return list(model.a_coeffs) + list(model.b_coeffs) + [model.residual_ss, fit]


def _design(plant, zeta, ratio):
    from wncs.pid import root_locus_design_report

    return root_locus_design_report(plant, zeta, ratio)


def _observe_design(report):
    return [
        report.gains.kp,
        report.gains.ki,
        report.zero,
        report.loop_gain,
        report.target_pole.real,
        report.target_pole.imag,
        report.angle_residual_deg,
        report.magnitude_residual,
    ]
