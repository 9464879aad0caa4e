"""Per-layer tracing of wncs from outside `src/`.

`instrument` wraps the public functions and methods of each wncs module at
run time: every call becomes a span (name, start, end, parent span) kept in
memory, and a few calls also feed exact counters from their arguments or
return values. `uninstrument` puts the original objects back, so untraced
passes run the unmodified program.

Spans are folded into per-layer totals after every op, which bounds memory
to one op's spans. For a span name:

  calls   spans with no ancestor of the same name (DifferenceEqState.step
          calling peek is one call into lti.diffeq)
  s       inclusive time of those outermost spans
  self_s  time in spans of that name minus the time their child spans cover
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.counts = Counter()  # exact counters fed by hooks
        self.keys = defaultdict(set)  # distinct argument keys per counter
        self.calls = Counter()
        self.incl_s = Counter()
        self.self_s = Counter()
        self.child_calls = Counter()  # (parent name, child name) -> calls
        self.covered_s = 0.0  # time inside top-level spans
        self._names = []
        self._ids = {}
        self._name = []
        self._parent = []
        self._start = []
        self._end = []
        self._stack = [-1]

    def wrap(self, fn, name, hook=None):
        nid = self._ids.setdefault(name, len(self._names))
        if nid == len(self._names):
            self._names.append(name)
        names, parents, starts, ends, stack = (
            self._name, self._parent, self._start, self._end, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, Call(args, kwargs), result)
            return result

        return traced

    def fold(self):
        """Add the spans recorded since the last fold to the totals."""
        names, parents = self._name, self._parent
        n = len(names)
        dur = [e - s for s, e in zip(self._start, self._end)]
        covered = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += dur[i]
            else:
                self.covered_s += dur[i]
        for i in range(n):
            nid = names[i]
            name = self._names[nid]
            self.self_s[name] += dur[i] - covered[i]
            p = parents[i]
            if p >= 0:
                self.child_calls[(self._names[names[p]], name)] += 1
            while p >= 0 and names[p] != nid:
                p = parents[p]
            if p < 0:
                self.calls[name] += 1
                self.incl_s[name] += dur[i]
        for lst in (self._name, self._parent, self._start, self._end):
            del lst[:]


# --- hooks: exact counts from arguments and return values --------------------


class Call:
    """A wrapped call's arguments, read by position or by keyword."""

    def __init__(self, args, kwargs):
        self.args = args
        self.kwargs = kwargs

    def arg(self, index, name):
        return self.args[index] if index < len(self.args) else self.kwargs[name]


def _count_frames(tracer, call, frames):
    tracer.counts["netchan.frames"] += len(frames)


def _count_event(tracer, call, result):
    tracer.counts["delay_est.event." + result[1].value] += 1


def _count_saturation(tracer, call, result):
    tracer.counts["pid.saturated"] += bool(call.arg(1, "state").saturated_last)


def _count_tau(tracer, call, result):
    kind = call.arg(0, "kind")
    key = (getattr(kind, "value", kind), float(call.arg(1, "tau")), float(call.arg(2, "sample_time")))
    tracer.keys["delay_approx.discretize"].add(key)


def _count_samples(tracer, call, result):
    tracer.counts["lti.filter.samples"] += len(call.arg(1, "inputs"))


def _count_points(tracer, call, locus):
    tracer.counts["stability.nyquist.points"] += locus.points.size


def _count_rows(tracer, call, result):
    na, nb, nk = call.arg(1, "na"), call.arg(2, "nb"), call.arg(3, "nk")
    tracer.counts["sysid.fit_arx.rows"] += len(call.arg(0, "series")) - max(na, nb + nk - 1)


def _count_bytes(tracer, call, result):
    tracer.counts["scenario.csv_bytes"] += os.path.getsize(call.arg(1, "path"))


def _count_ticks(tracer, call, record):
    tracer.counts["scenario.sim_ticks"] += record.t_ms.size


def _targets():
    """(owner, attribute, span name, hook) for every wrapped callable."""
    from wncs import (
        delay_approx,
        delay_est,
        lti,
        netchan,
        pid,
        plant,
        scenario,
        smith,
        stability,
        sysid,
    )

    est = delay_est.EstimatorState
    diffeq = lti.DifferenceEqState
    return [
        (scenario, "run_closed_loop", "scenario.run_closed_loop", _count_ticks),
        (scenario, "compute_metrics", "scenario.compute_metrics", None),
        (scenario.RunRecord, "write_csv", "scenario.write_csv", _count_bytes),
        (scenario, "write_metrics_csv", "scenario.write_csv", _count_bytes),
        (netchan.Channel, "send", "netchan.send", None),
        # Channel.poll is a thin wrapper over poll_frames; both directions
        # drain through poll_frames.
        (netchan.Channel, "poll_frames", "netchan.poll", _count_frames),
        (est, "oldest_pending", "delay_est", None),
        (est, "on_send", "delay_est", None),
        (est, "on_receive", "delay_est", None),
        (est, "on_empty_receive", "delay_est", None),
        (est, "on_unmatched_receive", "delay_est", None),
        (est, "estimate_at_sample", "delay_est", _count_event),
        (delay_est, "write_log_csv", "delay_est.write_log", None),
        (plant, "motor_step", "plant.motor_step", None),
        (plant, "encoder_read", "plant.encoder_read", None),
        (pid, "pi_step", "pid.pi_step", _count_saturation),
        (pid, "root_locus_design_report", "pid.design", None),
        (pid, "design_pi_root_locus", "pid.design", None),
        (smith.SmithPredictor, "preview", "smith.preview", None),
        (smith.SmithPredictor, "commit", "smith.commit", None),
        (smith.SmithPredictor, "update_delay_estimate", "smith.update", None),
        (delay_approx, "discretize_series", "delay_approx.discretize", _count_tau),
        (delay_approx, "ise_vs_true_delay", "delay_approx.ise", None),
        (lti, "bilinear_discretize", "lti.bilinear", None),
        (diffeq, "peek", "lti.diffeq", None),
        (diffeq, "step", "lti.diffeq", None),
        (diffeq, "rebind", "lti.diffeq", None),
        (lti, "filter_sequence", "lti.filter", _count_samples),
        (stability, "margin_table", "stability.margin", None),
        (stability, "phase_margin", "stability.margin", None),
        (stability, "nyquist_locus", "stability.nyquist", _count_points),
        (stability, "encirclements", "stability.nyquist", None),
        (sysid, "fit_arx", "sysid.fit_arx", _count_rows),
    ]


def instrument(tracer):
    """Wrap every target; returns the list of patches `uninstrument` undoes.

    A module function is replaced wherever a wncs module holds it, because
    modules import each other's functions by name (scenario calls its own
    `motor_step`, not `plant.motor_step`).
    """
    import wncs.cli  # noqa: F401  (loads every module that holds a reference)

    modules = [m for n, m in sorted(sys.modules.items()) if n == "wncs" or n.startswith("wncs.")]
    patches = []
    for owner, attr, name, hook in _targets():
        orig = owner.__dict__[attr]
        wrapped = tracer.wrap(orig, name, hook)
        if isinstance(owner, type):
            patches.append((owner, attr, orig))
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    patches.append((mod, key, orig))
                    setattr(mod, key, wrapped)
    return patches


def uninstrument(patches):
    for owner, attr, orig in reversed(patches):
        setattr(owner, attr, orig)


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics: (name, unit, value from a Tracer). Times are seconds
# per pass over the workload's batch; everything else is an exact count.
LAYER_METRICS = [
    ("scenario.run_closed_loop.self_s", "s", lambda t: t.self_s["scenario.run_closed_loop"]),
    ("scenario.compute_metrics.s", "s", lambda t: t.incl_s["scenario.compute_metrics"]),
    ("scenario.write_csv.s", "s", lambda t: t.incl_s["scenario.write_csv"]),
    ("scenario.csv_bytes", "bytes", lambda t: t.counts["scenario.csv_bytes"]),
    ("scenario.sim_ticks", "count", lambda t: t.counts["scenario.sim_ticks"]),
    ("netchan.send.calls", "count", lambda t: t.calls["netchan.send"]),
    ("netchan.send.s", "s", lambda t: t.incl_s["netchan.send"]),
    ("netchan.poll.calls", "count", lambda t: t.calls["netchan.poll"]),
    ("netchan.poll.s", "s", lambda t: t.incl_s["netchan.poll"]),
    (
        "netchan.frames_per_poll",
        "frames/poll",
        lambda t: _ratio(t.counts["netchan.frames"], t.calls["netchan.poll"]),
    ),
    ("delay_est.calls", "count", lambda t: t.calls["delay_est"]),
    ("delay_est.s", "s", lambda t: t.incl_s["delay_est"]),
    ("delay_est.write_log.s", "s", lambda t: t.incl_s["delay_est.write_log"]),
    ("delay_est.vacant_share", "ratio", lambda t: _event_share(t, "vacant")),
    ("delay_est.rejection_share", "ratio", lambda t: _event_share(t, "rejection")),
    ("delay_est.delayed_share", "ratio", lambda t: _event_share(t, "delayed")),
    ("plant.motor_step.s", "s", lambda t: t.incl_s["plant.motor_step"]),
    ("plant.encoder_read.s", "s", lambda t: t.incl_s["plant.encoder_read"]),
    ("pid.pi_step.calls", "count", lambda t: t.calls["pid.pi_step"]),
    ("pid.pi_step.s", "s", lambda t: t.incl_s["pid.pi_step"]),
    (
        "pid.saturated_share",
        "ratio",
        lambda t: _ratio(t.counts["pid.saturated"], t.calls["pid.pi_step"]),
    ),
    ("pid.design.s", "s", lambda t: t.incl_s["pid.design"]),
    ("smith.preview.s", "s", lambda t: t.incl_s["smith.preview"]),
    ("smith.commit.s", "s", lambda t: t.incl_s["smith.commit"]),
    ("smith.update.calls", "count", lambda t: t.calls["smith.update"]),
    ("smith.update.self_s", "s", lambda t: t.self_s["smith.update"]),
    (
        "smith.rebind_ratio",
        "ratio",
        lambda t: _ratio(
            t.child_calls[("smith.update", "delay_approx.discretize")],
            t.calls["smith.update"],
        ),
    ),
    ("delay_approx.discretize.calls", "count", lambda t: t.calls["delay_approx.discretize"]),
    ("delay_approx.discretize.s", "s", lambda t: t.incl_s["delay_approx.discretize"]),
    (
        "delay_approx.discretize.distinct_tau_frac",
        "ratio",
        lambda t: _ratio(
            len(t.keys["delay_approx.discretize"]), t.calls["delay_approx.discretize"]
        ),
    ),
    ("delay_approx.ise.calls", "count", lambda t: t.calls["delay_approx.ise"]),
    ("delay_approx.ise.self_s", "s", lambda t: t.self_s["delay_approx.ise"]),
    ("lti.bilinear.s", "s", lambda t: t.incl_s["lti.bilinear"]),
    ("lti.diffeq.calls", "count", lambda t: t.calls["lti.diffeq"]),
    ("lti.diffeq.s", "s", lambda t: t.incl_s["lti.diffeq"]),
    ("lti.filter.calls", "count", lambda t: t.calls["lti.filter"]),
    ("lti.filter.samples", "count", lambda t: t.counts["lti.filter.samples"]),
    ("lti.filter.s", "s", lambda t: t.incl_s["lti.filter"]),
    ("stability.margin.s", "s", lambda t: t.incl_s["stability.margin"]),
    ("stability.nyquist.s", "s", lambda t: t.incl_s["stability.nyquist"]),
    ("stability.nyquist.points", "count", lambda t: t.counts["stability.nyquist.points"]),
    ("sysid.fit_arx.s", "s", lambda t: t.incl_s["sysid.fit_arx"]),
    ("sysid.fit_arx.rows", "count", lambda t: t.counts["sysid.fit_arx.rows"]),
]

def _event_share(tracer, event):
    total = sum(v for k, v in tracer.counts.items() if k.startswith("delay_est.event."))
    return _ratio(tracer.counts["delay_est.event." + event], total)
