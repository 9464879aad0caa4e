"""Command-line front end.

    wncs simulate --preset p2p-80ms --smith adaptive-dfr --out runs/demo
    wncs simulate --config scenario.json --out runs/custom
    wncs identify --data logs/step.csv --na 1 --nb 1 --nk 1
    wncs design-pi --zeta 0.94 --wd-over-ws 0.1
    wncs ise-table --taus 0.1,0.2,0.3,0.4,0.5
    wncs stability --tau-list 0,0.04,0.12,0.3,1
    wncs estimator-demo

simulate writes run.csv (per-tick trace), metrics.csv, and estimator.csv
into --out; everything else prints tables to stdout.

Every command pays this module's imports, so the modules that only one
command runs are imported inside its function: simulate imports
wncs.scenario, and with it the closed-loop chain, and identify, design-pi
and stability import wncs.sysid, wncs.pid and wncs.stability. The parser
reads simulate's --preset and --smith choices from wncs.scenario only when
it tests a value against them or lists them.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import models
from .delay_approx import ise_table
from .delay_est import EVENTS, replay_capture, write_log_csv, write_table

__all__ = ["main"]


def _cmd_simulate(args):
    from . import scenario

    if (args.config is None) == (args.preset is None):
        raise ValueError("simulate: give exactly one of --config or --preset")
    if args.config is not None:
        cfg = scenario.load_config(args.config)
    else:
        cfg = scenario.preset_config(args.preset)
    if args.smith is not None:
        cfg = scenario.apply_smith_variant(cfg, args.smith)
    if args.total_delay_ms is not None:
        cfg = scenario.with_total_fixed_delay(cfg, args.total_delay_ms)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.duration is not None:
        cfg.duration_s = args.duration

    record = scenario.run_closed_loop(cfg)
    metrics = scenario.compute_metrics(record)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    record.write_csv(out / "run.csv")
    scenario.write_metrics_csv(metrics, out / "metrics.csv")
    write_log_csv(record.t_ms, record.codes, record.rtt_ms, record.tm_ms, out / "estimator.csv")

    print(f"wrote {out / 'run.csv'} ({record.t_ms.size} ticks)")
    if metrics.percent_overshoot is not None:
        print(f"overshoot      {metrics.percent_overshoot:.2f} %")
        print(f"settling       {metrics.settling_time_s:.3g} s")
    print(f"sse            {metrics.steady_state_error:.3f} rps")
    print(f"ise            {metrics.ise:.4f}")
    print(f"trailing ise   {metrics.trailing_half_ise:.4f}")
    return 0


def _cmd_identify(args):
    from .sysid import arx_to_first_order_ct, fit_arx, normalize, percent_fit, read_sample_csv

    series = read_sample_csv(args.data)
    if not args.raw:
        series = normalize(series)
    model = fit_arx(series, args.na, args.nb, args.nk)
    y_sim = model.simulate(series.inputs)
    fit = percent_fit(y_sim, series.outputs)
    print(f"samples        {len(series)} at T = {series.sample_time:g} s")
    print(f"a coefficients {', '.join(f'{c:.6g}' for c in model.a_coeffs)}")
    print(f"b coefficients {', '.join(f'{c:.6g}' for c in model.b_coeffs)}")
    print(f"delay nk       {model.delay_nk}")
    print(f"residual ss    {model.residual_ss:.6g}")
    print(f"fit            {fit:.2f} %")
    if (args.na, args.nb, args.nk) == (1, 1, 1):
        ct = arx_to_first_order_ct(model)
        print(f"continuous     K = {ct.num[0]:.4g}, a = {ct.den[0]:.4g}  [K/(s+a)]")
    return 0


def _cmd_design_pi(args):
    from .pid import root_locus_design_report

    plant = models.pulse_tf_nominal() if args.plant == "nominal" else models.pulse_tf_exact()
    report = root_locus_design_report(plant, args.zeta, args.wd_over_ws)
    zd = report.target_pole
    print(f"target pole    {zd.real:.6f} + {zd.imag:.6f}j  (|z| = {abs(zd):.6f})")
    print(f"zero           {report.zero:.6f}")
    print(f"loop gain K    {report.loop_gain:.4f}")
    print(f"kp             {report.gains.kp:.4f}")
    print(f"ki             {report.gains.ki:.4f}  (ki*T = {report.gains.ki_t:.4f})")
    print(f"angle residual {report.angle_residual_deg:.2e} deg")
    print(f"mag residual   {report.magnitude_residual:.2e}")
    return 0


def _float_list(text, option):
    """The floats of a comma list; the ValueError for an entry that is not a
    number, or for no entry at all, names option.

    Adding 0.0 turns -0.0 into 0.0 and leaves every other value as it is,
    so -0 is the dead time 0: printed, written and named as 0.
    """
    try:
        values = [float(t) + 0.0 for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise ValueError(f"{option}: {exc}") from None
    if not values:
        raise ValueError(f"{option} needs at least one value")
    return values


def _print_table(rows):
    """Print rows of cells, the header first: each column as wide as its
    widest cell, the first aligned left and the rest right, and the cells of
    a line two spaces apart. No cell holds a space, so each printed line
    splits on whitespace into its cells."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    for first, *rest in rows:
        cells = [first.ljust(widths[0])] + [c.rjust(w) for c, w in zip(rest, widths[1:])]
        print("  ".join(cells))


def _cmd_ise_table(args):
    taus = _float_list(args.taus, "ise-table: --taus")
    rows = ise_table(taus, dt=args.dt)
    # Each tau as repr prints it, the shortest text that reads back to it,
    # so distinct taus get distinct labels.
    header = ["series", *(f"tau={t!r}" for t in taus), "avg"]
    body = [[kind.value, *(f"{s:.4f}" for s in scores), f"{avg:.4f}"] for kind, scores, avg in rows]
    _print_table([header, *body])
    return 0


def _cmd_stability(args):
    from .stability import margin_table, nyquist_locus

    taus = _float_list(args.tau_list, "stability: --tau-list")
    # Each tau's locus file, named by its six significant digits; two taus
    # that round alike would write one file.
    loci = {}
    if args.out is not None:
        for tau in taus:
            name = f"nyquist_tau_{tau:g}.csv"
            if name in loci:
                raise ValueError(
                    f"stability: --tau-list: {loci[name]!r} and {tau!r} share the locus file {name}"
                )
            loci[name] = tau
    loop = models.motor_ct_tf()
    reports = margin_table(loop, taus)
    print(f"gain crossover {reports[0].gain_crossover_omega:.5f} rad/s")
    rows = [
        [repr(tau), f"{rep.phase_margin_deg:.2f}", "yes" if rep.stable else "no"]
        for tau, rep in zip(taus, reports)
    ]
    _print_table([["tau_s", "phase_margin_deg", "stable"], *rows])
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        margins = [(rep.gain_crossover_omega, rep.phase_margin_deg, rep.stable) for rep in reports]
        header = b"tau_s,gain_crossover_rad_s,phase_margin_deg,stable\n"
        write_table(out / "margins.csv", header, b"%.10g,%.10g,%.10g,%d\n", [taus, *zip(*margins)])
        for name, tau in loci.items():
            locus = nyquist_locus(loop, tau)
            points = [locus.omegas.tolist(), locus.points.real.tolist(), locus.points.imag.tolist()]
            write_table(out / name, b"omega,re,im\n", b"%.10g,%.10g,%.10g\n", points)
        print(f"wrote margins.csv and {len(taus)} locus file(s) to {out}")
    return 0


def _cmd_estimator_demo(args):
    state = replay_capture()
    print("sample_ms  event      rtt_ms  tm_ms")
    for sample_ms, event, rtt, tm in state.log:
        rtt_s = "-" if rtt is None else str(rtt)
        print(f"{sample_ms:9d}  {event.value:<9}  {rtt_s:>6}  {tm:5d}")
    print(f"send-to-arrival diffs: {', '.join(str(d) for d in state.diffs)}")
    if args.out is not None:
        sample_ms, events, rtts, tms = zip(*state.log)
        codes = [EVENTS.index(event) for event in events]
        rtt_ms = [-1 if rtt is None else rtt for rtt in rtts]
        write_log_csv(sample_ms, codes, rtt_ms, tms, args.out)
        print(f"wrote {args.out}")
    return 0


class _ScenarioNames:
    """A name tuple of wncs.scenario, imported when argparse first reads it.

    argparse tests a value with `in` and iterates the choices for help and
    error text, so only simulate's parse and help load the closed loop.
    """

    def __init__(self, attr):
        self._attr = attr

    def _names(self):
        from . import scenario

        return getattr(scenario, self._attr)

    def __contains__(self, value):
        return value in self._names()

    def __iter__(self):
        return iter(self._names())


# Built on the first call to main, then reused: argparse leaves a parser
# unchanged by parse_args, and each call gets a fresh namespace.
@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wncs",
        description="Wireless networked control loop: simulator and analysis tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a closed-loop scenario, write CSVs")
    p.add_argument("--config", help="JSON scenario file")
    # add_argument iterates any choices it is given to check the usage
    # text, so these go on the actions it returns.
    preset = p.add_argument("--preset", help="named scenario")
    preset.choices = _ScenarioNames("PRESET_NAMES")
    smith = p.add_argument("--smith", help="compensator overlay")
    smith.choices = _ScenarioNames("SMITH_VARIANTS")
    p.add_argument(
        "--total-delay-ms",
        type=int,
        help="replace both legs with fixed delays summing to this",
    )
    p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    p.add_argument("--duration", type=float, default=None, help="run length, seconds")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("identify", help="fit an ARX model to a t,u,y CSV")
    p.add_argument("--data", required=True, help="CSV with header t,u,y")
    p.add_argument("--na", type=int, required=True)
    p.add_argument("--nb", type=int, required=True)
    p.add_argument("--nk", type=int, required=True)
    p.add_argument("--raw", action="store_true", help="skip [0,1] normalization")
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("design-pi", help="root-locus PI design on the pulse model")
    p.add_argument("--zeta", type=float, required=True, help="damping ratio, (0,1)")
    p.add_argument("--wd-over-ws", type=float, required=True, help="frequency ratio, (0,0.5)")
    p.add_argument("--plant", choices=("nominal", "exact"), default="nominal")
    p.set_defaults(func=_cmd_design_pi)

    p = sub.add_parser("ise-table", help="score the dead-time series against true delays")
    p.add_argument("--taus", required=True, help="comma-separated delays, seconds")
    p.add_argument("--dt", type=float, default=1e-3, help="scoring step, seconds")
    p.set_defaults(func=_cmd_ise_table)

    p = sub.add_parser("stability", help="phase margin vs dead time for the motor loop")
    p.add_argument("--tau-list", required=True, help="comma-separated dead times, seconds")
    p.add_argument("--out", help="directory for Nyquist locus CSVs")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("estimator-demo", help="replay the bundled loopback capture")
    p.add_argument("--out", help="write the sample log CSV here")
    p.set_defaults(func=_cmd_estimator_demo)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
