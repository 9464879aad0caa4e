"""Deterministic simulator and analysis toolkit for a wireless networked
control loop: a DC-motor plant under discrete PI control, with the command
and measurement bytes crossing a delay-injecting channel, online round-trip
delay estimation, and classical/adaptive dead-time compensation.

The interesting entry points:

    wncs.scenario   closed-loop runner, presets, metrics, JSON configs
    wncs.lti        transfer functions, discretization, filtering
    wncs.pid        the device's PI algorithm and the root-locus design
    wncs.smith      dead-time compensator (classical and adaptive)
    wncs.delay_est  controller-side RTT measurement and per-sample estimates
    wncs.delay_approx  rational dead-time series and their ISE scores
    wncs.stability  delay-margin and Nyquist analysis of the motor loop
    wncs.sysid      ARX identification utilities
    wncs.models     the reference rig's named constants

plus the `wncs` command-line tool (see wncs.cli).
"""

from .lti import (
    ContinuousTf,
    DifferenceEqState,
    DiscreteTf,
    bilinear_discretize,
    filter_sequence,
    freq_response,
    zoh_discretize_first_order,
)
from .scenario import (
    Metrics,
    RunRecord,
    ScenarioConfig,
    compute_metrics,
    load_config,
    preset_config,
    run_closed_loop,
)

__version__ = "0.1.0"

# Nothing is compiled; kept as False because perfbench/run.py reports it.
USING_NUMBA = False

__all__ = [
    "USING_NUMBA",
    "ContinuousTf",
    "DiscreteTf",
    "DifferenceEqState",
    "zoh_discretize_first_order",
    "bilinear_discretize",
    "freq_response",
    "filter_sequence",
    "ScenarioConfig",
    "RunRecord",
    "Metrics",
    "run_closed_loop",
    "compute_metrics",
    "load_config",
    "preset_config",
    "__version__",
]
