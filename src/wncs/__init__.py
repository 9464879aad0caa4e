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

plus the `wncs` command-line tool (see wncs.cli). Import each name from the
module that defines it: this package re-exports none, so importing one
analysis module does not load the closed-loop stack.
"""

__version__ = "0.1.0"

# Nothing is compiled; kept as False because perfbench/run.py reports it.
USING_NUMBA = False

__all__ = ["USING_NUMBA", "__version__"]
