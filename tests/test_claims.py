"""The abstract's comparisons, as orderings over drawn seeds.

The paper contrasts a point-to-point link, whose delay is almost constant,
with a link through an intermediate node, whose delay varies: the PI loop
degrades severely through the intermediate node, the classical Smith
predictor fails to perform reasonably there, and the adaptive one gives
good results on both. Each test states an ordering and tunes no bound: a
seed that breaks one is a fault in the program, never a seed to draw
around. Every run here uses the "resend" policy.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from wncs.models import SAMPLE_TIME
from wncs.scenario import apply_smith_variant, compute_metrics, preset_config, run_closed_loop

# The estimator's start-up: the first 5 s, before its first replies settle.
_SETTLED_TICK = round(5.0 / SAMPLE_TIME)


def _estimate_spread(preset, seed=0):
    """Max minus min of the delay estimate after start-up, in ms, of an
    uncompensated run of the preset under the "resend" policy."""
    config = dataclasses.replace(preset_config(preset), seed=seed, vacant_policy="resend")
    tm_ms = run_closed_loop(apply_smith_variant(config, "off")).tm_ms[_SETTLED_TICK:]
    return int(tm_ms.max() - tm_ms.min())


# Here and below: wired, p2p-80ms and intermediate-trace draw nothing, so a
# run of one reads the same at every seed and is checked once; only
# intermediate-uniform's seeds are drawn.
class TestDelayRegime:
    def test_only_the_point_to_point_estimate_is_constant(self):
        assert _estimate_spread("p2p-80ms") == 0
        assert _estimate_spread("intermediate-trace") > 0

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_drawn_delays(self, seed):
        assert _estimate_spread("intermediate-uniform", seed) > 0


_COMPENSATORS = ("classical-60ms", "adaptive-dfr", "adaptive-pade")


def _metrics(preset, variant, seed=0):
    """The metrics of a run of the preset under the "resend" policy."""
    config = dataclasses.replace(preset_config(preset), seed=seed, vacant_policy="resend")
    return compute_metrics(run_closed_loop(apply_smith_variant(config, variant)))


def _assert_classical_fails(preset, seed=0):
    """Under a varying delay, ISE orders off > classical-60ms > each
    adaptive variant, and no adaptive variant leaves more trailing-half ISE
    than the classical one."""
    metrics = {v: _metrics(preset, v, seed) for v in ("off", *_COMPENSATORS)}
    classical = metrics["classical-60ms"]
    for variant in ("adaptive-dfr", "adaptive-pade"):
        assert metrics["off"].ise > classical.ise > metrics[variant].ise, variant
        assert metrics[variant].trailing_half_ise <= classical.trailing_half_ise, variant


class TestPiDegradation:
    """Uncompensated, the PI loop leaves no error in the trailing half of a
    run on a constant delay, and some on a varying one."""

    def test_draw_free_presets(self):
        assert _metrics("wired", "off").trailing_half_ise == 0.0
        assert _metrics("p2p-80ms", "off").trailing_half_ise == 0.0
        assert _metrics("intermediate-trace", "off").trailing_half_ise > 0.0

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_drawn_delays(self, seed):
        assert _metrics("intermediate-uniform", "off", seed).trailing_half_ise > 0.0


class TestClassicalUnderVaryingDelay:
    """The classical predictor, tuned to one dead time, helps less than the
    adaptive one on the intermediate presets."""

    def test_trace(self):
        _assert_classical_fails("intermediate-trace")

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_drawn_delays(self, seed):
        _assert_classical_fails("intermediate-uniform", seed)


class TestPointToPointCompensation:
    def test_every_compensator_overshoots_less(self):
        # On the point-to-point link the gain is in the step response.
        off = _metrics("p2p-80ms", "off").percent_overshoot
        for variant in _COMPENSATORS:
            assert _metrics("p2p-80ms", variant).percent_overshoot < off, variant
