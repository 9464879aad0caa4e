"""The abstract's comparisons, as orderings over drawn seeds.

The paper contrasts a point-to-point link, whose delay is almost constant,
with a link through an intermediate node, whose delay varies. Each test
states an ordering and tunes no bound: a seed that breaks one is a fault
in the program, never a seed to draw around.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from wncs.models import SAMPLE_TIME
from wncs.scenario import apply_smith_variant, preset_config, run_closed_loop

# The estimator's start-up: the first 5 s, before its first replies settle.
_SETTLED_TICK = round(5.0 / SAMPLE_TIME)


def _estimate_spread(preset, seed):
    """Max minus min of the delay estimate after start-up, in ms, of an
    uncompensated run of the preset under the "resend" policy."""
    config = dataclasses.replace(preset_config(preset), seed=seed, vacant_policy="resend")
    tm_ms = run_closed_loop(apply_smith_variant(config, "off")).tm_ms[_SETTLED_TICK:]
    return int(tm_ms.max() - tm_ms.min())


class TestDelayRegime:
    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_only_the_point_to_point_estimate_is_constant(self, seed):
        assert _estimate_spread("p2p-80ms", seed) == 0
        assert _estimate_spread("intermediate-uniform", seed) > 0
        assert _estimate_spread("intermediate-trace", seed) > 0
