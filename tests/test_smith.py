"""Predictor minor-loop tests.

The load-bearing one is the cancellation identity: with a perfect model
copy the compensated loop must reproduce the delay-free loop shifted by
the dead time, to numerical noise, for any shift length. Its failure mode
(a mismatched model pole) is pinned at the magnitude observed with the
0.90-for-0.92 substitution so regressions in either direction show up.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wncs.smith
from conftest import emptied_memo
from wncs.delay_approx import ApproxKind, discretize_series
from wncs.lti import DiscreteTf, filter_sequence
from wncs.models import MAX_DURATION_S, SAMPLE_TIME, predictor_model_tf, pulse_tf_nominal
from wncs.pid import PiGains
from wncs.scenario import apply_smith_variant, preset_config, run_closed_loop
from wncs.smith import SmithPredictor, delay_schedule, predictor_identity_check

CONTROLLER = PiGains(kp=1.69, ki=7.44, sample_time=0.02)


def _classical(tau_s):
    return SmithPredictor("classical", tau_s=tau_s)


def _adaptive(**kwargs):
    return SmithPredictor("adaptive", **kwargs)


def _tick(predictor, u):
    """One loop tick: the correction first, then the decided input."""
    correction = predictor.preview()
    predictor.commit(u)
    return correction


class TestConfig:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            SmithPredictor("feedforward")

    def test_negative_tau(self):
        with pytest.raises(ValueError, match="tau_s must be within 0..3600 s"):
            _classical(-0.1)

    @pytest.mark.parametrize("tau_s", [math.nan, math.inf, math.nextafter(3600.0, math.inf)])
    def test_tau_outside_the_dead_time_bound(self, tau_s):
        # the shift register holds round(tau_s / T) slots, allocated up front
        with pytest.raises(ValueError, match="tau_s must be within 0..3600 s"):
            _classical(tau_s)

    def test_tau_at_the_bound_builds(self):
        assert len(_classical(MAX_DURATION_S)._shift) == 180_000

    def test_adaptive_kind_accepts_string(self):
        assert _adaptive(kind="pade2")._kind is ApproxKind.PADE2


class TestClassical:
    def test_correction_is_model_minus_shifted_model(self):
        # constant input: correction(k) must equal y(k) - y(k-2) of the
        # model's step response
        d = 2
        state = _classical(d * 0.02)
        y = filter_sequence(predictor_model_tf(), [1.0] * 12)
        for k in range(12):
            expected = y[k] - (y[k - d] if k >= d else 0.0)
            assert _tick(state, 1.0) == pytest.approx(expected, abs=1e-12)
    def test_zero_tau_correction_vanishes(self):
        state = _classical(0.0)
        for u in (1.0, -0.5, 2.0, 0.0):
            assert _tick(state, u) == 0.0

    def test_update_rejected(self):
        state = _classical(0.04)
        with pytest.raises(ValueError, match="classical"):
            state.update_delay_estimate(100)


class TestAdaptive:
    def test_starts_as_identity_delay(self):
        state = _adaptive()
        for u in (1.0, 0.5, 2.0):
            assert _tick(state, u) == 0.0

    def test_update_engages_the_series(self):
        state = _adaptive()
        state.update_delay_estimate(200)
        corrections = [_tick(state, 1.0) for _ in range(6)]
        assert any(abs(c) > 1e-6 for c in corrections)

    def test_negative_estimate_rejected(self):
        state = _adaptive()
        with pytest.raises(ValueError):
            state.update_delay_estimate(-5)

    def test_unchanged_estimate_skips_rebind(self):
        state = _adaptive()
        state.update_delay_estimate(150)
        rebuilt = state._delay.tf
        state.update_delay_estimate(150)
        assert state._delay.tf is rebuilt

    def test_no_smoothing_tracks_estimate_directly(self):
        state = _adaptive()
        state.update_delay_estimate(100)
        state.update_delay_estimate(200)
        assert state._current_tau == pytest.approx(0.2)


# A run's estimates drawn from a small pool, so values repeat and return to
# earlier taus; zero and 40 ms (where the marshall and laguerre series drop
# to a lower order) are always in it. Each tick: its estimate and whether
# the controller runs (every tick under "resend").
_SCHEDULE_TICKS = st.lists(st.integers(0, 600), min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(
        st.tuples(st.sampled_from([0, 40, *pool]), st.booleans()), min_size=1, max_size=80
    )
)

_SWAPS_THROUGH_40_MS = [(0, True), (0, True), (40, True), (60, True), (40, True)]


def _taps(tf):
    """A model of order two or less as (b0, b1, b2, a1, a2, nx, nw).

    Missing coefficients are 0.0; nx and nw are len(num) - 1 and
    len(den) - 1, the window lengths a DifferenceEqState bound to it keeps.
    """
    num = tf.num + (0.0,) * (3 - len(tf.num))
    den = tf.den[1:] + (0.0,) * (3 - len(tf.den))
    return (*num, *den, len(tf.num) - 1, len(tf.den) - 1)


def _hex(row):
    return tuple(x.hex() if isinstance(x, float) else x for x in row)


def _error(call):
    try:
        call()
    except Exception as exc:  # the type is part of what is compared
        return type(exc), str(exc)
    return None


def _scalar_rows(kind, taus):
    return [_hex(_taps(discretize_series(kind, tau, SAMPLE_TIME))) for tau in taus]


def _run_bytes(kind, seconds=5.0):
    """An adaptive run of kind on intermediate-uniform at seed 1, as bytes."""
    config = dataclasses.replace(
        preset_config("intermediate-uniform"),
        seed=1,
        duration_s=seconds,
        smith_mode="adaptive",
        smith_kind=kind,
    )
    record = run_closed_loop(config)
    return b"".join(getattr(record, name).tobytes() for name in ("speed_meas", "duty", "tm_ms"))


class TestDelaySchedule:
    """smith.delay_schedule against SmithPredictor updated tick by tick."""

    @settings(deadline=None, max_examples=80)
    @given(
        kind=st.sampled_from(ApproxKind),
        policy=st.sampled_from(["resend", "hold"]),
        ticks=_SCHEDULE_TICKS,
    )
    # The identity model held, then each window kept in part: marshall
    # reads one past input at 40 ms, laguerre no past output.
    @example(ApproxKind.MARSHALL, "resend", _SWAPS_THROUGH_40_MS)
    @example(ApproxKind.LAGUERRE, "resend", _SWAPS_THROUGH_40_MS)
    def test_schedule_equals_update_delay_estimate(self, kind, policy, ticks):
        tm_ms = np.array([tm for tm, _ in ticks], dtype=np.int64)
        updates = [policy == "resend" or runs for _, runs in ticks]
        taus, rows, index = delay_schedule(kind, tm_ms, np.flatnonzero(updates), np.cumsum(updates))
        predictor = _adaptive(kind=kind)
        assert len(index) == len(ticks)
        assert len(rows) == len(taus)
        previous = -1  # no model before tick 0
        for tm, update, k in zip(tm_ms.tolist(), updates, index.tolist()):
            bound = predictor._delay.tf
            if update:
                predictor.update_delay_estimate(tm)
            assert taus[k] == predictor._current_tau
            assert _hex(rows[k]) == _hex(_taps(predictor._delay.tf))
            if k == previous:
                assert predictor._delay.tf is bound
            previous = k
        assert taus.tolist() == sorted(set(taus.tolist()))

    def test_negative_estimate_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            delay_schedule(ApproxKind.DFR, np.array([0, -1]), np.array([0, 1]), np.array([1, 2]))

    def test_each_tau_discretized_at_most_once_per_process(self, monkeypatch):
        calls = []
        row = wncs.smith._row

        def recording_row(kind, tau):
            calls.append((kind, tau))
            return row(kind, tau)

        monkeypatch.setattr(wncs.smith, "_row", recording_row)
        config = dataclasses.replace(preset_config("intermediate-uniform"), seed=1)
        variants = ("adaptive-dfr", "adaptive-dfr", "adaptive-pade", "adaptive-dfr")
        with emptied_memo(wncs.smith, "_TABLE"):
            records = [run_closed_loop(apply_smith_variant(config, v)) for v in variants]
        # One row per (kind, tau) in the process, each at the first run of
        # its kind, in ascending tau. "resend" updates on every tick, so each
        # tick's tau is its estimate, and every run has the same estimates.
        taus = sorted(set((records[0].tm_ms / 1000.0).tolist()))
        assert calls == [(kind, tau) for kind in (ApproxKind.DFR, ApproxKind.PADE2) for tau in taus]
        assert len(taus) < 0.15 * records[0].t_ms.size


_TAUS = st.integers(0, 2000).map(lambda ms: ms / 1000.0) | st.floats(0.0, 20.0)


class TestTauTable:
    """smith's per-process table of delay-model rows."""

    @settings(deadline=None, max_examples=60)
    @given(
        kind=st.sampled_from(ApproxKind),
        taus=st.lists(_TAUS, min_size=1, max_size=12, unique=True),
        split=st.integers(0, 12),
        second_first=st.booleans(),
    )
    def test_a_row_does_not_depend_on_its_batch(self, kind, taus, split, second_first):
        # one batch alone, then the whole set: the batch's rows taken from
        # the table, the rest discretized one tau at a time
        batch = taus[split:] if second_first else taus[:split]
        with emptied_memo(wncs.smith, "_TABLE"):
            first = wncs.smith._table_rows(kind, batch)
            both = wncs.smith._table_rows(kind, taus)
        assert [_hex(row) for row in first] == _scalar_rows(kind, batch)
        assert [_hex(row) for row in both] == _scalar_rows(kind, taus)

    def test_kinds_share_the_table_without_sharing_rows(self):
        with emptied_memo(wncs.smith, "_TABLE"):
            dfr = _run_bytes("dfr")
        with emptied_memo(wncs.smith, "_TABLE"):
            pade2 = _run_bytes("pade2")
        with emptied_memo(wncs.smith, "_TABLE"):
            assert (_run_bytes("dfr"), _run_bytes("pade2")) == (dfr, pade2)
            assert (_run_bytes("pade2"), _run_bytes("dfr")) == (pade2, dfr)

    @pytest.mark.parametrize("tau", [-1e-3, math.nan, math.inf, 1e200], ids=repr)
    def test_a_batch_that_raises_leaves_the_table_unchanged(self, tau):
        # A bad tau behind a hit: the table is full, so storing the tau's row
        # would empty it first, but a tau that raises stores nothing, under
        # its own key or any other. (A new tau ahead of it is stored: see
        # the test below.)
        with emptied_memo(wncs.smith, "_TABLE", 3) as table:
            wncs.smith._table_rows(ApproxKind.DFR, [0.02, 0.04, 0.06])
            before = dict(table)
            want = _error(lambda: discretize_series(ApproxKind.DFR, tau, SAMPLE_TIME))
            assert want is not None
            assert _error(lambda: wncs.smith._table_rows(ApproxKind.DFR, [0.02, tau])) == want
            assert table == before

    @pytest.mark.parametrize("tau", [-1e-3, math.nan, math.inf, 1e200], ids=repr)
    def test_a_tau_that_raises_stores_nothing_under_its_own_key(self, tau):
        # Rows are stored one at a time, so a call is not all or nothing: the
        # new 0.07 ahead of the bad tau is stored, emptying the full table
        # first, before the bad tau raises.
        with emptied_memo(wncs.smith, "_TABLE", 3) as table:
            wncs.smith._table_rows(ApproxKind.DFR, [0.02, 0.04, 0.06])
            want = _error(lambda: discretize_series(ApproxKind.DFR, tau, SAMPLE_TIME))
            assert want is not None
            assert _error(lambda: wncs.smith._table_rows(ApproxKind.DFR, [0.07, tau])) == want
            assert list(table) == [(ApproxKind.DFR, 0.07)]
            assert [_hex(table[ApproxKind.DFR, 0.07])] == _scalar_rows(ApproxKind.DFR, [0.07])

    def test_the_cap_bounds_the_table(self):
        kind = ApproxKind.MARSHALL
        with emptied_memo(wncs.smith, "_TABLE", 8) as table:
            for start in range(0, 60, 3):
                taus = [ms / 1000.0 for ms in range(start, start + 6)]
                rows = wncs.smith._table_rows(kind, taus)
                assert [_hex(row) for row in rows] == _scalar_rows(kind, taus)
                assert 0 < len(table) <= 8
            # a batch larger than the cap empties the table as it goes
            taus = [ms / 1000.0 for ms in range(100, 112)]
            rows = wncs.smith._table_rows(kind, taus)
            assert [_hex(row) for row in rows] == _scalar_rows(kind, taus)
            assert len(table) <= 8

    def test_a_run_with_more_taus_than_the_cap_keeps_its_bytes(self):
        with emptied_memo(wncs.smith, "_TABLE") as table:
            want = _run_bytes("dfr")
            assert len(table) > 8
        with emptied_memo(wncs.smith, "_TABLE", 8) as table:
            assert _run_bytes("dfr") == want
            # a row stored beside the run's rows: they empty the table again
            wncs.smith._table_rows(ApproxKind.DFR, [0.5])
            assert _run_bytes("dfr") == want
            assert len(table) <= 8


def _dense_taus():
    """Taus in seconds: every whole millisecond to 2 s (zero and the 40 ms
    order drop of marshall and laguerre among them), taus small enough that
    tau**2 or tau itself underflows, uniform and log-uniform floats, and
    exponential averages of whole-millisecond estimates, which fall
    between the milliseconds."""
    rng = np.random.default_rng(14)
    whole_ms = [ms / 1000.0 for ms in range(2001)] + [5e-324, 1e-320, 1e-200, 1e-160]
    uniform = rng.uniform(0.0, 20.0, 300).tolist()
    log_uniform = (10.0 ** rng.uniform(-9.0, 1.5, 300)).tolist()
    averaged = []
    for alpha in (0.3, 0.9):
        tau = 0.0
        for tm in rng.integers(0, 400, 150).tolist():
            tau = alpha * tau + (1.0 - alpha) * (tm / 1000.0)
            averaged.append(tau)
    return sorted(set(whole_ms + uniform + log_uniform + averaged))


class TestSeriesTaps:
    """The tau table's rows of series taps (smith._row, through
    _table_rows) against the taps of discretize_series."""

    TAUS = _dense_taus()

    @pytest.mark.parametrize("kind", list(ApproxKind))
    def test_equals_discretize_series_on_a_dense_grid(self, kind):
        with emptied_memo(wncs.smith, "_TABLE") as table:
            rows = wncs.smith._table_rows(kind, self.TAUS)
            assert len(table) == len(self.TAUS)
        assert len(rows) == len(self.TAUS)
        for tau, row in zip(self.TAUS, rows):
            assert _hex(row) == _hex(_taps(discretize_series(kind, tau, SAMPLE_TIME))), tau

    @pytest.mark.parametrize(
        "kind, nx, nw", [(ApproxKind.MARSHALL, 1, 2), (ApproxKind.LAGUERRE, 2, 0)]
    )
    def test_order_drops_at_40_ms(self, kind, nx, nw):
        # marshall's numerator loses z^-2; laguerre's model is a pure z^-2.
        got = [wncs.smith._row(kind, tau)[5:] for tau in (0.0, 0.039, 0.04, 0.041)]
        assert got == [(0, 0), (2, 2), (nx, nw), (2, 2)]

    @pytest.mark.parametrize("kind", list(ApproxKind))
    def test_zero_tau_is_identity(self, kind):
        assert _hex(wncs.smith._row(kind, 0.0)) == _hex((1.0, 0.0, 0.0, 0.0, 0.0, 0, 0))

    @pytest.mark.parametrize(
        "tau", [-1e-3, -math.inf, math.nan, math.inf, 1e154, 1e200], ids=repr
    )
    def test_errors_match_discretize_series(self, tau):
        # The table raises the reference's own error, for a tau alone and
        # for one behind a tau it has just stored.
        want = _error(lambda: discretize_series(ApproxKind.DFR, tau, SAMPLE_TIME))
        assert want is not None
        with emptied_memo(wncs.smith, "_TABLE"):
            assert _error(lambda: wncs.smith._table_rows(ApproxKind.DFR, [tau])) == want
            assert _error(lambda: wncs.smith._table_rows(ApproxKind.DFR, [0.04, tau])) == want


# predictor_identity_check's return value for d = 0..30 with c06's
# mismatched model (pole 0.90 for 0.92), bit for bit. With the perfect
# model every value is exactly 0.0, and d = 0 is 0.0 with either model.
IDENTITY_MISMATCHED_HEX = [
    "0x0.0p+0",
    "0x1.f595321c84180p-8",
    "0x1.f96a8b6dfcb40p-7",
    "0x1.7d1496ee24320p-6",
    "0x1.fde8b8145c6c0p-6",
    "0x1.3fac5c34ea670p-5",
    "0x1.7fb5b96fa54d0p-5",
    "0x1.bf496097aded0p-5",
    "0x1.fe5a0e8532050p-5",
    "0x1.1df5372b545c0p-4",
    "0x1.3c3bd30938ac0p-4",
    "0x1.5a25432237818p-4",
    "0x1.77194e08e2938p-4",
    "0x1.935f1f7fa2468p-4",
    "0x1.af4cce1493570p-4",
    "0x1.ca281bd5123e8p-4",
    "0x1.e40308b86b068p-4",
    "0x1.fdc4353170ee0p-4",
    "0x1.0b33920337770p-3",
    "0x1.16f5660ed12e0p-3",
    "0x1.22785a8dfac80p-3",
    "0x1.2dab4f6f0d57cp-3",
    "0x1.3851388399014p-3",
    "0x1.426cc59e70df8p-3",
    "0x1.4c5320bff02a8p-3",
    "0x1.55e7b1dadd19cp-3",
    "0x1.5ef930a84e478p-3",
    "0x1.678bef79495a4p-3",
    "0x1.6faae41c0a86cp-3",
    "0x1.77c38190802c4p-3",
    "0x1.7f66d08d41f48p-3",
]


class TestIdentity:
    @pytest.mark.parametrize("d", [1, 7, 30])
    def test_perfect_model_cancels(self, d):
        worst = predictor_identity_check(CONTROLLER, pulse_tf_nominal(), d)
        assert worst < 1e-9

    def test_no_delay_is_exactly_zero(self):
        assert predictor_identity_check(CONTROLLER, pulse_tf_nominal(), 0) == 0.0

    def test_mismatched_model_breaks_cancellation(self):
        wrong = DiscreteTf((0.0, 0.0831), (1.0, -0.90), 0.02)
        worst = predictor_identity_check(
            CONTROLLER, pulse_tf_nominal(), 10, model=wrong
        )
        assert worst > 1e-3
        # magnitude observed for the 0.90-for-0.92 pole substitution
        assert worst == pytest.approx(0.0772, abs=0.002)

    def test_return_values_pinned(self):
        mismatched = DiscreteTf((0.0, 0.0831), (1.0, -0.90), SAMPLE_TIME)
        perfect = [predictor_identity_check(CONTROLLER, pulse_tf_nominal(), d) for d in range(31)]
        wrong = [
            predictor_identity_check(CONTROLLER, pulse_tf_nominal(), d, model=mismatched)
            for d in range(31)
        ]
        assert [x.hex() for x in perfect] == ["0x0.0p+0"] * 31
        assert [x.hex() for x in wrong] == IDENTITY_MISMATCHED_HEX

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            predictor_identity_check(CONTROLLER, pulse_tf_nominal(), -1)
        direct = DiscreteTf((0.5,), (1.0, -0.9), 0.02)
        with pytest.raises(ValueError):
            predictor_identity_check(CONTROLLER, direct, 5)
        # the correction for a tick is computed before that tick's input exists
        direct_model = DiscreteTf((0.5, 0.1), (1.0, -0.9), 0.02)
        with pytest.raises(ValueError, match="strictly proper"):
            predictor_identity_check(CONTROLLER, pulse_tf_nominal(), 2, model=direct_model)
        # one sample past the hour, rejected before the shift register exists
        with pytest.raises(ValueError, match="tau_s must be within 0..3600 s"):
            predictor_identity_check(CONTROLLER, pulse_tf_nominal(), 180_001)
