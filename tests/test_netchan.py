"""Channel behavior: delay policies, FIFO clamping, polling.

The UniformRandom goldens were produced by driving the documented
generator seeding (np.random.default_rng(seed), integers with
endpoint=True) by hand; they pin the draw sequence so a refactor cannot
silently reorder consumption of the RNG stream.
"""

import numbers

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wncs import netchan
from wncs.delay_est import EstimatorState, Event
from wncs.netchan import (
    Channel,
    Fixed,
    Frame,
    Trace,
    UniformRandom,
    draw_delays,
    read_delay_trace,
)


class TestFrame:
    def test_payload_range(self):
        with pytest.raises(ValueError):
            Frame(payload=256, send_time=0, deliver_time=10)
        with pytest.raises(ValueError):
            Frame(payload=-1, send_time=0, deliver_time=10)

    def test_causality(self):
        with pytest.raises(ValueError):
            Frame(payload=0, send_time=10, deliver_time=9)


class _Int(int):
    pass


_INT64_MAX = 2**63 - 1

# Values of every kind a delay may be given: plain, bool, numpy and
# subclassed integers at and past both ends of the range, and non-integers.
_DELAY_VALUES = (
    st.integers()
    | st.integers(-2, 2)
    | st.integers(_INT64_MAX - 2, _INT64_MAX + 2)
    | st.booleans()
    | st.integers(-(2**63), _INT64_MAX).map(np.int64)
    | st.integers(0, 2**64 - 1).map(np.uint64)
    | st.integers(-128, 127).map(np.int8)
    | st.integers().map(_Int)
    | st.floats()
    | st.fractions()
    | st.text(max_size=2)
    | st.none()
)


def _is_delay_by_abc(value):
    """The delay rule as the number ABCs state it, with no fast path."""
    return (
        isinstance(value, numbers.Integral)
        and not isinstance(value, bool)
        and 0 <= value <= _INT64_MAX
    )


class TestPolicies:
    @given(value=_DELAY_VALUES)
    def test_plain_int_fast_path_keeps_the_abc_verdict(self, value):
        try:
            delay = netchan._delay(value, "not a delay")
        except ValueError:
            assert not _is_delay_by_abc(value)
        else:
            assert _is_delay_by_abc(value)
            assert type(delay) is int and delay == value

    def test_fixed_negative_rejected(self):
        with pytest.raises(ValueError):
            Fixed(-1)

    def test_uniform_bounds_rejected(self):
        with pytest.raises(ValueError):
            UniformRandom(100, 50)
        with pytest.raises(ValueError):
            UniformRandom(-1, 50)

    def test_trace_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Trace(())

    def test_trace_rejects_negative(self):
        with pytest.raises(ValueError):
            Trace((10, -5))

    @pytest.mark.parametrize(
        "policy, args, key",
        [
            (Fixed, (40.9,), "delay_ms"),
            (Fixed, (True,), "delay_ms"),
            (UniformRandom, (80, 200.5), "hi_ms"),
            (Trace, ((10, 2.5),), "delays_ms"),
            (Trace, (5,), "delays_ms"),
            (Trace, ((10,), 1), "cycle"),
            (UniformRandom, (0, 2**63), "hi_ms"),
            (Fixed, (2**63,), "delay_ms"),
            (Trace, ((10, 2**63),), "delays_ms"),
        ],
    )
    def test_non_integer_fields_rejected(self, policy, args, key):
        with pytest.raises(ValueError, match=key):
            policy(*args)


class TestChannelDelays:
    def test_fixed_delay(self):
        ch = Channel(Fixed(80))
        frame = ch.send(7, now=100)
        assert frame.deliver_time == 180
        assert ch.poll_frames(179) == []
        assert ch.poll_frames(180) == [frame]

    def test_uniform_spaced_draw_sequence(self):
        # seed 0, sends 1000 ms apart so FIFO clamping never engages
        ch = Channel(UniformRandom(160, 400), seed=0)
        delays = [ch.send(0, now=1000 * k).deliver_time - 1000 * k for k in range(8)]
        assert delays == [365, 313, 283, 225, 234, 169, 178, 163]

    def test_uniform_seed_override(self):
        # the channel's seed alone decides the draws; the default is seed 0
        def draws(ch):
            return [ch.send(0, 1000 * k).deliver_time - 1000 * k for k in range(5)]

        policy = UniformRandom(160, 400)
        assert draws(Channel(policy)) == draws(Channel(policy, seed=0))
        assert draws(Channel(policy, seed=123)) == draws(Channel(policy, seed=123))
        assert draws(Channel(policy, seed=123)) != draws(Channel(policy, seed=0))

    def test_fifo_clamp_flattens_close_sends(self):
        # first draw is 365; later, smaller draws cannot overtake it
        ch = Channel(UniformRandom(160, 400), seed=0)
        times = [ch.send(0, now=k).deliver_time for k in range(8)]
        assert times[0] == 365
        assert times == sorted(times)
        # draws 2..8 all land below 365+k, so every frame is clamped
        assert times == [365] * 8

    def test_trace_replays_in_order(self):
        ch = Channel(Trace((5, 10, 15)))
        assert [ch.send(0, now=0).deliver_time for _ in range(3)] == [5, 10, 15]

    def test_trace_exhaustion_raises(self):
        ch = Channel(Trace((5,)))
        ch.send(0, now=0)
        with pytest.raises(ValueError, match="exhausted"):
            ch.send(0, now=1)

    def test_trace_cycles_when_asked(self):
        ch = Channel(Trace((5, 10), cycle=True))
        delays = [ch.send(0, now=0).deliver_time for _ in range(5)]
        assert delays == [5, 10, 10, 10, 10]  # clamp keeps them monotone
        ch2 = Channel(Trace((5, 10), cycle=True))
        raw = [ch2.send(0, now=100 * k).deliver_time - 100 * k for k in range(5)]
        assert raw == [5, 10, 5, 10, 5]

    def test_unknown_policy_rejected(self):
        ch = Channel(policy=object())
        with pytest.raises(TypeError):
            ch.send(0, now=0)


class TestDrawDelays:
    @pytest.mark.parametrize(
        "lo, hi", [(80, 200), (160, 400), (0, 0), (0, 2**31), (0, 2**63 - 1)]
    )
    def test_uniform_block_equals_single_draws(self, lo, hi):
        singles = np.random.default_rng(11)
        want = [int(singles.integers(lo, hi, endpoint=True)) for _ in range(600)]
        got = draw_delays(UniformRandom(lo, hi), 600, np.random.default_rng(11))
        assert got.tolist() == want

    def test_trace_resumes_at_offset_and_cycles(self):
        policy = Trace((5, 10, 15), cycle=True)
        assert draw_delays(policy, 5, offset=2).tolist() == [15, 5, 10, 15, 5]

    @given(
        delays=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=10),
        cycle=st.booleans(),
        offset=st.integers(0, 30),
        n=st.just(1) | st.integers(0, 30),  # Channel.send draws one frame at a time
    )
    def test_trace_takes_n_entries_from_offset(self, delays, cycle, offset, n):
        policy = Trace(delays, cycle)
        if not cycle and offset + n > len(delays):
            with pytest.raises(ValueError, match=f"exhausted after {len(delays)} frames"):
                draw_delays(policy, n, offset=offset)
        else:
            want = np.take(np.array(delays, dtype=np.int64), np.arange(offset, offset + n), mode="wrap")
            got = draw_delays(policy, n, offset=offset)
            assert got.dtype == np.int64 and got.tolist() == want.tolist()

    def test_trace_exhaustion_counts_the_offset(self):
        policy = Trace((5, 10, 15))
        assert draw_delays(policy, 1, offset=2).tolist() == [15]
        with pytest.raises(ValueError, match="exhausted after 3 frames"):
            draw_delays(policy, 2, offset=2)

    def test_unknown_policy_rejected(self):
        with pytest.raises(TypeError):
            draw_delays(object(), 3)


class TestPolling:
    def test_poll_keeps_newest_and_counts_drained(self):
        ch = Channel(Fixed(10))
        ch.send(1, now=0)
        ch.send(2, now=3)
        ch.send(3, now=5)
        frames = ch.poll_frames(now=15)
        assert frames[-1].payload == 3
        assert len(frames) == 3
        assert ch.poll_frames(now=16) == []

    def test_poll_frames_is_fifo(self):
        ch = Channel(Fixed(0))
        for k in range(4):
            ch.send(k, now=k)
        frames = ch.poll_frames(now=10)
        assert [f.payload for f in frames] == [0, 1, 2, 3]

    def test_partial_drain(self):
        ch = Channel(Fixed(10))
        ch.send(1, now=0)   # deliverable at 10
        ch.send(2, now=20)  # deliverable at 30
        frames = ch.poll_frames(now=10)
        assert [f.payload for f in frames] == [1]
        assert ch.in_flight == 1

    def test_conservation_counters(self):
        ch = Channel(Fixed(50))
        for k in range(6):
            ch.send(k, now=k * 20)
        ch.poll_frames(now=70)
        assert ch.sent == 6
        assert ch.sent == ch.delivered + ch.in_flight

    @given(
        sends=st.lists(st.tuples(st.integers(0, 500), st.integers(0, 100)), max_size=30),
        poll_at=st.integers(0, 700),
    )
    def test_conservation_invariant(self, sends, poll_at):
        # nothing is ever lost or reordered, regardless of send times or delays
        ch = Channel(Trace(tuple(d for _, d in sends) or (0,)))
        now = 0
        for k, (offset, _) in enumerate(sends):
            now += offset
            ch.send(k, now=now)
        frames = ch.poll_frames(now=poll_at)
        assert ch.sent == ch.delivered + ch.in_flight
        assert ch.sent == len(sends)
        frames += ch.poll_frames(now=now + 100)
        assert [f.payload for f in frames] == list(range(len(sends)))
        for f, prev, (_, delay) in zip(frames, [None] + frames, sends):
            assert f.deliver_time >= f.send_time + delay
            assert prev is None or f.deliver_time >= prev.deliver_time


class TestClassify:
    """What the controller makes of one period's arrivals from the link.

    The controller's estimator classifies them when it closes the period;
    classify(rtt, arrivals, period) drives it with that many arrivals, each
    answering a frame sent at 0 with the given RTT, or unmatched when the
    RTT is None.
    """

    @staticmethod
    def classify(rtt, arrivals, period_ms):
        state = EstimatorState()
        for i in range(arrivals):
            if rtt is None:
                state.on_unmatched_receive(0)
            else:
                state.on_send(i, 0)
                state.on_receive(i, rtt)
        return state.estimate_at_sample(period_ms, period_ms)[1]

    def test_vacant(self):
        assert self.classify(None, 0, 20) is Event.VACANT

    def test_rejection_wins_over_delay(self):
        assert self.classify(500, 2, 20) is Event.MESSAGE_REJECTION

    def test_normal_below_period(self):
        assert self.classify(19, 1, 20) is Event.NORMAL

    def test_boundary_is_delayed(self):
        # strict comparison: a full period of round trip is already late
        assert self.classify(20, 1, 20) is Event.DELAYED

    def test_unmatched_arrival_is_normal(self):
        assert self.classify(None, 1, 20) is Event.NORMAL

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            self.classify(10, 1, 0)
        with pytest.raises(ValueError):
            self.classify(10, 1, -20)


class TestReadDelayTrace:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "direction,delay_ms\n"
            "ctrl_to_plant,30\n"
            "plant_to_ctrl,45\n"
            "ctrl_to_plant,10\n"
        )
        out = read_delay_trace(path)
        assert out["ctrl_to_plant"] == [30, 10]
        assert out["plant_to_ctrl"] == [45]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("dir,delay\nctrl_to_plant,30\n")
        with pytest.raises(ValueError, match="line 1"):
            read_delay_trace(path)

    def test_unknown_direction(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("direction,delay_ms\nupstream,30\n")
        with pytest.raises(ValueError, match="unknown direction"):
            read_delay_trace(path)

    def test_non_integer_delay(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("direction,delay_ms\nctrl_to_plant,fast\n")
        with pytest.raises(ValueError, match="integer"):
            read_delay_trace(path)

    def test_negative_delay(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("direction,delay_ms\nctrl_to_plant,-3\n")
        with pytest.raises(ValueError, match="nonnegative"):
            read_delay_trace(path)

    def test_missing_direction(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("direction,delay_ms\nctrl_to_plant,30\n")
        with pytest.raises(ValueError, match="no rows"):
            read_delay_trace(path)

    def test_wrong_field_count_names_the_file_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("direction,delay_ms\n\nctrl_to_plant,30\n \nplant_to_ctrl,45,1\n")
        with pytest.raises(ValueError) as exc:
            read_delay_trace(path)
        assert str(exc.value) == f"{path}: line 5: expected 2 fields, got 3"

    def test_blank_lines_are_skipped_and_counted(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(" direction , delay_ms\r\n\r\nctrl_to_plant,30\r\n\r\nplant_to_ctrl,45\r\n")
        assert read_delay_trace(path) == {"ctrl_to_plant": [30], "plant_to_ctrl": [45]}
        path.write_text("direction,delay_ms\n\n\nupstream,30\n")
        with pytest.raises(ValueError, match=r"line 4: unknown direction 'upstream'"):
            read_delay_trace(path)
