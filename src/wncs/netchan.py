"""Delay-injecting frame channel.

Each direction of the link draws one delay per frame from its policy; a
frame becomes visible to the receiver once its deliver time passes.
Delivery is FIFO: a frame can never overtake an earlier one, so deliver
times are clamped monotone. Nothing is ever lost, which gives the
conservation invariant sent == delivered + in_flight at all times.

Delays never depend on what the frames carry, so the closed-loop runner
draws each direction's delays for the whole run in one block
(draw_delays) and clamps them in one pass (fifo_deliver_times). Channel
is the per-frame reference of the same rules: it draws through the same
draw_delays, one frame at a time, and queues Frame objects.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass

import numpy as np

from .delay_est import read_table

__all__ = [
    "Frame",
    "Fixed",
    "UniformRandom",
    "Trace",
    "Channel",
    "draw_delays",
    "fifo_deliver_times",
    "read_delay_trace",
    "TRACE_DIRECTIONS",
]


@dataclass(frozen=True)
class Frame:
    """One byte in flight. Times are integer milliseconds."""

    payload: int
    send_time: int
    deliver_time: int

    def __post_init__(self):
        if not 0 <= self.payload <= 255:
            raise ValueError(f"payload {self.payload} outside 0..255")
        if self.deliver_time < self.send_time:
            raise ValueError("deliver_time precedes send_time")


# Largest delay a policy may hold: numpy's int64 draws accept no larger bound,
# and a run's send times plus any delay then still fit an unsigned 64-bit sum.
_INT64_MAX = 2**63 - 1


def _is_delay(value):
    # A plain int first: the ABC test costs about a microsecond per value.
    if type(value) is int:
        return 0 <= value <= _INT64_MAX
    return (
        isinstance(value, numbers.Integral)
        and not isinstance(value, bool)
        and 0 <= value <= _INT64_MAX
    )


@dataclass(frozen=True)
class Fixed:
    """Same delay for every frame."""

    delay_ms: int

    def __post_init__(self):
        if not _is_delay(self.delay_ms):
            raise ValueError(f"delay_ms must be an integer in 0..{_INT64_MAX}")


@dataclass(frozen=True)
class UniformRandom:
    """Integer delay drawn uniformly from [lo_ms, hi_ms], inclusive."""

    lo_ms: int
    hi_ms: int

    def __post_init__(self):
        if not (_is_delay(self.lo_ms) and _is_delay(self.hi_ms) and self.lo_ms <= self.hi_ms):
            raise ValueError(
                f"lo_ms and hi_ms must be integers with 0 <= lo_ms <= hi_ms <= {_INT64_MAX}"
            )


@dataclass(frozen=True)
class Trace:
    """Delays replayed from a recorded list, consumed in order.

    Exhaustion raises unless cycle is set (the bundled preset pattern
    cycles; replayed capture files should not).
    """

    delays_ms: tuple
    cycle: bool = False

    def __post_init__(self):
        if not isinstance(self.delays_ms, (list, tuple)) or not all(map(_is_delay, self.delays_ms)):
            raise ValueError(f"delays_ms must be a list of integers in 0..{_INT64_MAX}")
        if not self.delays_ms:
            raise ValueError("trace must contain at least one delay")
        if not isinstance(self.cycle, bool):
            raise ValueError("cycle must be true or false")
        object.__setattr__(self, "delays_ms", tuple(self.delays_ms))


def draw_delays(policy, n, rng=None, offset=0):
    """Delays in ms of a policy's next n frames, as an int64 array.

    rng is the direction's generator (only UniformRandom draws from it);
    offset is the number of frames already drawn, which is where a trace
    resumes. One block of n uniform draws gives exactly the values of n
    single draws from the same generator.
    """
    if isinstance(policy, Fixed):
        return np.full(n, policy.delay_ms, dtype=np.int64)
    if isinstance(policy, UniformRandom):
        return rng.integers(policy.lo_ms, policy.hi_ms, size=n, endpoint=True)
    if isinstance(policy, Trace):
        if not policy.cycle and offset + n > len(policy.delays_ms):
            raise ValueError(f"delay trace exhausted after {len(policy.delays_ms)} frames")
        return np.take(
            np.array(policy.delays_ms, dtype=np.int64), np.arange(offset, offset + n), mode="wrap"
        )
    raise TypeError(f"unknown delay policy {type(policy).__name__}")


def fifo_deliver_times(send_ms, delays):
    """Deliver times of frames sent in order at send_ms with these delays.

    A frame is clamped to the deliver time of the frame ahead of it, as in
    Channel.send. The sums are unsigned 64-bit, which holds any nonnegative
    send time below 2**63 plus any policy's delay.
    """
    send = np.asarray(send_ms, dtype=np.uint64)
    return np.maximum.accumulate(send + np.asarray(delays, dtype=np.uint64))


class Channel:
    """One direction of the link, clocked in integer milliseconds.

    The per-frame reference of draw_delays and fifo_deliver_times.
    """

    def __init__(self, policy, seed=0):
        self.policy = policy
        self._queue = deque()
        self._last_deliver = 0
        self.sent = 0
        self.delivered = 0
        self._rng = np.random.default_rng(seed)

    def send(self, payload, now):
        """Enqueue one byte at integer-ms time `now`; returns the Frame."""
        deliver = now + int(draw_delays(self.policy, 1, self._rng, offset=self.sent)[0])
        if deliver < self._last_deliver:
            deliver = self._last_deliver  # FIFO: never overtake the frame ahead
        frame = Frame(payload=payload, send_time=now, deliver_time=deliver)
        self._queue.append(frame)
        self._last_deliver = deliver
        self.sent += 1
        return frame

    def poll_frames(self, now):
        """All frames deliverable by `now`, oldest first, removed from flight."""
        out = []
        while self._queue and self._queue[0].deliver_time <= now:
            out.append(self._queue.popleft())
        self.delivered += len(out)
        return out

    @property
    def in_flight(self):
        return len(self._queue)


TRACE_DIRECTIONS = ("ctrl_to_plant", "plant_to_ctrl")


def read_delay_trace(path):
    """Read a `direction,delay_ms` CSV into per-direction delay lists."""
    out = {d: [] for d in TRACE_DIRECTIONS}
    for lineno, row in read_table(path, ("direction", "delay_ms")):
        direction = row[0].strip()
        if direction not in out:
            raise ValueError(
                f"{path}: line {lineno}: unknown direction {direction!r} "
                f"(expected one of {', '.join(TRACE_DIRECTIONS)})"
            )
        try:
            delay = int(row[1])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: delay_ms must be an integer") from None
        if delay < 0:
            raise ValueError(f"{path}: line {lineno}: delay_ms must be nonnegative")
        out[direction].append(delay)
    for direction, delays in out.items():
        if not delays:
            raise ValueError(f"{path}: no rows for direction {direction!r}")
    return out
