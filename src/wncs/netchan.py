"""Delay-injecting frame channel and transmission-event classification.

Each direction of the link is one Channel: byte frames enter with a
per-frame delay drawn from the channel's policy and become visible to the
receiver once their deliver time passes. Delivery is FIFO: a frame can
never overtake an earlier one, so deliver times are clamped monotone.
Nothing is ever lost, which gives the conservation invariant
sent == delivered + in_flight at all times.

Classification follows the receiver's per-sample view: no arrival is a
vacant sample, multiple arrivals are a message rejection (only the newest
payload is kept), a single arrival is normal when its round-trip time is
strictly below the sampling period and delayed otherwise.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Event",
    "Frame",
    "Fixed",
    "UniformRandom",
    "Trace",
    "Channel",
    "classify",
    "read_delay_trace",
    "TRACE_DIRECTIONS",
]


class Event(str, Enum):
    NORMAL = "normal"
    VACANT = "vacant"
    MESSAGE_REJECTION = "rejection"
    DELAYED = "delayed"


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


@dataclass(frozen=True)
class Fixed:
    """Same delay for every frame."""

    delay_ms: int

    def __post_init__(self):
        if self.delay_ms < 0:
            raise ValueError("delay must be nonnegative")


@dataclass(frozen=True)
class UniformRandom:
    """Integer delay drawn uniformly from [lo_ms, hi_ms], inclusive."""

    lo_ms: int
    hi_ms: int

    def __post_init__(self):
        if not 0 <= self.lo_ms <= self.hi_ms:
            raise ValueError("need 0 <= lo_ms <= hi_ms")


@dataclass(frozen=True)
class Trace:
    """Delays replayed from a recorded list, consumed in order.

    Exhaustion raises unless cycle is set (the bundled preset pattern
    cycles; replayed capture files should not).
    """

    delays_ms: tuple
    cycle: bool = False

    def __post_init__(self):
        delays = tuple(int(d) for d in self.delays_ms)
        if not delays:
            raise ValueError("trace must contain at least one delay")
        if any(d < 0 for d in delays):
            raise ValueError("trace delays must be nonnegative")
        object.__setattr__(self, "delays_ms", delays)


class Channel:
    """One direction of the link, clocked in integer milliseconds."""

    def __init__(self, policy, seed=0):
        self.policy = policy
        self._queue = deque()
        self._last_deliver = 0
        self._trace_pos = 0
        self.sent = 0
        self.delivered = 0
        if isinstance(policy, UniformRandom):
            self._rng = np.random.default_rng(seed)
        else:
            self._rng = None

    def _sample_delay(self):
        p = self.policy
        if isinstance(p, Fixed):
            return p.delay_ms
        if isinstance(p, UniformRandom):
            return int(self._rng.integers(p.lo_ms, p.hi_ms, endpoint=True))
        if isinstance(p, Trace):
            if self._trace_pos >= len(p.delays_ms):
                if not p.cycle:
                    raise ValueError(
                        f"delay trace exhausted after {len(p.delays_ms)} frames"
                    )
                self._trace_pos = 0
            d = p.delays_ms[self._trace_pos]
            self._trace_pos += 1
            return d
        raise TypeError(f"unknown delay policy {type(p).__name__}")

    def send(self, payload, now):
        """Enqueue one byte at integer-ms time `now`; returns the Frame."""
        deliver = now + self._sample_delay()
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

    def poll(self, now):
        """(newest deliverable frame or None, count drained this poll).

        Earlier deliverable frames are discarded: the receiver keeps only
        the most recent payload, counting the rest as rejected messages.
        """
        frames = self.poll_frames(now)
        return (frames[-1] if frames else None, len(frames))

    @property
    def in_flight(self):
        return len(self._queue)


def classify(rtt_ms, drained, period_ms):
    """Transmission event class for one receiver sampling instant.

    rtt_ms may be None for a data arrival with no matched outstanding send
    (startup); such an arrival counts as normal. The normal/delayed boundary
    is strict: rtt == period classifies as delayed.
    """
    if drained < 0:
        raise ValueError("drained count must be nonnegative")
    if period_ms <= 0:
        raise ValueError("period must be positive")
    if drained == 0:
        return Event.VACANT
    if drained >= 2:
        return Event.MESSAGE_REJECTION
    if rtt_ms is None or rtt_ms < period_ms:
        return Event.NORMAL
    return Event.DELAYED


TRACE_DIRECTIONS = ("ctrl_to_plant", "plant_to_ctrl")


def read_delay_trace(path):
    """Read a `direction,delay_ms` CSV into per-direction delay lists."""
    out = {d: [] for d in TRACE_DIRECTIONS}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["direction", "delay_ms"]:
            raise ValueError(f"{path}: line 1: expected header 'direction,delay_ms'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 2 fields")
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
