"""Controller-side round-trip delay measurement and per-sample estimation.

The controller can only bound the network delay from its own clock: it
remembers when each of its frames left (on_send) and subtracts that from
the arrival time of the frame that answers it (on_receive). Matching is
FIFO, oldest pending first: estimate_stream matches the closed loop's
arrivals by count, while the bundled loopback capture keys frames by the
echoed byte values themselves.

The per-sample estimate t_m follows four regimes, keyed by what arrived
during the last sampling period:

  no arrival       vacant sample: the previous estimate grows by one period
                   (the outstanding frame is at least that late)
  one arrival      t_m = its RTT; normal when the RTT is strictly below the
                   period, delayed otherwise (an RTT of exactly one period
                   is already late)
  many arrivals    message rejection, whatever the RTTs: only the newest
                   frame's RTT is kept
  unmatched data   arrival with nothing outstanding (startup): estimate
                   unchanged, classified normal

Two bookkeeping streams run side by side. RTTs come from id matching as
above. Separately, every arrival EVENT, including ones carrying no data,
consumes the oldest unpaired send time into a diff history; across a vacant
run these diffs telescope so their sum equals the first arrival's RTT,
which is the cross-check replay_capture's tests pin down.

In the closed loop the estimate depends only on link timing, never on
plant values, so the runner takes the whole run's output from
estimate_stream before its first tick. That output stays as int columns
(estimate, event code, kept RTT) up to write_log_csv, which hands them to
write_table; no row object exists. EstimatorState is the per-arrival
reference of the same rules, the one replay_capture drives, and its log
holds the same rows as tuples.

All times are integer milliseconds; estimates deliberately keep millisecond
resolution rather than rounding to sampling periods, because the adaptive
compensator consumes them directly.

The file readers and writers live here because this is the lowest module
that touches a file. Every file wncs writes is a CSV table formatted by
write_table, in one bytes % operation, and written by write_text;
distinct_cells formats a column's repeated values once each. Every file
wncs reads is read once, as bytes, by read_text (a leading byte-order mark
dropped, then UTF-8); the CSV files, an identification log and a delay
trace, go on to read_table, which checks the header and the field count
and leaves each caller only its own field rules.
"""

from __future__ import annotations

import io
import os
from collections import deque
from enum import Enum

import numpy as np

from .lti import _distinct

__all__ = [
    "Event",
    "EstimatorState",
    "EVENTS",
    "EVENT_NAMES",
    "EVENT_BYTES",
    "distinct_cells",
    "estimate_stream",
    "LOOPBACK_CAPTURE",
    "read_table",
    "read_text",
    "replay_capture",
    "write_log_csv",
    "write_table",
    "write_text",
]


class Event(str, Enum):
    NORMAL = "normal"
    VACANT = "vacant"
    MESSAGE_REJECTION = "rejection"
    DELAYED = "delayed"


# estimate_stream's event codes index these, and EVENT_NAMES their texts
# (EVENT_BYTES as the CSV writers write them, an array a code column indexes).
EVENTS = (Event.VACANT, Event.NORMAL, Event.DELAYED, Event.MESSAGE_REJECTION)
EVENT_NAMES = tuple(event.value for event in EVENTS)
EVENT_BYTES = np.array([name.encode() for name in EVENT_NAMES], dtype=object)


class EstimatorState:
    """Delay-estimator bookkeeping for one controller node."""

    def __init__(self):
        self.pending = {}  # frame id -> send time, insertion = send order
        self.diff_queue = deque()  # send times not yet paired with an arrival event
        self.diffs = []  # per-event arrival-minus-send history
        self.last_estimate = 0
        self.log = []  # (sample_ms, Event, rtt_ms or None, tm_ms)
        self._started = False
        self._arrivals_since_sample = 0
        self._rtt_this_period = None

    def oldest_pending(self):
        """Id of the oldest outstanding frame, or None."""
        return next(iter(self.pending), None)

    def on_send(self, frame_id, t1_ms):
        """Record a transmission at controller time t1_ms."""
        if frame_id in self.pending:
            raise ValueError(f"frame id {frame_id!r} is already pending")
        self.pending[frame_id] = t1_ms
        self.diff_queue.append(t1_ms)
        self._started = True

    def on_receive(self, frame_id, t2_ms):
        """Record a data arrival at t2_ms answering frame_id; returns its RTT."""
        if frame_id not in self.pending:
            raise ValueError(f"arrival for unknown frame id {frame_id!r}")
        t1 = self.pending.pop(frame_id)
        rtt = t2_ms - t1
        if rtt < 0:
            raise ValueError(f"frame id {frame_id!r} arrived before it was sent")
        if self.diff_queue:
            self.diffs.append(t2_ms - self.diff_queue.popleft())
        self._rtt_this_period = rtt
        self._arrivals_since_sample += 1
        self._started = True
        return rtt

    def on_empty_receive(self, t2_ms):
        """Arrival event carrying no data (the peer had nothing fresh).

        Pairs with the oldest unpaired send for the diff history but does
        not count as a data arrival for the estimate.
        """
        if self.diff_queue:
            self.diffs.append(t2_ms - self.diff_queue.popleft())

    def on_unmatched_receive(self, t2_ms):
        """Data arrival with nothing outstanding (startup frames)."""
        self._arrivals_since_sample += 1
        self._started = True

    def estimate_at_sample(self, now_ms, period_ms):
        """Close the sampling period ending at now_ms; returns (t_m, event)."""
        if period_ms <= 0:
            raise ValueError("period must be positive")
        arrivals = self._arrivals_since_sample
        rtt = self._rtt_this_period
        if arrivals == 0:
            if self._started:
                tm = self.last_estimate + period_ms
            else:
                tm = self.last_estimate  # no traffic yet: stays 0
            event = Event.VACANT
        else:
            tm = rtt if rtt is not None else self.last_estimate
            if arrivals >= 2:
                event = Event.MESSAGE_REJECTION
            elif rtt is None or rtt < period_ms:
                event = Event.NORMAL
            else:
                event = Event.DELAYED
        self.last_estimate = tm
        self.log.append((now_ms, event, rtt, tm))
        self._arrivals_since_sample = 0
        self._rtt_this_period = None
        return tm, event


def _fifo_matched(sent_before):
    """Per arrival, the number of sends matched once it is received.

    Arrivals are matched in order to the oldest pending send.

    sent_before[i] is the number of sends strictly before arrival i's drain
    tick. An arrival matches when a send is pending, so the count follows
    m[i] = min(m[i-1] + 1, sent_before[i]), whose closed form is
    i + 1 + min(0, min over j <= i of sent_before[j] - j - 1).
    """
    count = np.arange(1, sent_before.size + 1)
    return count + np.minimum(np.minimum.accumulate(sent_before - count), 0)


def estimate_stream(deliver_ms, arrivals, drained, send_ticks, sent_by, period_ms):
    """The per-tick estimates of a run whose link timing is known up front.

    deliver_ms[i] is measurement i's deliver time, arrivals[k] the number of
    measurements drained at tick k and drained[k] the number drained up to
    and including it; send_ticks are the sorted ticks at which the
    controller sends and sent_by[k] the number of sends up to and including
    tick k. The result equals EstimatorState driven tick by tick at sample
    times k * period_ms: each tick's arrivals are received against the
    oldest pending send (unmatched when none is), then the period is closed
    with estimate_at_sample, then that tick's send, if any, is recorded.

    Returns the int64 columns (tm_ms, codes, rtt_ms): tick k's row of
    EstimatorState.log is (k * period_ms, EVENTS[codes[k]], rtt_ms[k] or
    None where it is -1, tm_ms[k]). An RTT is never negative, and 0 is a
    valid one.
    """
    if period_ms <= 0:
        raise ValueError("period must be positive")
    arrivals = np.asarray(arrivals, dtype=np.int64)
    send_ticks = np.asarray(send_ticks, dtype=np.int64)
    n_ticks = arrivals.size
    ticks = np.arange(n_ticks)
    drain_tick = np.repeat(ticks, arrivals)
    # A send follows its tick's estimate, so only earlier ticks' sends count.
    matched = _fifo_matched(np.concatenate(([0], sent_by))[drain_tick])
    # Sends matched by the end of each tick, and how many of them this tick.
    matched_by = np.concatenate(([0], matched))[drained]
    new = matched_by.copy()
    new[1:] -= matched_by[:-1]
    # A tick keeps the RTT of its newest matched arrival. The matched ones
    # come first in a tick, since no send happens between its arrivals.
    rtt_ticks = np.flatnonzero(new)
    newest = drained[rtt_ticks] - arrivals[rtt_ticks] + new[rtt_ticks] - 1
    deliver = np.asarray(deliver_ms[: drain_tick.size]).astype(np.int64)
    rtt = deliver[newest] - send_ticks[matched_by[rtt_ticks] - 1] * period_ms

    # A vacant tick grows the estimate by one period once the estimator has
    # started: a send on an earlier tick or an arrival by this one.
    start = min(
        send_ticks[0] + 1 if send_ticks.size else n_ticks,
        drain_tick[0] if drain_tick.size else n_ticks,
    )
    growth = np.cumsum((arrivals == 0) & (ticks >= start)) * period_ms
    # t_m is the last RTT kept plus the growth since it (0 before any).
    step = np.zeros(n_ticks, dtype=np.int64)
    kept = rtt - growth[rtt_ticks]
    change = kept.copy()
    change[1:] -= kept[:-1]
    step[rtt_ticks] = change
    tm = np.cumsum(step) + growth

    # estimate_at_sample's event per tick, as codes into EVENTS.
    code = np.minimum(arrivals, 1)
    code[arrivals >= 2] = 3
    code[rtt_ticks[(arrivals[rtt_ticks] == 1) & (rtt >= period_ms)]] = 2
    rtt_ms = np.full(n_ticks, -1, dtype=np.int64)
    rtt_ms[rtt_ticks] = rtt
    return tm, code, rtt_ms


# Loopback capture bundled for the estimator demo: the controller transmits
# a fresh byte each time its peer answers, the peer echoes every 20 ms
# whether or not it has fresh data ("empty" rows). Rows are (kind, byte,
# time), in time order; times are milliseconds.
LOOPBACK_CAPTURE = (
    ("send", 50, 0),
    ("empty", None, 23),
    ("send", 60, 23),
    ("empty", None, 45),
    ("send", 70, 45),
    ("data", 50, 74),
    ("send", 80, 74),
    ("data", 60, 83),
    ("send", 90, 83),
    ("data", 70, 108),
    ("send", 100, 108),
    ("data", 80, 124),
    ("send", 110, 124),
    ("data", 90, 143),
    ("send", 120, 143),
    ("data", 100, 167),
    ("send", 130, 167),
    ("data", 110, 184),
)


# The sampling clock replay_capture runs the capture against.
_CAPTURE_PERIOD_MS = 20
_CAPTURE_SAMPLES = 9


def _apply_capture_event(state, event):
    kind, value, t = event
    if kind == "send":
        state.on_send(value, t)
    elif kind == "empty":
        state.on_empty_receive(t)
    elif value in state.pending:
        state.on_receive(value, t)
    else:
        state.on_unmatched_receive(t)


def replay_capture():
    """Replay LOOPBACK_CAPTURE against the sampling clock; returns the state.

    The clock closes 9 sampling periods of 20 ms. Events strictly before a
    sampling instant, and arrivals landing exactly on it, are applied before
    that sample's estimate; a send stamped exactly on the instant happens
    just after (the controller estimates first, then transmits). Events past
    the last sample are still applied so the diff and RTT histories cover
    the whole capture.
    """
    state = EstimatorState()
    ev = LOOPBACK_CAPTURE
    i = 0
    for s in range(_CAPTURE_SAMPLES):
        now = s * _CAPTURE_PERIOD_MS
        while i < len(ev) and (
            ev[i][2] < now or (ev[i][2] == now and ev[i][0] != "send")
        ):
            _apply_capture_event(state, ev[i])
            i += 1
        state.estimate_at_sample(now, _CAPTURE_PERIOD_MS)
        while i < len(ev) and ev[i][2] == now and ev[i][0] == "send":
            _apply_capture_event(state, ev[i])
            i += 1
    while i < len(ev):
        _apply_capture_event(state, ev[i])
        i += 1
    return state


def read_table(path, header):
    """Yield (line number, fields) for each data row of a CSV file.

    The file's text comes from read_text. Its first line must hold the
    names in header, each stripped of surrounding blanks. Blank lines are
    skipped, but they count towards the line numbers, so a number names the
    file's own line (the last one of a row whose quoted field spans lines).
    Every other row must have one field per name; its fields are yielded as
    the strings the csv module splits them into. A csv module error, such
    as a field over its size limit, names its line too.
    """
    import csv

    width = len(header)
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        first = next(reader, None)
        if first is None or [c.strip() for c in first] != list(header):
            raise ValueError(f"{path}: line 1: expected header '{','.join(header)}'")
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != width:
                raise ValueError(
                    f"{path}: line {reader.line_num}: expected {width} fields, got {len(row)}"
                )
            yield reader.line_num, row
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def read_text(path):
    """The text of a UTF-8 file, read once, as bytes.

    One leading byte-order mark, as spreadsheet "CSV UTF-8" exports write,
    is dropped first. A byte sequence that is not UTF-8 is an error naming
    its line, counted in the same bytes: lines end at LF, CR or CR LF, as
    for the csv module reading with newline="", and neither byte occurs
    inside a multibyte UTF-8 sequence.
    """
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ValueError(f"{path}: line {line}: not valid UTF-8") from None


def write_text(path, data):
    """Write the bytes data to path, over the old bytes of an existing file.

    Every file wncs writes is a table that write_table hands to this
    function. open(path, "w") truncates to zero first: on ext4 that frees
    the file's blocks, and the close then starts writeback of the new ones,
    which costs far more than the write when a run rewrites the same output
    directory. Instead the new bytes go over the old ones, and the file is
    cut to their length only if it was longer. A non-regular target such as
    /dev/null reports size 0 and is never cut (ftruncate would fail on it).
    As with open, a missing file is created with mode 0o666 less the umask,
    an existing file keeps its mode, and a symlink is written through.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write_table(path, header, row_format, columns):
    """Write the bytes header, then row_format % row for each row of columns.

    columns holds one sequence per field of row_format, all of one length;
    lists format fastest. The fields go column by column into one flat
    list, by slice assignment, and row_format repeated once per row formats
    them all in one bytes % operation: no object is made per row.
    """
    width = len(columns)
    n = len(columns[0])
    fields = [None] * (width * n)
    for i, column in enumerate(columns):
        fields[i::width] = column
    write_text(path, header + (row_format * n) % tuple(fields))


def distinct_cells(column, cell):
    """[cell(v) for v in column], calling cell once per distinct value.

    Values are told apart by their bits, not compared, so -0.0 keeps its
    own cell (b"%.10g" % -0.0 is b"-0").
    """
    column = np.asarray(column)
    bits = column.view(f"u{column.itemsize}")
    distinct = _distinct(bits)
    cells = np.array([cell(v) for v in distinct.view(column.dtype).tolist()], dtype=object)
    return cells[np.searchsorted(distinct, bits)].tolist()


def write_log_csv(sample_ms, codes, rtt_ms, tm_ms, path):
    """Write the estimator's columns as rows sample_ms,event,rtt_ms,tm_ms.

    codes index EVENTS, and an rtt_ms below 0 (no RTT kept) is an empty
    cell. Lines end in CRLF, as csv.writer's default dialect writes them.
    """
    events = EVENT_BYTES[np.asarray(codes, dtype=np.intp)].tolist()
    rtts = distinct_cells(rtt_ms, lambda rtt: b"" if rtt < 0 else b"%d" % rtt)
    columns = [np.asarray(sample_ms).tolist(), events, rtts, np.asarray(tm_ms).tolist()]
    write_table(path, b"sample_ms,event,rtt_ms,tm_ms\r\n", b"%d,%s,%s,%d\r\n", columns)
