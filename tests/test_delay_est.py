"""Estimator regime tests plus an exact replay of the bundled capture.

The capture goldens (t_m trajectory, RTT column, diff history) were
worked out by hand from the event times: e.g. the first data arrival at
t=74 answers the send at t=0, so the sample at 80 ms carries t_m = 74,
and the three preceding diff entries 23+22+29 telescope to that same 74.
"""

import csv
import io
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wncs.delay_est import (
    EVENTS,
    EstimatorState,
    Event,
    distinct_cells,
    read_table,
    replay_capture,
    write_log_csv,
    write_table,
    write_text,
)

REPLAY_TM = [0, 20, 40, 60, 74, 60, 63, 50, 60]
REPLAY_RTT = [None, None, None, None, 74, 60, 63, 50, 60]
REPLAY_DIFFS = [23, 22, 29, 9, 25, 16, 19, 24, 17]


class TestBookkeeping:
    def test_duplicate_send_rejected(self):
        state = EstimatorState()
        state.on_send("a", 0)
        with pytest.raises(ValueError, match="already pending"):
            state.on_send("a", 20)

    def test_unknown_arrival_rejected(self):
        state = EstimatorState()
        with pytest.raises(ValueError, match="unknown frame id"):
            state.on_receive("a", 10)

    def test_arrival_before_send_rejected(self):
        state = EstimatorState()
        state.on_send("a", 100)
        with pytest.raises(ValueError, match="before it was sent"):
            state.on_receive("a", 90)

    def test_receive_returns_rtt(self):
        state = EstimatorState()
        state.on_send("a", 5)
        assert state.on_receive("a", 47) == 42
        assert state.estimate_at_sample(60, 20) == (42, Event.DELAYED)

    def test_oldest_pending_is_fifo(self):
        state = EstimatorState()
        assert state.oldest_pending() is None
        state.on_send("a", 0)
        state.on_send("b", 20)
        assert state.oldest_pending() == "a"
        state.on_receive("a", 30)
        assert state.oldest_pending() == "b"

    def test_empty_receive_with_no_pending_send_is_inert(self):
        state = EstimatorState()
        state.on_empty_receive(10)
        assert state.diffs == []


class TestEstimateRegimes:
    def test_no_traffic_yet_stays_zero(self):
        state = EstimatorState()
        for k in range(3):
            tm, event = state.estimate_at_sample(20 * k, 20)
            assert (tm, event) == (0, Event.VACANT)

    def test_vacant_grows_by_one_period(self):
        state = EstimatorState()
        state.on_send("a", 0)
        grown = [state.estimate_at_sample(20 * (k + 1), 20) for k in range(3)]
        assert grown == [(20, Event.VACANT), (40, Event.VACANT), (60, Event.VACANT)]

    def test_single_fast_arrival_is_normal(self):
        state = EstimatorState()
        state.on_send("a", 0)
        state.on_receive("a", 12)
        assert state.estimate_at_sample(20, 20) == (12, Event.NORMAL)

    def test_single_slow_arrival_is_delayed(self):
        state = EstimatorState()
        state.on_send("a", 0)
        state.on_receive("a", 20)
        assert state.estimate_at_sample(20, 20) == (20, Event.DELAYED)

    def test_multiple_arrivals_keep_newest_rtt(self):
        state = EstimatorState()
        state.on_send("a", 0)
        state.on_send("b", 5)
        state.on_receive("a", 30)
        state.on_receive("b", 38)  # rtt 33, the one that must win
        assert state.estimate_at_sample(40, 20) == (33, Event.MESSAGE_REJECTION)

    def test_arrival_resets_vacant_count(self):
        state = EstimatorState()
        state.on_send("a", 0)
        state.estimate_at_sample(20, 20)
        assert state.estimate_at_sample(40, 20) == (40, Event.VACANT)
        state.on_receive("a", 45)
        assert state.estimate_at_sample(60, 20) == (45, Event.DELAYED)
        # the next vacant sample grows from the fresh RTT, not from 40
        assert state.estimate_at_sample(80, 20) == (65, Event.VACANT)

    def test_unmatched_arrival_keeps_estimate(self):
        state = EstimatorState()
        state.on_send("a", 0)
        state.estimate_at_sample(20, 20)  # vacant, estimate now 20
        state.on_unmatched_receive(25)
        assert state.estimate_at_sample(40, 20) == (20, Event.NORMAL)

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            EstimatorState().estimate_at_sample(0, 0)


class TestReplayCapture:
    def test_tm_trajectory(self):
        state = replay_capture()
        assert [row[3] for row in state.log] == REPLAY_TM

    def test_event_sequence(self):
        state = replay_capture()
        events = [row[1] for row in state.log]
        assert events == [Event.VACANT] * 4 + [Event.DELAYED] * 5

    def test_rtt_column(self):
        state = replay_capture()
        assert [row[2] for row in state.log] == REPLAY_RTT

    def test_diff_history(self):
        assert replay_capture().diffs == REPLAY_DIFFS

    def test_vacant_diffs_telescope_to_first_rtt(self):
        # empty echoes at 23 and 45 plus the data frame at 74 pair with
        # sends at 0, 23, 45: (23-0) + (45-23) + (74-45) = 74, the RTT of
        # the send at t=0
        state = replay_capture()
        assert sum(state.diffs[:3]) == REPLAY_RTT[4] == 74

    def test_capture_tail_is_applied(self):
        # two data frames land after the last sample; they must still be
        # matched, leaving only the sends they did not answer pending
        state = replay_capture()
        assert list(state.pending) == [120, 130]
        assert len(state.diffs) == len(REPLAY_DIFFS)


def _columns(log):
    """EstimatorState.log rows as write_log_csv's columns."""
    return (
        [row[0] for row in log],
        [EVENTS.index(row[1]) for row in log],
        [-1 if row[2] is None else row[2] for row in log],
        [row[3] for row in log],
    )


def _write_log_by_row(log):
    """Reference estimator.csv text, one f-string per log row: CRLF line
    ends, an empty cell where no RTT was kept."""
    return "sample_ms,event,rtt_ms,tm_ms\r\n" + "".join(
        f"{sample_ms},{event.value},{'' if rtt is None else rtt},{tm}\r\n"
        for sample_ms, event, rtt, tm in log
    )


_LOG_INTS = st.integers(-(2**62), 2**62)
_LOG_ROWS = st.lists(
    st.tuples(_LOG_INTS, st.sampled_from(EVENTS), st.none() | st.integers(0, 2**62), _LOG_INTS),
    max_size=30,
)


class TestWriteLogCsv:
    def test_golden_rows(self, tmp_path):
        path = tmp_path / "estimator.csv"
        write_log_csv(*_columns(replay_capture().log), path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sample_ms", "event", "rtt_ms", "tm_ms"]
        assert rows[1] == ["0", "vacant", "", "0"]
        assert rows[5] == ["80", "delayed", "74", "74"]
        assert rows[9] == ["160", "delayed", "60", "60"]
        assert len(rows) == 10

    def test_golden_bytes(self, tmp_path):
        # csv.reader accepts either line end, so pin the file itself: CRLF
        # line ends and an empty cell where no RTT was measured.
        path = tmp_path / "estimator.csv"
        write_log_csv(*_columns(replay_capture().log), path)
        assert path.read_bytes() == (
            b"sample_ms,event,rtt_ms,tm_ms\r\n"
            b"0,vacant,,0\r\n20,vacant,,20\r\n40,vacant,,40\r\n60,vacant,,60\r\n"
            b"80,delayed,74,74\r\n100,delayed,60,60\r\n120,delayed,63,63\r\n"
            b"140,delayed,50,50\r\n160,delayed,60,60\r\n"
        )

    def test_every_event_as_csv_writer_writes_it(self, tmp_path):
        log = [
            (20 * k, event, rtt, tm)
            for k, (event, rtt, tm) in enumerate(
                (event, rtt, tm)
                for event in Event
                for rtt, tm in ((None, 0), (7, 7), (None, 120), (2**40, 2**40))
            )
        ]
        path = tmp_path / "estimator.csv"
        write_log_csv(*_columns(log), path)
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["sample_ms", "event", "rtt_ms", "tm_ms"])
        for sample_ms, event, rtt, tm in log:
            writer.writerow([sample_ms, event.value, "" if rtt is None else rtt, tm])
        assert path.read_bytes() == want.getvalue().encode("utf-8")

    def test_zero_rtt_is_written(self, tmp_path):
        # 0 is a valid RTT; only the -1 sentinel leaves the cell empty.
        path = tmp_path / "estimator.csv"
        write_log_csv([0, 20], [1, 2], [0, -1], [0, 20], path)
        assert path.read_bytes() == (
            b"sample_ms,event,rtt_ms,tm_ms\r\n0,normal,0,0\r\n20,delayed,,20\r\n"
        )

    @settings(deadline=None)
    @given(log=_LOG_ROWS)
    @example(log=[])
    @example(
        log=[
            (-(2**62), EVENTS[0], None, 2**62),
            (0, EVENTS[1], 0, 0),
            (2**62, EVENTS[2], 2**62, -(2**62)),
            (20, EVENTS[3], None, -1),
        ]
    )
    def test_columns_equal_the_per_row_writer(self, tmp_path_factory, log):
        # int64 columns, as the run passes them.
        columns = [np.array(col, dtype=np.int64) for col in _columns(log)]
        path = tmp_path_factory.getbasetemp() / "write_log_property.csv"
        write_log_csv(*columns, path)
        assert path.read_bytes() == _write_log_by_row(log).encode("utf-8")


_SIGNED_ZERO_FLOATS = st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
_INT64 = st.integers(-(2**63), 2**63 - 1)
# A field format and the values it takes. %s cells are bytes, as
# distinct_cells and EVENT_BYTES give them.
_FIELDS = st.sampled_from(
    [
        (b"%.10g", _SIGNED_ZERO_FLOATS),
        (b"%.17g", _SIGNED_ZERO_FLOATS),
        (b"%d", _INT64),
        (b"%s", st.binary(max_size=8)),
    ]
)


@st.composite
def _tables(draw):
    """(header, row_format, columns): 0, 1 or many rows of 1 to 7 fields."""
    fields = draw(st.lists(_FIELDS, min_size=1, max_size=7))
    n = draw(st.sampled_from([0, 1]) | st.integers(2, 60))
    end = draw(st.sampled_from([b"\n", b"\r\n"]))
    row_format = b",".join(fmt for fmt, _ in fields) + end
    columns = [draw(st.lists(values, min_size=n, max_size=n)) for _, values in fields]
    return draw(st.binary(max_size=40)), row_format, columns


def _cells_by_value(column, cell):
    """distinct_cells' reference: one call of cell per value."""
    return [cell(v) for v in np.asarray(column).tolist()]


class TestWriteTable:
    @settings(deadline=None)
    @given(table=_tables())
    @example(table=(b"a,b\n", b"%d,%s\n", [[], []]))
    @example(table=(b"", b"%.10g,%d\r\n", [[-0.0], [2**63 - 1]]))
    @example(
        table=(
            b"x\n",
            b"%.10g,%s,%d\n",
            [[-0.0, math.nan, -math.inf], [b"", b"p", b"q"], [-(2**63), 0, 1]],
        )
    )
    def test_equals_the_per_row_oracle(self, tmp_path_factory, table):
        header, row_format, columns = table
        path = tmp_path_factory.getbasetemp() / "write_table_property.csv"
        write_table(path, header, row_format, columns)
        assert path.read_bytes() == header + b"".join(row_format % row for row in zip(*columns))

    @settings(deadline=None)
    @given(
        column=st.lists(_SIGNED_ZERO_FLOATS, max_size=60).map(np.array)
        | st.lists(_INT64, max_size=60).map(lambda ints: np.array(ints, dtype=np.int64))
    )
    @example(column=np.array([0.0, -0.0, 0.0]))
    @example(column=np.array([-0.0, 0.0, -0.0]))
    @example(column=np.array([], dtype=np.int64))
    def test_distinct_cells_equal_one_call_per_value(self, column):
        def cell(v):
            return b"%.10g" % v if column.dtype.kind == "f" else b"%d" % v

        calls = []
        got = distinct_cells(column, lambda v: calls.append(v) or cell(v))
        assert got == _cells_by_value(column, cell)
        # One call per distinct bit pattern.
        assert len(calls) == len(set(column.view(np.uint64).tolist()))
        # Keyed by bits, a -0.0 keeps its own "-0" apart from 0.0's "0".
        for v, text in zip(column.tolist(), got):
            if v == 0.0 and column.dtype.kind == "f":
                assert text == (b"-0" if math.copysign(1.0, v) < 0 else b"0")


# Header names as wncs' tables name their fields: no blank, comma or quote.
_NAMES = st.from_regex(r"[a-z_][a-z0-9_]{0,7}", fullmatch=True)
_READ_FIELDS = st.sampled_from([(b"%d", _INT64), (b"%.10g", _SIGNED_ZERO_FLOATS)])
_BLANKS = st.sampled_from([b"", b" ", b"\t", b" \t "])


@st.composite
def _read_tables(draw):
    """(names, header, row_format, columns, blanks) for a read_table round trip.

    0 to 12 rows of 1 to 4 %d or %.10g fields, LF or CRLF, under a header
    whose names carry blanks around them. blanks lists (position, line): a
    blank or whitespace line goes in at each position below the header, in
    order, into the lines write_table wrote.
    """
    fields = draw(st.lists(_READ_FIELDS, min_size=1, max_size=4))
    names = draw(st.lists(_NAMES, min_size=len(fields), max_size=len(fields)))
    n = draw(st.integers(0, 12))
    end = draw(st.sampled_from([b"\n", b"\r\n"]))
    header = b",".join(draw(_BLANKS) + name.encode() + draw(_BLANKS) for name in names) + end
    row_format = b",".join(fmt for fmt, _ in fields) + end
    columns = [draw(st.lists(values, min_size=n, max_size=n)) for _, values in fields]
    blanks = []
    for k in range(draw(st.integers(0, 6))):
        blanks.append((draw(st.integers(1, 1 + n + k)), draw(_BLANKS) + end))
    return names, header, row_format, columns, blanks


def _write_blank_table(path, header, row_format, columns, blanks):
    """Write the table, add the blank lines; returns the rows' line numbers."""
    write_table(path, header, row_format, columns)
    lines = path.read_bytes().splitlines(keepends=True)
    rows = [None, *range(len(columns[0]))]  # the data row on each line
    for at, blank in blanks:
        lines.insert(at, blank)
        rows.insert(at, None)
    path.write_bytes(b"".join(lines))
    return [lineno for lineno, row in enumerate(rows, start=1) if row is not None]


class TestReadTable:
    @settings(deadline=None)
    @given(table=_read_tables())
    @example(table=(["t", "u", "y"], b" t ,u,\ty\n", b"%.10g,%d,%.10g\n", [[0.0], [1], [-0.0]], []))
    @example(
        table=(["d"], b"d\r\n", b"%d\r\n", [[5, 6]], [(1, b"\r\n"), (2, b" \r\n"), (4, b"\r\n")])
    )
    def test_reads_back_what_write_table_wrote(self, tmp_path_factory, table):
        names, header, row_format, columns, blanks = table
        path = tmp_path_factory.getbasetemp() / "read_table_property.csv"
        linenos = _write_blank_table(path, header, row_format, columns, blanks)
        formats = row_format.rstrip().split(b",")
        cells = [[(fmt % v).decode() for fmt, v in zip(formats, row)] for row in zip(*columns)]
        assert list(read_table(path, names)) == list(zip(linenos, cells))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n1,2\n\n3\n", "line 4: expected 2 fields, got 1"),
            ("a,b\n\n \n1,2,3\n", "line 4: expected 2 fields, got 3"),
            ("a,b\r\n1,2\r\n1,2,\r\n", "line 3: expected 2 fields, got 3"),
            # a quoted field may span lines; the numbers stay the file's own
            ('a,b\n"x\ny",1\n1,2,3\n', "line 4: expected 2 fields, got 3"),
        ],
    )
    def test_wrong_field_count_names_its_line(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text, newline="")
        with pytest.raises(ValueError) as exc:
            list(read_table(path, ("a", "b")))
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("text", ["", "\n1,2\n", "a\n1,2\n", "a,b,c\n", "b,a\n", "a,B\n"])
    def test_wrong_or_missing_header_names_line_one(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text, newline="")
        with pytest.raises(ValueError) as exc:
            list(read_table(path, ("a", "b")))
        assert str(exc.value) == f"{path}: line 1: expected header 'a,b'"

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"a,\xffb\n1,2\n", 1),
            (b"a,b\r\n\r\n1,2\r\n3,\xc3\r\n", 4),
            # a lone CR ends a line too
            (b"a,b\r1,2\r\r3,\xff\r", 4),
            # the reader decodes in chunks; the number is the file's line
            (b"a,b\n" + b"1,2\n" * 3000 + b"\xe2\x82\xac,\xe2\x82\n", 3002),
            # a truncated sequence at the end of the file
            (b"a,b\n1,2\n1,\xe2\x82", 3),
            # counted in the bytes after the mark (utf-8-sig's offset is not)
            (b"\xef\xbb\xbfa,b\n\xff\n", 2),
        ],
        ids=[
            "header",
            "crlf",
            "lone-cr",
            "past-the-first-chunk",
            "truncated-at-the-end",
            "after-a-byte-order-mark",
        ],
    )
    def test_invalid_utf8_names_its_line(self, tmp_path, data, line):
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError) as exc:
            list(read_table(path, ("a", "b")))
        assert str(exc.value) == f"{path}: line {line}: not valid UTF-8"

    def test_one_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\r\n1,\xef\xbb\xbf2\r\n")
        assert list(read_table(path, ("a", "b"))) == [(2, ["1", "\ufeff2"])]
        # a second mark is text: it stays in the first name
        path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfa,b\n1,2\n")
        with pytest.raises(ValueError) as exc:
            list(read_table(path, ("a", "b")))
        assert str(exc.value) == f"{path}: line 1: expected header 'a,b'"


class TestWriteText:
    # Old files are drawn both longer and shorter than the new bytes. The
    # new bytes are UTF-8 text, as the writers encode it. The example's old
    # file is the longer one, and its text has fewer characters than bytes,
    # so a cut to the character count would lose bytes.
    @settings(deadline=None)
    @given(
        old=st.binary(max_size=4096),
        text=st.text(st.characters(codec="utf-8"), max_size=1500),
    )
    @example(old=b"x" * 4096, text="\u00e9\u20ac\U0001f600\n")
    def test_file_holds_exactly_the_new_bytes(self, tmp_path_factory, old, text):
        path = tmp_path_factory.mktemp("write_text") / "out.csv"
        path.write_bytes(old)
        data = text.encode("utf-8")
        write_text(path, data)
        assert path.read_bytes() == data

    def test_existing_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old text, longer than the new\n")
        path.chmod(0o604)
        write_text(path, b"new\n")
        assert stat.S_IMODE(path.stat().st_mode) == 0o604
        assert path.read_bytes() == b"new\n"

    def test_new_file_mode_follows_the_umask_as_open_does(self, tmp_path):
        umask = os.umask(0o027)
        try:
            write_text(tmp_path / "helper.csv", b"new\n")
            with open(tmp_path / "open.csv", "w", encoding="utf-8") as fh:
                fh.write("new\n")
        finally:
            os.umask(umask)
        for name in ("helper.csv", "open.csv"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o640, name

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("old text, longer than the new\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        write_text(link, b"new\n")
        assert link.is_symlink()
        assert target.read_bytes() == b"new\n"
