"""Estimator regime tests plus an exact replay of the bundled capture.

The capture goldens (t_m trajectory, RTT column, diff history) were
worked out by hand from the event times: e.g. the first data arrival at
t=74 answers the send at t=0, so the sample at 80 ms carries t_m = 74,
and the three preceding diff entries 23+22+29 telescope to that same 74.
"""

import csv
import io
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
    replay_capture,
    write_log_csv,
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


class TestWriteText:
    # Old files are drawn both longer and shorter than the new bytes. The
    # example's old file is the longer one, and its text has fewer
    # characters than UTF-8 bytes, so a cut to len(text) would lose bytes.
    @settings(deadline=None)
    @given(
        old=st.binary(max_size=4096),
        text=st.text(st.characters(codec="utf-8"), max_size=1500),
    )
    @example(old=b"x" * 4096, text="\u00e9\u20ac\U0001f600\n")
    def test_file_holds_exactly_the_new_bytes(self, tmp_path_factory, old, text):
        path = tmp_path_factory.mktemp("write_text") / "out.csv"
        path.write_bytes(old)
        write_text(path, text)
        assert path.read_bytes() == text.encode("utf-8")

    def test_existing_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old text, longer than the new\n")
        path.chmod(0o604)
        write_text(path, "new\n")
        assert stat.S_IMODE(path.stat().st_mode) == 0o604
        assert path.read_bytes() == b"new\n"

    def test_new_file_mode_follows_the_umask_as_open_does(self, tmp_path):
        umask = os.umask(0o027)
        try:
            write_text(tmp_path / "helper.csv", "new\n")
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
        write_text(link, "new\n")
        assert link.is_symlink()
        assert target.read_bytes() == b"new\n"
