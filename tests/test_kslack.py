"""Unit tests for the K-slack buffer (repro.core.kslack)."""

import pytest

from repro import KSlackBuffer, StreamTuple


def _t(ts, seq=0):
    return StreamTuple(ts=ts, stream=0, seq=seq)


def _feed(buffer, timestamps):
    """Feed timestamps in arrival order; return released ts in order."""
    out = []
    for seq, ts in enumerate(timestamps):
        out.extend(t.ts for t in buffer.process(_t(ts, seq)))
    return out


class TestRelease:
    def test_k_zero_is_passthrough(self):
        b = KSlackBuffer(0)
        assert _feed(b, [5, 3, 8]) == [5, 3, 8]

    def test_holds_back_k_time_units(self):
        b = KSlackBuffer(10)
        # ts 5 arrives: iT=5, nothing with ts+10 <= 5.
        assert _feed(b, [5]) == []
        # ts 15: iT=15 → release ts 5 (5+10 <= 15).
        b2 = KSlackBuffer(10)
        assert _feed(b2, [5, 15]) == [5]

    def test_release_is_timestamp_ordered(self):
        b = KSlackBuffer(5)
        released = _feed(b, [10, 7, 9, 8, 20])
        assert released == sorted(released)
        assert released == [7, 8, 9, 10]

    def test_paper_figure3_example(self):
        # Paper Fig. 3: K=1, input ts sequence 1,4,3,5,7,8,6,9
        # (time unit = 1 ms here).  The ts-6 tuple (delay 2 > K=1) leaves
        # the buffer still out of order — after ts 7 — but with its delay
        # reduced to 1, exactly as the figure shows.
        b = KSlackBuffer(1)
        released = _feed(b, [1, 4, 3, 5, 7, 8, 6, 9])
        assert released == [1, 3, 4, 5, 7, 6, 8]
        remaining = [t.ts for t in b.flush()]
        assert remaining == [9]

    def test_tuple_with_delay_beyond_k_still_out_of_order(self):
        b = KSlackBuffer(1)
        _feed(b, [1, 4, 3, 5, 7, 8])
        # Delay of ts-6 tuple is 8-6=2 > K=1; when it arrives it is
        # released in the same batch as older buffered tuples but its
        # reduced delay means it is no longer sortable before ts 7.
        released = [t.ts for t in b.process(_t(6, seq=6))]
        assert 6 in released

    def test_no_duplicate_releases(self):
        b = KSlackBuffer(3)
        released = _feed(b, list(range(0, 30, 2)))
        released += [t.ts for t in b.flush()]
        assert sorted(released) == list(range(0, 30, 2))
        assert len(released) == len(set(released))


class TestDelayAnnotation:
    def test_in_order_tuple_has_zero_delay(self):
        b = KSlackBuffer(0)
        t = _t(10)
        b.process(t)
        assert t.delay == 0

    def test_late_tuple_delay_measured_from_local_time(self):
        b = KSlackBuffer(0)
        b.process(_t(10))
        late = _t(4, seq=1)
        b.process(late)
        assert late.delay == 6

    def test_max_observed_delay_tracked(self):
        b = KSlackBuffer(0)
        _feed(b, [10, 4, 9, 2])
        assert b.max_observed_delay == 8

    def test_local_time_is_max_ts(self):
        b = KSlackBuffer(0)
        _feed(b, [10, 4])
        assert b.local_time == 10


class TestDynamicK:
    def test_shrinking_k_releases_immediately(self):
        b = KSlackBuffer(100)
        _feed(b, [10, 50])
        assert b.buffered == 2
        released = b.set_k(0)
        assert [t.ts for t in released] == [10, 50]
        assert b.buffered == 0

    def test_growing_k_releases_nothing(self):
        b = KSlackBuffer(20)
        b.process(_t(10))
        assert b.set_k(50) == []
        # ts 30 arrives: with K=50, 10+50 > 30 → both held.
        assert b.process(_t(30, seq=1)) == []
        assert b.buffered == 2

    def test_partial_release_on_shrink(self):
        b = KSlackBuffer(100)
        _feed(b, [10, 90])  # iT=90
        released = b.set_k(20)  # bound = 70: only ts 10 released
        assert [t.ts for t in released] == [10]
        assert b.buffered == 1

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            KSlackBuffer(-1)
        b = KSlackBuffer(0)
        with pytest.raises(ValueError):
            b.set_k(-5)


class TestFlush:
    def test_flush_returns_sorted_remainder(self):
        b = KSlackBuffer(1000)
        _feed(b, [30, 10, 20])
        assert [t.ts for t in b.flush()] == [10, 20, 30]

    def test_flush_empties_buffer(self):
        b = KSlackBuffer(1000)
        _feed(b, [1, 2])
        b.flush()
        assert b.buffered == 0
        assert b.flush() == []


class TestCompleteSorting:
    def test_k_at_max_delay_yields_sorted_output(self):
        # If K >= max delay, the output must be fully timestamp-ordered.
        arrivals = [100, 40, 130, 90, 160, 150, 200, 170, 260, 240]
        max_delay = 0
        local = 0
        for ts in arrivals:
            local = max(local, ts)
            max_delay = max(max_delay, local - ts)
        b = KSlackBuffer(max_delay)
        released = _feed(b, arrivals)
        released += [t.ts for t in b.flush()]
        assert released == sorted(arrivals)


class TestFlushContract:
    def test_flush_is_terminal_process_raises(self):
        b = KSlackBuffer(100)
        b.process(_t(10))
        b.flush()
        assert b.flushed
        with pytest.raises(RuntimeError):
            b.process(_t(500, seq=1))

    def test_flush_is_idempotent_and_empty(self):
        b = KSlackBuffer(100)
        b.process(_t(10))
        assert [t.ts for t in b.flush()] == [10]
        assert b.flush() == []
        assert b.flush() == []

    def test_clock_and_delay_stats_survive_flush(self):
        # The terminal contract exists exactly because these stop moving:
        # they must still be readable (reporting) after the flush.
        b = KSlackBuffer(50)
        b.process(_t(100))
        b.process(_t(30, seq=1))  # delay 70
        b.flush()
        assert b.local_time == 100
        assert b.max_observed_delay == 70
