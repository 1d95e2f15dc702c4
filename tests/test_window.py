"""Unit tests for sliding windows with hash indexes (repro.join.window)."""

import pytest

from repro import SlidingWindow, StreamTuple


def _t(ts, **values):
    return StreamTuple(ts=ts, values=values, stream=0, seq=ts)


class TestBasics:
    def test_insert_and_len(self):
        w = SlidingWindow(1000)
        w.insert(_t(1))
        w.insert(_t(2))
        assert len(w) == 2
        assert w.cardinality == 2

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            SlidingWindow(0)

    def test_tuples_iterates_live_content(self):
        w = SlidingWindow(1000)
        for ts in (5, 3, 9):
            w.insert(_t(ts))
        assert sorted(t.ts for t in w.tuples()) == [3, 5, 9]

    def test_clear(self):
        w = SlidingWindow(1000, indexed_attributes=["v"])
        w.insert(_t(1, v=1))
        w.clear()
        assert len(w) == 0
        assert list(w.lookup("v", 1)) == []


class TestExpiration:
    def test_expire_removes_strictly_older(self):
        w = SlidingWindow(1000)
        for ts in (10, 20, 30):
            w.insert(_t(ts))
        removed = w.expire_before(20)
        assert removed == 1
        assert sorted(t.ts for t in w.tuples()) == [20, 30]

    def test_expire_with_out_of_order_inserts(self):
        w = SlidingWindow(1000)
        for ts in (30, 10, 20, 5):
            w.insert(_t(ts))
        assert w.expire_before(15) == 2  # 10 and 5
        assert sorted(t.ts for t in w.tuples()) == [20, 30]

    def test_expire_everything(self):
        w = SlidingWindow(1000)
        for ts in (1, 2, 3):
            w.insert(_t(ts))
        assert w.expire_before(100) == 3
        assert len(w) == 0

    def test_expire_noop_when_all_fresh(self):
        w = SlidingWindow(1000)
        w.insert(_t(50))
        assert w.expire_before(10) == 0
        assert len(w) == 1


class TestIndexes:
    def test_lookup_finds_matches(self):
        w = SlidingWindow(1000, indexed_attributes=["v"])
        w.insert(_t(1, v="x"))
        w.insert(_t(2, v="y"))
        w.insert(_t(3, v="x"))
        assert sorted(t.ts for t in w.lookup("v", "x")) == [1, 3]
        assert [t.ts for t in w.lookup("v", "y")] == [2]

    def test_lookup_returns_insertion_order(self):
        # Determinism regression: candidates must come back in sorted
        # slot-id (= insertion) order, not Set iteration order, so the
        # result sequence of a probe is reproducible across runs.
        w = SlidingWindow(10_000, indexed_attributes=["v"])
        timestamps = [907, 12, 455, 3001, 88, 2999, 640, 5, 1717]
        for ts in timestamps:
            w.insert(_t(ts, v="k"))
        assert [t.ts for t in w.lookup("v", "k")] == timestamps
        # Removals must not perturb the order of the survivors.
        w.expire_before(100)
        survivors = [ts for ts in timestamps if ts >= 100]
        assert [t.ts for t in w.lookup("v", "k")] == survivors

    def test_lookup_missing_value_empty(self):
        w = SlidingWindow(1000, indexed_attributes=["v"])
        w.insert(_t(1, v="x"))
        assert list(w.lookup("v", "zzz")) == []

    def test_lookup_unindexed_attribute_raises(self):
        w = SlidingWindow(1000)
        with pytest.raises(KeyError):
            w.lookup("v", 1)

    def test_has_index(self):
        w = SlidingWindow(1000, indexed_attributes=["v"])
        assert w.has_index("v")
        assert not w.has_index("w")

    def test_expiration_updates_indexes(self):
        w = SlidingWindow(1000, indexed_attributes=["v"])
        w.insert(_t(1, v="x"))
        w.insert(_t(50, v="x"))
        w.expire_before(10)
        assert [t.ts for t in w.lookup("v", "x")] == [50]

    def test_multiple_indexes(self):
        w = SlidingWindow(1000, indexed_attributes=["a", "b"])
        w.insert(_t(1, a=1, b="p"))
        w.insert(_t(2, a=1, b="q"))
        assert len(list(w.lookup("a", 1))) == 2
        assert len(list(w.lookup("b", "q"))) == 1

    def test_index_handles_missing_attribute_as_none(self):
        w = SlidingWindow(1000, indexed_attributes=["v"])
        w.insert(_t(1))  # no "v" attribute
        assert [t.ts for t in w.lookup("v", None)] == [1]

    def test_lookup_is_lazy_over_the_bucket(self):
        # The probe hot path must not pay a per-lookup list copy: lookup
        # returns a single-pass iterable over the live bucket.
        w = SlidingWindow(1000, indexed_attributes=["v"])
        w.insert(_t(1, v="x"))
        w.insert(_t(2, v="x"))
        candidates = w.lookup("v", "x")
        assert not isinstance(candidates, list)
        assert [t.ts for t in candidates] == [1, 2]
