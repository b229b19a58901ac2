"""Tests for the multi-version store."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import StorageError, UnknownKeyError
from repro.common.ids import NO_BATCH
from repro.storage.mvstore import MultiVersionStore


class TestBasicOperations:
    def test_preloaded_values_have_initial_version(self):
        store = MultiVersionStore({"a": b"1"})
        versioned = store.latest("a")
        assert versioned.value == b"1"
        assert versioned.version == NO_BATCH

    def test_apply_creates_new_version(self):
        store = MultiVersionStore({"a": b"1"})
        store.apply({"a": b"2"}, batch=0)
        assert store.latest("a").value == b"2"
        assert store.latest("a").version == 0

    def test_apply_new_key(self):
        store = MultiVersionStore()
        store.apply({"fresh": b"v"}, batch=3)
        assert store.latest("fresh").version == 3

    def test_unknown_key_raises(self):
        store = MultiVersionStore()
        with pytest.raises(UnknownKeyError):
            store.latest("missing")

    def test_get_returns_none_for_unknown(self):
        assert MultiVersionStore().get("missing") is None

    def test_version_of_unknown_is_sentinel(self):
        assert MultiVersionStore().version_of("missing") == NO_BATCH

    def test_contains_len_keys(self):
        store = MultiVersionStore({"a": b"1", "b": b"2"})
        assert "a" in store and "c" not in store
        assert len(store) == 2
        assert set(store.keys()) == {"a", "b"}

    def test_apply_rejects_reserved_version(self):
        store = MultiVersionStore()
        with pytest.raises(StorageError):
            store.apply({"a": b"1"}, batch=NO_BATCH)

    def test_apply_rejects_older_version_than_latest(self):
        store = MultiVersionStore()
        store.apply({"a": b"1"}, batch=5)
        with pytest.raises(StorageError):
            store.apply({"a": b"2"}, batch=3)

    def test_same_batch_write_overwrites(self):
        store = MultiVersionStore()
        store.apply({"a": b"1"}, batch=2)
        store.apply({"a": b"2"}, batch=2)
        assert store.latest("a").value == b"2"
        assert len(store.history("a")) == 1


class TestVersionedReads:
    def test_as_of_returns_visible_version(self):
        store = MultiVersionStore({"x": b"v0"})
        store.apply({"x": b"v2"}, batch=2)
        store.apply({"x": b"v5"}, batch=5)
        assert store.as_of("x", 1).value == b"v0"
        assert store.as_of("x", 2).value == b"v2"
        assert store.as_of("x", 4).value == b"v2"
        assert store.as_of("x", 5).value == b"v5"
        assert store.as_of("x", 99).value == b"v5"

    def test_as_of_before_first_write_is_none(self):
        store = MultiVersionStore()
        store.apply({"x": b"v3"}, batch=3)
        assert store.as_of("x", 2) is None

    def test_as_of_unknown_key_is_none(self):
        assert MultiVersionStore().as_of("nope", 3) is None

    def test_snapshot_as_of(self):
        store = MultiVersionStore({"a": b"a0", "b": b"b0"})
        store.apply({"a": b"a1"}, batch=1)
        store.apply({"b": b"b3"}, batch=3)
        assert store.snapshot_as_of(1) == {"a": b"a1", "b": b"b0"}
        assert store.snapshot_as_of(3) == {"a": b"a1", "b": b"b3"}

    def test_iter_items_as_of_streams_the_snapshot(self):
        store = MultiVersionStore({"a": b"a0", "b": b"b0"})
        store.apply({"a": b"a1"}, batch=1)
        store.apply({"b": b"b3"}, batch=3)
        iterator = store.iter_items_as_of(1)
        assert iter(iterator) is iterator  # a true one-pass iterator
        assert dict(iterator) == store.snapshot_as_of(1)
        # Keys invisible at the requested batch are skipped entirely.
        store.apply({"late": b"l5"}, batch=5)
        assert dict(store.iter_items_as_of(3)) == {"a": b"a1", "b": b"b3"}

    def test_history_is_ordered(self):
        store = MultiVersionStore({"x": b"v"})
        store.apply({"x": b"v1"}, batch=1)
        store.apply({"x": b"v4"}, batch=4)
        assert store.history("x") == ((NO_BATCH, b"v"), (1, b"v1"), (4, b"v4"))

    def test_history_unknown_key_raises(self):
        with pytest.raises(UnknownKeyError):
            MultiVersionStore().history("nope")


class TestMvccProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=30), st.binary(min_size=1, max_size=4)),
            min_size=1,
            max_size=20,
        )
    )
    def test_as_of_matches_replay(self, writes):
        """Reading as-of batch b equals replaying all writes with version <= b."""
        writes = sorted(writes, key=lambda item: item[0])
        store = MultiVersionStore()
        for batch, value in writes:
            store.apply({"k": value}, batch=batch)
        for probe in range(0, 32):
            expected = None
            for batch, value in writes:
                if batch <= probe:
                    expected = value
            observed = store.as_of("k", probe)
            if expected is None:
                assert observed is None
            else:
                assert observed is not None and observed.value == expected

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(st.text(min_size=1, max_size=4), st.binary(max_size=4), max_size=8))
    def test_latest_matches_last_apply(self, updates):
        store = MultiVersionStore()
        store.apply({"seed": b"s"}, batch=1)
        if updates:
            store.apply(updates, batch=2)
        for key, value in updates.items():
            assert store.latest(key).value == value
            assert store.version_of(key) == 2
