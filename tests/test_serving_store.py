"""Unit tests for the sharded curve store."""

import threading

import pytest

from repro.service.store import (
    EntryState,
    ShardedCurveStore,
    _shard_index,
)

KEY = ("c4.large", "us-east-1b", 0.95)
OTHER = ("m3.medium", "us-west-1a", 0.99)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedCurveStore(n_shards=0)
        with pytest.raises(ValueError):
            ShardedCurveStore(refresh_seconds=0)

    def test_shard_assignment_is_deterministic(self):
        # CRC32, not Python's salted hash: stable across runs/processes.
        assert _shard_index(KEY, 16) == _shard_index(KEY, 16)
        spread = {
            _shard_index(("t", f"zone-{i}", 0.95), 8) for i in range(100)
        }
        assert len(spread) > 1  # keys actually spread over shards


class TestStates:
    def test_missing_then_fresh_then_stale(self):
        store = ShardedCurveStore(refresh_seconds=900.0)
        entry, state = store.lookup(KEY, 1000.0)
        assert entry is None and state is EntryState.MISSING

        store.put(KEY, None, computed_at=1000.0)
        _, state = store.lookup(KEY, 1500.0)
        assert state is EntryState.FRESH

        _, state = store.lookup(KEY, 1000.0 + 900.0)
        assert state is EntryState.STALE

    def test_future_entry_is_stale(self):
        # Backtests rewind time; an entry computed "in the future" must
        # not be served as fresh (same rule as DraftsService.curve).
        store = ShardedCurveStore(refresh_seconds=900.0)
        store.put(KEY, None, computed_at=5000.0)
        _, state = store.lookup(KEY, 4000.0)
        assert state is EntryState.STALE

    def test_generation_increments(self):
        store = ShardedCurveStore()
        assert store.put(KEY, None, 0.0).generation == 1
        assert store.put(KEY, None, 10.0).generation == 2
        assert store.put(OTHER, None, 0.0).generation == 1


class TestBookkeeping:
    def test_popularity_and_last_now(self):
        store = ShardedCurveStore()
        store.lookup(KEY, 100.0)  # not stored yet: not counted
        assert store.popularity(KEY) == 0
        store.put(KEY, None, 0.0)
        store.lookup(KEY, 100.0)
        store.lookup(KEY, 50.0)
        assert store.popularity(KEY) == 2
        assert store.popularity(OTHER) == 0

    def test_peek_does_not_record(self):
        store = ShardedCurveStore()
        store.peek(KEY)
        assert store.popularity(KEY) == 0

    def test_keys_and_requested_keys_sorted(self):
        store = ShardedCurveStore()
        store.lookup(OTHER, 0.0)
        store.lookup(KEY, 0.0)
        store.put(OTHER, None, 0.0)
        store.put(KEY, None, 0.0)
        assert store.keys() == sorted([KEY, OTHER])

    def test_invalidate(self):
        store = ShardedCurveStore()
        store.put(KEY, None, 0.0)
        assert store.invalidate(KEY)
        assert not store.invalidate(KEY)
        assert len(store) == 0

    def test_stats_census(self):
        store = ShardedCurveStore(n_shards=4, refresh_seconds=900.0)
        store.put(KEY, None, computed_at=0.0)
        store.put(OTHER, None, computed_at=10_000.0)
        stats = store.stats(now=10_100.0)
        assert stats["entries"] == 2
        assert stats["states"]["fresh"] == 1
        assert stats["states"]["stale-serving"] == 1
        assert sum(stats["per_shard"]) == 2


class TestConcurrency:
    def test_concurrent_puts_and_lookups(self):
        store = ShardedCurveStore(n_shards=4)
        keys = [("t", f"zone-{i % 7}", 0.95) for i in range(7)]
        errors = []

        def hammer(seed: int):
            try:
                for i in range(2000):
                    key = keys[(seed + i) % len(keys)]
                    store.put(key, None, computed_at=float(i))
                    store.lookup(key, float(i))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # 8 threads x 2000 puts spread over 7 keys: generations must sum
        # to the total number of puts (no lost updates).
        total = sum(store.peek(k).generation for k in keys)
        assert total == 8 * 2000
