"""Sharded, thread-safe store of versioned bid–duration curves.

This is the service's one curve cache (``DraftsService.store``): the
service writes every curve it computes, warm-starts or restores, and the
serving gateway reads the same object. The production DrAFTS prototype is
read-dominated: every client GET is a cache read, and the only writes are
recomputes (a stale read enqueues its key; the first request for a new
combination fits it). A single global lock would serialise those reads,
so the store hashes each ``(instance_type, zone, probability)`` key onto
one of N shards (deterministically — CRC32, not Python's salted
``hash``) and each shard carries its own lock. Readers of different
combinations never contend. A stored key's shard is remembered, so warm
reads pay one dict lookup instead of hashing the key's ``repr`` again.

Entries are versioned (:attr:`CurveEntry.generation`) and classified into
three staleness states against the *simulation* clock of the request:

``fresh``
    ``computed_at`` is within the refresh interval — serve as is.
``stale-serving``
    older than the interval (or from the future, for backtests that move
    time backwards) — still served immediately, while the background
    refresher recomputes (stale-while-revalidate).
``missing``
    never computed — the gateway must compute inline (coalesced).
"""

from __future__ import annotations

import enum
import threading
import zlib
from dataclasses import dataclass

from repro.core.curves import BidDurationCurve

__all__ = ["CurveEntry", "CurveKey", "EntryState", "ShardedCurveStore"]

#: A cache key: (instance_type, zone, probability).
CurveKey = tuple[str, str, float]


class EntryState(enum.Enum):
    """Staleness classification of a store lookup."""

    FRESH = "fresh"
    STALE = "stale-serving"
    MISSING = "missing"


@dataclass(frozen=True)
class CurveEntry:
    """One versioned cache record.

    Attributes
    ----------
    key:
        The (instance_type, zone, probability) triple.
    curve:
        The published curve; ``None`` records a "history still too short"
        answer (also cached, so short-history combinations don't recompute
        on every request).
    computed_at:
        Simulation instant the curve was computed at.
    generation:
        Monotonic per-key version counter, bumped by every recompute.
    """

    key: CurveKey
    curve: BidDurationCurve | None
    computed_at: float
    generation: int


class _Shard:
    """One lock domain: entries plus per-key read counts."""

    __slots__ = ("lock", "entries", "popularity")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.entries: dict[CurveKey, CurveEntry] = {}
        self.popularity: dict[CurveKey, int] = {}


def _shard_index(key: CurveKey, n_shards: int) -> int:
    """Deterministic shard assignment (stable across processes/runs)."""
    return zlib.crc32(repr(key).encode()) % n_shards


class ShardedCurveStore:
    """N-way sharded map from :data:`CurveKey` to :class:`CurveEntry`.

    Parameters
    ----------
    n_shards:
        Lock domains; sized for the expected reader concurrency.
    refresh_seconds:
        The staleness horizon (the paper's 15-minute cron interval).
    """

    def __init__(self, n_shards: int = 16, refresh_seconds: float = 900.0):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if refresh_seconds <= 0:
            raise ValueError("refresh_seconds must be positive")
        self._shards = tuple(_Shard() for _ in range(n_shards))
        self._refresh_seconds = refresh_seconds
        # key -> its shard, for every key ever stored: bounded by the
        # stored key set, so unknown keys in URLs cannot grow it.
        self._shard_of: dict[CurveKey, _Shard] = {}

    @property
    def n_shards(self) -> int:
        """Number of lock domains."""
        return len(self._shards)

    @property
    def refresh_seconds(self) -> float:
        """The staleness horizon in simulation seconds."""
        return self._refresh_seconds

    def _shard(self, key: CurveKey) -> _Shard:
        shard = self._shard_of.get(key)
        if shard is None:
            shard = self._shards[_shard_index(key, len(self._shards))]
        return shard

    def state_of(self, entry: CurveEntry | None, now: float) -> EntryState:
        """Classify ``entry`` against simulation instant ``now``."""
        if entry is None:
            return EntryState.MISSING
        age = now - entry.computed_at
        if 0 <= age < self._refresh_seconds:
            return EntryState.FRESH
        # Too old, or computed in the future (backtests may rewind time).
        return EntryState.STALE

    def lookup(
        self, key: CurveKey, now: float
    ) -> tuple[CurveEntry | None, EntryState]:
        """Read ``key`` at simulation instant ``now``.

        A read of a stored key also counts toward its popularity, so the
        refresher can prioritise hot, stale combinations. A read of a key
        the store does not hold counts nothing: URLs naming unknown
        combinations cannot grow the per-key maps.
        """
        shard = self._shard(key)
        with shard.lock:
            entry = shard.entries.get(key)
            if entry is not None:
                shard.popularity[key] = shard.popularity.get(key, 0) + 1
        return entry, self.state_of(entry, now)

    def peek(self, key: CurveKey) -> CurveEntry | None:
        """Read without recording the access (refresher bookkeeping)."""
        shard = self._shard(key)
        with shard.lock:
            return shard.entries.get(key)

    def put(
        self, key: CurveKey, curve: BidDurationCurve | None, computed_at: float
    ) -> CurveEntry:
        """Install a freshly computed curve, bumping the generation."""
        shard = self._shard(key)
        with shard.lock:
            previous = shard.entries.get(key)
            entry = CurveEntry(
                key=key,
                curve=curve,
                computed_at=computed_at,
                generation=(previous.generation + 1) if previous else 1,
            )
            shard.entries[key] = entry
        self._shard_of[key] = shard
        return entry

    def invalidate(self, key: CurveKey) -> bool:
        """Drop an entry (keeps popularity); True when one existed."""
        shard = self._shard(key)
        with shard.lock:
            return shard.entries.pop(key, None) is not None

    def popularity(self, key: CurveKey) -> int:
        """Lookup count recorded for ``key``."""
        shard = self._shard(key)
        with shard.lock:
            return shard.popularity.get(key, 0)

    def keys(self) -> list[CurveKey]:
        """Every key with a stored entry (sorted for determinism)."""
        keys: list[CurveKey] = []
        for shard in self._shards:
            with shard.lock:
                keys.extend(shard.entries)
        return sorted(keys)

    def __len__(self) -> int:
        return sum(len(s.entries) for s in self._shards)

    def stats(self, now: float) -> dict:
        """Shard occupancy and staleness-state census at instant ``now``."""
        per_shard: list[int] = []
        states = {state.value: 0 for state in EntryState}
        for shard in self._shards:
            with shard.lock:
                per_shard.append(len(shard.entries))
                entries = list(shard.entries.values())
            for entry in entries:
                states[self.state_of(entry, now).value] += 1
        return {
            "n_shards": len(self._shards),
            "entries": sum(per_shard),
            "per_shard": per_shard,
            "states": states,
        }
