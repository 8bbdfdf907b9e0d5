"""Unit tests for single-flight coalescing and the background refresher."""

import threading

import pytest

from repro.service.store import EntryState, ShardedCurveStore
from repro.serving.clock import ManualClock
from repro.serving.metrics import MetricsRegistry
from repro.serving.refresher import BackgroundRefresher, SingleFlight

KEY = ("c4.large", "us-east-1b", 0.95)


def _wait_until(predicate, timeout=5.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


class TestSingleFlight:
    def test_sequential_calls_each_lead(self):
        group = SingleFlight()
        result1, leader1 = group.execute(KEY, lambda: 1)
        result2, leader2 = group.execute(KEY, lambda: 2)
        assert (result1, leader1) == (1, True)
        assert (result2, leader2) == (2, True)

    def test_concurrent_calls_coalesce_deterministically(self):
        group = SingleFlight()
        release = threading.Event()
        calls = []
        results = []

        def compute():
            calls.append(1)
            release.wait(5.0)
            return "answer"

        def leader():
            results.append(group.execute(KEY, compute))

        def follower():
            results.append(group.execute(KEY, lambda: "wrong"))

        lead_thread = threading.Thread(target=leader)
        lead_thread.start()
        assert _wait_until(lambda: group.in_flight(KEY))

        followers = [threading.Thread(target=follower) for _ in range(7)]
        for thread in followers:
            thread.start()
        assert _wait_until(lambda: group.followers(KEY) == 7)

        release.set()
        lead_thread.join()
        for thread in followers:
            thread.join()

        assert len(calls) == 1  # exactly one compute for 8 callers
        assert [r[0] for r in results] == ["answer"] * 8
        assert sum(1 for r in results if r[1]) == 1  # one leader

    def test_leader_exception_propagates_to_followers(self):
        group = SingleFlight()
        release = threading.Event()
        outcomes = []

        def compute():
            release.wait(5.0)
            raise KeyError("nope")

        def run(fn):
            try:
                group.execute(KEY, fn)
                outcomes.append("ok")
            except KeyError:
                outcomes.append("raised")

        lead = threading.Thread(target=run, args=(compute,))
        lead.start()
        assert _wait_until(lambda: group.in_flight(KEY))
        follow = threading.Thread(target=run, args=(lambda: "unused",))
        follow.start()
        assert _wait_until(lambda: group.followers(KEY) == 1)
        release.set()
        lead.join()
        follow.join()
        assert outcomes == ["raised", "raised"]


class TestBackgroundRefresher:
    def _refresher(self, compute, **kwargs):
        store = ShardedCurveStore(refresh_seconds=900.0)
        metrics = MetricsRegistry()

        def compute_and_store(key, now):
            # The compute callback stores its result, as DraftsService.curve
            # does for the gateway; the refresher itself never writes.
            curve = compute(key, now)
            store.put(key, curve, computed_at=now)
            return curve

        refresher = BackgroundRefresher(
            store,
            compute_and_store,
            metrics=metrics,
            clock=ManualClock(),
            **kwargs,
        )
        return store, metrics, refresher

    def test_refresh_installs_versioned_entry(self):
        store, metrics, refresher = self._refresher(lambda key, now: None)
        _, leader = refresher.refresh(KEY, 1000.0)
        entry = store.peek(KEY)
        assert leader
        assert entry.generation == 1
        assert entry.computed_at == 1000.0
        assert store.state_of(store.peek(KEY), 1000.0) is EntryState.FRESH
        assert metrics.counter("serving.recomputes").value == 1

    def test_run_pending_drains_in_priority_order(self):
        refreshed = []
        store, _, refresher = self._refresher(
            lambda key, now: refreshed.append(key)
        )
        hot = ("hot", "zone", 0.95)
        cold = ("cold", "zone", 0.95)
        store.put(hot, None, computed_at=0.0)
        store.put(cold, None, computed_at=0.0)
        for _ in range(10):  # make `hot` popular
            store.lookup(hot, 5000.0)
        refresher.poke(cold, 5000.0)
        refresher.poke(hot, 5000.0)
        assert refresher.run_pending() == 2
        assert refreshed == [hot, cold]  # same age, popularity breaks the tie

    def test_poke_keeps_latest_instant(self):
        seen = []
        _, _, refresher = self._refresher(
            lambda key, now: seen.append(now)
        )
        refresher.poke(KEY, 100.0)
        refresher.poke(KEY, 500.0)
        refresher.poke(KEY, 300.0)  # must not regress
        assert refresher.pending_count() == 1
        refresher.run_pending()
        assert seen == [500.0]

    def test_failures_counted_and_reported(self):
        failures = []

        def compute(key, now):
            raise RuntimeError("history API down")

        store = ShardedCurveStore()
        metrics = MetricsRegistry()
        refresher = BackgroundRefresher(
            store,
            compute,
            metrics=metrics,
            clock=ManualClock(),
            on_result=lambda key, error: failures.append((key, error)),
        )
        refresher.poke(KEY, 0.0)
        assert refresher.run_pending() == 1  # failure swallowed, counted
        assert metrics.counter("serving.refresh_failures").value == 1
        assert failures[0][0] == KEY
        assert isinstance(failures[0][1], RuntimeError)
        with pytest.raises(RuntimeError):
            refresher.refresh(KEY, 0.0)  # direct calls surface the error

    def test_threaded_workers_drain_pending(self):
        store, metrics, refresher = self._refresher(
            lambda key, now: None, n_workers=2
        )
        refresher.start()
        try:
            for i in range(20):
                refresher.poke(("t", f"zone-{i}", 0.95), float(i))
            assert _wait_until(lambda: refresher.pending_count() == 0)
            assert _wait_until(
                lambda: metrics.counter("serving.recomputes").value == 20
            )
        finally:
            refresher.stop()
        assert len(store) == 20
