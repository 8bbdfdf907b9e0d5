"""Background curve refresh: single-flight recompute plus a priority scheduler.

The prototype recomputes every curve on a 15-minute cron (§3.3). Here a
curve is recomputed when a read finds it older than that period
(stale-while-revalidate): the read is answered from the stale entry and
the key is refreshed off the request path. Two cooperating pieces do it:

:class:`SingleFlight`
    Per-key deduplication of in-flight recomputes. When K requests miss on
    the same (type, AZ, p) key concurrently, one *leader* runs the QBETS
    recompute and K-1 *followers* block on its result — the expensive work
    happens exactly once (request coalescing).

:class:`BackgroundRefresher`
    A worker pool draining a pending-refresh set in priority order
    (staleness age × request popularity, so hot combinations recompute
    first). The gateway pokes it on every stale read. It also runs fully
    synchronously via :meth:`BackgroundRefresher.run_pending` for
    deterministic tests.

The refresher only reads the store, to rank pending keys and to skip a
key some other reader already refreshed; its ``compute`` callback writes
it (the gateway's is :meth:`DraftsService.curve`, which stores every
recompute).

A combination the account does not offer (or, on a shard worker, one the
shard does not own) raises ``KeyError`` from the recompute. That is the
caller's 404, not a failing recompute: it reaches neither
``serving.refresh_failures`` nor the ``on_result`` hook.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.core.curves import BidDurationCurve
from repro.service.store import CurveKey, EntryState, ShardedCurveStore
from repro.serving.metrics import MetricsRegistry

__all__ = ["BackgroundRefresher", "SingleFlight"]

#: Computes a curve for a key at a simulation instant (may raise).
ComputeFn = Callable[[CurveKey, float], "BidDurationCurve | None"]
#: Observes a finished recompute: (key, error-or-None).
ResultHook = Callable[[CurveKey, "Exception | None"], None]


class _Call:
    __slots__ = ("event", "result", "error", "followers")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: object = None
        self.error: Exception | None = None
        self.followers = 0


class SingleFlight:
    """Per-key in-flight call deduplication (the Go ``singleflight`` idiom)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._calls: dict[CurveKey, _Call] = {}

    def in_flight(self, key: CurveKey) -> bool:
        """Whether a call for ``key`` is currently running."""
        with self._lock:
            return key in self._calls

    def followers(self, key: CurveKey) -> int:
        """How many callers are currently waiting on ``key``'s leader."""
        with self._lock:
            call = self._calls.get(key)
            return call.followers if call else 0

    def execute(self, key: CurveKey, fn: Callable[[], object]):
        """Run ``fn`` once per concurrent burst of callers of ``key``.

        Returns ``(result, was_leader)``. Followers receive the leader's
        result (or re-raise its exception) without running ``fn``.
        """
        with self._lock:
            call = self._calls.get(key)
            if call is None:
                call = _Call()
                self._calls[key] = call
                leader = True
            else:
                call.followers += 1
                leader = False
        if leader:
            try:
                call.result = fn()
            except Exception as exc:  # noqa: BLE001 — re-raised below
                call.error = exc
            finally:
                with self._lock:
                    del self._calls[key]
                call.event.set()
        else:
            call.event.wait()
        if call.error is not None:
            raise call.error
        return call.result, leader


class BackgroundRefresher:
    """Priority-ordered background recompute over a curve store.

    Parameters
    ----------
    store:
        The shared :class:`ShardedCurveStore`, read for priorities only.
    compute:
        ``compute(key, now)`` producing the curve and storing it (the
        gateway wires this to :meth:`DraftsService.curve`, so answers stay
        bit-identical to the lazy service).
    metrics:
        Registry receiving ``serving.recomputes``, ``serving.coalesced``,
        ``serving.refresh_failures`` counters, the
        ``serving.refresh_pending`` gauge and the
        ``serving.recompute_seconds`` histogram.
    clock:
        Wall clock for recompute-latency measurement (injectable).
    on_result:
        Optional hook observing each finished recompute except a
        ``KeyError`` (not offered) — the gateway plugs its circuit
        breaker in here.
    n_workers:
        Worker threads when started in background mode.
    """

    def __init__(
        self,
        store: ShardedCurveStore,
        compute: ComputeFn,
        *,
        metrics: MetricsRegistry | None = None,
        clock=None,
        on_result: ResultHook | None = None,
        single_flight: SingleFlight | None = None,
        n_workers: int = 2,
        poll_interval: float = 0.05,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        from repro.serving.clock import SystemClock

        self._store = store
        self._compute = compute
        self._metrics = metrics or MetricsRegistry()
        self._clock = clock or SystemClock()
        self._on_result = on_result
        self.single_flight = single_flight or SingleFlight()
        self._n_workers = n_workers
        self._poll_interval = poll_interval
        self._pending: dict[CurveKey, float] = {}
        self._cond = threading.Condition()
        self._threads: list[threading.Thread] = []
        self._running = False

    # -- scheduling ----------------------------------------------------------

    def poke(self, key: CurveKey, now: float) -> None:
        """Enqueue ``key`` for refresh as of simulation instant ``now``."""
        with self._cond:
            self._pending[key] = max(self._pending.get(key, now), now)
            self._metrics.gauge("serving.refresh_pending").set(
                len(self._pending)
            )
            self._cond.notify()

    def pending_count(self) -> int:
        """Keys currently awaiting refresh."""
        with self._cond:
            return len(self._pending)

    def _priority(self, key: CurveKey, now: float) -> float:
        """Staleness age × request popularity (hot and old first)."""
        entry = self._store.peek(key)
        age = (
            self._store.refresh_seconds
            if entry is None
            else abs(now - entry.computed_at)
        )
        return age * (1 + self._store.popularity(key))

    def _pop_next(self) -> tuple[CurveKey, float] | None:
        """Pop the highest-priority pending key (ties to the smallest)."""
        with self._cond:
            if not self._pending:
                return None
            key = max(
                sorted(self._pending),
                key=lambda k: self._priority(k, self._pending[k]),
            )
            now = self._pending.pop(key)
            self._metrics.gauge("serving.refresh_pending").set(
                len(self._pending)
            )
            return key, now

    # -- recompute -----------------------------------------------------------

    def refresh(
        self, key: CurveKey, now: float
    ) -> tuple[BidDurationCurve | None, bool]:
        """Recompute ``key`` at ``now`` through the single-flight group.

        Returns ``(curve, was_leader)``. The gateway uses this for inline
        cold misses too, so a background refresh and a concurrent request
        miss coalesce onto one recompute. A leader that finds the store
        already fresh at ``now`` (another reader refreshed the key since it
        was queued) returns that curve: nothing is computed, counted in
        ``serving.recomputes``, timed or reported to ``on_result``.
        """

        def _do() -> BidDurationCurve | None:
            entry = self._store.peek(key)
            if self._store.state_of(entry, now) is EntryState.FRESH:
                return entry.curve
            started = self._clock.now()
            try:
                curve = self._compute(key, now)
            except KeyError:
                raise  # not offered / not owned: the caller's 404
            except Exception as exc:
                self._metrics.counter("serving.refresh_failures").inc()
                if self._on_result is not None:
                    self._on_result(key, exc)
                raise
            self._metrics.counter("serving.recomputes").inc()
            self._metrics.histogram("serving.recompute_seconds").observe(
                self._clock.now() - started
            )
            if self._on_result is not None:
                self._on_result(key, None)
            return curve

        curve, leader = self.single_flight.execute(key, _do)
        if not leader:
            self._metrics.counter("serving.coalesced").inc()
        return curve, leader

    def run_pending(self, limit: int | None = None) -> int:
        """Synchronously drain pending refreshes in priority order.

        Deterministic single-threaded mode for tests and simulations;
        failures are swallowed (counted in ``serving.refresh_failures``).
        Returns how many refreshes ran.
        """
        done = 0
        while limit is None or done < limit:
            item = self._pop_next()
            if item is None:
                break
            key, now = item
            try:
                self.refresh(key, now)
            except Exception:  # noqa: BLE001 — counted + reported via hook
                pass
            done += 1
        return done

    # -- background workers ----------------------------------------------------

    def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        with self._cond:
            if self._running:
                return
            self._running = True
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"curve-refresher-{i}", daemon=True
            )
            for i in range(self._n_workers)
        ]
        for thread in self._threads:
            thread.start()

    def stop(self) -> None:
        """Stop the worker pool and join it."""
        with self._cond:
            self._running = False
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()
        self._threads = []

    def _worker(self) -> None:
        while True:
            with self._cond:
                while self._running and not self._pending:
                    self._cond.wait(self._poll_interval)
                if not self._running:
                    return
            item = self._pop_next()
            if item is None:
                continue
            key, now = item
            try:
                self.refresh(key, now)
            except Exception:  # noqa: BLE001 — counted + reported via hook
                pass
