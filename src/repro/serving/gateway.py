"""The serving gateway: admission control, coalesced reads, fallbacks.

This is the production front door the prototype implies (§3.3): clients GET
curves, point bids, AZ recommendations and a metrics snapshot; every read
is a cache read against the service's sharded store
(``DraftsService.store``, the one curve cache). The request path never
performs QBETS work except on a *cold miss* (a key never computed before),
and even then K concurrent misses coalesce into one recompute via the
refresher's single-flight group.

Request lifecycle::

    GET ──▶ admission (inflight ≤ max_inflight, else 429 + Retry-After)
         ──▶ route ──▶ rest.respond ──▶ store lookup
                         fresh  → serve            (hit)
                         stale  → serve + poke     (stale-hit; refresh is
                                                    off the request path)
                         missing→ breaker closed?  (miss)
                                    yes → coalesced inline recompute
                                          (not offered → 404)
                                    no  → §4.4 On-demand fallback
         ──▶ deadline check (504 when the wall budget is exhausted)

The body, status and message of every curve route come from
:func:`repro.service.rest.respond`, the handler set the lazy
:class:`~repro.service.rest.RestRouter` answers through too; the gateway
supplies only its store-first curve read and the open-circuit answers.

Every curve request is classified exactly once as hit / stale-hit / miss /
shed / error, so the metrics snapshot satisfies
``hits + stale_hits + misses + shed + errors == requests``.

A stale read is the only thing that schedules a refresh: the paper's
15-minute cron period survives as ``ServiceConfig.refresh_seconds``, the
staleness horizon every read checks. A combination the account does not
offer is a 404 on every read; it never counts against the circuit
breaker. With a ``snapshot_dir``, :meth:`ServingGateway.start` restores
the checkpoint and :meth:`ServingGateway.stop` writes the next one;
:func:`warm_gateway` is the one function that chooses between that
restore and a batch fit.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from repro.cloud.api import EC2Api
from repro.service.drafts_service import DraftsService, ServiceConfig
from repro.service.partition import region_of_zone
from repro.service.persistence import MANIFEST_NAME
from repro.service.rest import (
    CURVE_ROUTES,
    Response,
    Route,
    Unavailable,
    parse_route,
    respond,
)
from repro.service.store import CurveKey, EntryState
from repro.serving.clock import Clock, SystemClock
from repro.serving.metrics import MetricsRegistry
from repro.serving.refresher import BackgroundRefresher, SingleFlight

__all__ = ["GatewayConfig", "ServingGateway", "warm_gateway"]


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway policy knobs.

    Attributes
    ----------
    max_inflight:
        Admission bound: concurrent curve requests beyond this are shed
        with 429 (queue-depth load shedding — every request inside the
        gateway holds a caller's thread, so the inflight count *is* the
        queue depth).
    retry_after_seconds:
        The ``retry_after`` hint attached to shed responses.
    deadline_seconds:
        Default per-request wall-time budget; ``None`` means unbounded.
        Overridable per request with ``&deadline=``.
    breaker_threshold:
        Consecutive recompute failures for one key before its circuit
        opens.
    breaker_cooldown_seconds:
        How long an open circuit short-circuits to the §4.4 On-demand
        fallback before recompute is retried.
    refresher_workers:
        Background refresh threads started by :meth:`ServingGateway.start`.
    snapshot_dir:
        Directory the service's predictor state is checkpointed to (see
        :mod:`repro.service.persistence`). When set,
        :meth:`ServingGateway.start` restores the checkpoint it holds and
        :meth:`ServingGateway.stop` writes a new one. ``None`` disables
        persistence (the pre-checkpoint volatile behaviour).
    """

    max_inflight: int = 64
    retry_after_seconds: float = 1.0
    deadline_seconds: float | None = None
    breaker_threshold: int = 3
    breaker_cooldown_seconds: float = 60.0
    refresher_workers: int = 2
    snapshot_dir: str | None = None

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_seconds < 0:
            raise ValueError("breaker_cooldown_seconds must be >= 0")


def _has_checkpoint(config: GatewayConfig) -> bool:
    """Whether ``config.snapshot_dir`` holds a checkpoint to restore."""
    return (
        config.snapshot_dir is not None
        and (Path(config.snapshot_dir) / MANIFEST_NAME).exists()
    )


class _CircuitBreaker:
    """Per-key consecutive-failure breaker on the recompute path.

    Half-open protocol: once the cooldown elapses the circuit stays open
    except for exactly one *probe* recompute (a lease recorded in
    ``_probes``); concurrent callers keep short-circuiting until the probe
    resolves. A successful probe closes the circuit and clears the stale
    failure count; a failed probe re-opens for a fresh cooldown
    immediately. A probe whose result never arrives (its request died
    between the admission check and the recompute) stops blocking after one
    cooldown, when a new lease may be taken.
    """

    def __init__(
        self, threshold: int, cooldown: float, clock: Clock, metrics
    ) -> None:
        self._threshold = threshold
        self._cooldown = cooldown
        self._clock = clock
        self._metrics = metrics
        self._lock = threading.Lock()
        self._failures: dict[CurveKey, int] = {}
        self._open_until: dict[CurveKey, float] = {}
        self._probes: dict[CurveKey, float] = {}

    def is_open(self, key: CurveKey) -> bool:
        with self._lock:
            until = self._open_until.get(key)
            if until is None:
                return False
            now = self._clock.now()
            if now < until:
                return True
            leased = self._probes.get(key)
            if leased is not None and now < leased + self._cooldown:
                # A probe is already in flight; everyone else stays on the
                # fallback until it resolves (or its lease expires).
                return True
            self._probes[key] = now
            return False

    def on_result(self, key: CurveKey, error: Exception | None) -> None:
        with self._lock:
            probing = self._probes.pop(key, None) is not None
            if error is None:
                self._failures.pop(key, None)
                self._open_until.pop(key, None)
                return
            if probing and key in self._open_until:
                # Failed probe: back to fully open for a fresh cooldown,
                # without waiting for `threshold` new failures.
                self._open_until[key] = self._clock.now() + self._cooldown
                self._metrics.counter("gateway.breaker_reopens").inc()
                return
            count = self._failures.get(key, 0) + 1
            self._failures[key] = count
            if count >= self._threshold:
                self._open_until[key] = self._clock.now() + self._cooldown
                self._metrics.counter("gateway.breaker_trips").inc()


class _BreakerOpen(Unavailable):
    """Internal: a cold miss hit an open circuit — use the §4.4 fallback."""


class _DeadlineExceeded(Exception):
    """Internal: the request's wall budget ran out."""


class _RequestState:
    """Per-request bookkeeping: deadline budget and outcome classification."""

    __slots__ = ("started", "deadline", "worst")

    def __init__(self, started: float, deadline: float | None) -> None:
        self.started = started
        self.deadline = deadline
        self.worst: EntryState | None = None

    def observe(self, state: EntryState) -> None:
        order = (EntryState.FRESH, EntryState.STALE, EntryState.MISSING)
        if self.worst is None or order.index(state) > order.index(self.worst):
            self.worst = state


class ServingGateway:
    """REST-shaped front door over a sharded curve store.

    Routes (superset of :class:`~repro.service.rest.RestRouter`):

    ``GET /predictions/{type}/{zone}?probability=&now=[&deadline=]``
    ``GET /bid/{type}/{zone}?probability=&duration=&now=[&deadline=]``
    ``GET /cheapest/{type}/{region}?probability=&now=[&deadline=]``
    ``GET /health``
    ``GET /metrics``

    Curves come from ``service`` and are read from its store
    (``self.store is service.store``), so fresh answers are bit-identical
    to the lazy :class:`DraftsService`. Every curve route is answered by
    :func:`~repro.service.rest.respond`, as for
    :class:`~repro.service.rest.RestRouter`; the gateway only supplies its
    own curve read (:meth:`_serve_curve`: stale-while-revalidate, coalesced
    cold misses, the circuit breaker) and keeps what is its own around it:
    admission, the deadline, the outcome classification and the
    open-circuit answers.
    """

    def __init__(
        self,
        service: DraftsService,
        config: GatewayConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        clock: Clock | None = None,
        identity: dict | None = None,
    ) -> None:
        self._service = service
        self._cfg = config or GatewayConfig()
        # Worker identity (shard id, pid, owned-key count) surfaced on
        # /healthz and in drain stats so a router or replayer can attribute
        # answers to the process that produced them. None/empty leaves the
        # plain single-process bytes unchanged.
        self.identity = dict(identity) if identity else None
        self._clock = clock or SystemClock()
        self.metrics = metrics or MetricsRegistry()
        self.store = service.store
        self._breaker = _CircuitBreaker(
            self._cfg.breaker_threshold,
            self._cfg.breaker_cooldown_seconds,
            self._clock,
            self.metrics,
        )
        self.refresher = BackgroundRefresher(
            self.store,
            self._compute,
            metrics=self.metrics,
            clock=self._clock,
            on_result=self._breaker.on_result,
            single_flight=SingleFlight(),
            n_workers=self._cfg.refresher_workers,
        )
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        # Pre-register the instrument set so /metrics always exposes the
        # full contract (a counter that never fired still reads 0).
        for name in (
            "gateway.requests",
            "gateway.hits",
            "gateway.stale_hits",
            "gateway.misses",
            "gateway.shed",
            "gateway.errors",
            "gateway.other",
            "gateway.deadline_exceeded",
            "gateway.breaker_trips",
            "gateway.breaker_reopens",
            "gateway.breaker_short_circuits",
            "gateway.fallbacks",
            "gateway.snapshots",
            "gateway.snapshot_failures",
            "serving.recomputes",
            "serving.coalesced",
            "serving.refresh_failures",
        ):
            self.metrics.counter(name)
        self.metrics.gauge("gateway.inflight")
        self.metrics.gauge("serving.refresh_pending")
        self.metrics.histogram("gateway.request_seconds")
        self.metrics.histogram("serving.recompute_seconds")

    @property
    def config(self) -> GatewayConfig:
        """The gateway configuration."""
        return self._cfg

    @property
    def service(self) -> DraftsService:
        """The underlying lazy service the gateway fronts."""
        return self._service

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServingGateway":
        """Start the background refresh workers.

        When a ``snapshot_dir`` is configured and holds a checkpoint, the
        service restores it first (predictor state and stored curves), so
        the gateway comes up serving from where the previous process
        stopped instead of cold-refitting the whole universe.
        """
        if _has_checkpoint(self._cfg):
            self.load_state(self._cfg.snapshot_dir)
        self.refresher.start()
        return self

    def stop(self) -> None:
        """Stop the background refresh workers, then write the checkpoint.

        A failed checkpoint is counted in ``gateway.snapshot_failures``
        and leaves the previous one in place; ``stop()`` still returns
        normally, because persistence must never take serving down.
        """
        self.refresher.stop()
        if self._cfg.snapshot_dir is not None:
            try:
                self.save_state(self._cfg.snapshot_dir)
            except Exception:
                self.metrics.counter("gateway.snapshot_failures").inc()

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no curve request is in flight (the drain hook).

        The socket server calls this between "stop accepting" and the
        final shutdown checkpoint, so every admitted request finishes and
        its effects are captured by the last snapshot. Returns ``True``
        when the gateway went idle, ``False`` on timeout. Polls wall time
        (requests are short; drain is a once-per-shutdown path).
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            with self._inflight_lock:
                if self._inflight == 0:
                    return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.002)

    def __enter__(self) -> "ServingGateway":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def save_state(self, directory: str | None = None) -> dict:
        """Checkpoint the service's predictor state (see
        :meth:`DraftsService.save_state`)."""
        directory = directory or self._cfg.snapshot_dir
        if directory is None:
            raise ValueError("no snapshot directory given or configured")
        info = self._service.save_state(directory)
        self.metrics.counter("gateway.snapshots").inc()
        return info

    def load_state(self, directory: str | None = None) -> dict:
        """Restore a checkpoint (see :meth:`DraftsService.load_state`).

        Restored published curves are servable entries of the shared
        store at their original ``computed_at``, so staleness carries over
        the restart; damaged per-key files are skipped and those keys
        refit on first touch.
        """
        directory = directory or self._cfg.snapshot_dir
        if directory is None:
            raise ValueError("no snapshot directory given or configured")
        return self._service.load_state(directory)

    # -- request path --------------------------------------------------------

    def get(self, url: str) -> Response:
        """Dispatch one GET request."""
        route = parse_route(url)
        if route.kind in CURVE_ROUTES:
            return self._admitted(route)
        self.metrics.counter("gateway.other").inc()
        if route.kind == "health":
            body = {"status": "ok"}
            if self.identity:
                body.update(self.identity)
            return Response(200, body)
        if route.kind == "metrics":
            return Response(200, self.snapshot())
        return Response(404, {"error": f"no route for {route.path!r}"})

    def can_serve_inline(self, url: str) -> bool:
        """True when answering ``url`` cannot block the calling thread.

        Every route is an in-memory read except a curve read that would
        fit a cold key inline: a ``predictions``/``bid`` key, or any zone
        a ``cheapest`` scan visits, that the account offers but the store
        holds no entry for, in a URL whose checks pass (a rejected URL, or
        a key the account does not offer, is a 400 or 404 from memory). A
        stored entry, fresh or stale, is served without blocking (a stale
        one only enqueues its refresh). An event-loop
        front end uses this probe to dispatch warm reads on the loop
        itself and push potentially blocking requests to its executor. The
        probe is side-effect free: it reads through
        :meth:`~repro.service.store.ShardedCurveStore.peek`, so it never
        perturbs the store's popularity accounting, and a conservative
        ``False`` is always safe (the request merely takes the slower,
        offloaded path).
        """
        return self.probe_inline(url)[0]

    def probe_inline(self, url: str):
        """(non-blocking, warm curve) for ``url`` — the raw probe.

        The first element is :meth:`can_serve_inline`'s answer. The second
        is the warm curve object that would serve a ``predictions``/``bid``
        hit, or ``None`` for every other case (in-memory routes, error
        paths, ``cheapest`` scans, cold keys). Curves are immutable once
        fitted, so the object doubles as a cache-validation token: a
        response derived from this curve and this URL stays byte-stable
        exactly as long as the store still holds the same object.
        """
        route = parse_route(url)
        if route.kind not in CURVE_ROUTES or route.error is not None:
            # health/metrics/404, or a malformed query's 400: from memory.
            return True, None
        instance_type, probability = route.instance_type, route.probability
        try:
            # The checks respond() makes before any read: a URL they reject
            # is a 400 or 404 from memory.
            self._service.check_probability(probability)
            if route.kind == "cheapest":
                zones = self._service.scan_zones(instance_type, route.location)
                cold = any(
                    self._cold((instance_type, zone, probability))
                    for zone in zones
                )
                return not cold, None
        except (KeyError, ValueError):
            return True, None
        key = (instance_type, route.location, probability)
        entry = self.store.peek(key)
        if entry is None:
            return not self._cold(key), None
        return True, entry.curve

    def _cold(self, key: CurveKey) -> bool:
        """Whether a read of ``key`` would fit it inline: the store holds
        no entry for it and the account offers it (a read of a key it
        does not offer is a 404 from memory)."""
        if self.store.peek(key) is not None:
            return False
        try:
            self._service.api.check_offered(key[0], key[1])
        except KeyError:
            return False
        return True

    def _admitted(self, route: Route) -> Response:
        self.metrics.counter("gateway.requests").inc()
        with self._inflight_lock:
            if self._inflight >= self._cfg.max_inflight:
                self.metrics.counter("gateway.shed").inc()
                return Response(
                    429,
                    {
                        "error": "gateway overloaded; request shed",
                        "retry_after": self._cfg.retry_after_seconds,
                    },
                )
            self._inflight += 1
            self.metrics.gauge("gateway.inflight").set(self._inflight)
        try:
            return self._handle(route)
        finally:
            with self._inflight_lock:
                self._inflight -= 1
                self.metrics.gauge("gateway.inflight").set(self._inflight)

    def _handle(self, route: Route) -> Response:
        deadline = route.deadline
        if deadline is None:
            deadline = self._cfg.deadline_seconds
        request = _RequestState(self._clock.now(), deadline)
        timed_out = False
        try:
            response = respond(
                route, self._service, partial(self._serve_curve, request)
            )
        except _BreakerOpen:
            response = self._circuit_open(route)
        except _DeadlineExceeded:
            timed_out = True
        elapsed = self._clock.now() - request.started
        self.metrics.histogram("gateway.request_seconds").observe(elapsed)
        if request.deadline is not None and elapsed > request.deadline:
            # The budget lapsed after an answer was computed: the client
            # still gets 504, and the request must not be classified as a
            # served hit/miss.
            timed_out = True
        if timed_out:
            # One classification (error) and one 504 per request, whether
            # the deadline fired mid-handler, post-hoc, or both.
            self.metrics.counter("gateway.errors").inc()
            return self._deadline_response(request)
        self._classify(request)
        return response

    def _classify(self, request: _RequestState) -> None:
        if request.worst is None:
            self.metrics.counter("gateway.errors").inc()
        elif request.worst is EntryState.FRESH:
            self.metrics.counter("gateway.hits").inc()
        elif request.worst is EntryState.STALE:
            self.metrics.counter("gateway.stale_hits").inc()
        else:
            self.metrics.counter("gateway.misses").inc()

    def _deadline_response(self, request: _RequestState) -> Response:
        self.metrics.counter("gateway.deadline_exceeded").inc()
        return Response(
            504,
            {
                "error": "deadline exceeded",
                "deadline": request.deadline,
                "retry_after": self._cfg.retry_after_seconds,
            },
        )

    # -- curve acquisition -----------------------------------------------------

    def _compute(self, key: CurveKey, now: float):
        """Recompute one key through the underlying service, which writes
        the result into the store both read."""
        instance_type, zone, probability = key
        return self._service.curve(instance_type, zone, probability, now)

    def _serve_curve(
        self,
        request: _RequestState,
        instance_type: str,
        zone: str,
        probability: float,
        now: float,
    ):
        """Store-first read implementing stale-while-revalidate (the
        gateway's ``read`` for :func:`~repro.service.rest.respond`)."""
        key = (instance_type, zone, probability)
        entry, state = self.store.lookup(key, now)
        request.observe(state)
        if state is EntryState.FRESH:
            return entry.curve
        if state is EntryState.STALE:
            # Serve the stale answer immediately; recompute off-path.
            self.refresher.poke(key, now)
            return entry.curve
        # Cold miss: recompute inline (coalesced) unless the circuit is open
        # or the deadline has no budget left for it.
        if self._breaker.is_open(key):
            self.metrics.counter("gateway.breaker_short_circuits").inc()
            raise _BreakerOpen(key)
        if (
            request.deadline is not None
            and self._clock.now() - request.started >= request.deadline
        ):
            raise _DeadlineExceeded()
        curve, _ = self.refresher.refresh(key, now)
        return curve

    # -- open circuit ------------------------------------------------------------

    def _circuit_open(self, route: Route) -> Response:
        """The answer to a ``predictions`` or ``bid`` read whose key's
        circuit is open (a ``cheapest`` scan skips such a zone).

        A bid gets §4.4's client rule, applied server-side: the On-demand
        price, which guarantees any duration.
        """
        if route.kind != "bid":
            return Response(
                503,
                {
                    "error": "recompute failing for this combination; "
                    "circuit open",
                    "fallback": "ondemand",
                    "retry_after": self._cfg.breaker_cooldown_seconds,
                },
            )
        price = self._service.api.ondemand_price(
            route.instance_type, region_of_zone(route.location)
        )
        self.metrics.counter("gateway.fallbacks").inc()
        return Response(
            200,
            {
                "instance_type": route.instance_type,
                "zone": route.location,
                "probability": route.probability,
                "duration": route.duration,
                "bid": price,
                "tier": "ondemand",
                "fallback": True,
            },
        )

    # -- observability -------------------------------------------------------------

    def snapshot(self) -> dict:
        """The ``GET /metrics`` body: instruments plus store occupancy."""
        body = self.metrics.snapshot()
        body["store"] = {
            "n_shards": self.store.n_shards,
            "entries": len(self.store),
            "refresh_pending": self.refresher.pending_count(),
        }
        body["service"] = self._service.cache_info()
        return body


def warm_gateway(
    universe,
    combos,
    now: float,
    *probabilities: float,
    api=None,
    config: GatewayConfig | None = None,
    identity: dict | None = None,
) -> ServingGateway:
    """A gateway over ``universe`` that answers ``combos`` from memory.

    ``probabilities`` are the published levels (at least one). ``api``
    is the account view the service predicts through (a shard worker
    passes its :class:`~repro.service.partition.PartitionedApi`); it
    defaults to ``EC2Api(universe)``. ``config`` defaults to
    ``GatewayConfig(max_inflight=256)``.

    This is the one place that chooses between restore and fit. When
    ``config.snapshot_dir`` holds a checkpoint, nothing is fitted here:
    :meth:`ServingGateway.start` restores it, and a key whose file is
    damaged fits on first touch. Otherwise every ``(instance_type, zone)``
    in ``combos`` is batch-fitted at ``now``
    (:meth:`~repro.service.drafts_service.DraftsService.warm_start`), which
    stores every key's curve, so a replay or a socket client measures
    serving, not first-touch fitting. No request is issued here.
    """
    service = DraftsService(
        api if api is not None else EC2Api(universe),
        ServiceConfig(probabilities=probabilities),
    )
    gateway = ServingGateway(
        service, config or GatewayConfig(max_inflight=256), identity=identity
    )
    if not _has_checkpoint(gateway.config):
        service.warm_start(list(combos), now)
    return gateway
