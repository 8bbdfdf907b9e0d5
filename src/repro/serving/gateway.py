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
         ──▶ route ──▶ store lookup
                         fresh  → serve            (hit)
                         stale  → serve + poke     (stale-hit; refresh is
                                                    off the request path)
                         missing→ breaker closed?  (miss)
                                    yes → coalesced inline recompute
                                          (not offered → 404)
                                    no  → §4.4 On-demand fallback
         ──▶ deadline check (504 when the wall budget is exhausted)

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

import math
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.cloud.api import EC2Api
from repro.service.drafts_service import DraftsService, ServiceConfig
from repro.service.persistence import MANIFEST_NAME
from repro.service.rest import Response, Route, parse_floats, parse_route
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


class _BreakerOpen(Exception):
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
    to the lazy :class:`DraftsService`; the serving layer adds admission,
    coalescing and stale-while-revalidate refresh around that one cache.
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
        self._handlers = {
            "predictions": self._predictions,
            "bid": self._bid,
            "cheapest": self._cheapest,
        }
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
        if route.kind in self._handlers:
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
        a ``cheapest`` scan visits, with no store entry yet and a URL the
        handler's checks accept (a rejected one is a 400 or 404 from
        memory). A stored entry, fresh or stale, is served without
        blocking (a stale one only enqueues its refresh). An event-loop
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
        if route.kind not in self._handlers or route.error is not None:
            # health/metrics/404, or a malformed query's 400: from memory.
            return True, None
        if route.kind == "cheapest":
            for zone in self._scan_zones(route.instance_type, route.location):
                key = (route.instance_type, zone, route.probability)
                if self.store.peek(key) is None:
                    return self._rejects(route), None
            return True, None
        entry = self.store.peek(
            (route.instance_type, route.location, route.probability)
        )
        if entry is None:
            return self._rejects(route), None
        return True, entry.curve

    def _rejects(self, route: Route) -> bool:
        """Whether the checks a handler runs before any fit reject
        ``route`` (its 400 or 404 is then answered from memory)."""
        try:
            self._service.check_probability(route.probability)
            if route.kind == "cheapest":
                self._service.check_scan_names(
                    route.instance_type, route.location
                )
        except (KeyError, ValueError):
            return True
        return False

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
        deadline = self._cfg.deadline_seconds
        if "deadline" in route.query:
            (deadline,) = parse_floats(route.query, "deadline")
        request = _RequestState(self._clock.now(), deadline)
        timed_out = False
        response = Response(500, {"error": "unreachable"})
        try:
            if route.error is not None:
                response = Response(400, {"error": route.error})
            else:
                response = self._handlers[route.kind](route, request)
        except _DeadlineExceeded:
            timed_out = True
        except KeyError as exc:
            # str(KeyError) wraps the message in repr quotes; unwrap it.
            response = Response(
                404, {"error": exc.args[0] if exc.args else str(exc)}
            )
        except RuntimeError as exc:
            response = Response(503, {"error": str(exc)})
        except ValueError as exc:
            response = Response(400, {"error": str(exc)})
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

    def _serve_curve(self, key: CurveKey, now: float, request: _RequestState):
        """Store-first read implementing stale-while-revalidate."""
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

    # -- handlers ----------------------------------------------------------------

    def _predictions(self, route: Route, request: _RequestState) -> Response:
        probability = route.probability
        self._service.check_probability(probability)
        try:
            curve = self._serve_curve(
                (route.instance_type, route.location, probability),
                route.now,
                request,
            )
        except _BreakerOpen:
            return Response(
                503,
                {
                    "error": "recompute failing for this combination; "
                    "circuit open",
                    "fallback": "ondemand",
                    "retry_after": self._cfg.breaker_cooldown_seconds,
                },
            )
        if curve is None:
            return Response(
                503, {"error": "insufficient history for a prediction"}
            )
        return Response(200, curve.to_dict())

    def _bid(self, route: Route, request: _RequestState) -> Response:
        instance_type, zone = route.instance_type, route.location
        probability, duration = route.probability, route.duration
        self._service.check_probability(probability)
        try:
            curve = self._serve_curve(
                (instance_type, zone, probability), route.now, request
            )
        except _BreakerOpen:
            return self._ondemand_fallback(instance_type, zone, probability, duration)
        if curve is None:
            # Same condition, same status as /predictions: the history is
            # too short for any curve. 404 below is reserved for a real
            # curve whose longest guaranteed duration falls short.
            return Response(
                503, {"error": "insufficient history for a prediction"}
            )
        bid = curve.bid_for_duration(duration)
        if math.isnan(bid):
            return Response(
                404,
                {
                    "error": "no published bid guarantees the requested "
                    "duration; consider the On-demand tier"
                },
            )
        return Response(
            200,
            {
                "instance_type": instance_type,
                "zone": zone,
                "probability": probability,
                "duration": duration,
                "bid": bid,
            },
        )

    def _ondemand_fallback(
        self, instance_type: str, zone: str, probability: float, duration: float
    ) -> Response:
        """§4.4's client rule, applied server-side when the circuit is open:
        quote the On-demand price, which guarantees any duration."""
        region = zone.rstrip("abcdefghijklmnopqrstuvwxyz") or zone
        price = self._service.api.ondemand_price(instance_type, region)
        self.metrics.counter("gateway.fallbacks").inc()
        return Response(
            200,
            {
                "instance_type": instance_type,
                "zone": zone,
                "probability": probability,
                "duration": duration,
                "bid": price,
                "tier": "ondemand",
                "fallback": True,
            },
        )

    def _scan_zones(self, instance_type: str, region: str):
        """The zones a ``cheapest`` scan visits, in scan order.

        A partition-restricted API (shard worker) narrows the scan to the
        zones this process owns *for this type*; the plain EC2 API has no
        such hook and the scan covers the whole region.
        """
        api = self._service.api
        zones_for = getattr(api, "zones_for_cheapest", None)
        if zones_for is not None:
            return zones_for(instance_type, region)
        return api.describe_availability_zones(region)

    def _cheapest(self, route: Route, request: _RequestState) -> Response:
        instance_type, region = route.instance_type, route.location
        probability, now = route.probability, route.now
        self._service.check_probability(probability)
        self._service.check_scan_names(instance_type, region)
        best_zone, best_bid = "", math.inf
        for zone in self._scan_zones(instance_type, region):
            try:
                curve = self._serve_curve(
                    (instance_type, zone, probability), now, request
                )
            except (KeyError, _BreakerOpen):
                continue
            if curve is not None and curve.minimum_bid < best_bid:
                best_zone, best_bid = zone, curve.minimum_bid
        if not best_zone:
            raise RuntimeError(
                f"no AZ in {region} can quote {instance_type} yet"
            )
        return Response(
            200,
            {
                "instance_type": instance_type,
                "region": region,
                "zone": best_zone,
                "minimum_bid": best_bid,
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
