"""Shard-routed serving: a consistent-hash front tier over N workers.

One asyncio event loop serves the full parity contract at ~6 k rps
(PR 8), but a single process is still one store, one refresher and one
fit budget. This module scales the tier *out*: the key universe is
partitioned across N shared-nothing shard workers — each its own
:class:`~repro.service.drafts_service.DraftsService` behind an
:class:`~repro.serving.aiohttpd.AsyncGatewayHTTPServer`, enrolled with
only its partition's ``(instance_type, zone)`` combos and warm-started
from its own snapshot directory — fronted by a router that owns the
placement:

* **consistent-hash ring** (:class:`HashRing`) — ``(type, zone)`` keys
  hash onto a ring of shard points (stable ``blake2b``, not the
  per-process-salted ``hash()``), so adding a shard moves ~1/N of the
  keys and every process computes the same owner;
* **partition** (:class:`Partition`) — the materialised
  combo → shard map, validated at build time: a combo owned by two
  shards is a split-brain configuration and raises immediately;
* **pass-through proxying** — ``/predictions`` and ``/bid`` forward to
  the owning shard over persistent keep-alive upstream pools and the
  worker's response bytes are written to the client *verbatim* (zero
  re-encode, zero re-parse), so routed bytes are identical to the
  single-process gateway's by construction. Router-local failures
  (upstream pool overflow, unreachable shard, fan-out timeout) answer
  with the :mod:`~repro.serving.httpcore` canned-response machinery;
* **scatter-gather** ``/cheapest/{type}/{region}`` — fan out to every
  shard owning a zone of that type concurrently and merge per-zone
  answers: cheapest wins, ties break on the account's zone order (the
  single-process scan's first-wins rule), a shard timeout degrades to a
  partial answer marked ``"partial": true`` instead of an error, and a
  bounded merge cache keyed by the upstream response bytes (the router
  analogue of PR 8's curve-identity cache) skips re-merging unchanged
  answers.

:class:`ShardDeployment` packages the whole tier: it plans the
partition, builds the workers (in-process for tests, forked processes
for the CLI and benchmarks), warm-starts each from its own snapshot
directory via the batch fit, starts the router, and drains everything in
reverse order on stop.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import select
import signal
import socket
import threading
import traceback
from bisect import bisect_right
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from repro.service.rest import encode_body, parse_route
from repro.serving.httpcore import (
    HeadLoopProtocol,
    bind_listener,
    body_response,
    canned_response,
    render_response,
    shed_connection,
    shed_response_bytes,
    sweep_backlog,
)
from repro.serving.metrics import MetricsRegistry
from repro.serving.replay import HEDGE_HEADER

__all__ = [
    "ForkedWorker",
    "HashRing",
    "Partition",
    "RouterConfig",
    "RouterServer",
    "ShardDeployment",
    "merge_cheapest",
    "plan_shards",
]


def _hash64(key: str) -> int:
    """A stable 64-bit hash (``blake2b``): identical across processes and
    runs, unlike the interpreter's salted ``hash()``."""
    return int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
    )


def _region_of(zone: str) -> str:
    return zone.rstrip("abcdefghijklmnopqrstuvwxyz") or zone


class HashRing:
    """A consistent-hash ring over shard ids.

    Each shard contributes ``replicas`` points; a key is owned by the
    first point clockwise from its hash. With 64 points per shard the
    worst shard holds within a few percent of the mean for the universe
    sizes this tier serves, and removing a shard reassigns only its own
    arcs.
    """

    def __init__(self, shard_ids: Sequence[str], replicas: int = 64) -> None:
        ids = list(shard_ids)
        if not ids:
            raise ValueError("a hash ring needs at least one shard")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate shard ids: {ids!r}")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        points = sorted(
            (_hash64(f"{sid}#{i}"), sid)
            for sid in ids
            for i in range(replicas)
        )
        self.shard_ids = tuple(ids)
        self._hashes = [h for h, _ in points]
        self._owners = [sid for _, sid in points]

    def owner(self, key: str) -> str:
        """The shard id owning ``key``."""
        index = bisect_right(self._hashes, _hash64(key)) % len(self._hashes)
        return self._owners[index]

    def owner_of_combo(self, instance_type: str, zone: str) -> str:
        """The shard id owning the ``(type, zone)`` combo."""
        return self.owner(f"{instance_type}|{zone}")


class Partition:
    """The materialised combo → shard assignment for one deployment.

    Built either from an explicit mapping (tests, hand-tuned layouts) or
    from a :class:`HashRing` over the enrolled universe. Build-time
    validation rejects split ownership: a ``(type, zone)`` combo listed
    under two shards would let both fit and answer for the same key —
    the exact state the partition exists to prevent.
    """

    def __init__(
        self,
        owners: Mapping[str, Sequence[tuple[str, str]]],
        *,
        ring: HashRing | None = None,
    ) -> None:
        if not owners:
            raise ValueError("a partition needs at least one shard")
        combo_owner: dict[tuple[str, str], str] = {}
        for sid, combos in owners.items():
            for combo in combos:
                combo = (combo[0], combo[1])
                other = combo_owner.get(combo)
                if other is not None and other != sid:
                    raise ValueError(
                        f"combo {combo!r} owned by both {other!r} and {sid!r}"
                    )
                combo_owner[combo] = sid
        self.shard_ids = tuple(owners)
        self._owners = {
            sid: tuple(dict.fromkeys((c[0], c[1]) for c in combos))
            for sid, combos in owners.items()
        }
        self._combo_owner = combo_owner
        self._ring = ring or HashRing(self.shard_ids)
        # (type, region) -> shards owning >= 1 zone of that type there,
        # in shard-id declaration order (the scatter fan-out order).
        scatter: dict[tuple[str, str], list[str]] = {}
        for sid in self.shard_ids:
            for itype, zone in self._owners[sid]:
                key = (itype, _region_of(zone))
                sids = scatter.setdefault(key, [])
                if sid not in sids:
                    sids.append(sid)
        self._scatter = {k: tuple(v) for k, v in scatter.items()}

    @classmethod
    def from_ring(
        cls, ring: HashRing, combos: Iterable[tuple[str, str]]
    ) -> "Partition":
        """Assign every combo to its ring owner."""
        owners: dict[str, list[tuple[str, str]]] = {
            sid: [] for sid in ring.shard_ids
        }
        for itype, zone in combos:
            owners[ring.owner_of_combo(itype, zone)].append((itype, zone))
        return cls(owners, ring=ring)

    def combos_of(self, shard_id: str) -> tuple[tuple[str, str], ...]:
        """The combos assigned to ``shard_id`` (possibly empty)."""
        return self._owners[shard_id]

    @property
    def n_combos(self) -> int:
        """Total combos across all shards."""
        return len(self._combo_owner)

    def owner_of(self, instance_type: str, zone: str) -> str | None:
        """The owning shard for an enrolled combo, else ``None``."""
        return self._combo_owner.get((instance_type, zone))

    def route(self, instance_type: str, zone: str) -> str:
        """The shard a request for this combo is forwarded to.

        Enrolled combos go to their assigned owner. Unknown combos fall
        through to the ring so they land on *one* deterministic shard —
        whose service raises the same ``KeyError`` the single-process
        gateway would, keeping 404 bytes identical.
        """
        owner = self._combo_owner.get((instance_type, zone))
        if owner is not None:
            return owner
        return self._ring.owner_of_combo(instance_type, zone)

    def shards_for(self, instance_type: str, region: str) -> tuple[str, ...]:
        """Shards owning at least one zone of ``instance_type`` in
        ``region`` (the ``/cheapest`` fan-out set), in shard order."""
        return self._scatter.get((instance_type, region), ())


def plan_shards(
    n_shards: int,
    combos: Iterable[tuple[str, str]],
    *,
    replicas: int = 64,
) -> Partition:
    """Partition ``combos`` across ``n_shards`` ring-hashed shards."""
    ring = HashRing([f"s{i}" for i in range(n_shards)], replicas)
    return Partition.from_ring(ring, combos)


@dataclass(frozen=True)
class RouterConfig:
    """Front-tier tunables (client side mirrors ``HttpdConfig``)."""

    host: str = "127.0.0.1"
    port: int = 0
    max_connections: int = 512
    backlog: int = 128
    drain_timeout_seconds: float = 10.0
    request_timeout_seconds: float = 30.0
    #: Persistent keep-alive connections per shard.
    upstream_connections: int = 16
    #: Requests queued per shard when every connection is busy, before
    #: the router sheds with its canned 429.
    upstream_queue: int = 512
    #: Budget for one upstream exchange (submit -> response). Expired
    #: proxied requests answer 504; expired scatter legs degrade the
    #: merge to a partial answer.
    upstream_timeout_seconds: float = 5.0
    retry_after_seconds: float = 1.0
    #: Bound on the /cheapest merge cache (full merges only).
    merge_cache_size: int = 1024


class _ProxyRequest:
    """One request in flight to a shard: wire bytes plus its completion.

    ``deliver``/``fail`` are idempotent — the first settles the request,
    later calls (a timeout racing a late response, a connection loss
    racing the timeout sweep) are no-ops.
    """

    __slots__ = ("raw", "on_response", "on_failure", "started", "done")

    def __init__(self, raw: bytes, on_response, on_failure, started: float) -> None:
        self.raw = raw
        self.on_response = on_response
        self.on_failure = on_failure
        self.started = started
        self.done = False

    def deliver(
        self, status: int, raw: bytes, body: bytes, upstream_close: bool
    ) -> None:
        if not self.done:
            self.done = True
            self.on_response(status, raw, body, upstream_close)

    def fail(self, kind: str) -> None:
        if not self.done:
            self.done = True
            self.on_failure(kind)


class _UpstreamConnection(asyncio.Protocol):
    """One keep-alive connection to a shard, one request in flight.

    Parses exactly enough of the response to frame and route it: status,
    ``Content-Length`` (the workers always set it) and ``Connection:
    close``. The raw bytes are kept intact for verbatim pass-through.
    """

    __slots__ = ("pool", "transport", "buffer", "pending")

    def __init__(self, pool: "_ShardPool") -> None:
        self.pool = pool
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()
        self.pending: _ProxyRequest | None = None

    def connection_made(self, transport) -> None:
        self.transport = transport
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass

    def connection_lost(self, exc) -> None:
        pending, self.pending = self.pending, None
        self.pool.on_lost(self, pending)

    def send(self, request: _ProxyRequest) -> None:
        self.pending = request
        self.transport.write(request.raw)

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        while True:
            head_end = self.buffer.find(b"\r\n\r\n")
            if head_end < 0:
                return
            head = bytes(self.buffer[:head_end])
            try:
                status_line, _, header_block = head.partition(b"\r\n")
                status = int(status_line.split(b" ", 2)[1])
            except (IndexError, ValueError):
                self.transport.abort()  # worker spoke something non-HTTP
                return
            length = 0
            close = False
            for line in header_block.split(b"\r\n"):
                lower = line.lower()
                if lower.startswith(b"content-length:"):
                    length = int(line.split(b":", 1)[1])
                elif lower.startswith(b"connection:") and b"close" in lower:
                    close = True
            total = head_end + 4 + length
            if len(self.buffer) < total:
                return
            raw = bytes(self.buffer[:total])
            body = raw[head_end + 4 :]
            del self.buffer[:total]
            request, self.pending = self.pending, None
            if close:
                self.transport.close()  # pool sees connection_lost
            else:
                self.pool.release(self)
            if request is not None:
                request.deliver(status, raw, body, close)
            if close:
                return


class _ShardPool:
    """The router's persistent connection pool for one shard.

    Each connection carries at most one request (the workers serialise
    per connection anyway); excess requests wait in a FIFO until a
    connection frees up, and past ``upstream_queue`` the router sheds
    with its canned 429. All state is loop-confined.
    """

    def __init__(self, server: "RouterServer", shard_id: str, url: str) -> None:
        self.server = server
        self.shard_id = shard_id
        self.url = url
        hostport = url.split("//", 1)[-1].rstrip("/")
        host, _, port = hostport.partition(":")
        self.host = host
        self.port = int(port or 80)
        self._host_line = f"Host: {hostport}\r\n".encode("latin-1")
        self._request_cache: dict[str, bytes] = {}
        self._connections: set[_UpstreamConnection] = set()
        self._idle: list[_UpstreamConnection] = []
        self._queue: deque[_ProxyRequest] = deque()
        self._connecting = 0

    def build_request(self, path: str, extra: bytes = b"") -> bytes:
        """The upstream request for ``path`` (memoised when header-free)."""
        if extra:
            return (
                f"GET {path} HTTP/1.1\r\n".encode("latin-1")
                + self._host_line
                + extra
                + b"\r\n"
            )
        cached = self._request_cache.get(path)
        if cached is None:
            cached = (
                f"GET {path} HTTP/1.1\r\n".encode("latin-1")
                + self._host_line
                + b"\r\n"
            )
            if len(self._request_cache) >= 4096:
                self._request_cache.clear()
            self._request_cache[path] = cached
        return cached

    def submit(self, request: _ProxyRequest) -> None:
        if self._idle:
            self._idle.pop().send(request)
            return
        cfg = self.server._cfg
        if len(self._connections) + self._connecting < cfg.upstream_connections:
            self._queue.append(request)
            self._spawn()
            return
        if len(self._queue) >= cfg.upstream_queue:
            self.server._counter("router.shed").inc()
            request.fail("overflow")
            return
        self._queue.append(request)

    def release(self, conn: _UpstreamConnection) -> None:
        """A connection finished its exchange; hand it the next request."""
        if self._queue:
            conn.send(self._queue.popleft())
        else:
            self._idle.append(conn)

    def on_lost(self, conn: _UpstreamConnection, pending) -> None:
        self._connections.discard(conn)
        try:
            self._idle.remove(conn)
        except ValueError:
            pass
        if pending is not None:
            self.server._counter("router.upstream_failures").inc()
            pending.fail("unavailable")
        if self._queue and not self._connections and not self._connecting:
            # Reconnect for the waiters rather than failing them: the
            # shard may just have closed an idle keep-alive.
            self._spawn()

    def _spawn(self) -> None:
        self._connecting += 1
        task = self.server._loop.create_task(self._connect())
        self.server._misc_tasks.add(task)
        task.add_done_callback(self.server._misc_tasks.discard)

    async def _connect(self) -> None:
        loop = asyncio.get_running_loop()
        try:
            _, conn = await loop.create_connection(
                lambda: _UpstreamConnection(self), self.host, self.port
            )
        except OSError:
            self._connecting -= 1
            if not self._connections and not self._connecting:
                # Nothing can serve the waiters: the shard is down.
                failures = self.server._counter("router.upstream_failures")
                while self._queue:
                    failures.inc()
                    self._queue.popleft().fail("unavailable")
            return
        self._connecting -= 1
        self._connections.add(conn)
        self.release(conn)

    def sweep_timeouts(self, cutoff: float) -> None:
        """Fail queued and in-flight requests older than ``cutoff``."""
        timeouts = None
        while self._queue and self._queue[0].started < cutoff:
            request = self._queue.popleft()
            timeouts = timeouts or self.server._counter("router.upstream_timeouts")
            timeouts.inc()
            request.fail("timeout")
        for conn in list(self._connections):
            request = conn.pending
            if request is not None and request.started < cutoff:
                timeouts = timeouts or self.server._counter(
                    "router.upstream_timeouts"
                )
                timeouts.inc()
                request.fail("timeout")
                conn.transport.abort()  # the exchange is poisoned mid-stream

    def close(self) -> None:
        while self._queue:
            self._queue.popleft().fail("unavailable")
        for conn in list(self._connections):
            if conn.transport is not None:
                conn.transport.close()

    def stats(self) -> dict:
        return {
            "connections": len(self._connections),
            "idle": len(self._idle),
            "queued": len(self._queue),
        }


def merge_cheapest(
    instance_type: str,
    region: str,
    results: Sequence[tuple[str, int | None, bytes | None, bytes | None]],
    zone_rank: Mapping[str, int],
) -> bytes:
    """Merge one scatter round into a single client response.

    ``results`` holds one ``(shard_id, status, raw, body)`` tuple per
    fanned-out shard, in fan-out order; a transport-level failure
    (timeout, unreachable shard) has ``status None``. Rules:

    * every 200 contributes a candidate; the cheapest ``minimum_bid``
      wins, ties break on the account's zone order (``zone_rank``) —
      exactly the single-process scan's first-wins rule — and the
      winner's bytes pass through verbatim;
    * a non-200 *answer* (e.g. a shard whose zones cannot quote yet)
      excludes that shard's zones, as the single-process scan skips
      unquotable zones; if **no** shard produced a candidate and all
      answered, the first shard's answer passes through verbatim (all
      shards derive the same 400/404/503 from the same request);
    * a transport failure with surviving candidates degrades the merge
      to a partial answer: the best known zone, marked ``"partial":
      true`` (re-encoded, the one path that cannot pass through);
    * a transport failure with no candidates is a router-level 504.
    """
    candidates = []
    answered = []
    failed = False
    for _sid, status, raw, body in results:
        if status is None:
            failed = True
        elif status == 200:
            data = json.loads(body)
            candidates.append(
                (data["minimum_bid"], zone_rank.get(data["zone"], 1 << 62), raw, data)
            )
        else:
            answered.append(raw)
    if candidates:
        bid, _rank, raw, data = min(candidates, key=lambda c: (c[0], c[1]))
        if not failed:
            return raw
        partial = {
            "instance_type": instance_type,
            "region": region,
            "zone": data["zone"],
            "minimum_bid": bid,
            "partial": True,
        }
        return render_response(200, encode_body(partial))
    if not failed and answered:
        return answered[0]
    return canned_response(
        504,
        f"cheapest scatter for {instance_type} in {region} timed out",
        retry_after=1.0,
    )


class _Scatter:
    """One in-flight ``/cheapest`` fan-out: slots for every shard's
    answer plus the countdown to the merge."""

    __slots__ = ("protocol", "path", "instance_type", "region", "close",
                 "results", "remaining")

    def __init__(self, protocol, path, instance_type, region, close, n) -> None:
        self.protocol = protocol
        self.path = path
        self.instance_type = instance_type
        self.region = region
        self.close = close
        self.results: list = [None] * n
        self.remaining = n


class _RouterProtocol(HeadLoopProtocol):
    """One client keep-alive connection to the router.

    The shard worker's head loop (:class:`~repro.serving.httpcore.HeadLoopProtocol`):
    proxied requests park the connection ``busy`` until the upstream
    answer (or a canned router failure) arrives.
    """

    __slots__ = ()

    def serve(self, path: str, headers, close: bool) -> bool:
        server = self.server
        decision = server._route(path)
        kind = decision[0]
        if kind == "proxy":
            hedge = headers.get(HEDGE_HEADER)
            extra = (
                f"{HEDGE_HEADER}: {hedge}\r\n".encode("latin-1")
                if hedge is not None
                else b""
            )
            self.busy = True
            server._proxy(self, decision[1], path, extra, close)
            return False
        if kind == "cheapest":
            self.busy = True
            server._scatter(self, path, decision[1], decision[2], close)
            return False
        if kind == "healthz":
            self.write_body(200, server._healthz_body(), close=close)
        elif kind == "metrics":
            self.write_body(200, server._metrics_body(), close=close)
        else:  # not found
            self.write_body(
                404, {"error": f"no route for {decision[1]!r}"}, close=close
            )
        return not close

    # -- completions -----------------------------------------------------------

    def finish_raw(self, raw: bytes, close: bool) -> None:
        """Settle the in-flight request with a complete wire response."""
        head_end = raw.find(b"\r\n\r\n")
        upstream_close = b"\r\nconnection: close" in raw[:head_end].lower()
        if close and not upstream_close:
            raw = (
                raw[: head_end + 2]
                + b"Connection: close\r\n"
                + raw[head_end + 2 :]
            )
        self.answer(raw, close or upstream_close)

    def finish_body(self, status: int, body: dict, close: bool) -> None:
        """Settle the in-flight request with a router-built body."""
        self.answer(body_response(status, body, close=close), close)


#: Router-local failure bodies, shaped like the gateway's error bodies.
_FAILURE_RESPONSES = {
    "overflow": (429, "router upstream queue full; request shed"),
    "unavailable": (503, "shard unavailable; connection failed"),
    "timeout": (504, "shard timed out"),
}


class RouterServer:
    """The consistent-hash front tier: one event loop, N upstream pools.

    Same lifecycle surface as the HTTP servers it fronts (``start`` /
    ``stop`` / ``address`` / ``url``; the loop runs on one background
    thread), so the replayer, chaos harness and CLI treat the router as
    just another server. Requests never leave the loop: routing is a
    dict lookup, proxying is a verbatim byte relay, and the only
    per-request allocation on the hot path is the completion closure.
    """

    def __init__(
        self,
        partition: Partition,
        shard_urls: Mapping[str, str],
        *,
        zone_order: Mapping[str, Sequence[str]] | None = None,
        config: RouterConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        missing = [sid for sid in partition.shard_ids if sid not in shard_urls]
        if missing:
            raise ValueError(f"no URL for shards {missing!r}")
        self._partition = partition
        self._shard_urls = dict(shard_urls)
        self._cfg = config or RouterConfig()
        self.metrics = metrics or MetricsRegistry()
        # zone -> scan rank, for the merge tie-break. Zones are globally
        # unique (region-prefixed), so one flat map covers all regions.
        self._zone_rank: dict[str, int] = {}
        for zones in (zone_order or {}).values():
            for rank, zone in enumerate(zones):
                self._zone_rank[zone] = rank
        self._listener: socket.socket | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        # Loop-confined state.
        self._accept_task: asyncio.Task | None = None
        self._reaper_task: asyncio.Task | None = None
        self._connections: set[_RouterProtocol] = set()
        self._pools: dict[str, _ShardPool] = {}
        self._misc_tasks: set[asyncio.Task] = set()
        self._shed_tasks: set[asyncio.Task] = set()
        self._draining = False
        # path -> routing decision; path -> (token, merged response).
        self._route_cache: dict[str, tuple] = {}
        self._merge_cache: dict[str, tuple[tuple, bytes]] = {}
        self._shed_bytes = shed_response_bytes(self._cfg.retry_after_seconds)
        self._requests_total = self.metrics.counter("router.requests")
        for name in (
            "router.proxied",
            "router.cheapest",
            "router.local",
            "router.shed",
            "router.connections",
            "router.connections_shed",
            "router.upstream_timeouts",
            "router.upstream_failures",
            "router.merge_cache_hits",
            "router.partial_merges",
        ):
            self.metrics.counter(name)

    # -- public surface --------------------------------------------------------

    @property
    def partition(self) -> Partition:
        """The combo → shard assignment this router serves."""
        return self._partition

    @property
    def config(self) -> RouterConfig:
        """The router configuration."""
        return self._cfg

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — concrete even when port 0 was asked."""
        if self._listener is None:
            raise RuntimeError("router not started")
        return self._listener.getsockname()[:2]

    @property
    def url(self) -> str:
        """Base URL of the listening router."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "RouterServer":
        """Bind, listen, and route on a background event loop (idempotent)."""
        if self._listener is not None:
            return self
        self._listener = bind_listener(
            self._cfg.host, self._cfg.port, self._cfg.backlog
        )
        self._draining = False
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="shard-router", daemon=True
        )
        self._thread.start()
        asyncio.run_coroutine_threadsafe(self._install(), self._loop).result()
        return self

    def stop(self) -> dict:
        """Graceful drain: stop accepting, settle in-flight proxies, close
        client connections and upstream pools, shed the accept backlog."""
        loop, thread = self._loop, self._thread
        if loop is None:
            return {"drained": True, "forced_close": 0, "backlog_shed": 0}
        stats = asyncio.run_coroutine_threadsafe(self._drain(), loop).result()
        loop.call_soon_threadsafe(loop.stop)
        thread.join()
        loop.close()
        self._listener.close()
        self._listener = None
        self._loop = self._thread = None
        return stats

    def __enter__(self) -> "RouterServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- loop side -------------------------------------------------------------

    async def _install(self) -> None:
        loop = asyncio.get_running_loop()
        for sid in self._partition.shard_ids:
            self._pools[sid] = _ShardPool(self, sid, self._shard_urls[sid])
        self._accept_task = loop.create_task(self._accept_loop())
        self._reaper_task = loop.create_task(self._reap())

    def _counter(self, name: str):
        return self.metrics.counter(name)

    async def _accept_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            sock, _addr = await loop.sock_accept(self._listener)
            self._admit(loop, sock)
            while True:
                try:
                    sock, _addr = self._listener.accept()
                except (BlockingIOError, InterruptedError):
                    break
                self._admit(loop, sock)

    def _admit(self, loop, sock: socket.socket) -> None:
        if self._draining or (
            len(self._connections) >= self._cfg.max_connections
        ):
            self._counter("router.connections_shed").inc()
            task = loop.create_task(shed_connection(sock, self._shed_bytes))
            self._shed_tasks.add(task)
            task.add_done_callback(self._shed_tasks.discard)
            return
        sock.setblocking(False)
        # As in the gateway server: disable Nagle on every client socket
        # (asyncio only does so for listeners created with IPPROTO_TCP).
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._counter("router.connections").inc()
        protocol = _RouterProtocol(self)
        self._connections.add(protocol)
        make_transport = getattr(loop, "_make_socket_transport", None)
        if make_transport is not None:
            make_transport(sock, protocol)
            return
        task = loop.create_task(self._install_connection(protocol, sock))
        self._misc_tasks.add(task)
        task.add_done_callback(self._misc_tasks.discard)

    async def _install_connection(self, protocol, sock) -> None:
        loop = asyncio.get_running_loop()
        try:
            await loop.connect_accepted_socket(lambda: protocol, sock)
        except OSError:
            self._connections.discard(protocol)
            sock.close()

    async def _reap(self) -> None:
        """One coarse sweep for both reap duties: idle clients past the
        read timeout, upstream exchanges past their budget."""
        cfg = self._cfg
        interval = min(
            max(min(cfg.request_timeout_seconds, cfg.upstream_timeout_seconds)
                / 4.0, 0.05),
            1.0,
        )
        while True:
            await asyncio.sleep(interval)
            now = self._loop.time()
            idle_cutoff = now - cfg.request_timeout_seconds
            for protocol in list(self._connections):
                if (
                    not protocol.busy
                    and protocol.last_activity < idle_cutoff
                    and protocol.transport is not None
                ):
                    protocol.transport.close()
            upstream_cutoff = now - cfg.upstream_timeout_seconds
            for pool in self._pools.values():
                pool.sweep_timeouts(upstream_cutoff)

    # -- routing ---------------------------------------------------------------

    def _route(self, path: str) -> tuple:
        """Decide where ``path`` goes (memoised: the URL universe is the
        bounded key × parameter grid)."""
        decision = self._route_cache.get(path)
        if decision is None:
            decision = self._decide(path)
            if len(self._route_cache) >= 4096:
                self._route_cache.clear()
            self._route_cache[path] = decision
        return decision

    def _decide(self, path: str) -> tuple:
        route = parse_route(path)
        kind, instance_type, location = route.kind, route.instance_type, route.location
        if kind in ("predictions", "bid"):
            return ("proxy", self._partition.route(instance_type, location))
        if kind == "cheapest":
            return ("cheapest", instance_type, location)
        if kind == "health":
            return ("healthz",)
        if kind == "metrics":
            return ("metrics",)
        return ("notfound", route.path)

    def _healthz_body(self) -> dict:
        self._counter("router.local").inc()
        return {
            "status": "ok",
            "role": "router",
            "shards": len(self._partition.shard_ids),
            "owned_combos": self._partition.n_combos,
        }

    def _metrics_body(self) -> dict:
        self._counter("router.local").inc()
        snapshot = self.metrics.snapshot()
        snapshot["shards"] = {
            sid: {
                "url": pool.url,
                "owned_combos": len(self._partition.combos_of(sid)),
                **pool.stats(),
            }
            for sid, pool in self._pools.items()
        }
        return snapshot

    # -- proxy path ------------------------------------------------------------

    def _proxy(
        self,
        protocol: _RouterProtocol,
        shard_id: str,
        path: str,
        extra: bytes,
        close: bool,
    ) -> None:
        self._counter("router.proxied").inc()
        pool = self._pools[shard_id]

        def on_response(status, raw, body, upstream_close):
            protocol.finish_raw(raw, close)

        def on_failure(kind):
            status, error = _FAILURE_RESPONSES[kind]
            body = {"error": error, "retry_after": self._cfg.retry_after_seconds}
            protocol.finish_body(status, body, close)

        pool.submit(
            _ProxyRequest(
                pool.build_request(path, extra),
                on_response,
                on_failure,
                self._loop.time(),
            )
        )

    # -- scatter-gather --------------------------------------------------------

    def _scatter(
        self,
        protocol: _RouterProtocol,
        path: str,
        instance_type: str,
        region: str,
        close: bool,
    ) -> None:
        self._counter("router.cheapest").inc()
        shard_ids = self._partition.shards_for(instance_type, region)
        if not shard_ids:
            # No shard owns a zone of this type here: delegate to one
            # deterministic shard, whose answer (404 for an unknown
            # region/type, 503 when nothing can quote) passes through.
            shard_ids = (self._partition.route(instance_type, region),)
        scatter = _Scatter(
            protocol, path, instance_type, region, close, len(shard_ids)
        )
        started = self._loop.time()
        for index, sid in enumerate(shard_ids):
            pool = self._pools[sid]

            def on_response(status, raw, body, _close, index=index, sid=sid):
                scatter.results[index] = (sid, status, raw, body)
                scatter.remaining -= 1
                if scatter.remaining == 0:
                    self._finish_scatter(scatter)

            def on_failure(kind, index=index, sid=sid):
                scatter.results[index] = (sid, None, None, None)
                scatter.remaining -= 1
                if scatter.remaining == 0:
                    self._finish_scatter(scatter)

            pool.submit(
                _ProxyRequest(
                    pool.build_request(path), on_response, on_failure, started
                )
            )

    def _finish_scatter(self, scatter: _Scatter) -> None:
        results = scatter.results
        complete = all(r[1] is not None for r in results)
        token = tuple(r[2] for r in results) if complete else None
        if token is not None:
            cached = self._merge_cache.get(scatter.path)
            if cached is not None and cached[0] == token:
                self._counter("router.merge_cache_hits").inc()
                scatter.protocol.finish_raw(cached[1], scatter.close)
                return
        raw = merge_cheapest(
            scatter.instance_type, scatter.region, results, self._zone_rank
        )
        if token is not None:
            if len(self._merge_cache) >= self._cfg.merge_cache_size:
                self._merge_cache.clear()
            self._merge_cache[scatter.path] = (token, raw)
        elif any(r[1] == 200 for r in results):
            # A partial answer is never cached: the next round may see
            # the missing shard again.
            self._counter("router.partial_merges").inc()
        scatter.protocol.finish_raw(raw, scatter.close)

    # -- drain -----------------------------------------------------------------

    async def _drain(self) -> dict:
        self._draining = True
        for task in (self._accept_task, self._reaper_task):
            if task is None:
                continue
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, OSError):
                pass
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self._cfg.drain_timeout_seconds
        drained = True
        while any(p.busy for p in self._connections):
            if loop.time() >= deadline:
                drained = False
                break
            await asyncio.sleep(0.002)
        forced = len(self._connections)
        for protocol in list(self._connections):
            if protocol.transport is not None:
                protocol.transport.close()
        while self._connections and loop.time() < deadline:
            await asyncio.sleep(0.002)
        for pool in self._pools.values():
            pool.close()
        for task in list(self._misc_tasks):
            task.cancel()
        if self._shed_tasks:
            await asyncio.wait(list(self._shed_tasks), timeout=2.0)
            for task in list(self._shed_tasks):
                task.cancel()
        await asyncio.sleep(0)
        swept = await sweep_backlog(self._listener, self._shed_bytes)
        if swept:
            self._counter("router.connections_shed").inc(swept)
        return {"drained": drained, "forced_close": forced, "backlog_shed": swept}


# ---------------------------------------------------------------------------
# Deployment: shard workers + router as one unit
# ---------------------------------------------------------------------------


def _write_line(fd: int, payload: dict) -> None:
    os.write(fd, (json.dumps(payload) + "\n").encode("utf-8"))


def _read_line(stream, timeout: float) -> dict:
    """One JSON line from a forked worker's pipe, bounded by ``timeout``."""
    ready, _, _ = select.select([stream], [], [], timeout)
    if not ready:
        raise TimeoutError("shard worker did not report within the budget")
    line = stream.readline()
    if not line:
        raise RuntimeError("shard worker closed its pipe without reporting")
    return json.loads(line)


class ForkedWorker:
    """One HTTP worker running as a forked child process.

    ``build(worker_id)`` runs *in the child* and must return a started
    server exposing ``url`` and ``stop() -> dict`` — the sharded
    deployment passes its partition-restricted builder. Nothing but the
    read-only universe is shared with the parent (copy-on-write); the
    child reports its bound URL over a pipe, drains on
    ``SIGTERM``/``SIGINT``, sends the drain statistics back as the final
    pipe line, and exits non-zero when the drain was dirty.
    """

    def __init__(self, build, worker_id: str) -> None:
        self.worker_id = worker_id
        self.pid: int | None = None
        self.url: str | None = None
        self._stream = None
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: never returns
            os.close(read_fd)
            _forked_worker_main(build, worker_id, write_fd)
        os.close(write_fd)
        self.pid = pid
        self._stream = os.fdopen(read_fd, "r")

    def wait_ready(self, timeout: float) -> str:
        report = _read_line(self._stream, timeout)
        if "error" in report:
            raise RuntimeError(
                f"worker {self.worker_id} failed to start: {report['error']}"
            )
        self.url = report["url"]
        return self.url

    def terminate(self, timeout: float) -> dict:
        """SIGTERM the worker, collect its drain stats, reap the pid."""
        stats: dict = {"drained": False}
        try:
            os.kill(self.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            report = _read_line(self._stream, timeout)
            stats = report.get("stats", stats)
        except (TimeoutError, RuntimeError, ValueError):
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        finally:
            self._stream.close()
            _, status = os.waitpid(self.pid, 0)
            stats.setdefault("exit_status", os.waitstatus_to_exitcode(status))
        return stats


def _forked_worker_main(build, worker_id: str, write_fd: int) -> None:
    """Forked worker body: serve until SIGTERM/SIGINT, then drain."""
    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        server = build(worker_id)
        _write_line(write_fd, {"url": server.url})
    except BaseException:
        _write_line(write_fd, {"error": traceback.format_exc(limit=8)})
        os._exit(1)
    stop.wait()
    try:
        stats = server.stop()
    except BaseException:
        _write_line(write_fd, {"error": traceback.format_exc(limit=8)})
        os._exit(1)
    _write_line(write_fd, {"stats": stats})
    os._exit(0 if stats.get("drained") else 1)


class ShardDeployment:
    """N partition-restricted shard workers behind one router.

    ``mode="inline"`` builds every worker in-process (deterministic, no
    fork — what the tests drive); ``mode="fork"`` forks one child per
    shard so each worker owns a core-schedulable process with its own
    GIL, store and refresher — what ``serve --shards`` and the scaling
    benchmark run. Both modes serve identical bytes.

    Warm start per shard: with a ``snapshot_root``, each worker gets
    ``snapshot_root/<shard_id>`` as its private snapshot directory. Each
    worker is built by :func:`~repro.serving.gateway.warm_gateway`, which
    restores that directory's checkpoint when it holds one and otherwise
    batch-fits the worker's own partition into its store, so the router
    comes up with every enrolled key answerable inline.
    """

    def __init__(
        self,
        universe,
        partition: Partition,
        *,
        start_now: float,
        probabilities: Sequence[float] = (0.95,),
        mode: str = "inline",
        router_config: RouterConfig | None = None,
        httpd_config=None,
        gateway_config=None,
        snapshot_root: str | None = None,
        spawn_timeout_seconds: float = 180.0,
    ) -> None:
        if mode not in ("inline", "fork"):
            raise ValueError(f"unknown deployment mode {mode!r}")
        self._universe = universe
        self.partition = partition
        self._start_now = start_now
        self._probabilities = tuple(probabilities)
        self._mode = mode
        self._router_cfg = router_config or RouterConfig()
        self._httpd_cfg = httpd_config
        self._gateway_cfg = gateway_config
        self._snapshot_root = snapshot_root
        self._spawn_timeout = spawn_timeout_seconds
        self.router: RouterServer | None = None
        self.shard_urls: dict[str, str] = {}
        self._servers: dict[str, object] = {}  # inline mode
        self._children: dict[str, ForkedWorker] = {}  # fork mode

    # -- worker construction ---------------------------------------------------

    def _build_shard_server(self, shard_id: str):
        """One worker: partition-restricted service + asyncio server.

        Runs in the parent (inline mode) or in the forked child (fork
        mode) — in the child, ``os.getpid()`` stamps the worker identity
        with the real worker pid.
        """
        from repro.cloud.api import EC2Api
        from repro.service.partition import PartitionedApi
        from repro.serving.aiohttpd import AsyncGatewayHTTPServer
        from repro.serving.gateway import GatewayConfig, warm_gateway
        from repro.serving.httpd import HttpdConfig

        combos = self.partition.combos_of(shard_id)
        gateway_cfg = self._gateway_cfg or GatewayConfig(max_inflight=256)
        if self._snapshot_root is not None:
            gateway_cfg = dataclasses.replace(
                gateway_cfg,
                snapshot_dir=os.path.join(self._snapshot_root, shard_id),
            )
        gateway = warm_gateway(
            self._universe,
            combos,
            self._start_now,
            *self._probabilities,
            api=PartitionedApi(EC2Api(self._universe), combos),
            config=gateway_cfg,
            identity={
                "shard": shard_id,
                "pid": os.getpid(),
                "owned_keys": len(combos) * len(self._probabilities),
            },
        )
        httpd_cfg = self._httpd_cfg or HttpdConfig(max_connections=256)
        server = AsyncGatewayHTTPServer(gateway, httpd_cfg)
        server.start()  # restores the shard checkpoint when there is one
        return server

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ShardDeployment":
        """Launch every shard worker, then the router in front of them."""
        if self.router is not None:
            return self
        if self._mode == "inline":
            for sid in self.partition.shard_ids:
                server = self._build_shard_server(sid)
                self._servers[sid] = server
                self.shard_urls[sid] = server.url
        else:
            for sid in self.partition.shard_ids:
                self._children[sid] = ForkedWorker(
                    self._build_shard_server, sid
                )
            for sid, child in self._children.items():
                self.shard_urls[sid] = child.wait_ready(self._spawn_timeout)
        zone_order = self._zone_order()
        self.router = RouterServer(
            self.partition,
            self.shard_urls,
            zone_order=zone_order,
            config=self._router_cfg,
        )
        self.router.start()
        return self

    def _zone_order(self) -> dict[str, tuple[str, ...]]:
        from repro.cloud.api import EC2Api

        api = EC2Api(self._universe)
        regions = {
            _region_of(zone)
            for sid in self.partition.shard_ids
            for _, zone in self.partition.combos_of(sid)
        }
        return {r: api.describe_availability_zones(r) for r in sorted(regions)}

    def stop(self) -> dict:
        """Drain the router first (no new forwards), then every worker."""
        stats: dict = {"router": None, "shards": {}, "drained": True}
        if self.router is not None:
            stats["router"] = self.router.stop()
            self.router = None
        if self._mode == "inline":
            for sid, server in self._servers.items():
                stats["shards"][sid] = server.stop()
            self._servers.clear()
        else:
            timeout = 10.0
            if self._httpd_cfg is not None:
                timeout = self._httpd_cfg.drain_timeout_seconds + 5.0
            for sid, child in self._children.items():
                stats["shards"][sid] = child.terminate(timeout)
            self._children.clear()
        self.shard_urls.clear()
        stats["drained"] = bool(
            (stats["router"] is None or stats["router"]["drained"])
            and all(s.get("drained") for s in stats["shards"].values())
        )
        return stats

    def __enter__(self) -> "ShardDeployment":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
