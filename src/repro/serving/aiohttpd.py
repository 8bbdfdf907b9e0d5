"""The gateway behind a real listening socket (§3.3 over an actual wire).

One single-threaded ``asyncio`` event loop (stdlib only) serves the
gateway's routes: connections are protocol objects, socket readiness is
one ``epoll`` set, and the loop multiplexes thousands of keep-alive peers
without a thread each. The request-head loop, error bytes and shed path
are the shared :mod:`repro.serving.httpcore` core, the same one the
shard router runs.

The contract:

* **parity** — same status code and byte-identical body (via
  :func:`repro.service.rest.encode_body`) as the in-process gateway for
  every URL, across every status path (200/400/404/429/503/504);
* **keep-alive** — HTTP/1.1 persistent connections, ``Content-Length``
  always set; per-connection read timeouts reap dead peers;
* **overflow shed** — beyond ``max_connections`` concurrent connections
  the accept loop writes the canned 429 + ``Retry-After`` and closes
  (:func:`~repro.serving.httpcore.shed_response_bytes`), instead of
  letting the kernel backlog silently reset clients;
* **graceful drain** — :meth:`AsyncGatewayHTTPServer.stop` stops
  accepting, lets in-flight requests finish, closes idle keep-alives,
  sheds the kernel accept-queue backlog, and only then checkpoints and
  stops the gateway.

Two event-loop-specific decisions:

* **inline fast path** — most requests are warm-store reads the gateway
  answers in microseconds; paying a thread-pool round trip for each would
  cost more than the handler itself. The protocol asks the gateway
  (:meth:`~repro.serving.gateway.ServingGateway.probe_inline`)
  whether the URL can be answered without blocking — ``predictions`` and
  ``bid`` reads of a stored key, ``cheapest`` scans whose every zone is
  stored (fresh or stale), health, metrics, every in-memory error path —
  and if so dispatches *synchronously inside* ``data_received``: one
  callback from bytes-in to bytes-out, no task, no timer, no context
  switch.
* **executor offload** — everything that may block (a read or a
  ``cheapest`` scan that would fit a cold key, any request when a chaos
  spike hook is armed — hooks may sleep) runs via
  ``loop.run_in_executor`` on a small thread pool behind a bounded
  semaphore: the loop keeps serving socket I/O while at most
  ``executor_workers`` handlers run, and excess requests queue on the
  (async) semaphore instead of spawning threads.

Read timeouts are enforced by one coarse idle reaper rather than a
per-read ``asyncio.wait_for``: arming and cancelling a timer for every
request costs ~50 µs on this path, while a sweep every fraction of the
timeout gives the same guarantee (a dead peer is reaped within
``request_timeout_seconds`` plus one sweep interval) for a per-request
cost of zero.

An optional ``spike`` hook runs before each request dispatch — the chaos
harness mounts seeded latency injection there (see
:class:`repro.serving.chaos.ReplaySpiker`).
"""

from __future__ import annotations

import asyncio
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.service.rest import encode_body, parse_route
from repro.serving.gateway import ServingGateway
from repro.serving.httpcore import (
    HeadLoopProtocol,
    Headers,
    SpikeHook,
    bind_listener,
    body_response,
    dispatch,
    render_response,
    shed_connection,
    shed_response_bytes,
    sweep_backlog,
)
from repro.serving.httpd import HttpdConfig

__all__ = ["AsyncGatewayHTTPServer"]


class _GatewayProtocol(HeadLoopProtocol):
    """One keep-alive connection to the gateway.

    The hot path never leaves ``data_received``: head found in the
    buffer, gateway dispatched inline, response written to the transport
    — all in the same callback. Only requests the gateway cannot answer
    from memory become a task (executor offload); the shared head loop
    (:class:`~repro.serving.httpcore.HeadLoopProtocol`) holds the
    connection ``busy`` until that task writes its answer.
    """

    __slots__ = ()

    def connection_made(self, transport) -> None:
        super().connection_made(transport)
        self.server._count_connections()

    def connection_lost(self, exc) -> None:
        super().connection_lost(exc)
        self.server._count_connections()

    def serve(self, path: str, headers: Headers, close: bool) -> bool:
        server = self.server
        if server._spike is None:
            can_inline, curve = server._gateway.probe_inline(path)
            if can_inline:
                server._requests_inline.inc()
                status, body = dispatch(server._gateway, None, path, headers)
                if status == 200 and curve is not None:
                    self._write_encoded(status, body, curve, path, close=close)
                else:
                    self.write_body(status, body, close=close)
                return not close
        self.busy = True
        task = server._loop.create_task(self._offload(path, headers, close))
        server._request_tasks.add(task)
        task.add_done_callback(server._request_done)
        return False

    async def _offload(self, path: str, headers: Headers, close: bool) -> None:
        """One potentially blocking gateway call, off the loop, behind
        the bounded semaphore."""
        server = self.server
        server._inflight_requests += 1
        try:
            async with server._gate:
                status, body = await server._loop.run_in_executor(
                    server._executor,
                    dispatch,
                    server._gateway,
                    server._spike,
                    path,
                    headers,
                )
        finally:
            server._inflight_requests -= 1
        self.answer(body_response(status, body, close=close), close)

    def _write_encoded(
        self, status: int, body: dict, curve, path: str, *, close: bool
    ) -> None:
        """Write a warm 200, reusing its cached wire encoding.

        A warm curve is immutable. A ``predictions`` body is the curve's
        own dict, whatever the URL's ``now``, so its JSON encoding — the
        single largest cost on the inline path, dominated by float repr —
        is keyed by the curve object and shared by every URL that reads
        it; a ``bid`` body also names the URL's duration and stays keyed
        by URL. Either encoding is byte-stable until a refresh swaps the
        curve object. Entries are validated by object identity against
        the curve the probe saw (a ``predictions`` entry holds its curve,
        so the id key cannot be reused while it lives); a refresh landing
        between probe and dispatch makes one entry mis-keyed for one
        request, and the next probe (seeing the new object) re-encodes.
        The gateway call above still runs in full, so every counter,
        gauge and histogram ticks exactly as on the uncached path.
        """
        cache = self.server._encode_cache
        key = id(curve) if parse_route(path).kind == "predictions" else path
        cached = cache.get(key)
        if cached is not None and cached[0] is curve:
            payload = cached[1]
        else:
            payload = encode_body(body)
            if len(cache) >= 4096:
                cache.clear()  # bounded; refreshes strand dead entries
            cache[key] = (curve, payload)
        self.write(render_response(status, payload, close=close), close)


class AsyncGatewayHTTPServer:
    """The gateway behind a single-threaded asyncio event loop.

    The loop runs in one background thread; warm-store reads dispatch
    inline on the loop, while potentially blocking gateway work
    (cold-miss fits, chaos spikes) runs on a bounded executor so it never
    stalls connection I/O.

    ``manage_gateway=True`` (default) ties the gateway lifecycle to the
    server's: :meth:`start` starts the refresher workers (and the
    warm-restore when a snapshot directory is configured), and
    :meth:`stop` — after the drain — stops the gateway, which writes the
    final checkpoint. Pass ``False`` when the caller owns the gateway.
    """

    def __init__(
        self,
        gateway: ServingGateway,
        config: HttpdConfig | None = None,
        *,
        spike: SpikeHook | None = None,
        manage_gateway: bool = True,
    ) -> None:
        self._gateway = gateway
        self._cfg = config or HttpdConfig()
        self._spike = spike
        self._manage_gateway = manage_gateway
        self._listener: socket.socket | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._executor: ThreadPoolExecutor | None = None
        # Loop-confined state (touched only from the loop thread).
        self._accept_task: asyncio.Task | None = None
        self._reaper_task: asyncio.Task | None = None
        self._connections: set[_GatewayProtocol] = set()
        self._request_tasks: set[asyncio.Task] = set()
        self._shed_tasks: set[asyncio.Task] = set()
        self._inflight_requests = 0
        self._draining = False
        self._gate: asyncio.Semaphore | None = None
        # id(curve) for predictions, url for bid -> (curve, payload): wire
        # encodings of warm 200s, validated by curve object identity (see
        # _GatewayProtocol._write_encoded).
        self._encode_cache: dict[int | str, tuple[object, bytes]] = {}
        # Resolved once at start(): the registry lookup is lock-protected
        # and would otherwise run on every request.
        self._requests_total = None
        self._requests_inline = None
        self._shed_bytes = b""

    # -- public surface --------------------------------------------------------

    @property
    def gateway(self) -> ServingGateway:
        """The gateway this server fronts."""
        return self._gateway

    @property
    def config(self) -> HttpdConfig:
        """The server configuration."""
        return self._cfg

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — concrete even when port 0 was asked."""
        if self._listener is None:
            raise RuntimeError("server not started")
        return self._listener.getsockname()[:2]

    @property
    def url(self) -> str:
        """Base URL of the listening server."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "AsyncGatewayHTTPServer":
        """Bind, listen, and serve on a background event loop (idempotent)."""
        if self._listener is not None:
            return self
        if self._manage_gateway:
            self._gateway.start()
        for name in (
            "httpd.connections",
            "httpd.connections_shed",
        ):
            self._gateway.metrics.counter(name)
        self._requests_total = self._gateway.metrics.counter("httpd.requests")
        self._requests_inline = self._gateway.metrics.counter(
            "httpd.requests_inline"
        )
        self._gateway.metrics.gauge("httpd.active_connections")
        self._shed_bytes = shed_response_bytes(
            self._gateway.config.retry_after_seconds
        )
        self._encode_cache.clear()
        self._listener = bind_listener(
            self._cfg.host, self._cfg.port, self._cfg.backlog
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self._cfg.executor_workers,
            thread_name_prefix="aiohttpd-handler",
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="gateway-aiohttpd",
            daemon=True,
        )
        self._thread.start()
        asyncio.run_coroutine_threadsafe(self._install(), self._loop).result()
        return self

    def stop(self) -> dict:
        """Graceful drain, then shut the gateway down (final checkpoint).

        Sequence: stop accepting; wait for in-flight requests (bounded by
        ``drain_timeout_seconds``); close remaining keep-alive
        connections; shed the kernel accept queue; close the listener;
        stop the gateway — whose shutdown checkpoint therefore observes
        every admitted request. Returns drain statistics.
        """
        loop, thread = self._loop, self._thread
        if loop is None:
            return {"drained": True, "forced_close": 0, "backlog_shed": 0}
        stats = asyncio.run_coroutine_threadsafe(self._drain(), loop).result()
        if self._gateway.identity:
            stats["identity"] = dict(self._gateway.identity)
        loop.call_soon_threadsafe(loop.stop)
        thread.join()
        loop.close()
        self._executor.shutdown(wait=True)
        self._listener.close()
        self._listener = None
        self._loop = self._thread = self._executor = None
        if self._manage_gateway:
            self._gateway.wait_idle(self._cfg.drain_timeout_seconds)
            self._gateway.stop()
        return stats

    def __enter__(self) -> "AsyncGatewayHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- loop side ------------------------------------------------------------

    async def _install(self) -> None:
        loop = asyncio.get_running_loop()
        self._gate = asyncio.Semaphore(self._cfg.executor_workers)
        self._accept_task = loop.create_task(self._accept_loop())
        self._reaper_task = loop.create_task(self._reap_idle())

    async def _accept_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            sock, _addr = await loop.sock_accept(self._listener)
            self._admit(loop, sock)
            # Greedily drain the kernel accept queue before yielding.
            # Under a connection storm, one accept per ready-queue round
            # trip would park late connections — first request already
            # sent — behind every queued I/O event for the whole storm.
            while True:
                try:
                    sock, _addr = self._listener.accept()
                except (BlockingIOError, InterruptedError):
                    break
                self._admit(loop, sock)

    def _admit(self, loop: asyncio.AbstractEventLoop, sock: socket.socket) -> None:
        """Gate one accepted socket: shed past the cap, else wrap it in a
        transport. The selector loop's transport factory installs
        synchronously, so a batch of storm accepts is wired up in one
        ready-queue round; the public ``connect_accepted_socket`` (one
        task + waiter per connection) is the fallback for loops without
        it."""
        if self._draining or (
            len(self._connections) >= self._cfg.max_connections
        ):
            self._shed(sock)
            return
        sock.setblocking(False)  # greedy accept() returns blocking sockets
        # The listener is created with proto 0, so asyncio's own
        # TCP_NODELAY (IPPROTO_TCP sockets only) never applies: without
        # this a pipelined response can wait out the peer's delayed ACK.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._gateway.metrics.counter("httpd.connections").inc()
        protocol = _GatewayProtocol(self)
        self._connections.add(protocol)
        make_transport = getattr(loop, "_make_socket_transport", None)
        if make_transport is not None:
            make_transport(sock, protocol)
            return
        task = loop.create_task(self._install_connection(protocol, sock))
        self._request_tasks.add(task)
        task.add_done_callback(self._request_done)

    async def _install_connection(
        self, protocol: "_GatewayProtocol", sock: socket.socket
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            await loop.connect_accepted_socket(lambda: protocol, sock)
        except OSError:
            self._connections.discard(protocol)
            sock.close()
            return

    async def _reap_idle(self) -> None:
        """Close keep-alive peers idle past the read timeout.

        One sweep for all connections instead of one timer per read: a
        dead peer is closed within ``request_timeout_seconds`` plus one
        sweep interval. Connections with an offloaded request in flight
        are not reaped — the timeout covers *reads*, not handler time.
        """
        timeout = self._cfg.request_timeout_seconds
        interval = min(max(timeout / 4.0, 0.05), 1.0)
        while True:
            await asyncio.sleep(interval)
            cutoff = self._loop.time() - timeout
            for protocol in list(self._connections):
                if (
                    not protocol.busy
                    and protocol.last_activity < cutoff
                    and protocol.transport is not None
                ):
                    protocol.transport.close()

    def _request_done(self, task: asyncio.Task) -> None:
        self._request_tasks.discard(task)
        if not task.cancelled():
            task.exception()  # retrieve, so the loop never logs "never retrieved"

    def _shed(self, sock: socket.socket) -> None:
        """Canned 429 for a connection beyond the cap (or in the drain)."""
        self._gateway.metrics.counter("httpd.connections_shed").inc()
        task = asyncio.get_running_loop().create_task(
            shed_connection(sock, self._shed_bytes)
        )
        self._shed_tasks.add(task)
        task.add_done_callback(self._shed_tasks.discard)

    def _count_connections(self) -> None:
        self._gateway.metrics.gauge("httpd.active_connections").set(
            len(self._connections)
        )

    # -- drain ----------------------------------------------------------------

    async def _wait_requests_idle(self, timeout: float) -> bool:
        deadline = asyncio.get_running_loop().time() + timeout
        while self._inflight_requests:
            if asyncio.get_running_loop().time() >= deadline:
                return False
            await asyncio.sleep(0.002)
        return True

    async def _drain(self) -> dict:
        """Loop-side of :meth:`stop` (runs on the event loop thread)."""
        self._draining = True
        for task in (self._accept_task, self._reaper_task):
            if task is None:
                continue
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, OSError):
                pass
        drained = await self._wait_requests_idle(
            self._cfg.drain_timeout_seconds
        )
        # Whatever remains is an idle keep-alive (or a straggler past the
        # drain budget): close the transport, which fires connection_lost.
        forced = len(self._connections)
        for protocol in list(self._connections):
            if protocol.transport is not None:
                protocol.transport.close()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self._cfg.drain_timeout_seconds
        while self._connections and loop.time() < deadline:
            await asyncio.sleep(0.002)
        # Offload tasks past the budget answer a closed transport; cancel.
        for task in list(self._request_tasks):
            task.cancel()
        if self._request_tasks:
            await asyncio.wait(list(self._request_tasks), timeout=1.0)
        if self._shed_tasks:
            # Shed writes self-terminate within their 1 s linger budget.
            await asyncio.wait(list(self._shed_tasks), timeout=2.0)
            for task in list(self._shed_tasks):
                task.cancel()
        # One tick so closed transports run their close callbacks.
        await asyncio.sleep(0)
        swept = await sweep_backlog(self._listener, self._shed_bytes)
        if swept:
            self._gateway.metrics.counter("httpd.connections_shed").inc(swept)
        return {"drained": drained, "forced_close": forced, "backlog_shed": swept}
