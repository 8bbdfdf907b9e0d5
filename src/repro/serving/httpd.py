"""Real-socket HTTP serving for the gateway (§3.3 over an actual wire).

Every earlier serving claim was measured with :meth:`ServingGateway.get`
called in-process. This module stands the same gateway up behind a real
listening socket — stdlib ``ThreadingHTTPServer``, one thread per
connection, HTTP/1.1 keep-alive — so load replay exercises connection
handling, kernel queues and actual concurrency. The contract is *parity*:
a socket response carries the same status code and a byte-identical body
(via :func:`repro.service.rest.encode_body`) to the in-process handler for
the same URL, across every status path (200/400/404/429/503/504).

Connection lifecycle:

* **keep-alive** — HTTP/1.1 persistent connections; ``Content-Length`` is
  always set so clients can reuse the connection.
* **graceful drain** — :meth:`GatewayHTTPServer.stop` stops accepting,
  lets every in-flight request finish (bounded by ``drain_timeout``),
  closes idle keep-alive connections, and only then checkpoints and stops
  the gateway — so the final snapshot reflects every admitted request.
* **backlog overflow as shed** — beyond ``max_connections`` concurrent
  connections the server answers an immediate 429 with a ``Retry-After``
  hint and closes, instead of letting the kernel backlog silently reset
  clients; shed connections are counted in ``httpd.connections_shed``.

An optional ``spike`` hook runs before each request dispatch — the chaos
harness mounts seeded latency injection there (see
:class:`repro.serving.chaos.ReplaySpiker`).
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service.rest import encode_body
from repro.serving.gateway import ServingGateway
from repro.serving.httpcore import (
    SERVER_NAME,
    SpikeHook,
    dispatch,
    retry_after_header,
    shed_response_bytes,
    shed_socket,
    sweep_backlog,
)

__all__ = ["GatewayHTTPServer", "HttpdConfig"]


@dataclass(frozen=True)
class HttpdConfig:
    """Socket-server knobs.

    Attributes
    ----------
    host / port:
        Bind address; port 0 picks a free ephemeral port (tests).
    max_connections:
        Concurrent connections before new ones are shed with 429 — the
        listen-backlog overflow made visible instead of a silent reset.
    backlog:
        Kernel listen(2) backlog behind the shed threshold.
    drain_timeout_seconds:
        How long :meth:`GatewayHTTPServer.stop` waits for in-flight
        requests before force-closing their connections.
    request_timeout_seconds:
        Per-connection socket read timeout (reaps dead keep-alive peers).
    reuse_port:
        Bind with ``SO_REUSEPORT`` so several server processes (or event
        loops) can share one port and let the kernel spread accepted
        connections across them (the ``--workers`` fan-out mode).
    executor_workers:
        Asyncio front end only: threads in the executor that runs gateway
        handler calls off the event loop (blocking work — refits,
        snapshots — must never stall the loop). Ignored by the threaded
        server, whose per-connection threads already provide this.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_connections: int = 128
    backlog: int = 128
    drain_timeout_seconds: float = 10.0
    request_timeout_seconds: float = 30.0
    reuse_port: bool = False
    executor_workers: int = 8

    def __post_init__(self) -> None:
        if self.max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        if self.backlog < 1:
            raise ValueError("backlog must be >= 1")
        if self.drain_timeout_seconds < 0:
            raise ValueError("drain_timeout_seconds must be >= 0")
        if self.request_timeout_seconds <= 0:
            raise ValueError("request_timeout_seconds must be positive")
        if self.executor_workers < 1:
            raise ValueError("executor_workers must be >= 1")


class _Handler(BaseHTTPRequestHandler):
    """One thread per connection; GETs delegate to the gateway."""

    protocol_version = "HTTP/1.1"
    server_version = SERVER_NAME
    sys_version = ""
    # An unbuffered wfile sends every header line as its own small TCP
    # segment, and Nagle + delayed ACK then stalls each response ~40 ms on
    # loopback. Buffer the response (handle_one_request flushes it) and
    # disable Nagle so the flush leaves immediately.
    wbufsize = -1
    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        self.server.register_connection(self.connection)

    def finish(self) -> None:
        self.server.unregister_connection(self.connection)
        super().finish()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging is the metrics registry's job

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler contract
        server = self.server
        server.request_begin()
        try:
            status, body = dispatch(
                server.gateway, server.spike, self.path, self.headers
            )
            payload = encode_body(body)
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            retry_after = retry_after_header(body)
            if retry_after is not None:
                self.send_header("Retry-After", str(retry_after))
            if server.draining:
                self.send_header("Connection", "close")
                self.close_connection = True
            self.end_headers()
            self.wfile.write(payload)
            # The buffered response must be on the wire before the request
            # counts as finished: a draining stop() may shut the socket as
            # soon as no request is in flight.
            self.wfile.flush()
        finally:
            server.request_end()


class _Server(ThreadingHTTPServer):
    """ThreadingHTTPServer with connection caps, drain bookkeeping."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self, config: HttpdConfig, gateway: ServingGateway, spike
    ) -> None:
        self.request_queue_size = config.backlog
        self._cfg = config
        self.gateway = gateway
        self.spike = spike
        self.draining = False
        self._state = threading.Condition()
        self._active_connections = 0
        self._inflight_requests = 0
        self._open_sockets: set = set()
        for name in (
            "httpd.connections",
            "httpd.connections_shed",
            "httpd.requests",
        ):
            gateway.metrics.counter(name)
        gateway.metrics.gauge("httpd.active_connections")
        super().__init__((config.host, config.port), _Handler)

    def server_bind(self) -> None:
        if self._cfg.reuse_port:
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()

    # -- connection admission -------------------------------------------------

    def process_request(self, request, client_address) -> None:
        with self._state:
            if self.draining or (
                self._active_connections >= self._cfg.max_connections
            ):
                shed = True
            else:
                self._active_connections += 1
                shed = False
        if shed:
            self._shed_connection(request)
            return
        self.gateway.metrics.counter("httpd.connections").inc()
        self.gateway.metrics.gauge("httpd.active_connections").set(
            self._active_connections
        )
        request.settimeout(self._cfg.request_timeout_seconds)
        super().process_request(request, client_address)

    def handle_error(self, request, client_address) -> None:
        import sys

        # Abrupt client disconnects (reset, timeout) are routine for a
        # load-replay peer, not server errors worth a traceback.
        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, TimeoutError)):
            return
        super().handle_error(request, client_address)

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._state:
                self._active_connections -= 1
                self._state.notify_all()
            self.gateway.metrics.gauge("httpd.active_connections").set(
                self._active_connections
            )

    def _shed_connection(self, request) -> None:
        """Answer 429 instead of letting the backlog reset the client."""
        self.gateway.metrics.counter("httpd.connections_shed").inc()
        shed_socket(request, shed_response_bytes(self.gateway))

    # -- drain bookkeeping ----------------------------------------------------

    def register_connection(self, sock) -> None:
        with self._state:
            self._open_sockets.add(sock)

    def unregister_connection(self, sock) -> None:
        with self._state:
            self._open_sockets.discard(sock)

    def request_begin(self) -> None:
        self.gateway.metrics.counter("httpd.requests").inc()
        with self._state:
            self._inflight_requests += 1

    def request_end(self) -> None:
        with self._state:
            self._inflight_requests -= 1
            self._state.notify_all()

    def wait_requests_idle(self, timeout: float) -> bool:
        """Block until no HTTP request is mid-handler (drain step 2)."""
        with self._state:
            return self._state.wait_for(
                lambda: self._inflight_requests == 0, timeout=timeout
            )

    def close_open_connections(self) -> None:
        """Unblock idle keep-alive handlers by closing their sockets."""
        with self._state:
            sockets = list(self._open_sockets)
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def wait_connections_closed(self, timeout: float) -> bool:
        with self._state:
            return self._state.wait_for(
                lambda: self._active_connections == 0, timeout=timeout
            )


class GatewayHTTPServer:
    """The gateway behind a real socket, with a graceful-drain shutdown.

    ``manage_gateway=True`` (the default) ties the gateway lifecycle to
    the server's: :meth:`start` starts the refresher workers (and the
    warm-restore when a snapshot directory is configured), and
    :meth:`stop` — *after* the drain — stops the gateway, which writes the
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
        self._server: _Server | None = None
        self._thread: threading.Thread | None = None

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
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        """Base URL of the listening server."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "GatewayHTTPServer":
        """Bind, listen and serve in a background thread (idempotent)."""
        if self._server is not None:
            return self
        if self._manage_gateway:
            self._gateway.start()
        self._server = _Server(self._cfg, self._gateway, self._spike)
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="gateway-httpd",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> dict:
        """Graceful drain, then shut the gateway down (final checkpoint).

        Sequence: stop accepting; wait for in-flight requests to finish;
        close remaining (idle) keep-alive connections; shed the kernel
        accept queue; close the listening socket; stop the gateway —
        whose shutdown checkpoint therefore observes every admitted
        request. Returns drain statistics.
        """
        server, thread = self._server, self._thread
        if server is None:
            return {"drained": True, "forced_close": 0, "backlog_shed": 0}
        timeout = self._cfg.drain_timeout_seconds
        with server._state:
            server.draining = True
        server.shutdown()  # accept loop exits; serve_forever returns
        thread.join()
        drained = server.wait_requests_idle(timeout)
        with server._state:
            forced = len(server._open_sockets)
        server.close_open_connections()
        server.wait_connections_closed(timeout)
        # Connections whose handshake completed in the kernel backlog after
        # the accept loop exited never reached process_request; without
        # this sweep, closing the listener would reset them instead of
        # answering the canned 429.
        swept = sweep_backlog(server.socket, shed_response_bytes(self._gateway))
        if swept:
            self._gateway.metrics.counter("httpd.connections_shed").inc(swept)
        server.server_close()
        self._server, self._thread = None, None
        if self._manage_gateway:
            self._gateway.wait_idle(timeout)
            self._gateway.stop()
        stats = {"drained": drained, "forced_close": forced, "backlog_shed": swept}
        if self._gateway.identity:
            stats["identity"] = dict(self._gateway.identity)
        return stats

    def __enter__(self) -> "GatewayHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
