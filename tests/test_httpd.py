"""Socket-server tests: parity with the in-process gateway, keep-alive,
connection shedding, graceful drain, the buffer cap behind an in-flight
request, and raw wire cases (malformed, non-GET, oversized and pipelined
requests) that the gateway server and the shard router must answer with
identical bytes."""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.cloud.api import EC2Api
from repro.experiments.common import scaled_universe
from repro.service.drafts_service import DraftsService, ServiceConfig
from repro.service.rest import encode_body
from repro.serving.aiohttpd import AsyncGatewayHTTPServer
from repro.serving.gateway import GatewayConfig, ServingGateway, warm_gateway
from repro.serving.httpcore import MAX_HEAD_BYTES, shed_response_bytes
from repro.serving.httpd import HttpdConfig
from repro.serving.loadgen import predictable_keys
from repro.serving.router import Partition, RouterConfig, RouterServer

#: The most one asyncio socket-transport read delivers.
TRANSPORT_READ_BYTES = 256 * 1024


@pytest.fixture(params=["asyncio"])
def server_cls(request):
    # One server class remains; the parameter keeps these tests' ids.
    return AsyncGatewayHTTPServer


@pytest.fixture(scope="module")
def env():
    universe = scaled_universe("test")
    keys, start_now = predictable_keys(universe, 2, 0.95)
    return universe, keys, start_now


def _gateway(universe, config: GatewayConfig | None = None, api=None):
    return ServingGateway(
        DraftsService(
            api or EC2Api(universe), ServiceConfig(probabilities=(0.95,))
        ),
        config or GatewayConfig(),
    )


def _get(address, path):
    """One fresh-connection GET: (status, headers, body bytes)."""
    conn = HTTPConnection(*address, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, dict(response.headers), response.read()
    finally:
        conn.close()


def _read_until_closed(sock: socket.socket) -> bytes:
    """Drain a socket to EOF (the peer promised Connection: close)."""
    chunks = b""
    while True:
        got = sock.recv(4096)
        if not got:
            return chunks
        chunks += got


def _stop_accepting(server) -> None:
    """Put ``server`` exactly in the drain window: the stop-accepting gate
    has fired, but the listener is still open and :meth:`stop` has not yet
    run — new TCP handshakes land in the kernel backlog unanswered."""

    async def gate() -> None:
        server._draining = True
        server._accept_task.cancel()
        try:
            await server._accept_task
        except asyncio.CancelledError:
            pass

    asyncio.run_coroutine_threadsafe(gate(), server._loop).result()


def _server_side_nodelay(server) -> list[int]:
    """TCP_NODELAY as set on each server-side connection of ``server``."""

    async def read() -> list[int]:
        return [
            protocol.transport.get_extra_info("socket").getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
            for protocol in server._connections
        ]

    return asyncio.run_coroutine_threadsafe(read(), server._loop).result()


def _request(url: str, extra: bytes = b"") -> bytes:
    return f"GET {url} HTTP/1.1\r\nHost: t\r\n".encode() + extra + b"\r\n"


def _read_response(reader) -> bytes:
    """One raw response (head + ``Content-Length`` body) off ``reader``;
    whatever arrived before EOF when the server closes instead."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        line = reader.readline()
        if not line:
            return head
        head += line
    length = 0
    for line in head.split(b"\r\n"):
        name, _, value = line.partition(b":")
        if name.lower() == b"content-length":
            length = int(value)
    return head + reader.read(length)


def _status(response: bytes) -> int:
    return int(response.split(b" ", 2)[1])


def _buffer_peak(front) -> int:
    """The largest client-connection buffer on ``front``, polled until it
    holds steady (the client's stream absorbed, or blocked by the server)."""

    async def largest() -> int:
        return max((len(p.buffer) for p in front._connections), default=0)

    peak, last, steady = 0, -1, 0
    deadline = time.monotonic() + 20
    while steady < 10 and time.monotonic() < deadline:
        size = asyncio.run_coroutine_threadsafe(largest(), front._loop).result()
        peak = max(peak, size)
        steady = steady + 1 if size == last and size > 0 else 0
        last = size
        time.sleep(0.02)
    return peak


def _stream_behind_held_request(front, held_url, gate, entered):
    """Send ``held_url`` (which ``gate`` holds in flight), then stream
    >= 4 MiB of pipelined ``/healthz`` heads padded to 32 KiB on the same
    connection. Returns the peak server-side buffer while the request was
    held and the status of every response once it is released."""
    filler = _request("/healthz", b"X-Pad: " + b"x" * 32768 + b"\r\n")
    n_filler = -(-(4 << 20) // len(filler))
    sock = socket.create_connection(front.address, timeout=30)
    try:
        sock.sendall(_request(held_url))
        assert entered.wait(timeout=10)
        sender = threading.Thread(
            target=sock.sendall, args=(filler * n_filler,), daemon=True
        )
        sender.start()
        peak = _buffer_peak(front)
        gate.set()
        with sock.makefile("rb") as reader:
            statuses = [
                _status(_read_response(reader)) for _ in range(1 + n_filler)
            ]
        sender.join(timeout=30)
        assert not sender.is_alive()
    finally:
        gate.set()
        sock.close()
    return peak, statuses


class _GatedApi:
    """History reads block on ``gate`` (and flag ``entered``) — a handle to
    hold a request in flight at a deterministic point."""

    def __init__(self, api, gate, entered):
        self._api = api
        self._gate = gate
        self._entered = entered

    def __getattr__(self, name):
        return getattr(self._api, name)

    def describe_spot_price_history(self, *args, **kwargs):
        self._entered.set()
        assert self._gate.wait(timeout=30)
        return self._api.describe_spot_price_history(*args, **kwargs)


class TestParity:
    """A socket response must carry the same status and a byte-identical
    body as the in-process handler, across every status path."""

    def test_all_status_paths(self, env, server_cls):
        universe, keys, start_now = env
        (t, z, p), (t2, z2, _) = keys
        early = start_now - 45 * 86400 + 3600
        cases = [
            (200, "/healthz"),
            (200, f"/predictions/{t}/{z}?probability={p}&now={start_now}"),
            (
                200,
                f"/bid/{t}/{z}?probability={p}"
                f"&duration=3600.0&now={start_now}",
            ),
            (
                400,
                f"/predictions/{t}/{z}?probability=abc&now={start_now}",
            ),
            (404, "/nope"),
            (
                404,
                f"/bid/{t}/{z}?probability={p}"
                f"&duration=1e18&now={start_now}",
            ),
            (503, f"/predictions/{t2}/{z2}?probability={p}&now={early}"),
            (
                504,
                f"/predictions/{t}/{z}?probability={p}"
                f"&now={start_now}&deadline=0",
            ),
        ]
        gateway = _gateway(universe)
        with server_cls(gateway, HttpdConfig()) as server:
            for want_status, url in cases:
                expected = gateway.get(url)
                assert expected.status == want_status, url
                status, headers, body = _get(server.address, url)
                assert status == expected.status, url
                assert body == encode_body(expected.body), url
                assert headers["Content-Type"] == "application/json"
                assert int(headers["Content-Length"]) == len(body)
                if "retry_after" in expected.body:
                    assert int(headers["Retry-After"]) >= 1
                else:
                    assert "Retry-After" not in headers

    def test_repeated_warm_reads_stay_byte_identical(self, env, server_cls):
        """Warm 200s repeat byte-for-byte over one keep-alive connection.

        This is the regression fence for the asyncio encoded-response
        cache: a cache hit must produce the same bytes as a fresh encode,
        and every request must still tick the request accounting (the
        cache elides only the re-serialisation, never the gateway call).
        """
        universe, keys, start_now = env
        (t, z, p), _ = keys
        url = f"/predictions/{t}/{z}?probability={p}&now={start_now}"
        gateway = _gateway(universe)
        with server_cls(gateway, HttpdConfig()) as server:
            conn = HTTPConnection(*server.address, timeout=10)
            try:
                bodies = []
                for _ in range(3):
                    conn.request("GET", url)
                    response = conn.getresponse()
                    assert response.status == 200
                    bodies.append(response.read())
            finally:
                conn.close()
            assert bodies[0] == bodies[1] == bodies[2]
            assert bodies[0] == encode_body(gateway.get(url).body)
            assert gateway.metrics.counter("httpd.requests").value == 3
        universe, _keys, _ = env
        gateway = _gateway(universe)
        with server_cls(gateway, HttpdConfig()) as server:
            for path in ("/health", "/healthz"):
                status, _, body = _get(server.address, path)
                assert status == 200
                assert body == encode_body({"status": "ok"})

    def test_predictions_encoding_is_shared_per_curve(
        self, env, server_cls, monkeypatch
    ):
        """The encoded-response cache keys a ``predictions`` payload by its
        curve: URLs of one key that differ only in ``now`` share one
        encoding, a refresh that swaps the curve re-encodes, and ``bid``
        payloads (which carry the URL's duration) stay keyed per URL."""
        from repro.serving import aiohttpd

        encoded = []

        def counting_encode(body):
            encoded.append(body)
            return encode_body(body)

        monkeypatch.setattr(aiohttpd, "encode_body", counting_encode)
        universe, keys, start_now = env
        (t, z, p), _ = keys
        key = (t, z, p)

        def predictions(now):
            return f"/predictions/{t}/{z}?probability={p}&now={now}"

        def bid(now):
            return f"/bid/{t}/{z}?probability={p}&duration=3600.0&now={now}"

        gateway = _gateway(universe)
        assert gateway.get(predictions(start_now)).status == 200  # warm
        with server_cls(gateway, HttpdConfig()) as server:
            conn = HTTPConnection(*server.address, timeout=10)

            def fetch(url):
                conn.request("GET", url)
                response = conn.getresponse()
                assert response.status == 200
                return response.read()

            try:
                first = fetch(predictions(start_now))
                second = fetch(predictions(start_now + 60.0))
                curve = gateway.store.peek(key).curve
                assert first == second == encode_body(curve.to_dict())
                assert len(encoded) == 1
                bids = [fetch(bid(start_now)), fetch(bid(start_now + 60.0))]
                assert fetch(bid(start_now)) == bids[0]
                assert len(encoded) == 3  # one per bid URL; the repeat hits
                assert bids[0] == bids[1]
                assert bids[0] == encode_body(gateway.get(bid(start_now)).body)

                later = start_now + 2 * 900.0
                gateway.refresher.refresh(key, later)
                entry = gateway.store.peek(key)
                assert entry.curve is not curve
                swapped = fetch(predictions(later))
                assert len(encoded) == 4
                assert swapped == encode_body(entry.curve.to_dict())
                assert fetch(predictions(later + 60.0)) == swapped
                assert len(encoded) == 4
            finally:
                conn.close()

    def test_gateway_shed_is_byte_identical(self, env, server_cls):
        """429 from admission control, compared while a request is held
        in flight on the single slot."""
        universe, keys, start_now = env
        t, z, p = keys[0]
        gate, entered = threading.Event(), threading.Event()
        gateway = _gateway(
            universe,
            GatewayConfig(max_inflight=1, retry_after_seconds=2.0),
            api=_GatedApi(EC2Api(universe), gate, entered),
        )
        url = f"/predictions/{t}/{z}?probability={p}&now={start_now}"
        with server_cls(gateway, HttpdConfig()) as server:
            slow: dict = {}

            def hold():
                slow["result"] = _get(server.address, url)

            thread = threading.Thread(target=hold)
            thread.start()
            try:
                assert entered.wait(timeout=10)
                expected = gateway.get(url)
                assert expected.status == 429
                status, headers, body = _get(server.address, url)
                assert status == 429
                assert body == encode_body(expected.body)
                assert headers["Retry-After"] == "2"
            finally:
                gate.set()
                thread.join(timeout=30)
            assert slow["result"][0] == 200

    def test_warm_cheapest_inline_bytes_equal_offloaded(self, env, server_cls):
        """The first ``/cheapest`` fits its cold zones off the loop; once
        every zone holds an entry the same URL is answered inline, with
        the offloaded answer's bytes and the in-process answer's body."""
        universe, keys, start_now = env
        t, z, p = keys[0]
        region = z.rstrip("abcdefghijklmnopqrstuvwxyz")
        url = f"/cheapest/{t}/{region}?probability={p}&now={start_now}"
        gateway = _gateway(universe)
        inline = gateway.metrics.counter("httpd.requests_inline")
        with server_cls(gateway, HttpdConfig()) as server:
            offloaded = _get(server.address, url)
            assert inline.value == 0
            warm = _get(server.address, url)
            assert inline.value == 1
        assert offloaded[0] == warm[0] == 200
        assert warm[2] == offloaded[2] == encode_body(gateway.get(url).body)

    def test_metrics_route_served(self, env, server_cls):
        universe, _keys, _ = env
        gateway = _gateway(universe)
        with server_cls(gateway, HttpdConfig()) as server:
            status, _, body = _get(server.address, "/metrics")
            assert status == 200
            snapshot = json.loads(body)
            assert snapshot["counters"]["httpd.requests"] >= 1


class TestShedParity:
    """The raw accept-gate shed (written without handler machinery) must be
    wire-compatible with the handler-path 429: same JSON body shape, an
    integer Retry-After, and Connection: close on the shed."""

    def test_shed_429_matches_handler_429(self, env, server_cls):
        universe, keys, start_now = env
        t, z, p = keys[0]
        gate, entered = threading.Event(), threading.Event()
        gateway = _gateway(
            universe,
            GatewayConfig(max_inflight=1, retry_after_seconds=2.0),
            api=_GatedApi(EC2Api(universe), gate, entered),
        )
        url = f"/predictions/{t}/{z}?probability={p}&now={start_now}"
        with server_cls(gateway, HttpdConfig(max_connections=2)) as server:
            slow: dict = {}

            def hold():
                slow["result"] = _get(server.address, url)

            thread = threading.Thread(target=hold)
            thread.start()
            h_conn = HTTPConnection(*server.address, timeout=10)
            try:
                assert entered.wait(timeout=10)
                # Handler-path 429: admitted connection, shed by admission
                # control. Stays open (keep-alive) so it keeps holding the
                # second connection slot while the raw shed happens.
                h_conn.request("GET", url)
                h_response = h_conn.getresponse()
                h_status = h_response.status
                h_headers = dict(h_response.headers)
                h_body = h_response.read()
                assert h_status == 429
                # Raw shed path: third concurrent connection is over
                # max_connections, answered by the canned write.
                raw = socket.create_connection(server.address, timeout=10)
                try:
                    raw.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                    shed_wire = _read_until_closed(raw)
                finally:
                    raw.close()
            finally:
                gate.set()
                thread.join(timeout=30)
                h_conn.close()
            assert slow["result"][0] == 200

        # Byte-identical to the shared canned builder.
        assert shed_wire == shed_response_bytes(gateway.config.retry_after_seconds)
        head, _, shed_payload = shed_wire.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("ascii").split("\r\n")
        shed_headers = {
            name.lower(): value
            for name, _, value in (
                line.partition(": ") for line in header_lines
            )
        }
        assert status_line == "HTTP/1.1 429 Too Many Requests"
        assert shed_headers["connection"] == "close"
        # Both paths: integer Retry-After (RFC 9110), same value here.
        assert shed_headers["retry-after"] == "2"
        assert h_headers["Retry-After"] == "2"
        # Same JSON body shape: an error string plus a float retry_after.
        shed_body = json.loads(shed_payload)
        handler_body = json.loads(h_body)
        assert set(shed_body) == set(handler_body) == {"error", "retry_after"}
        assert isinstance(shed_body["retry_after"], float)
        assert isinstance(handler_body["retry_after"], float)
        assert int(shed_headers["content-length"]) == len(shed_payload)


class TestConnections:
    def test_accepted_sockets_disable_nagle(self, env):
        # A pipelined response must not wait out a client's delayed ACK:
        # every admitted connection runs with Nagle's algorithm off.
        universe, _keys, _ = env
        gateway = _gateway(universe)
        with AsyncGatewayHTTPServer(gateway, HttpdConfig()) as server:
            conn = HTTPConnection(*server.address, timeout=10)
            try:
                conn.request("GET", "/healthz")
                conn.getresponse().read()
                nodelay = _server_side_nodelay(server)
                assert len(nodelay) == 1
                assert all(nodelay)
            finally:
                conn.close()

    def test_keep_alive_reuses_connection(self, env, server_cls):
        universe, _keys, _ = env
        gateway = _gateway(universe)
        with server_cls(gateway, HttpdConfig()) as server:
            conn = HTTPConnection(*server.address, timeout=10)
            try:
                for _ in range(3):
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    assert response.status == 200
                    response.read()
                    assert (
                        response.headers.get("Connection", "").lower()
                        != "close"
                    )
                counters = json.loads(
                    _get(server.address, "/metrics")[2]
                )["counters"]
                # 3 keep-alive requests rode one connection.
                assert counters["httpd.requests"] >= 3
                assert counters["httpd.connections"] == 2  # conn + /metrics
            finally:
                conn.close()

    def test_connection_overflow_is_shed_as_429(self, env, server_cls):
        """Beyond max_connections a new connection gets an immediate 429
        with Retry-After, not a silent kernel reset."""
        universe, _keys, _ = env
        gateway = _gateway(universe)
        with server_cls(
            gateway, HttpdConfig(max_connections=1)
        ) as server:
            first = HTTPConnection(*server.address, timeout=10)
            try:
                first.request("GET", "/healthz")
                response = first.getresponse()
                assert response.status == 200
                response.read()  # leave the connection idle keep-alive
                second = HTTPConnection(*server.address, timeout=10)
                try:
                    second.request("GET", "/healthz")
                    response = second.getresponse()
                    assert response.status == 429
                    assert int(response.headers["Retry-After"]) >= 1
                    assert (
                        response.headers.get("Connection", "").lower()
                        == "close"
                    )
                    body = json.loads(response.read())
                    assert "connection" in body["error"]
                finally:
                    second.close()
                # The surviving keep-alive connection still works, and the
                # shed is visible in the metrics.
                first.request("GET", "/metrics")
                response = first.getresponse()
                assert response.status == 200
                counters = json.loads(response.read())["counters"]
                assert counters["httpd.connections_shed"] == 1
            finally:
                first.close()


class TestDrain:
    def test_graceful_drain_finishes_inflight_and_checkpoints(
        self, env, tmp_path, server_cls
    ):
        """stop(): an in-flight request completes with a full response, and
        the final snapshot (written after the drain) contains its curve."""
        universe, keys, start_now = env
        t, z, p = keys[0]
        gate, entered = threading.Event(), threading.Event()
        snapshot_dir = tmp_path / "snap"
        gateway = _gateway(
            universe,
            GatewayConfig(snapshot_dir=str(snapshot_dir)),
            api=_GatedApi(EC2Api(universe), gate, entered),
        )
        url = f"/predictions/{t}/{z}?probability={p}&now={start_now}"
        server = server_cls(
            gateway, HttpdConfig(drain_timeout_seconds=30)
        )
        server.start()
        slow: dict = {}

        def hold():
            slow["result"] = _get(server.address, url)

        request_thread = threading.Thread(target=hold)
        request_thread.start()
        assert entered.wait(timeout=10)

        stats: dict = {}
        stop_thread = threading.Thread(
            target=lambda: stats.update(server.stop())
        )
        stop_thread.start()
        # The drain must be blocked on the in-flight request, not racing
        # past it.
        stop_thread.join(timeout=0.3)
        assert stop_thread.is_alive()
        gate.set()
        request_thread.join(timeout=30)
        stop_thread.join(timeout=30)
        assert not stop_thread.is_alive()

        status, _, body = slow["result"]
        assert status == 200
        assert json.loads(body)["instance_type"] == t
        assert stats["drained"] is True
        # The post-drain checkpoint observed the request admitted mid-drain.
        snaps = list(Path(snapshot_dir).glob("*.snap"))
        assert len(snaps) >= 1

    def test_stop_closes_idle_connections_and_listener(self, env, server_cls):
        universe, _keys, _ = env
        gateway = _gateway(universe)
        server = server_cls(gateway, HttpdConfig()).start()
        address = server.address
        idle = HTTPConnection(*address, timeout=10)
        idle.request("GET", "/healthz")
        idle.getresponse().read()
        stats = server.stop()
        assert stats["drained"] is True
        with pytest.raises(OSError):
            probe = HTTPConnection(*address, timeout=1)
            probe.request("GET", "/healthz")
            probe.getresponse()
        idle.close()

    def test_connection_in_drain_window_gets_shed_not_reset(
        self, env, server_cls
    ):
        """A client whose handshake lands in the kernel backlog after the
        stop-accepting gate (but before the listener closes) must receive
        the canned 429 + Connection: close, not a connection reset."""
        universe, _keys, _ = env
        gateway = _gateway(universe)
        server = server_cls(gateway, HttpdConfig()).start()
        _stop_accepting(server)
        # The accept loop is gone but the listener is open: this handshake
        # completes in the kernel backlog and nothing will ever accept it.
        raw = socket.create_connection(server.address, timeout=10)
        try:
            raw.settimeout(10)
            raw.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            stats = server.stop()
            wire = _read_until_closed(raw)
        finally:
            raw.close()
        assert stats["backlog_shed"] == 1
        assert wire == shed_response_bytes(gateway.config.retry_after_seconds)


class TestInflightBufferCap:
    """While a request is in flight the server stops parsing, so bytes a
    client pipelines behind it only accumulate: the server must stop
    reading once the buffer holds more than one head, and resume when
    the in-flight answer is written."""

    def test_gateway_server_pauses_reading(self, env):
        universe, keys, start_now = env
        t, z, p = keys[0]
        gate, entered = threading.Event(), threading.Event()
        gateway = _gateway(
            universe,
            GatewayConfig(max_inflight=256),
            api=_GatedApi(EC2Api(universe), gate, entered),
        )
        url = f"/predictions/{t}/{z}?probability={p}&now={start_now}"
        with AsyncGatewayHTTPServer(gateway, HttpdConfig()) as server:
            peak, statuses = _stream_behind_held_request(
                server, url, gate, entered
            )
        assert peak <= MAX_HEAD_BYTES + TRANSPORT_READ_BYTES
        assert statuses == [200] * len(statuses)

    def test_router_pauses_reading(self, env):
        universe, keys, start_now = env
        t, z, p = keys[0]
        gate, entered = threading.Event(), threading.Event()
        gateway = _gateway(
            universe,
            GatewayConfig(max_inflight=256),
            api=_GatedApi(EC2Api(universe), gate, entered),
        )
        url = f"/predictions/{t}/{z}?probability={p}&now={start_now}"
        with AsyncGatewayHTTPServer(gateway, HttpdConfig()) as shard:
            router = RouterServer(
                Partition({"s0": [(t, z)]}),
                {"s0": shard.url},
                config=RouterConfig(upstream_timeout_seconds=30),
            ).start()
            try:
                peak, statuses = _stream_behind_held_request(
                    router, url, gate, entered
                )
            finally:
                router.stop()
        assert peak <= MAX_HEAD_BYTES + TRANSPORT_READ_BYTES
        assert statuses == [200] * len(statuses)


#: Raw-socket cases: request bytes (from the pipelined URL triple), the
#: statuses answered in order, and whether the server then closes.
WIRE_CASES = {
    "malformed_request_line": (lambda urls: b"NONSENSE\r\n\r\n", [400], True),
    "post": (
        lambda urls: b"POST /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        [501],
        True,
    ),
    "oversized_head": (
        lambda urls: b"GET /" + b"a" * MAX_HEAD_BYTES,
        [],
        True,
    ),
    "pipelined": (
        lambda urls: b"".join(_request(url) for url in urls),
        [200, 200, 200],
        False,
    ),
    "unknown_route_with_fragment": (
        lambda urls: _request("/no/such#frag"),
        [404],
        False,
    ),
}


def _exchange(address, request: bytes, n_responses: int, closes: bool):
    """``request`` on a fresh connection: (the first ``n_responses``
    responses, every byte after them up to EOF when the server closes)."""
    with socket.create_connection(address, timeout=10) as sock:
        try:
            sock.sendall(request)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server may close before the request is all sent
        with sock.makefile("rb") as reader:
            responses = [_read_response(reader) for _ in range(n_responses)]
            tail = None
            if closes:
                try:
                    tail = reader.read()
                except ConnectionResetError:
                    tail = b""
    return responses, tail


@pytest.fixture(scope="module")
def fronts(env):
    """The gateway server, and a router in front of it as its only shard;
    plus the pipelined triple: a warm read, an offloaded ``/cheapest``,
    another warm read."""
    universe, keys, start_now = env
    t, z, p = keys[0]
    region = z.rstrip("abcdefghijklmnopqrstuvwxyz")
    urls = (
        f"/predictions/{t}/{z}?probability={p}&now={start_now}",
        f"/cheapest/{t}/{region}?probability={p}&now={start_now}",
        f"/bid/{t}/{z}?probability={p}&duration=3600.0&now={start_now}",
    )
    server = AsyncGatewayHTTPServer(
        warm_gateway(universe, [(t, z)], start_now, p), HttpdConfig()
    ).start()
    router = RouterServer(Partition({"s0": [(t, z)]}), {"s0": server.url})
    router.start()
    try:
        yield (server, router), urls
    finally:
        router.stop()
        server.stop()


class TestWire:
    @pytest.mark.parametrize("case", sorted(WIRE_CASES))
    def test_direct_and_routed_answer_identically(self, fronts, case):
        (server, router), urls = fronts
        build, statuses, closes = WIRE_CASES[case]
        direct = _exchange(server.address, build(urls), len(statuses), closes)
        routed = _exchange(router.address, build(urls), len(statuses), closes)
        assert routed == direct
        responses, tail = direct
        assert [_status(r) for r in responses] == statuses
        if closes:
            assert tail == b""
            for response in responses:
                assert b"\r\nConnection: close\r\n" in response
        if case == "pipelined":
            separate = [
                _exchange(server.address, _request(url), 1, False)[0][0]
                for url in urls
            ]
            assert responses == separate

    def test_fragment_is_not_part_of_the_route(self, fronts):
        """``/healthz#x`` is the health route on both fronts: each answers
        it byte-for-byte as it answers ``/healthz``. (The two fronts'
        health bodies differ by design: the router describes itself.)"""
        (server, router), _ = fronts
        statuses = []
        for front in (server, router):
            with_fragment, _ = _exchange(
                front.address, _request("/healthz#x"), 1, False
            )
            plain, _ = _exchange(front.address, _request("/healthz"), 1, False)
            assert with_fragment == plain
            statuses.append(_status(with_fragment[0]))
        assert statuses == [200, 200]
