"""The HTTP/1.1 core shared by the gateway server and the shard router.

Both asyncio front ends — :mod:`repro.serving.aiohttpd` (one gateway
behind a socket) and :mod:`repro.serving.router` (the consistent-hash
tier in front of N of them) — speak the same wire: the same request-head
loop, the same error and shed bytes, the same drain sweep. Everything
that defines those bytes lives here, so "routed bytes equal direct
bytes" is one code path instead of two copies that can drift.

Contents:

* :class:`HeadLoopProtocol` — one keep-alive client connection: buffer
  bytes, parse heads, answer in order with at most one request in
  flight; 400 on a malformed head, 501 on a non-GET, close on an
  oversized head; reading pauses while a request is in flight and the
  buffer holds more than one head's worth of bytes;
* :func:`dispatch` — the gateway call with the pre-dispatch spike hook
  and the answer-on-the-wire exception guard (unexpected errors become a
  500 body, never a dropped connection);
* :func:`retry_after_header` — RFC 9110 integer ``Retry-After`` seconds
  derived from a response body's ``retry_after`` hint;
* :func:`render_response` / :func:`body_response` / :func:`canned_response`
  — a full HTTP/1.1 response head + payload as wire bytes;
* :func:`shed_response_bytes` / :func:`shed_connection` — the canned 429
  written raw (no head parsed) to a connection shed at the accept gate,
  and the no-RST sequence that delivers it;
* :func:`bind_listener` — the listening socket both front ends accept
  on;
* :func:`sweep_backlog` — accept-and-shed every connection sitting in
  the kernel accept queue, closing the drain race where a client that
  connected after the stop-accepting gate would otherwise be reset by
  the listener's close instead of receiving the canned 429;
* :class:`Headers` / :func:`parse_head` — the minimal request-head parser.
"""

from __future__ import annotations

import asyncio
import math
import socket
from http.client import responses as _REASONS
from typing import Callable

from repro.service.rest import encode_body

__all__ = [
    "MAX_HEAD_BYTES",
    "SERVER_NAME",
    "BadRequest",
    "HeadLoopProtocol",
    "Headers",
    "bind_listener",
    "body_response",
    "canned_response",
    "dispatch",
    "parse_head",
    "reason_phrase",
    "render_response",
    "retry_after_header",
    "shed_connection",
    "shed_response_bytes",
    "sweep_backlog",
]

#: ``Server:`` header value, shared by both front ends.
SERVER_NAME = "repro-serving"

#: Cap on one buffered request head (request line + headers).
MAX_HEAD_BYTES = 65536

#: Pre-dispatch hook: (path, headers) -> None.  May sleep (chaos spikes).
SpikeHook = Callable[[str, object], None]


class Headers:
    """Case-insensitive view of one request's header lines (the subset of
    the ``email.message`` interface the spike hooks and keep-alive logic
    use: ``get``/``__contains__``)."""

    __slots__ = ("_items",)

    def __init__(self, lines: list[str]) -> None:
        items: dict[str, str] = {}
        for line in lines:
            name, sep, value = line.partition(":")
            if sep:
                items[name.strip().lower()] = value.strip()
        self._items = items

    def get(self, name: str, default=None):
        return self._items.get(name.lower(), default)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._items


class BadRequest(Exception):
    """Malformed request head; the connection gets a 400 and closes."""


def parse_head(head: bytes) -> tuple[str, str, Headers]:
    """Split one request head into (method, path, headers)."""
    try:
        lines = head.decode("latin-1").split("\r\n")
        method, path, version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError):
        raise BadRequest("malformed request line") from None
    if not version.startswith("HTTP/1."):
        raise BadRequest(f"unsupported protocol {version!r}")
    return method, path, Headers(lines[1:])


def reason_phrase(status: int) -> str:
    """The HTTP reason phrase for ``status`` (empty when unassigned)."""
    return _REASONS.get(status, "")


def dispatch(gateway, spike, path: str, headers) -> tuple[int, dict]:
    """Run the spike hook then the gateway; never raise.

    The wire must always answer: an unexpected handler exception becomes
    a 500 body rather than an aborted connection. Returns
    ``(status, body)``.
    """
    if spike is not None:
        spike(path, headers)
    try:
        response = gateway.get(path)
        return response.status, response.body
    except Exception as exc:  # noqa: BLE001 — wire must answer
        return 500, {"error": f"internal error: {exc}"}


def retry_after_header(body) -> int | None:
    """The integer ``Retry-After`` seconds for ``body``, or ``None``.

    RFC 9110 requires integer seconds; the hint is rounded up and floored
    at 1 so a sub-second ``retry_after`` still tells clients to back off.
    """
    retry_after = body.get("retry_after") if isinstance(body, dict) else None
    if retry_after is None:
        return None
    return max(1, math.ceil(retry_after))


def render_response(
    status: int,
    payload: bytes,
    *,
    retry_after: int | None = None,
    close: bool = False,
) -> bytes:
    """A complete HTTP/1.1 response (head + payload) as wire bytes."""
    head = (
        f"HTTP/1.1 {status} {reason_phrase(status)}\r\n"
        f"Server: {SERVER_NAME}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
    )
    if retry_after is not None:
        head += f"Retry-After: {retry_after}\r\n"
    if close:
        head += "Connection: close\r\n"
    return head.encode("ascii") + b"\r\n" + payload


def body_response(status: int, body: dict, *, close: bool = False) -> bytes:
    """``body`` JSON-encoded into a complete response, with the
    ``Retry-After`` header derived from its ``retry_after`` hint."""
    return render_response(
        status,
        encode_body(body),
        retry_after=retry_after_header(body),
        close=close,
    )


def canned_response(
    status: int,
    error: str,
    *,
    retry_after: float | None = None,
    close: bool = False,
) -> bytes:
    """A pre-renderable error response for code paths with no gateway.

    The shard router answers its own failure modes — upstream pool
    overflow (429), a shard that cannot be reached (503), a fan-out that
    timed out (504) — without a gateway to dispatch into. The body shape
    matches the gateway's error bodies (an ``error`` string plus an
    optional float ``retry_after`` hint) so clients parse one format.
    """
    body: dict = {"error": error}
    if retry_after is not None:
        body["retry_after"] = float(retry_after)
    return body_response(status, body, close=close)


def shed_response_bytes(retry_after_seconds: float) -> bytes:
    """The canned 429 + ``Connection: close`` for a connection shed at the
    accept gate (same body shape as the gateway's admission 429)."""
    return canned_response(
        429,
        "server connection limit reached; connection shed",
        retry_after=max(1, math.ceil(retry_after_seconds)),
        close=True,
    )


async def shed_connection(sock: socket.socket, shed_bytes: bytes) -> None:
    """Write the canned shed response and close *without a reset*.

    The shed happens before the server reads the request, so the client's
    request bytes usually sit unread in the receive buffer — and closing a
    socket with unread data makes the kernel send RST, which can destroy
    the in-flight 429 before the client reads it. Sequence instead: send
    the response, half-close (FIN tells the client no more is coming),
    then drain the peer's bytes until EOF (bounded by one second), and
    only then close. Best-effort throughout — a vanished peer is fine.
    """
    loop = asyncio.get_running_loop()
    try:
        sock.setblocking(False)  # a greedy accept() returns blocking sockets
        await loop.sock_sendall(sock, shed_bytes)
        sock.shutdown(socket.SHUT_WR)
        while True:
            data = await asyncio.wait_for(loop.sock_recv(sock, 4096), timeout=1.0)
            if not data:
                return
    except (OSError, asyncio.TimeoutError):
        pass  # peer already gone or stalled past the linger budget
    finally:
        sock.close()


def bind_listener(host: str, port: int, backlog: int) -> socket.socket:
    """A bound, listening, non-blocking TCP socket on ``(host, port)``.

    Bound synchronously, so a server's address is concrete (and clients
    can already queue in the backlog) before its event loop starts.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(backlog)
        listener.setblocking(False)
    except BaseException:
        listener.close()
        raise
    return listener


async def sweep_backlog(listener: socket.socket, shed_bytes: bytes) -> int:
    """Accept-and-shed everything queued on ``listener``; return the count.

    Closes the drain race: a client whose TCP handshake completed in the
    kernel backlog after the stop-accepting gate would be reset when the
    listening socket closes. Sweeping immediately before the close hands
    each of those connections the canned 429 + ``Connection: close``
    instead. The listener must be non-blocking; the sweep stops at the
    first empty accept.
    """
    sheds = []
    while True:
        try:
            sock, _ = listener.accept()
        except OSError:  # BlockingIOError: the queue is empty
            break
        sheds.append(shed_connection(sock, shed_bytes))
    await asyncio.gather(*sheds)
    return len(sheds)


class HeadLoopProtocol(asyncio.Protocol):
    """One client keep-alive connection: buffer bytes, parse heads, answer.

    Requests are answered in order, at most one in flight per connection.
    :meth:`serve` either answers a request on the spot (returns ``True``
    to keep parsing) or marks the connection ``busy`` and returns
    ``False``; whatever settles the in-flight request later calls
    :meth:`answer`, which writes the response and resumes parsing from
    the buffer. While a request is in flight the buffer only grows, so
    reading pauses once it holds more than :data:`MAX_HEAD_BYTES` and
    resumes when the answer is written: a client pipelining behind a
    slow request costs at most one head plus one transport read.

    The owning server provides ``_loop``, ``_connections``, ``_draining``
    and a ``_requests_total`` counter.
    """

    __slots__ = ("server", "transport", "buffer", "busy", "paused", "last_activity")

    def __init__(self, server) -> None:
        self.server = server
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()
        self.busy = False  # a request is in flight
        self.paused = False  # reading paused behind the in-flight request
        self.last_activity = 0.0

    # -- transport callbacks ---------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.last_activity = self.server._loop.time()

    def connection_lost(self, exc) -> None:
        self.server._connections.discard(self)

    def eof_received(self) -> bool:
        return False  # peer finished sending; close our side too

    def data_received(self, data: bytes) -> None:
        self.last_activity = self.server._loop.time()
        self.buffer += data
        if not self.busy:
            self._process()
        self._throttle()

    # -- request loop ----------------------------------------------------------

    def _process(self) -> None:
        """Answer every complete head in the buffer, in order."""
        while True:
            index = self.buffer.find(b"\r\n\r\n")
            if index < 0:
                if len(self.buffer) > MAX_HEAD_BYTES:
                    self.transport.close()  # oversized head; no valid answer
                return
            head = bytes(self.buffer[:index])
            del self.buffer[: index + 4]
            try:
                method, path, headers = parse_head(head)
            except BadRequest as exc:
                self.write_body(400, {"error": str(exc)}, close=True)
                return
            if method != "GET":
                self.write_body(
                    501, {"error": f"unsupported method {method!r}"}, close=True
                )
                return
            server = self.server
            close = (
                server._draining
                or headers.get("Connection", "").lower() == "close"
            )
            server._requests_total.inc()
            if not self.serve(path, headers, close):
                return

    def _throttle(self) -> None:
        over = self.busy and len(self.buffer) > MAX_HEAD_BYTES
        if over != self.paused:
            self.paused = over
            if over:
                self.transport.pause_reading()
            else:
                self.transport.resume_reading()

    def serve(self, path: str, headers: Headers, close: bool) -> bool:
        """Answer one GET; ``False`` stops the loop (request in flight —
        ``busy`` set — or connection closing)."""
        raise NotImplementedError

    # -- writes ----------------------------------------------------------------

    def write(self, wire: bytes, close: bool) -> None:
        self.transport.write(wire)
        if close:
            self.transport.close()

    def write_body(self, status: int, body: dict, *, close: bool) -> None:
        self.write(body_response(status, body, close=close), close)

    def answer(self, wire: bytes, close: bool) -> None:
        """Settle the in-flight request with ``wire``, then parse on."""
        transport = self.transport
        if transport is None or transport.is_closing():
            return  # peer went away while the request was in flight
        self.write(wire, close)
        if close:
            return
        self.busy = False
        self.last_activity = self.server._loop.time()
        self._process()  # pipelined heads may already be buffered
        self._throttle()
