"""Due-time open-loop HTTP load client.

One thread drives at most ``connections`` keep-alive sockets in
non-blocking mode. Every request has a *due* time fixed before the run
(Poisson arrivals, seeded); the client writes it on the least-loaded
connection the moment it is due, pipelining behind requests still in
flight, so a slow server queues requests in its own socket buffers
instead of slowing the client down. Each request is stamped three times:

* ``due``  — when the schedule says it should be sent;
* ``sent`` — when the client handed it to the kernel;
* ``done`` — when the last byte of its response was parsed.

Latency is ``done - due``: it includes every wait a stall imposes on
later requests. ``sent - due`` is the client's own lateness; it must stay
small beside the latency limit, or the numbers measure the client.

The garbage collector is off inside the measured window. Waiting uses
``select.select`` (microsecond timeouts) rather than ``epoll`` (which
rounds timeouts up to whole milliseconds). Where the system allows it,
the client thread runs under ``SCHED_RR`` for the window (children do
not inherit it): on a small machine a busy server otherwise delays the
client's wake-ups by milliseconds, and that delay would be reported as
server latency. The client sleeps between sends, so it takes little CPU.
"""

from __future__ import annotations

import gc
import math
import os
import select
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

#: Status codes the client assigns to requests that got no HTTP answer.
TIMED_OUT = -1
CONNECTION_LOST = -2
CONNECT_FAILED = -3

#: A request unanswered this long after it was sent fails as TIMED_OUT.
REQUEST_TIMEOUT_S = 5.0
#: The max-rate search: geometric step between probes, bisections of the
#: bracket, and the lowest rate it descends to.
GROWTH = 1.25
REFINE = 3
FLOOR_RATE = 1.0


def poisson_dues(rate: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Poisson arrival offsets (seconds) at ``rate`` per second."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


def request_bytes(url: str, host: str) -> bytes:
    """The wire form of one keep-alive GET."""
    return f"GET {url} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("latin-1")


@dataclass
class TrialResult:
    """Stamps and outcomes of one open-loop trial (times in ns from start)."""

    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    status: np.ndarray
    correct: np.ndarray
    wall_ns: int

    @property
    def attempted(self) -> int:
        return int(self.due.size)

    @property
    def failed_mask(self) -> np.ndarray:
        """Requests that count as failed: no answer, 429, 5xx, wrong bytes."""
        status = self.status
        return (status < 100) | (status == 429) | (status >= 500) | ~self.correct

    @property
    def failed(self) -> int:
        return int(self.failed_mask.sum())

    def latency_ms(self, mask: np.ndarray | None = None) -> np.ndarray:
        """Due-time latencies; a failed request counts as infinitely late."""
        lat = (self.done - self.due) / 1e6
        lat = np.where(self.failed_mask, np.inf, lat)
        return lat if mask is None else lat[mask]

    def lateness_ms(self) -> np.ndarray:
        """How late the client sent each request."""
        return (self.sent - self.due) / 1e6


def quantile(values: np.ndarray, q: float) -> float:
    """The ``q`` quantile (``inf`` when failures reach it, ``nan`` if empty)."""
    if values.size == 0:
        return math.nan
    ordered = np.sort(values)
    position = q * (ordered.size - 1)
    low = int(math.floor(position))
    high = min(low + 1, ordered.size - 1)
    if math.isinf(ordered[high]):
        return math.inf if position > low or math.isinf(ordered[low]) else float(ordered[low])
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def _enter_realtime() -> tuple[int, int] | None:
    """Switch this thread to round-robin real time; the old policy, or None."""
    try:
        previous = (os.sched_getscheduler(0), os.sched_getparam(0).sched_priority)
        os.sched_setscheduler(
            0, os.SCHED_RR | os.SCHED_RESET_ON_FORK, os.sched_param(1)
        )
    except (AttributeError, OSError):
        return None
    return previous


def _leave_realtime(previous: tuple[int, int] | None) -> None:
    if previous is not None:
        os.sched_setscheduler(0, previous[0], os.sched_param(previous[1]))


def realtime_available() -> bool:
    """Whether :func:`run_open_loop` can raise its scheduling priority."""
    previous = _enter_realtime()
    _leave_realtime(previous)
    return previous is not None


class _Connection:
    __slots__ = ("sock", "pending", "rbuf", "wbuf")

    def __init__(self, address: tuple[str, int]) -> None:
        sock = socket.create_connection(address, timeout=5.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        sock.setblocking(False)
        self.sock = sock
        self.pending: deque[int] = deque()
        self.rbuf = bytearray()
        self.wbuf = bytearray()

    def close(self) -> None:
        self.sock.close()


ResponseCheck = Callable[[int, int, bytes], bool]


def run_open_loop(
    address: tuple[str, int],
    payloads: Sequence[bytes],
    dues_s: Sequence[float],
    *,
    connections: int = 2,
    check: ResponseCheck | None = None,
) -> TrialResult:
    """Send ``payloads[i]`` at ``dues_s[i]`` seconds from now; collect stamps.

    ``check(i, status, body)`` judges each response (default: accept);
    a ``False`` marks the request failed. Requests unanswered
    :data:`REQUEST_TIMEOUT_S` after they were sent fail with
    :data:`TIMED_OUT`; their connection is replaced, since later answers
    on it would be misattributed.
    """
    n = len(payloads)
    due = np.asarray(dues_s, dtype=np.float64)
    due_ns = (due * 1e9).astype(np.int64)
    due_list = due_ns.tolist()
    sent = [0] * n
    done = [0] * n
    status = [0] * n
    correct = [True] * n
    conns = [_Connection(address) for _ in range(max(1, connections))]
    timeout_ns = int(REQUEST_TIMEOUT_S * 1e9)
    clock = time.perf_counter_ns
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    policy = _enter_realtime()

    def fail_connection(index: int, code: int) -> None:
        conn = conns[index]
        for i in conn.pending:
            status[i] = code
            done[i] = clock() - start
        conn.close()
        try:
            conns[index] = _Connection(address)
        except OSError:
            conns[index] = None  # type: ignore[call-overload]

    start = clock()
    nxt = 0
    answered = 0
    last_sweep = 0
    try:
        while answered < n:
            now = clock() - start
            while nxt < n and due_list[nxt] <= now:
                live = [c for c in conns if c is not None]
                if not live:
                    status[nxt] = CONNECT_FAILED
                    done[nxt] = now
                    sent[nxt] = now
                    answered += 1
                    nxt += 1
                    continue
                conn = min(live, key=lambda c: len(c.pending))
                conn.pending.append(nxt)
                conn.wbuf += payloads[nxt]
                sent[nxt] = now
                nxt += 1
                try:
                    written = conn.sock.send(conn.wbuf)
                    del conn.wbuf[:written]
                except BlockingIOError:
                    pass
                except OSError:
                    index = conns.index(conn)
                    before = len(conn.pending)
                    fail_connection(index, CONNECTION_LOST)
                    answered += before
                now = clock() - start
            if now - last_sweep > 50_000_000:
                last_sweep = now
                for index, conn in enumerate(conns):
                    if conn is not None and conn.pending and (
                        now - sent[conn.pending[0]] > timeout_ns
                    ):
                        before = len(conn.pending)
                        fail_connection(index, TIMED_OUT)
                        answered += before
                if nxt >= n and answered < n and all(
                    c is None or not c.pending for c in conns
                ):
                    break  # nothing left in flight (all failed out)
            wait = 0.02 if nxt >= n else max(0.0, (due_list[nxt] - now) / 1e9)
            readers = [c.sock for c in conns if c is not None and c.pending]
            writers = [c.sock for c in conns if c is not None and c.wbuf]
            if not readers and not writers:
                if wait > 0:
                    time.sleep(min(wait, 0.02))
                continue
            readable, writable, _ = select.select(
                readers, writers, [], min(wait, 0.02)
            )
            for sock in writable:
                conn = next(c for c in conns if c is not None and c.sock is sock)
                try:
                    written = sock.send(conn.wbuf)
                    del conn.wbuf[:written]
                except BlockingIOError:
                    pass
            for sock in readable:
                index = next(
                    k for k, c in enumerate(conns) if c is not None and c.sock is sock
                )
                conn = conns[index]
                try:
                    data = sock.recv(262144)
                except BlockingIOError:
                    continue
                except OSError:
                    data = b""
                stamp = clock() - start
                # Acknowledge at once: the server may hold a pipelined
                # response back (Nagle) until this side ACKs the previous
                # one, and a delayed ACK would add ~40 ms that is neither
                # client nor server work.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
                if not data:
                    before = len(conn.pending)
                    fail_connection(index, CONNECTION_LOST)
                    answered += before
                    continue
                rbuf = conn.rbuf
                rbuf += data
                pos = 0
                while conn.pending:
                    head_end = rbuf.find(b"\r\n\r\n", pos)
                    if head_end < 0:
                        break
                    at = rbuf.find(b"Content-Length: ", pos, head_end)
                    length = int(rbuf[at + 16 : rbuf.find(b"\r\n", at, head_end + 2)])
                    body_end = head_end + 4 + length
                    if body_end > len(rbuf):
                        break
                    i = conn.pending.popleft()
                    code = int(rbuf[pos + 9 : pos + 12])
                    status[i] = code
                    done[i] = stamp
                    if check is not None:
                        correct[i] = check(i, code, bytes(rbuf[head_end + 4 : body_end]))
                    answered += 1
                    pos = body_end
                del rbuf[:pos]
        wall = clock() - start
    finally:
        _leave_realtime(policy)
        for conn in conns:
            if conn is not None:
                conn.close()
        if was_enabled:
            gc.enable()
    return TrialResult(
        due=due_ns,
        sent=np.asarray(sent, dtype=np.int64),
        done=np.asarray(done, dtype=np.int64),
        status=np.asarray(status, dtype=np.int64),
        correct=np.asarray(correct, dtype=bool),
        wall_ns=wall,
    )


@dataclass(frozen=True)
class RateProbe:
    """One step of the max-rate search."""

    rate: float
    p99_ms: float
    passed: bool


def find_max_rate(
    probe: Callable[[float], tuple[float, bool]],
    *,
    start: float,
    limit_ms: float,
    max_probes: int,
) -> tuple[float, list[RateProbe]]:
    """Highest offered rate whose p99 stays under ``limit_ms``.

    ``probe(rate)`` runs one trial and returns ``(p99_ms, healthy)``;
    ``healthy`` is false on failures or a growing backlog. The search
    climbs geometrically (by :data:`GROWTH`) from ``start`` until a probe
    fails (or descends until one passes), bisects the bracket
    :data:`REFINE` times, all within ``max_probes`` probes, then places
    the knee by interpolating p99 linearly between the last passing and
    the first failing rate. Returns the knee and every probe made.
    """
    probes: list[RateProbe] = []

    def run(rate: float) -> RateProbe:
        p99, healthy = probe(rate)
        step = RateProbe(rate, p99, healthy and p99 <= limit_ms)
        probes.append(step)
        return step

    best: RateProbe | None = None
    worst: RateProbe | None = None
    step = run(start)
    if step.passed:
        best = step
        while len(probes) < max_probes:
            step = run(best.rate * GROWTH)
            if not step.passed:
                worst = step
                break
            best = step
    else:
        worst = step
        while len(probes) < max_probes and worst.rate / GROWTH >= FLOOR_RATE:
            step = run(worst.rate / GROWTH)
            if step.passed:
                best = step
                break
            worst = step
    if best is None:
        return FLOOR_RATE, probes
    if worst is None:
        return best.rate, probes
    for _ in range(REFINE):
        if len(probes) >= max_probes:
            break
        step = run(math.sqrt(best.rate * worst.rate))
        if step.passed:
            best = step
        else:
            worst = step
    if math.isfinite(worst.p99_ms) and worst.p99_ms > limit_ms > best.p99_ms:
        share = (limit_ms - best.p99_ms) / (worst.p99_ms - best.p99_ms)
        return best.rate + share * (worst.rate - best.rate), probes
    return best.rate, probes
