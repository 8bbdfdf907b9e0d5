"""Self-tests of the benchmark's own machinery (not of the program).

    python3 perfbench/selftest.py

* The load client against a deliberately slow fake server: when arrivals
  outpace the server, the queue must show up in the due-time latency,
  not as client lateness.
* The max-rate search must find the knee of a synthetic latency curve,
  from below and from above.
* The tracer's self time and request ids.
"""

from __future__ import annotations

import os
import select
import socket
import sys
import threading
import time
import unittest

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import loadclient as lc  # noqa: E402
import tracing  # noqa: E402


class SlowServer:
    """One thread answering every request, in arrival order, after
    ``service_s`` seconds of "work" each: a single-server FIFO queue."""

    def __init__(self, service_s: float) -> None:
        self.service_s = service_s
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()
        self.stopping = False
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        conns: dict[socket.socket, bytearray] = {}
        queue: list[socket.socket] = []
        body = b'{"ok": true}\n'
        response = (
            b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body)
        ) + body
        while not self.stopping:
            readable, _, _ = select.select(
                [self.listener, *conns], [], [], 0 if queue else 0.05
            )
            for sock in readable:
                if sock is self.listener:
                    conn, _ = sock.accept()
                    conns[conn] = bytearray()
                    continue
                data = sock.recv(65536)
                if not data:
                    del conns[sock]
                    sock.close()
                    continue
                buf = conns[sock]
                buf += data
                while (end := buf.find(b"\r\n\r\n")) >= 0:
                    del buf[: end + 4]
                    queue.append(sock)
            if queue:
                sock = queue.pop(0)
                time.sleep(self.service_s)
                if sock in conns:
                    sock.sendall(response)
        for conn in conns:
            conn.close()
        self.listener.close()

    def close(self) -> None:
        self.stopping = True
        self.thread.join(timeout=5)


class DueTimeLatencyTest(unittest.TestCase):
    def run_at(self, server: SlowServer, rate: float, seconds: float):
        rng = np.random.default_rng(7)
        count = int(rate * seconds)
        payloads = [lc.request_bytes("/x", "127.0.0.1")] * count
        return lc.run_open_loop(
            server.address, payloads, lc.poisson_dues(rate, count, rng), connections=2
        )

    def test_queueing_shows_in_due_time_latency(self) -> None:
        service = 0.004  # 250 requests/s of capacity
        server = SlowServer(service)
        try:
            light = self.run_at(server, 50.0, 1.0)
            heavy = self.run_at(server, 500.0, 0.6)  # twice the capacity
        finally:
            server.close()
        self.assertEqual(light.failed, 0)
        self.assertEqual(heavy.failed, 0)
        light_p50 = lc.quantile(light.latency_ms(), 0.5)
        self.assertGreater(light_p50, service * 1e3 * 0.9)
        self.assertLess(light_p50, service * 1e3 * 3)
        # Arrivals at 2x capacity for 0.6 s leave ~0.3 s of backlog; the
        # last requests wait for all of it.
        latency = heavy.latency_ms()
        self.assertGreater(lc.quantile(latency, 0.99), 200.0)
        self.assertGreater(lc.quantile(latency[-20:], 0.5), 200.0)
        # ...and the client itself stayed on schedule: the wait is the
        # server's queue, not the client's.
        self.assertLess(lc.quantile(heavy.lateness_ms(), 0.99), 20.0)

    def test_failed_requests_count_as_infinitely_late(self) -> None:
        result = lc.TrialResult(
            due=np.array([0, 0]),
            sent=np.array([0, 0]),
            done=np.array([1_000_000, 0]),
            status=np.array([200, lc.TIMED_OUT]),
            correct=np.array([True, True]),
            wall_ns=1,
        )
        self.assertEqual(result.failed, 1)
        self.assertEqual(lc.quantile(result.latency_ms(), 0.99), float("inf"))
        self.assertEqual(lc.quantile(result.latency_ms(), 0.0), 1.0)


class KneeSearchTest(unittest.TestCase):
    CAPACITY = 8000.0
    BASE_MS = 0.5
    LIMIT_MS = 10.0

    def curve(self, rate: float) -> tuple[float, bool]:
        """M/M/1-shaped p99: base / (1 - utilisation); overload never heals."""
        if rate >= self.CAPACITY:
            return float("inf"), False
        return self.BASE_MS / (1.0 - rate / self.CAPACITY), True

    def knee(self) -> float:
        return self.CAPACITY * (1.0 - self.BASE_MS / self.LIMIT_MS)

    def test_finds_the_knee_from_below(self) -> None:
        found, probes = lc.find_max_rate(
            self.curve, start=1000.0, limit_ms=self.LIMIT_MS, max_probes=16
        )
        self.assertLess(abs(found - self.knee()) / self.knee(), 0.02)
        self.assertTrue(all(p.passed == (p.rate <= self.knee()) for p in probes))

    def test_finds_the_knee_from_above(self) -> None:
        found, _ = lc.find_max_rate(
            self.curve, start=20000.0, limit_ms=self.LIMIT_MS, max_probes=16
        )
        self.assertLess(abs(found - self.knee()) / self.knee(), 0.02)

    def test_unhealthy_probe_fails_even_under_the_limit(self) -> None:
        def backlog(rate: float) -> tuple[float, bool]:
            return 1.0, rate < 3000.0

        found, _ = lc.find_max_rate(backlog, start=1000.0, limit_ms=self.LIMIT_MS, max_probes=12)
        self.assertLess(found, 3000.0)
        self.assertGreater(found, 3000.0 / lc.GROWTH)


class TracerTest(unittest.TestCase):
    def test_self_time_and_request_ids(self) -> None:
        tracer = tracing.Tracer()

        def inner():
            time.sleep(0.02)

        def outer():
            time.sleep(0.01)
            traced_inner()

        traced_inner = tracer.wrap("inner", inner)
        traced_outer = tracer.wrap("outer", outer)
        opener = tracer.wrap(tracing.OPENS_REQUEST, lambda: None)
        follower = tracer.wrap("follower", lambda: None)
        traced_outer()
        opener()
        follower()
        summary = tracer.summary()["spans"]
        outer_self = summary["outer"]["self_ns"][0] / 1e6
        self.assertGreater(outer_self, 9.0)
        self.assertLess(outer_self, 19.0)
        self.assertGreater(summary["inner"]["self_ns"][0] / 1e6, 19.0)
        spans = tracer.spans()[0]
        self.assertEqual(spans[1][3], 0)  # inner's parent is outer
        self.assertEqual(spans[1][4], spans[0][4])  # same request
        self.assertEqual(spans[3][4], spans[2][4])  # follower joins the opened request
        self.assertNotEqual(spans[2][4], spans[0][4])


if __name__ == "__main__":
    unittest.main()
