"""Open-loop workload replay against the socket gateway, with tail SLOs.

The replayer closes the measurement loop the ROADMAP asks for: a
diurnal-enveloped, Zipf-skewed request stream (the *same* arrival-process
generators the in-process bench uses, :mod:`repro.serving.loadgen`) is
replayed over real HTTP connections against one base URL (a single
server, or the shard router's front), and the outcome is a tail SLO
report — p50/p99/p99.9 latency, shed rate, timeout rate, hedge-win rate,
achieved vs offered throughput.

Design points (the workload-replayer idiom):

* **persistent session pool** — a stack of keep-alive HTTP/1.1
  connections, reused across requests;
* **open-loop arrival** — requests are dispatched when the *clock* says
  so, never when the previous response lands, so server overload shows up
  as queueing delay and shed, not as a politely slowed-down client;
* **warmup drop** — the first ``warmup_requests`` records are executed
  but excluded from the SLO table;
* **hedged requests** — after an adaptive delay (observed p95 × a
  multiplier, floored) an idle request is raced against a second copy
  sent to the same URL, first response wins; launches and wins are
  accounted separately.

``concurrency=0`` runs the replayer inline and single-threaded against an
injected clock — deterministic open-loop semantics for tests (the
schedule is still fixed by the arrival process; service time shows up as
queueing delay). Threaded mode measures real wall time.
"""

from __future__ import annotations

import socket
import threading
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Sequence
from urllib.parse import urlsplit

import numpy as np

from repro.service.store import CurveKey
from repro.serving.clock import Clock, SystemClock
from repro.serving.loadgen import (
    DiurnalEnvelope,
    LoadgenConfig,
    LoadGenerator,
)
from repro.serving.metrics import Histogram

__all__ = [
    "HEDGE_HEADER",
    "HttpTransport",
    "ReplayConfig",
    "Replayer",
    "format_slo_report",
    "hedge_outcome",
]

#: Marks hedge copies on the wire (lets chaos model replica-local slowness).
HEDGE_HEADER = "X-Repro-Hedge"

#: ``transport(target, path, timeout_seconds, headers) -> (status, body)``.
Transport = Callable[[str, str, float, dict], "tuple[int, bytes]"]


@dataclass(frozen=True)
class ReplayConfig:
    """Replay shape and policy knobs.

    Attributes
    ----------
    n_requests:
        Stream length (including the warmup window).
    rate:
        Offered open-loop arrival rate (requests/second).
    diurnal:
        Optional rate envelope; ``None`` keeps arrivals homogeneous.
    zipf_exponent / bid_fraction / start_now / now_drift / seed:
        Passed through to the shared load generator.
    warmup_requests:
        Leading records dropped from the SLO report (cold caches, cold
        connections).
    timeout_seconds:
        Per-request response budget (and socket timeout).
    concurrency:
        Worker threads dispatching requests; 0 = deterministic inline
        mode (tests).
    hedge:
        Whether to race a second copy of slow requests.
    hedge_delay_seconds:
        Fixed hedge delay; ``None`` derives it from the observed p95.
    hedge_delay_multiplier / hedge_min_delay_seconds / hedge_min_samples:
        Adaptive-delay policy: ``max(floor, multiplier * p95)`` once at
        least ``hedge_min_samples`` latencies have been observed.
    """

    n_requests: int = 1000
    rate: float = 500.0
    diurnal: DiurnalEnvelope | None = None
    zipf_exponent: float = 1.1
    bid_fraction: float = 0.3
    start_now: float = 0.0
    now_drift: float = 0.0
    seed: int = 0
    warmup_requests: int = 50
    timeout_seconds: float = 5.0
    concurrency: int = 32
    hedge: bool = False
    hedge_delay_seconds: float | None = None
    hedge_delay_multiplier: float = 3.0
    hedge_min_delay_seconds: float = 0.01
    hedge_min_samples: int = 50

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.warmup_requests < 0:
            raise ValueError("warmup_requests must be >= 0")
        if self.warmup_requests >= self.n_requests:
            raise ValueError("warmup_requests must leave measured requests")
        if self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")
        if self.concurrency < 0:
            raise ValueError("concurrency must be >= 0 (0 = inline)")
        if self.hedge_delay_seconds is not None and self.hedge_delay_seconds < 0:
            raise ValueError("hedge_delay_seconds must be >= 0")
        if self.hedge_delay_multiplier <= 0:
            raise ValueError("hedge_delay_multiplier must be positive")


def hedge_outcome(
    primary_latency: float, hedge_latency: float | None, delay: float
) -> tuple[float, bool, bool]:
    """First-response-wins arithmetic for one hedged request.

    The hedge copy starts ``delay`` seconds after the primary, so it
    finishes at ``delay + hedge_latency`` on the primary's clock; whichever
    finishes first defines the request latency. Returns
    ``(latency, hedged, hedge_won)``. A primary faster than the delay
    never hedges.
    """
    if primary_latency <= delay or hedge_latency is None:
        return primary_latency, False, False
    hedged_finish = delay + hedge_latency
    if hedged_finish < primary_latency:
        return hedged_finish, True, True
    return primary_latency, True, False


class _HeaderDict(dict):
    """Response headers keyed lowercase, read case-insensitively."""

    def get(self, key, default=None):
        return dict.get(self, key.lower(), default)


class _LeanResponse:
    """One parsed HTTP response: status, headers, fully buffered body."""

    __slots__ = ("status", "headers", "_body", "_read")

    def __init__(self, status: int, headers: _HeaderDict, body: bytes) -> None:
        self.status = status
        self.headers = headers
        self._body = body
        self._read = False

    def read(self) -> bytes:
        self._read = True
        return self._body

    def isclosed(self) -> bool:
        """Whether the body has been fully consumed (``http.client``'s
        keep-alive-safety signal, which the pool checks before reuse)."""
        return self._read


class HTTPConnection:
    """Minimal keep-alive HTTP/1.1 client for the replay harness.

    A drop-in for the ``http.client`` surface the transport pool uses
    (``request``/``getresponse``/``close``; responses answer ``read``,
    ``isclosed``, ``status``, ``headers.get``). The stdlib client routes
    every response through ``email.parser`` header parsing — on a small
    host that costs more CPU than the server work being measured, and a
    load generator that out-weighs its target measures itself. This
    client is a buffered socket with a ``find``-and-``split`` parser.

    It requires ``Content-Length`` on every response (the serving front
    ends always set it; they never chunk) — which is what makes the lean
    parse sufficient.
    """

    def __init__(self, host: str, port: int = 80, timeout: float | None = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._buffer = bytearray()

    def connect(self) -> None:
        """Open the TCP connection (done lazily by ``request``)."""
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def request(self, method: str, url: str, body=None, headers=None) -> None:
        """Send one bodiless request (the replay only issues GETs)."""
        if self._sock is None:
            self.connect()
        lines = [f"{method} {url} HTTP/1.1", f"Host: {self.host}:{self.port}"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        self._sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))

    def _fill(self) -> None:
        data = self._sock.recv(65536)
        if not data:
            raise ConnectionError("connection closed mid-response")
        self._buffer += data

    def getresponse(self) -> _LeanResponse:
        """Read and parse one response off the connection."""
        while True:
            index = self._buffer.find(b"\r\n\r\n")
            if index >= 0:
                break
            self._fill()
        head = bytes(self._buffer[:index])
        del self._buffer[: index + 4]
        lines = head.split(b"\r\n")
        try:
            status = int(lines[0].split(b" ", 2)[1])
        except (IndexError, ValueError):
            raise ConnectionError(
                f"malformed status line {lines[0]!r}"
            ) from None
        headers = _HeaderDict()
        for line in lines[1:]:
            name, sep, value = line.partition(b":")
            if sep:
                headers[name.strip().lower().decode("latin-1")] = (
                    value.strip().decode("latin-1")
                )
        length = headers.get("content-length")
        if length is None:
            raise ConnectionError("response without Content-Length")
        length = int(length)
        while len(self._buffer) < length:
            self._fill()
        body = bytes(self._buffer[:length])
        del self._buffer[:length]
        return _LeanResponse(status, headers, body)

    def close(self) -> None:
        """Close the connection and drop any buffered bytes."""
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
        self._buffer.clear()


class HttpTransport:
    """Persistent keep-alive connection pools, one per target base URL.

    Every connection the transport ever creates is accounted for:
    ``created == idle + in_flight + discarded`` at all times (the
    conservation invariant the hedge-path regression tests assert). A
    connection is *discarded* (closed, never re-pooled) when its response
    failed, was half-read — a losing hedge abandoned mid-body cannot be
    reused, the next request would read the stale tail — or carried
    ``Connection: close``; and when it is released after :meth:`close`
    already ran, which previously re-pooled it into the fresh dict where
    nothing would ever close it.
    """

    def __init__(self, timeout_seconds: float = 5.0) -> None:
        self._timeout = timeout_seconds
        self._lock = threading.Lock()
        self._pools: dict[str, list[HTTPConnection]] = {}
        self._closed = False
        self._created = 0
        self._reused = 0
        self._discarded = 0
        self._in_flight = 0

    def _acquire(self, target: str) -> HTTPConnection:
        with self._lock:
            self._in_flight += 1
            pool = self._pools.setdefault(target, [])
            if pool:
                self._reused += 1
                return pool.pop()
            self._created += 1
        parts = urlsplit(target)
        return HTTPConnection(
            parts.hostname, parts.port or 80, timeout=self._timeout
        )

    def _release(self, target: str, conn: HTTPConnection) -> None:
        with self._lock:
            self._in_flight -= 1
            if not self._closed:
                self._pools.setdefault(target, []).append(conn)
                return
            # close() already ran (e.g. the replay finished while a losing
            # hedge was still in flight): re-pooling would leak an open
            # connection nobody will ever close.
            self._discarded += 1
        conn.close()

    def _discard(self, target: str, conn: HTTPConnection) -> None:
        with self._lock:
            self._in_flight -= 1
            self._discarded += 1
        conn.close()

    def __call__(
        self, target: str, path: str, timeout: float, headers: dict
    ) -> tuple[int, bytes]:
        conn = self._acquire(target)
        try:
            conn.request("GET", path, headers=headers)
            response = conn.getresponse()
            body = response.read()
            closing = response.headers.get("Connection", "").lower() == "close"
        except BaseException:
            self._discard(target, conn)  # half-read: cannot be reused
            raise
        if closing or not response.isclosed():
            # Server asked to close, or the body was not fully consumed
            # (a reused connection would see the stale remainder).
            self._discard(target, conn)
        else:
            self._release(target, conn)
        return response.status, body

    def close(self) -> None:
        """Close every pooled connection; later releases discard."""
        with self._lock:
            pools, self._pools = self._pools, {}
            self._closed = True
            closed = sum(len(pool) for pool in pools.values())
            self._discarded += closed
        for pool in pools.values():
            for conn in pool:
                conn.close()

    def stats(self) -> dict:
        """Pool accounting (the conservation invariant, JSON-ready)."""
        with self._lock:
            idle = sum(len(pool) for pool in self._pools.values())
            return {
                "created": self._created,
                "reused": self._reused,
                "discarded": self._discarded,
                "in_flight": self._in_flight,
                "idle": idle,
                "closed": self._closed,
            }


class _HedgeDelayPolicy:
    """p95-based hedge delay: ``max(floor, multiplier * observed_p95)``."""

    def __init__(self, cfg: ReplayConfig) -> None:
        self._cfg = cfg
        # Log-spaced bounds from 100 us to 30 s cover any plausible delay.
        bounds = tuple(float(b) for b in np.geomspace(1e-4, 30.0, 48))
        self._hist = Histogram("replay.latency", bounds=bounds)

    def observe(self, latency: float) -> None:
        self._hist.observe(latency)

    def current(self) -> float | None:
        """The delay to hedge after right now; ``None`` disables hedging."""
        if not self._cfg.hedge:
            return None
        if self._cfg.hedge_delay_seconds is not None:
            return self._cfg.hedge_delay_seconds
        if self._hist.count < self._cfg.hedge_min_samples:
            return None
        return max(
            self._cfg.hedge_min_delay_seconds,
            self._cfg.hedge_delay_multiplier * self._hist.quantile(0.95),
        )


@dataclass
class _Record:
    """One replayed request's life: schedule, dispatch, outcome."""

    index: int
    scheduled: float
    submitted: float = 0.0
    started: float = 0.0
    finished: float = 0.0
    latency: float = 0.0
    status: int | None = None
    timeout: bool = False
    error: bool = False
    hedged: bool = False
    hedge_won: bool = False


class Replayer:
    """Replay a seeded open-loop stream against one HTTP base URL.

    ``transport`` defaults to :class:`HttpTransport`; tests inject a fake
    callable (same signature) plus a manual clock for determinism.
    """

    def __init__(
        self,
        target: str,
        keys: Sequence[CurveKey],
        config: ReplayConfig | None = None,
        *,
        transport: Transport | None = None,
        clock: Clock | None = None,
    ) -> None:
        self._target = target.rstrip("/")
        self._keys = list(keys)
        self._cfg = config or ReplayConfig()
        self._clock = clock or SystemClock()
        self._own_transport = transport is None
        self._transport: Transport = transport or HttpTransport(
            self._cfg.timeout_seconds
        )
        self._delay_policy = _HedgeDelayPolicy(self._cfg)
        self._hedges_launched = 0
        self._hedge_wins = 0
        self._stats_lock = threading.Lock()

    @property
    def config(self) -> ReplayConfig:
        """The replay configuration."""
        return self._cfg

    def _stream(self) -> list:
        cfg = self._cfg
        return list(
            LoadGenerator(
                self._keys,
                LoadgenConfig(
                    n_requests=cfg.n_requests,
                    seed=cfg.seed,
                    zipf_exponent=cfg.zipf_exponent,
                    mode="open",
                    arrival_rate=cfg.rate,
                    diurnal=cfg.diurnal,
                    bid_fraction=cfg.bid_fraction,
                    start_now=cfg.start_now,
                    now_drift=cfg.now_drift,
                ),
            ).requests()
        )

    # -- request execution ----------------------------------------------------

    def _call(self, path: str, headers: dict) -> tuple[int, bytes]:
        return self._transport(
            self._target, path, self._cfg.timeout_seconds, headers
        )

    def _account_hedge(self, won: bool) -> None:
        with self._stats_lock:
            self._hedges_launched += 1
            if won:
                self._hedge_wins += 1

    def _finish(self, record: _Record, t0: float) -> None:
        record.finished = self._clock.now() - t0
        record.latency = record.finished - record.started
        self._delay_policy.observe(record.latency)

    def _run_one_inline(self, request, record, t0) -> None:
        """Deterministic single-threaded execution against the clock.

        The transport call advances the injected clock by its service
        time; hedging is resolved with :func:`hedge_outcome` arithmetic on
        the two measured service times (clock advance then over-counts the
        abandoned copy's tail — acceptable in the deterministic mode,
        whose purpose is scheduling/accounting semantics, not wall time).
        """
        record.started = self._clock.now() - t0
        delay = self._delay_policy.current()
        begun = self._clock.now()
        try:
            status, _body = self._call(request.url, {})
            primary_latency = self._clock.now() - begun
        except TimeoutError:
            record.timeout = True
            self._finish(record, t0)
            return
        except OSError:
            record.error = True
            self._finish(record, t0)
            return
        if delay is not None and primary_latency > delay:
            try:
                hedge_status, _ = self._call(request.url, {HEDGE_HEADER: "1"})
                hedge_latency = (
                    self._clock.now() - begun
                ) - primary_latency
            except (TimeoutError, OSError):
                hedge_status, hedge_latency = None, None
            latency, hedged, hedge_won = hedge_outcome(
                primary_latency, hedge_latency, delay
            )
            if hedged:
                self._account_hedge(hedge_won)
            record.hedged = hedged
            record.hedge_won = hedge_won
            if hedge_won:
                status = hedge_status
            record.status = status
            record.finished = record.started + latency
            record.latency = latency
            self._delay_policy.observe(latency)
            return
        record.status = status
        record.finished = record.started + primary_latency
        record.latency = primary_latency
        self._delay_policy.observe(primary_latency)

    def _run_one_threaded(self, request, record, t0, io) -> None:
        cfg = self._cfg
        record.started = self._clock.now() - t0
        delay = self._delay_policy.current()
        if delay is None:
            # No hedge armed: call the transport on this worker thread
            # directly. Routing through the io executor would add two
            # thread hops per request — and double the client's thread
            # count — for a future nobody races against. The transport's
            # socket timeout enforces the request budget.
            try:
                status, _body = self._call(request.url, {})
            except TimeoutError:
                record.timeout = True
            except OSError:
                record.error = True
            else:
                record.status = status
            self._finish(record, t0)
            return
        primary = io.submit(self._call, request.url, {})
        futures = [primary]
        done, _ = wait([primary], timeout=delay)
        if not done:
            futures.append(io.submit(self._call, request.url, {HEDGE_HEADER: "1"}))
            record.hedged = True
        deadline = record.started + cfg.timeout_seconds
        pending = set(futures)
        while pending:
            remaining = deadline - (self._clock.now() - t0)
            if remaining <= 0:
                break
            done, _ = wait(
                list(pending), timeout=remaining, return_when=FIRST_COMPLETED
            )
            if not done:
                break
            for future in done:
                pending.discard(future)
                try:
                    status, _body = future.result()
                except (TimeoutError, OSError):
                    continue  # this copy failed; maybe the other answers
                record.status = status
                record.hedge_won = record.hedged and future is not primary
                break
            if record.status is not None:
                break
        if record.status is None:
            # No copy answered in budget: a timeout unless the transport
            # failed outright (both copies raised a non-timeout error).
            errors = [
                f for f in futures if f.done() and f.exception() is not None
            ]
            timeouts = [
                f
                for f in errors
                if isinstance(f.exception(), TimeoutError)
            ]
            if errors and len(errors) == len(futures) and not timeouts:
                record.error = True
            else:
                record.timeout = True
        if record.hedged:
            self._account_hedge(record.hedge_won)
        self._finish(record, t0)

    # -- the replay loop ------------------------------------------------------

    def run(self) -> dict:
        """Execute the stream and return the SLO report."""
        cfg = self._cfg
        stream = self._stream()
        records = [
            _Record(index=i, scheduled=request.arrival)
            for i, request in enumerate(stream)
        ]
        t0 = self._clock.now()
        if cfg.concurrency == 0:
            try:
                for i, request in enumerate(stream):
                    delay = (t0 + request.arrival) - self._clock.now()
                    if delay > 0:
                        self._clock.sleep(delay)
                    records[i].submitted = self._clock.now() - t0
                    self._run_one_inline(request, records[i], t0)
            finally:
                # Inline mode owns its transport too: without this close
                # the idle keep-alive pool outlives the replay.
                if self._own_transport:
                    self._transport.close()
        else:
            workers = ThreadPoolExecutor(
                max_workers=cfg.concurrency, thread_name_prefix="replay"
            )
            io = ThreadPoolExecutor(
                max_workers=2 * cfg.concurrency, thread_name_prefix="replay-io"
            )
            # Force the worker pool to full size before the clock starts.
            # The executor otherwise spawns one thread per submit through
            # the ramp-up, and on a small host that creation storm (GIL +
            # scheduler churn) pollutes the first measured latencies of
            # whatever server happens to be under test.
            gate = threading.Barrier(cfg.concurrency + 1)
            prespawned = [
                workers.submit(gate.wait) for _ in range(cfg.concurrency)
            ]
            gate.wait()
            for future in prespawned:
                future.result()
            t0 = self._clock.now()
            futures = []
            try:
                for i, request in enumerate(stream):
                    delay = (t0 + request.arrival) - self._clock.now()
                    if delay > 0:
                        self._clock.sleep(delay)
                    records[i].submitted = self._clock.now() - t0
                    futures.append(
                        workers.submit(
                            self._run_one_threaded,
                            request,
                            records[i],
                            t0,
                            io,
                        )
                    )
                for future in futures:
                    future.result()
            finally:
                workers.shutdown(wait=True)
                io.shutdown(wait=True)
                if self._own_transport:
                    self._transport.close()
        return self._report(records)

    # -- reporting ------------------------------------------------------------

    def _report(self, records: list[_Record]) -> dict:
        cfg = self._cfg
        measured = records[cfg.warmup_requests :]
        responded = [r for r in measured if r.status is not None]
        latencies = np.asarray([r.latency for r in responded])
        statuses: dict[str, int] = {}
        for r in responded:
            statuses[str(r.status)] = statuses.get(str(r.status), 0) + 1
        n = len(measured)
        offered_window = (
            measured[-1].scheduled - measured[0].scheduled if n > 1 else 0.0
        )
        achieved_window = (
            max(r.finished for r in responded)
            - min(r.started for r in responded)
            if responded
            else 0.0
        )
        shed = statuses.get("429", 0)
        timeouts = sum(r.timeout for r in measured)
        errors = sum(r.error for r in measured)
        hedged = [r for r in measured if r.hedged]
        queue_delays = np.asarray(
            [r.submitted - r.scheduled for r in measured]
        )
        if latencies.size:
            latency = {
                "p50": float(np.percentile(latencies, 50)),
                "p95": float(np.percentile(latencies, 95)),
                "p99": float(np.percentile(latencies, 99)),
                "p999": float(np.percentile(latencies, 99.9)),
                "mean": float(latencies.mean()),
                "max": float(latencies.max()),
            }
        else:
            latency = {
                k: float("nan")
                for k in ("p50", "p95", "p99", "p999", "mean", "max")
            }
        return {
            "n_requests": cfg.n_requests,
            "warmup_dropped": cfg.warmup_requests,
            "measured": n,
            "responded": len(responded),
            "latency": latency,
            "statuses": dict(sorted(statuses.items())),
            "shed_rate": shed / n if n else 0.0,
            "timeout_rate": timeouts / n if n else 0.0,
            "error_rate": errors / n if n else 0.0,
            "hedge": {
                "enabled": cfg.hedge,
                "launched": self._hedges_launched,
                "wins": self._hedge_wins,
                "win_rate": (
                    self._hedge_wins / self._hedges_launched
                    if self._hedges_launched
                    else 0.0
                ),
                "hedged_measured": len(hedged),
                "delay_seconds": self._delay_policy.current(),
            },
            "offered_rps": (n - 1) / offered_window if offered_window else 0.0,
            "achieved_rps": (
                len(responded) / achieved_window if achieved_window else 0.0
            ),
            "queue_delay": {
                "p50": float(np.percentile(queue_delays, 50)) if n else 0.0,
                "max": float(queue_delays.max()) if n else 0.0,
            },
            "transport": (
                self._transport.stats()
                if isinstance(self._transport, HttpTransport)
                else None
            ),
        }


def format_slo_report(report: dict) -> str:
    """Human-readable SLO table for the CLI."""
    from repro.util.tables import format_table

    latency = report["latency"]
    hedge = report["hedge"]
    rows = [
        ["p50 latency (ms)", f"{latency['p50'] * 1e3:.2f}"],
        ["p99 latency (ms)", f"{latency['p99'] * 1e3:.2f}"],
        ["p99.9 latency (ms)", f"{latency['p999'] * 1e3:.2f}"],
        ["max latency (ms)", f"{latency['max'] * 1e3:.2f}"],
        ["offered throughput (req/s)", f"{report['offered_rps']:.0f}"],
        ["achieved throughput (req/s)", f"{report['achieved_rps']:.0f}"],
        ["shed rate", f"{report['shed_rate']:.2%}"],
        ["timeout rate", f"{report['timeout_rate']:.2%}"],
        ["error rate", f"{report['error_rate']:.2%}"],
        [
            "hedges launched / won",
            f"{hedge['launched']} / {hedge['wins']}"
            + (
                f" ({hedge['win_rate']:.0%} win rate)"
                if hedge["launched"]
                else ""
            ),
        ],
    ]
    title = (
        f"Tail SLO over {report['measured']} measured requests "
        f"({report['warmup_dropped']} warmup dropped, "
        f"{report['responded']} responded)"
    )
    return format_table(["SLO", "Value"], rows, title=title)
