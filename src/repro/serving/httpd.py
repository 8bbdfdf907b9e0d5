"""Socket-server configuration for the gateway's HTTP front end.

The server itself is :class:`repro.serving.aiohttpd.AsyncGatewayHTTPServer`;
this module holds the knobs it (and every shard worker behind the router)
is built with.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HttpdConfig"]


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
        How long :meth:`~repro.serving.aiohttpd.AsyncGatewayHTTPServer.stop`
        waits for in-flight requests before force-closing their
        connections.
    request_timeout_seconds:
        Idle keep-alive read timeout (reaps dead peers).
    executor_workers:
        Threads in the executor that runs gateway handler calls off the
        event loop (blocking work — cold-miss fits, ``/cheapest`` scans,
        spike hooks — must never stall the loop). Requests beyond this
        many queue for a thread, so a server with a spike hook armed
        (every request offloaded, some stalled) is sized to the replay
        concurrency.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_connections: int = 128
    backlog: int = 128
    drain_timeout_seconds: float = 10.0
    request_timeout_seconds: float = 30.0
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
