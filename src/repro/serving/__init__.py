"""Production serving layer over the DrAFTS service (§3.3 at scale).

The paper's prototype is an asynchronous read-optimised service: a cron
recomputes every bid–duration curve every 15 minutes and client GETs are
pure cache reads. This package keeps the cache reads and the 15-minute
period, but a curve is recomputed when a read finds it stale (served
stale meanwhile), not on a timer. The curves live in one cache, the
service's sharded, versioned store (``DraftsService.store``, defined in
:mod:`repro.service.store` and re-exported here); this package reads it
and schedules its recomputes:

* :mod:`repro.serving.refresher` — background recompute scheduler fed by
  stale reads, with single-flight request coalescing;
* :mod:`repro.serving.gateway` — the front door: admission control, load
  shedding, deadline budgets, circuit breaking to the §4.4 On-demand
  fallback, and a ``/metrics`` route;
* :mod:`repro.serving.metrics` — dependency-free counters/gauges/histograms;
* :mod:`repro.serving.loadgen` — deterministic Zipf-skewed load generation;
* :mod:`repro.serving.clock` — injectable wall clock (deterministic tests);
* :mod:`repro.serving.bench` — the latency/coalescing/shedding benchmark
  harness behind ``python -m repro serve-bench``;
* :mod:`repro.serving.chaos` — seeded fault injection (faulty API, torn
  snapshots, request-level latency spikes) and the invariant-checking
  harness behind ``python -m repro chaos``;
* :mod:`repro.serving.aiohttpd` — the gateway behind a real listening
  socket on a single-threaded asyncio event loop (``python -m repro
  serve``): keep-alive, graceful drain, backlog overflow surfaced as
  shed, executor offload for blocking handlers; its knobs are
  :class:`~repro.serving.httpd.HttpdConfig`;
* :mod:`repro.serving.router` — the consistent-hash shard router in
  front of N such servers (``python -m repro serve --shards N``);
* :mod:`repro.serving.replay` — the open-loop socket replayer
  (``python -m repro replay``): persistent connection pools, diurnal x
  Zipf arrivals, hedged requests, tail SLO reporting.
"""

from repro.service.store import (
    CurveEntry,
    CurveKey,
    EntryState,
    ShardedCurveStore,
)
from repro.serving.aiohttpd import AsyncGatewayHTTPServer
from repro.serving.chaos import (
    ChaosConfig,
    FaultConfig,
    FaultyApi,
    FaultyCompute,
    ReplaySpiker,
    run_chaos,
)
from repro.serving.clock import Clock, ManualClock, SystemClock
from repro.serving.gateway import GatewayConfig, ServingGateway
from repro.serving.httpd import HttpdConfig
from repro.serving.loadgen import (
    DiurnalEnvelope,
    LoadGenerator,
    LoadgenConfig,
    Request,
)
from repro.serving.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serving.refresher import BackgroundRefresher, SingleFlight
from repro.serving.replay import ReplayConfig, Replayer, format_slo_report

__all__ = [
    "AsyncGatewayHTTPServer",
    "BackgroundRefresher",
    "ChaosConfig",
    "Clock",
    "Counter",
    "CurveEntry",
    "CurveKey",
    "DiurnalEnvelope",
    "EntryState",
    "FaultConfig",
    "FaultyApi",
    "FaultyCompute",
    "Gauge",
    "GatewayConfig",
    "Histogram",
    "HttpdConfig",
    "LoadGenerator",
    "LoadgenConfig",
    "ManualClock",
    "MetricsRegistry",
    "ReplayConfig",
    "Replayer",
    "ReplaySpiker",
    "Request",
    "ServingGateway",
    "ShardedCurveStore",
    "SingleFlight",
    "SystemClock",
    "format_slo_report",
    "run_chaos",
]
