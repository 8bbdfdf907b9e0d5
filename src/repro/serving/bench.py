"""The serving benchmark harness (shared by the CLI and the bench suite).

Four phases, matching the subsystem's acceptance criteria:

``latency``
    Steady-state reads with the simulation clock drifting across the
    15-minute staleness horizon. The lazy baseline (``RestRouter`` over a
    service whose every recompute is the refit oracle: a from-scratch
    :class:`~repro.core.drafts.DraftsPredictor` fit) recomputes *inline*
    on the first stale read of each key, so its tail latency is a full
    QBETS refit; the gateway serves the stale curve immediately and
    refreshes in the background, so its tail stays a cache read. Measured
    at several closed-loop thread counts. The baseline refits from scratch
    so the phase isolates the off-path-refresh effect (the ``refresh``
    phase measures the incremental effect separately).

``coalescing``
    K threads cold-miss one key simultaneously (behind a barrier, against
    an artificially slowed history API): the single-flight group must run
    exactly one recompute.

``shedding``
    More concurrency than ``max_inflight`` against cold keys: excess
    requests come back 429 with a ``retry_after`` hint, and the metrics
    account for every request
    (``hits + stale_hits + misses + shed + errors == requests``).

``refresh``
    Cold fit vs steady-state refresh cost: the service (delta-fed ticker
    slots, the §3.3 production behaviour) against the refit oracle, A/B
    over the same keys and instants. Also asserts the service publishes
    the oracle's curves at every refresh boundary — the equivalence
    invariant the incremental path is allowed to exist under.

``restart``
    Crash-recovery cost: fitting every key from scratch vs restoring the
    same keys from an on-disk snapshot (``save_state``/``load_state``).
    The restored service must serve the snapshotted curves without a
    single refit, publish bit-identical curves to the uninterrupted
    service — including after one further incremental refresh step — and
    come up at least 5x faster than the cold fit.
"""

from __future__ import annotations

import gc
import tempfile
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.cloud.api import EC2Api
from repro.core.drafts import DraftsPredictor
from repro.experiments.common import scaled_universe
from repro.service.drafts_service import DraftsService, ServiceConfig
from repro.service.rest import RestRouter
from repro.serving.gateway import GatewayConfig, ServingGateway, warm_gateway
from repro.serving.loadgen import (
    LoadgenConfig,
    LoadGenerator,
    predictable_keys,
)
from repro.util.tables import format_table

__all__ = [
    "ScalingBenchConfig",
    "ServingBenchConfig",
    "SloBenchConfig",
    "format_serving_report",
    "run_refresh_benchmark",
    "run_scaling_benchmark",
    "run_serving_benchmark",
    "run_slo_benchmark",
]


@dataclass(frozen=True)
class ServingBenchConfig:
    """Benchmark shape.

    Attributes
    ----------
    scale:
        Universe preset (``test`` keeps the whole run under a minute).
    n_keys:
        Combinations served (popularity rank order for the Zipf skew).
    n_requests:
        Requests per latency run.
    thread_counts:
        Closed-loop worker counts for the latency/throughput phase.
    now_drift:
        Simulation seconds per request; sized so keys cross the staleness
        horizon several times per run.
    coalesce_threads:
        K for the coalescing phase (acceptance demands K >= 8).
    seed:
        Load-generator seed.
    refresh_steps:
        Steady-state refresh rounds per key in the refresh phase.
    """

    scale: str = "test"
    n_keys: int = 4
    n_requests: int = 400
    thread_counts: tuple[int, ...] = (1, 4, 16)
    now_drift: float = 12.0
    coalesce_threads: int = 8
    seed: int = 7
    refresh_steps: int = 12


class _SlowApi:
    """An :class:`EC2Api` view whose history reads take real wall time —
    stands in for paper-scale histories so concurrency effects
    (coalescing, shedding) are visible at test scale."""

    def __init__(self, api: EC2Api, delay_seconds: float) -> None:
        self._api = api
        self._delay = delay_seconds

    def __getattr__(self, name: str):
        return getattr(self._api, name)

    def describe_spot_price_history(self, instance_type, zone, now, since=None):
        time.sleep(self._delay)
        return self._api.describe_spot_price_history(
            instance_type, zone, now, since
        )


def _run_closed_loop(get, requests, n_threads: int):
    """Drive ``get`` with ``n_threads`` closed-loop workers.

    Returns (per-request latencies in seconds, wall seconds, responses).
    """
    chunks = [requests[i::n_threads] for i in range(n_threads)]
    latencies: list[list[float]] = [[] for _ in range(n_threads)]
    responses: list[list] = [[] for _ in range(n_threads)]
    barrier = threading.Barrier(n_threads + 1)

    def worker(index: int) -> None:
        barrier.wait()
        for request in chunks[index]:
            started = time.perf_counter()
            response = get(request.url)
            latencies[index].append(time.perf_counter() - started)
            responses[index].append(response)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start
    flat = [latency for chunk in latencies for latency in chunk]
    flat_responses = [r for chunk in responses for r in chunk]
    return flat, wall, flat_responses


def _percentiles(latencies) -> dict:
    array = np.asarray(latencies)
    return {
        "p50": float(np.percentile(array, 50)),
        "p99": float(np.percentile(array, 99)),
        "mean": float(array.mean()),
    }


def _accounting(snapshot: dict) -> dict:
    counters = snapshot["counters"]
    served = {
        "hits": counters.get("gateway.hits", 0),
        "stale_hits": counters.get("gateway.stale_hits", 0),
        "misses": counters.get("gateway.misses", 0),
        "shed": counters.get("gateway.shed", 0),
        "errors": counters.get("gateway.errors", 0),
    }
    total = counters.get("gateway.requests", 0)
    return {
        **served,
        "requests": total,
        "balanced": sum(served.values()) == total,
    }


def _latency_phase(cfg: ServingBenchConfig, universe, keys, start_now) -> dict:
    probability = keys[0][2]
    load_cfg = LoadgenConfig(
        n_requests=cfg.n_requests,
        seed=cfg.seed,
        start_now=start_now,
        now_drift=cfg.now_drift,
    )
    requests = list(LoadGenerator(keys, load_cfg).requests())
    results: dict[int, dict] = {}
    for n_threads in cfg.thread_counts:
        # Fresh stacks per thread count so caches start identically.
        baseline = RestRouter(_RefitOracle(EC2Api(universe)))
        gateway = ServingGateway(
            DraftsService(EC2Api(universe)),
            GatewayConfig(max_inflight=max(64, 4 * n_threads)),
        )
        for key in keys:  # warm both curve caches at the stream start
            baseline.get(
                f"/predictions/{key[0]}/{key[1]}"
                f"?probability={probability}&now={start_now}"
            )
            gateway.get(
                f"/predictions/{key[0]}/{key[1]}"
                f"?probability={probability}&now={start_now}"
            )
        base_lat, base_wall, _ = _run_closed_loop(
            baseline.get, requests, n_threads
        )
        with gateway:
            gw_lat, gw_wall, _ = _run_closed_loop(
                gateway.get, requests, n_threads
            )
            # Let in-flight background refreshes settle before stopping.
            deadline = time.monotonic() + 30.0
            while (
                gateway.refresher.pending_count()
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
        results[n_threads] = {
            "baseline": _percentiles(base_lat),
            "gateway": _percentiles(gw_lat),
            "baseline_rps": len(requests) / base_wall,
            "gateway_rps": len(requests) / gw_wall,
            "speedup_p99": _percentiles(base_lat)["p99"]
            / max(_percentiles(gw_lat)["p99"], 1e-9),
            "accounting": _accounting(gateway.metrics.snapshot()),
        }
    return results


def _coalescing_phase(cfg: ServingBenchConfig, universe, keys, start_now) -> dict:
    key = keys[0]
    api = _SlowApi(EC2Api(universe), delay_seconds=0.25)
    gateway = ServingGateway(DraftsService(api, ServiceConfig()))
    url = (
        f"/predictions/{key[0]}/{key[1]}"
        f"?probability={key[2]}&now={start_now}"
    )
    k = cfg.coalesce_threads
    barrier = threading.Barrier(k)
    statuses: list[int] = []
    lock = threading.Lock()

    def worker() -> None:
        barrier.wait()
        response = gateway.get(url)
        with lock:
            statuses.append(response.status)

    threads = [threading.Thread(target=worker) for _ in range(k)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    counters = gateway.metrics.snapshot()["counters"]
    return {
        "k": k,
        "statuses": statuses,
        "recomputes": counters.get("serving.recomputes", 0),
        "coalesced": counters.get("serving.coalesced", 0),
        "misses": counters.get("gateway.misses", 0),
    }


def _shedding_phase(cfg: ServingBenchConfig, universe, keys, start_now) -> dict:
    api = _SlowApi(EC2Api(universe), delay_seconds=0.1)
    gateway = ServingGateway(
        DraftsService(api, ServiceConfig()),
        GatewayConfig(max_inflight=2, retry_after_seconds=0.5),
    )
    load_cfg = LoadgenConfig(
        n_requests=64, seed=cfg.seed + 1, start_now=start_now
    )
    requests = list(LoadGenerator(keys, load_cfg).requests())
    _, _, responses = _run_closed_loop(gateway.get, requests, 16)
    shed = [r for r in responses if r.status == 429]
    return {
        "n_requests": len(requests),
        "shed": len(shed),
        "shed_have_retry_after": all(
            "retry_after" in r.body for r in shed
        ),
        "accounting": _accounting(gateway.metrics.snapshot()),
    }


def _curves_match(a, b) -> bool:
    """Bit-equality of two published curves, with nan == nan allowed."""
    if a is None or b is None:
        return a is b
    if a.bids != b.bids or len(a.durations) != len(b.durations):
        return False
    return all(
        x == y or (np.isnan(x) and np.isnan(y))
        for x, y in zip(a.durations, b.durations)
    )


class _RefitOracle(DraftsService):
    """The refit oracle: every recompute is a from-scratch
    :class:`DraftsPredictor` fit of the key's windowed history, at the
    ``max_price`` the service pins for the key (set at its first fit,
    raised only by an out-of-domain price). It is the latency phase's lazy
    baseline and the refresh phase's full-refit arm."""

    def __init__(self, api) -> None:
        super().__init__(api)
        self._pins: dict = {}

    def _compute_curve(self, instance_type, zone, probability, now):
        history = self.api.describe_spot_price_history(instance_type, zone, now)
        key = (instance_type, zone, probability)
        peak = float(history.prices.max())
        pin = self._pins.get(key)
        if pin is None or peak >= pin:
            pin = self._pins[key] = max(100.0, peak * 8.0)
        return DraftsPredictor(
            history, self._drafts_config(probability, pin)
        ).curve_at(len(history), instance_type=instance_type, zone=zone)


def _refresh_phase(cfg: ServingBenchConfig, universe, keys, start_now) -> dict:
    """Per-key refresh cost: cold fit vs steady state, incremental vs refit.

    The service and the refit oracle walk the same keys through the same
    refresh instants (each step lands past the staleness horizon, so
    every ``curve()`` call does a real refresh), timing each call. The
    published curves are compared at every boundary — bit-identical or
    the phase reports ``equivalent: False`` and the bench suite fails.
    """
    probability = keys[0][2]
    interval = ServiceConfig().refresh_seconds + 60.0
    service = DraftsService(
        EC2Api(universe), ServiceConfig(probabilities=(probability,))
    )
    arms = {
        "refit": _RefitOracle(EC2Api(universe)).curve,
        "incremental": service.curve,
    }
    out: dict = {}
    published: dict[str, list] = {}
    for mode, compute in arms.items():
        cold: list[float] = []
        steady: list[float] = []
        curves: list = []
        for step in range(cfg.refresh_steps + 1):
            now = start_now + step * interval
            for key in keys:
                started = time.perf_counter()
                curve = compute(key[0], key[1], probability, now)
                elapsed = time.perf_counter() - started
                (cold if step == 0 else steady).append(elapsed)
                curves.append(curve)
        published[mode] = curves
        out[mode] = {"cold": _percentiles(cold), "steady": _percentiles(steady)}
    info = service.cache_info()
    out["refit"].update(refits=cfg.refresh_steps * len(keys), incremental_refreshes=0)
    out["incremental"].update(
        refits=info["refits"],
        incremental_refreshes=info["incremental_refreshes"],
    )
    out["equivalent"] = all(
        _curves_match(a, b)
        for a, b in zip(published["refit"], published["incremental"])
    )
    for stat in ("p50", "p99"):
        out[f"speedup_steady_{stat}"] = out["refit"]["steady"][stat] / max(
            out["incremental"]["steady"][stat], 1e-9
        )
    return out


def _restart_phase(cfg: ServingBenchConfig, universe, keys, start_now) -> dict:
    """Warm restart from a snapshot vs refitting every key from scratch.

    A fresh service fits all keys cold (timed), snapshots to disk, and a
    second fresh service restores from that snapshot and re-serves the
    same keys (timed). The restored service must answer from restored
    state alone — zero refits — and stay bit-identical to the survivor
    both at the snapshot instant and after one further incremental
    refresh step past the staleness horizon.
    """
    probability = keys[0][2]
    service_cfg = ServiceConfig(probabilities=(probability,))

    cold = DraftsService(EC2Api(universe), service_cfg)
    started = time.perf_counter()
    # Boot-time cold start goes through the universe-wide batch fit; the
    # curve() loop then serves straight from the published cache.
    warmed = cold.warm_start([(key[0], key[1]) for key in keys], start_now)
    cold_curves = [
        cold.curve(key[0], key[1], probability, start_now) for key in keys
    ]
    cold_fit_s = time.perf_counter() - started
    cold_info = cold.cache_info()
    assert warmed["fitted"] == len(keys), warmed
    assert cold_info["cold_fits"] == len(keys), cold_info
    assert cold_info["refits"] == 0, cold_info

    with tempfile.TemporaryDirectory() as tmp:
        started = time.perf_counter()
        saved = cold.save_state(tmp)
        snapshot_s = time.perf_counter() - started

        restored = DraftsService(EC2Api(universe), service_cfg)
        started = time.perf_counter()
        loaded = restored.load_state(tmp)
        restored_curves = [
            restored.curve(key[0], key[1], probability, start_now)
            for key in keys
        ]
        restore_s = time.perf_counter() - started

    identical_at_start = all(
        _curves_match(a, b) for a, b in zip(cold_curves, restored_curves)
    )
    # One incremental refresh step past the staleness horizon: the restored
    # predictors must delta-fetch and land on the survivor's curves.
    later = start_now + service_cfg.refresh_seconds + 60.0
    identical_after_refresh = all(
        _curves_match(
            cold.curve(key[0], key[1], probability, later),
            restored.curve(key[0], key[1], probability, later),
        )
        for key in keys
    )
    info = restored.cache_info()
    # The restored service answered from restored state alone: no boot-time
    # cold fits and no steady-state refits, only incremental refreshes.
    assert info["cold_fits"] == 0, info
    assert info["refits"] == 0, info
    return {
        "n_keys": len(keys),
        "cold_fit_s": cold_fit_s,
        "snapshot_s": snapshot_s,
        "restore_s": restore_s,
        "speedup": cold_fit_s / max(restore_s, 1e-9),
        "saved": saved["saved"],
        "loaded": loaded["loaded"],
        "load_errors": loaded["errors"],
        "restore_cold_fits": info["cold_fits"],
        "restore_refits": info["refits"],
        "restore_incremental_refreshes": info["incremental_refreshes"],
        "curves_identical": identical_at_start and identical_after_refresh,
    }


def run_refresh_benchmark(config: ServingBenchConfig | None = None) -> dict:
    """The refresh phase alone (the BENCH_serving.json trajectory hook)."""
    cfg = config or ServingBenchConfig()
    universe = scaled_universe(cfg.scale)
    keys, start_now = predictable_keys(universe, cfg.n_keys, 0.95)
    return {
        "keys": ["{}@{}".format(k[0], k[1]) for k in keys],
        "refresh_steps": cfg.refresh_steps,
        "refresh": _refresh_phase(cfg, universe, keys, start_now),
        "restart": _restart_phase(cfg, universe, keys, start_now),
    }


@dataclass(frozen=True)
class SloBenchConfig:
    """Shape of the socket-replay SLO benchmark.

    Attributes
    ----------
    scale / n_keys / seed:
        Universe preset, key-universe size, load-generator seed.
    n_requests / rate / warmup_requests / concurrency:
        The main open-loop replay: stream length, offered arrival rate
        (requests/second), leading records dropped from the SLO table,
        replayer worker threads.
    diurnal_period_seconds / diurnal_amplitude:
        The rate envelope the replay breathes under (sized so a short run
        still sees most of a cycle).
    hedge_demo_requests / hedge_demo_rate:
        The seeded latency-spike A/B (unhedged vs hedged, same seed).
    spike_rate / spike_seconds:
        Server-side seeded spike schedule for the hedge demo.
    hedge_delay_seconds:
        Fixed hedge delay for the demo (fixed, not p95-adaptive, so the
        A/B is reproducible).
    """

    scale: str = "test"
    n_keys: int = 4
    seed: int = 7
    n_requests: int = 2000
    rate: float = 1500.0
    warmup_requests: int = 100
    concurrency: int = 32
    diurnal_period_seconds: float = 30.0
    diurnal_amplitude: float = 0.3
    hedge_demo_requests: int = 400
    hedge_demo_rate: float = 150.0
    spike_rate: float = 0.08
    spike_seconds: float = 0.25
    hedge_delay_seconds: float = 0.02

    def __post_init__(self) -> None:
        if self.n_requests < 2 or self.hedge_demo_requests < 2:
            raise ValueError("request counts must be >= 2")
        if self.rate <= 0 or self.hedge_demo_rate <= 0:
            raise ValueError("rates must be positive")


def run_slo_benchmark(config: SloBenchConfig | None = None) -> dict:
    """Open-loop socket replay with tail SLOs, plus the hedging A/B.

    Two parts:

    1. **slo** — the main replay: diurnal × Zipf open-loop stream over a
       real listening socket, reported as the tail SLO table (p50/p99/
       p99.9, shed/timeout rates, hedge accounting, offered vs achieved
       throughput) plus the server's drain statistics.
    2. **hedge_demo** — same seed, spiked server
       (:class:`~repro.serving.chaos.ReplaySpiker`): one unhedged run,
       one hedged run. Hedging must cut the spike out of the tail —
       ``hedged p99.9 < unhedged p99.9`` is the acceptance check
       (``ok`` in the returned dict). The armed hook sends every request
       to the server's executor, so the executor gets one thread per
       replay worker: a stall then delays only the request it hit, the
       replica-local slowness hedging is meant to escape.
    """
    from repro.serving.aiohttpd import AsyncGatewayHTTPServer
    from repro.serving.chaos import FaultConfig, ReplaySpiker
    from repro.serving.httpd import HttpdConfig
    from repro.serving.loadgen import DiurnalEnvelope
    from repro.serving.replay import ReplayConfig, Replayer

    cfg = config or SloBenchConfig()
    universe = scaled_universe(cfg.scale)
    keys, start_now = predictable_keys(universe, cfg.n_keys, 0.95)
    combos = [key[:2] for key in keys]

    server = AsyncGatewayHTTPServer(
        warm_gateway(universe, combos, start_now, 0.95),
        HttpdConfig(max_connections=256),
    )
    server.start()
    try:
        replayer = Replayer(
            server.url,
            keys,
            ReplayConfig(
                n_requests=cfg.n_requests,
                rate=cfg.rate,
                diurnal=DiurnalEnvelope(
                    period_seconds=cfg.diurnal_period_seconds,
                    amplitude=cfg.diurnal_amplitude,
                ),
                seed=cfg.seed,
                warmup_requests=cfg.warmup_requests,
                concurrency=cfg.concurrency,
                start_now=start_now,
            ),
        )
        slo = replayer.run()
    finally:
        drain = server.stop()

    demo: dict = {"spike_rate": cfg.spike_rate, "spike_seconds": cfg.spike_seconds}
    for label, hedge in (("unhedged", False), ("hedged", True)):
        spiker = ReplaySpiker(
            FaultConfig(
                spike_rate=cfg.spike_rate,
                spike_seconds=cfg.spike_seconds,
                seed=cfg.seed,
            )
        )
        demo_server = AsyncGatewayHTTPServer(
            warm_gateway(universe, combos, start_now, 0.95),
            HttpdConfig(
                max_connections=256,
                executor_workers=max(1, cfg.concurrency),
            ),
            spike=spiker,
        )
        demo_server.start()
        try:
            report = Replayer(
                demo_server.url,
                keys,
                ReplayConfig(
                    n_requests=cfg.hedge_demo_requests,
                    rate=cfg.hedge_demo_rate,
                    seed=cfg.seed,
                    warmup_requests=0,
                    concurrency=cfg.concurrency,
                    hedge=hedge,
                    hedge_delay_seconds=cfg.hedge_delay_seconds,
                    start_now=start_now,
                ),
            ).run()
        finally:
            demo_server.stop()
        demo[label] = {
            "p999": report["latency"]["p999"],
            "p99": report["latency"]["p99"],
            "p50": report["latency"]["p50"],
            "hedges_launched": report["hedge"]["launched"],
            "hedge_wins": report["hedge"]["wins"],
            "injected_spikes": spiker.injected_spikes,
            "spared_hedges": spiker.spared_hedges,
        }
    demo["p999_improvement"] = demo["unhedged"]["p999"] / max(
        demo["hedged"]["p999"], 1e-9
    )
    demo["ok"] = demo["hedged"]["p999"] < demo["unhedged"]["p999"]
    return {
        "keys": ["{}@{}".format(k[0], k[1]) for k in keys],
        "slo": slo,
        "drain": drain,
        "hedge_demo": demo,
    }


def _replay_waves(server, keys, cfg, start_now: float) -> dict:
    """Run ``cfg.waves`` fresh replays against a running server (or
    router) and aggregate their measured records into one summary.

    Each wave is a fresh replayer with a fresh (empty) connection pool,
    so every wave re-pays the connection storm and repeating it averages
    out the run-to-run jitter a single short stream suffers on a small
    host. ``cfg`` is any config carrying the replay fields (``waves``,
    ``n_requests``, ``rate``, ``seed``, ``warmup_requests``,
    ``concurrency``, ``timeout_seconds``)."""
    from repro.serving.replay import ReplayConfig, Replayer

    class _RecordingReplayer(Replayer):
        """Keeps the raw records so waves can be pooled."""

        def _report(self, records):
            self.records = records
            return super()._report(records)

    measured = []
    achieved_window = 0.0
    offered_window = 0.0
    # Cycle-collector pauses land on whichever thread holds the GIL; in an
    # in-process server that is the one serving thread. Collect between
    # waves, keep the collector off during each measured wave (one wave
    # is under a second, the garbage fits).
    for wave in range(cfg.waves):
        replayer = _RecordingReplayer(
            server.url,
            keys,
            ReplayConfig(
                n_requests=cfg.n_requests,
                rate=cfg.rate,
                seed=cfg.seed + wave,
                warmup_requests=cfg.warmup_requests,
                concurrency=cfg.concurrency,
                timeout_seconds=cfg.timeout_seconds,
                start_now=start_now,
            ),
        )
        gc.collect()
        gc.disable()
        try:
            report = replayer.run()
        finally:
            gc.enable()
        measured.extend(replayer.records[cfg.warmup_requests :])
        achieved_window += (
            report["responded"] / report["achieved_rps"]
            if report["achieved_rps"]
            else 0.0
        )
        offered_window += (
            (report["measured"] - 1) / report["offered_rps"]
            if report["offered_rps"]
            else 0.0
        )
    responded = [r for r in measured if r.status is not None]
    latencies = np.asarray([r.latency for r in responded])
    n = len(measured)
    shed = sum(1 for r in responded if r.status == 429)
    return {
        "waves": cfg.waves,
        "offered_rps": (n - cfg.waves) / offered_window if offered_window else 0.0,
        "achieved_rps": (
            len(responded) / achieved_window if achieved_window else 0.0
        ),
        "p50": float(np.percentile(latencies, 50)) if latencies.size else 0.0,
        "p99": float(np.percentile(latencies, 99)) if latencies.size else 0.0,
        "p999": (
            float(np.percentile(latencies, 99.9)) if latencies.size else 0.0
        ),
        "shed_rate": shed / n if n else 0.0,
        "timeout_rate": sum(r.timeout for r in measured) / n if n else 0.0,
        "error_rate": sum(r.error for r in measured) / n if n else 0.0,
        "responded": len(responded),
    }


@dataclass(frozen=True)
class ScalingBenchConfig:
    """Shape of the shard-routed scaling measurement.

    One direct single-worker baseline (the asyncio front end alone, no
    router hop) and one fork-mode routed deployment per entry in
    ``shard_counts``, all replayed with the identical open-loop stream
    (same seed, same offered rate, same key universe). Every routed key
    is enrolled on exactly one shard, so the replay exercises the
    consistent-hash forwarding path, not cold fits.

    The acceptance gate is hardware-aware: shard workers are forked
    processes, so throughput can only multiply when the host has cores
    to schedule them on. With ``cpu_count >= 4`` the 4-shard deployment
    must reach >= 2x the direct baseline's achieved throughput at
    equal-or-better p99; on smaller hosts (the reference VM has two
    vCPUs) the gate instead requires that routing *preserves* throughput
    — every shard count >= ``min_preserve_ratio`` of the direct
    baseline with a zero error rate and clean drains — so the benchmark
    stays honest instead of asserting a physically impossible speedup.
    """

    scale: str = "test"
    n_keys: int = 8
    seed: int = 11
    shard_counts: tuple[int, ...] = (1, 2, 4)
    waves: int = 3
    n_requests: int = 1200
    rate: float = 6000.0
    warmup_requests: int = 100
    concurrency: int = 64
    timeout_seconds: float = 5.0
    max_connections: int = 512
    min_preserve_ratio: float = 0.5


def run_scaling_benchmark(config: ScalingBenchConfig | None = None) -> dict:
    """Measure the routed tier's scaling curve against a direct worker.

    Returns the direct single-worker summary, one routed summary per
    shard count (each with the deployment's drain statistics), and the
    acceptance arithmetic: ``speedup`` per shard count (routed achieved
    rps over direct achieved rps), ``cpu_count``, the ``gate`` that was
    applied, and ``ok``.
    """
    import os

    from repro.serving.aiohttpd import AsyncGatewayHTTPServer
    from repro.serving.httpd import HttpdConfig
    from repro.serving.router import RouterConfig, ShardDeployment, plan_shards

    cfg = config or ScalingBenchConfig()
    universe = scaled_universe(cfg.scale)
    keys, start_now = predictable_keys(universe, cfg.n_keys, 0.95)
    combos = [(k[0], k[1]) for k in keys]
    cpu_count = len(os.sched_getaffinity(0))
    out: dict = {
        "keys": ["{}@{}".format(k[0], k[1]) for k in keys],
        "cpu_count": cpu_count,
        "offered": {
            "waves": cfg.waves,
            "n_requests": cfg.n_requests,
            "rate": cfg.rate,
            "concurrency": cfg.concurrency,
        },
    }

    server = AsyncGatewayHTTPServer(
        warm_gateway(universe, combos, start_now, 0.95),
        HttpdConfig(
            max_connections=cfg.max_connections,
            backlog=2 * cfg.concurrency,
        ),
    )
    server.start()
    try:
        direct = _replay_waves(server, keys, cfg, start_now)
    finally:
        direct["drain"] = server.stop()
    out["direct"] = direct

    routed: dict[str, dict] = {}
    for n_shards in cfg.shard_counts:
        deployment = ShardDeployment(
            universe,
            plan_shards(n_shards, combos),
            start_now=start_now,
            mode="fork",
            router_config=RouterConfig(
                max_connections=cfg.max_connections,
                backlog=2 * cfg.concurrency,
            ),
            httpd_config=HttpdConfig(
                max_connections=cfg.max_connections,
                backlog=2 * cfg.concurrency,
            ),
        )
        deployment.start()
        try:
            summary = _replay_waves(deployment.router, keys, cfg, start_now)
        finally:
            stats = deployment.stop()
        summary["drain"] = stats
        summary["speedup"] = summary["achieved_rps"] / max(
            direct["achieved_rps"], 1e-9
        )
        routed[str(n_shards)] = summary
    out["routed"] = routed

    drains_clean = all(s["drain"].get("drained") for s in routed.values())
    errors_clean = all(
        s["error_rate"] == 0.0 and s["timeout_rate"] == 0.0
        for s in routed.values()
    )
    widest = routed[str(max(cfg.shard_counts))]
    if cpu_count >= 4:
        out["gate"] = "multicore: 4-shard >= 2x direct rps at <= direct p99"
        out["ok"] = bool(
            drains_clean
            and errors_clean
            and widest["speedup"] >= 2.0
            and widest["p99"] <= direct["p99"]
        )
    else:
        out["gate"] = (
            f"under 4 cores ({cpu_count} cpu): routing preserves >= "
            f"{cfg.min_preserve_ratio:.0%} of direct rps, zero errors, "
            "clean drains"
        )
        out["ok"] = bool(
            drains_clean
            and errors_clean
            and all(
                s["speedup"] >= cfg.min_preserve_ratio
                for s in routed.values()
            )
        )
    return out


def run_serving_benchmark(config: ServingBenchConfig | None = None) -> dict:
    """Run all four phases; returns a JSON-ready results dict."""
    cfg = config or ServingBenchConfig()
    universe = scaled_universe(cfg.scale)
    keys, start_now = predictable_keys(universe, cfg.n_keys, 0.95)
    return {
        "keys": ["{}@{}".format(k[0], k[1]) for k in keys],
        "latency": _latency_phase(cfg, universe, keys, start_now),
        "coalescing": _coalescing_phase(cfg, universe, keys, start_now),
        "shedding": _shedding_phase(cfg, universe, keys, start_now),
        "refresh": _refresh_phase(cfg, universe, keys, start_now),
        "restart": _restart_phase(cfg, universe, keys, start_now),
    }


def format_serving_report(results: dict) -> str:
    """Human-readable tables for the CLI."""
    rows = []
    for n_threads, data in sorted(results["latency"].items()):
        rows.append(
            [
                str(n_threads),
                f"{data['baseline']['p50'] * 1e3:.2f}",
                f"{data['baseline']['p99'] * 1e3:.2f}",
                f"{data['gateway']['p50'] * 1e3:.2f}",
                f"{data['gateway']['p99'] * 1e3:.2f}",
                f"{data['speedup_p99']:.0f}x",
                f"{data['gateway_rps']:.0f}",
            ]
        )
    latency_table = format_table(
        [
            "Threads",
            "lazy p50 (ms)",
            "lazy p99 (ms)",
            "gw p50 (ms)",
            "gw p99 (ms)",
            "p99 speedup",
            "gw req/s",
        ],
        rows,
        title="Serving read latency: lazy inline recompute vs gateway",
    )
    coalescing = results["coalescing"]
    shedding = results["shedding"]
    extras = format_table(
        ["Check", "Value"],
        [
            [
                f"coalescing: {coalescing['k']} concurrent cold misses",
                f"{coalescing['recomputes']} recompute(s), "
                f"{coalescing['coalesced']} coalesced",
            ],
            [
                f"shedding: 16 workers, max_inflight=2, "
                f"{shedding['n_requests']} requests",
                f"{shedding['shed']} shed (429), accounting "
                f"{'balanced' if shedding['accounting']['balanced'] else 'BROKEN'}",
            ],
        ],
        title="Admission control",
    )
    report = latency_table + "\n\n" + extras
    refresh = results.get("refresh")
    if refresh is not None:
        rows = [
            [
                mode,
                f"{refresh[mode]['cold']['p50'] * 1e3:.1f}",
                f"{refresh[mode]['steady']['p50'] * 1e3:.2f}",
                f"{refresh[mode]['steady']['p99'] * 1e3:.2f}",
                str(refresh[mode]["refits"]),
                str(refresh[mode]["incremental_refreshes"]),
            ]
            for mode in ("refit", "incremental")
        ]
        refresh_table = format_table(
            [
                "Mode",
                "cold p50 (ms)",
                "steady p50 (ms)",
                "steady p99 (ms)",
                "refits",
                "incr",
            ],
            rows,
            title=(
                "Per-key refresh cost "
                f"(steady-state speedup p50 {refresh['speedup_steady_p50']:.0f}x, "
                f"p99 {refresh['speedup_steady_p99']:.0f}x; curves "
                f"{'bit-identical' if refresh['equivalent'] else 'DIVERGED'})"
            ),
        )
        report += "\n\n" + refresh_table
    restart = results.get("restart")
    if restart is not None:
        restart_table = format_table(
            ["Path", "Wall (ms)", "Refits", "Curves"],
            [
                [
                    f"cold fit ({restart['n_keys']} keys)",
                    f"{restart['cold_fit_s'] * 1e3:.1f}",
                    str(restart["n_keys"]),
                    "reference",
                ],
                [
                    "snapshot restore",
                    f"{restart['restore_s'] * 1e3:.1f}",
                    str(restart["restore_refits"]),
                    "identical"
                    if restart["curves_identical"]
                    else "DIVERGED",
                ],
            ],
            title=(
                "Warm restart from snapshot "
                f"(x{restart['speedup']:.0f} faster than cold refit; "
                f"snapshot write {restart['snapshot_s'] * 1e3:.1f} ms)"
            ),
        )
        report += "\n\n" + restart_table
    return report
