#!/usr/bin/env python3
"""The repository benchmark: socket serving under open-loop load, and Table 1.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the program is imported from ``src``.
Workloads (``README.md`` beside this file has the full contract):

* ``serve-hot``        one asyncio gateway worker, 13 warm keys, fixed ``now``
                       (its traced run adds the router and 2 forked shards
                       on the same keys and mix);
* ``serve-drift``      the same worker over 36 keys, ``now`` advancing 5 s
                       per request, so stale reads trigger refreshes;
* ``backtest-table1``  the sequential Table 1 sweep at the bench preset.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` reruns the
workload with timing wrappers around each layer and prints the per-layer
metrics instead. The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit status is
non-zero when an output check fails or the program cannot be found.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for per-run files (span dumps); removed after each run.
RUN_ROOT = os.path.join(ROOT, ".perfbench")

NPROC = os.cpu_count() or 1
#: The load client keeps one CPU to itself and the deployment gets the rest
#: (with one CPU they share it). Left to the scheduler, the two shared a
#: CPU in some runs and not in others, and serve-hot's burst time moved by
#: 0.42 of its median between runs (0.14 pinned, on 2 vCPUs).
_CPUS = sorted(os.sched_getaffinity(0))
CLIENT_CPUS = set(_CPUS[:1])
SERVER_CPUS = set(_CPUS[1:] or _CPUS)
#: Keep-alive connections of the load client (one thread drives them all).
CONNECTIONS = min(2, NPROC)
#: Offered rate of the latency phase, the same for every serving workload.
REFERENCE_RATE = 1000.0
#: Length of the reference phase behind p50/p99. In the untraced run the
#: rest of the run's seconds go to bursts.
REFERENCE_SHARE = 0.4
#: Time the traced run gives the max-rate search.
SEARCH_SECONDS = 6.0
#: The p99 limit of ``max_rps_at_slo``: 20x the unloaded p99 of serve-hot,
#: above the few-millisecond stalls a small virtual machine shows.
SLO_P99_MS = 10.0
#: Length of one probe of the max-rate search.
PROBE_SECONDS = 0.8
#: Requests per burst behind ``wall_s`` on the serving workloads: bursts
#: repeat (at least three times) and the median is reported. The traced
#: run bursts for TRACED_BURST_SECONDS only.
BURST = 500
TRACED_BURST_SECONDS = 1.2
#: Deployments started per run to time set-up (the median is reported).
SETUP_REPEATS = 3
STALE_AFTER_S = 900.0

#: ``router_leg``: the traced run also drives the same keys and mix
#: through the router and 2 forked shards, for the router's layer metrics.
#: (Routed serving is not an end-to-end workload of its own: on a 2-vCPU
#: machine four busy processes left its figures too unsteady to bound.)
WORKLOADS = {
    "serve-hot": {"mode": "single", "groups": "HOT_GROUPS", "drift": False, "router_leg": True},
    "serve-drift": {"mode": "single", "groups": "DRIFT_GROUPS", "drift": True, "router_leg": False},
    "backtest-table1": {"mode": "backtest"},
}

#: Latency percentiles are per-layer figures (from the traced run's
#: untraced reference phase): on a shared 2-vCPU virtual machine the
#: host's scheduling moved them by more than the largest bound between
#: runs, while burst and sweep wall times stayed within it.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wall_s": "s",
}

STRATEGIES = ("drafts", "ondemand", "ar1", "empirical-cdf")

PER_LAYER = {
    "p50_ms": "ms",
    "p99_ms": "ms",
    "cheapest_p99_ms": "ms",
    "front.self_us_per_req": "us",
    "front.inline_share": "ratio",
    "gateway.self_us_per_req": "us",
    "gateway.hit_share": "ratio",
    "gateway.stale_hit_share": "ratio",
    "gateway.miss_share": "ratio",
    "gateway.shed": "count",
    "refresher.refreshes": "count",
    "refresher.wait_ms_p99": "ms",
    "refresher.coalesced_share": "ratio",
    "service.curve_ms_p99": "ms",
    "service.incremental_share": "ratio",
    "service.warm_start_s": "s",
    "api.fetches": "count",
    "api.fetch_us_p50": "us",
    "api.rows_per_fetch": "count",
    "ticker.self_s": "s",
    "online.self_s": "s",
    "fit.self_s": "s",
    "fit.keys": "count",
    "predcache.hit_ratio": "ratio",
    "ar1.prefit_s": "s",
    **{f"engine.{name}.self_s": "s" for name in STRATEGIES},
    "market.trace_s": "s",
    "router.hop_us_p50": "us",
    "router.proxied": "count",
    "router.fanout_per_cheapest": "count",
    "router.merge_cache_hit_ratio": "ratio",
    "router.upstream_failures": "count",
    "router.p50_ms": "ms",
    "router.p99_ms": "ms",
    "stale_share": "ratio",
    "max_rps_at_slo": "1/s",
    "client.lateness_p99_ms": "ms",
    "client.lateness_max_p99_ms": "ms",
    "trace.overhead_p50_ms": "ms",
}


def log(message: str) -> None:
    print(message, flush=True)


# ---------------------------------------------------------------------------
# Server processes
# ---------------------------------------------------------------------------


def _children(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def _hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Server:
    """One deployment started through ``server.py``; set-up is timed from
    exec to the first answerable URL."""

    def __init__(self, spec: dict) -> None:
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"), json.dumps(spec)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=SRC),
            preexec_fn=lambda: os.sched_setaffinity(0, SERVER_CPUS),
        )
        try:
            ready = json.loads(self._line(150.0))
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started
        host, port = ready["url"].split("//", 1)[1].rsplit(":", 1)
        self.address = (host, int(port))

    def _line(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise RuntimeError("server did not report in time")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server exited without reporting")
        return line.decode("utf-8")

    def pids(self) -> list[int]:
        return [self.proc.pid, *_children(self.proc.pid)]

    def peak_rss_mb(self) -> float:
        return sum(_hwm_kb(pid) for pid in self.pids()) / 1024.0

    def stop(self) -> bool:
        """Close stdin (the drain request); ``True`` on a clean drain."""
        self.proc.stdin.close()
        try:
            drained = json.loads(self._line(60.0))["drained"]
            self.proc.wait(timeout=30)
        except BaseException:
            self.kill()
            raise
        self.proc.stdout.close()
        return bool(drained) and self.proc.returncode == 0

    def kill(self) -> None:
        if self.proc.poll() is None:
            for pid in self.pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            self.proc.wait()


def http_get(address: tuple[str, int], path: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def settle(address: tuple[str, int]) -> None:
    """Wait until the server has no curve refresh queued or running: two
    ``/metrics`` reads 20 ms apart with nothing pending and no recompute
    in between.

    Each serve-drift burst makes every key it touches stale, and the
    refreshes run beside the next burst unless it waits: left alone, how
    much refresh work overlapped a burst varied from run to run, and the
    burst time with it.
    """
    last = None
    while True:
        body = json.loads(http_get(address, "/metrics")[1])
        state = (body["store"]["refresh_pending"], body["counters"].get("serving.recomputes", 0))
        if state[0] == 0 and state == last:
            return
        last = state
        time.sleep(0.02)


# ---------------------------------------------------------------------------
# Serving workloads
# ---------------------------------------------------------------------------


class Traffic:
    """Seeded request streams of one serving workload, with their judge.

    Fixed-``now`` workloads compare every answer's bytes with the
    in-process gateway's answer for the same URL. The drifting workload
    needs a 200 for every request (its keys always have a curve and a bid
    for every duration asked) and records each ``/predictions`` answer's
    staleness.
    """

    def __init__(self, wl, lc, rng, combos, groups, host, drift, expected):
        self.wl, self.lc, self.rng = wl, lc, rng
        self.combos, self.groups, self.host = combos, groups, host
        self.drift = drift
        self.expected = expected
        self.sent = 0  # requests generated so far; drives ``now``
        if not drift:
            self.fixed = wl.FixedUrls(combos, groups, wl.START_NOW)
            self.table = [lc.request_bytes(url, host) for url in self.fixed.urls]

    @property
    def now(self) -> float:
        return self.wl.START_NOW + self.drift * self.sent

    def build(self, count: int):
        """(payloads, kinds, check, stale flags) for ``count`` requests."""
        wl, lc = self.wl, self.lc
        mix = wl.draw_mix(self.rng, count, len(self.combos), len(self.groups))
        stale: list[bool | None] = [None] * count
        base = self.sent
        self.sent += count
        if not self.drift:
            index = self.fixed.indices(mix).tolist()
            expected = self.expected

            def check(i: int, status: int, body: bytes) -> bool:
                want = expected[index[i]]
                return status == want[0] and body == want[1]

            return [self.table[i] for i in index], mix.kind, check, stale
        nows = [wl.START_NOW + self.drift * (base + i) for i in range(count)]
        kinds = mix.kind.tolist()
        payloads = [
            lc.request_bytes(wl.url_for(k, t, d, self.combos, self.groups, now), self.host)
            for k, t, d, now in zip(kinds, mix.target.tolist(), mix.duration.tolist(), nows)
        ]
        marker = b'"computed_at": '

        def check(i: int, status: int, body: bytes) -> bool:
            if status != 200:
                return False
            if kinds[i] == 0:
                at = body.index(marker) + len(marker)
                stale[i] = nows[i] - float(body[at : body.index(b",", at)]) > STALE_AFTER_S
            return True

        return payloads, mix.kind, check, stale


class Phase:
    """One open-loop trial and what it measured.

    p50, p99 and the /cheapest p99 pool every request of the trial, from
    its due time. ``lateness_p99`` is the client's own send lateness over
    the same requests, reported beside them: where it is not small beside
    the latencies, they measure the client or the machine, not the server.
    """

    def __init__(self, result, kinds, stale, rate, lc) -> None:
        self.result = result
        self.kinds = kinds
        self.stale = stale
        self.rate = rate
        self.latency = result.latency_ms()
        self.p50 = lc.quantile(self.latency, 0.5)
        self.p99 = lc.quantile(self.latency, 0.99)
        self.cheapest_p99 = lc.quantile(self.latency[kinds == 2], 0.99)
        self.lateness_p99 = lc.quantile(result.lateness_ms(), 0.99)


class ServeRun:
    """Drive one started deployment through the workload's phases."""

    def __init__(self, lc, traffic, address) -> None:
        self.lc, self.traffic, self.address = lc, traffic, address
        self.phases: list[Phase] = []
        self.mismatches = 0

    def phase(self, rate: float, seconds: float = 0.0, burst: int = 0) -> Phase:
        lc = self.lc
        count = burst or max(1, int(rate * seconds))
        payloads, kinds, check, stale = self.traffic.build(count)
        dues = [0.0] * count if burst else lc.poisson_dues(rate, count, self.traffic.rng)
        result = lc.run_open_loop(
            self.address,
            payloads,
            dues,
            connections=CONNECTIONS,
            check=check,
        )
        self.mismatches += int(((result.status >= 100) & ~result.correct).sum())
        phase = Phase(result, kinds, stale, rate, lc)
        self.phases.append(phase)
        if not burst:
            log(
                f"  rate {rate:7.0f}/s  n {count:6d}  p50 {phase.p50:7.3f} ms  "
                f"p99 {phase.p99:8.3f} ms  client lateness p99 {phase.lateness_p99:6.3f} ms  "
                f"failed {result.failed}"
            )
        return phase

    def probe(self, rate: float) -> tuple[float, bool]:
        """One step of the max-rate search: (p99, healthy). Healthy means
        no failed request and no growing backlog: the median latency of the
        probe's last quarter also meets the limit."""
        phase = self.phase(rate, PROBE_SECONDS)
        tail = phase.latency[-max(1, phase.latency.size // 4) :]
        healthy = phase.result.failed == 0 and self.lc.quantile(tail, 0.5) <= SLO_P99_MS
        return phase.p99, healthy

    @property
    def attempted(self) -> int:
        return sum(p.result.attempted for p in self.phases)

    @property
    def failed(self) -> int:
        return sum(p.result.failed for p in self.phases)

    def lateness_max(self) -> float:
        return max(p.lateness_p99 for p in self.phases if p.rate)


def drift_final_check(wl, universe, address, traffic) -> tuple[int, int]:
    """Every key's curve at the final ``now`` must equal a fresh fit.

    The server answers from its incrementally refreshed predictors; the
    oracle is a new in-process service fitted from scratch on the same
    history. A curve's ``computed_at`` is its last announcement, and a
    fit at ``now`` sees announcements strictly before ``now``, so the
    oracle fits one second after it. Returns (checked, failed).
    """
    now = traffic.now
    failed = 0
    for instance_type, zone in traffic.combos:
        url = wl.url_for(0, 0, 0, [(instance_type, zone)], [], now)
        status, body = http_get(address, url)
        if status != 200 or body != wl.fresh_curve_body(
            universe, instance_type, zone, json.loads(body)["computed_at"] + 1.0
        ):
            failed += 1
    return len(traffic.combos), failed


def serve_workload(name: str, cfg: dict, seed: int, seconds: float, trace: bool, run_dir: str):
    import numpy as np

    import loadclient as lc
    import workloads as wl
    from repro.experiments.common import scaled_universe

    os.sched_setaffinity(0, CLIENT_CPUS)
    universe = scaled_universe(wl.SCALE)
    groups = getattr(wl, cfg["groups"])
    combos = wl.combos_of(universe, groups)
    spec = {"mode": cfg["mode"], "combos": combos, "trace_dir": None}
    topology = "1 asyncio gateway worker process"
    priority = "SCHED_RR" if lc.realtime_available() else "normal priority"
    log(
        f"{name}: server {topology} on CPUs {sorted(SERVER_CPUS)}; client 1 process, 1 thread "
        f"({priority}) on CPU {sorted(CLIENT_CPUS)}, {CONNECTIONS} pipelined keep-alive "
        f"connections, open loop, Poisson arrivals; nproc {NPROC}; seed {seed}; "
        f"{len(combos)} keys in {len(groups)} groups"
    )
    expected = None
    if not cfg["drift"]:
        urls = wl.FixedUrls(combos, groups, wl.START_NOW).urls
        expected = wl.expected_answers(wl.oracle_gateway(universe, combos, wl.START_NOW), urls)
    drift = wl.DRIFT_SECONDS_PER_REQUEST if cfg["drift"] else 0.0

    def drive(
        server: Server,
        reference_only: bool = False,
        burst_seconds: float = TRACED_BURST_SECONDS,
        search: bool = False,
    ):
        """Warm-up, reference phase, bursts for ``burst_seconds``, and
        (``search``) the max-rate search for ``SEARCH_SECONDS``. Returns
        (run, reference phase, median burst wall, knee, traffic)."""
        traffic = Traffic(
            wl, lc, np.random.default_rng(seed), combos, groups,
            server.address[0], drift, expected,
        )
        run = ServeRun(lc, traffic, server.address)
        run.phase(REFERENCE_RATE, min(1.0, 0.1 * seconds))
        ref = run.phase(REFERENCE_RATE, REFERENCE_SHARE * seconds)
        if reference_only:
            return run, ref, None, None, traffic
        walls: list[float] = []
        bursts_end = time.perf_counter() + burst_seconds
        while len(walls) < 3 or time.perf_counter() < bursts_end:
            settle(server.address)
            walls.append(run.phase(0.0, burst=BURST).result.wall_ns / 1e9)
        wall = statistics.median(walls)
        log(
            f"  {len(walls)} bursts of {BURST}: median {wall * 1e3:.1f} ms, "
            f"range {min(walls) * 1e3:.1f}-{max(walls) * 1e3:.1f} ms"
        )
        knee = None
        if search:
            # The bursts' throughput bounds the knee from above; start below it.
            knee, _ = lc.find_max_rate(
                run.probe,
                start=0.5 * BURST / wall,
                limit_ms=SLO_P99_MS,
                max_probes=int(SEARCH_SECONDS / (PROBE_SECONDS + 0.05)),
            )
            log(f"  max rate with p99 <= {SLO_P99_MS} ms: {knee:.0f}/s")
        return run, ref, wall, knee, traffic

    if trace:
        return serve_traced(cfg, spec, drive, run_dir, wl, lc, universe)

    setups = []
    for _ in range(SETUP_REPEATS - 1):
        server = Server(spec)
        setups.append(server.setup_s)
        if not server.stop():
            raise RuntimeError("set-up deployment did not drain cleanly")
    server = Server(spec)
    setups.append(server.setup_s)
    log(f"  set-up seconds: {', '.join(f'{s:.3f}' for s in setups)}")
    try:
        warmup = min(1.0, 0.1 * seconds)
        run, ref, wall, _, traffic = drive(
            server, burst_seconds=seconds - warmup - REFERENCE_SHARE * seconds
        )
        rss = server.peak_rss_mb()
        checked = failed_checks = 0
        if cfg["drift"]:
            checked, failed_checks = drift_final_check(wl, universe, server.address, traffic)
    except BaseException:
        server.kill()
        raise
    drained = server.stop()
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "wall_s": wall,
    }
    stale = [flag for flag in ref.stale if flag is not None]
    log(
        f"  reference {REFERENCE_RATE:.0f}/s: p50 {ref.p50:.3f} ms, p99 {ref.p99:.3f} ms, "
        f"/cheapest p99 {ref.cheapest_p99:.3f} ms; client lateness p99 at most "
        f"{run.lateness_max():.3f} ms"
        + (f"; stale share {sum(stale) / len(stale):.3f}" if stale else "")
    )
    return _verdict(run, checked, failed_checks, drained, metrics)


def _verdict(run, checked, failed_checks, drained, metrics) -> dict:
    if not drained:
        log("  FAIL: deployment did not drain cleanly")
    if run.mismatches or failed_checks:
        log(f"  FAIL: {run.mismatches} wrong answers; {failed_checks}/{checked} final curves differ")
    return {
        "correct": run.mismatches == 0 and failed_checks == 0 and drained,
        "attempted": run.attempted + checked,
        "failed": run.failed + failed_checks,
        "metrics": metrics,
    }


def _merge(dumps, role: str):
    """Merge the span summaries of every process playing ``role``."""
    spans: dict[str, dict] = {}
    waits: list[int] = []
    requests: list[int] = []
    for dump in dumps:
        if dump["role"] != role:
            continue
        waits.extend(dump["refresh_wait_ns"])
        requests.extend(dump["request_ns"])
        for name, entry in dump["spans"].items():
            into = spans.setdefault(name, {"count": 0, "dur_ns": [], "self_ns": [], "tags": []})
            into["count"] += entry["count"]
            for key in ("dur_ns", "self_ns", "tags"):
                into[key].extend(entry[key])
    return spans, waits, requests


def _count(spans, name) -> int:
    return spans.get(name, {}).get("count", 0)


def _total_s(spans, key, *names) -> float:
    return sum(sum(spans.get(n, {}).get(key, [])) for n in names) / 1e9


def _quantile(lc, values, q) -> float:
    import numpy as np

    return lc.quantile(np.asarray(values, dtype=float), q) if values else 0.0


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(lc, spans, waits) -> dict:
    """The per-layer metrics every workload derives from its spans."""
    pokes = _count(spans, "refresher.poke")
    refreshes = _count(spans, "refresher.refresh")
    runs = spans.get("engine.run_backtest", {"self_ns": [], "tags": []})
    metrics = {
        "refresher.refreshes": refreshes,
        "refresher.wait_ms_p99": _quantile(lc, waits, 0.99) / 1e6,
        "refresher.coalesced_share": max(0.0, 1.0 - refreshes / pokes) if pokes else 0.0,
        "service.curve_ms_p99": _quantile(lc, spans.get("service.curve", {}).get("dur_ns"), 0.99)
        / 1e6,
        "service.warm_start_s": max(spans.get("service.warm_start", {}).get("dur_ns", [0])) / 1e9,
        "api.fetches": _count(spans, "api.fetch"),
        "api.fetch_us_p50": _quantile(lc, spans.get("api.fetch", {}).get("dur_ns"), 0.5) / 1e3,
        "api.rows_per_fetch": _mean(spans.get("api.fetch", {}).get("tags", [])),
        "ticker.self_s": _total_s(
            spans, "self_ns", "ticker.tick", "ticker.observe", "ticker.curves",
            "ticker.curve_for", "ticker.extend_frozen", "ticker.bid_for",
        ),
        "online.self_s": _total_s(spans, "self_ns", "online.observe", "online.curve"),
        "fit.self_s": _total_s(spans, "self_ns", "fit.fit_drafts_universe"),
        "fit.keys": sum(spans.get("fit.fit_drafts_universe", {}).get("tags", [])),
        "ar1.prefit_s": _total_s(spans, "dur_ns", "ar1.prefit_universe"),
        "market.trace_s": _total_s(spans, "dur_ns", "market.trace"),
    }
    for strategy in STRATEGIES:
        metrics[f"engine.{strategy}.self_s"] = (
            sum(s for s, tag in zip(runs["self_ns"], runs["tags"]) if tag == strategy) / 1e9
        )
    return metrics


def serve_traced(cfg, spec, drive, run_dir, wl, lc, universe):
    """An untraced reference phase, then the whole workload with spans on."""
    import tracing

    plain = Server(spec)
    try:
        plain_ref = drive(plain, reference_only=True)[1]
    except BaseException:
        plain.kill()
        raise
    plain_drained = plain.stop()
    trace_dir = os.path.join(run_dir, "trace")
    os.makedirs(trace_dir)
    server = Server(dict(spec, trace_dir=trace_dir))
    try:
        run, ref, _, knee, traffic = drive(server, search=True)
        shards = [json.loads(http_get(server.address, "/metrics")[1])]
        checked = failed_checks = 0
        if cfg["drift"]:
            checked, failed_checks = drift_final_check(wl, universe, server.address, traffic)
    except BaseException:
        server.kill()
        raise
    drained = server.stop() and plain_drained
    workers, waits, _ = _merge(tracing.load_dumps(trace_dir), "worker")

    def counter(key: str) -> int:
        return sum(s["counters"].get(key, 0) for s in shards)

    served = max(1, _count(workers, "httpcore.parse_head"))
    gateway_requests = max(1, counter("gateway.requests"))
    recomputes = sum(s["service"]["recomputes"] for s in shards)
    incremental = sum(s["service"]["incremental_refreshes"] for s in shards)
    stale = [flag for flag in ref.stale if flag is not None]
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(layer_metrics(lc, workers, waits))
    metrics.update(
        {
            "front.self_us_per_req": _total_s(
                workers, "self_ns",
                "httpcore.parse_head", "httpcore.dispatch", "httpcore.render_response",
            ) * 1e6 / served,
            "front.inline_share": _mean(workers.get("gateway.probe_inline", {}).get("tags", [])),
            "gateway.self_us_per_req": _total_s(
                workers, "self_ns", "gateway.get", "gateway.probe_inline"
            ) * 1e6 / served,
            "gateway.hit_share": counter("gateway.hits") / gateway_requests,
            "gateway.stale_hit_share": counter("gateway.stale_hits") / gateway_requests,
            "gateway.miss_share": counter("gateway.misses") / gateway_requests,
            "gateway.shed": counter("gateway.shed"),
            "service.incremental_share": incremental / recomputes if recomputes else 0.0,
            "stale_share": _mean(stale),
            "max_rps_at_slo": knee,
            "p50_ms": plain_ref.p50,
            "p99_ms": plain_ref.p99,
            "cheapest_p99_ms": plain_ref.cheapest_p99,
            "client.lateness_p99_ms": ref.lateness_p99,
            "client.lateness_max_p99_ms": run.lateness_max(),
            "trace.overhead_p50_ms": ref.p50 - plain_ref.p50,
        }
    )
    if cfg["router_leg"]:
        routed_run, routed_drained = router_leg(spec, drive, run_dir, lc, metrics)
        run.phases += routed_run.phases
        run.mismatches += routed_run.mismatches
        drained = drained and routed_drained
    return _verdict(run, checked, failed_checks, drained, metrics)


def router_leg(spec, drive, run_dir, lc, metrics: dict):
    """The router layer, measured on serve-hot's keys and mix: warm-up and
    reference phase through the router and 2 forked shards (what
    ``serve --shards 2`` runs), traced. Returns (run, drained)."""
    import tracing

    trace_dir = os.path.join(run_dir, "trace-routed")
    os.makedirs(trace_dir)
    server = Server(dict(spec, mode="routed", trace_dir=trace_dir))
    try:
        run, ref, *_ = drive(server, reference_only=True)
        counters = json.loads(http_get(server.address, "/metrics")[1])["counters"]
    except BaseException:
        server.kill()
        raise
    drained = server.stop()
    dumps = tracing.load_dumps(trace_dir)
    router = _merge(dumps, "router")[0]
    shard_request_ns = _merge(dumps, "worker")[2]
    metrics.update(
        {
            # Routed latency minus the time the shard spent on the request.
            "router.hop_us_p50": lc.quantile(ref.latency[ref.kinds != 2], 0.5) * 1e3
            - _quantile(lc, shard_request_ns, 0.5) / 1e3,
            "router.proxied": counters.get("router.proxied", 0),
            "router.fanout_per_cheapest": _mean(
                router.get("router.shards_for", {}).get("tags", [])
            ),
            "router.merge_cache_hit_ratio": counters.get("router.merge_cache_hits", 0)
            / max(1, counters.get("router.cheapest", 0)),
            "router.upstream_failures": counters.get("router.upstream_failures", 0),
            "router.p50_ms": ref.p50,
            "router.p99_ms": ref.p99,
        }
    )
    return run, drained


# ---------------------------------------------------------------------------
# Backtest workload
# ---------------------------------------------------------------------------


def backtest_workload(seed: int, seconds: float, trace: bool) -> dict:
    import backtest
    import loadclient as lc

    log(
        f"backtest-table1: 1 process, 1 thread, sequential sweep (scale {backtest.SCALE}, "
        f"p {backtest.PROBABILITY}); nproc {NPROC}; seed {seed} (the sweep is deterministic)"
    )
    if trace:
        return backtest_traced(backtest, lc)
    setups = [backtest.setup_seconds(SRC) for _ in range(SETUP_REPEATS)]
    log(f"  set-up seconds: {', '.join(f'{s:.3f}' for s in setups)}")
    backtest.prepare()
    walls: list[float] = []
    wrong: list[str] = []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        result, wall = backtest.sweep()
        walls.append(wall)
        wrong.extend(backtest.mismatches(result))
        log(f"  sweep {len(walls)}: {wall:.3f} s over {len(result.results)} (combo, strategy) cells")
    for line in wrong[:10]:
        log(f"  FAIL: {line}")
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _hwm_kb(os.getpid()) / 1024.0,
        "wall_s": statistics.median(walls),
    }
    return {
        "correct": not wrong,
        "attempted": len(result.results) * len(walls),
        "failed": len(wrong),
        "metrics": metrics,
    }


def backtest_traced(backtest, lc) -> dict:
    import tracing
    from repro.backtest import predcache

    backtest.prepare()
    plain = backtest.sweep()[1]
    tracer = tracing.Tracer()
    tracer.install()
    result, traced = backtest.sweep()
    wrong = backtest.mismatches(result)
    info = predcache.cache_info()
    summary = tracer.summary()
    lookups = info["hits"] + info["misses"]
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(layer_metrics(lc, summary["spans"], summary["refresh_wait_ns"]))
    metrics["predcache.hit_ratio"] = info["hits"] / lookups if lookups else 0.0
    metrics["trace.overhead_p50_ms"] = (traced - plain) * 1e3
    log(f"  untraced sweep {plain:.3f} s, traced sweep {traced:.3f} s")
    return {
        "correct": not wrong,
        "attempted": len(result.results),
        "failed": len(wrong),
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program at {SRC}/repro; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    cfg = WORKLOADS[args.workload]
    run_dir = os.path.join(RUN_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        if cfg["mode"] == "backtest":
            report = backtest_workload(args.seed, args.seconds, bool(args.trace))
        else:
            report = serve_workload(
                args.workload, cfg, args.seed, args.seconds, bool(args.trace), run_dir
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass  # another run is using it
    units = PER_LAYER if args.trace else END_TO_END
    values = report["metrics"]
    bad = [key for key in units if not math.isfinite(values[key])]
    if bad:
        log(f"  FAIL: metrics without a finite value: {', '.join(bad)}")
        report["correct"] = False
        values = {key: (v if math.isfinite(v) else -1.0) for key, v in values.items()}
    report["metrics"] = {key: {"value": float(values[key]), "unit": unit} for key, unit in units.items()}
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
