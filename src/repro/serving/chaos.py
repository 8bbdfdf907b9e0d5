"""Fault injection for the serving tier.

The gateway's degradation machinery — circuit breaker, On-demand fallback,
stale-while-revalidate, deadline budgets, crash-safe checkpoints — only
earns trust when it is exercised under the failures it exists for. This
module injects those failures deterministically:

* :class:`FaultyApi` — wraps an :class:`~repro.cloud.api.EC2Api` and makes
  history reads fail or stall at seeded rates (every fault decision comes
  from :mod:`repro.util.rng`, so a chaos run is exactly reproducible);
* :class:`FaultyCompute` — the same idea one layer up, for driving the
  refresher's compute callback directly in tests;
* :func:`tear_snapshot` — corrupts a checkpoint file the way a crashed
  writer or bad disk would (truncation, bit flip, emptying);
* :func:`run_chaos` — a harness that drives a gateway through a seeded
  fault schedule (with an optional snapshot/restore restart mid-run) and
  checks the serving tier's invariants:

  1. **metrics conservation** — ``hits + stale_hits + misses + shed +
     errors == requests``, exactly, fault schedule or not;
  2. **breaker sequencing** — recompute attempts per key must follow the
     trip → cooldown (no attempts) → single probe → recovery-or-reopen
     contract, replayed from the attempt log;
  3. **stale-never-error** — a request for a key with a servable (fresh or
     stale) curve never surfaces a 5xx, no matter how broken the API is;
  4. **snapshot restore** — after a mid-run restart (optionally with one
     deliberately torn file) the restored service serves identical curves
     for every intact key and skips damaged ones without crashing.

The harness is single-threaded and drives refreshes inline only (the
background workers stay off), which is what makes invariant 2 checkable:
every recompute attempt is one history fetch, in program order.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.cloud.api import EC2Api
from repro.experiments.common import scaled_universe
from repro.service.drafts_service import DraftsService, ServiceConfig
from repro.service.store import EntryState
from repro.serving.clock import Clock, ManualClock, SystemClock
from repro.serving.gateway import GatewayConfig, ServingGateway
from repro.serving.loadgen import (
    LoadGenerator,
    LoadgenConfig,
    predictable_keys,
)
from repro.util.rng import RngFactory

__all__ = [
    "ChaosConfig",
    "FaultConfig",
    "FaultyApi",
    "FaultyCompute",
    "ReplaySpiker",
    "assert_chaos_invariants",
    "run_chaos",
    "tear_snapshot",
]


@dataclass(frozen=True)
class FaultConfig:
    """Seeded fault rates for one injection point.

    Attributes
    ----------
    error_rate:
        Probability a call raises ``RuntimeError``.
    spike_rate:
        Probability a call stalls for ``spike_seconds`` first (the stall
        happens whether or not the call then fails).
    spike_seconds:
        Injected latency per spike, advanced through the wrapper's clock so
        deadline budgets and breaker cooldowns see it.
    seed:
        Root seed for the fault decision stream.
    """

    error_rate: float = 0.1
    spike_rate: float = 0.0
    spike_seconds: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("error_rate", "spike_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {rate}")
        if self.spike_seconds < 0:
            raise ValueError("spike_seconds must be >= 0")


class FaultyApi:
    """An :class:`EC2Api` whose history reads fail and stall on schedule.

    Only ``describe_spot_price_history`` — the call every curve recompute
    depends on — is intercepted; everything else delegates unchanged.
    ``enabled`` can be toggled to build up fault-free state first. Each
    intercepted call is appended to ``attempts`` as ``{"key", "started",
    "finished", "ok"}`` (wall times), which is the log the chaos harness
    replays the breaker contract against.
    """

    def __init__(
        self,
        api: EC2Api,
        config: FaultConfig | None = None,
        *,
        clock: Clock | None = None,
    ) -> None:
        self._api = api
        self._cfg = config or FaultConfig()
        self._clock = clock or SystemClock()
        self._rng = RngFactory(self._cfg.seed).generator("faulty-api")
        self.enabled = True
        self.injected_errors = 0
        self.injected_spikes = 0
        self.attempts: list[dict] = []

    def __getattr__(self, name):
        return getattr(self._api, name)

    def describe_spot_price_history(
        self, instance_type, zone, now, since=None
    ):
        record = {
            "key": (instance_type, zone),
            "started": self._clock.now(),
            "ok": True,
        }
        try:
            if self.enabled and self._cfg.spike_rate > 0:
                if self._rng.random() < self._cfg.spike_rate:
                    self.injected_spikes += 1
                    self._clock.sleep(self._cfg.spike_seconds)
            if self.enabled and self._cfg.error_rate > 0:
                if self._rng.random() < self._cfg.error_rate:
                    self.injected_errors += 1
                    raise RuntimeError("chaos: injected history-API failure")
            return self._api.describe_spot_price_history(
                instance_type, zone, now, since=since
            )
        except BaseException:
            record["ok"] = False
            raise
        finally:
            record["finished"] = self._clock.now()
            self.attempts.append(record)

    def drain_attempts(self) -> list[dict]:
        """Return and clear the attempt log (phase boundary bookkeeping)."""
        log, self.attempts = self.attempts, []
        return log


class ReplaySpiker:
    """Seeded request-level latency spikes for the socket server.

    Mounts on :class:`repro.serving.aiohttpd.AsyncGatewayHTTPServer` as
    the pre-dispatch ``spike`` hook: each incoming request stalls for
    ``spike_seconds`` with probability ``spike_rate`` (seeded, so the
    expected spike count of a run is reproducible; which requests get hit
    depends on executor-thread arrival order). An armed hook sends every
    request to the server's executor, which is sized to the replay
    concurrency so a stall holds up only the request it hit (with fewer
    threads, overlapping stalls queue unrelated requests behind them and
    the slowness stops being replica-local). With ``spare_hedges=True``
    (the default) requests carrying the replayer's hedge marker are never
    spiked — modelling *replica-local* slowness, the regime hedging is
    designed for (Dean & Barroso): the stall afflicts one copy of a
    request, not the request itself, so a hedge sent elsewhere escapes it.
    """

    def __init__(
        self,
        config: FaultConfig | None = None,
        *,
        clock: Clock | None = None,
        spare_hedges: bool = True,
    ) -> None:
        from repro.serving.replay import HEDGE_HEADER

        self._cfg = config or FaultConfig()
        self._clock = clock or SystemClock()
        self._spare_hedges = spare_hedges
        self._hedge_header = HEDGE_HEADER
        self._rng = RngFactory(self._cfg.seed).generator("replay-spiker")
        self._lock = threading.Lock()
        self.enabled = True
        self.injected_spikes = 0
        self.spared_hedges = 0

    def __call__(self, path: str, headers) -> None:
        if not self.enabled or self._cfg.spike_rate <= 0:
            return
        if self._spare_hedges and headers.get(self._hedge_header):
            with self._lock:
                self.spared_hedges += 1
            return
        with self._lock:  # np.random.Generator is not thread-safe
            spike = self._rng.random() < self._cfg.spike_rate
            if spike:
                self.injected_spikes += 1
        if spike:
            self._clock.sleep(self._cfg.spike_seconds)


class FaultyCompute:
    """A refresher compute callback with seeded failure injection."""

    def __init__(self, compute, config: FaultConfig | None = None) -> None:
        self._compute = compute
        self._cfg = config or FaultConfig()
        self._rng = RngFactory(self._cfg.seed).generator("faulty-compute")
        self.enabled = True
        self.injected_errors = 0

    def __call__(self, key, now):
        if self.enabled and self._cfg.error_rate > 0:
            if self._rng.random() < self._cfg.error_rate:
                self.injected_errors += 1
                raise RuntimeError("chaos: injected recompute failure")
        return self._compute(key, now)


def tear_snapshot(path, mode: str = "truncate", seed: int = 0) -> None:
    """Damage a snapshot file the way a crash or bad disk would.

    ``truncate`` cuts the file mid-body (a torn write), ``flip`` inverts
    one payload byte (silent corruption), ``empty`` leaves zero bytes.
    The framed format must detect all three at read time.
    """
    path = Path(path)
    rng = RngFactory(seed).generator("tear-snapshot")
    raw = bytearray(path.read_bytes())
    if mode == "truncate":
        cut = int(rng.integers(1, max(len(raw), 2)))
        raw = raw[:cut]
    elif mode == "flip":
        pos = int(rng.integers(0, len(raw)))
        raw[pos] ^= 0xFF
    elif mode == "empty":
        raw = bytearray()
    else:
        raise ValueError(f"unknown tear mode {mode!r}")
    path.write_bytes(bytes(raw))


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos run: universe, load shape, fault schedule, restart plan.

    ``restart=True`` checkpoints the service halfway through the request
    stream, tears one per-key snapshot file (``tear_mode``), then restores
    into a brand-new service/gateway pair and keeps driving — the shape of
    a crash with a partially damaged checkpoint directory.
    """

    scale: str = "test"
    n_keys: int = 3
    n_requests: int = 200
    error_rate: float = 0.1
    spike_rate: float = 0.0
    spike_seconds: float = 2.0
    seed: int = 7
    now_drift: float = 30.0
    bid_fraction: float = 0.3
    wall_step_seconds: float = 1.0
    breaker_threshold: int = 3
    breaker_cooldown_seconds: float = 20.0
    deadline_seconds: float | None = None
    invalidate_every: int | None = 20
    restart: bool = True
    tear_mode: str = "truncate"

    def __post_init__(self) -> None:
        if self.n_requests < 2:
            raise ValueError("n_requests must be >= 2")
        if self.n_keys < 1:
            raise ValueError("n_keys must be >= 1")
        if self.wall_step_seconds <= 0:
            raise ValueError("wall_step_seconds must be positive")
        for name in ("error_rate", "spike_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {rate}")
        if self.invalidate_every is not None and self.invalidate_every < 1:
            raise ValueError("invalidate_every must be >= 1 or None")


def _check_conservation(counters: dict) -> dict:
    served = (
        counters["gateway.hits"]
        + counters["gateway.stale_hits"]
        + counters["gateway.misses"]
        + counters["gateway.shed"]
        + counters["gateway.errors"]
    )
    return {
        "requests": counters["gateway.requests"],
        "accounted": served,
        "ok": served == counters["gateway.requests"],
    }


def _check_breaker_sequencing(
    attempts: list[dict], threshold: int, cooldown: float
) -> list[str]:
    """Replay the breaker contract over one gateway's attempt log.

    Assumes one history fetch per recompute attempt (true for every
    refresh path except the never-in-practice ``ladder_change`` double
    fetch) and inline-only refreshes, both guaranteed by the harness.
    """
    violations: list[str] = []
    by_key: dict[tuple, list[dict]] = {}
    for a in attempts:
        by_key.setdefault(a["key"], []).append(a)
    for key, log in by_key.items():
        failures = 0
        open_until: float | None = None
        probing = False
        for a in log:
            if open_until is not None:
                if a["started"] < open_until:
                    violations.append(
                        f"{key}: recompute at t={a['started']:.1f} while "
                        f"breaker open until t={open_until:.1f}"
                    )
                elif probing:
                    violations.append(
                        f"{key}: second probe at t={a['started']:.1f} "
                        "before the first resolved"
                    )
                else:
                    probing = True
            if a["ok"]:
                failures = 0
                open_until = None
                probing = False
            elif probing:
                open_until = a["finished"] + cooldown
                probing = False
            else:
                failures += 1
                if failures >= threshold:
                    open_until = a["finished"] + cooldown
    return violations


def run_chaos(config: ChaosConfig | None = None) -> dict:
    """Drive a gateway through a seeded fault schedule; check invariants.

    Returns a JSON-ready report; ``report["ok"]`` is the conjunction of
    every invariant. Use :func:`assert_chaos_invariants` to turn a bad
    report into an ``AssertionError`` with the violations spelled out.
    """
    import shutil
    import tempfile

    cfg = config or ChaosConfig()
    universe = scaled_universe(cfg.scale)
    keys, start_now = predictable_keys(universe, cfg.n_keys, 0.95)
    clock = ManualClock()
    fault_cfg = FaultConfig(
        error_rate=cfg.error_rate,
        spike_rate=cfg.spike_rate,
        spike_seconds=cfg.spike_seconds,
        seed=cfg.seed,
    )
    api = FaultyApi(EC2Api(universe), fault_cfg, clock=clock)
    gateway_cfg = GatewayConfig(
        breaker_threshold=cfg.breaker_threshold,
        breaker_cooldown_seconds=cfg.breaker_cooldown_seconds,
        deadline_seconds=cfg.deadline_seconds,
    )

    def build_gateway() -> ServingGateway:
        service = DraftsService(api, ServiceConfig(probabilities=(0.95,)))
        return ServingGateway(service, gateway_cfg, clock=clock)

    gateway = build_gateway()
    # Build warm state fault-free: half the keys get a servable curve, the
    # other half stay cold so the stream exercises both the staleness and
    # the breaker machinery once faults switch on.
    api.enabled = False
    for key in keys[::2]:
        gateway.get(
            f"/predictions/{key[0]}/{key[1]}"
            f"?probability={key[2]}&now={start_now}"
        )
    api.enabled = True
    api.drain_attempts()

    stream = LoadGenerator(
        keys,
        LoadgenConfig(
            n_requests=cfg.n_requests,
            seed=cfg.seed,
            start_now=start_now,
            now_drift=cfg.now_drift,
            bid_fraction=cfg.bid_fraction,
        ),
    )
    statuses: dict[int, int] = {}
    stale_violations: list[str] = []
    phases: list[dict] = []
    attempt_logs: list[list[dict]] = []
    restart_info: dict | None = None
    restart_at = cfg.n_requests // 2 if cfg.restart else None
    snapshot_dir = tempfile.mkdtemp(prefix="drafts-chaos-") if cfg.restart else None
    try:
        for i, request in enumerate(stream.requests()):
            if restart_at is not None and i == restart_at:
                phases.append(dict(gateway.snapshot()["counters"]))
                attempt_logs.append(api.drain_attempts())
                restart_info = _restart(
                    gateway, build_gateway, snapshot_dir, cfg
                )
                gateway = restart_info.pop("gateway")
            if (
                cfg.invalidate_every is not None
                and i > 0
                and i % cfg.invalidate_every == 0
            ):
                # Simulated expiry/eviction: every key goes back to a cold
                # miss, so recompute (and therefore the fault schedule and
                # the breaker) stays exercised for the whole stream.
                for key in keys:
                    gateway.store.invalidate(key)
            entry = gateway.store.peek(request.key)
            pre_state = gateway.store.state_of(entry, request.now)
            response = gateway.get(request.url)
            statuses[response.status] = statuses.get(response.status, 0) + 1
            if (
                pre_state in (EntryState.FRESH, EntryState.STALE)
                and response.status >= 500
            ):
                stale_violations.append(
                    f"request {i} ({request.url}): served {response.status} "
                    f"with a {pre_state.value} curve in the store"
                )
            clock.advance(cfg.wall_step_seconds)
        phases.append(dict(gateway.snapshot()["counters"]))
        attempt_logs.append(api.drain_attempts())
    finally:
        if snapshot_dir is not None:
            shutil.rmtree(snapshot_dir, ignore_errors=True)

    conservation = [_check_conservation(c) for c in phases]
    breaker_violations: list[str] = []
    for log in attempt_logs:
        breaker_violations.extend(
            _check_breaker_sequencing(
                log, cfg.breaker_threshold, cfg.breaker_cooldown_seconds
            )
        )
    invariants = {
        "conservation": {
            "ok": all(c["ok"] for c in conservation),
            "phases": conservation,
        },
        "stale_never_error": {
            "ok": not stale_violations,
            "violations": stale_violations,
        },
        "breaker_sequencing": {
            "ok": not breaker_violations,
            "violations": breaker_violations,
        },
        "snapshot_restore": {
            "ok": restart_info is None or restart_info["ok"],
            "detail": restart_info,
        },
    }
    return {
        "config": dataclasses.asdict(cfg),
        "keys": ["{}@{}".format(k[0], k[1]) for k in keys],
        "requests": cfg.n_requests,
        "statuses": {str(s): n for s, n in sorted(statuses.items())},
        "injected": {
            "errors": api.injected_errors,
            "spikes": api.injected_spikes,
        },
        "counters": phases[-1],
        "invariants": invariants,
        "ok": all(section["ok"] for section in invariants.values()),
    }


def _restart(
    gateway: ServingGateway, build_gateway, snapshot_dir: str, cfg: ChaosConfig
) -> dict:
    """Checkpoint, damage one file, restore into a fresh gateway."""
    before = _stored_curves(gateway)
    save_info = gateway.save_state(snapshot_dir)
    torn_file = None
    snaps = sorted(
        p.name for p in Path(snapshot_dir).iterdir() if p.suffix == ".snap"
    )
    if snaps and cfg.tear_mode:
        torn_file = snaps[int(RngFactory(cfg.seed).generator("torn-choice").integers(0, len(snaps)))]
        tear_snapshot(
            Path(snapshot_dir) / torn_file, mode=cfg.tear_mode, seed=cfg.seed
        )
    restored = build_gateway()
    load_info = restored.load_state(snapshot_dir)
    after = _stored_curves(restored)
    intact = [k for k in before if torn_file is None or k != _torn_key(torn_file)]
    curves_identical = all(after.get(k) == before[k] for k in intact)
    expected_skips = 1 if torn_file is not None else 0
    return {
        "gateway": restored,
        "saved": save_info["saved"],
        "loaded": load_info["loaded"],
        "skipped": load_info["skipped"],
        "torn_file": torn_file,
        "curves_identical": curves_identical,
        "ok": curves_identical and load_info["skipped"] == expected_skips,
    }


def _stored_curves(gateway: ServingGateway) -> dict:
    """Every stored curve of ``gateway``, as ``{key: curve dict}``."""
    entries = (gateway.store.peek(key) for key in gateway.store.keys())
    return {
        entry.key: entry.curve.to_dict()
        for entry in entries
        if entry.curve is not None
    }


def _torn_key(torn_file: str):
    from repro.service.persistence import filename_key

    return filename_key(torn_file)


def assert_chaos_invariants(report: dict) -> None:
    """Raise ``AssertionError`` listing every violated invariant."""
    if report["ok"]:
        return
    lines = []
    for name, section in report["invariants"].items():
        if not section["ok"]:
            lines.append(f"{name}: {section}")
    raise AssertionError("chaos invariants violated:\n" + "\n".join(lines))
