"""Deterministic load generation for the serving gateway.

A seeded request stream over a key universe with a Zipf popularity skew —
the canonical shape of read-heavy API traffic (a few hot combinations take
most of the reads, a long tail is rarely asked for). Supports both loop
disciplines:

* **closed loop** — each worker issues its next request as soon as the
  previous one returns (throughput benchmark);
* **open loop** — requests carry Poisson arrival offsets independent of
  completion times (latency/shedding benchmark: arrivals don't slow down
  when the server does), optionally modulated by a diurnal envelope so the
  offered rate breathes the way real user traffic does.

The building blocks are composable generators — :func:`zipf_key_indices`
for popularity and :func:`open_loop_arrivals` for the arrival process — so
the in-process bench and the socket replayer consume the *same* arrival
implementation. Everything derives from the seed; the same config always
produces the same request sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.service.store import CurveKey

__all__ = [
    "DiurnalEnvelope",
    "LoadgenConfig",
    "LoadGenerator",
    "Request",
    "open_loop_arrivals",
    "predictable_keys",
    "zipf_key_indices",
    "zipf_weights",
]


@dataclass(frozen=True)
class DiurnalEnvelope:
    """A sinusoidal rate modulation: traffic that breathes over a "day".

    The instantaneous arrival rate is ``base_rate * factor(t)`` with
    ``factor(t) = 1 + amplitude * sin(2*pi*(t - phase_seconds)/period_seconds)``,
    so a full period swings the offered load between ``(1 - amplitude)`` and
    ``(1 + amplitude)`` times the base rate. ``amplitude=0`` degenerates to
    a homogeneous Poisson process.
    """

    period_seconds: float = 86400.0
    amplitude: float = 0.5
    phase_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.period_seconds <= 0:
            raise ValueError("period_seconds must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must lie in [0, 1)")

    def factor(self, t: float) -> float:
        """Rate multiplier at offset ``t`` seconds from stream start."""
        return 1.0 + self.amplitude * math.sin(
            2.0 * math.pi * (t - self.phase_seconds) / self.period_seconds
        )


def zipf_weights(n_keys: int, exponent: float) -> np.ndarray:
    """The bounded-Zipf popularity law over ``n_keys`` ranks.

    Rank ``r`` (1-based) is drawn with weight ``1/r**exponent``;
    ``exponent=0`` is uniform. Index 0 is popularity rank 1.
    """
    if n_keys < 1:
        raise ValueError("at least one key required")
    if exponent < 0:
        raise ValueError("zipf exponent must be >= 0")
    ranks = np.arange(1, n_keys + 1, dtype=float)
    weights = ranks**-exponent
    return weights / weights.sum()


def zipf_key_indices(
    n_keys: int, exponent: float, rng: np.random.Generator
) -> Iterator[int]:
    """Endless seeded stream of key indices under the Zipf popularity law.

    Draws in blocks so consuming a few million indices stays cheap; the
    stream is a pure function of the generator's state.
    """
    weights = zipf_weights(n_keys, exponent)
    while True:
        block = rng.choice(n_keys, size=1024, p=weights)
        yield from (int(i) for i in block)


def open_loop_arrivals(
    rate: float,
    rng: np.random.Generator,
    diurnal: DiurnalEnvelope | None = None,
) -> Iterator[float]:
    """Endless seeded stream of open-loop arrival offsets (seconds).

    A Poisson process at ``rate`` requests/second, optionally modulated by
    ``diurnal`` via thinning (Lewis & Shedler): candidate arrivals are
    drawn at the envelope's peak rate and accepted with probability
    ``factor(t)/peak``, which yields a nonhomogeneous Poisson process with
    the exact envelope intensity. Arrivals are scheduled by the clock, not
    by completions — the defining property of an open-loop workload: when
    the server slows down, the offered load does not.
    """
    if rate <= 0:
        raise ValueError("arrival rate must be positive")
    if diurnal is None or diurnal.amplitude == 0.0:
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / rate))
            yield t
        return
    peak = rate * (1.0 + diurnal.amplitude)
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / peak))
        accept = rate * diurnal.factor(t) / peak
        if rng.random() < accept:
            yield t


def predictable_keys(
    universe, n_keys: int, probability: float
) -> tuple[list[CurveKey], float]:
    """Predictable (type, zone, p) keys plus a warm simulation instant.

    Walks the universe's per-class subsample until ``n_keys`` combinations
    produce a servable curve 45 days into their trace — the key universe
    every serving harness (bench, chaos, socket replay) drives load over.
    """
    from repro.cloud.api import EC2Api
    from repro.service.drafts_service import DraftsService, ServiceConfig

    service = DraftsService(
        EC2Api(universe), ServiceConfig(probabilities=(probability,))
    )
    keys: list[CurveKey] = []
    start_now = 0.0
    for combo in universe.subsample(per_class=2):
        now = universe.trace(combo).start + 45 * 86400.0
        curve = service.curve(
            combo.instance_type, combo.zone.name, probability, now
        )
        if curve is not None:
            keys.append((combo.instance_type, combo.zone.name, probability))
            start_now = max(start_now, now)
        if len(keys) >= n_keys:
            break
    if not keys:
        raise RuntimeError("no combination in the universe is predictable")
    return keys, start_now


@dataclass(frozen=True)
class Request:
    """One generated request.

    Attributes
    ----------
    url:
        The gateway URL to GET.
    key:
        The curve key the request targets.
    arrival:
        Wall-clock offset (seconds from stream start) at which an
        open-loop driver should issue it; 0 for closed-loop streams.
    now:
        The simulation instant embedded in the URL.
    """

    url: str
    key: CurveKey
    arrival: float
    now: float


@dataclass(frozen=True)
class LoadgenConfig:
    """Load-shape parameters.

    Attributes
    ----------
    n_requests:
        Stream length.
    seed:
        Root seed; the stream is a pure function of it.
    zipf_exponent:
        Popularity skew ``s``: key at popularity rank r drawn with weight
        1/r^s (0 = uniform).
    mode:
        ``"closed"`` or ``"open"``.
    arrival_rate:
        Open-loop Poisson arrival rate (requests/second of wall time).
    diurnal:
        Optional :class:`DiurnalEnvelope` modulating the open-loop rate;
        ``None`` keeps the process homogeneous.
    bid_fraction:
        Fraction of requests hitting ``/bid`` (the rest ``/predictions``).
    start_now:
        Simulation instant of the first request.
    now_drift:
        Simulation seconds advanced per request — drives entries across
        the staleness horizon mid-stream.
    durations:
        Candidate durations (seconds) for ``/bid`` requests.
    """

    n_requests: int = 1000
    seed: int = 0
    zipf_exponent: float = 1.1
    mode: str = "closed"
    arrival_rate: float = 500.0
    diurnal: DiurnalEnvelope | None = None
    bid_fraction: float = 0.3
    start_now: float = 0.0
    now_drift: float = 0.0
    durations: tuple[float, ...] = field(
        default=(1800.0, 3600.0, 7200.0, 14400.0)
    )

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if self.mode not in ("closed", "open"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.zipf_exponent < 0:
            raise ValueError("zipf_exponent must be >= 0")
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if not 0.0 <= self.bid_fraction <= 1.0:
            raise ValueError("bid_fraction must lie in [0, 1]")


class LoadGenerator:
    """Seeded request stream over a fixed key universe."""

    def __init__(
        self, keys: Sequence[CurveKey], config: LoadgenConfig | None = None
    ) -> None:
        if not keys:
            raise ValueError("at least one key required")
        self._keys = tuple(keys)
        self._cfg = config or LoadgenConfig()

    @property
    def config(self) -> LoadgenConfig:
        """The load-shape configuration."""
        return self._cfg

    def key_weights(self) -> np.ndarray:
        """The bounded-Zipf popularity law over the key universe.

        Keys keep their given order: index 0 is popularity rank 1.
        """
        return zipf_weights(len(self._keys), self._cfg.zipf_exponent)

    def requests(self) -> Iterator[Request]:
        """Yield the deterministic request stream."""
        cfg = self._cfg
        rng = np.random.default_rng(cfg.seed)
        key_stream = zipf_key_indices(
            len(self._keys), cfg.zipf_exponent, rng
        )
        key_indices = [next(key_stream) for _ in range(cfg.n_requests)]
        is_bid = rng.random(cfg.n_requests) < cfg.bid_fraction
        duration_indices = rng.integers(
            0, len(cfg.durations), size=cfg.n_requests
        )
        if cfg.mode == "open":
            arrival_stream = open_loop_arrivals(
                cfg.arrival_rate, rng, cfg.diurnal
            )
            arrivals = [next(arrival_stream) for _ in range(cfg.n_requests)]
        else:
            arrivals = [0.0] * cfg.n_requests
        for i in range(cfg.n_requests):
            key = self._keys[key_indices[i]]
            instance_type, zone, probability = key
            now = cfg.start_now + cfg.now_drift * i
            if is_bid[i]:
                duration = cfg.durations[duration_indices[i]]
                url = (
                    f"/bid/{instance_type}/{zone}?probability={probability}"
                    f"&duration={duration}&now={now}"
                )
            else:
                url = (
                    f"/predictions/{instance_type}/{zone}"
                    f"?probability={probability}&now={now}"
                )
            yield Request(
                url=url, key=key, arrival=float(arrivals[i]), now=now
            )
