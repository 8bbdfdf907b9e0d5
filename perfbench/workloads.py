"""Key sets, request mixes and output oracles of the serving workloads.

A workload's key set is fixed: a list of (instance type, region) groups,
each expanded to every zone the universe offers that type in, so
``/cheapest`` scans only warm keys. The seed picks the request stream:
which route, which key (Zipf-skewed), which duration, and when.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCALE = "bench"
PROBABILITY = 0.95
#: 45 days into the 150-day bench traces: every chosen key has a curve.
START_NOW = 45 * 86400.0
DURATIONS = (1800.0, 3600.0, 7200.0, 14400.0)
#: Route mix: /predictions, /bid, /cheapest.
MIX = (0.6, 0.3, 0.1)
ZIPF_EXPONENT = 1.1

#: A small warm set: 13 keys in 4 groups.
HOT_GROUPS = (
    ("m4.xlarge", "us-east-1"),
    ("r4.4xlarge", "us-east-1"),
    ("i2.xlarge", "us-west-2"),
    ("m3.2xlarge", "us-west-1"),
)

#: A few dozen keys (36, under ``ServiceConfig.max_predictors`` = 128).
DRIFT_GROUPS = HOT_GROUPS + (
    ("r4.large", "us-east-1"),
    ("g2.8xlarge", "us-east-1"),
    ("r3.xlarge", "us-east-1"),
    ("m2.4xlarge", "us-west-2"),
    ("d2.8xlarge", "us-west-2"),
    ("p2.xlarge", "us-west-1"),
    ("i2.4xlarge", "us-west-2"),
)

#: Simulated seconds ``now`` advances per serve-drift request: at the
#: reference rate a key goes stale every ~0.2 s of wall time.
DRIFT_SECONDS_PER_REQUEST = 5.0


def combos_of(universe, groups) -> list[tuple[str, str]]:
    """Every (instance type, zone) the universe offers for ``groups``."""
    wanted = set(groups)
    return sorted(
        (c.instance_type, c.zone.name)
        for c in universe.combos()
        if (c.instance_type, c.zone.region) in wanted
    )


def _zipf(n: int) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=float) ** -ZIPF_EXPONENT
    return weights / weights.sum()


@dataclass(frozen=True)
class Mix:
    """A seeded request stream: route kind, key and duration per request.

    ``kind`` is 0 (/predictions), 1 (/bid) or 2 (/cheapest); ``target``
    indexes the combos (kinds 0 and 1) or the groups (kind 2).
    """

    kind: np.ndarray
    target: np.ndarray
    duration: np.ndarray


def draw_mix(rng: np.random.Generator, count: int, n_combos: int, n_groups: int) -> Mix:
    kind = rng.choice(3, size=count, p=MIX)
    combo = rng.choice(n_combos, size=count, p=_zipf(n_combos))
    group = rng.choice(n_groups, size=count, p=_zipf(n_groups))
    duration = rng.integers(0, len(DURATIONS), size=count)
    return Mix(kind, np.where(kind == 2, group, combo), duration)


def url_for(kind: int, target: int, duration: int, combos, groups, now: float) -> str:
    if kind == 2:
        instance_type, region = groups[target]
        return f"/cheapest/{instance_type}/{region}?probability={PROBABILITY}&now={now}"
    instance_type, zone = combos[target]
    if kind == 1:
        return (
            f"/bid/{instance_type}/{zone}?probability={PROBABILITY}"
            f"&duration={DURATIONS[duration]}&now={now}"
        )
    return f"/predictions/{instance_type}/{zone}?probability={PROBABILITY}&now={now}"


class FixedUrls:
    """The distinct URLs of a fixed-``now`` workload, indexed densely.

    Index layout: one /predictions per combo, then one /bid per
    (combo, duration), then one /cheapest per group.
    """

    def __init__(self, combos, groups, now: float) -> None:
        self.urls: list[str] = []
        for c in range(len(combos)):
            self.urls.append(url_for(0, c, 0, combos, groups, now))
        for c in range(len(combos)):
            for d in range(len(DURATIONS)):
                self.urls.append(url_for(1, c, d, combos, groups, now))
        for g in range(len(groups)):
            self.urls.append(url_for(2, g, 0, combos, groups, now))
        self._n_combos = len(combos)

    def indices(self, mix: Mix) -> np.ndarray:
        n = self._n_combos
        return np.where(
            mix.kind == 0,
            mix.target,
            np.where(
                mix.kind == 1,
                n + mix.target * len(DURATIONS) + mix.duration,
                n + n * len(DURATIONS) + mix.target,
            ),
        )


def oracle_gateway(universe, combos, now: float):
    """The single-worker deployment's gateway: keys batch-fitted with
    ``warm_start`` at ``now`` and the curve store primed. ``server.py``
    serves this gateway; the byte check asks an in-process copy."""
    from repro.cloud.api import EC2Api
    from repro.service.drafts_service import DraftsService, ServiceConfig
    from repro.serving.gateway import GatewayConfig, ServingGateway

    service = DraftsService(EC2Api(universe), ServiceConfig(probabilities=(PROBABILITY,)))
    service.warm_start(combos, now)
    gateway = ServingGateway(service, GatewayConfig(max_inflight=256))
    for instance_type, zone in combos:
        gateway.get(url_for(0, 0, 0, [(instance_type, zone)], [], now))
    return gateway


def expected_answers(gateway, urls) -> list[tuple[int, bytes]]:
    """(status, body bytes) the in-process gateway gives for each URL."""
    from repro.service.rest import encode_body

    answers = []
    for url in urls:
        response = gateway.get(url)
        answers.append((response.status, encode_body(response.body)))
    return answers


def fresh_curve_body(universe, instance_type: str, zone: str, now: float) -> bytes:
    """The /predictions body a freshly built service computes at ``now``."""
    from repro.cloud.api import EC2Api
    from repro.service.drafts_service import DraftsService, ServiceConfig
    from repro.service.rest import encode_body

    service = DraftsService(EC2Api(universe), ServiceConfig(probabilities=(PROBABILITY,)))
    curve = service.curve(instance_type, zone, PROBABILITY, now)
    return encode_body(curve.to_dict())
