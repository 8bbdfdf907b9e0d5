"""One route table: ``RestRouter``, ``ServingGateway`` and ``RouterServer``
resolve every URL to the same route, because all three read it from
:func:`repro.service.rest.parse_route`; and one handler set: ``RestRouter``
and every gateway answer a curve route with the same status and body,
because both build it in :func:`repro.service.rest.respond`."""

from __future__ import annotations

import pytest

from repro.cloud.api import EC2Api
from repro.service.drafts_service import DraftsService
from repro.service.partition import PartitionedApi
from repro.service.rest import RestRouter, parse_route
from repro.serving.clock import ManualClock
from repro.serving.gateway import ServingGateway
from repro.serving.router import Partition, RouterServer

T, Z, R = "c4.large", "us-east-1b", "us-east-1"

#: (URL template, route kind, status on both in-process routers).
CASES = [
    # Repeated query keys: the last value wins.
    ("/predictions/{t}/{z}?probability=0.5&probability=0.95&now={now}",
     "predictions", 200),
    ("/predictions/{t}/{z}?probability=0.95&probability=abc&now={now}",
     "predictions", 400),
    # Blank values count as missing; a blank name is ignored.
    ("/predictions/{t}/{z}?probability=&now={now}", "predictions", 400),
    # A malformed optional deadline is the same 400 on every tier.
    ("/predictions/{t}/{z}?probability=0.95&now={now}&deadline=abc",
     "predictions", 400),
    ("/bid/{t}/{z}?=1&probability=0.95&duration=3600&now={now}", "bid", 200),
    # Empty path segments (doubled and trailing slashes) are ignored.
    ("/predictions//{t}//{z}?probability=0.95&now={now}", "predictions", 200),
    ("/bid/{t}/{z}/?probability=0.95&duration=3600&now={now}", "bid", 200),
    ("/cheapest/{t}/{r}/?probability=0.95&now={now}", "cheapest", 200),
    # A fragment is never part of the route.
    ("/predictions/{t}/{z}?probability=0.95&now={now}#frag", "predictions", 200),
    ("/healthz#x", "health", 200),
    ("/health/", "health", 200),
    # Unknown routes, including a URL urlsplit rejects.
    ("/no/such#frag", "", 404),
    ("/predictions/{t}", "", 404),
    ("//predictions/{t}/{z}?probability=0.95&now={now}", "", 404),
    ("//[x/predictions", "", 404),
]


@pytest.fixture(scope="module")
def tiers(small_universe):
    api = EC2Api(small_universe)
    now = small_universe.trace(small_universe.combo(T, Z)).start + 45 * 86400.0
    rest = RestRouter(DraftsService(api))
    gateway = ServingGateway(DraftsService(api), clock=ManualClock())
    router = RouterServer(Partition({"s0": [(T, Z)]}), {"s0": "http://127.0.0.1:9"})
    return rest, gateway, router, now


@pytest.mark.parametrize(
    "template, kind, status", CASES, ids=[c[0] for c in CASES]
)
def test_every_tier_resolves_the_same_route(tiers, template, kind, status):
    rest, gateway, router, now = tiers
    url = template.format(t=T, z=Z, r=R, now=now)
    assert parse_route(url).kind == kind
    direct = rest.get(url)
    served = gateway.get(url)
    assert (direct.status, direct.body) == (served.status, served.body)
    assert served.status == status
    decision = router._route(url)
    if kind in ("predictions", "bid"):
        assert decision == ("proxy", "s0")
    elif kind == "cheapest":
        assert decision == ("cheapest", T, R)
    elif kind == "health":
        assert decision == ("healthz",)
    else:
        assert decision[0] == "notfound"
        assert served.body == {"error": f"no route for {decision[1]!r}"}


#: ``/cheapest`` naming a region or an instance type the account does not
#: know: (type, region, error) — a 404, as a ``/predictions`` read of it.
UNKNOWN_SCANS = [
    ("c3.2xlarge", "zz-none", "unknown region 'zz-none'"),
    ("zz0.none", "us-west-1", "unknown instance type 'zz0.none'"),
]


@pytest.mark.parametrize(
    "instance_type, region, error", UNKNOWN_SCANS, ids=[c[1] for c in UNKNOWN_SCANS]
)
def test_cheapest_of_unknown_names_is_404(
    tiers, small_universe, instance_type, region, error
):
    rest, gateway, router, now = tiers
    url = f"/cheapest/{instance_type}/{region}?probability=0.95&now={now}"
    # A shard worker behind the router, which delegates an empty fan-out.
    shard = ServingGateway(
        DraftsService(PartitionedApi(EC2Api(small_universe), [(T, Z)])),
        clock=ManualClock(),
    )
    assert router._route(url) == ("cheapest", instance_type, region)
    for _ in range(4):
        for tier in (rest, gateway, shard):
            response = tier.get(url)
            assert (response.status, response.body) == (404, {"error": error})



#: ``/cheapest`` at a probability the service does not publish, naming an
#: unknown region or instance type: (type, region). The level is checked
#: first, so every tier answers 400, as ``/predictions`` and ``/bid`` do.
UNPUBLISHED_SCANS = [
    ("c3.2xlarge", "zz-none"),
    ("zz0.none", "us-west-1"),
]


@pytest.mark.parametrize(
    "instance_type, region",
    UNPUBLISHED_SCANS,
    ids=[c[1] for c in UNPUBLISHED_SCANS],
)
def test_cheapest_at_unpublished_level_is_400_before_names(
    tiers, small_universe, instance_type, region
):
    rest, gateway, router, now = tiers
    url = f"/cheapest/{instance_type}/{region}?probability=0.5&now={now}"
    shard = ServingGateway(
        DraftsService(PartitionedApi(EC2Api(small_universe), [(T, Z)])),
        clock=ManualClock(),
    )
    error = "service does not publish probability 0.5; levels: (0.95, 0.99)"
    assert router._route(url) == ("cheapest", instance_type, region)
    for tier in (rest, gateway, shard):
        response = tier.get(url)
        assert (response.status, response.body) == (400, {"error": error})


class _DownApi:
    """A history API that is down: every history read raises."""

    def __init__(self, api):
        self._api = api

    def __getattr__(self, name):
        return getattr(self._api, name)

    def describe_spot_price_history(self, *args, **kwargs):
        raise RuntimeError("history API down")


#: (URL template, API wrapper, status, error): one answer on every tier.
UNAVAILABLE = [
    # Too little history for any curve: /bid answers as /predictions does.
    ("/bid/{t}/{z}?probability=0.95&duration=1800&now={early}", None, 503,
     "insufficient history for a prediction"),
    # A failing history API is a retryable 503, not a client error.
    ("/predictions/{t}/{z}?probability=0.95&now={now}", _DownApi, 503,
     "history API down"),
    ("/bid/{t}/{z}?probability=0.95&duration=1800&now={now}", _DownApi, 503,
     "history API down"),
    ("/cheapest/{t}/{r}?probability=0.95&now={now}", _DownApi, 503,
     "history API down"),
]


@pytest.mark.parametrize(
    "template, wrap, status, error",
    UNAVAILABLE,
    ids=[f"{c[0].split('?')[0]}-{c[3]}" for c in UNAVAILABLE],
)
def test_every_tier_answers_the_same(small_universe, template, wrap, status, error):
    api = EC2Api(small_universe)
    if wrap is not None:
        api = wrap(api)
    start = small_universe.trace(small_universe.combo(T, Z)).start
    url = template.format(
        t=T, z=Z, r=R, now=start + 45 * 86400.0, early=start + 3600.0
    )
    tiers = (
        RestRouter(DraftsService(api)),
        ServingGateway(DraftsService(api), clock=ManualClock()),
        # A shard worker owning the combination.
        ServingGateway(
            DraftsService(PartitionedApi(api, [(T, Z)])), clock=ManualClock()
        ),
    )
    for tier in tiers:
        response = tier.get(url)
        assert (response.status, response.body) == (status, {"error": error})
