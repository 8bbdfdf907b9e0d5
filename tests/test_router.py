"""Shard-router tests: consistent-hash partitioning, scatter-gather
``/cheapest`` merging, and byte parity of every routed status path with
the single-process gateway.

The parity contract is the whole point of the router: a client must not
be able to tell (from bytes on the wire) whether it spoke to one worker
or to N partition-restricted workers behind the front tier — on 200s,
400s, 404s, 429s, 503s and 504s alike. The only sanctioned divergence is
the ``"partial": true`` marker on a degraded scatter merge, which has no
single-process analogue by construction.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.cloud.api import EC2Api
from repro.experiments.common import scaled_universe
from repro.service.drafts_service import DraftsService, ServiceConfig
from repro.service.partition import PartitionedApi, region_of_zone
from repro.service.rest import encode_body
from repro.serving.aiohttpd import AsyncGatewayHTTPServer
from repro.serving.gateway import GatewayConfig, ServingGateway
from repro.serving.httpcore import canned_response, render_response
from repro.serving.httpd import HttpdConfig
from repro.serving.loadgen import predictable_keys
from repro.serving.router import (
    HashRing,
    Partition,
    RouterConfig,
    RouterServer,
    ShardDeployment,
    merge_cheapest,
    plan_shards,
)


@pytest.fixture(scope="module")
def env():
    universe = scaled_universe("test")
    keys, start_now = predictable_keys(universe, 3, 0.95)
    return universe, keys, start_now


def _parity_combos(universe, keys):
    """Every key's type over every zone of its region — the enrolment
    that makes a routed ``/cheapest`` scan cover the same zones as the
    single-process scan."""
    api = EC2Api(universe)
    combos = []
    for t, z, _p in keys:
        for zone in api.describe_availability_zones(region_of_zone(z)):
            if (t, zone) not in combos:
                combos.append((t, zone))
    return combos


def _warm_gateway(universe, combos, start_now, **config):
    gateway = ServingGateway(
        DraftsService(EC2Api(universe), ServiceConfig(probabilities=(0.95,))),
        GatewayConfig(max_inflight=256, **config),
    )
    for t, z in combos:
        response = gateway.get(
            f"/predictions/{t}/{z}?probability=0.95&now={start_now}"
        )
        assert response.status == 200
    return gateway


def _get(address, path):
    """One fresh-connection GET: (status, headers, body bytes)."""
    conn = HTTPConnection(*address, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, dict(response.headers), response.read()
    finally:
        conn.close()


class _GatedApi:
    """History reads block on ``gate`` (and flag ``entered``) — a handle
    to hold a shard's fit in flight at a deterministic point."""

    def __init__(self, api, gate, entered):
        self._api = api
        self._gate = gate
        self._entered = entered

    def __getattr__(self, name):
        return getattr(self._api, name)

    def describe_spot_price_history(self, *args, **kwargs):
        self._entered.set()
        assert self._gate.wait(timeout=30)
        return self._api.describe_spot_price_history(*args, **kwargs)


class TestRingAndPartition:
    def test_ring_owner_is_deterministic(self):
        ids = ("s0", "s1", "s2")
        first, second = HashRing(ids), HashRing(ids)
        keys = [f"m{i}.large|us-east-1{c}" for i in range(40) for c in "abc"]
        owners = [first.owner(k) for k in keys]
        assert owners == [second.owner(k) for k in keys]
        assert set(owners) == set(ids)  # 120 keys spread over 3 shards

    def test_plan_shards_is_exhaustive_and_disjoint(self):
        combos = [
            (f"m{i}.large", f"us-east-1{c}") for i in range(10) for c in "abcd"
        ]
        partition = plan_shards(3, combos)
        seen: set = set()
        for sid in partition.shard_ids:
            owned = set(partition.combos_of(sid))
            assert not owned & seen
            seen |= owned
        assert seen == set(combos)
        for combo in combos:
            assert partition.route(*combo) == partition.owner_of(*combo)

    def test_duplicate_combo_ownership_rejected(self):
        combo = ("m4.large", "us-east-1a")
        with pytest.raises(ValueError, match="owned by both"):
            Partition({"a": [combo], "b": [combo]})

    def test_route_falls_back_to_ring_for_unknown_combo(self):
        combos = [("m4.large", "us-east-1a"), ("m4.large", "us-east-1b")]
        partition = plan_shards(2, combos)
        fallback = partition.route("never.seen", "eu-west-1a")
        assert fallback in partition.shard_ids
        assert fallback == partition.route("never.seen", "eu-west-1a")

    def test_router_requires_url_per_shard(self):
        partition = plan_shards(2, [("m4.large", "us-east-1a")])
        with pytest.raises(ValueError, match="no URL"):
            RouterServer(partition, {"s0": "http://127.0.0.1:1"})


class TestPartitionedScanCache:
    def test_unknown_cheapest_urls_do_not_grow_the_zone_cache(self, env):
        """A shard caches its ``/cheapest`` zone list per owned (type,
        region) only: a flood of URLs naming unknown types or regions
        leaves the cache at its owned size, and owned answers keep their
        account zone order."""
        universe, keys, start_now = env
        t, z, p = keys[0]
        region = region_of_zone(z)
        api = EC2Api(universe)
        zones = api.describe_availability_zones(region)
        other = next(x for x in ("c4.large", "m4.large") if x != t)
        view = PartitionedApi(
            api,
            [(t, zones[1]), (t, zones[0]), (other, zones[0]), (other, zones[-1])],
        )
        gateway = ServingGateway(
            DraftsService(view, ServiceConfig(probabilities=(p,))),
            GatewayConfig(max_inflight=256),
        )
        assert view.zones_for_cheapest(t, region) == (zones[0], zones[1])
        before = dict(view._scan_cache)
        for i in range(2000):
            for url in (
                f"/cheapest/zz{i}.none/{region}?probability={p}&now={start_now}",
                f"/cheapest/{t}/zz-none-{i}?probability={p}&now={start_now}",
            ):
                assert gateway.get(url).status == 404
        assert view._scan_cache == before
        assert view.zones_for_cheapest("zz0.none", region) == ()
        assert view.zones_for_cheapest(t, region) == (zones[0], zones[1])


def _quote(instance_type, region, zone, bid):
    """A shard's 200 ``/cheapest`` answer: (raw wire bytes, body bytes)."""
    body = encode_body(
        {
            "instance_type": instance_type,
            "region": region,
            "zone": zone,
            "minimum_bid": bid,
        }
    )
    return render_response(200, body), body


class TestMergeCheapest:
    RANK = {"us-east-1a": 0, "us-east-1b": 1, "us-east-1c": 2}

    def test_cheapest_candidate_wins_verbatim(self):
        cheap_raw, cheap_body = _quote("m4.large", "us-east-1", "us-east-1b", 0.1)
        dear_raw, dear_body = _quote("m4.large", "us-east-1", "us-east-1a", 0.4)
        merged = merge_cheapest(
            "m4.large",
            "us-east-1",
            [("s0", 200, dear_raw, dear_body), ("s1", 200, cheap_raw, cheap_body)],
            self.RANK,
        )
        assert merged == cheap_raw  # pass-through, not re-encoded

    def test_bid_tie_breaks_on_zone_order(self):
        """Equal bids: the account's earliest zone wins, matching the
        single-process scan's strict-improvement rule."""
        late_raw, late_body = _quote("m4.large", "us-east-1", "us-east-1c", 0.2)
        early_raw, early_body = _quote("m4.large", "us-east-1", "us-east-1a", 0.2)
        merged = merge_cheapest(
            "m4.large",
            "us-east-1",
            [("s0", 200, late_raw, late_body), ("s1", 200, early_raw, early_body)],
            self.RANK,
        )
        assert merged == early_raw

    def test_unquotable_shard_does_not_poison_merge(self):
        """One shard's 503 (its zones cannot quote yet) is skipped, like
        the single scan skipping unquotable zones — the merge stays full."""
        raw, body = _quote("m4.large", "us-east-1", "us-east-1a", 0.3)
        refusal = canned_response(503, "no AZ in us-east-1 can quote m4.large yet")
        merged = merge_cheapest(
            "m4.large",
            "us-east-1",
            [("s0", 503, refusal, b""), ("s1", 200, raw, body)],
            self.RANK,
        )
        assert merged == raw
        assert b"partial" not in merged

    def test_transport_failure_degrades_to_partial(self):
        raw, body = _quote("m4.large", "us-east-1", "us-east-1a", 0.3)
        merged = merge_cheapest(
            "m4.large",
            "us-east-1",
            [("s0", 200, raw, body), ("s1", None, None, None)],
            self.RANK,
        )
        payload = json.loads(merged.partition(b"\r\n\r\n")[2])
        assert payload == {
            "instance_type": "m4.large",
            "region": "us-east-1",
            "zone": "us-east-1a",
            "minimum_bid": 0.3,
            "partial": True,
        }
        assert merged.startswith(b"HTTP/1.1 200 OK\r\n")

    def test_no_candidates_first_answer_passes_through(self):
        """Every shard derives the same non-200 from the same request;
        the first answer is the canonical one."""
        first = canned_response(503, "no AZ in us-east-1 can quote m4.large yet")
        second = canned_response(503, "no AZ in us-east-1 can quote m4.large yet")
        merged = merge_cheapest(
            "m4.large",
            "us-east-1",
            [("s0", 503, first, b""), ("s1", 503, second, b"")],
            self.RANK,
        )
        assert merged == first

    def test_all_failed_is_router_504(self):
        merged = merge_cheapest(
            "m4.large",
            "us-east-1",
            [("s0", None, None, None), ("s1", None, None, None)],
            self.RANK,
        )
        assert merged == canned_response(
            504,
            "cheapest scatter for m4.large in us-east-1 timed out",
            retry_after=1.0,
        )


@pytest.fixture(scope="module")
def deployment(env):
    """A 2-shard inline deployment plus a warm single-process gateway
    over the identical enrolment — the parity reference."""
    universe, keys, start_now = env
    combos = _parity_combos(universe, keys)
    single = _warm_gateway(universe, combos, start_now)
    dep = ShardDeployment(
        universe,
        plan_shards(2, combos),
        start_now=start_now,
        mode="inline",
    )
    dep.start()
    try:
        yield dep, single, combos
    finally:
        dep.stop()


class TestRoutedParity:
    def test_routed_bytes_match_single_gateway(self, env, deployment):
        universe, keys, start_now = env
        dep, single, _combos = deployment
        (t, z, p), _, (t2, z2, _) = keys
        region, region2 = region_of_zone(z), region_of_zone(z2)
        # A (type, region) pair absent from the universe: both sides must
        # refuse with the same 503 (universe has no cg1-class capacity on
        # the west coast at test scale; guard against preset drift).
        assert not any(
            c.instance_type == "cg1.4xlarge"
            and region_of_zone(str(c.zone)) == "us-west-1"
            for c in universe.combos()
        )
        cases = [
            (200, f"/predictions/{t}/{z}?probability={p}&now={start_now}"),
            (
                200,
                f"/bid/{t}/{z}?probability={p}&duration=3600.0&now={start_now}",
            ),
            (200, f"/cheapest/{t}/{region}?probability={p}&now={start_now}"),
            (200, f"/cheapest/{t2}/{region2}?probability={p}&now={start_now}"),
            (400, f"/predictions/{t}/{z}?probability=abc&now={start_now}"),
            (404, "/no/such/route"),
            (
                404,
                f"/bid/{t}/{z}?probability={p}&duration=1e18&now={start_now}",
            ),
            (
                404,
                f"/predictions/no.such.type/{z}"
                f"?probability={p}&now={start_now}",
            ),
            (
                503,
                f"/cheapest/cg1.4xlarge/us-west-1"
                f"?probability={p}&now={start_now}",
            ),
            (
                504,
                f"/predictions/{t}/{z}?probability={p}"
                f"&now={start_now}&deadline=0",
            ),
        ]
        for want_status, url in cases:
            expected = single.get(url)
            assert expected.status == want_status, url
            status, headers, body = _get(dep.router.address, url)
            assert status == expected.status, url
            assert body == encode_body(expected.body), url
            assert headers["Content-Type"] == "application/json"
            assert int(headers["Content-Length"]) == len(body)

    def test_unenrolled_offered_combo_is_a_routed_404(self, env, deployment):
        """The routed tier's one semantic divergence (DESIGN §2.3): a
        combination the account offers but no shard enrolled is a 404
        from its ring owner on every read, never a breaker trip, where
        the single process fits it on first touch and answers 200."""
        universe, _keys, start_now = env
        dep, _single, combos = deployment
        t, z = next(
            tuple(c.key.split("@"))
            for c in universe.combos()
            if tuple(c.key.split("@")) not in combos
        )
        urls = [
            f"/predictions/{t}/{z}?probability=0.95&now={start_now}",
            f"/bid/{t}/{z}?probability=0.95&duration=3600.0&now={start_now}",
        ]
        want = encode_body({"error": f"shard does not own {t} in {z}"})
        for url in urls * 4:
            status, _, body = _get(dep.router.address, url)
            assert (status, body) == (404, want), url
        owner = dep.shard_urls[dep.partition.route(t, z)]
        host, port = owner.removeprefix("http://").split(":")
        metrics = json.loads(_get((host, int(port)), "/metrics")[2])
        assert metrics["counters"]["gateway.breaker_trips"] == 0
        direct = _warm_gateway(universe, [(t, z)], start_now)
        for url in urls:
            assert direct.get(url).status == 200, url

    def test_cheapest_crosses_shards(self, env, deployment):
        """The winning quote's combo and the fan-out set straddle the
        partition — the 200 proves a real scatter-gather merge."""
        universe, keys, start_now = env
        dep, single, _combos = deployment
        t2, z2, p = keys[2]
        region2 = region_of_zone(z2)
        owners = {
            dep.partition.route(t2, zone)
            for zone in EC2Api(universe).describe_availability_zones(region2)
        }
        assert len(owners) == 2  # both shards own zones of this scan
        url = f"/cheapest/{t2}/{region2}?probability={p}&now={start_now}"
        status, _, body = _get(dep.router.address, url)
        assert status == 200
        assert body == encode_body(single.get(url).body)
        assert json.loads(body)["instance_type"] == t2
        assert dep.router.metrics.counter("router.cheapest").value >= 1

    def test_shard_healthz_carries_worker_identity(self, deployment):
        dep, _single, _combos = deployment
        total = 0
        for sid, url in sorted(dep.shard_urls.items()):
            host, port = url.removeprefix("http://").split(":")
            status, _, body = _get((host, int(port)), "/healthz")
            assert status == 200
            identity = json.loads(body)
            assert identity["status"] == "ok"
            assert identity["shard"] == sid
            assert identity["pid"] > 0
            assert identity["owned_keys"] == len(dep.partition.combos_of(sid))
            total += identity["owned_keys"]
        assert total == dep.partition.n_combos

    def test_router_healthz_and_metrics(self, deployment):
        dep, _single, _combos = deployment
        status, _, body = _get(dep.router.address, "/healthz")
        assert status == 200
        assert json.loads(body) == {
            "status": "ok",
            "role": "router",
            "shards": len(dep.partition.shard_ids),
            "owned_combos": dep.partition.n_combos,
        }
        status, _, body = _get(dep.router.address, "/metrics")
        assert status == 200
        snapshot = json.loads(body)
        assert snapshot["counters"]["router.requests"] >= 1
        assert set(snapshot["shards"]) == set(dep.shard_urls)


class TestRoutedShedParity:
    def test_shard_429_passes_through_byte_identical(self, env):
        """Admission-control 429 raised on the owning shard relays through
        the router byte-for-byte, Retry-After included."""
        universe, keys, start_now = env
        t, z, p = keys[0]
        gate, entered = threading.Event(), threading.Event()
        gateway = ServingGateway(
            DraftsService(
                PartitionedApi(
                    _GatedApi(EC2Api(universe), gate, entered), [(t, z)]
                ),
                ServiceConfig(probabilities=(p,)),
            ),
            GatewayConfig(max_inflight=1, retry_after_seconds=2.0),
        )
        url = f"/predictions/{t}/{z}?probability={p}&now={start_now}"
        partition = Partition({"s0": [(t, z)]})
        with AsyncGatewayHTTPServer(gateway, HttpdConfig()) as shard:
            router = RouterServer(partition, {"s0": shard.url})
            router.start()
            slow: dict = {}

            def hold():
                slow["result"] = _get(router.address, url)

            thread = threading.Thread(target=hold)
            thread.start()
            try:
                assert entered.wait(timeout=10)
                expected = gateway.get(url)
                assert expected.status == 429
                status, headers, body = _get(router.address, url)
                assert status == 429
                assert body == encode_body(expected.body)
                assert headers["Retry-After"] == "2"
            finally:
                gate.set()
                thread.join(timeout=30)
                router.stop()
            assert slow["result"][0] == 200


class TestScatterDegradation:
    def test_shard_timeout_yields_partial_merge(self, env):
        """One shard of a two-shard scan wedges past the upstream budget:
        the client still gets the healthy shard's best zone, marked
        ``"partial": true``, and the router counts the degradation."""
        universe, keys, start_now = env
        t, z, p = keys[0]
        region = region_of_zone(z)
        zones = EC2Api(universe).describe_availability_zones(region)
        assert len(zones) >= 2
        gate, entered = threading.Event(), threading.Event()

        def shard_gateway(api, combos):
            return ServingGateway(
                DraftsService(
                    PartitionedApi(api, combos),
                    ServiceConfig(probabilities=(p,)),
                ),
                GatewayConfig(max_inflight=256),
            )

        healthy = shard_gateway(EC2Api(universe), [(t, zones[0])])
        assert (
            healthy.get(
                f"/predictions/{t}/{zones[0]}"
                f"?probability={p}&now={start_now}"
            ).status
            == 200
        )
        wedged = shard_gateway(
            _GatedApi(EC2Api(universe), gate, entered),
            [(t, zn) for zn in zones[1:]],
        )
        partition = Partition(
            {
                "fast": [(t, zones[0])],
                "slow": [(t, zn) for zn in zones[1:]],
            }
        )
        url = f"/cheapest/{t}/{region}?probability={p}&now={start_now}"
        with (
            AsyncGatewayHTTPServer(healthy, HttpdConfig()) as fast,
            AsyncGatewayHTTPServer(wedged, HttpdConfig()) as slow,
        ):
            router = RouterServer(
                partition,
                {"fast": fast.url, "slow": slow.url},
                zone_order={region: zones},
                config=RouterConfig(upstream_timeout_seconds=0.5),
            )
            router.start()
            try:
                status, _, body = _get(router.address, url)
                assert entered.is_set()  # the slow shard really wedged
                assert status == 200
                payload = json.loads(body)
                assert payload["partial"] is True
                assert payload["zone"] == zones[0]
                assert payload["instance_type"] == t
                counters = router.metrics
                assert counters.counter("router.partial_merges").value == 1
                assert counters.counter("router.upstream_timeouts").value >= 1
            finally:
                gate.set()
                router.stop()

    def test_empty_fanout_delegates_to_one_shard(self, env):
        """A region no shard covers for the type fans out to nothing; the
        router must still answer — by delegating to one ring-chosen shard
        whose native refusal passes through."""
        universe, keys, start_now = env
        t, z, p = keys[0]
        other = next(
            r
            for r in ("us-west-2", "us-east-1", "us-west-1")
            if r != region_of_zone(z)
        )
        gateway = ServingGateway(
            DraftsService(
                PartitionedApi(EC2Api(universe), [(t, z)]),
                ServiceConfig(probabilities=(p,)),
            ),
            GatewayConfig(max_inflight=256),
        )
        partition = plan_shards(1, [(t, z)])
        url = f"/cheapest/{t}/{other}?probability={p}&now={start_now}"
        with AsyncGatewayHTTPServer(gateway, HttpdConfig()) as shard:
            router = RouterServer(partition, {"s0": shard.url})
            router.start()
            try:
                status, _, body = _get(router.address, url)
                assert status == 503
                assert json.loads(body)["error"] == (
                    f"no AZ in {other} can quote {t} yet"
                )
            finally:
                router.stop()


class TestDrainAndReport:
    def test_deployment_drain_reports_per_shard_identity(self, env):
        universe, keys, start_now = env
        t, z, _p = keys[0]
        dep = ShardDeployment(
            universe,
            plan_shards(2, [(t, z)]),
            start_now=start_now,
            mode="inline",
        )
        dep.start()
        status, _, _body = _get(
            dep.router.address,
            f"/predictions/{t}/{z}?probability=0.95&now={start_now}",
        )
        assert status == 200
        stats = dep.stop()
        assert stats["drained"] is True
        assert stats["router"]["drained"] is True
        assert set(stats["shards"]) == set(dep.partition.shard_ids)
        for sid, shard_stats in stats["shards"].items():
            assert shard_stats["drained"] is True
            assert shard_stats["identity"]["shard"] == sid

    def test_shard_restart_restores_its_checkpoint(self, env, tmp_path):
        """With a ``snapshot_root`` each shard checkpoints on stop, and a
        restarted deployment restores instead of fitting, serving the same
        routed bytes."""
        universe, keys, start_now = env
        combos = _parity_combos(universe, keys)
        urls = [
            f"/predictions/{t}/{z}?probability=0.95&now={start_now}"
            for t, z in combos
        ]

        def run():
            dep = ShardDeployment(
                universe,
                plan_shards(2, combos),
                start_now=start_now,
                mode="inline",
                snapshot_root=str(tmp_path),
            )
            dep.start()
            try:
                # (status, body) per URL, through the router.
                bodies = [_get(dep.router.address, url)[::2] for url in urls]
                cold_fits = {}
                for sid, url in dep.shard_urls.items():
                    host, port = url.split("//", 1)[1].split(":")
                    metrics = _get((host, int(port)), "/metrics")[2]
                    cold_fits[sid] = json.loads(metrics)["service"]["cold_fits"]
            finally:
                assert dep.stop()["drained"] is True
            return bodies, cold_fits

        before, fitted = run()
        assert sum(fitted.values()) == len(combos)
        assert {status for status, _ in before} == {200}
        after, refitted = run()
        assert after == before
        assert refitted == {sid: 0 for sid in fitted}


class TestClientSockets:
    def test_client_sockets_disable_nagle(self, env):
        # Same contract as the gateway server: the router's server side of
        # every client connection runs with Nagle's algorithm off.
        _universe, keys, _ = env
        t, z, _ = keys[0]
        router = RouterServer(
            Partition({"s0": [(t, z)]}), {"s0": "http://127.0.0.1:1"}
        ).start()

        async def nodelay() -> list[int]:
            return [
                protocol.transport.get_extra_info("socket").getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
                for protocol in router._connections
            ]

        try:
            with socket.create_connection(router.address, timeout=10):
                deadline = time.monotonic() + 10
                while not router._connections:
                    assert time.monotonic() < deadline, "never admitted"
                    time.sleep(0.01)
                got = asyncio.run_coroutine_threadsafe(
                    nodelay(), router._loop
                ).result()
                assert len(got) == 1
                assert all(got)
        finally:
            router.stop()
