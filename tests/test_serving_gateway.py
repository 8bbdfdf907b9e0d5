"""Integration tests for the serving gateway.

Uses the session-scoped ``small_universe`` and a :class:`ManualClock`, so
every wall-time decision (deadlines, breaker cooldowns) is deterministic.
"""

import threading

import pytest

from repro.cloud.api import EC2Api
from repro.service.client import DraftsClient
from repro.service.drafts_service import DraftsService, ServiceConfig
from repro.service.rest import RestRouter, encode_body
from repro.service.store import EntryState
from repro.serving.clock import ManualClock
from repro.serving.gateway import GatewayConfig, ServingGateway, warm_gateway


def _wait_until(predicate, timeout=5.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


@pytest.fixture(scope="module")
def env(request):
    small_universe = request.getfixturevalue("small_universe")
    api = EC2Api(small_universe)
    gateway = ServingGateway(DraftsService(api), clock=ManualClock())
    combo = small_universe.combo("c4.large", "us-east-1b")
    now = small_universe.trace(combo).start + 45 * 86400.0
    return gateway, now


class _FlakyApi:
    """Delegating API whose history reads can be switched to fail."""

    def __init__(self, api):
        self._api = api
        self.fail = False
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._api, name)

    def describe_spot_price_history(self, instance_type, zone, now, since=None):
        self.calls += 1
        if self.fail:
            raise RuntimeError("history API down")
        return self._api.describe_spot_price_history(
            instance_type, zone, now, since=since
        )


class _BlockingApi:
    """Delegating API whose history reads block on an event."""

    def __init__(self, api):
        self._api = api
        self.entered = threading.Event()
        self.release = threading.Event()
        self.block = False

    def __getattr__(self, name):
        return getattr(self._api, name)

    def describe_spot_price_history(self, instance_type, zone, now, since=None):
        if self.block:
            self.entered.set()
            assert self.release.wait(10.0)
        return self._api.describe_spot_price_history(
            instance_type, zone, now, since=since
        )


class TestRoutes:
    def test_health_and_unknown(self, env):
        gateway, _ = env
        assert gateway.get("/health").ok
        assert gateway.get("/nope").status == 404

    def test_predictions_bid_cheapest(self, env):
        gateway, now = env
        pred = gateway.get(
            f"/predictions/c4.large/us-east-1b?probability=0.95&now={now}"
        )
        assert pred.status == 200
        assert len(pred.body["bids"]) == len(pred.body["durations"])

        bid = gateway.get(
            f"/bid/c4.large/us-east-1b?probability=0.95&duration=1800&now={now}"
        )
        assert bid.status == 200 and bid.body["bid"] > 0

        cheapest = gateway.get(
            f"/cheapest/c4.large/us-east-1?probability=0.95&now={now}"
        )
        assert cheapest.status == 200
        assert cheapest.body["zone"].startswith("us-east-1")

    def test_error_statuses_match_router_semantics(self, env):
        gateway, now = env
        # missing param → 400, malformed float → 400 naming the parameter
        assert gateway.get("/predictions/c4.large/us-east-1b?now=1").status == 400
        bad = gateway.get(
            "/predictions/c4.large/us-east-1b?probability=abc&now=1"
        )
        assert bad.status == 400 and "probability" in bad.body["error"]
        # unpublished probability level → 400
        assert (
            gateway.get(
                f"/predictions/c4.large/us-east-1b?probability=0.5&now={now}"
            ).status
            == 400
        )
        # unknown combination → 404
        assert (
            gateway.get(
                f"/predictions/cg1.4xlarge/us-west-2a?probability=0.95&now={now}"
            ).status
            == 404
        )

    def test_metrics_route(self, env):
        gateway, now = env
        gateway.get(f"/predictions/c4.large/us-east-1b?probability=0.95&now={now}")
        snap = gateway.get("/metrics")
        assert snap.status == 200
        assert "counters" in snap.body and "store" in snap.body
        assert snap.body["store"]["entries"] >= 1


class TestInlineProbe:
    """The event-loop front end's non-blocking dispatch probe."""

    @pytest.fixture()
    def probe_env(self, small_universe):
        api = EC2Api(small_universe)
        gateway = ServingGateway(DraftsService(api), clock=ManualClock())
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        return gateway, now

    def test_in_memory_routes_are_inline(self, probe_env):
        gateway, _ = probe_env
        for url in ("/health", "/metrics", "/nope", "/predictions/only"):
            assert gateway.probe_inline(url) == (True, None)

    def test_malformed_query_is_inline_400(self, probe_env):
        gateway, now = probe_env
        # Missing and unparseable parameters answer 400 from memory.
        assert gateway.probe_inline(
            "/predictions/c4.large/us-east-1b?now=1"
        ) == (True, None)
        assert gateway.probe_inline(
            f"/predictions/c4.large/us-east-1b?probability=abc&now={now}"
        ) == (True, None)

    def test_cheapest_always_offloads(self, probe_env):
        gateway, now = probe_env
        assert gateway.probe_inline(
            f"/cheapest/c4.large/us-east-1?probability=0.95&now={now}"
        ) == (False, None)

    def test_cheapest_over_warm_zones_is_inline(self, probe_env):
        gateway, now = probe_env
        url = f"/cheapest/c4.large/us-east-1?probability=0.95&now={now}"
        offloaded = gateway.get(url)  # fits every zone of the scan
        assert offloaded.status == 200
        assert gateway.probe_inline(url) == (True, None)
        # Stale entries still answer inline, as for /predictions.
        later = now + gateway.store.refresh_seconds + 1.0
        stale_url = f"/cheapest/c4.large/us-east-1?probability=0.95&now={later}"
        assert gateway.probe_inline(stale_url) == (True, None)
        assert gateway.get(url) == offloaded

    def test_cheapest_skips_zones_the_type_is_not_offered_in(self, probe_env):
        """cg1.4xlarge is offered in two of us-east-1's zones; the scan's
        reads of the others are 404s from memory, so a scan whose offered
        zones are warm is inline."""
        gateway, now = probe_env
        url = f"/cheapest/cg1.4xlarge/us-east-1?probability=0.95&now={now}"
        assert gateway.probe_inline(url) == (False, None)
        offloaded = gateway.get(url)  # fits the two offered zones
        assert offloaded.status == 200
        assert gateway.probe_inline(url) == (True, None)
        assert gateway.get(url) == offloaded

    def test_cheapest_with_one_cold_zone_offloads_without_side_effects(
        self, probe_env
    ):
        gateway, now = probe_env
        zones = gateway.service.api.describe_availability_zones("us-east-1")
        for zone in zones[:-1]:
            url = f"/predictions/c4.large/{zone}?probability=0.95&now={now}"
            assert gateway.get(url).status == 200
        keys = [("c4.large", zone, 0.95) for zone in zones]
        popularity = [gateway.store.popularity(key) for key in keys]
        before = gateway.metrics.snapshot()
        assert gateway.probe_inline(
            f"/cheapest/c4.large/us-east-1?probability=0.95&now={now}"
        ) == (False, None)
        assert gateway.store.peek(keys[-1]) is None
        assert [gateway.store.popularity(key) for key in keys] == popularity
        assert gateway.metrics.snapshot() == before

    def test_cold_key_offloads_without_store_side_effects(self, probe_env):
        gateway, now = probe_env
        url = f"/predictions/c4.large/us-east-1b?probability=0.95&now={now}"
        before = gateway.metrics.snapshot()
        assert gateway.probe_inline(url) == (False, None)
        # Side-effect free: no store entry appeared, no counter moved.
        assert gateway.store.peek(("c4.large", "us-east-1b", 0.95)) is None
        assert gateway.metrics.snapshot() == before

    def test_warm_key_is_inline_and_yields_the_stored_curve(self, probe_env):
        gateway, now = probe_env
        url = f"/predictions/c4.large/us-east-1b?probability=0.95&now={now}"
        assert gateway.get(url).status == 200
        can_inline, curve = gateway.probe_inline(url)
        assert can_inline and gateway.can_serve_inline(url)
        entry = gateway.store.peek(("c4.large", "us-east-1b", 0.95))
        assert curve is entry.curve

    def test_stale_key_is_still_inline(self, probe_env):
        gateway, now = probe_env
        url = f"/predictions/c4.large/us-east-1b?probability=0.95&now={now}"
        assert gateway.get(url).status == 200
        entry = gateway.store.peek(("c4.large", "us-east-1b", 0.95))
        later = now + gateway.store.refresh_seconds + 1.0
        assert gateway.store.state_of(entry, later) is EntryState.STALE
        stale_url = (
            f"/predictions/c4.large/us-east-1b?probability=0.95&now={later}"
        )
        assert gateway.probe_inline(stale_url) == (True, entry.curve)

    def test_bid_route_shares_the_prediction_entry(self, probe_env):
        gateway, now = probe_env
        warm = f"/predictions/c4.large/us-east-1b?probability=0.95&now={now}"
        assert gateway.get(warm).status == 200
        can_inline, curve = gateway.probe_inline(
            f"/bid/c4.large/us-east-1b?probability=0.95&duration=1800&now={now}"
        )
        assert can_inline and curve is not None

    @pytest.mark.parametrize(
        "url, status",
        [
            # An unknown type in a known region: scan_zones' 404.
            ("/cheapest/zz0.none/us-west-1?probability=0.95&now={now}", 404),
            # A combination the account does not offer: check_offered's 404.
            ("/predictions/zz0.none/us-east-1b?probability=0.95&now={now}", 404),
            ("/predictions/c4.large/zz-none1a?probability=0.95&now={now}", 404),
            (
                "/bid/zz0.none/us-east-1b?probability=0.95&duration=1800"
                "&now={now}",
                404,
            ),
            (
                "/predictions/cg1.4xlarge/us-west-2a?probability=0.95"
                "&now={now}",
                404,
            ),
            # A level the service does not publish: check_probability's 400.
            ("/predictions/c4.large/us-east-1b?probability=0.5&now={now}", 400),
            (
                "/bid/c4.large/us-east-1b?probability=0.5&duration=1800"
                "&now={now}",
                400,
            ),
            ("/cheapest/c4.large/us-east-1?probability=0.5&now={now}", 400),
        ],
    )
    def test_rejected_cold_reads_are_inline(self, probe_env, url, status):
        """A URL the handler's checks reject needs no fit: its answer is
        in memory, so the probe keeps it on the event loop."""
        gateway, now = probe_env
        url = url.format(now=now)
        assert gateway.probe_inline(url) == (True, None)
        assert gateway.get(url).status == status

    def test_unpublished_level_of_one_level_service_is_inline(
        self, small_universe
    ):
        """``serve`` publishes one level (0.95); a 0.99 read is a 400."""
        gateway = ServingGateway(
            DraftsService(
                EC2Api(small_universe), ServiceConfig(probabilities=(0.95,))
            ),
            clock=ManualClock(),
        )
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        url = f"/predictions/c4.large/us-east-1b?probability=0.99&now={now}"
        assert gateway.probe_inline(url) == (True, None)
        assert gateway.get(url).status == 400


class TestOneCurveCache:
    """The gateway reads the service's store: one cache of curves."""

    def test_gateway_store_is_the_service_store(self, small_universe):
        service = DraftsService(EC2Api(small_universe))
        gateway = ServingGateway(service, clock=ManualClock())
        assert gateway.store is gateway.service.store is service.store

    def test_invalidated_key_recomputes_on_next_read(self, small_universe):
        api = _FlakyApi(EC2Api(small_universe))
        gateway = ServingGateway(DraftsService(api), clock=ManualClock())
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        key = ("c4.large", "us-east-1b", 0.95)
        url = "/predictions/c4.large/us-east-1b?probability=0.95&now={}"
        assert gateway.get(url.format(now)).status == 200
        assert gateway.store.invalidate(key)
        refreshes = gateway.service.cache_info()["incremental_refreshes"]
        calls = api.calls
        later = now + 60.0
        assert gateway.get(url.format(later)).status == 200
        # A real recompute: one delta fetch, stamped at the read's instant.
        assert api.calls == calls + 1
        assert gateway.store.peek(key).computed_at == later
        info = gateway.service.cache_info()
        assert info["incremental_refreshes"] == refreshes + 1

    def test_warm_gateway_issues_no_priming_reads(self, small_universe):
        combos = [
            ("c4.large", zone) for zone in ("us-east-1b", "us-east-1c")
        ]
        combo = small_universe.combo(*combos[0])
        now = small_universe.trace(combo).start + 45 * 86400.0
        gateway = warm_gateway(small_universe, combos, now, 0.95)
        assert gateway.metrics.counter("gateway.requests").value == 0
        assert gateway.metrics.counter("serving.recomputes").value == 0
        for instance_type, zone in combos:
            entry = gateway.store.peek((instance_type, zone, 0.95))
            assert gateway.store.state_of(entry, now) is EntryState.FRESH


class TestDifferential:
    def test_fresh_answers_bit_identical_across_universe(self, small_universe):
        """Cold gateway reads must serialise byte-for-byte like the lazy
        service across the (subsampled) universe — the gateway is a cache
        in front of DraftsService, never a different predictor."""
        api = EC2Api(small_universe)
        gateway = ServingGateway(DraftsService(api), clock=ManualClock())
        reference = DraftsService(EC2Api(small_universe))
        for combo in small_universe.subsample(per_class=1):
            now = small_universe.trace(combo).start + 45 * 86400.0
            expected = reference.curve(
                combo.instance_type, combo.zone.name, 0.95, now
            )
            response = gateway.get(
                f"/predictions/{combo.instance_type}/{combo.zone.name}"
                f"?probability=0.95&now={now}"
            )
            if expected is None:
                assert response.status == 503
            else:
                assert response.status == 200
                assert response.body == expected.to_dict()

    def test_deterministic_replay(self, small_universe):
        """Same universe, same clock, same request sequence → identical
        bodies and identical metrics counters."""
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        urls = [
            f"/predictions/c4.large/us-east-1b?probability=0.95&now={now}",
            f"/bid/c4.large/us-east-1b?probability=0.95&duration=1800&now={now}",
            f"/predictions/c4.large/us-east-1b?probability=0.95&now={now + 1800}",
        ]

        def run():
            gateway = ServingGateway(
                DraftsService(EC2Api(small_universe)), clock=ManualClock()
            )
            bodies = [gateway.get(url).body for url in urls]
            gateway.refresher.run_pending()
            return bodies, gateway.metrics.snapshot()["counters"]

        assert run() == run()


class TestStaleWhileRevalidate:
    def test_stale_read_serves_old_curve_and_refreshes_off_path(
        self, small_universe
    ):
        api = EC2Api(small_universe)
        gateway = ServingGateway(DraftsService(api), clock=ManualClock())
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        url = "/predictions/c4.large/us-east-1b?probability=0.95&now={}"

        first = gateway.get(url.format(now))
        key = ("c4.large", "us-east-1b", 0.95)
        generation_before = gateway.store.peek(key).generation

        stale = gateway.get(url.format(now + 3600.0))
        # Served immediately from the stale entry (same body) ...
        assert stale.body == first.body
        assert gateway.metrics.counter("gateway.stale_hits").value == 1
        # ... while the recompute waits in the background queue.
        assert gateway.refresher.pending_count() == 1
        gateway.refresher.run_pending()
        entry = gateway.store.peek(key)
        assert entry.generation == generation_before + 1
        assert entry.computed_at == now + 3600.0
        assert gateway.store.state_of(entry, now + 3600.0) is EntryState.FRESH

    def test_refresh_of_a_key_already_fresh_is_no_recompute(
        self, small_universe
    ):
        """A queued refresh whose key another reader refreshed meanwhile
        computes nothing, so ``serving.recomputes`` counts only real
        recomputes."""
        service = DraftsService(EC2Api(small_universe))
        gateway = ServingGateway(service, clock=ManualClock())
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        url = "/predictions/c4.large/us-east-1b?probability=0.95&now={}"
        assert gateway.get(url.format(now)).status == 200  # cold: computes
        assert gateway.get(url.format(now + 3600.0)).status == 200  # pokes
        # A lazy reader over the same service refreshes the key first.
        assert RestRouter(service).get(url.format(now + 3600.0)).status == 200
        recomputes = gateway.metrics.counter("serving.recomputes").value
        service_recomputes = service.cache_info()["recomputes"]
        assert gateway.refresher.run_pending() == 1
        assert gateway.metrics.counter("serving.recomputes").value == recomputes
        assert service.cache_info()["recomputes"] == service_recomputes

    def test_snapshot_exposes_service_refresh_split(self, small_universe):
        gateway = ServingGateway(
            DraftsService(EC2Api(small_universe)), clock=ManualClock()
        )
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        url = "/predictions/c4.large/us-east-1b?probability=0.95&now={}"
        gateway.get(url.format(now))
        gateway.get(url.format(now + 3600.0))
        gateway.refresher.run_pending()
        service = gateway.snapshot()["service"]
        assert service["cold_fits"] == 1
        assert service["refits"] == 0
        assert service["incremental_refreshes"] >= 1
        assert service["recomputes"] == (
            service["cold_fits"]
            + service["refits"]
            + service["incremental_refreshes"]
        )


class TestCoalescing:
    def test_concurrent_cold_misses_single_recompute(self, small_universe):
        api = _BlockingApi(EC2Api(small_universe))
        gateway = ServingGateway(DraftsService(api), clock=ManualClock())
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        url = f"/predictions/c4.large/us-east-1b?probability=0.95&now={now}"
        key = ("c4.large", "us-east-1b", 0.95)

        api.block = True
        statuses = []
        lock = threading.Lock()

        def fetch():
            response = gateway.get(url)
            with lock:
                statuses.append(response.status)

        leader = threading.Thread(target=fetch)
        leader.start()
        assert api.entered.wait(10.0)  # leader is inside the recompute

        followers = [threading.Thread(target=fetch) for _ in range(7)]
        for thread in followers:
            thread.start()
        assert _wait_until(
            lambda: gateway.refresher.single_flight.followers(key) == 7
        )
        api.release.set()
        leader.join()
        for thread in followers:
            thread.join()

        counters = gateway.metrics.snapshot()["counters"]
        assert statuses == [200] * 8
        assert counters["serving.recomputes"] == 1  # K misses, one compute
        assert counters["serving.coalesced"] == 7
        assert counters["gateway.misses"] == 8


class TestLoadShedding:
    def test_excess_inflight_sheds_with_retry_after(self, small_universe):
        api = _BlockingApi(EC2Api(small_universe))
        gateway = ServingGateway(
            DraftsService(api),
            GatewayConfig(max_inflight=1, retry_after_seconds=2.5),
            clock=ManualClock(),
        )
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        url = f"/predictions/c4.large/us-east-1b?probability=0.95&now={now}"

        api.block = True
        holder_status = []
        holder = threading.Thread(
            target=lambda: holder_status.append(gateway.get(url).status)
        )
        holder.start()
        assert api.entered.wait(10.0)  # the one slot is taken

        shed = gateway.get(url)
        assert shed.status == 429
        assert shed.body["retry_after"] == 2.5

        api.release.set()
        holder.join()
        assert holder_status == [200]

        counters = gateway.metrics.snapshot()["counters"]
        assert counters["gateway.shed"] == 1
        assert (
            counters["gateway.hits"]
            + counters["gateway.stale_hits"]
            + counters["gateway.misses"]
            + counters["gateway.shed"]
            + counters.get("gateway.errors", 0)
            == counters["gateway.requests"]
        )


class TestCircuitBreaker:
    def _broken_gateway(self, small_universe, clock):
        api = _FlakyApi(EC2Api(small_universe))
        gateway = ServingGateway(
            DraftsService(api),
            GatewayConfig(breaker_threshold=3, breaker_cooldown_seconds=60.0),
            clock=clock,
        )
        return api, gateway

    def test_trips_to_ondemand_fallback_and_recovers(self, small_universe):
        clock = ManualClock()
        api, gateway = self._broken_gateway(small_universe, clock)
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        bid_url = (
            f"/bid/c4.large/us-east-1b?probability=0.95&duration=1800&now={now}"
        )

        api.fail = True
        for _ in range(3):  # three failing recomputes trip the breaker
            assert gateway.get(bid_url).status == 503

        fallback = gateway.get(bid_url)
        assert fallback.status == 200
        assert fallback.body["tier"] == "ondemand"
        assert fallback.body["fallback"] is True
        assert fallback.body["bid"] == pytest.approx(
            gateway.service.api.ondemand_price("c4.large", "us-east-1")
        )
        counters = gateway.metrics.snapshot()["counters"]
        assert counters["gateway.breaker_trips"] == 1
        assert counters["gateway.breaker_short_circuits"] == 1
        assert counters["gateway.fallbacks"] == 1

        # After the cooldown the circuit half-opens; a healthy recompute
        # closes it and real answers come back.
        api.fail = False
        clock.advance(61.0)
        recovered = gateway.get(bid_url)
        assert recovered.status == 200
        assert "fallback" not in recovered.body

    def test_half_open_admits_exactly_one_probe(self, small_universe):
        """Regression: after the cooldown, concurrent requests must not all
        probe at once (the thundering half-open). Exactly one takes the
        probe lease; everyone else stays on the fallback until it
        resolves."""
        clock = ManualClock()
        flaky = _FlakyApi(EC2Api(small_universe))
        api = _BlockingApi(flaky)
        gateway = ServingGateway(
            DraftsService(api),
            GatewayConfig(breaker_threshold=3, breaker_cooldown_seconds=60.0),
            clock=clock,
        )
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        url = f"/predictions/c4.large/us-east-1b?probability=0.95&now={now}"

        flaky.fail = True
        for _ in range(3):
            assert gateway.get(url).status == 503
        assert gateway.metrics.counter("gateway.breaker_trips").value == 1

        clock.advance(61.0)
        flaky.fail = False
        api.block = True
        probe_result = []
        probe = threading.Thread(
            target=lambda: probe_result.append(gateway.get(url))
        )
        probe.start()
        assert api.entered.wait(10.0)  # the probe is inside the recompute
        calls_during_probe = flaky.calls

        # A second request while the probe is in flight short-circuits to
        # the fallback instead of starting a second probe.
        concurrent = gateway.get(url)
        assert concurrent.status == 503
        assert concurrent.body["fallback"] == "ondemand"
        assert flaky.calls == calls_during_probe  # no second recompute

        api.release.set()
        probe.join()
        assert probe_result[0].status == 200
        # The successful probe closed the circuit; answers are real again.
        assert gateway.get(url).status == 200
        counters = gateway.metrics.snapshot()["counters"]
        assert counters["gateway.breaker_trips"] == 1
        assert counters["gateway.breaker_reopens"] == 0

    def test_failed_probe_reopens_without_new_threshold(self, small_universe):
        """Regression: a failed probe must re-open the circuit immediately
        (one wasted recompute per cooldown), not leave it closed until
        `threshold` fresh failures accumulate again."""
        clock = ManualClock()
        api, gateway = self._broken_gateway(small_universe, clock)
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        url = f"/predictions/c4.large/us-east-1b?probability=0.95&now={now}"
        api.fail = True
        for _ in range(3):
            gateway.get(url)
        clock.advance(61.0)

        calls_before = api.calls
        assert gateway.get(url).status == 503  # the probe runs — and fails
        assert api.calls == calls_before + 1
        counters = gateway.metrics.snapshot()["counters"]
        assert counters["gateway.breaker_reopens"] == 1
        assert counters["gateway.breaker_trips"] == 1  # a reopen is no trip

        # Fully open again: the next request never touches the API.
        response = gateway.get(url)
        assert response.status == 503
        assert response.body["fallback"] == "ondemand"
        assert api.calls == calls_before + 1

    def test_probe_success_resets_stale_failure_count(self, small_universe):
        """Regression: recovery must clear the pre-trip failure count, so
        one later failure cannot instantly re-trip the breaker."""
        clock = ManualClock()
        api, gateway = self._broken_gateway(small_universe, clock)
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        url = "/predictions/c4.large/us-east-1b?probability=0.95&now={}"
        api.fail = True
        for _ in range(3):
            gateway.get(url.format(now))
        clock.advance(61.0)
        api.fail = False
        assert gateway.get(url.format(now)).status == 200  # probe: recover

        # One fresh failure (a background refresh of the now-stale entry)
        # is 1 of 3, not 4 of 3: the circuit stays closed.
        api.fail = True
        stale = gateway.get(url.format(now + 3600.0))
        assert stale.status == 200  # stale-while-revalidate still serves
        gateway.refresher.run_pending()  # the background recompute fails
        counters = gateway.metrics.snapshot()["counters"]
        assert counters["gateway.breaker_trips"] == 1
        api.fail = False
        assert gateway.get(url.format(now + 3600.0)).status == 200

    def test_predictions_while_open_is_503_with_hint(self, small_universe):
        clock = ManualClock()
        api, gateway = self._broken_gateway(small_universe, clock)
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        url = f"/predictions/c4.large/us-east-1b?probability=0.95&now={now}"
        api.fail = True
        for _ in range(3):
            gateway.get(url)
        response = gateway.get(url)
        assert response.status == 503
        assert response.body["fallback"] == "ondemand"
        assert response.body["retry_after"] == 60.0


class TestNotOffered:
    """A combination the account does not offer is a 404 on every read.
    It is not a failing recompute, so it never reaches the breaker, and
    the gateway keeps no per-key state for it."""

    @staticmethod
    def _gateway_and_now(small_universe):
        gateway = ServingGateway(
            DraftsService(EC2Api(small_universe)), clock=ManualClock()
        )
        combo = small_universe.combo("c4.large", "us-east-1b")
        return gateway, small_universe.trace(combo).start + 45 * 86400.0

    def test_repeated_reads_stay_404_and_never_trip_the_breaker(
        self, small_universe
    ):
        gateway, now = self._gateway_and_now(small_universe)
        unknown_type = ("zz99.none", "us-east-1b")
        unoffered_zone = ("c4.large", "us-east-1q")
        for itype, zone in (unknown_type, unoffered_zone):
            for url in (
                f"/predictions/{itype}/{zone}?probability=0.95&now={now}",
                f"/bid/{itype}/{zone}?probability=0.95&duration=3600&now={now}",
            ):
                answers = [gateway.get(url) for _ in range(5)]
                assert [a.status for a in answers] == [404] * 5, url
                first = encode_body(answers[0].body)
                assert all(encode_body(a.body) == first for a in answers), url
        counters = gateway.metrics.snapshot()["counters"]
        assert counters["gateway.breaker_trips"] == 0
        assert counters["gateway.fallbacks"] == 0
        assert counters["serving.refresh_failures"] == 0

    def test_unknown_urls_do_not_grow_per_key_maps(self, small_universe):
        gateway, now = self._gateway_and_now(small_universe)
        warm = f"/predictions/c4.large/us-east-1b?probability=0.95&now={now}"
        assert gateway.get(warm).status == 200
        assert gateway.get(warm).status == 200

        def map_sizes():
            breaker = gateway._breaker
            return (
                sum(len(shard.popularity) for shard in gateway.store._shards),
                len(breaker._failures),
                len(breaker._open_until),
                len(breaker._probes),
            )

        before = map_sizes()
        for i in range(200):
            url = f"/predictions/zz{i}.none/us-east-1b?probability=0.95&now={now}"
            assert gateway.get(url).status == 404
        assert map_sizes() == before
        assert gateway.store.popularity(("c4.large", "us-east-1b", 0.95)) == 1


class TestDeadlines:
    def test_no_budget_left_skips_recompute(self, small_universe):
        gateway = ServingGateway(
            DraftsService(EC2Api(small_universe)), clock=ManualClock()
        )
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        response = gateway.get(
            f"/predictions/c4.large/us-east-1b"
            f"?probability=0.95&now={now}&deadline=0"
        )
        assert response.status == 504
        assert gateway.metrics.counter("gateway.deadline_exceeded").value == 1
        # The recompute was skipped entirely.
        assert gateway.metrics.counter("serving.recomputes").value == 0

    def test_slow_recompute_returns_504(self, small_universe):
        clock = ManualClock()
        api = EC2Api(small_universe)

        class _SlowApi:
            def __getattr__(self, name):
                return getattr(api, name)

            def describe_spot_price_history(
                self, instance_type, zone, now, since=None
            ):
                clock.advance(9.0)  # the recompute "takes" 9 wall seconds
                return api.describe_spot_price_history(
                    instance_type, zone, now, since=since
                )

        gateway = ServingGateway(DraftsService(_SlowApi()), clock=clock)
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        url = (
            f"/predictions/c4.large/us-east-1b"
            f"?probability=0.95&now={now}&deadline=5"
        )
        assert gateway.get(url).status == 504
        # The curve *was* computed and cached, so a retry is instant.
        assert gateway.get(url).status == 200


class TestDeadlineAccounting:
    class _SteppingClock(ManualClock):
        """A clock that jumps ``step`` seconds on every read — models a
        request whose wall time elapses between handler entry and exit."""

        def __init__(self):
            super().__init__()
            self.step = 0.0

        def now(self):
            value = super().now()
            if self.step:
                self.advance(self.step)
            return value

    def test_deadline_counted_once_when_it_fires_twice(self, small_universe):
        """Regression: a deadline that trips mid-handler (zone 2 of a
        /cheapest scan) *and* post-hoc used to increment
        ``deadline_exceeded`` twice for one request."""
        clock = ManualClock()
        api = EC2Api(small_universe)

        class _SlowApi:
            def __getattr__(self, name):
                return getattr(api, name)

            def describe_spot_price_history(
                self, instance_type, zone, now, since=None
            ):
                clock.advance(6.0)  # each zone's recompute "takes" 6 s
                return api.describe_spot_price_history(
                    instance_type, zone, now, since=since
                )

        gateway = ServingGateway(DraftsService(_SlowApi()), clock=clock)
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        response = gateway.get(
            f"/cheapest/c4.large/us-east-1?probability=0.95&now={now}&deadline=5"
        )
        assert response.status == 504
        counters = gateway.metrics.snapshot()["counters"]
        assert counters["gateway.deadline_exceeded"] == 1
        assert counters["gateway.errors"] == 1
        assert (
            counters["gateway.hits"]
            + counters["gateway.stale_hits"]
            + counters["gateway.misses"]
            + counters["gateway.shed"]
            + counters["gateway.errors"]
            == counters["gateway.requests"]
            == 1
        )

    def test_late_504_is_not_classified_as_a_hit(self, small_universe):
        """Regression: a request that found a fresh curve but overran its
        budget returns 504 — it must be accounted as an error, not a
        served hit."""
        clock = self._SteppingClock()
        gateway = ServingGateway(
            DraftsService(EC2Api(small_universe)), clock=clock
        )
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        url = f"/predictions/c4.large/us-east-1b?probability=0.95&now={now}"
        assert gateway.get(url).status == 200  # warm the store (a miss)

        clock.step = 6.0  # from here every clock read burns 6 wall seconds
        late = gateway.get(url + "&deadline=5")
        assert late.status == 504
        counters = gateway.metrics.snapshot()["counters"]
        assert counters["gateway.hits"] == 0  # the fresh read was not a hit
        assert counters["gateway.misses"] == 1  # just the warming request
        assert counters["gateway.errors"] == 1
        assert counters["gateway.deadline_exceeded"] == 1


class TestBidStatuses:
    def test_short_history_is_503_matching_predictions(self, small_universe):
        """Regression: /bid answered 404 where /predictions answered 503
        for the same too-short history."""
        gateway = ServingGateway(
            DraftsService(EC2Api(small_universe)), clock=ManualClock()
        )
        combo = small_universe.combo("c4.large", "us-east-1b")
        early = small_universe.trace(combo).start + 3600.0
        pred = gateway.get(
            f"/predictions/c4.large/us-east-1b?probability=0.95&now={early}"
        )
        bid = gateway.get(
            f"/bid/c4.large/us-east-1b"
            f"?probability=0.95&duration=1800&now={early}"
        )
        assert pred.status == 503
        assert bid.status == 503
        assert "insufficient history" in bid.body["error"]

    def test_404_reserved_for_unguaranteeable_duration(self, small_universe):
        """404 means: a real curve exists, but no published bid guarantees
        the requested duration."""
        gateway = ServingGateway(
            DraftsService(EC2Api(small_universe)), clock=ManualClock()
        )
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        bid = gateway.get(
            f"/bid/c4.large/us-east-1b"
            f"?probability=0.95&duration=1e12&now={now}"
        )
        assert bid.status == 404
        assert "On-demand" in bid.body["error"]


class TestGatewayClient:
    def test_client_over_gateway(self, small_universe):
        gateway = ServingGateway(
            DraftsService(EC2Api(small_universe)), clock=ManualClock()
        )
        client = DraftsClient(gateway)
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        assert client.health()
        curve = client.fetch_curve("c4.large", "us-east-1b", 0.95, now)
        assert curve is not None and curve.minimum_bid > 0
        assert client.bid_for("c4.large", "us-east-1b", 0.95, 1800.0, now) > 0
        snapshot = client.metrics()
        assert snapshot is not None and snapshot["counters"]["gateway.misses"] >= 1

    def test_client_retries_sheds(self):
        class _ShedOnce:
            def __init__(self):
                self.calls = 0

            def get(self, url):
                from repro.service.rest import Response

                self.calls += 1
                if self.calls == 1:
                    return Response(429, {"retry_after": 1.5})
                return Response(200, {"status": "ok"})

        sleeps = []
        endpoint = _ShedOnce()
        client = DraftsClient(endpoint, shed_retries=2, sleep=sleeps.append)
        assert client.health()
        assert endpoint.calls == 2
        assert sleeps == [1.5]


class TestAccounting:
    def test_identity_over_mixed_traffic(self, small_universe):
        gateway = ServingGateway(
            DraftsService(EC2Api(small_universe)), clock=ManualClock()
        )
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        urls = [
            f"/predictions/c4.large/us-east-1b?probability=0.95&now={now}",  # miss
            f"/predictions/c4.large/us-east-1b?probability=0.95&now={now}",  # hit
            f"/predictions/c4.large/us-east-1b?probability=0.95&now={now + 3600}",  # stale
            "/predictions/c4.large/us-east-1b?probability=abc&now=1",  # error
            f"/bid/c4.large/us-east-1b?probability=0.95&duration=1800&now={now + 3600}",
            "/health",  # not a curve request: counted as "other"
        ]
        for url in urls:
            gateway.get(url)
        counters = gateway.metrics.snapshot()["counters"]
        assert counters["gateway.requests"] == 5
        assert (
            counters["gateway.hits"]
            + counters["gateway.stale_hits"]
            + counters["gateway.misses"]
            + counters.get("gateway.shed", 0)
            + counters["gateway.errors"]
            == counters["gateway.requests"]
        )
        assert counters["gateway.other"] == 1

    def test_identity_across_deadline_breaker_and_404_paths(
        self, small_universe
    ):
        """The conservation identity must survive every exceptional path in
        one stream: deadline 504s, breaker trips and short-circuits,
        unguaranteeable-duration 404s, parse-error 400s."""
        clock = ManualClock()
        api = _FlakyApi(EC2Api(small_universe))
        gateway = ServingGateway(
            DraftsService(api),
            GatewayConfig(breaker_threshold=2, breaker_cooldown_seconds=60.0),
            clock=clock,
        )
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        pred = f"/predictions/c4.large/us-east-1b?probability=0.95&now={now}"

        assert gateway.get(pred + "&deadline=0").status == 504  # error
        api.fail = True
        assert gateway.get(pred).status == 503  # failure 1 of 2
        assert gateway.get(pred).status == 503  # failure 2: trips
        assert gateway.get(pred).status == 503  # short-circuit to fallback
        api.fail = False
        bid404 = gateway.get(  # other zone: real curve, hopeless duration
            f"/bid/c4.large/us-east-1c?probability=0.95&duration=1e12&now={now}"
        )
        assert bid404.status == 404
        assert gateway.get(  # parse error
            "/predictions/c4.large/us-east-1b?probability=abc&now=1"
        ).status == 400

        counters = gateway.metrics.snapshot()["counters"]
        assert counters["gateway.requests"] == 6
        assert counters["gateway.deadline_exceeded"] == 1
        assert counters["gateway.breaker_trips"] == 1
        assert counters["gateway.breaker_short_circuits"] == 1
        assert (
            counters["gateway.hits"]
            + counters["gateway.stale_hits"]
            + counters["gateway.misses"]
            + counters["gateway.shed"]
            + counters["gateway.errors"]
            == counters["gateway.requests"]
        )

    def test_malformed_deadline_is_a_400_counted_as_an_error(
        self, small_universe
    ):
        gateway = ServingGateway(
            DraftsService(EC2Api(small_universe)), clock=ManualClock()
        )
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        warm = f"/predictions/c4.large/us-east-1b?probability=0.95&now={now}"
        cold = f"/predictions/c4.large/us-east-1c?probability=0.95&now={now}"
        assert gateway.get(warm).status == 200
        for url in (warm, cold):
            response = gateway.get(url + "&deadline=abc")
            assert response.status == 400
            assert "deadline" in response.body["error"]
        counters = gateway.metrics.snapshot()["counters"]
        assert counters["gateway.requests"] == 3
        assert counters["gateway.errors"] == 2
        assert (
            counters["gateway.hits"]
            + counters["gateway.stale_hits"]
            + counters["gateway.misses"]
            + counters["gateway.shed"]
            + counters["gateway.errors"]
            == counters["gateway.requests"]
        )
