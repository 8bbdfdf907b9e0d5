"""Unit tests for the DrAFTS service and its cache behaviour."""

import math

import numpy as np
import pytest

from repro.cloud.api import HISTORY_WINDOW_SECONDS, EC2Api
from repro.core.drafts import DraftsConfig, DraftsPredictor
from repro.market.traces import PriceTrace
from repro.service.drafts_service import DraftsService, ServiceConfig
from repro.service.rest import RestRouter

DAY = 86400.0


def curves_equal(a, b) -> bool:
    """Bit-equality of published curves, with nan == nan allowed."""
    if a is None or b is None:
        return a is b
    if a.bids != b.bids or a.computed_at != b.computed_at:
        return False
    return all(
        x == y or (math.isnan(x) and math.isnan(y))
        for x, y in zip(a.durations, b.durations)
    )


class _ScriptedApi:
    """A minimal history API over one synthetic trace — same windowing and
    delta semantics as :class:`EC2Api`, but with a trace the test controls
    (long horizons, injected spikes)."""

    def __init__(self, trace: PriceTrace) -> None:
        self._trace = trace

    def check_offered(self, instance_type, zone):
        """Every name is offered: the one trace answers any key."""

    def describe_spot_price_history(self, instance_type, zone, now, since=None):
        window = self._trace.window_before(now, HISTORY_WINDOW_SECONDS)
        if since is None:
            return window.with_labels(instance_type, zone)
        keep = window.times > since
        if not keep.any():
            return None
        return PriceTrace(
            window.times[keep].copy(),
            window.prices[keep].copy(),
            instance_type,
            zone,
        )


def _hourly_trace(days: int, rng: int = 0, spikes: dict | None = None):
    """A positive hourly-price trace; ``spikes`` maps hour index -> price."""
    n = days * 24
    r = np.random.default_rng(rng)
    prices = np.abs(0.08 * (1.0 + 0.05 * r.standard_normal(n))) + 0.01
    for hour, price in (spikes or {}).items():
        prices[hour] = price
    return PriceTrace(3600.0 * np.arange(n), prices)


@pytest.fixture(scope="module")
def service_env(request):
    small_universe = request.getfixturevalue("small_universe")
    api = EC2Api(small_universe)
    service = DraftsService(api)
    combo = small_universe.combo("c4.large", "us-east-1b")
    now = small_universe.trace(combo).start + 45 * 86400.0
    return service, now


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(probabilities=())
        with pytest.raises(ValueError):
            ServiceConfig(probabilities=(1.2,))
        with pytest.raises(ValueError):
            ServiceConfig(refresh_seconds=0)

    def test_paper_defaults(self):
        cfg = ServiceConfig()
        assert cfg.probabilities == (0.95, 0.99)
        assert cfg.refresh_seconds == 900.0
        assert cfg.ladder_increment == 0.05
        assert cfg.ladder_span == 4.0


class TestCurves:
    def test_curve_published(self, service_env):
        service, now = service_env
        curve = service.curve("c4.large", "us-east-1b", 0.95, now)
        assert curve is not None
        assert curve.probability == 0.95
        assert curve.instance_type == "c4.large"
        assert len(curve) >= 20  # 5% rungs to 4x the minimum

    def test_unpublished_probability_rejected(self, service_env):
        service, now = service_env
        with pytest.raises(ValueError):
            service.curve("c4.large", "us-east-1b", 0.80, now)

    def test_cache_hit_within_refresh_window(self, service_env):
        service, now = service_env
        a = service.curve("c4.large", "us-east-1b", 0.95, now)
        b = service.curve("c4.large", "us-east-1b", 0.95, now + 100.0)
        assert a is b  # same object: served from cache

    def test_recompute_after_refresh_interval(self, service_env):
        service, now = service_env
        a = service.curve("c4.large", "us-east-1b", 0.95, now)
        c = service.curve("c4.large", "us-east-1b", 0.95, now + 3600.0)
        assert a is not c

    def test_insufficient_history_returns_none(self, small_universe):
        api = EC2Api(small_universe)
        service = DraftsService(api)
        combo = small_universe.combo("c4.large", "us-east-1b")
        early = small_universe.trace(combo).start + 4 * 3600.0
        assert service.curve("c4.large", "us-east-1b", 0.95, early) is None


class TestQueries:
    """Point queries, through the REST answers built over the service."""

    def test_bid_for_duration(self, service_env):
        service, now = service_env
        router = RestRouter(service)
        url = "/bid/c4.large/us-east-1b?probability=0.95&duration={}&now={}"
        bid = router.get(url.format(1800.0, now))
        assert bid.status == 200
        assert not math.isnan(bid.body["bid"])
        # No published rung guarantees the duration: nan, answered as 404.
        huge = router.get(url.format(500 * 3600.0, now))
        assert huge.status == 404

    def test_cheapest_zone(self, service_env):
        service, now = service_env
        response = RestRouter(service).get(
            f"/cheapest/c4.large/us-east-1?probability=0.95&now={now}"
        )
        assert response.status == 200
        zone, bid = response.body["zone"], response.body["minimum_bid"]
        assert zone.startswith("us-east-1")
        assert bid > 0
        # It really is the cheapest among the region's curves.
        for z in ("us-east-1b", "us-east-1c", "us-east-1d", "us-east-1e"):
            curve = service.curve("c4.large", z, 0.95, now)
            if curve is not None:
                assert bid <= curve.minimum_bid + 1e-12

    def test_cheapest_zone_skips_unoffered(self, service_env):
        service, now = service_env
        # cg1.4xlarge exists only in two us-east-1 AZs; the query must
        # succeed using just those.
        response = RestRouter(service).get(
            f"/cheapest/cg1.4xlarge/us-east-1?probability=0.95&now={now}"
        )
        assert response.status == 200
        assert response.body["zone"] in ("us-east-1b", "us-east-1c")


class TestRefreshEdges:
    def test_past_query_recomputes(self, small_universe):
        """``now < computed_at`` (a backtest rewinding time) must not be
        served from the future-computed cache entry."""
        api = EC2Api(small_universe)
        service = DraftsService(api)
        combo = small_universe.combo("c4.large", "us-east-1b")
        late = small_universe.trace(combo).start + 50 * 86400.0
        a = service.curve("c4.large", "us-east-1b", 0.95, late)
        b = service.curve("c4.large", "us-east-1b", 0.95, late - 5 * 86400.0)
        assert a is not None and b is not None
        assert a is not b  # recomputed, not served stale-from-the-future
        # And the rewound query's answer only uses history before it.
        assert b.computed_at <= late - 5 * 86400.0


class TestPredictorEviction:
    def test_lru_bound_and_cache_info(self, small_universe):
        api = EC2Api(small_universe)
        service = DraftsService(
            api, ServiceConfig(probabilities=(0.95,), max_predictors=2)
        )
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        for zone in ("us-east-1b", "us-east-1c", "us-east-1d"):
            service.curve("c4.large", zone, 0.95, now)
        info = service.cache_info()
        assert info["entries"] == 3  # curves stay cached ...
        assert info["predictors"] == 2  # ... but predictors are bounded
        assert info["evictions"] == 1
        assert info["recomputes"] == 3

    def test_recompute_replaces_predictor(self, small_universe):
        api = EC2Api(small_universe)
        service = DraftsService(api, ServiceConfig(probabilities=(0.95,)))
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        service.curve("c4.large", "us-east-1b", 0.95, now)
        service.curve("c4.large", "us-east-1b", 0.95, now + 3600.0)
        info = service.cache_info()
        assert info["recomputes"] == 2
        assert info["predictors"] == 1  # replaced, not accumulated

    def test_hit_miss_counters(self, small_universe):
        api = EC2Api(small_universe)
        service = DraftsService(api, ServiceConfig(probabilities=(0.95,)))
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        service.curve("c4.large", "us-east-1b", 0.95, now)
        service.curve("c4.large", "us-east-1b", 0.95, now + 10.0)
        info = service.cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 1


class TestIncrementalRefresh:
    """The tentpole contract: steady-state refreshes are delta-fed into a
    long-lived online predictor, full refits happen only on the documented
    discontinuities, and every published curve is bit-identical to a
    from-scratch batch fit of the same history."""

    P = 0.95

    def _fresh(self, small_universe, **overrides):
        api = EC2Api(small_universe)
        service = DraftsService(
            api, ServiceConfig(probabilities=(self.P,), **overrides)
        )
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * DAY
        return api, service, now

    def _batch_curve(self, api, service, zone, now):
        """A from-scratch fit of the key's windowed history at ``now``,
        using the key's pinned ladder domain."""
        info = service.key_info("c4.large", zone, self.P)
        history = api.describe_spot_price_history("c4.large", zone, now)
        cfg = DraftsConfig(
            probability=self.P,
            ladder_increment=service.config.ladder_increment,
            ladder_span=service.config.ladder_span,
            max_price=info["max_price"],
        )
        return DraftsPredictor(history, cfg).curve_at(
            len(history), instance_type="c4.large", zone=zone
        )

    def test_refresh_boundaries_bit_identical_to_batch(self, small_universe):
        api, service, now = self._fresh(small_universe)
        zone = "us-east-1b"
        for k in range(6):
            t = now + k * 960.0
            served = service.curve("c4.large", zone, self.P, t)
            assert served is not None
            assert curves_equal(
                served, self._batch_curve(api, service, zone, t)
            ), f"diverged at refresh boundary {k}"
        info = service.cache_info()
        assert info["cold_fits"] == 1
        assert info["refits"] == 0
        assert info["refit_reasons"] == {"cold": 1}
        assert info["incremental_refreshes"] == 5
        assert info["recomputes"] == (
            info["cold_fits"]
            + info["refits"]
            + info["incremental_refreshes"]
        )

    def test_zero_announcement_delta_republishes_same_object(
        self, small_universe
    ):
        api, service, now = self._fresh(small_universe, refresh_seconds=60.0)
        zone = "us-east-1b"
        t1 = now + 10.0  # cursor lands on the 300-s announcement grid
        a = service.curve("c4.large", zone, self.P, t1)
        b = service.curve("c4.large", zone, self.P, t1 + 61.0)  # stale, no news
        assert b is a  # the identical object is republished
        info = service.cache_info()
        assert info["cold_fits"] == 1
        assert info["incremental_refreshes"] == 1

    def test_rewind_forces_full_refit(self, small_universe):
        api, service, now = self._fresh(small_universe)
        zone = "us-east-1b"
        a = service.curve("c4.large", zone, self.P, now)
        b = service.curve("c4.large", zone, self.P, now - 5 * DAY)
        assert a is not None and b is not None
        assert not curves_equal(a, b)
        assert service.cache_info()["refit_reasons"] == {"cold": 1, "rewind": 1}
        assert curves_equal(
            b, self._batch_curve(api, service, zone, now - 5 * DAY)
        )

    def test_gap_beyond_api_window_forces_full_refit(self, small_universe):
        api, service, now = self._fresh(small_universe)
        zone = "us-east-1b"
        service.curve("c4.large", zone, self.P, now)
        # 136d - 90d window = 46d > the 45d cursor: announcements missed.
        far = now + 91 * DAY
        b = service.curve("c4.large", zone, self.P, far)
        assert service.cache_info()["refit_reasons"] == {"cold": 1, "gap": 1}
        assert curves_equal(b, self._batch_curve(api, service, zone, far))

    def test_warm_refits_are_not_counted_as_cold_fits(self, small_universe):
        api, service, now = self._fresh(small_universe)
        zone = "us-east-1b"
        service.curve("c4.large", zone, self.P, now)
        service.curve("c4.large", zone, self.P, now + 960.0)
        service.curve("c4.large", zone, self.P, now - 5 * DAY)  # rewind
        service.curve("c4.large", zone, self.P, now + 91 * DAY)  # gap
        info = service.cache_info()
        reasons = info["refit_reasons"]
        assert reasons == {"cold": 1, "rewind": 1, "gap": 1}
        # Only the first touch found the key without predictor state.
        assert info["cold_fits"] == reasons["cold"]
        assert info["refits"] == sum(
            count for reason, count in reasons.items() if reason != "cold"
        )

    def test_eviction_then_refit_stays_identical(self, small_universe):
        api, service, now = self._fresh(small_universe, max_predictors=1)
        for k in range(4):
            t = now + k * 960.0
            for zone in ("us-east-1b", "us-east-1c"):
                served = service.curve("c4.large", zone, self.P, t)
                assert curves_equal(
                    served, self._batch_curve(api, service, zone, t)
                ), f"diverged after eviction at boundary {k} ({zone})"
        info = service.cache_info()
        assert info["predictors"] == 1
        assert info["evictions"] == 7  # every touch displaced the other key
        assert info["refit_reasons"] == {"cold": 8}
        # Post-eviction keys hold no state, so every fit was a cold one.
        assert info["cold_fits"] == 8
        assert info["refits"] == 0
        assert info["incremental_refreshes"] == 0

    def test_max_price_pinned_across_refits(self):
        # A $20 spike on day 1.25 is inside the first fit's window ...
        trace = _hourly_trace(250, rng=1, spikes={30: 20.0})
        service = DraftsService(
            _ScriptedApi(trace), ServiceConfig(probabilities=(self.P,))
        )
        service.curve("c4.large", "z", self.P, 91 * DAY)
        assert service.key_info("c4.large", "z", self.P)["max_price"] == 160.0
        # ... and has left the 90-day window by day 130. A rewind then
        # forces a full refit; the pre-fix service would re-derive
        # max_price = 100 from the spike-free window and silently lay out
        # a different ladder. The pin must hold.
        service.curve("c4.large", "z", self.P, 130 * DAY)
        service.curve("c4.large", "z", self.P, 120 * DAY)
        assert service.key_info("c4.large", "z", self.P)["max_price"] == 160.0
        assert service.cache_info()["refit_reasons"]["rewind"] == 1

    def test_out_of_domain_price_triggers_ladder_change_refit(self):
        trace = _hourly_trace(100, rng=2, spikes={95 * 24: 900.0})
        api = _ScriptedApi(trace)
        service = DraftsService(api, ServiceConfig(probabilities=(self.P,)))
        service.curve("c4.large", "z", self.P, 94 * DAY)
        assert service.key_info("c4.large", "z", self.P)["max_price"] == 100.0
        # The next delta carries the $900 spike — outside the pinned
        # quantile-tracker domain, so the refresh must be a full refit at
        # a re-pinned domain, not a silent incremental update.
        t2 = 95 * DAY + 7200.0
        served = service.curve("c4.large", "z", self.P, t2)
        info = service.key_info("c4.large", "z", self.P)
        assert info["max_price"] == 7200.0  # re-pinned: 8 x 900
        reasons = service.cache_info()["refit_reasons"]
        assert reasons == {"cold": 1, "ladder_change": 1}
        history = api.describe_spot_price_history("c4.large", "z", t2)
        cfg = DraftsConfig(probability=self.P, max_price=7200.0)
        batch = DraftsPredictor(history, cfg).curve_at(
            len(history), instance_type="c4.large", zone="z"
        )
        assert curves_equal(served, batch)

    def test_rewindow_refit_bounds_accumulated_history(self):
        trace = _hourly_trace(250, rng=3)
        service = DraftsService(
            _ScriptedApi(trace),
            ServiceConfig(probabilities=(self.P,), rewindow_factor=1.0),
        )
        t = 91 * DAY
        while t < 100 * DAY:
            assert service.curve("c4.large", "z", self.P, t) is not None
            info = service.key_info("c4.large", "z", self.P)
            # The accumulated span never exceeds factor x window + one
            # refresh worth of drift before the refit re-clips it.
            assert info["n"] <= (HISTORY_WINDOW_SECONDS / 3600.0) + 24
            t += 6 * 3600.0
        info = service.cache_info()
        assert info["refit_reasons"].get("rewindow", 0) >= 1
        assert info["incremental_refreshes"] >= 1


class TestBatchedTick:
    """Every key lives in a shared :class:`~repro.core.universe.UniverseTicker`
    slot; single-key refreshes and the universe-wide sweep must both publish
    exactly what a from-scratch batch fit publishes."""

    P = 0.95
    ZONES = ("us-east-1b", "us-east-1c")
    _fresh = TestIncrementalRefresh._fresh
    _batch_curve = TestIncrementalRefresh._batch_curve

    def test_batched_curves_identical_to_scalar_path(self, small_universe):
        api, service, now = self._fresh(small_universe)
        for k in range(5):
            t = now + k * 960.0
            for zone in self.ZONES:
                assert curves_equal(
                    service.curve("c4.large", zone, self.P, t),
                    self._batch_curve(api, service, zone, t),
                ), f"diverged from the batch fit at boundary {k} ({zone})"
        info = service.cache_info()
        assert info["incremental_refreshes"] == 4 * len(self.ZONES)
        assert info["batch_keys"] == info["predictors"] == len(self.ZONES)

    def test_key_info_reports_enrollment(self, small_universe):
        api, service, now = self._fresh(small_universe)
        service.curve("c4.large", "us-east-1b", self.P, now)
        service.curve("c4.large", "us-east-1b", self.P, now + 960.0)
        info = service.key_info("c4.large", "us-east-1b", self.P)
        # The key's history length is read through the ticker: the cold
        # fit and the delta together consumed the whole (unclipped) window.
        history = api.describe_spot_price_history(
            "c4.large", "us-east-1b", now + 960.0
        )
        assert info["n"] == len(history) > 0
        assert info["last_now"] == now + 960.0
        assert service.key_info("c4.large", "us-east-1c", self.P) is None

    def test_eviction_unenrolls_without_ghost_slots(self, small_universe):
        api, service, now = self._fresh(small_universe, max_predictors=1)
        for k in range(3):
            t = now + k * 960.0
            for zone in self.ZONES:
                assert service.curve("c4.large", zone, self.P, t) is not None
        info = service.cache_info()
        assert info["predictors"] == 1
        # Every eviction removed the displaced key's ticker slot too.
        assert info["batch_keys"] <= 1

    def test_load_state_eviction_frees_ticker_slots(
        self, small_universe, tmp_path
    ):
        api, saved, now = self._fresh(small_universe)
        for zone in ("us-east-1d", "us-east-1e"):
            saved.curve("c4.large", zone, self.P, now)
        saved.save_state(tmp_path)
        _, service, _ = self._fresh(small_universe, max_predictors=2)
        for zone in self.ZONES:
            service.curve("c4.large", zone, self.P, now)
        # Restoring two other keys evicts both warm ones ...
        assert service.load_state(tmp_path)["loaded"] == 2
        later = now + 960.0
        for zone in ("us-east-1d", "us-east-1e"):
            assert curves_equal(
                service.curve("c4.large", zone, self.P, later),
                self._batch_curve(api, service, zone, later),
            )
        # ... and their ticker slots with them.
        info = service.cache_info()
        assert info["batch_keys"] == info["predictors"] <= 2
        assert info["evictions"] == 2


class TestWarmStart:
    def test_every_level_fits_in_one_pass(self, small_universe, monkeypatch):
        # Cold boot fits every (key, published level) in one lockstep
        # fitter pass — the levels differ only in q — and publishes what a
        # per-key cold fit publishes.
        from repro.core import universe_fit

        passes = []
        fitter_init = universe_fit.UniverseFitter.__init__

        def counting_init(self, series, configs, **kwargs):
            passes.append(len(series))
            fitter_init(self, series, configs, **kwargs)

        monkeypatch.setattr(
            universe_fit.UniverseFitter, "__init__", counting_init
        )
        levels = ServiceConfig().probabilities
        assert len(levels) == 2
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * DAY
        pairs = [("c4.large", "us-east-1b"), ("c4.large", "us-east-1c")]
        service = DraftsService(EC2Api(small_universe))
        assert service.warm_start(pairs, now)["fitted"] == 4
        assert passes == [4]
        cold = DraftsService(EC2Api(small_universe))
        for instance_type, zone in pairs:
            for p in levels:
                assert curves_equal(
                    service.curve(instance_type, zone, p, now),
                    cold.curve(instance_type, zone, p, now),
                ), (zone, p)


class TestServiceInvariants:
    def test_published_minimum_bid_is_admissible(self, service_env, small_universe):
        """A curve's minimum bid must exceed the quoted market price at
        publication time (the tick premium of §3.2) — otherwise the
        service would recommend bids that cannot even launch."""
        service, now = service_env
        combo = small_universe.combo("c4.large", "us-east-1b")
        trace = small_universe.trace(combo)
        for offset in range(0, 5 * 86400, 86400):
            t = now + offset
            curve = service.curve("c4.large", "us-east-1b", 0.95, t)
            if curve is None:
                continue
            assert curve.minimum_bid > trace.price_at(curve.computed_at)

    def test_curves_at_both_probability_levels(self, service_env):
        """§3.3: the service publishes 0.95 and 0.99 levels; the stricter
        level's minimum bid is at least the looser one's."""
        service, now = service_env
        c95 = service.curve("c4.large", "us-east-1b", 0.95, now)
        c99 = service.curve("c4.large", "us-east-1b", 0.99, now)
        assert c95 is not None and c99 is not None
        assert c99.minimum_bid >= c95.minimum_bid - 1e-9
