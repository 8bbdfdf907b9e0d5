"""Unit tests for the EC2 API facade."""

import numpy as np
import pytest

from repro.cloud.api import HISTORY_WINDOW_SECONDS, EC2Api
from repro.market.obfuscation import AccountView
from repro.market.universe import Universe, UniverseConfig

DAY = 86400.0


@pytest.fixture(scope="module")
def long_universe() -> Universe:
    """101 days of 5-minute epochs: long enough for the 90-day window to
    start past the trace start, off the epoch grid."""
    return Universe(UniverseConfig(seed=5, n_epochs=101 * 288))


def _window_then_mask(trace, now, since):
    """The cursor form's reference: the full window, then ``time > since``."""
    window = trace.window_before(now, HISTORY_WINDOW_SECONDS)
    keep = window.times > since
    if not keep.any():
        return None
    return window.times[keep], window.prices[keep]


class TestMetadata:
    def test_regions_and_zones(self, small_universe):
        api = EC2Api(small_universe)
        assert api.describe_regions() == ("us-east-1", "us-west-1", "us-west-2")
        assert api.describe_availability_zones("us-west-1") == (
            "us-west-1a",
            "us-west-1b",
        )
        assert len(api.describe_instance_types()) == 53

    def test_ondemand_price(self, small_universe):
        api = EC2Api(small_universe)
        assert api.ondemand_price("m1.large", "us-west-2") == 0.175
        assert api.ondemand_tier("m1.large", "us-west-2").hourly_price == 0.175


class TestSpotAccess:
    def test_current_price_matches_trace(self, small_universe):
        api = EC2Api(small_universe)
        combo = small_universe.combo("c4.large", "us-east-1b")
        trace = small_universe.trace(combo)
        t = trace.start + 86400.0
        assert api.current_spot_price("c4.large", "us-east-1b", t) == (
            trace.price_at(t)
        )

    def test_unoffered_combo_rejected(self, small_universe):
        api = EC2Api(small_universe)
        with pytest.raises(KeyError):
            api.current_spot_price("cg1.4xlarge", "us-west-2a", 0.0)

    def test_history_window_capped_at_90_days(self, small_universe):
        api = EC2Api(small_universe)
        combo = small_universe.combo("c4.large", "us-east-1b")
        trace = small_universe.trace(combo)
        now = trace.end
        history = api.describe_spot_price_history("c4.large", "us-east-1b", now)
        assert history.end < now
        assert history.span <= HISTORY_WINDOW_SECONDS
        # The 70-day trace is shorter than 90 days: full prefix visible.
        assert history.start == trace.start

    def test_history_labelled_with_account_zone(self, small_universe):
        api = EC2Api(small_universe)
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 10 * 86400.0
        history = api.describe_spot_price_history("c4.large", "us-east-1b", now)
        assert history.zone == "us-east-1b"
        assert history.end <= now

    def test_request_spot_instance_round_trip(self, small_universe):
        api = EC2Api(small_universe)
        combo = small_universe.combo("c4.large", "us-east-1b")
        trace = small_universe.trace(combo)
        t = trace.start + 40 * 86400.0
        price = trace.price_at(t)
        run = api.request_spot_instance(
            "c4.large", "us-east-1b", t, 1800.0, max_bid=price * 10
        )
        assert run.ran_seconds > 0


class TestDeltaHistory:
    """The ``since`` cursor form powering incremental curve refreshes."""

    def test_delta_matches_full_window_tail(self, small_universe):
        api = EC2Api(small_universe)
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        full = api.describe_spot_price_history("c4.large", "us-east-1b", now)
        since = full.times[-40]
        delta = api.describe_spot_price_history(
            "c4.large", "us-east-1b", now, since=since
        )
        assert delta is not None
        np.testing.assert_array_equal(delta.times, full.times[-39:])
        np.testing.assert_array_equal(delta.prices, full.prices[-39:])
        assert delta.instance_type == full.instance_type
        assert delta.zone == "us-east-1b"

    def test_empty_delta_is_none(self, small_universe):
        api = EC2Api(small_universe)
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        full = api.describe_spot_price_history("c4.large", "us-east-1b", now)
        assert (
            api.describe_spot_price_history(
                "c4.large", "us-east-1b", now, since=full.end
            )
            is None
        )

    def test_since_before_window_returns_whole_window(self, small_universe):
        api = EC2Api(small_universe)
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        full = api.describe_spot_price_history("c4.large", "us-east-1b", now)
        delta = api.describe_spot_price_history(
            "c4.large", "us-east-1b", now, since=full.start - 86400.0
        )
        np.testing.assert_array_equal(delta.times, full.times)
        np.testing.assert_array_equal(delta.prices, full.prices)

    def test_since_before_mid_epoch_window_returns_restamped_window(
        self, long_universe
    ):
        """A cursor older than a window that starts mid-epoch returns the
        whole window, first row re-stamped at the window start — exactly
        the full fetch (the service refits on such a gap instead)."""
        api = EC2Api(long_universe)
        trace = long_universe.trace(long_universe.combo("c4.large", "us-east-1b"))
        now = trace.start + 100 * DAY + 150.0
        full = api.describe_spot_price_history("c4.large", "us-east-1b", now)
        since = now - HISTORY_WINDOW_SECONDS - 1000.0
        delta = api.describe_spot_price_history(
            "c4.large", "us-east-1b", now, since=since
        )
        assert full.start == now - HISTORY_WINDOW_SECONDS > trace.start
        assert (full.start - trace.start) % 300.0 == 150.0  # off the grid
        np.testing.assert_array_equal(delta.times, full.times)
        np.testing.assert_array_equal(delta.prices, full.prices)
        assert (delta.instance_type, delta.zone) == ("c4.large", "us-east-1b")

    @pytest.mark.parametrize("universe_name", ["small_universe", "long_universe"])
    def test_since_form_matches_window_then_mask(self, universe_name, request):
        """The O(delta) cursor fetch returns the rows the full window
        masked by ``time > since`` holds, for cursors inside, at and
        before the window start and for empty deltas."""
        universe = request.getfixturevalue(universe_name)
        api = EC2Api(universe)
        trace = universe.trace(universe.combo("c4.large", "us-east-1b"))
        checked = 0
        for now in (
            trace.start + 45 * DAY,
            trace.start + 45 * DAY + 150.0,
            trace.end - 10 * DAY + 0.5,
            trace.end + 3 * DAY,
        ):
            start = max(trace.start, now - HISTORY_WINDOW_SECONDS)
            last = trace.times[np.searchsorted(trace.times, now) - 1]
            for since in (
                start - DAY,
                start - 1.0,
                start,
                start + 1.0,
                start + 300.0,
                now - 1000.0,
                now - 300.0,
                float(last) - 1.0,
                float(last),
                now,
                now + 1.0,
            ):
                got = api.describe_spot_price_history(
                    "c4.large", "us-east-1b", now, since=since
                )
                want = _window_then_mask(trace, now, since)
                if want is None:
                    assert got is None, (now, since)
                    continue
                np.testing.assert_array_equal(got.times, want[0])
                np.testing.assert_array_equal(got.prices, want[1])
                assert (got.instance_type, got.zone) == ("c4.large", "us-east-1b")
                checked += 1
        assert checked > 20

    def test_delta_respects_obfuscated_zone_names(self, small_universe):
        view = AccountView("us-east-1", {"b": "c", "c": "d", "d": "e", "e": "b"})
        obfuscated = EC2Api(small_universe, {"us-east-1": view})
        plain = EC2Api(small_universe)
        now = small_universe.trace(
            small_universe.combo("c4.large", "us-east-1c")
        ).start + 45 * 86400.0
        since = now - 86400.0
        a = obfuscated.describe_spot_price_history(
            "c4.large", "us-east-1b", now, since=since
        )
        b = plain.describe_spot_price_history(
            "c4.large", "us-east-1c", now, since=since
        )
        np.testing.assert_array_equal(a.prices, b.prices)
        assert a.zone == "us-east-1b"  # labelled with the account's name


class TestObfuscatedAccount:
    def test_zone_names_translated(self, small_universe):
        view = AccountView("us-east-1", {"b": "c", "c": "d", "d": "e", "e": "b"})
        obfuscated = EC2Api(small_universe, {"us-east-1": view})
        plain = EC2Api(small_universe)
        t = small_universe.trace(
            small_universe.combo("c4.large", "us-east-1c")
        ).start + 86400.0
        # The obfuscated account's "us-east-1b" is physically us-east-1c.
        assert obfuscated.current_spot_price(
            "c4.large", "us-east-1b", t
        ) == plain.current_spot_price("c4.large", "us-east-1c", t)

    def test_zone_listing_stays_within_region_letters(self, small_universe):
        view = AccountView("us-east-1", {"b": "c", "c": "d", "d": "e", "e": "b"})
        api = EC2Api(small_universe, {"us-east-1": view})
        zones = api.describe_availability_zones("us-east-1")
        assert sorted(zones) == [
            "us-east-1b",
            "us-east-1c",
            "us-east-1d",
            "us-east-1e",
        ]

    def test_other_regions_untouched(self, small_universe):
        view = AccountView("us-east-1", {"b": "c", "c": "b", "d": "d", "e": "e"})
        api = EC2Api(small_universe, {"us-east-1": view})
        assert api.describe_availability_zones("us-west-1") == (
            "us-west-1a",
            "us-west-1b",
        )
