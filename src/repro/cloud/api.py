"""EC2-like API facade over the simulated universe.

The subset of the EC2 API surface the paper's tooling uses, with the same
observability restrictions:

* ``describe_spot_price_history`` returns at most **90 days** of history
  (§2.2) and only for combinations offered to the account;
* AZ names are translated through the account's obfuscation view (§2.2) —
  two accounts asking for the same local AZ name may reach different pools;
* requesting a Spot instance without an AZ lets the provider pick one
  (without regard for price, §2) — the model picks the first offered zone
  in region order, which is deliberately price-blind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cloud.ondemand import OnDemandTier
from repro.cloud.spot import SpotRun, SpotTier
from repro.market import catalog
from repro.market.obfuscation import AccountView
from repro.market.traces import PriceTrace
from repro.market.universe import Universe
from repro.util.timeutils import DAY_SECONDS

__all__ = ["EC2Api", "HISTORY_WINDOW_SECONDS"]

#: Price history availability window (§2.2: "up to 90 days").
HISTORY_WINDOW_SECONDS: float = 90 * DAY_SECONDS


@dataclass(frozen=True)
class _AccountViews:
    views: dict[str, AccountView]

    def to_physical(self, zone: str) -> str:
        for region, view in self.views.items():
            if zone.startswith(region):
                return view.to_physical(zone)
        return zone

    def to_local(self, zone: str) -> str:
        for region, view in self.views.items():
            if zone.startswith(region):
                return view.to_local(zone)
        return zone


class EC2Api:
    """One account's view of the simulated EC2 service.

    Parameters
    ----------
    universe:
        The study universe backing the service.
    account_views:
        Optional per-region AZ obfuscation views for this account. Without
        them the account sees physical names (as the deobfuscated DrAFTS
        service effectively does, §3.3).
    """

    def __init__(
        self,
        universe: Universe,
        account_views: dict[str, AccountView] | None = None,
    ) -> None:
        self._universe = universe
        self._views = _AccountViews(account_views or {})
        # region -> AZ names; the catalog and the views are fixed, and
        # only known regions (non-empty answers) are kept.
        self._zones: dict[str, tuple[str, ...]] = {}

    # -- metadata ----------------------------------------------------------

    def describe_regions(self) -> tuple[str, ...]:
        """Region names."""
        return tuple(r.name for r in catalog.REGIONS)

    def describe_availability_zones(self, region: str) -> tuple[str, ...]:
        """This account's (possibly obfuscated) AZ names for ``region``."""
        zones = self._zones.get(region)
        if zones is None:
            zones = tuple(
                sorted(
                    self._views.to_local(z.name)
                    for z in self._universe.zones(region)
                )
            )
            if zones:
                self._zones[region] = zones
        return zones

    def describe_instance_types(self) -> tuple[str, ...]:
        """All instance type names."""
        return tuple(sorted(catalog.INSTANCE_TYPES))

    def ondemand_price(self, instance_type: str, region: str) -> float:
        """Regional On-demand hourly price."""
        return catalog.ondemand_price(instance_type, region)

    def ondemand_tier(self, instance_type: str, region: str) -> OnDemandTier:
        """The On-demand tier for a (type, region)."""
        return OnDemandTier(self.ondemand_price(instance_type, region))

    # -- spot --------------------------------------------------------------

    def _physical_zone(self, zone: str) -> str:
        return self._views.to_physical(zone)

    def check_offered(self, instance_type: str, zone: str) -> None:
        """Raise the ``KeyError`` :meth:`describe_spot_price_history` raises
        for a combination this account is not offered, without building
        its trace."""
        self._universe.combo(instance_type, self._physical_zone(zone))

    def spot_tier(self, instance_type: str, zone: str) -> SpotTier:
        """The Spot pool behind this account's name for ``zone``."""
        combo = self._universe.combo(instance_type, self._physical_zone(zone))
        return SpotTier(self._universe.trace(combo))

    def describe_spot_price_history(
        self, instance_type: str, zone: str, now: float, since: float | None = None
    ) -> PriceTrace | None:
        """Price history visible at time ``now`` — at most the last 90 days.

        The returned trace is labelled with the *account's* zone name, as
        the real API labels rows with the requester's view.

        ``since`` is the cursor form the incremental service uses: only
        announcements with ``since < time < now`` are returned (still
        clipped to the same 90-day window, through the same obfuscation
        path), and ``None`` signals an empty delta. Pass the timestamp of
        the last announcement already consumed. While the cursor lies
        inside the window, rows are the trace's own announcements, taken
        by two binary searches in O(delta) — so a cold full fetch followed
        by delta fetches sees the exact announcement sequence a one-shot
        full fetch would. A cursor older than the window start returns the
        whole window, whose first row is re-stamped at the window start
        like the full fetch's; the incremental service never asks for
        that, because it refits on such a gap instead.
        """
        combo = self._universe.combo(instance_type, self._physical_zone(zone))
        trace = self._universe.trace(combo)
        start = max(trace.start, now - HISTORY_WINDOW_SECONDS)
        if since is None or since < start or now <= trace.start:
            window = trace.window_before(now, HISTORY_WINDOW_SECONDS)
            return window.with_labels(instance_type, zone)
        lo = int(np.searchsorted(trace.times, since, side="right"))
        hi = int(np.searchsorted(trace.times, now, side="left"))
        if lo >= hi:
            return None
        return PriceTrace(
            trace.times[lo:hi].copy(),
            trace.prices[lo:hi].copy(),
            instance_type,
            zone,
        )

    def current_spot_price(
        self, instance_type: str, zone: str, now: float
    ) -> float:
        """Spot price quoted to this account at ``now``."""
        return self.spot_tier(instance_type, zone).current_price(now)

    def request_spot_instance(
        self,
        instance_type: str,
        zone: str,
        start: float,
        duration_seconds: float,
        max_bid: float,
    ) -> SpotRun:
        """Submit one Spot request and run it to completion."""
        return self.spot_tier(instance_type, zone).run(
            start, duration_seconds, max_bid
        )
