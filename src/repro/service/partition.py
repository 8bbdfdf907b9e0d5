"""Partition-restricted view of the EC2 API for shard workers.

A shard worker in the routed deployment (:mod:`repro.serving.router`)
owns a subset of the ``(instance_type, zone)`` universe. Its
:class:`~repro.service.drafts_service.DraftsService` must behave exactly
like the single-process service *on owned combos* and must refuse to fit
anything else — a misrouted request should surface as an error, not
silently duplicate another shard's work and memory.

:class:`PartitionedApi` wraps the underlying API and intercepts three
reads:

* :meth:`describe_spot_price_history` — the fit path. Owned combos pass
  straight through; unowned combos raise ``KeyError``. Combos unknown to
  the *account itself* raise the account's own ``KeyError`` first (via
  ``check_offered``, which builds no trace), so a shard's 404 body for a
  garbage key is byte-identical to the single-process gateway's.
* :meth:`zones_for_cheapest` — the ``/cheapest`` scan hook
  (``DraftsService.scan_zones`` calls it).
  The plain region zone list would make the shard cold-fit (and fail)
  every zone it owns for *other* types; the hook narrows the scan to the
  zones owned for the queried type, preserving the account's zone order
  so scatter-gather tie-breaks reproduce the single-process answer.
* :meth:`describe_availability_zones` — the owned zones of a region.

Everything else (regions, instance types, on-demand prices, spot
requests) delegates verbatim: those reads are cheap, global, and needed
even for keys the shard does not own (e.g. on-demand fallback pricing).
"""

from __future__ import annotations

import string
from collections.abc import Iterable

__all__ = ["PartitionedApi", "region_of_zone"]

_ZONE_SUFFIX = string.ascii_lowercase


def region_of_zone(zone: str) -> str:
    """The region a zone belongs to (the serving gateway's On-demand
    fallback prices by it too)."""
    return zone.rstrip(_ZONE_SUFFIX) or zone


class PartitionedApi:
    """An EC2-API view restricted to one shard's ``(type, zone)`` combos."""

    def __init__(self, api, combos: Iterable[tuple[str, str]]) -> None:
        self._api = api
        self._owned = frozenset((t, z) for t, z in combos)
        self._zones = frozenset(z for _, z in self._owned)
        # (type, region) -> owned zones of that type, in account order.
        self._scan_cache: dict[tuple[str, str], tuple[str, ...]] = {}

    # -- partition surface ---------------------------------------------------

    @property
    def owned(self) -> frozenset[tuple[str, str]]:
        """The ``(instance_type, zone)`` combos this view will serve."""
        return self._owned

    @property
    def api(self):
        """The unrestricted underlying API."""
        return self._api

    def owns(self, instance_type: str, zone: str) -> bool:
        """True when this shard owns the combo."""
        return (instance_type, zone) in self._owned

    # -- intercepted reads ---------------------------------------------------

    def describe_availability_zones(self, region: str) -> tuple[str, ...]:
        """The owned zones of ``region`` (any type), in account order.

        An unknown region has no zones: the answer is ``()``, as the
        account's own is.
        """
        zones = self._api.describe_availability_zones(region)
        return tuple(z for z in zones if z in self._zones)

    def zones_for_cheapest(
        self, instance_type: str, region: str
    ) -> tuple[str, ...]:
        """The zones the ``/cheapest`` scan should visit for this type.

        Only non-empty answers are cached, so the cache holds at most one
        entry per owned ``(type, region)``: a URL naming a type the account
        does not offer (or a region it does not have) is answered afresh,
        and a flood of such URLs cannot grow it.
        """
        key = (instance_type, region)
        cached = self._scan_cache.get(key)
        if cached is None:
            zones = self._api.describe_availability_zones(region)
            cached = tuple(
                z for z in zones if (instance_type, z) in self._owned
            )
            if cached:
                self._scan_cache[key] = cached
        return cached

    def describe_spot_price_history(
        self, instance_type: str, zone: str, now: float, since: float | None = None
    ):
        if (instance_type, zone) not in self._owned:
            # Let a combo the account has never heard of raise the
            # account's native KeyError (parity with the single-process
            # gateway); a known-but-unowned combo is a misroute.
            self._api.check_offered(instance_type, zone)
            raise KeyError(
                f"shard does not own {instance_type} in {zone}"
            )
        return self._api.describe_spot_price_history(
            instance_type, zone, now, since
        )

    # -- verbatim delegation -------------------------------------------------

    def __getattr__(self, name: str):
        return getattr(self._api, name)
