"""The DrAFTS decision-support service (§3.3 of the paper).

The production prototype (predictspotprice.cs.ucsb.edu) operates
asynchronously: it periodically queries the price-history API, recomputes a
set of maximum-bid predictions for every instance type and AZ — bid ladders
in 5 % increments from the smallest bid that can guarantee *any* duration
up to 4x that minimum, at both the 0.95 and 0.99 probability levels — and
serves them to clients over REST. It recomputes every 15 minutes — and the
paper is explicit that each recompute is *incremental*: predictor state is
updated "in a few milliseconds" per new price announcement (§3.3), not
refitted from scratch.

This module is that service against the simulated EC2: one curve cache
with the same refresh policy (``DraftsService.store``, a
:class:`~repro.service.store.ShardedCurveStore` the serving gateway reads
too), exposed through the in-process REST router in
:mod:`repro.service.rest`. A key is refreshed when it is read and its
stored curve is older than ``refresh_seconds`` (the 15-minute period);
nothing sweeps the keys on a timer. All predictor state lives in one
structure-of-arrays :class:`~repro.core.universe.UniverseTicker` per
published probability level; each (type, AZ, probability) key is one slot
of its level's ticker. A refresh delta-fetches only the announcements
after the key's cursor, observes them into the ticker and publishes the
ticker's curve. A full QBETS fit — a fresh
:class:`~repro.core.online.OnlineDraftsPredictor` over the windowed
history, handed to the ticker as the key's new slot — happens only on:

* **cold** — no predictor state for the key (first request, or the key was
  LRU-evicted);
* **rewind** — ``now`` moved to or before the cursor (backtest replays);
* **gap** — the 90-day API window no longer reaches back to the cursor, so
  announcements were missed;
* **rewindow** — the accumulated history span exceeded
  ``rewindow_factor`` x the 90-day window (incremental refreshes
  accumulate history rather than sliding the window, trading a bounded
  amount of extra — older — data for O(delta) refresh cost; the periodic
  refit re-clips to the API window and bounds the footprint);
* **ladder_change** — a delta price exceeded the key's pinned ``max_price``
  ladder domain, which requires a new quantile-tracker domain.

``cache_info()`` splits ``recomputes`` into ``cold_fits`` and ``refits``
(full fits of keys without and with predictor state) and
``incremental_refreshes`` (delta updates), with per-reason fit counts.
At every refresh boundary the published curve is bit-identical to a
from-scratch :class:`~repro.core.drafts.DraftsPredictor` fit of the same
accumulated history (tests/test_service.py).

Locking: each ticker has one lock, and every read or write of a key's
slot or its ``_KeyState`` happens under its level's lock. That lock is always
taken before the service's bookkeeping lock and the store's shard locks, no
thread holds two ticker locks at once, and no file I/O happens under one.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.cloud.api import HISTORY_WINDOW_SECONDS, EC2Api
from repro.core.curves import BidDurationCurve
from repro.core.drafts import DraftsConfig
from repro.core.online import OnlineDraftsPredictor
from repro.core.universe import UniverseTicker
from repro.core.universe_fit import fit_drafts_universe
from repro.service import persistence
from repro.service.persistence import MANIFEST_NAME, SnapshotError
from repro.service.store import EntryState, ShardedCurveStore

__all__ = ["DraftsService", "ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Service parameters (§3.3 defaults).

    Attributes
    ----------
    probabilities:
        Probability levels curves are published at.
    refresh_seconds:
        Recompute interval (15 minutes in the prototype).
    ladder_increment / ladder_span:
        Bid ladder geometry (5 % rungs up to 4x the minimum).
    max_predictors:
        How many per-key predictors (each retaining a full history array)
        are kept; least-recently-used ones are evicted beyond this, so the
        service's footprint is bounded even over the full 452-combination
        universe. An evicted key refits from a cold fetch on next touch.
    rewindow_factor:
        Full-refit threshold on accumulated history span, as a multiple of
        the 90-day API window. Bounds both per-key memory and how far the
        oldest retained announcement can lag the API's own horizon.
    """

    probabilities: tuple[float, ...] = (0.95, 0.99)
    refresh_seconds: float = 900.0
    ladder_increment: float = 0.05
    ladder_span: float = 4.0
    max_predictors: int = 128
    rewindow_factor: float = 2.0

    def __post_init__(self) -> None:
        if not self.probabilities:
            raise ValueError("at least one probability level required")
        for p in self.probabilities:
            if not 0.0 < p < 1.0:
                raise ValueError(f"probability {p} outside (0, 1)")
        if self.refresh_seconds <= 0:
            raise ValueError("refresh_seconds must be positive")
        if self.max_predictors < 1:
            raise ValueError("max_predictors must be >= 1")
        if self.rewindow_factor < 1.0:
            raise ValueError("rewindow_factor must be >= 1")


@dataclass
class _Group:
    """One probability level's predictor state: a slot per key in
    ``ticker``, read and mutated only under ``lock``."""

    ticker: UniverseTicker
    lock: threading.Lock = field(default_factory=threading.Lock)


@dataclass
class _KeyState:
    """Per-(type, AZ, probability) bookkeeping beside the key's ticker slot.

    ``cursor`` is the timestamp of the last announcement consumed (nan
    until the key's first fit lands); ``max_price`` is the
    quantile-tracker domain pinned at the first fit so refreshes of the
    same key can never silently lay out different ladders.
    """

    curve: BidDurationCurve | None = None
    cursor: float = math.nan
    last_now: float = math.nan
    max_price: float | None = None


class DraftsService:
    """Periodically recomputed bid–duration curves over an EC2 account.

    The service sees the market through an :class:`~repro.cloud.api.EC2Api`
    — including its 90-day history limit and (if configured) its AZ-name
    obfuscation, which is why production deployments need the
    deobfuscation of :mod:`repro.market.obfuscation`.

    Published curves live in :attr:`store`, the one curve cache, which
    every recompute, :meth:`warm_start` and :meth:`load_state` write and
    a :class:`~repro.serving.gateway.ServingGateway` reads too.

    The service answers no route itself: :func:`repro.service.rest.respond`
    builds every ``/predictions``, ``/bid`` and ``/cheapest`` answer from
    :meth:`check_probability`, :meth:`scan_zones` and a curve read
    (:meth:`curve`, or the gateway's store-first read).
    """

    def __init__(self, api: EC2Api, config: ServiceConfig | None = None):
        self._api = api
        self._cfg = config or ServiceConfig()
        self.store = ShardedCurveStore(refresh_seconds=self._cfg.refresh_seconds)
        # Keys holding predictor state, in LRU order. Every key listed here
        # owns its ticker slot; a slot whose key is not listed was evicted
        # and is about to be dropped.
        self._states: OrderedDict[tuple[str, str, float], _KeyState] = (
            OrderedDict()
        )
        # Guards state bookkeeping: the serving gateway drives this
        # object from several threads.
        self._lock = threading.Lock()
        self._groups = {
            p: _Group(
                UniverseTicker(
                    self._drafts_config(p, DraftsConfig().max_price)
                )
            )
            for p in self._cfg.probabilities
        }
        self._hits = 0
        self._misses = 0
        self._refits = 0
        self._cold_fits = 0
        self._incremental_refreshes = 0
        self._refit_reasons: dict[str, int] = {}
        self._evictions = 0
        # (regions, instance types) the account knows; fixed, read lazily.
        self._known_names: tuple[frozenset, frozenset] | None = None

    @property
    def config(self) -> ServiceConfig:
        """The service configuration."""
        return self._cfg

    @property
    def api(self) -> EC2Api:
        """The account view the service predicts through."""
        return self._api

    def _drafts_config(self, probability: float, max_price: float) -> DraftsConfig:
        return DraftsConfig(
            probability=probability,
            ladder_increment=self._cfg.ladder_increment,
            ladder_span=self._cfg.ladder_span,
            max_price=max_price,
        )

    def _evict_locked(self) -> list[tuple[str, str, float]]:
        """Pop least-recently-used states beyond the bound (caller holds
        ``_lock``); their slots go to :meth:`_drop_slots`."""
        evicted = []
        while len(self._states) > self._cfg.max_predictors:
            evicted.append(self._states.popitem(last=False)[0])
            self._evictions += 1
        return evicted

    def _drop_slots(self, keys: list[tuple[str, str, float]]) -> None:
        """Free the ticker slots of keys that no longer hold state.

        Called with no group lock held, so each slot is removed under its
        own group's lock. A key re-admitted in the meantime is skipped: its
        new fit already replaced the slot.
        """
        for key in keys:
            group = self._groups[key[2]]
            with group.lock:
                with self._lock:
                    if key in self._states:
                        continue
                if key in group.ticker:
                    group.ticker.remove_key(key)

    @staticmethod
    def _install(ticker: UniverseTicker, key, online: OnlineDraftsPredictor):
        """Make a fitted predictor ``key``'s slot, replacing any it held; the
        ticker adopts its state and the caller drops the predictor."""
        if key in ticker:
            ticker.remove_key(key)
        ticker.add_key(key, online=online, instance_type=key[0], zone=key[1])

    def _fit(
        self,
        ticker: UniverseTicker,
        key: tuple[str, str, float],
        state: _KeyState,
        now: float,
        reason: str,
    ) -> BidDurationCurve | None:
        """Full QBETS fit of the key's windowed history into a new slot."""
        instance_type, zone, probability = key
        history = self._api.describe_spot_price_history(instance_type, zone, now)
        # Pin the ladder domain at the first fit; only an out-of-domain
        # price (the explicit ladder_change refit) may raise it. Without
        # the pin, a spike entering/leaving the 90-day window would change
        # max_price between refreshes of the *same* key and silently alter
        # the quantile-tracker domain mid-stream.
        peak = float(history.prices.max())
        max_price = state.max_price
        if max_price is None or peak >= max_price:
            max_price = max(100.0, peak * 8.0)
        online = OnlineDraftsPredictor(self._drafts_config(probability, max_price))
        online.extend(history)
        self._install(ticker, key, online)
        state.curve = ticker.curve_for(key)
        state.max_price = max_price
        state.cursor = history.end
        state.last_now = now
        with self._lock:
            # A key without predictor state (first touch, post-eviction,
            # failed restore) is cold; one that had state is refit.
            if reason == "cold":
                self._cold_fits += 1
            else:
                self._refits += 1
            self._refit_reasons[reason] = self._refit_reasons.get(reason, 0) + 1
        return state.curve

    def _plan(
        self,
        ticker: UniverseTicker,
        key: tuple[str, str, float],
        state: _KeyState,
        now: float,
    ):
        """``(reason, delta)``: why this refresh needs a full fit, or
        ``(None, delta)`` with the announcements to observe (None when the
        market said nothing new)."""
        if math.isnan(state.cursor):
            return "cold", None
        if now <= state.cursor:
            return "rewind", None
        if now - HISTORY_WINDOW_SECONDS > state.cursor:
            return "gap", None
        if ticker.span(key) > self._cfg.rewindow_factor * HISTORY_WINDOW_SECONDS:
            return "rewindow", None
        delta = self._api.describe_spot_price_history(
            key[0], key[1], now, since=state.cursor
        )
        if delta is not None and float(delta.prices.max()) >= state.max_price:
            # Out of the pinned quantile-tracker domain: the ladder must be
            # re-laid-out, which is a full refit by design.
            return "ladder_change", None
        return None, delta

    def _refresh(
        self,
        ticker: UniverseTicker,
        key: tuple[str, str, float],
        state: _KeyState,
        now: float,
        reason: str | None,
        delta,
    ) -> BidDurationCurve | None:
        """Carry out one key's :meth:`_plan` (caller holds its group lock)."""
        if reason is not None:
            return self._fit(ticker, key, state, now, reason)
        if delta is not None:
            ticker.observe(delta.times, delta.prices[None, :], (key,))
            state.cursor = delta.end
            state.curve = ticker.curve_for(key)
        # A zero-announcement delta republishes the identical curve: the
        # market said nothing new, so the predictor state is untouched.
        state.last_now = now
        with self._lock:
            self._incremental_refreshes += 1
        return state.curve

    def _compute_curve(
        self, instance_type: str, zone: str, probability: float, now: float
    ) -> BidDurationCurve | None:
        key = (instance_type, zone, probability)
        group = self._groups[probability]
        evicted: list[tuple[str, str, float]] = []
        with group.lock:
            with self._lock:
                state = self._states.get(key)
                if state is not None:
                    self._states.move_to_end(key)
            fresh = state is None
            if fresh:
                state = _KeyState()
            plan = self._plan(group.ticker, key, state, now)
            curve = self._refresh(group.ticker, key, state, now, *plan)
            self.store.put(key, curve, now)
            if fresh:
                # Admitted only once its first fit lands: an unknown
                # combination (or a failed cold fetch) takes no LRU slot.
                with self._lock:
                    self._states[key] = state
                    evicted = self._evict_locked()
        self._drop_slots(evicted)
        return curve

    def curve(
        self, instance_type: str, zone: str, probability: float, now: float
    ) -> BidDurationCurve | None:
        """The published curve for a combination at time ``now``.

        Served from :attr:`store` while fresh; recomputed (and stored at
        ``now``) once the stored curve is older than the refresh interval,
        exactly like the prototype's 15-minute cron. ``None`` means the
        history is still too short to guarantee anything. Raises
        ``ValueError`` for an unpublished level and ``KeyError`` for a
        combination the account does not offer.
        """
        self.check_probability(probability)
        key = (instance_type, zone, probability)
        # peek, not lookup: popularity counts the gateway's reads only.
        entry = self.store.peek(key)
        if self.store.state_of(entry, now) is EntryState.FRESH:
            with self._lock:
                self._hits += 1
            return entry.curve
        with self._lock:
            self._misses += 1
        if entry is None:
            # A combination the account does not offer is a 404 from
            # memory: no history fetch, no ticker lock.
            self._api.check_offered(instance_type, zone)
        return self._compute_curve(instance_type, zone, probability, now)

    # -- batch cold boot ----------------------------------------------------

    def warm_start(
        self, combos: list[tuple[str, str]], now: float
    ) -> dict:
        """Cold-boot every ``(instance_type, zone)`` in one batch phase-1 fit.

        A ``save_state``-less boot otherwise pays one sequential scalar
        QBETS replay per key on first touch. This fetches each
        combination's history once, runs a single universe-wide phase-1
        pass (:func:`repro.core.universe_fit.fit_drafts_universe`) across
        every published probability level, hands each key's fitted
        predictor to its level's ticker — state bit-identical to the
        single-key cold fit — and publishes all curves into :attr:`store`
        at ``now``, one batched ticker query per level. Each fit counts under
        ``cold_fits`` with reason ``"cold"``, exactly like the first touch
        it replaces. Keys already holding predictor state are skipped.
        Returns ``{"fitted", "skipped"}``.
        """
        todo: dict[tuple[str, str, float], object] = {}
        skipped = 0
        histories: dict[tuple[str, str], object] = {}
        for instance_type, zone in combos:
            for probability in self._cfg.probabilities:
                key = (instance_type, zone, probability)
                with self._lock:
                    warm = key in self._states
                if warm:
                    skipped += 1
                    continue
                pair = (instance_type, zone)
                history = histories.get(pair)
                if history is None:
                    history = self._api.describe_spot_price_history(
                        instance_type, zone, now
                    )
                    histories[pair] = history
                todo[key] = history
        if not todo:
            return {"fitted": 0, "skipped": skipped}
        # The same per-key ladder-domain pin the single-key cold fit derives.
        configs = [
            self._drafts_config(
                key[2], max(100.0, float(history.prices.max()) * 8.0)
            )
            for key, history in todo.items()
        ]
        fit = fit_drafts_universe(list(todo.values()), configs)
        fitted = 0
        evicted: list[tuple[str, str, float]] = []
        for probability, group in self._groups.items():
            with group.lock:
                installed = []
                for i, (key, history) in enumerate(todo.items()):
                    if key[2] != probability:
                        continue
                    with self._lock:
                        if key in self._states:
                            # Lost a race to a concurrent fit: keep theirs.
                            continue
                    self._install(group.ticker, key, fit.online_predictor(i))
                    installed.append((i, key, history))
                curves = group.ticker.curves([key for _, key, _ in installed])
                for _, key, _ in installed:
                    self.store.put(key, curves[key], now)
                with self._lock:
                    for i, key, history in installed:
                        self._states[key] = _KeyState(
                            curve=curves[key],
                            cursor=history.end,
                            last_now=now,
                            max_price=configs[i].max_price,
                        )
                    self._cold_fits += len(installed)
                    self._refit_reasons["cold"] = (
                        self._refit_reasons.get("cold", 0) + len(installed)
                    )
                    evicted += self._evict_locked()
            fitted += len(installed)
        self._drop_slots(evicted)
        return {"fitted": fitted, "skipped": skipped}

    # -- crash-safe persistence ---------------------------------------------

    def save_state(self, directory: str | Path) -> dict:
        """Checkpoint every key's predictor state to ``directory``.

        One framed, checksummed ``.snap`` file per key (see
        :mod:`repro.service.persistence`) plus a manifest, each written
        atomically. A key's predictor is serialised straight out of its
        ticker slot, in the ``OnlineDraftsPredictor.to_snapshot`` format.
        Keys evicted while the checkpoint runs are skipped. Returns
        ``{"saved", "skipped", "directory"}``.
        """
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        with self._lock:
            keys = list(self._states)
        saved = 0
        skipped = 0
        files = []
        for key in keys:
            group = self._groups[key[2]]
            with group.lock:
                with self._lock:
                    state = self._states.get(key)
                if state is None:
                    skipped += 1
                    continue
                payload = {
                    "key": [key[0], key[1], float(key[2])],
                    "cursor": float(state.cursor),
                    "last_now": float(state.last_now),
                    "max_price": state.max_price,
                    "curve": (
                        None if state.curve is None else state.curve.to_dict()
                    ),
                    "predictor": group.ticker.key_snapshot(key),
                }
            entry = self.store.peek(key)
            if entry is not None:
                payload["computed_at"] = float(entry.computed_at)
            name = persistence.key_filename(key)
            persistence.write_snapshot(path / name, payload, kind="key")
            files.append(name)
            saved += 1
        persistence.write_snapshot(
            path / MANIFEST_NAME, {"files": files}, kind="manifest"
        )
        return {"saved": saved, "skipped": skipped, "directory": str(path)}

    def load_state(self, directory: str | Path) -> dict:
        """Restore predictor state checkpointed by :meth:`save_state`.

        Each restored predictor becomes its key's ticker slot, and its
        published curve a :attr:`store` entry at the checkpointed
        ``computed_at``, so staleness carries over the restart. Degrades,
        never crashes: a missing or unreadable manifest loads nothing, and
        any per-key file that is corrupt, torn, version-skewed or otherwise
        unusable is skipped — that key simply cold-refits on its next
        touch, which is the exact pre-checkpoint behaviour. Restored keys
        count toward ``max_predictors`` like fitted ones. Returns
        ``{"loaded", "skipped", "errors": {file: reason}}``.
        """
        path = Path(directory)
        errors: dict[str, str] = {}
        try:
            manifest = persistence.read_snapshot(
                path / MANIFEST_NAME, kind="manifest"
            )
            files = [str(f) for f in manifest["files"]]
        except (SnapshotError, KeyError, TypeError) as exc:
            return {
                "loaded": 0,
                "skipped": 0,
                "errors": {MANIFEST_NAME: str(exc)},
            }
        loaded = 0
        evicted: list[tuple[str, str, float]] = []
        for name in files:
            try:
                payload = persistence.read_snapshot(path / name, kind="key")
                raw_key = payload["key"]
                key = (str(raw_key[0]), str(raw_key[1]), float(raw_key[2]))
                if key[2] not in self._cfg.probabilities:
                    raise SnapshotError(
                        f"probability {key[2]} not published by this service"
                    )
                online = OnlineDraftsPredictor.from_snapshot(
                    payload["predictor"]
                )
                if online.config != self._drafts_config(
                    key[2], online.config.max_price
                ):
                    raise SnapshotError(
                        "predictor config differs from this service's"
                    )
                max_price = payload["max_price"]
                state = _KeyState(
                    curve=(
                        None
                        if payload["curve"] is None
                        else BidDurationCurve.from_dict(payload["curve"])
                    ),
                    cursor=float(payload["cursor"]),
                    last_now=float(payload["last_now"]),
                    max_price=None if max_price is None else float(max_price),
                )
            except Exception as exc:  # any damage -> clean refit, no crash
                errors[name] = str(exc)
                continue
            group = self._groups[key[2]]
            with group.lock:
                self._install(group.ticker, key, online)
                if "computed_at" in payload:
                    self.store.put(
                        key, state.curve, float(payload["computed_at"])
                    )
                with self._lock:
                    self._states[key] = state
                    self._states.move_to_end(key)
                    evicted += self._evict_locked()
            loaded += 1
        self._drop_slots(evicted)
        return {"loaded": loaded, "skipped": len(errors), "errors": errors}

    def cache_info(self) -> dict:
        """Cache and predictor occupancy counters (for the metrics layer).

        ``hits``/``misses`` count :meth:`curve` lookups against the curve
        cache; full QBETS fits split into ``cold_fits`` (the key held no
        predictor state: boot-time first touches, post-eviction refits,
        :meth:`warm_start` batch fits) and ``refits`` (the key was warm:
        rewind/gap/rewindow/ladder_change), with per-trigger counts in
        ``refit_reasons``; ``incremental_refreshes`` counts delta-fed
        refreshes, and ``recomputes`` is the sum of all three (the
        pre-incremental service's counter); ``evictions`` counts predictor
        states dropped by the LRU bound. ``predictors`` counts keys holding
        state and ``batch_keys`` the tickers' occupied slots; the two agree
        whenever no eviction is mid-flight.
        """
        with self._lock:
            return {
                "entries": len(self.store),
                "predictors": len(self._states),
                "max_predictors": self._cfg.max_predictors,
                "hits": self._hits,
                "misses": self._misses,
                "recomputes": (
                    self._cold_fits
                    + self._refits
                    + self._incremental_refreshes
                ),
                "cold_fits": self._cold_fits,
                "refits": self._refits,
                "incremental_refreshes": self._incremental_refreshes,
                "batch_keys": sum(
                    len(g.ticker) for g in self._groups.values()
                ),
                "refit_reasons": dict(self._refit_reasons),
                "evictions": self._evictions,
            }

    def key_info(
        self, instance_type: str, zone: str, probability: float
    ) -> dict | None:
        """Observability snapshot of one key's predictor state (or None)."""
        key = (instance_type, zone, probability)
        group = self._groups.get(probability)
        if group is None:
            return None
        with group.lock:
            with self._lock:
                state = self._states.get(key)
            if state is None:
                return None
            return {
                "cursor": state.cursor,
                "last_now": state.last_now,
                "max_price": state.max_price,
                "n": group.ticker.n(key),
            }

    def check_probability(self, probability: float) -> None:
        """Raise ``ValueError`` unless the service publishes ``probability``:
        every curve read checks this first, so an unpublished level is a
        400 on every route and tier, whatever names the URL carries."""
        levels = self._cfg.probabilities
        if probability not in levels:
            raise ValueError(
                f"service does not publish probability {probability}; "
                f"levels: {levels}"
            )

    def scan_zones(self, instance_type: str, region: str) -> tuple[str, ...]:
        """The zones a ``/cheapest`` scan of ``instance_type`` in ``region``
        visits, in scan order.

        Raises ``KeyError`` unless the account knows ``region`` and
        ``instance_type``, so a name it does not know answers 404, as a
        ``/predictions`` read of it does, not a retryable-looking 503. A
        partition-restricted API (a shard worker's) narrows the scan to
        the zones this process owns for the type through its
        ``zones_for_cheapest`` hook; the plain account has none, and the
        scan covers the whole region.
        """
        known = self._known_names
        if known is None:
            known = self._known_names = (
                frozenset(self._api.describe_regions()),
                frozenset(self._api.describe_instance_types()),
            )
        if region not in known[0]:
            raise KeyError(f"unknown region {region!r}")
        if instance_type not in known[1]:
            raise KeyError(f"unknown instance type {instance_type!r}")
        zones_for = getattr(self._api, "zones_for_cheapest", None)
        if zones_for is not None:
            return zones_for(instance_type, region)
        return self._api.describe_availability_zones(region)
