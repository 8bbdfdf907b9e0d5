"""Universe-wide vectorised epoch tick (structure-of-arrays online state).

:class:`~repro.core.online.OnlineDraftsPredictor` makes a *single* key's
incremental refresh cheap, but a service that re-evaluates every
(AZ, instance type) combination each five-minute epoch still pays one
Python-level update-plus-curve chain per key. :class:`UniverseTicker`
holds the online state for N keys as 2-D/3-D numpy arrays — price and
bound histories, candidate envelopes, per-(key, rung) exceedance suffix
pointers and rank-selection buffers — so one market epoch advances the
whole universe in a handful of array ops and produces every curve from
one batched order-statistic selection.

The layout (DESIGN.md §4.3):

* **Histories** ``(N, capacity)``: times, prices, and the pre-update
  phase-1 bound per announcement, exactly the arrays the scalar
  predictor keeps per key.
* **Phase 1 stays per key.** QBETS change-point truncation, detector
  decimation offsets and autocorrelation refresh schedules diverge
  per key, which defeats lockstep vectorisation; one scalar
  :class:`~repro.core.qbets.QBETS` update costs ~4 µs, so the whole
  universe's phase 1 is ~2 ms — the structural source of bit-identity
  with the scalar reference. (Backtest replay goes further: keys can be
  added with a *precomputed* bound series, removing phase 1 from the
  epoch loop entirely.)
* **Phase 2 is where the vectorisation pays.** The scalar curve path
  materialises an O(rungs x n) censored-duration matrix and partitions
  every row per refresh. Here each (key, rung) keeps (a) the suffix
  pointer ``last``: every start ``s <= last`` has resolved (the market
  reached the rung's level after ``s``), everything later is censored —
  the same suffix property :class:`IncrementalDurationLadder` exploits;
  and (b) a sorted buffer of the *smallest* resolved durations. The
  phase-2 bound is the k-th smallest of (resolved durations) U
  (censored durations) — and the censored set is already sorted, since
  ``T_now - times[s]`` decreases in ``s``. A k-th-of-two-sorted-arrays
  selection answers every (key, rung) in O(log k) probes, vectorised
  across the whole universe in lockstep.
* **Lazy buffers.** Low rungs resolve almost every epoch (with tiny
  durations) but queries only touch rungs at or above the current
  minimum bid, where resolutions are rare. Buffers therefore carry a
  ``covered`` watermark and merge resolved durations only when a query
  lands on the row; the eager per-epoch work is one vectorised
  ``last``-pointer update. Only the smallest ``cap >= k+1`` resolved
  durations are kept (the selection never looks past index k), with the
  row rebuilt from the price history when k outgrows the buffer.

Batch/scalar split rules: keys needing a refit (cold start, rewind,
history gap, ladder-domain change) leave the ticker and go through the
scalar path, exactly as ``predcache`` misses do; configs with the
``truncate_durations`` / ``autocorr_durations`` ablations are rejected
outright (their per-rung order-statistic index breaks the shared-k
selection, and they are ablation-bench-only). Everything the ticker
produces — curve floats, bid floats, ``computed_at`` — is bit-identical
to the scalar reference at every epoch, asserted per-epoch by
``tests/test_universe_online.py``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.core import binomial
from repro.core.curves import BidDurationCurve, bid_ladder
from repro.core.drafts import DraftsConfig, ladder_levels
from repro.core.durations import next_exceed_indices
from repro.core.online import OnlineDraftsPredictor
from repro.core.qbets import QBETS
from repro.core.universe_fit import (
    DraftsUniverseFit,
    UniverseFitter,
    UniverseFitResult,
    fit_drafts_universe,
    fit_universe,
)

__all__ = [
    "UniverseTicker",
    "kth_of_two_sorted",
    "UniverseFitter",
    "UniverseFitResult",
    "DraftsUniverseFit",
    "fit_universe",
    "fit_drafts_universe",
]

#: Headroom added on top of ``k+1`` when (re)sizing selection buffers, so
#: k's slow growth with n does not trigger a rebuild every few epochs.
_BUF_PAD = 64


def kth_of_two_sorted(
    a_value,
    a_len: np.ndarray,
    k: np.ndarray,
    cens_len: np.ndarray,
    cens_value,
) -> np.ndarray:
    """Row-wise k-th smallest of two implicit sorted (ascending) arrays.

    Both arrays are accessed lazily: ``a_value(rows, i)`` returns element
    ``i`` of the first array for the given row indices and
    ``cens_value(rows, j)`` element ``j`` of the second; row ``r`` holds
    ``a_len[r]`` and ``cens_len[r]`` elements respectively (accessors see
    only clamped in-range probes, but inactive rows do still issue reads).
    ``k`` is the 0-based selection index per row; callers guarantee
    ``k < a_len + cens_len`` and, when the first array is truncated,
    ``a_len >= k + 1`` (the selection then never needs the dropped tail).
    Runs a lockstep binary search over how many elements the k+1 smallest
    take from the first array — O(log k) vectorised iterations regardless
    of row count, touching O(rows) elements per probe instead of the
    O(rows x k) gather a materialised merge would need.
    """
    rows = np.arange(a_len.size)
    take = k + 1
    lo = np.maximum(0, take - cens_len)
    hi = np.minimum(take, a_len)
    while True:
        active = lo < hi
        if not active.any():
            break
        i = (lo + hi) >> 1
        j = take - i
        # a[i] exists (i < hi <= a_len); cens[j-1] exists (0 < j <= cens_len).
        a_i = a_value(rows, i)
        c_jm1 = cens_value(rows, np.maximum(j - 1, 0))
        need_more_a = active & (c_jm1 > a_i)
        lo = np.where(need_more_a, i + 1, lo)
        hi = np.where(active & ~need_more_a, i, hi)
    i = lo
    j = take - i
    cand_a = np.where(
        i > 0, a_value(rows, np.maximum(i - 1, 0)), -np.inf
    )
    cand_c = np.where(
        j > 0, cens_value(rows, np.maximum(j - 1, 0)), -np.inf
    )
    return np.maximum(cand_a, cand_c)


class _KeySlot:
    """Per-key Python-side state (everything that is not an array row)."""

    __slots__ = (
        "key",
        "instance_type",
        "zone",
        "max_price",
        "qbets",
        "frozen_bounds",
        "frozen_final",
        "pinned_levels",
        "ladder_cache",
    )

    def __init__(self, key, instance_type: str, zone: str, max_price: float):
        self.key = key
        self.instance_type = instance_type
        self.zone = zone
        self.max_price = max_price
        self.qbets: QBETS | None = None
        self.frozen_bounds: np.ndarray | None = None
        self.frozen_final: float = float("nan")
        self.pinned_levels: np.ndarray | None = None
        # (min_bid, curve rungs, rung-index map, bids tuple) memo: the
        # minimum bid only moves when the phase-1 bound does, so the
        # per-key bid_ladder() call, the curve->ladder rung mapping and
        # the curve's bids tuple are reused across epochs.
        self.ladder_cache: (
            tuple[float, np.ndarray, np.ndarray, tuple] | None
        ) = None


class UniverseTicker:
    """Batch online DrAFTS predictor over many keys (one config group).

    All keys share one :class:`DraftsConfig` except ``max_price``, which
    only parameterises the per-key phase-1 quantile-tracker domain and may
    differ per key (the serving tier pins it per key at first fit).

    Two kinds of keys coexist:

    * **live** keys carry a scalar QBETS object (adopted from an
      :class:`OnlineDraftsPredictor` or started cold) — the serving path;
    * **frozen** keys carry a precomputed phase-1 bound series and pinned
      ladder levels — the backtest replay path, where phase 1 was already
      fitted over the full trace and only phase 2 must advance per epoch.
    """

    def __init__(self, config: DraftsConfig | None = None) -> None:
        cfg = config or DraftsConfig()
        if cfg.truncate_durations or cfg.autocorr_durations:
            raise ValueError(
                "UniverseTicker requires truncate_durations=False and "
                "autocorr_durations=False (ablation configs use the "
                "scalar path)"
            )
        self._cfg = cfg
        self._min_duration_n = binomial.min_history_lower(
            cfg.duration_quantile, cfg.confidence
        )
        self._k_table = binomial.index_table(
            "lower", cfg.duration_quantile, cfg.confidence, 0
        )
        self._k_array = np.asarray(self._k_table, dtype=np.int64)
        self._slots: list[_KeySlot | None] = []
        self._index: dict = {}
        self._free: list[int] = []
        self._high = 0  # high-water mark of ever-used slots
        self._order: list[int] = []  # insertion order of active slots
        # -- structure-of-arrays state (S slots x ...) ----------------------
        self._hist_cap = 0
        self._n = np.empty(0, dtype=np.int64)
        self._times = np.empty((0, 0))
        self._prices = np.empty((0, 0))
        self._bounds = np.empty((0, 0))
        self._blo = np.empty(0)
        self._bhi = np.empty(0)
        self._plo = np.empty(0)
        self._phi = np.empty(0)
        self._pinned = np.empty(0, dtype=bool)
        # Current phase-1 bound per key, mirrored out of the QBETS objects
        # on every observe so curves() reads one gather instead of S
        # property calls.
        self._bnow = np.empty(0)
        # -- rung pool: per (key, rung) --------------------------------------
        self._rung_cap = 0
        self._levels = np.empty((0, 0))
        self._nr = np.empty(0, dtype=np.int64)
        self._anchor = np.empty((0, 2))
        self._last = np.empty((0, 0), dtype=np.int64)
        self._covered = np.empty((0, 0), dtype=np.int64)
        self._buf_cap = 0
        self._buf = np.empty((0, 0, 0))
        self._buf_len = np.empty((0, 0), dtype=np.int64)
        self._trunc = np.empty((0, 0), dtype=bool)
        self._valid = np.empty((0, 0), dtype=bool)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def config(self) -> DraftsConfig:
        """The shared group configuration."""
        return self._cfg

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key) -> bool:
        return key in self._index

    def keys(self) -> list:
        """Active keys in insertion order."""
        return [self._slots[s].key for s in self._order]

    def n(self, key) -> int:
        """Announcements consumed for ``key``."""
        return int(self._n[self._index[key]])

    def span(self, key) -> float:
        """Seconds between the first and last announcement for ``key``."""
        s = self._index[key]
        n = int(self._n[s])
        if n == 0:
            return 0.0
        return float(self._times[s, n - 1] - self._times[s, 0])

    def last_time(self, key) -> float:
        """Timestamp of the latest announcement (nan when empty)."""
        s = self._index[key]
        n = int(self._n[s])
        return float(self._times[s, n - 1]) if n else float("nan")

    def price_bound(self, key) -> float:
        """Current phase-1 upper price bound for ``key``."""
        return self._bound_now(self._index[key])

    # -- slot/array growth ---------------------------------------------------

    def _grow_slots(self, n_slots: int) -> None:
        old = len(self._slots)
        if n_slots <= old:
            return
        self._slots.extend([None] * (n_slots - old))

        def grow2(arr, fill):
            out = np.full((n_slots,) + arr.shape[1:], fill, dtype=arr.dtype)
            out[:old] = arr
            return out

        # History rows are read only up to each slot's n, as _grow_history
        # assumes: copy the filled prefix and leave the rest (the adoption
        # headroom included) unwritten, so it stays non-resident.
        filled = int(self._n.max(initial=0))
        for name in ("_times", "_prices", "_bounds"):
            grown = np.empty((n_slots, self._hist_cap))
            grown[:old, :filled] = getattr(self, name)[:, :filled]
            setattr(self, name, grown)
        self._n = grow2(self._n, 0)
        self._blo = grow2(self._blo, np.inf)
        self._bhi = grow2(self._bhi, -np.inf)
        self._plo = grow2(self._plo, np.inf)
        self._phi = grow2(self._phi, -np.inf)
        self._pinned = grow2(self._pinned, False)
        self._bnow = grow2(self._bnow, np.nan)
        self._levels = grow2(self._levels, np.inf)
        self._nr = grow2(self._nr, 0)
        self._anchor = grow2(self._anchor, np.nan)
        self._last = grow2(self._last, -1)
        self._covered = grow2(self._covered, -1)
        self._buf = grow2(self._buf, np.inf)
        self._buf_len = grow2(self._buf_len, 0)
        self._trunc = grow2(self._trunc, False)
        self._valid = grow2(self._valid, False)

    def _grow_history(self, needed: int) -> None:
        if needed <= self._hist_cap:
            return
        cap = max(2 * self._hist_cap, needed, 1024)
        n_slots = len(self._slots)
        for name in ("_times", "_prices", "_bounds"):
            old = getattr(self, name)
            grown = np.empty((n_slots, cap))
            grown[:, : self._hist_cap] = old[:, : self._hist_cap]
            setattr(self, name, grown)
        self._hist_cap = cap

    def _grow_rungs(self, needed: int) -> None:
        if needed <= self._rung_cap:
            return
        cap = max(needed, self._rung_cap + 8)
        n_slots = len(self._slots)

        def grow3(arr, fill, dtype):
            out = np.full((n_slots, cap) + arr.shape[2:], fill, dtype=dtype)
            out[:, : self._rung_cap] = arr[:, : self._rung_cap]
            return out

        self._levels = grow3(self._levels, np.inf, np.float64)
        self._last = grow3(self._last, -1, np.int64)
        self._covered = grow3(self._covered, -1, np.int64)
        self._buf = grow3(self._buf, np.inf, np.float64)
        self._buf_len = grow3(self._buf_len, 0, np.int64)
        self._trunc = grow3(self._trunc, False, bool)
        self._valid = grow3(self._valid, False, bool)
        self._rung_cap = cap

    def _grow_buffers(self, needed: int) -> None:
        if needed <= self._buf_cap:
            return
        cap = max(2 * self._buf_cap, needed + _BUF_PAD)
        grown = np.full(self._buf.shape[:2] + (cap,), np.inf)
        grown[:, :, : self._buf_cap] = self._buf
        self._buf = grown
        self._buf_cap = cap

    def _k_for(self, n: np.ndarray) -> np.ndarray:
        """Vectorised phase-2 order-statistic index lookup."""
        top = int(n.max(initial=0))
        if top >= self._k_array.size:
            self._k_table = binomial.index_table(
                "lower", self._cfg.duration_quantile, self._cfg.confidence, top
            )
            self._k_array = np.asarray(self._k_table, dtype=np.int64)
        return self._k_array[n]

    # -- membership ----------------------------------------------------------

    def add_key(
        self,
        key,
        *,
        online: OnlineDraftsPredictor | None = None,
        instance_type: str = "",
        zone: str = "",
        max_price: float | None = None,
        bounds: np.ndarray | None = None,
        final_bound: float | None = None,
        levels: np.ndarray | None = None,
    ) -> None:
        """Enroll a key.

        Three forms:

        * ``add_key(key)`` — a cold live key (fresh QBETS, empty history);
        * ``add_key(key, online=pred)`` — adopt a scalar
          :class:`OnlineDraftsPredictor`'s state. The predictor's QBETS is
          taken over *by reference*; the caller must discard the scalar
          wrapper (the service does: every fit it runs is handed over
          this way and dropped).
        * ``add_key(key, bounds=..., final_bound=..., levels=...)`` — a
          frozen key for backtest replay: phase 1 was precomputed over the
          full trace (``bounds[i]`` is the bound in effect before
          announcement ``i``) and the ladder levels are pinned, so
          :meth:`observe` only advances phase-2 state.
        """
        if key in self._index:
            raise ValueError(f"key {key!r} already enrolled")
        if online is not None and bounds is not None:
            raise ValueError("pass either online= or bounds=, not both")
        if (bounds is None) != (final_bound is None) or (
            bounds is None
        ) != (levels is None):
            raise ValueError(
                "frozen keys need bounds=, final_bound= and levels= together"
            )
        if online is not None:
            ocfg = online.config
            if ocfg.with_(max_price=self._cfg.max_price) != self._cfg:
                raise ValueError(
                    "online predictor's config does not match the "
                    "ticker's group config"
                )
            if max_price is not None and max_price != ocfg.max_price:
                raise ValueError("max_price conflicts with online config")
            max_price = ocfg.max_price
        if max_price is None:
            max_price = self._cfg.max_price

        if self._free:
            s = self._free.pop()
        else:
            s = self._high
            if s >= len(self._slots):
                self._grow_slots(max(2 * len(self._slots), s + 1, 8))
            self._high += 1
        slot = _KeySlot(key, instance_type, zone, float(max_price))
        self._reset_slot(s)
        if bounds is not None:
            slot.frozen_bounds = np.asarray(bounds, dtype=np.float64)
            slot.frozen_final = float(final_bound)
            slot.pinned_levels = np.asarray(levels, dtype=np.float64)
            self._pinned[s] = True
            fb = slot.frozen_bounds
            self._bnow[s] = float(fb[0]) if fb.size else slot.frozen_final
        else:
            cfg = self._cfg.with_(max_price=float(max_price))
            if online is not None:
                slot.qbets = online._qbets
                n = online.n
                # An adopted key is live: reserve room for the
                # announcements it will observe, so the first refresh
                # does not reallocate every slot's history.
                self._grow_history(n + n // 8)
                self._n[s] = n
                self._times[s, :n] = online._times[:n]
                self._prices[s, :n] = online._prices[:n]
                self._bounds[s, :n] = online._bounds[:n]
                self._blo[s] = online._bounds_lo
                self._bhi[s] = online._bounds_hi
                self._plo[s] = online._prices_lo
                self._phi[s] = online._prices_hi
                self._bnow[s] = slot.qbets.bound
            else:
                slot.qbets = QBETS(cfg.qbets_config())
        self._slots[s] = slot
        self._index[key] = s
        self._order.append(s)

    def _reset_slot(self, s: int) -> None:
        self._n[s] = 0
        self._pinned[s] = False
        self._bnow[s] = np.nan
        self._blo[s] = np.inf
        self._bhi[s] = -np.inf
        self._plo[s] = np.inf
        self._phi[s] = -np.inf
        self._nr[s] = 0
        self._anchor[s] = np.nan
        self._levels[s, :] = np.inf
        self._last[s, :] = -1
        self._covered[s, :] = -1
        self._buf_len[s, :] = 0
        self._trunc[s, :] = False
        self._valid[s, :] = False

    def remove_key(self, key) -> None:
        """Free a key's slot (the service drops evicted keys this way and
        replaces a refit key's slot with remove + :meth:`add_key`)."""
        s = self._index.pop(key)
        self._order.remove(s)
        self._slots[s] = None
        self._free.append(s)

    def to_online(self, key) -> OnlineDraftsPredictor:
        """Materialise a key's state as a scalar predictor (eject copy).

        The returned predictor is bit-identical to one that consumed the
        same announcements scalar-side; the key stays enrolled (callers
        pair this with :meth:`remove_key` on refit handoff).
        """
        return OnlineDraftsPredictor.from_snapshot(self.key_snapshot(key))

    def key_snapshot(self, key) -> dict:
        """Per-key state in ``OnlineDraftsPredictor.to_snapshot`` format."""
        s = self._index[key]
        slot = self._slots[s]
        if slot.qbets is None:
            raise ValueError("frozen (backtest-replay) keys have no "
                             "scalar-predictor snapshot form")
        n = int(self._n[s])
        cfg = self._cfg.with_(max_price=slot.max_price)
        return {
            "config": dataclasses.asdict(cfg),
            "n": n,
            "times": self._times[s, :n].copy(),
            "prices": self._prices[s, :n].copy(),
            "bounds": self._bounds[s, :n].copy(),
            "bounds_lo": float(self._blo[s]),
            "bounds_hi": float(self._bhi[s]),
            "prices_lo": float(self._plo[s]),
            "prices_hi": float(self._phi[s]),
            "qbets": slot.qbets.state_dict(),
        }

    # -- the epoch tick ------------------------------------------------------

    def _slot_ids(self, keys) -> np.ndarray:
        if keys is None:
            return np.asarray(self._order, dtype=np.int64)
        return np.asarray([self._index[k] for k in keys], dtype=np.int64)

    def observe(self, time, prices, keys=None) -> None:
        """Consume announcements for ``keys`` (default: all).

        One epoch: ``time`` is a scalar and ``prices`` is aligned with
        ``keys`` (or with :meth:`keys` order). A window: ``time`` holds W
        strictly increasing timestamps shared by the keys and ``prices``
        is ``(K, W)``, exactly equivalent to W one-epoch calls — live keys
        still run their W scalar QBETS updates in order — but with one
        pass of array writes and one suffix-pointer sweep
        (:meth:`_append`, shared with :meth:`extend_frozen`). Keys without
        an announcement are simply omitted — the zero-delta case — and
        keep answering from their existing history.
        """
        idx = self._slot_ids(keys)
        t = np.asarray(time, dtype=np.float64)
        p = np.asarray(prices, dtype=np.float64)
        if t.ndim == 0:
            if p.shape != (idx.size,):
                raise ValueError("prices must align with the ticked keys")
            t = t.reshape(1)
            p = p.reshape(idx.size, 1)
        elif p.shape != (idx.size, t.size):
            raise ValueError("prices must align with the ticked keys")
        if idx.size == 0 or t.size == 0:
            return
        n = self._check_window(idx, t, p)
        w = t.size
        # Phase 1: per-key scalar QBETS (live) / precomputed gather (frozen).
        # The loops are just the unavoidable QBETS calls, one announcement
        # column at a time (a live key's bound before announcement j + 1 is
        # what its update j returned); pre-update bound recording and
        # envelope maintenance happen as batched array ops below (same
        # values, same order as the scalar predictor).
        slots = self._slots
        b = np.empty((idx.size, w))
        live_pos: list[int] = []
        qs: list[QBETS] = []
        for pos, s in enumerate(idx.tolist()):
            slot = slots[s]
            if slot.qbets is not None:
                live_pos.append(pos)
                qs.append(slot.qbets)
                continue
            fb = slot.frozen_bounds
            c = int(n[pos])
            known = fb[c : c + w]
            b[pos, : known.size] = known
            b[pos, known.size :] = np.nan
            self._bnow[s] = fb[c + w] if c + w < fb.size else slot.frozen_final
        if qs:
            lpos = np.array(live_pos)
            ls = idx[lpos]
            lp = p[lpos]
            pre = []
            after = [q.bound for q in qs]
            for column in lp.T.tolist():
                pre.append(after)
                after = [q.update(price) for q, price in zip(qs, column)]
            lb = np.array(pre).T
            b[lpos] = lb
            self._bnow[ls] = after
            # fmin/fmax skip the nan bounds of a warming-up tracker.
            self._blo[ls] = np.fmin(self._blo[ls], np.fmin.reduce(lb, axis=1))
            self._bhi[ls] = np.fmax(self._bhi[ls], np.fmax.reduce(lb, axis=1))
            self._plo[ls] = np.minimum(self._plo[ls], lp.min(axis=1))
            self._phi[ls] = np.maximum(self._phi[ls], lp.max(axis=1))
        self._append(idx, n, t, p, b)

    def tick(self, time: float, prices, keys=None) -> dict:
        """One epoch: :meth:`observe` + :meth:`curves` for the same keys."""
        self.observe(time, prices, keys)
        return self.curves(keys)

    def extend_frozen(self, times, prices, bounds, bound_now, keys=None):
        """Bulk-append a window of announcements to frozen keys.

        The backtest replay's fast-forward between query epochs: exactly
        equivalent to one :meth:`observe` call per column of ``times`` for
        ``keys`` (default: all, which must then all be frozen), with the
        caller's bound matrix in place of the keys' own bound series —
        the same array writes and suffix-pointer sweep as a window
        :meth:`observe` (:meth:`_append`).

        Parameters
        ----------
        times:
            ``(W,)`` strictly increasing announcement timestamps shared by
            every key (the synthetic universe's common epoch grid).
        prices / bounds:
            ``(K, W)`` per-key announcement prices and the phase-1 bounds
            in effect *before* each announcement (rows of the caller's
            stacked ``DraftsPredictor`` bound matrix).
        bound_now:
            ``(K,)`` the bound in effect *after* the window — the next
            bound column, or the final bound at end of trace.
        """
        idx = self._slot_ids(keys)
        t = np.asarray(times, dtype=np.float64)
        p = np.asarray(prices, dtype=np.float64)
        b = np.asarray(bounds, dtype=np.float64)
        bn = np.asarray(bound_now, dtype=np.float64)
        w = t.size
        if w == 0:
            return
        if (
            p.shape != (idx.size, w)
            or b.shape != (idx.size, w)
            or bn.shape != (idx.size,)
        ):
            raise ValueError("prices/bounds/bound_now must align with keys")
        for s in idx.tolist():
            if self._slots[s].qbets is not None:
                raise ValueError(
                    "extend_frozen only applies to frozen (backtest) keys"
                )
        if idx.size == 0:
            return
        n = self._check_window(idx, t, p)
        self._bnow[idx] = bn
        self._append(idx, n, t, p, b)

    def _check_window(self, idx, t, p) -> np.ndarray:
        """Validate a window for :meth:`_append`; the keys' history lengths."""
        if (p <= 0).any():
            raise ValueError("price must be positive")
        n = self._n[idx]
        started = n > 0
        if (t[1:] <= t[:-1]).any() or (
            started.any()
            and (t[0] <= self._times[idx[started], n[started] - 1]).any()
        ):
            raise ValueError("announcements must arrive in time order")
        return n

    def _append(self, idx, n, t, p, b) -> None:
        """Write a window of announcements and sweep the suffix pointers.

        The array half of :meth:`observe` and :meth:`extend_frozen`: key
        ``idx[i]`` gets timestamps ``t`` (W,), prices ``p[i]`` and
        pre-update bounds ``b[i]`` at columns ``n[i] .. n[i] + W - 1``. A
        rung whose level a window price reaches has resolved every start
        up to the last such column (merged lazily on query), so its
        suffix pointer moves there — one sweep, chunked so the (keys x
        rungs x window) cube stays cache-sized.
        """
        w = t.size
        self._grow_history(int(n.max()) + w)
        if (n == n[0]).all():  # the common case: one block of columns
            rows, cols = idx, slice(int(n[0]), int(n[0]) + w)
        else:
            rows, cols = idx[:, None], n[:, None] + np.arange(w)
        self._times[rows, cols] = t
        self._prices[rows, cols] = p
        self._bounds[rows, cols] = b
        levels = self._levels[idx]
        cur = self._last[idx]
        chunk = max(1, 4_000_000 // max(1, idx.size * self._rung_cap))
        for c0 in range(0, w, chunk):
            c1 = min(w, c0 + chunk)
            if c1 - c0 == 1:  # one column (the universe tick): no search
                hit = p[:, c0, None] >= levels
                cur = np.where(hit, (n + c0)[:, None], cur)
                continue
            hit = p[:, None, c0:c1] >= levels[:, :, None]
            last_in = (n + c1 - 1)[:, None] - np.argmax(hit[:, :, ::-1], axis=2)
            cur = np.where(hit.any(axis=2), last_in, cur)
        self._last[idx] = cur
        self._n[idx] = n + w

    # -- phase-1 state -------------------------------------------------------

    def _bound_now(self, s: int) -> float:
        slot = self._slots[s]
        if slot.qbets is not None:
            return slot.qbets.bound
        n = int(self._n[s])
        fb = slot.frozen_bounds
        return float(fb[n]) if n < fb.size else slot.frozen_final

    def _ensure_layout(self, s: int, bound_now: float) -> None:
        """Lay out (or re-anchor) a key's ladder, scalar-identically.

        Mirrors ``OnlineDraftsPredictor._candidates``/``_ensure_ladder``:
        the ladder is a pure function of the *current* candidate envelope,
        so re-anchoring at a different epoch than the scalar path (which
        only re-anchors when queried) still yields bit-identical levels.
        """
        slot = self._slots[s]
        if slot.pinned_levels is not None:
            if self._nr[s] == 0:
                self._install_levels(s, slot.pinned_levels)
            return
        lo, hi = self._blo[s], self._bhi[s]
        if not math.isnan(bound_now):
            lo = min(lo, bound_now)
            hi = max(hi, bound_now)
        if math.isinf(lo):
            lo, hi = self._plo[s], self._phi[s]
        if self._nr[s] and lo == self._anchor[s, 0] and hi == self._anchor[s, 1]:
            return
        self._install_levels(s, ladder_levels(lo, hi, self._cfg))
        self._anchor[s] = (lo, hi)
        slot.ladder_cache = None

    def _install_levels(self, s: int, levels: np.ndarray) -> None:
        nr = levels.size
        self._grow_rungs(nr)
        self._levels[s, :nr] = levels
        self._levels[s, nr:] = np.inf
        self._nr[s] = nr
        # Recompute every rung's suffix pointer over the history; buffers
        # are invalidated and rebuilt lazily on first query.
        n = int(self._n[s])
        self._last[s, :] = -1
        if n:
            hit = self._prices[s, :n][None, :] >= levels[:, None]
            any_hit = hit.any(axis=1)
            last = n - 1 - np.argmax(hit[:, ::-1], axis=1)
            self._last[s, :nr] = np.where(any_hit, last, -1)
        self._covered[s, :] = -1
        self._valid[s, :] = False
        self._buf_len[s, :] = 0
        self._trunc[s, :] = False

    # -- phase-2 buffer maintenance ------------------------------------------

    def _freshen_row(self, s: int, r: int, k: int) -> None:
        """Bring one (key, rung) buffer up to date for a selection at k."""
        n = int(self._n[s])
        last = int(self._last[s, r])
        if k + 1 > self._buf_cap:
            self._grow_buffers(k + 1)
        rebuild = not self._valid[s, r] or (
            self._trunc[s, r] and k + 1 > self._buf_len[s, r]
        )
        if rebuild:
            level = float(self._levels[s, r])
            idx = next_exceed_indices(self._prices[s, :n], level)
            hit = idx < n
            durs = self._times[s, idx[hit]] - self._times[s, :n][hit]
            self._store_row(s, r, durs, truncated=False)
            self._covered[s, r] = last
            self._valid[s, r] = True
            return
        covered = int(self._covered[s, r])
        if last <= covered:
            return
        # Catch up: starts in (covered, last] resolved since the last merge;
        # their termination epochs lie inside the same window's tail.
        level = float(self._levels[s, r])
        w0 = covered + 1
        idx = next_exceed_indices(self._prices[s, w0:n], level)
        m = last - covered
        ends = w0 + idx[:m]
        new = self._times[s, ends] - self._times[s, w0 : last + 1]
        blen = int(self._buf_len[s, r])
        merged = np.concatenate([self._buf[s, r, :blen], new])
        self._store_row(s, r, merged, truncated=bool(self._trunc[s, r]))
        self._covered[s, r] = last

    def _store_row(self, s: int, r: int, durs: np.ndarray, truncated: bool) -> None:
        cap = self._buf_cap
        if durs.size > cap:
            durs = np.partition(durs, cap - 1)[:cap]
            truncated = True
        durs = np.sort(durs)
        self._buf[s, r, : durs.size] = durs
        self._buf[s, r, durs.size :] = np.inf
        self._buf_len[s, r] = durs.size
        self._trunc[s, r] = truncated

    def _freshen_rows(
        self, slots: np.ndarray, rungs: np.ndarray, ks: np.ndarray
    ) -> None:
        """Vectorised staleness scan; only actually-stale rows hit Python."""
        last = self._last[slots, rungs]
        covered = self._covered[slots, rungs]
        valid = self._valid[slots, rungs]
        blen = self._buf_len[slots, rungs]
        needs_rebuild = ~valid | (
            (self._trunc[slots, rungs] & (ks + 1 > blen))
            | (ks + 1 > self._buf_cap)
        )
        stale = needs_rebuild | (last > covered)
        if not stale.any():
            return
        # Steady-state fast path: a fully-merged row whose level was
        # reached again this epoch has exactly one new resolved start — the
        # exceedance epoch itself, with duration exactly 0.0 (the scalar
        # matrix computes times[e] - times[e]). Inserting a 0.0 into a
        # sorted non-negative buffer is a one-slot right shift, done here
        # as one batched scatter for all such rows.
        fast = stale & ~needs_rebuild & (last - covered == 1)
        fi = np.flatnonzero(fast)
        if fi.size:
            fs = slots[fi]
            fr = rungs[fi]
            cap = self._buf_cap
            rows = self._buf[fs, fr]
            self._buf[fs, fr, 1:] = rows[:, :-1]
            self._buf[fs, fr, 0] = 0.0
            fl = blen[fi]
            full = fl == cap
            if full.any():
                self._trunc[fs[full], fr[full]] = True
            self._buf_len[fs, fr] = np.minimum(fl + 1, cap)
            self._covered[fs, fr] = last[fi]
        for i in np.flatnonzero(stale & ~fast).tolist():
            self._freshen_row(int(slots[i]), int(rungs[i]), int(ks[i]))

    # -- curves --------------------------------------------------------------

    def _ensure_layouts(self, idx: np.ndarray, bound_now: np.ndarray) -> None:
        """Vectorised :meth:`_ensure_layout` over producing keys.

        One batched candidate-envelope computation and anchor comparison;
        only keys whose ladder actually moved (rare once the market's range
        has been seen) drop into the per-key relayout.
        """
        blo, bhi = self._blo[idx], self._bhi[idx]
        has_b = ~np.isnan(bound_now)
        lo = np.where(has_b, np.minimum(blo, bound_now), blo)
        hi = np.where(has_b, np.maximum(bhi, bound_now), bhi)
        fall = np.isinf(lo)
        if fall.any():
            lo = np.where(fall, self._plo[idx], lo)
            hi = np.where(fall, self._phi[idx], hi)
        pinned = self._pinned[idx]
        anchor = self._anchor[idx]
        need = (self._nr[idx] == 0) | (
            ~pinned & ((lo != anchor[:, 0]) | (hi != anchor[:, 1]))
        )
        for pos in np.flatnonzero(need).tolist():
            s = int(idx[pos])
            slot = self._slots[s]
            if slot.pinned_levels is not None:
                self._install_levels(s, slot.pinned_levels)
            else:
                self._install_levels(
                    s, ladder_levels(float(lo[pos]), float(hi[pos]), self._cfg)
                )
                self._anchor[s] = (lo[pos], hi[pos])
                slot.ladder_cache = None

    def curves(self, keys=None) -> dict:
        """Current bid–duration curve per key (None while warming up)."""
        idx = self._slot_ids(keys)
        out = {}
        if idx.size == 0:
            return out
        cfg = self._cfg
        bound_now = self._bnow[idx]
        min_bid = bound_now + cfg.premium
        producing = ~np.isnan(min_bid)
        if not producing.all():
            for pos in np.flatnonzero(~producing).tolist():
                out[self._slots[int(idx[pos])].key] = None
        live = idx[producing]
        if live.size == 0:
            return out
        self._ensure_layouts(live, bound_now[producing])
        mb = min_bid[producing].tolist()
        # Per-key curve ladders + curve->pool rung mapping (memoised on the
        # minimum bid, which only moves when the phase-1 bound does).
        n_list = self._n[live]
        rung_rows = []
        c_len = np.empty(live.size, dtype=np.int64)
        for pos, s in enumerate(live.tolist()):
            slot = self._slots[s]
            m = mb[pos]
            cache = slot.ladder_cache
            if cache is None or cache[0] != m:
                rungs = bid_ladder(m, cfg.ladder_increment, cfg.ladder_span)
                rmap = np.minimum(
                    np.searchsorted(self._levels[s, : self._nr[s]], rungs,
                                    side="left"),
                    self._nr[s] - 1,
                )
                cache = (m, rungs, rmap, tuple(rungs.tolist()))
                slot.ladder_cache = cache
            rung_rows.append(cache)
            c_len[pos] = cache[1].size
        c_max = int(c_len.max())
        ridx = np.zeros((live.size, c_max), dtype=np.int64)
        for pos, cache in enumerate(rung_rows):
            rmap = cache[2]
            ridx[pos, : rmap.size] = rmap
        ks = self._k_for(n_list)
        key_valid = (n_list >= self._min_duration_n) & (ks >= 0)
        durations = np.full((live.size, c_max), np.nan)
        sel = key_valid[:, None] & (
            np.arange(c_max)[None, :] < c_len[:, None]
        )
        srow = np.broadcast_to(live[:, None], (live.size, c_max))[sel]
        rrow = ridx[sel]
        krow = np.broadcast_to(ks[:, None], (live.size, c_max))[sel]
        if srow.size:
            self._freshen_rows(srow, rrow, krow)
            durations[sel] = self._select_rows(srow, rrow, krow)
        filled = np.where(np.isnan(durations), -np.inf, durations)
        mono = np.maximum.accumulate(filled, axis=1)
        durations = np.where(np.isinf(mono), np.nan, mono)
        dur_rows = durations.tolist()
        computed_at = self._times[live, n_list - 1].tolist()
        trusted = BidDurationCurve.trusted
        probability = cfg.probability
        for pos, s in enumerate(live.tolist()):
            slot = self._slots[s]
            c = int(c_len[pos])
            out[slot.key] = trusted(
                rung_rows[pos][3],
                tuple(dur_rows[pos][:c]),
                probability,
                slot.instance_type,
                slot.zone,
                computed_at[pos],
            )
        return out

    def curve_for(self, key) -> BidDurationCurve | None:
        """Single-key convenience wrapper over :meth:`curves`."""
        return self.curves([key])[key]

    def _select_rows(
        self, slots: np.ndarray, rungs: np.ndarray, ks: np.ndarray
    ) -> np.ndarray:
        """Batched phase-2 bound: k-th smallest of resolved U censored."""
        n = self._n[slots]
        last = self._last[slots, rungs]
        cens_len = n - 1 - last
        # Rungs reached this epoch have no censored starts at all — their
        # k-th statistic is a direct buffer read; only the rest (typically
        # rungs above the current price) need the two-array merge kernel.
        pure = cens_len == 0
        if pure.all():
            return self._buf[slots, rungs, ks]
        if pure.any():
            res = np.empty(slots.size)
            pi = np.flatnonzero(pure)
            res[pi] = self._buf[slots[pi], rungs[pi], ks[pi]]
            mi = np.flatnonzero(~pure)
            res[mi] = self._select_rows(slots[mi], rungs[mi], ks[mi])
            return res
        t_now = self._times[slots, n - 1]
        buf = self._buf
        buf_hi = buf.shape[2] - 1

        def a_value(rows, i):
            # Lazy buffer read: the kernel probes O(log k) columns per row,
            # so gathering per probe beats materialising a (rows, k) slab.
            return buf[slots[rows], rungs[rows], np.minimum(i, buf_hi)]

        # The j-th smallest censored duration — t_now - times[n-1-j],
        # walking backwards from the newest start — does not depend on the
        # rung, and rows arrive key-major (curves() emits them grouped, and
        # the recursion above preserves order). Collapse to the ~K distinct
        # keys and precompute one small (K, k+1) prefix matrix; the floats
        # come from the same subtraction the scalar duration matrix
        # performs, so selection results agree bit-for-bit.
        first = np.empty(slots.size, dtype=bool)
        first[0] = True
        np.not_equal(slots[1:], slots[:-1], out=first[1:])
        inv = np.cumsum(first) - 1
        upos = np.flatnonzero(first)
        width_c = int(ks.max()) + 1
        scol = np.maximum(
            n[upos][:, None] - 1 - np.arange(width_c)[None, :], 0
        )
        ct = t_now[upos][:, None] - self._times[slots[upos][:, None], scol]

        def cens_value(rows, j):
            return ct[inv[rows], j]

        a_len = self._buf_len[slots, rungs]
        return kth_of_two_sorted(a_value, a_len, ks, cens_len, cens_value)

    # -- bid queries (the backtest replay surface) ---------------------------

    def bid_for(
        self, key, duration_seconds: float, *, now: float | None = None
    ) -> float:
        """Minimum ladder bid guaranteeing ``duration_seconds`` now.

        Bit-identical to ``DraftsPredictor.bid_for(d, n)`` over the same
        history and levels, but answered from the incremental rung state in
        O(log rungs x log n) instead of an O(rungs x n) matrix scan.

        ``now`` overrides the censor instant for still-open windows
        (default: the last observed announcement's timestamp). The batch
        predictor queried at an interior ``t_idx`` censors at
        ``times[t_idx]`` — the *query* announcement's own timestamp — so
        the backtest replay passes that instant to a frozen key that has
        observed announcements ``[0, t_idx)`` and gets the batch answer
        bit-identically: a start resolving exactly at ``t_idx`` carries
        duration ``times[t_idx] - times[start]`` either way.
        """
        if duration_seconds < 0:
            raise ValueError("duration must be non-negative")
        s = self._index[key]
        bound = self._bound_now(s)
        min_bid = bound + self._cfg.premium
        if math.isnan(min_bid):
            return float("nan")
        self._ensure_layout(s, bound)
        n = int(self._n[s])
        if n < self._min_duration_n:
            return float("nan")
        k = int(self._k_for(np.asarray([n]))[0])
        if k < 0:
            return float("nan")
        levels = self._levels[s, : self._nr[s]]
        cap = min_bid * self._cfg.ladder_span
        start = int(np.searchsorted(levels, min_bid, side="left"))
        stop = int(np.searchsorted(levels, cap * (1.0 + 1e-12), side="right"))
        if stop <= start:
            return float("nan")
        d = float(duration_seconds)
        t_now = float(self._times[s, n - 1]) if now is None else float(now)
        if t_now < self._times[s, n - 1]:
            raise ValueError("now must not precede the last announcement")

        def covers(r: int) -> bool:
            self._freshen_row(s, r, k)
            blen = int(self._buf_len[s, r])
            cnt = int(
                np.searchsorted(self._buf[s, r, :blen], d, side="left")
            )
            if cnt > k:
                return False
            # Censored starts (last, n-1]: durations t_now - times[s'] are
            # decreasing in s', so the `< d` set is a suffix found by
            # bisection over the same floats the scalar matrix holds.
            lo, hi = int(self._last[s, r]) + 1, n
            while lo < hi:
                mid = (lo + hi) >> 1
                if t_now - float(self._times[s, mid]) < d:
                    hi = mid
                else:
                    lo = mid + 1
            return cnt + (n - lo) <= k

        if not covers(stop - 1):
            return float("nan")
        lo, hi = start, stop - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if covers(mid):
                hi = mid
            else:
                lo = mid + 1
        return float(levels[lo])
