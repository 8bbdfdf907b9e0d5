"""Universe-wide batched phase-1 fit (SoA bound series + ladder layout).

:class:`~repro.core.qbets.QBETS` replays one price history at a time; the
paper-scale Table 1 sweep fits 452 of them back to back, and PR 6's
`UniverseTicker` showed the remaining wall-clock lives in exactly that
per-combo fit. This module performs the same phase-1 replay for the whole
universe at once, as one structure-of-arrays pass per *epoch column*:

* Histories are stored transposed, ``(time, key)`` (keys fitted from one
  price array share its column), keys sorted by length
  descending — the active set at column ``i`` is always a prefix, and every
  active key has consumed exactly ``i`` observations, so the change-point
  decimation clock (``n_seen % cp_decimation``) is one shared scalar per
  column. That lockstep is what makes the bound series column-sweepable:
  all per-key state transitions at column ``i`` depend only on state after
  column ``i - 1`` plus the column's price vector.
* Each key's quantised tick multiset lives in a *two-level count table
  over its rank-compressed slot alphabet*: per-slot counts plus per-block
  counts (blocks of ``B ~ sqrt(alphabet)`` slots), every key's alphabet
  laid end to end in one flat array. Pushing a column is two fancy-index
  increments; every order statistic the scalar path reads (bound
  selection, the change-point "low" threshold, the autocorrelation
  threshold) is two cumsum-and-count steps across all queried keys at
  once — over the key's blocks, then over the slots of the chosen block;
  a change point rebuilds a key's counts with one ``bincount``.
* Keys may differ in ``q`` (as well as ``max_value``): the binomial index
  table row, the up-detector's critical hit count, ``min_history`` (the
  ESS floor, the change-point keep length, the winsorisation pad) and the
  autocorrelation threshold quantile are per-key arrays, so DrAFTS price
  bounds at several probability levels — and the AR(1) baseline's
  segmentation at its own ``q`` — share one lockstep pass.
* The recent-observation rings run on the shared column clock (column
  ``i`` writes slot ``i % window`` of every key), so a full ring's
  chronological order is the same rotation for every key and the
  autocorrelation refresh counts adjacent exceedance pairs without a
  per-key gather.

Change points are the one genuinely scalar event: they are rare (a few per
key per fit), so each firing is handled by a per-key Python mirror of
``QBETS.update``'s truncation/winsorisation branch, rewriting that key's
history segment in place and rebuilding its count-table row. If a key's
post-change state cannot be represented in its compressed alphabet (a
winsorisation pad re-quantises to an unseen slot — impossible for realistic
price domains, but the rule is explicit), the key is *ejected to scalar*: a
fresh ``QBETS`` replays its prefix (bit-identically, by construction) and
advances it column by column from then on. Ejection is also the whole-
universe fallback for configurations the SoA kernels do not cover
(``side != "upper"``, the Monte-Carlo ``autocorr_mode="table"``).

Every floating-point expression mirrors the scalar code's operation order
(including the ``int(n * num / den)`` ESS truncation), and the lag-1
autocorrelation of a full power-of-two window is evaluated as an exact
integer ratio, so the produced bound series, change points, final states
and ladders are bit-identical to per-key ``QBETS.bound_series`` — asserted
by tests/test_universe_fit.py and gated by benchmarks/bench_universe_fit.py.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.core import binomial
from repro.core.changepoint import BinomialRunDetector
from repro.core.drafts import DraftsConfig, DraftsPredictor, ladder_levels
from repro.core.durations import DurationLadder
from repro.core.qbets import QBETS, QBETSConfig

__all__ = [
    "DraftsUniverseFit",
    "UniverseFitResult",
    "UniverseFitter",
    "fit_drafts_universe",
    "fit_universe",
]

#: ``k`` sentinel that differs from every real index: forces a re-selection.
_NO_K = np.iinfo(np.int64).min


def _batchable(cfg: QBETSConfig) -> bool:
    """Whether the SoA kernels cover this configuration.

    Phase 1 is always an upper bound with the analytic ESS correction; the
    other combinations stay on the scalar reference path (whole-universe
    ejection) rather than growing rarely-exercised kernel variants.
    """
    if cfg.side != "upper":
        return False
    if cfg.autocorr and cfg.autocorr_mode == "table":
        return False
    return True


def _lockstep_fields(cfg: QBETSConfig) -> QBETSConfig:
    """The part of a config every key of one lockstep pass must share.

    ``q`` and ``max_value`` are per-key state; everything else (tick,
    decimation, windows, refresh cadence, confidence, switches) fixes the
    shape or the clock of the shared column sweep.
    """
    return replace(cfg, q=0.5, max_value=1.0)


class UniverseFitter:
    """One batched phase-1 fit over many price histories.

    Parameters
    ----------
    series:
        One 1-D price array per key (ragged lengths allowed, including
        empty).
    configs:
        One :class:`QBETSConfig` shared by every key, or a sequence of
        per-key configs. Configs may differ in ``q`` and ``max_value``
        and must agree on every other field; disagreement raises
        ``ValueError`` because lockstep columns require shared
        decimation/window/refresh parameters.
    store_bounds:
        Per-key flags (default: all ``True``). A key with ``False`` is
        *segmentation-only*: its state evolves exactly as under
        ``QBETS.bound_series`` — change points, final bound, exported
        state — but its per-announcement bound series is not stored.
    eject_after:
        Testing/debug hook: ``{key_index: column}`` forces the key onto the
        scalar ejection path just before that column is consumed. The
        result must stay bit-identical; tests use this to exercise the
        eject rules without constructing a pathological price domain.
    """

    def __init__(
        self,
        series: Sequence[np.ndarray],
        configs: QBETSConfig | Sequence[QBETSConfig],
        *,
        store_bounds: Sequence[bool] | None = None,
        eject_after: dict[int, int] | None = None,
    ) -> None:
        arrays = [np.asarray(s, dtype=np.float64).ravel() for s in series]
        K = len(arrays)
        if isinstance(configs, QBETSConfig):
            cfg_list = [configs] * K
        else:
            cfg_list = list(configs)
        if len(cfg_list) != K:
            raise ValueError(
                f"{len(cfg_list)} configs for {K} series"
            )
        if K:
            shared = {_lockstep_fields(c) for c in cfg_list}
            if len(shared) > 1:
                raise ValueError(
                    "batched fit requires configs identical up to q and "
                    f"max_value; got {len(shared)} distinct configurations"
                )
        keep = (
            np.ones(K, dtype=bool)
            if store_bounds is None
            else np.asarray(store_bounds, dtype=bool).ravel()
        )
        if keep.size != K:
            raise ValueError(f"{keep.size} store_bounds flags for {K} series")
        self._series = arrays
        self._cfg_for = cfg_list
        self._K = K
        self._lengths = np.array([a.size for a in arrays], dtype=np.int64)
        self._T = int(self._lengths.max()) if K else 0
        self._ejected: dict[int, QBETS] = {}
        self._ejected_mask = np.zeros(K, dtype=bool)
        self._cps: list[list[int]] = [[] for _ in range(K)]
        # Sorted-by-length-descending key layout (bound-storing keys first
        # among equal lengths); everything below indexes keys by their
        # *sorted* position j, translated at the API edge.
        order = np.lexsort((~keep, -self._lengths))
        self._order = order
        inv = np.empty(K, dtype=np.int64)
        inv[order] = np.arange(K, dtype=np.int64)
        self._inv = inv
        self._len_sorted = self._lengths[order]
        # Bound-storing keys in sorted order; a key's output column is its
        # rank among them, so the active storing keys are a prefix too.
        self._bpos = np.flatnonzero(keep[order])
        self._bcol = np.full(K, -1, dtype=np.int64)
        self._bcol[self._bpos] = np.arange(self._bpos.size, dtype=np.int64)
        self._out_T = np.zeros((self._T, self._bpos.size), dtype=np.float64)
        self._bound = np.full(K, np.nan)
        self._eject_at: dict[int, list[int]] = {}
        if eject_after:
            for k, col in eject_after.items():
                self._eject_at.setdefault(int(col), []).append(int(inv[k]))
        if self._T == 0 or not _batchable(cfg_list[0]):
            self._run_fallback()
            return
        self._setup(cfg_list[0])
        self._run()

    # -- setup ---------------------------------------------------------------

    def _setup(self, cfg: QBETSConfig) -> None:
        K, T = self._K, self._T
        order = self._order
        cfgs = [self._cfg_for[k] for k in order.tolist()]
        self._tick = float(cfg.tick)
        self._cp_down_q = float(cfg.cp_down_quantile)
        self._autocorr = bool(cfg.autocorr)
        self._use_cp = bool(cfg.changepoint)
        self._decim = int(cfg.cp_decimation)
        self._refresh = int(cfg.autocorr_refresh)
        self._Wa = int(cfg.autocorr_window)
        self._Wd = int(cfg.cp_window)
        # The exact-ratio lag-1 path needs m = hits/Wa exactly
        # representable: Wa a power of two, small enough that Wa^3 stays
        # under 2^53.
        self._exact_lag1 = (
            (self._Wa & (self._Wa - 1)) == 0 and self._Wa <= (1 << 17)
        )
        # Per-key q-dependent state, one row/entry per distinct q.
        qs = sorted({c.q for c in cfgs})
        q_row = {q: r for r, q in enumerate(qs)}
        rows = [q_row[c.q] for c in cfgs]
        self._qv = np.array([c.q for c in cfgs], dtype=np.float64)
        self._mh = np.array([c.min_history() for c in cfgs], dtype=np.int64)
        self._keep_base = np.maximum(self._Wd * self._decim, self._mh)
        self._k_flat = np.concatenate(
            [
                np.array(
                    binomial.index_table(cfg.side, q, cfg.c, T)[: T + 1],
                    dtype=np.int64,
                )
                for q in qs
            ]
        )
        self._koff = np.array(rows, dtype=np.int64) * (T + 1)
        if self._use_cp:
            crit = [
                BinomialRunDetector(1.0 - q, self._Wd, cfg.cp_alpha)
                .critical_hits
                for q in qs
            ]
            self._crit_up = np.array([crit[r] for r in rows], dtype=np.int64)
            self._crit_down = BinomialRunDetector(
                self._cp_down_q, self._Wd, cfg.cp_alpha
            ).critical_hits
            self._up_events = np.zeros((K, self._Wd), dtype=bool)
            self._up_len = np.zeros(K, dtype=np.int64)
            self._up_head = np.zeros(K, dtype=np.int64)
            self._up_hits = np.zeros(K, dtype=np.int64)
            self._dn_events = np.zeros((K, self._Wd), dtype=bool)
            self._dn_len = np.zeros(K, dtype=np.int64)
            self._dn_head = np.zeros(K, dtype=np.int64)
            self._dn_hits = np.zeros(K, dtype=np.int64)
        self._slots_limit = np.array(
            [int(math.ceil(c.max_value / self._tick)) + 1 for c in cfgs],
            dtype=np.int64,
        )
        # Keys fitted from one price array (a trace at several levels)
        # share its column: same memory, same size, same values.
        cols: dict[tuple[int, int], int] = {}
        self._pcol = np.array(
            [
                cols.setdefault(
                    (self._series[k].ctypes.data, self._series[k].size),
                    len(cols),
                )
                for k in order.tolist()
            ],
            dtype=np.int64,
        )
        self._prices_T = np.zeros((T, len(cols)), dtype=np.float64)
        # Validate, then quantise per key. The walk reproduces the scalar
        # tracker's exact error message for the first offending value.
        for j, k in enumerate(order.tolist()):
            x = self._series[k]
            bad = np.flatnonzero((x < 0) | ~np.isfinite(x))
            if bad.size:
                v = float(x[bad[0]])
                if v < 0:
                    raise ValueError(f"values must be non-negative, got {v}")
                raise ValueError(f"values must be finite, got {v}")
            self._prices_T[: x.size, self._pcol[j]] = x
        uniqs: list[np.ndarray] = []
        ranks: list[np.ndarray] = []
        for j, k in enumerate(order.tolist()):
            x = self._series[k]
            slots_f = np.ceil(x / self._tick - 1e-9)
            # Domain-check on the float slots BEFORE the integer cast so
            # an out-of-domain price cannot wrap around.
            over = np.flatnonzero(slots_f >= self._slots_limit[j])
            if over.size:
                raise ValueError(
                    f"value {float(x[over[0]])} exceeds tracker domain "
                    f"(max {(self._slots_limit[j] - 1) * self._tick})"
                )
            u, r = np.unique(slots_f.astype(np.int64), return_inverse=True)
            uniqs.append(u)
            ranks.append(r.ravel())
        # Two-level count table: key j owns blocks [boff_j, boff_j + nblk_j)
        # of B slots each. nb_max spare blocks at the end keep every
        # fixed-width gather in range.
        U = np.array([u.size for u in uniqs], dtype=np.int64)
        U_max = max(int(U.max()), 1)
        shift = max(2, (U_max.bit_length() + 1) // 2)
        B = 1 << shift
        nblk = np.maximum((U + B - 1) >> shift, 1)
        nb_max = int(nblk.max())
        boff = np.zeros(K, dtype=np.int64)
        np.cumsum(nblk[:-1], out=boff[1:])
        n_slots = (int(nblk.sum()) + nb_max) << shift
        self._U = U
        self._shift = shift
        self._boff = boff
        self._off = boff << shift
        self._nblk = nblk
        self._blk_ar = np.arange(nb_max, dtype=np.int64)
        self._slot_ar = np.arange(B, dtype=np.int64)
        self._blocks = np.zeros(n_slots >> shift, dtype=np.int32)
        self._counts = np.zeros(n_slots, dtype=np.int32)
        self._uniq = np.zeros(n_slots, dtype=np.int64)
        # Per-column flat count-table index of every key's observation
        # (int32 halves the matrix; the sweep widens one row at a time).
        idx_dtype = np.int32 if n_slots < 2**31 else np.int64
        # Dtype of the rank-selection cumsums: a partial sum never exceeds
        # the table's total count (<= K * T observations), and int32 runs
        # ~4x faster than the default widening to int64.
        self._sum_dtype = np.int32 if K * T < 2**31 else np.int64
        self._cidx_T = np.zeros((T, K), dtype=idx_dtype)
        for j, (u, r) in enumerate(zip(uniqs, ranks)):
            if u.size:
                o = int(self._off[j])
                self._uniq[o : o + u.size] = u
                self._cidx_T[: r.size, j] = r + o
        self._vals = self._uniq.astype(np.float64) * self._tick
        self._ar = np.arange(K, dtype=np.int64)
        # Per-key scalar-state mirrors (sorted order).
        self._k_prev = np.full(K, _NO_K, dtype=np.int64)
        self._L = np.zeros(K, dtype=np.int64)
        self._h0 = np.zeros(K, dtype=np.int64)
        # Recent rings on the shared column clock: column c lives in slot
        # c % Wa; rec_start is the (virtual) column of the oldest entry
        # since the key's last ring reset.
        self._rec = np.zeros((K, self._Wa), dtype=np.float64)
        self._rec_start = np.zeros(K, dtype=np.int64)
        self._rho = np.zeros(K, dtype=np.float64)
        self._ess_num = np.ones(K, dtype=np.float64)
        self._ess_den = np.ones(K, dtype=np.float64)
        # Column at which each key's autocorrelation refresh next fires.
        self._due = np.full(K, self._refresh - 1, dtype=np.int64)
        neg = -self._len_sorted
        self._kact = np.searchsorted(
            neg, -np.arange(T, dtype=np.int64), side="left"
        ).tolist()
        self._nbact = np.searchsorted(
            neg[self._bpos], -np.arange(T, dtype=np.int64), side="left"
        ).tolist()

    # -- lockstep kernels ----------------------------------------------------

    def _select(self, rows: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """``rank``-th smallest tracked value for each queried key.

        Two cumsum-and-count steps through the queried keys' count tables
        in lockstep: the block holding the rank, then the slot inside it.
        The returned floats are ``slot * tick``, exactly what
        ``QuantileTracker.kth_smallest`` produces.
        """
        shift = self._shift
        r = ranks[:, None]
        boff = self._boff[rows]
        bc = self._blocks[boff[:, None] + self._blk_ar]
        before = bc.cumsum(axis=1, dtype=self._sum_dtype) <= r
        r = r - np.add.reduce(bc, axis=1, where=before, keepdims=True)
        base = (boff + before.sum(axis=1)) << shift
        sc = self._counts[base[:, None] + self._slot_ar]
        base += (sc.cumsum(axis=1, dtype=self._sum_dtype) <= r).sum(axis=1)
        return self._vals[base]

    def _observe(self, kact, events, elen, ehead, ehits, hit, crit):
        """Vectorised ``BinomialRunDetector.observe`` across the prefix."""
        ar = self._ar[:kact]
        ln = elen[:kact].copy()
        hd = ehead[:kact]
        full = ln == self._Wd
        ehits[:kact] -= events[ar, hd] & full
        wpos = np.where(full, hd, ln)
        events[ar, wpos] = hit
        ehits[:kact] += hit
        nh = hd + 1
        nh[nh == self._Wd] = 0
        ehead[:kact] = np.where(full, nh, hd)
        elen[:kact] = np.minimum(ln + 1, self._Wd)
        return (elen[:kact] == self._Wd) & (ehits[:kact] >= crit)

    def _update_bounds(self, kact: int, v: np.ndarray) -> None:
        """Event-driven bound maintenance for the column sweep.

        The bound is the k-th largest tracked value.  Pushing a value that
        is not strictly above the carried bound leaves the multiset's top-k
        untouched, so the carried float is exactly what a fresh selection
        would return.  A selection is therefore only needed for keys where
        (a) the pushed value exceeded the carried bound, or (b) the
        binomial index k changed (L growth, ESS/rho refresh, nan -> valid
        transition, or a change point, which resets ``k_prev``).
        """
        La = self._L[:kact]
        if self._autocorr:
            # int(n * num / den), floored at min(n, min_history); n >= 1
            # after the push, so the scalar's max(n_eff, 1) is implied.
            ne = La * self._ess_num[:kact]
            ne /= self._ess_den[:kact]
            ne = ne.astype(np.int64)
            np.maximum(ne, np.minimum(La, self._mh[:kact]), out=ne)
        else:
            ne = La
        k = self._k_flat[ne + self._koff[:kact]]
        events = k != self._k_prev[:kact]
        events |= v > self._bound[:kact]
        self._k_prev[:kact] = k
        rows = events.nonzero()[0]
        if rows.size:
            kr = k[rows]
            ok = kr >= 0
            self._bound[rows[~ok]] = np.nan
            sel = rows[ok]
            if sel.size:
                # kth_largest(k) over L samples is rank L - 1 - k from below.
                self._bound[sel] = self._select(sel, La[sel] - 1 - kr[ok])

    # -- the column sweep ----------------------------------------------------

    def _run(self) -> None:
        T = self._T
        prices_T, cidx_T = self._prices_T, self._cidx_T
        out_T, bound, bpos, bcol = (
            self._out_T, self._bound, self._bpos, self._bcol
        )
        counts, blocks, shift = self._counts, self._blocks, self._shift
        L, rec, Wa = self._L, self._rec, self._Wa
        decim, use_cp, autocorr = self._decim, self._use_cp, self._autocorr
        due, pcol = self._due, self._pcol
        len_sorted = self._len_sorted
        for i in range(T):
            kact = self._kact[i]
            v = prices_T[i].take(pcol[:kact])
            nb = self._nbact[i]
            if nb:
                np.take(bound, bpos[:nb], out=out_T[i, :nb])
            for j in self._eject_at.pop(i, ()):
                if not self._ejected_mask[j]:
                    self._eject(j, i)
            if self._ejected:
                for j, qb in self._ejected.items():
                    if i < len_sorted[j]:
                        if bcol[j] >= 0:
                            out_T[i, bcol[j]] = qb._bound
                        qb.update(float(prices_T[i, pcol[j]]))
            feed = use_cp and (i + 1) % decim == 0
            if feed:
                exceeded = v > bound[:kact]
                below = np.zeros(kact, dtype=bool)
                big = (L[:kact] >= 16).nonzero()[0]
                if big.size:
                    kl = (
                        np.ceil(self._cp_down_q * L[big]).astype(np.int64) - 1
                    )
                    np.maximum(kl, 0, out=kl)
                    below[big] = v[big] < self._select(big, kl)
            f = cidx_T[i, :kact].astype(np.intp)
            counts[f] += 1
            blocks[f >> shift] += 1
            L[:kact] += 1
            rec[:kact, i % Wa] = v
            if feed:
                fired_up = self._observe(
                    kact,
                    self._up_events,
                    self._up_len,
                    self._up_head,
                    self._up_hits,
                    exceeded,
                    self._crit_up[:kact],
                )
                fired_dn = self._observe(
                    kact,
                    self._dn_events,
                    self._dn_len,
                    self._dn_head,
                    self._dn_hits,
                    below,
                    self._crit_down,
                )
                fired = fired_up | fired_dn
                if fired.any():
                    idxs = fired.nonzero()[0]
                    for name in ("_up", "_dn"):
                        getattr(self, name + "_len")[idxs] = 0
                        getattr(self, name + "_head")[idxs] = 0
                        getattr(self, name + "_hits")[idxs] = 0
                    for j in idxs.tolist():
                        if not self._ejected_mask[j]:
                            self._handle_changepoint(
                                j, i, bool(fired_dn[j] and not fired_up[j])
                            )
            if autocorr:
                ready = (due[:kact] == i).nonzero()[0]
                if ready.size:
                    self._refresh_rho(i, ready)
            self._update_bounds(kact, v)

    def _refresh_rho(self, i: int, ready: np.ndarray) -> None:
        """Mirror ``QBETS._refresh_rho`` for the keys whose clock fired."""
        self._due[ready] = i + self._refresh
        Wa = self._Wa
        # Observations since each key's last ring reset. A reset keeps at
        # least the ring's contents in the tracker, so L >= seen and the
        # scalar's "recent < 8 or n < 4" test reduces to seen < 8.
        seen = i + 1 - self._rec_start[ready]
        if self._exact_lag1 and seen.min() >= Wa:
            self._set_rho(ready, self._full_ring_rho(i, ready))
            return
        # Warm-up rings (and non-power-of-two windows): the scalar
        # lag1_autocorr, key by key, on the chronological ring contents.
        rho = np.zeros(ready.size)
        live = (seen >= 8).nonzero()[0]
        if live.size:
            thr = self._thresholds(ready[live])
            for t, pos in enumerate(live.tolist()):
                j = int(ready[pos])
                n = min(int(seen[pos]), Wa)
                # The last n columns, oldest first.
                ring = np.arange(i + 1 - n, i + 1) % Wa
                ind = self._rec[j, ring] > thr[t]
                m = np.count_nonzero(ind) / n
                centered = np.where(ind, 1.0 - m, 0.0 - m)
                denom = float(np.dot(centered, centered))
                if denom > 0.0:
                    rho[pos] = float(np.dot(centered[:-1], centered[1:])) / denom
        self._set_rho(ready, rho)

    def _thresholds(self, rows: np.ndarray) -> np.ndarray:
        """Each key's empirical ``q``-quantile: the exceedance threshold."""
        Lr = self._L[rows]
        idx = np.ceil(self._qv[rows] * Lr).astype(np.int64)
        idx -= 1
        np.maximum(idx, 0, out=idx)
        np.minimum(idx, Lr - 1, out=idx)
        return self._select(rows, idx)

    def _full_ring_rho(self, i: int, rows: np.ndarray) -> np.ndarray:
        """Exact lag-1 autocorrelation of full exceedance rings.

        With Wa a power of two, m = c/Wa and both centered values of the
        0/1 indicator are exact, so the scalar path's two np.dot calls
        return exactly num/Wa^2 and den/Wa^2 for the integers below, and
        num/den is the same correctly rounded quotient. Expanding the
        centered products over c (ones), n11 (chronologically adjacent 1-1
        pairs) and e (ones among the two chronological endpoints) gives

            num = Wa^2 n11 + Wa c e - (Wa + 1) c^2,   den = Wa c (Wa - c).

        Every full ring shares one rotation: slot s = (i + 1) % Wa holds the
        oldest entry, so the chronological pairs are the circular ones
        minus the (s - 1, s) seam.
        """
        Wa = self._Wa
        ind = self._rec[rows] > self._thresholds(rows)[:, None]
        c = ind.sum(axis=1)
        n11 = (ind[:, :-1] & ind[:, 1:]).sum(axis=1)
        s = (i + 1) % Wa
        first, last = ind[:, s], ind[:, s - 1]
        if s:
            n11 += ind[:, -1] & ind[:, 0]
            n11 -= first & last
        e = np.add(first, last, dtype=np.int64)
        num = n11 * (Wa * Wa) + c * (Wa * e - (Wa + 1) * c)
        den = c * (Wa - c) * Wa
        rho = np.zeros(rows.size)
        np.divide(num, den, out=rho, where=den > 0)
        return rho

    def _set_rho(self, rows: np.ndarray, rho: np.ndarray) -> None:
        """``QBETS._set_rho``: store rho and its clamped ESS factors."""
        self._rho[rows] = rho
        r = np.minimum(np.maximum(rho, 0.0), 0.99)
        self._ess_num[rows] = 1.0 - r
        self._ess_den[rows] = 1.0 + r

    # -- change points and ejection ------------------------------------------

    def _handle_changepoint(self, j: int, i: int, down: bool) -> None:
        """Mirror of ``QBETS.update``'s change-point branch for key ``j``.

        Rewrites the key's history segment in place (count-table indices),
        rebuilds its count-table row with one ``bincount``, and resets its
        recent ring and autocorrelation state. The kept values are the
        tracker's ``slot * tick`` floats and every comparison, sort and
        re-quantisation is the scalar branch's, element for element, so the
        post-change state is bit-identical.
        """
        self._cps[j].append(i + 1)
        self._k_prev[j] = _NO_K
        seg_end = i + 1
        keep = min(int(self._keep_base[j]), int(self._L[j]))
        off = int(self._off[j])
        kept = self._vals[self._cidx_T[seg_end - keep : seg_end, j]]
        if down and kept.size >= 8:
            # Winsorise: drop values above the newest quarter's maximum,
            # padding back to min_history with the smallest dropped ones.
            ceiling = kept[-(kept.size // 4) :].max()
            high = kept > ceiling
            filtered = kept[~high]
            short = int(self._mh[j]) - filtered.size
            if short > 0:
                filtered = np.concatenate((np.sort(kept[high])[:short], filtered))
            kept = filtered
            slots = np.ceil(kept / self._tick - 1e-9)
            limit = int(self._slots_limit[j])
            over = (slots >= limit).nonzero()[0]
            if over.size:
                raise ValueError(
                    f"value {float(kept[over[0]])} exceeds tracker domain "
                    f"(max {(limit - 1) * self._tick})"
                )
            slots = slots.astype(np.int64)
            alphabet = self._uniq[off : off + int(self._U[j])]
            pos = np.searchsorted(alphabet, slots)
            if (pos >= alphabet.size).any() or (
                alphabet[np.minimum(pos, alphabet.size - 1)] != slots
            ).any():
                # Winsorisation re-quantised to a slot outside the key's
                # compressed alphabet (needs price values beyond ~$2e5 at
                # the default tick): hand the key to the scalar reference.
                self._eject(j, seg_end)
                return
            self._cidx_T[seg_end - kept.size : seg_end, j] = pos + off
        h = seg_end - kept.size
        self._h0[j] = h
        self._L[j] = kept.size
        width = int(self._nblk[j]) << self._shift
        row = np.bincount(self._cidx_T[h:seg_end, j] - off, minlength=width)
        self._counts[off : off + width] = row
        b0 = int(self._boff[j])
        self._blocks[b0 : b0 + int(self._nblk[j])] = row.reshape(
            -1, 1 << self._shift
        ).sum(axis=1)
        tail = kept[-self._Wa :]
        start = seg_end - tail.size
        self._rec_start[j] = start
        self._rec[j, np.arange(start, seg_end) % self._Wa] = tail
        self._rho[j] = 0.0
        self._ess_num[j] = 1.0
        self._ess_den[j] = 1.0
        # updates_since_rho restarts at 0 and this column's refresh step
        # counts it to 1.
        self._due[j] = i + self._refresh - 1

    def _eject(self, j: int, upto: int) -> None:
        """Replay key ``j``'s first ``upto`` observations through scalar QBETS.

        The replay is bit-identical by construction (same config, same
        values), so ejection at any column is invisible in the output; from
        here on the key advances scalarly inside the column loop.
        """
        k = self._order[j]
        qb = QBETS(self._cfg_for[k])
        bounds = qb.bound_series(self._prices_T[:upto, self._pcol[j]])
        if self._bcol[j] >= 0:
            self._out_T[:upto, self._bcol[j]] = bounds
        self._ejected[j] = qb
        self._ejected_mask[j] = True
        self._due[j] = -1

    def _run_fallback(self) -> None:
        for j, k in enumerate(self._order.tolist()):
            qb = QBETS(self._cfg_for[k])
            x = self._series[k]
            bounds = qb.bound_series(x)
            if self._bcol[j] >= 0:
                self._out_T[: x.size, self._bcol[j]] = bounds
            self._ejected[j] = qb
            self._ejected_mask[j] = True

    # -- results -------------------------------------------------------------

    def result(self) -> "UniverseFitResult":
        return UniverseFitResult(self)


class UniverseFitResult:
    """Read-only view over a finished :class:`UniverseFitter`.

    All accessors take the *original* key index (the position in the
    ``series`` sequence the fitter was constructed with).
    """

    def __init__(self, fitter: UniverseFitter) -> None:
        self._f = fitter

    @property
    def n_keys(self) -> int:
        return self._f._K

    @property
    def ejected_keys(self) -> list[int]:
        """Original indices of keys that ran on the scalar ejection path."""
        f = self._f
        return sorted(int(f._order[j]) for j in f._ejected)

    def length(self, k: int) -> int:
        return int(self._f._lengths[k])

    def qbets_config(self, k: int) -> QBETSConfig:
        return self._f._cfg_for[k]

    def bounds(self, k: int) -> np.ndarray:
        """Per-announcement bound series (``QBETS.bound_series`` parity)."""
        f = self._f
        col = int(f._bcol[f._inv[k]])
        if col < 0:
            raise ValueError(
                f"key {k} is segmentation-only: its bound series was not "
                "stored (store_bounds=False)"
            )
        return f._out_T[: f._lengths[k], col].copy()

    def final_bound(self, k: int) -> float:
        """Bound after the last observation (the ``qb.bound`` property)."""
        f = self._f
        j = int(f._inv[k])
        if j in f._ejected:
            return float(f._ejected[j].bound)
        return float(f._bound[j])

    def changepoints(self, k: int) -> list[int]:
        f = self._f
        j = int(f._inv[k])
        if j in f._ejected:
            return f._ejected[j].changepoints
        return list(f._cps[j])

    def qbets_state(self, k: int) -> dict:
        """``QBETS.state_dict``-format state for key ``k``.

        ``load_state_dict`` of this dict onto a fresh same-config ``QBETS``
        yields a predictor bit-identical to one that replayed the key's
        history scalarly — the live-handoff mechanism the service and the
        ``UniverseTicker`` consume.
        """
        f = self._f
        j = int(f._inv[k])
        if j in f._ejected:
            return f._ejected[j].state_dict()
        cfg = f._cfg_for[k]
        T_k = int(f._lengths[k])
        Wa = f._Wa
        # Scalar ring layout: item t since the last reset sits in slot
        # t % Wa, the write cursor moves only once the ring is full.
        seen = T_k - int(f._rec_start[j])
        ring = (int(f._rec_start[j]) + np.arange(min(seen, Wa))) % Wa
        state = {
            "tracker": f._uniq[f._cidx_T[f._h0[j] : T_k, j].astype(np.intp)],
            "recent": f._rec[j, ring],
            "recent_pos": seen % Wa if seen >= Wa else 0,
            "rho": float(f._rho[j]),
            "updates_since_rho": (
                f._refresh - int(f._due[j]) + T_k - 1 if cfg.autocorr else 0
            ),
            "bound": float(f._bound[j]),
            "bound_stale": False,
            "changepoints": list(f._cps[j]),
            "n_seen": T_k,
        }
        if cfg.changepoint:
            state["detector"] = {
                "up": {
                    "events": self._events(
                        f._up_events, f._up_len, f._up_head, j
                    )
                },
                "down": {
                    "events": self._events(
                        f._dn_events, f._dn_len, f._dn_head, j
                    )
                },
            }
        return state

    def _events(self, events, elen, ehead, j) -> list[bool]:
        f = self._f
        n = int(elen[j])
        if n < f._Wd:
            window = events[j, :n]
        else:
            h = int(ehead[j])
            if h == 0:
                window = events[j]
            else:
                window = np.concatenate((events[j, h:], events[j, :h]))
        return [bool(e) for e in window]


def fit_universe(
    series: Sequence[np.ndarray],
    configs: QBETSConfig | Sequence[QBETSConfig],
    *,
    store_bounds: Sequence[bool] | None = None,
    eject_after: dict[int, int] | None = None,
) -> UniverseFitResult:
    """Batch phase-1 fit: per-key bound series + change points + final state.

    Equivalent to ``QBETS(cfg).bound_series(x)`` per key, bit-identically,
    in one SoA pass over the whole universe. See :class:`UniverseFitter`.
    """
    return UniverseFitter(
        series, configs, store_bounds=store_bounds, eject_after=eject_after
    ).result()


class _LazyDurationLadder:
    """Deferred :class:`DurationLadder` with an eager ``levels`` view.

    The frozen-replay driver only reads ``levels`` off a batch-fitted
    predictor (durations come from the ticker's own buffers), so the
    expensive exceedance index is built on the first *duration* query —
    which, on the backtest path, never comes. Scalar-path queries
    materialise it transparently and bit-identically.
    """

    def __init__(self, times, prices, levels) -> None:
        self._times = times
        self._prices = prices
        self._levels = levels
        self._real: DurationLadder | None = None

    @property
    def levels(self) -> np.ndarray:
        return self._levels

    def _materialise(self) -> DurationLadder:
        if self._real is None:
            self._real = DurationLadder(
                self._times, self._prices, self._levels
            )
        return self._real

    def __getattr__(self, name: str):
        return getattr(self._materialise(), name)


class DraftsUniverseFit:
    """Phase-1 artefacts for a universe of traces, DrAFTS-shaped.

    Produced by :func:`fit_drafts_universe`; hands each key's fitted state
    to whichever consumer asks: ``predictor(k)`` for the backtest/predcache
    path (``DraftsPredictor.from_phase1`` with a lazy ladder),
    ``online_snapshot(k)`` for the serving tier
    (``OnlineDraftsPredictor.from_snapshot``), and ``bounds``/
    ``final_bound``/``levels`` for the ticker's frozen ``add_key``. A
    segmentation-only key (fitted from a bare :class:`QBETSConfig`) has
    ``changepoints``, ``final_bound`` and ``qbets_state`` only.
    """

    def __init__(
        self,
        traces: Sequence,
        configs: Sequence[DraftsConfig | QBETSConfig],
        results: list[tuple[UniverseFitResult, int]],
    ) -> None:
        self._traces = list(traces)
        self._configs = list(configs)
        self._results = results
        self._levels: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._traces)

    def trace(self, k: int):
        return self._traces[k]

    def config(self, k: int) -> DraftsConfig | QBETSConfig:
        return self._configs[k]

    def bounds(self, k: int) -> np.ndarray:
        res, pos = self._results[k]
        return res.bounds(pos)

    def final_bound(self, k: int) -> float:
        res, pos = self._results[k]
        return res.final_bound(pos)

    def changepoints(self, k: int) -> np.ndarray:
        res, pos = self._results[k]
        return np.asarray(res.changepoints(pos), dtype=np.int64)

    def qbets_state(self, k: int) -> dict:
        res, pos = self._results[k]
        return res.qbets_state(pos)

    def levels(self, k: int) -> np.ndarray:
        """Bid-ladder levels — ``DraftsPredictor._build_ladder`` parity."""
        cached = self._levels.get(k)
        if cached is not None:
            return cached
        bounds = self.bounds(k)
        valid = bounds[~np.isnan(bounds)]
        candidates = np.concatenate([valid, [self.final_bound(k)]])
        candidates = candidates[~np.isnan(candidates)]
        trace = self._traces[k]
        if candidates.size == 0:
            lo = float(trace.prices.min())
            hi = float(trace.prices.max())
        else:
            lo = float(candidates.min())
            hi = float(candidates.max())
        levels = ladder_levels(lo, hi, self._configs[k])
        self._levels[k] = levels
        return levels

    def predictor(self, k: int) -> DraftsPredictor:
        """Batch-identical :class:`DraftsPredictor` with a lazy ladder."""
        trace = self._traces[k]
        return DraftsPredictor.from_phase1(
            trace,
            self._configs[k],
            bounds=self.bounds(k),
            final_bound=self.final_bound(k),
            changepoints=self.changepoints(k),
            ladder=_LazyDurationLadder(
                trace.times, trace.prices, self.levels(k)
            ),
        )

    def online_snapshot(self, k: int) -> dict:
        """``OnlineDraftsPredictor.to_snapshot``-format state for key ``k``.

        ``OnlineDraftsPredictor.from_snapshot`` of this dict equals an
        online predictor that consumed the trace one announcement at a
        time — the service's cold-start handoff.
        """
        import dataclasses

        trace = self._traces[k]
        bounds = self.bounds(k)
        valid = bounds[~np.isnan(bounds)]
        prices = trace.prices
        return {
            "config": dataclasses.asdict(self._configs[k]),
            "n": int(len(trace)),
            "times": trace.times.copy(),
            "prices": prices.copy(),
            "bounds": bounds,
            "bounds_lo": float(valid.min()) if valid.size else math.inf,
            "bounds_hi": float(valid.max()) if valid.size else -math.inf,
            "prices_lo": float(prices.min()) if prices.size else math.inf,
            "prices_hi": float(prices.max()) if prices.size else -math.inf,
            "qbets": self.qbets_state(k),
        }

    def online_predictor(self, k: int):
        from repro.core.online import OnlineDraftsPredictor

        return OnlineDraftsPredictor.from_snapshot(self.online_snapshot(k))


def fit_drafts_universe(
    traces: Sequence,
    configs: DraftsConfig | Sequence[DraftsConfig | QBETSConfig],
    *,
    eject_after: dict[int, int] | None = None,
) -> DraftsUniverseFit:
    """Batch the DrAFTS phase-1 fit for a whole universe of traces.

    ``configs`` is one shared :class:`DraftsConfig` or one per trace. A
    per-trace entry may also be a bare :class:`QBETSConfig`: that key is
    *segmentation-only* — it rides the same pass for its change points,
    final bound and QBETS state (what the AR(1) baseline consumes) but
    stores no bound series and has no ladder or predictor. Keys are grouped
    by the QBETS fields one lockstep pass must share (everything except
    ``q`` and ``max_value``), so mixed probability levels, ladder domains
    and segmentation keys fit in one pass.
    """
    n = len(traces)
    if isinstance(configs, DraftsConfig):
        cfg_list = [configs] * n
    else:
        cfg_list = list(configs)
    if len(cfg_list) != n:
        raise ValueError(f"{len(cfg_list)} configs for {n} traces")
    qcfgs = [
        c if isinstance(c, QBETSConfig) else c.qbets_config()
        for c in cfg_list
    ]
    groups: dict[QBETSConfig, list[int]] = {}
    for idx, qc in enumerate(qcfgs):
        groups.setdefault(_lockstep_fields(qc), []).append(idx)
    results: list[tuple[UniverseFitResult, int] | None] = [None] * n
    for members in groups.values():
        ejects = None
        if eject_after:
            ejects = {
                pos: eject_after[k]
                for pos, k in enumerate(members)
                if k in eject_after
            } or None
        res = fit_universe(
            [traces[k].prices for k in members],
            [qcfgs[k] for k in members],
            store_bounds=[
                not isinstance(cfg_list[k], QBETSConfig) for k in members
            ],
            eject_after=ejects,
        )
        for pos, k in enumerate(members):
            results[k] = (res, pos)
    return DraftsUniverseFit(traces, cfg_list, results)
