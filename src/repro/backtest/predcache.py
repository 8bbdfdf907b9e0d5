"""Process-wide cache of fitted DrAFTS predictors.

Fitting a :class:`~repro.core.drafts.DraftsPredictor` is the expensive part
of every backtest cell: phase 1 runs QBETS over the whole price history and
the bid-ladder exceedance table is precomputed for dozens of rungs. The
experiment suite refits identical predictors many times over — the Table 1
matrix, the Figure 1 sweep and the Table 4/5 cost optimiser all construct a
predictor for the same (trace, config) pairs, and within one experiment the
DrAFTS strategy cell and the availability-zone aggregation do as well.

This module keeps a bounded, process-wide LRU of fitted predictors keyed by
the *content* of the price trace plus the full
:class:`~repro.core.drafts.DraftsConfig`. A content fingerprint (SHA-1 over
the raw price/time bytes and the combo identity) subsumes the
(universe seed, combo key) pair — traces are pure functions of those seeds —
while also staying correct for hand-built traces that never saw a universe.

Worker processes each hold their own cache (the predictors are not
picklable across processes cheaply), which is exactly what the combo-major
parallel decomposition wants: every worker fits each of its combinations
once and reuses the fit across strategy cells.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

from repro.core.drafts import DraftsConfig, DraftsPredictor
from repro.core.universe_fit import fit_drafts_universe
from repro.market.traces import PriceTrace

__all__ = [
    "cache_info",
    "clear",
    "get_predictor",
    "get_predictors_batch",
    "peek_predictor",
    "put_predictor",
    "set_max_entries",
    "trace_fingerprint",
]

#: Default bound on cached predictors. A bench-scale predictor weighs a few
#: megabytes (dominated by the int32 exceedance table), so the default keeps
#: the cache comfortably under a gigabyte at paper scale.
DEFAULT_MAX_ENTRIES: int = 32

_lock = threading.Lock()
_cache: "OrderedDict[tuple[str, DraftsConfig], DraftsPredictor]" = OrderedDict()
_max_entries: int = DEFAULT_MAX_ENTRIES
_hits: int = 0
_misses: int = 0
_batch_fits: int = 0


def trace_fingerprint(trace: PriceTrace) -> str:
    """Content digest identifying a price trace.

    Hashes the raw price and timestamp bytes together with the combo
    identity, so two traces compare equal exactly when a predictor fitted
    on one is valid for the other.
    """
    h = hashlib.sha1()
    h.update(trace.instance_type.encode())
    h.update(trace.zone.encode())
    h.update(trace.times.tobytes())
    h.update(trace.prices.tobytes())
    return h.hexdigest()


def get_predictor(trace: PriceTrace, config: DraftsConfig) -> DraftsPredictor:
    """Fetch (or fit and cache) the predictor for ``(trace, config)``.

    The returned predictor is shared: callers must treat it as immutable,
    which :class:`DraftsPredictor` already guarantees (all queries are
    read-only).
    """
    global _hits, _misses
    key = (trace_fingerprint(trace), config)
    with _lock:
        cached = _cache.get(key)
        if cached is not None:
            _cache.move_to_end(key)
            _hits += 1
            return cached
    # Fit outside the lock: fits take seconds and concurrent callers with
    # different keys should not serialise. A duplicate concurrent fit of
    # the same key is wasted work but harmless (last writer wins).
    predictor = DraftsPredictor(trace, config)
    with _lock:
        _misses += 1
        _cache[key] = predictor
        _cache.move_to_end(key)
        while len(_cache) > _max_entries:
            _cache.popitem(last=False)
    return predictor


def peek_predictor(
    trace: PriceTrace, config: DraftsConfig
) -> DraftsPredictor | None:
    """Return the cached predictor for ``(trace, config)``, or ``None``.

    Unlike :func:`get_predictor` a miss does NOT trigger a scalar fit (and
    is not counted as one) — batch callers peek first, fit every miss in
    one universe-wide pass, and register the results via
    :func:`put_predictor`.
    """
    global _hits
    key = (trace_fingerprint(trace), config)
    with _lock:
        cached = _cache.get(key)
        if cached is not None:
            _cache.move_to_end(key)
            _hits += 1
        return cached


def put_predictor(
    trace: PriceTrace, config: DraftsConfig, predictor: DraftsPredictor
) -> None:
    """Register a batch-fitted predictor so scalar-path lookups hit.

    Counted under ``batch_fits`` in :func:`cache_info` rather than
    ``misses`` — the fit happened, but inside a universe-wide pass.
    """
    global _batch_fits
    key = (trace_fingerprint(trace), config)
    with _lock:
        _batch_fits += 1
        _cache[key] = predictor
        _cache.move_to_end(key)
        while len(_cache) > _max_entries:
            _cache.popitem(last=False)


def get_predictors_batch(
    traces: list[PriceTrace],
    configs: DraftsConfig | list[DraftsConfig],
) -> list[DraftsPredictor]:
    """Fetch predictors for many combos, batch-fitting every miss at once.

    ``configs`` may be one shared config or one per trace (mixed ladder
    domains and probabilities still fit in one lockstep pass).  Cached
    combos are served from the LRU (counted as hits); the misses go
    through :func:`repro.core.universe_fit.fit_drafts_universe` in a
    single universe-wide phase-1 pass and are registered back into the
    cache, so subsequent scalar-path :func:`get_predictor` calls hit.
    """
    if isinstance(configs, DraftsConfig):
        cfg_list = [configs] * len(traces)
    else:
        cfg_list = list(configs)
        if len(cfg_list) != len(traces):
            raise ValueError(
                f"got {len(cfg_list)} configs for {len(traces)} traces"
            )
    preds: list[DraftsPredictor | None] = [
        peek_predictor(tr, cfg) for tr, cfg in zip(traces, cfg_list)
    ]
    miss_idx = [i for i, p in enumerate(preds) if p is None]
    if miss_idx:
        fit = fit_drafts_universe(
            [traces[i] for i in miss_idx],
            [cfg_list[i] for i in miss_idx],
        )
        for pos, i in enumerate(miss_idx):
            p = fit.predictor(pos)
            put_predictor(traces[i], cfg_list[i], p)
            preds[i] = p
    return preds


def cache_info() -> dict:
    """Hit/miss counters and current occupancy."""
    with _lock:
        return {
            "hits": _hits,
            "misses": _misses,
            "batch_fits": _batch_fits,
            "size": len(_cache),
            "max_entries": _max_entries,
        }


def set_max_entries(n: int) -> None:
    """Rebound the cache (evicting oldest entries if shrinking)."""
    global _max_entries
    if n < 1:
        raise ValueError(f"max_entries must be >= 1, got {n}")
    with _lock:
        _max_entries = n
        while len(_cache) > _max_entries:
            _cache.popitem(last=False)


def clear() -> None:
    """Drop every cached predictor and reset the counters."""
    global _hits, _misses, _batch_fits
    with _lock:
        _cache.clear()
        _hits = 0
        _misses = 0
        _batch_fits = 0
