"""Epoch-ordered backtest replay over a frozen-key universe ticker.

The Table 1/4/5 sweeps ask the DrAFTS predictor for one bid per sampled
``(t_idx, duration)`` request, per combination. Answered per combo through
:meth:`DraftsPredictor.bid_for_many`, every probe re-slices an
``O(rungs x window)`` censored-duration matrix; answered here, all
combinations of a sweep are enrolled as *frozen* keys of one
:class:`~repro.core.universe.UniverseTicker` (phase 1 precomputed, ladder
levels pinned) and the replay walks the shared epoch grid once, in query
order — fast-forwarding every key with one bulk
:meth:`~repro.core.universe.UniverseTicker.extend_frozen` per query epoch
and answering each bid from the incremental rung state in
``O(log rungs x log n)``.

Bit-identity with the scalar path is structural: the frozen key's bounds
and levels *are* the fitted predictor's arrays, and a key that has
observed announcements ``[0, t_idx)`` queried with ``now = times[t_idx]``
computes exactly the floats ``DraftsPredictor.bid_for(d, t_idx)`` selects
from its duration matrix (asserted per query in the test suite).
"""

from __future__ import annotations

import math

import numpy as np

from repro.backtest import predcache
from repro.backtest.engine import BacktestConfig, sample_requests
from repro.baselines.ar1 import AR1Bid
from repro.core.drafts import DraftsConfig, DraftsPredictor
from repro.core.qbets import QBETSConfig
from repro.core.universe import UniverseTicker
from repro.core.universe_fit import fit_drafts_universe
from repro.market.traces import PriceTrace
from repro.market.universe import Combo, Universe
from repro.util.rng import RngFactory

__all__ = ["drafts_bids", "drafts_predictor_config", "prefit_phase1"]


def drafts_predictor_config(
    trace: PriceTrace, probability: float
) -> DraftsConfig:
    """The config :meth:`DraftsBid.for_combo` fits a combination with."""
    max_price = max(100.0, float(trace.prices.max()) * 8.0)
    return DraftsConfig(probability=probability, max_price=max_price)


def prefit_phase1(
    traces: list[PriceTrace],
    probability: float,
    *,
    drafts: bool = True,
    ar1: bool = True,
) -> tuple[int, list[DraftsPredictor]]:
    """Fit everything a Table 1 sweep reads from QBETS in one lockstep pass.

    The DrAFTS predictors :mod:`~repro.backtest.predcache` lacks (phase 1
    at ``q = sqrt(p)``) and the AR(1) segmentations
    :class:`~repro.baselines.ar1.AR1Bid`'s prefit cache lacks (change
    points at ``q = p``, as segmentation-only keys) go through a single
    :func:`~repro.core.universe_fit.fit_drafts_universe` call and land in
    those caches, where ``AR1Bid.for_combo`` and scalar cells find them.

    Returns the number of keys fitted and the DrAFTS predictor of every
    trace, cached or fitted here (empty when ``drafts`` is false). Pass
    the predictors to :func:`drafts_bids`: a chunk larger than the
    predictor LRU has already evicted some of them from it.
    """
    configs = (
        [drafts_predictor_config(trace, probability) for trace in traces]
        if drafts
        else []
    )
    predictors = [
        predcache.peek_predictor(trace, config)
        for trace, config in zip(traces, configs)
    ]
    missing = [i for i, predictor in enumerate(predictors) if predictor is None]
    keys: list[tuple[PriceTrace, DraftsConfig | QBETSConfig]] = [
        (traces[i], configs[i]) for i in missing
    ]
    if ar1:
        keys.extend(AR1Bid.segmentation_todo(traces, probability))
    if keys:
        fit = fit_drafts_universe(
            [trace for trace, _ in keys], [config for _, config in keys]
        )
        for k, (trace, config) in enumerate(keys):
            if isinstance(config, QBETSConfig):
                AR1Bid.store_segmentation(trace, config, fit.changepoints(k))
            else:
                # DrAFTS keys come first, in ``missing`` order.
                predictors[missing[k]] = fit.predictor(k)
                predcache.put_predictor(trace, config, predictors[missing[k]])
    return len(keys), predictors


def _fallback_bids(
    bids: np.ndarray,
    t_idxs: np.ndarray,
    bounds: np.ndarray,
    final_bound: float,
    config: DraftsConfig,
) -> np.ndarray:
    """Apply ``DraftsBid``'s ladder-top fallback to nan bids in place."""
    span = config.ladder_span
    for i in np.flatnonzero(np.isnan(bids)).tolist():
        t = int(t_idxs[i])
        bound = bounds[t] if t < bounds.size else final_bound
        min_bid = bound + config.premium
        if not math.isnan(min_bid):
            bids[i] = min_bid * span
    return bids


def drafts_bids(
    universe: Universe,
    combos: list[Combo],
    config: BacktestConfig,
    fallback: str = "top",
    predictors: list[DraftsPredictor] | None = None,
) -> dict[str, np.ndarray]:
    """DrAFTS bids for every sampled request of ``combos``, batch-replayed.

    Returns ``{combo.key: bids}`` with bids bit-identical to
    ``DraftsBid(predictor, fallback).bid_at_many`` over the engine's
    request sample for that combination (same seed stream, so the arrays
    drop into :func:`~repro.backtest.engine.run_backtest` /
    :func:`~repro.backtest.costopt.combo_costs` unchanged).
    ``predictors`` are the combos' phase-1 fits, as :func:`prefit_phase1`
    returns them; without them the fits go through
    :mod:`repro.backtest.predcache`, so the predictors stay shared with any
    scalar cells of the same sweep.
    """
    if fallback not in ("top", "none"):
        raise ValueError(f"unknown fallback mode {fallback!r}")
    if not combos:
        return {}
    traces = [universe.trace(combo) for combo in combos]
    if predictors is None:
        # One universe-wide phase-1 batch fit for every combo the
        # predictor cache does not already hold.
        predictors = predcache.get_predictors_batch(
            traces,
            [drafts_predictor_config(t, config.probability) for t in traces],
        )
    requests: list[tuple[np.ndarray, np.ndarray]] = []
    for combo, trace in zip(combos, traces):
        rng = RngFactory(config.seed).generator(f"backtest/{combo.key}")
        requests.append(sample_requests(trace, config, rng))

    grid = universe.trace(combos[0]).times
    ticker = UniverseTicker(DraftsConfig(probability=config.probability))
    price_rows = np.empty((len(combos), grid.size))
    bound_rows = np.empty((len(combos), grid.size))
    finals = np.empty(len(combos))
    queries: dict[int, list[tuple[int, int]]] = {}
    out: dict[str, np.ndarray] = {}
    for ki, combo in enumerate(combos):
        trace = universe.trace(combo)
        if trace.times.shape != grid.shape or np.any(trace.times != grid):
            raise ValueError(
                "batch replay needs one shared announcement grid; "
                f"{combo.key} diverges"
            )
        pred = predictors[ki]
        price_rows[ki] = trace.prices
        bound_rows[ki] = pred._bounds
        finals[ki] = pred._final_bound
        ticker.add_key(
            combo.key,
            bounds=pred._bounds,
            final_bound=pred._final_bound,
            levels=pred._ladder.levels,
            max_price=pred.config.max_price,
            instance_type=combo.instance_type,
            zone=combo.zone.name,
        )
        t_idxs, durations = requests[ki]
        out[combo.key] = np.full(t_idxs.size, np.nan)
        for qi in range(t_idxs.size):
            queries.setdefault(int(t_idxs[qi]), []).append((ki, qi))

    n = 0
    for t in sorted(queries):
        if t > n:
            ticker.extend_frozen(
                grid[n:t],
                price_rows[:, n:t],
                bound_rows[:, n:t],
                bound_rows[:, t],
            )
            n = t
        at = float(grid[t])
        for ki, qi in queries[t]:
            key = combos[ki].key
            out[key][qi] = ticker.bid_for(
                key, float(requests[ki][1][qi]), now=at
            )
    if fallback == "top":
        for ki, combo in enumerate(combos):
            _fallback_bids(
                out[combo.key],
                requests[ki][0],
                bound_rows[ki],
                float(finals[ki]),
                predictors[ki].config,
            )
    return out
