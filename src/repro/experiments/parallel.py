"""Process-parallel backtesting for paper-scale runs.

The full §4.1 protocol — 452 combinations x 4 strategies x 300 requests —
is embarrassingly parallel, and every input is a pure function of the
universe seed, so worker processes simply rebuild the (cached) universe and
pick their assignment by key. The sequential run (``workers=0``) is the
same code with one chunk.

Work is decomposed *combo-major*: one assignment is a chunk of
combinations with every strategy, not one (combination, strategy) cell. A
worker that owns a chunk generates each trace once and fits phase 1 once —
DrAFTS bounds and AR(1) segmentation in one lockstep pass, landing in
:mod:`repro.backtest.predcache` and the AR(1) prefit cache — and answers
all of the chunk's DrAFTS bids through one frozen-key
:class:`~repro.core.universe.UniverseTicker` replay, so the epoch walk
amortises across the whole chunk instead of re-scanning duration matrices
per query.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.backtest.engine import ComboResult, run_backtest
from repro.baselines import TABLE1_STRATEGIES
from repro.baselines.base import BidStrategy
from repro.experiments.common import SCALES, scaled_combos, scaled_universe

__all__ = ["backtest_matrix"]

_STRATEGY_BY_NAME: dict[str, type[BidStrategy]] = {
    s.name: s for s in TABLE1_STRATEGIES
}


@dataclass(frozen=True)
class _Assignment:
    """One chunk of combinations with the full strategy roster."""

    scale: str
    probability: float
    combo_keys: tuple[str, ...]
    strategy_names: tuple[str, ...]


def _run_assignment(assignment: _Assignment) -> list[ComboResult]:
    """Worker entry: rebuild the (process-cached) universe, run one chunk.

    Phase 1 for the whole chunk is one lockstep pass
    (:func:`repro.backtest.universe_driver.prefit_phase1`): the DrAFTS
    price bounds and the AR(1) change-point segmentation ride together.
    The AR(1) segmentations land in their prefit cache; the DrAFTS
    predictors go straight to one frozen-key universe replay
    (:func:`repro.backtest.universe_driver.drafts_bids`), not through the
    bounded predictor cache, which a chunk larger than it would have
    partly evicted. The epoch walk amortises across the chunk, and the
    bids drop into :func:`run_backtest` per
    combination; the other strategies run their own ``bid_at_many``, the
    AR(1) cells on cached segmentations. Results are bit-identical either
    way.
    """
    from repro.backtest.universe_driver import drafts_bids, prefit_phase1

    universe = scaled_universe(assignment.scale)
    combos = [
        universe.combo(*key.split("@")) for key in assignment.combo_keys
    ]
    config = SCALES[assignment.scale].backtest_config(assignment.probability)
    names = assignment.strategy_names
    _, predictors = prefit_phase1(
        [universe.trace(c) for c in combos],
        assignment.probability,
        drafts="drafts" in names,
        ar1="ar1" in names,
    )
    drafts = (
        drafts_bids(universe, combos, config, predictors=predictors)
        if "drafts" in names
        else {}
    )
    return [
        run_backtest(
            universe,
            combo,
            _STRATEGY_BY_NAME[name],
            config,
            bids=drafts.get(combo.key) if name == "drafts" else None,
        )
        for combo in combos
        for name in names
    ]


def backtest_matrix(
    scale: str = "paper",
    probability: float = 0.99,
    strategies: tuple[type[BidStrategy], ...] = TABLE1_STRATEGIES,
    workers: int = 0,
) -> list[ComboResult]:
    """Run the full (combination x strategy) backtest matrix.

    ``workers = 0`` runs sequentially in-process; ``workers >= 1`` fans the
    combinations out over that many worker processes. Results are identical
    either way (each cell is deterministic in the scale's seeds) and are
    returned in a stable order (combination key, then strategy).
    """
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    for strategy in strategies:
        if strategy.name not in _STRATEGY_BY_NAME:
            raise KeyError(
                f"strategy {strategy.name!r} is not parallelisable "
                "(register it in TABLE1_STRATEGIES)"
            )
    names = tuple(s.name for s in strategies)
    combos = scaled_combos(scale)
    if workers <= 0:
        # One chunk: the sequential run replays the whole universe through
        # a single frozen-key ticker.
        chunksize = len(combos)
    else:
        # A handful of chunks per worker balances scheduling slack for
        # uneven combos against per-task round-trip overhead; each chunk
        # shares one ticker replay.
        chunksize = max(1, len(combos) // (workers * 4))
    assignments = [
        _Assignment(
            scale=scale,
            probability=probability,
            combo_keys=tuple(c.key for c in combos[i : i + chunksize]),
            strategy_names=names,
        )
        for i in range(0, len(combos), chunksize)
    ]
    if workers <= 0:
        grouped = [_run_assignment(a) for a in assignments]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            grouped = list(pool.map(_run_assignment, assignments))
    return [result for group in grouped for result in group]
