"""AR(1) quantile bidding (the Table 1 "AR(1)" row).

Ben-Yehuda et al. observed that (older) Spot price series are well modelled
by an AR(1) process within stationary segments. Following §4.1.3, this
baseline combines an AR(1) fit with the same non-parametric binomial
change-point detection DrAFTS uses: segments between detected change points
are treated as stationary AR(1) series

    ``x_t = mu + phi (x_{t-1} - mu) + eps,  eps ~ N(0, sigma^2)``

whose stationary distribution is ``N(mu, sigma^2 / (1 - phi^2))``; the bid
at any instant is the target quantile of the stationary distribution fitted
to the most recent segment, "treated as a bound on the series for future
values".

The Gaussian assumption is precisely what fails on heavy-tailed and spiky
combinations — reproducing the paper's finding that the AR(1) method misses
its durability target on a large minority of combinations while remaining
correct on the benign ones.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy import stats

from repro.baselines.base import BidStrategy
from repro.core.qbets import QBETS, QBETSConfig
from repro.core.universe_fit import fit_drafts_universe
from repro.market.traces import PriceTrace
from repro.market.universe import Combo
from repro.util.validation import check_probability

__all__ = ["AR1Bid"]


def _scan_key(
    prices: np.ndarray, probability: float, max_price: float
) -> tuple[str, float, float]:
    digest = hashlib.sha1(prices.tobytes()).hexdigest()
    return (digest, float(probability), float(max_price))


def _segmentation_config(probability: float, max_price: float) -> QBETSConfig:
    """The QBETS configuration the change-point segmentation runs with."""
    return QBETSConfig(q=probability, c=0.99, side="upper", max_value=max_price)


class AR1Bid(BidStrategy):
    """Stationary-distribution quantile of a segment-wise AR(1) fit."""

    name = "ar1"

    #: Minimum segment length before a fit is attempted.
    MIN_SEGMENT = 64

    #: Process-wide change-point prefit cache, filled by
    #: :meth:`store_segmentation` (after a batched pass such as
    #: :meth:`prefit_universe`) so per-combo construction skips the scan.
    #: Entries are tiny (a handful of ints per combo).
    _scan_cache: dict[tuple[str, float, float], np.ndarray] = {}

    def __init__(
        self, trace: PriceTrace, probability: float, max_price: float = 100.0
    ) -> None:
        check_probability(probability, "probability")
        self._prices = trace.prices
        self._q = float(probability)
        self._z = float(stats.norm.ppf(self._q))
        self._moments = None
        cached = self._scan_cache.get(
            _scan_key(self._prices, probability, max_price)
        )
        if cached is not None:
            self._changepoints = cached
            return
        # Reuse DrAFTS's change-point machinery (same detector, same
        # decimation) purely for segmentation, as §4.1.3 describes.
        qb = QBETS(_segmentation_config(probability, max_price))
        # scan() evolves the detector state exactly like bound_series()
        # but skips the per-step bound selection this baseline never reads.
        qb.scan(self._prices)
        self._changepoints = np.asarray(qb.changepoints, dtype=np.int64)

    @staticmethod
    def _combo_max_price(trace: PriceTrace) -> float:
        return max(100.0, float(trace.prices.max()) * 8.0)

    @classmethod
    def for_combo(
        cls, combo: Combo, trace: PriceTrace, probability: float
    ) -> "AR1Bid":
        return cls(
            trace, probability, max_price=cls._combo_max_price(trace)
        )

    @classmethod
    def segmentation_todo(
        cls, traces: list[PriceTrace], probability: float
    ) -> list[tuple[PriceTrace, QBETSConfig]]:
        """Traces whose segmentation the prefit cache lacks, deduplicated.

        Each comes with the QBETS configuration :meth:`for_combo` segments
        it with; fit it (any path bit-identical to ``QBETS.bound_series``)
        and hand the change points to :meth:`store_segmentation`.
        """
        check_probability(probability, "probability")
        todo: list[tuple[PriceTrace, QBETSConfig]] = []
        seen: set[tuple[str, float, float]] = set()
        for trace in traces:
            max_price = cls._combo_max_price(trace)
            key = _scan_key(trace.prices, probability, max_price)
            if key in cls._scan_cache or key in seen:
                continue
            seen.add(key)
            todo.append((trace, _segmentation_config(probability, max_price)))
        return todo

    @classmethod
    def store_segmentation(
        cls, trace: PriceTrace, config: QBETSConfig, changepoints
    ) -> None:
        """Register ``trace``'s change points under ``config``'s cache key."""
        key = _scan_key(trace.prices, config.q, config.max_value)
        cls._scan_cache[key] = np.asarray(changepoints, dtype=np.int64)

    @classmethod
    def prefit_universe(
        cls, traces: list[PriceTrace], probability: float
    ) -> int:
        """Segment every trace's change points in one batched pass.

        Populates the prefit cache that :meth:`for_combo` consults, so a
        sweep's per-combo constructions become cache lookups instead of
        452 scalar ``QBETS.scan`` replays. The traces ride one
        :func:`~repro.core.universe_fit.fit_drafts_universe` pass as
        segmentation-only keys (a sweep that also fits DrAFTS sends both
        through one pass instead, see
        :func:`repro.backtest.universe_driver.prefit_phase1`). Traces
        already cached are skipped; returns how many were newly segmented.
        """
        todo = cls.segmentation_todo(traces, probability)
        if todo:
            fit = fit_drafts_universe(
                [trace for trace, _ in todo], [cfg for _, cfg in todo]
            )
            for k, (trace, cfg) in enumerate(todo):
                cls.store_segmentation(trace, cfg, fit.changepoints(k))
        return len(todo)

    @classmethod
    def clear_prefit(cls) -> None:
        """Drop the process-wide change-point prefit cache."""
        cls._scan_cache.clear()

    def _segment_start(self, t_idx: int) -> int:
        if self._changepoints.size == 0:
            return 0
        pos = int(np.searchsorted(self._changepoints, t_idx, side="right")) - 1
        if pos < 0:
            return 0
        return int(self._changepoints[pos])

    def _prefix_moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Prefix sums of ``p``, ``p**2`` and ``p[j] * p[j+1]``.

        ``c1[i] = sum(prices[:i])`` etc.; every segment statistic the
        AR(1) fit needs reduces to differences of these three arrays, so
        a bid query costs O(1) instead of re-reducing the whole segment
        (which, absent change points, is the entire prefix — quadratic
        over a backtest's request sample at paper scale).
        """
        if self._moments is None:
            p = np.asarray(self._prices, dtype=np.float64)
            c1 = np.concatenate(([0.0], np.cumsum(p)))
            c2 = np.concatenate(([0.0], np.cumsum(p * p)))
            c11 = np.concatenate(([0.0], np.cumsum(p[:-1] * p[1:])))
            self._moments = (c1, c2, c11)
        return self._moments

    def _segment_bid(self, a: int, t: int) -> float:
        """Stationary-quantile bid from the AR(1) fit of ``prices[a:t]``.

        Closed form of the reference per-segment reduction: with
        ``x0 = prices[a:t-1]``, ``x1 = prices[a+1:t]`` and ``mu`` the
        segment mean, the lag-0/lag-1 centred moments expand into the
        prefix sums, e.g. ``sum((x0 - mu)**2) = sum(x0**2) - 2 mu sum(x0)
        + (m-1) mu**2``; the residual power likewise telescopes to
        ``sum((x1-mu)**2) - 2 phi num + phi**2 denom``.
        """
        c1, c2, c11 = self._prefix_moments()
        m = t - a
        mu = (c1[t] - c1[a]) / m
        s0 = c1[t - 1] - c1[a]
        s1 = c1[t] - c1[a + 1]
        q0 = c2[t - 1] - c2[a]
        q1 = c2[t] - c2[a + 1]
        cross = c11[t - 1] - c11[a]
        n_pairs = m - 1
        denom = q0 - 2.0 * mu * s0 + n_pairs * mu * mu
        num = cross - mu * s0 - mu * s1 + n_pairs * mu * mu
        phi = num / denom if denom > 0 else 0.0
        # Clamp into the stationary region; |phi| -> 1 blows the variance up,
        # which is conservative but useless.
        phi = min(max(phi, -0.999), 0.999)
        resid_power = (
            q1 - 2.0 * mu * s1 + n_pairs * mu * mu
        ) - 2.0 * phi * num + phi * phi * denom
        # The expansion can cancel to a tiny negative on near-perfect fits.
        sigma2 = max(resid_power / n_pairs, 0.0)
        stat_sd = math.sqrt(sigma2 / (1.0 - phi * phi))
        bid = mu + self._z * stat_sd
        if bid <= 0:
            return float("nan")
        return round(bid, 4)

    def bid_at(self, t_idx: int, duration_seconds: float) -> float:
        if not 0 <= t_idx < self._prices.size:
            raise IndexError(f"t_idx {t_idx} out of range")
        start = self._segment_start(t_idx)
        if t_idx - start < self.MIN_SEGMENT:
            # Fall back to the longest available prefix when the current
            # segment is still warming up.
            start = 0
            if t_idx < self.MIN_SEGMENT:
                return float("nan")
        return self._segment_bid(start, t_idx)
