"""Bit-identity tests for the universe-wide batched phase-1 fit.

The contract under test: :func:`repro.core.universe_fit.fit_universe` /
:func:`fit_drafts_universe` produce, for every key of a (ragged, possibly
mixed-``q``) universe, exactly the floats the per-key scalar path produces —
QBETS bound series, change-point decisions, final bounds, exported state,
ladder levels and bids — and the fitted state hands off losslessly to every
consumer (``QBETS.load_state_dict`` continuation, ``OnlineDraftsPredictor``
snapshots, the frozen-replay ``UniverseTicker``, the predictor cache, the
AR(1) prefit and the fused Table 1 phase-1 pass).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.backtest import predcache
from repro.backtest.universe_driver import prefit_phase1
from repro.baselines.ar1 import AR1Bid
from repro.core.drafts import DraftsConfig, DraftsPredictor
from repro.core.online import OnlineDraftsPredictor
from repro.core.qbets import QBETS, QBETSConfig
from repro.core.universe import UniverseTicker
from repro.core.universe_fit import fit_drafts_universe, fit_universe
from repro.experiments.common import scaled_combos, scaled_universe
from repro.market.synthetic import VOLATILITY_CLASSES, synthetic_trace
from repro.market.traces import PriceTrace

CFG = QBETSConfig(q=0.975, c=0.99)
#: A second probability level for the mixed-q lockstep tests.
CFG_HI = QBETSConfig(q=0.99, c=0.99)
CLASSES = list(VOLATILITY_CLASSES)


def _series(i: int, n_epochs: int) -> np.ndarray:
    trace = synthetic_trace(
        CLASSES[i % len(CLASSES)], seed=500 + i, n_epochs=n_epochs
    )
    return np.asarray(trace.prices, dtype=float)


def _nan_eq(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _assert_state_equal(ref: dict, got: dict, label: str) -> None:
    for key in ref:
        va, vb = ref[key], got[key]
        if key == "detector":
            for side in ("up", "down"):
                assert list(va[side]["events"]) == list(vb[side]["events"]), (
                    f"{label}: detector.{side} events"
                )
        elif isinstance(va, np.ndarray):
            assert np.array_equal(
                va, np.asarray(vb), equal_nan=(va.dtype.kind == "f")
            ), f"{label}: {key}"
        else:
            same = va == vb or (
                isinstance(va, float)
                and isinstance(vb, float)
                and math.isnan(va)
                and math.isnan(vb)
            )
            assert same, f"{label}: {key} ref={va!r} got={vb!r}"


def _assert_key_matches(
    res, k: int, x: np.ndarray, *, bounds: bool, cfg: QBETSConfig = CFG
) -> None:
    """One key of a batch result vs a fresh scalar QBETS replay."""
    qb = QBETS(cfg)
    ref_bounds = qb.bound_series(x)
    if bounds:
        assert np.array_equal(
            ref_bounds, res.bounds(k), equal_nan=True
        ), f"key {k}: bound series"
    else:
        with pytest.raises(ValueError, match="segmentation-only"):
            res.bounds(k)
    ref_state = qb.state_dict()
    assert _nan_eq(qb.bound, res.final_bound(k)), f"key {k}: final bound"
    assert list(qb.changepoints) == list(res.changepoints(k)), (
        f"key {k}: change points"
    )
    _assert_state_equal(ref_state, res.qbets_state(k), f"key {k}")


class TestFitUniverse:
    """fit_universe vs per-key scalar bound_series replays."""

    def _crafted_universe(self) -> list[np.ndarray]:
        """Ragged lengths plus crafted change points at the boundaries.

        * key 1 — a regime drop right after ``min_history``, so the
          change point lands as early as the detector can decide;
        * key 2 — a mid-history regime drop (change point plus a
          follow-up re-detection);
        * key 4 — a drop 150 epochs before the end, whose change point
          fires within the last few epochs of history;
        * keys 3/5/6/7 — ragged: shorter histories, below
          ``min_history``, and a single announcement.
        """
        series = [_series(i, 1600) for i in range(8)]
        series[3] = series[3][:700]
        min_history = CFG.min_history()
        series[5] = series[5][: min_history - 1]
        series[6] = series[6][:60]
        series[7] = series[7][:1]
        series[1] = series[1].copy()
        series[1][250:] *= 0.12
        series[2] = series[2].copy()
        series[2][700:] *= 0.12
        series[4] = series[4].copy()
        series[4][1450:] *= 0.12
        return series

    @pytest.mark.parametrize(
        "bounds", [True, False], ids=["fit", "segment"]
    )
    def test_crafted_universe_bit_identical(self, bounds):
        # "segment": segmentation-only keys store no bound series but must
        # leave change points, final bound and state exactly as
        # bound_series does.
        series = self._crafted_universe()
        res = fit_universe(series, CFG, store_bounds=[bounds] * len(series))
        for k, x in enumerate(series):
            _assert_key_matches(res, k, x, bounds=bounds)

    def test_mixed_q_universe_bit_identical(self):
        # Keys alternate between two probability levels in one lockstep
        # pass: per-key k-table row, up-detector critical count,
        # min_history (ESS floor, keep length, winsorisation pad) and
        # autocorrelation threshold. Key 0 is forced through the scalar
        # ejection path mid-fit, key 5 stops one announcement short of its
        # own (q = 0.99) min_history, and keys 3/4 store no bound series.
        series = self._crafted_universe()
        series[5] = _series(5, CFG_HI.min_history() - 1)
        configs = [CFG if k % 2 == 0 else CFG_HI for k in range(len(series))]
        store = [k not in (3, 4) for k in range(len(series))]
        res = fit_universe(
            series, configs, store_bounds=store, eject_after={0: 900}
        )
        assert res.ejected_keys == [0]
        for k, x in enumerate(series):
            _assert_key_matches(
                res, k, x, bounds=store[k], cfg=configs[k]
            )
        assert np.all(np.isnan(res.bounds(5)))
        assert math.isnan(res.final_bound(5))

    def test_per_key_autocorrelation_path_bit_identical(self):
        # A window that is not a power of two sends every refresh through
        # the per-key lag-1 path, full rings included (the path a refresh
        # batch takes whenever one of its keys is still warming up).
        cfg = CFG.with_(autocorr_window=200)
        series = self._crafted_universe()
        res = fit_universe(series, cfg)
        for k, x in enumerate(series):
            _assert_key_matches(res, k, x, bounds=True, cfg=cfg)

    def test_lockstep_fields_must_agree(self):
        series = [_series(i, 300) for i in range(2)]
        with pytest.raises(ValueError, match="identical up to q"):
            fit_universe(series, [CFG, CFG.with_(cp_window=24)])

    def test_crafted_change_points_actually_fire(self):
        series = self._crafted_universe()
        res = fit_universe(series, CFG)
        early = list(res.changepoints(1))
        mid = list(res.changepoints(2))
        late = list(res.changepoints(4))
        assert early and early[0] < 700, "early change point missing"
        assert any(700 <= cp < 1400 for cp in mid), (
            "mid-history change point missing"
        )
        assert late and late[-1] >= 1550, "final-epoch change point missing"

    def test_short_histories_never_bound(self):
        # Below min_history the scalar path never publishes a bound; the
        # batch path must agree (all-nan series, nan final bound).
        series = self._crafted_universe()
        res = fit_universe(series, CFG)
        for k in (5, 6, 7):
            assert np.all(np.isnan(res.bounds(k)))
            assert math.isnan(res.final_bound(k))

    def test_single_key_universe(self):
        x = _series(0, 1200)
        res = fit_universe([x], CFG)
        _assert_key_matches(res, 0, x, bounds=True)

    def test_empty_universe(self):
        res = fit_universe([], CFG)
        assert res.n_keys == 0

    def test_state_continues_under_scalar_updates(self):
        # load_state_dict handoff: a scalar QBETS resumed from the batch
        # state must track a never-interrupted reference for 300 more
        # observations — bounds, change points, and exported state.
        series = self._crafted_universe()
        res = fit_universe(series, CFG)
        rng = np.random.default_rng(7)
        for k in (0, 1, 2, 3, 5, 7):
            ref = QBETS(CFG)
            ref.bound_series(series[k])
            resumed = QBETS(CFG)
            resumed.load_state_dict(res.qbets_state(k))
            for v in rng.uniform(0.05, 0.9, size=300):
                ref.update(float(v))
                resumed.update(float(v))
                assert _nan_eq(ref.bound, resumed.bound), (
                    f"key {k}: bound diverged mid-continuation"
                )
            assert list(ref.changepoints) == list(resumed.changepoints)
            _assert_state_equal(
                ref.state_dict(), resumed.state_dict(), f"continued key {k}"
            )

    def test_forced_ejection_matches_batch_path(self):
        # The eject hook drops keys to the scalar path mid-fit; results
        # must be indistinguishable from the pure batch run.
        series = self._crafted_universe()
        pure = fit_universe(series, CFG)
        ejected = fit_universe(
            series, CFG, eject_after={0: 600, 1: 0, 4: 1599}
        )
        assert sorted(ejected.ejected_keys) == [0, 1, 4]
        for k in range(len(series)):
            assert np.array_equal(
                pure.bounds(k), ejected.bounds(k), equal_nan=True
            )
            _assert_state_equal(
                pure.qbets_state(k), ejected.qbets_state(k), f"eject key {k}"
            )

    def test_unsupported_config_falls_back_to_scalar(self):
        cfg_lower = QBETSConfig(q=0.1, c=0.99, side="lower")
        series = [_series(i, 500) for i in range(3)]
        res = fit_universe(series, cfg_lower)
        for k, x in enumerate(series):
            qb = QBETS(cfg_lower)
            ref = qb.bound_series(x)
            assert np.array_equal(ref, res.bounds(k), equal_nan=True)
            _assert_state_equal(
                qb.state_dict(), res.qbets_state(k), f"fallback key {k}"
            )


@pytest.fixture()
def drafts_traces():
    traces = [
        synthetic_trace(CLASSES[i % len(CLASSES)], seed=900 + i, n_epochs=900)
        for i in range(5)
    ]
    # Ragged: one short key (distinct announcement grid is fine here —
    # only the frozen-replay test needs a shared grid).
    short = traces[3]
    traces[3] = PriceTrace(
        short.times[:400],
        short.prices[:400],
        instance_type=short.instance_type,
        zone=short.zone,
    )
    return traces


class TestFitDraftsUniverse:
    """The DrAFTS-shaped handoffs built on top of the batch fitter."""

    def test_predictors_bit_identical_to_scalar_fits(self, drafts_traces):
        config = DraftsConfig(probability=0.95)
        fit = fit_drafts_universe(drafts_traces, config)
        for k, trace in enumerate(drafts_traces):
            ref = DraftsPredictor(trace, config)
            pred = fit.predictor(k)
            assert np.array_equal(
                ref._bounds, pred._bounds, equal_nan=True
            ), f"key {k}: bound series"
            assert _nan_eq(ref._final_bound, pred._final_bound)
            assert list(ref.changepoints) == list(pred.changepoints)
            assert np.array_equal(
                np.asarray(ref._ladder.levels),
                np.asarray(pred._ladder.levels),
            ), f"key {k}: ladder levels"
            n = len(trace)
            for t_idx in (n // 2, n - 1):
                for duration in (1800.0, 3600.0, 86400.0, 1e12):
                    assert _nan_eq(
                        ref.bid_for(duration, t_idx),
                        pred.bid_for(duration, t_idx),
                    ), f"key {k}: bid_for({duration}, {t_idx})"

    def test_mixed_configs_group_and_match(self, drafts_traces):
        # Per-key probabilities and ladder domains: the fitter groups by
        # QBETS-equivalent config internally; every key must still match
        # its own scalar fit.
        configs = [
            DraftsConfig(
                probability=0.95 if k % 2 == 0 else 0.99,
                max_price=100.0 * (1 + k % 3),
            )
            for k in range(len(drafts_traces))
        ]
        fit = fit_drafts_universe(drafts_traces, configs)
        for k, (trace, config) in enumerate(zip(drafts_traces, configs)):
            ref = DraftsPredictor(trace, config)
            pred = fit.predictor(k)
            assert np.array_equal(ref._bounds, pred._bounds, equal_nan=True)
            assert _nan_eq(ref._final_bound, pred._final_bound)

    def test_online_snapshot_handoff_and_continuation(self, drafts_traces):
        config = DraftsConfig(probability=0.95)
        fit = fit_drafts_universe(drafts_traces, config)
        for k, trace in enumerate(drafts_traces):
            ref = OnlineDraftsPredictor(config)
            ref.extend(trace)
            online = fit.online_predictor(k)
            for pred in (ref, online):
                assert pred.n == len(trace)
            a = ref.curve_at(ref.n, instance_type="t", zone="z")
            b = online.curve_at(online.n, instance_type="t", zone="z")
            if a is None or b is None:
                assert a is b
            else:
                assert a.bids == b.bids
                assert all(
                    _nan_eq(x, y) for x, y in zip(a.durations, b.durations)
                )

    def test_extend_frozen_handoff_matches_predictor(self, drafts_traces):
        # The frozen-replay driver's exact enrollment: batch-fitted
        # bounds/levels pinned into a UniverseTicker, the epoch walk
        # replayed through extend_frozen, bids read mid-stream.
        config = DraftsConfig(probability=0.95)
        shared = [t for t in drafts_traces if len(t) == 900]
        fit = fit_drafts_universe(shared, config)
        grid = np.asarray(shared[0].times, dtype=float)
        ticker = UniverseTicker(config)
        preds = []
        for k, trace in enumerate(shared):
            pred = fit.predictor(k)
            preds.append(pred)
            ticker.add_key(
                f"k{k}",
                bounds=pred._bounds,
                final_bound=pred._final_bound,
                levels=pred._ladder.levels,
                max_price=pred.config.max_price,
                instance_type="t",
                zone="z",
            )
        price_rows = np.stack([t.prices for t in shared])
        bound_rows = np.stack([p._bounds for p in preds])
        checkpoints = (300, 600, 899)
        n = 0
        for t in checkpoints:
            ticker.extend_frozen(
                grid[n:t],
                price_rows[:, n:t],
                bound_rows[:, n:t],
                bound_rows[:, t],
            )
            n = t
            for k, pred in enumerate(preds):
                for duration in (3600.0, 6 * 3600.0, 86400.0):
                    got = ticker.bid_for(
                        f"k{k}", duration, now=float(grid[t])
                    )
                    ref = pred.bid_for(duration, t)
                    assert _nan_eq(got, ref), (
                        f"key {k}: bid_for({duration}) at epoch {t}"
                    )


class TestPredcacheBatch:
    def setup_method(self):
        predcache.clear()

    def teardown_method(self):
        predcache.clear()

    def test_batch_fit_populates_cache(self, drafts_traces):
        config = DraftsConfig(probability=0.95)
        preds = predcache.get_predictors_batch(drafts_traces, config)
        info = predcache.cache_info()
        assert info["batch_fits"] == len(drafts_traces)
        assert info["misses"] == 0
        # Scalar-path lookups now hit the batch-fitted entries.
        for trace, pred in zip(drafts_traces, preds):
            assert predcache.get_predictor(trace, config) is pred
        assert predcache.cache_info()["misses"] == 0
        assert predcache.cache_info()["hits"] >= len(drafts_traces)

    def test_cached_keys_are_not_refit(self, drafts_traces):
        config = DraftsConfig(probability=0.95)
        first = predcache.get_predictor(drafts_traces[0], config)
        preds = predcache.get_predictors_batch(drafts_traces, config)
        assert preds[0] is first
        info = predcache.cache_info()
        assert info["batch_fits"] == len(drafts_traces) - 1
        assert info["misses"] == 1  # the scalar pre-fit

    def test_config_list_length_validated(self, drafts_traces):
        config = DraftsConfig(probability=0.95)
        with pytest.raises(ValueError, match="configs"):
            predcache.get_predictors_batch(drafts_traces, [config])


class TestAR1Prefit:
    def teardown_method(self):
        AR1Bid.clear_prefit()

    def test_prefit_matches_scalar_scan(self, drafts_traces):
        AR1Bid.clear_prefit()
        refs = [
            AR1Bid(
                trace, 0.99, max_price=AR1Bid._combo_max_price(trace)
            )._changepoints.copy()
            for trace in drafts_traces
        ]
        AR1Bid.clear_prefit()
        scanned = AR1Bid.prefit_universe(drafts_traces, 0.99)
        assert scanned == len(drafts_traces)
        for trace, ref in zip(drafts_traces, refs):
            got = AR1Bid(
                trace, 0.99, max_price=AR1Bid._combo_max_price(trace)
            )._changepoints
            assert np.array_equal(got, ref)
        # Idempotent: everything is cached now.
        assert AR1Bid.prefit_universe(drafts_traces, 0.99) == 0


class TestFusedPhase1:
    """prefit_phase1: DrAFTS phase 1 and the AR(1) segmentation, one pass."""

    def setup_method(self):
        predcache.clear()
        AR1Bid.clear_prefit()

    def teardown_method(self):
        predcache.set_max_entries(predcache.DEFAULT_MAX_ENTRIES)
        predcache.clear()
        AR1Bid.clear_prefit()

    def test_fused_pass_matches_scalar_fits(self):
        universe = scaled_universe("test")
        traces = [universe.trace(c) for c in scaled_combos("test")]
        fitted, predictors = prefit_phase1(traces, 0.99)
        assert fitted == 2 * len(traces)
        assert predcache.cache_info()["batch_fits"] == len(traces)
        for trace in traces:
            label = f"{trace.instance_type}@{trace.zone}"
            max_price = AR1Bid._combo_max_price(trace)
            # AR(1): segmentation-only keys at the baseline's own q must
            # reproduce the scalar scan's change points.
            qb = QBETS(
                QBETSConfig(q=0.99, c=0.99, side="upper", max_value=max_price)
            )
            qb.scan(trace.prices)
            got = AR1Bid(trace, 0.99, max_price=max_price)._changepoints
            assert list(got) == list(qb.changepoints), label
            # DrAFTS: the q = sqrt(p) keys of the same pass.
            config = DraftsConfig(probability=0.99, max_price=max_price)
            pred = predcache.peek_predictor(trace, config)
            ref = QBETS(config.qbets_config())
            assert np.array_equal(
                ref.bound_series(trace.prices), pred._bounds, equal_nan=True
            ), label
            assert list(ref.changepoints) == list(pred.changepoints)
        # Both caches hold everything now.
        assert prefit_phase1(traces, 0.99) == (0, predictors)

    def test_chunk_larger_than_the_predictor_cache_fits_once(self, monkeypatch):
        """The prefit predictors reach the replay directly, so a chunk
        with more DrAFTS keys than the LRU holds is fitted in one pass
        (the LRU used to evict most of them and the replay refitted those),
        with the same results as a chunk the cache holds whole."""
        from repro.backtest import universe_driver
        from repro.baselines import TABLE1_STRATEGIES
        from repro.experiments.parallel import _Assignment, _run_assignment

        assignment = _Assignment(
            scale="test",
            probability=0.99,
            combo_keys=tuple(c.key for c in scaled_combos("test")),
            strategy_names=tuple(s.name for s in TABLE1_STRATEGIES),
        )
        reference = _run_assignment(assignment)
        predcache.clear()
        AR1Bid.clear_prefit()
        fits: list[int] = []

        def counting(traces, configs):
            fits.append(len(traces))
            return fit_drafts_universe(traces, configs)

        monkeypatch.setattr(universe_driver, "fit_drafts_universe", counting)
        monkeypatch.setattr(predcache, "fit_drafts_universe", counting)
        predcache.set_max_entries(4)
        assert _run_assignment(assignment) == reference
        assert fits == [2 * len(assignment.combo_keys)]
