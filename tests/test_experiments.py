"""Tests for the experiment drivers (all at the 'test' scale preset)."""

import math

import pytest

from repro.experiments import (
    EXPERIMENTS,
    SCALES,
    run_experiment,
    run_figure2,
    run_figure4,
    run_table2,
    run_tightness,
)
from repro.experiments.common import scaled_combos, scaled_universe


class TestScalePresets:
    def test_presets_exist(self):
        assert set(SCALES) == {"paper", "bench", "test"}
        assert SCALES["paper"].n_requests == 300
        assert SCALES["paper"].max_duration_hours == 12.0
        assert SCALES["paper"].replay_seeds == 35
        assert SCALES["paper"].replay_jobs == 1000

    def test_paper_scale_covers_full_universe(self):
        assert SCALES["paper"].per_class == 0
        # Building the universe is cheap (traces are lazy).
        assert len(scaled_universe("paper").combos()) == 452

    def test_test_scale_is_stratified(self):
        combos = scaled_combos("test")
        classes = {c.volatility_class for c in combos}
        assert len(classes) == 6
        assert len(combos) == 6


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert set(EXPERIMENTS) == {
            "table1",
            "figure1",
            "figure2",
            "figure3",
            "figure4",
            "table2",
            "table3",
            "table4",
            "table5",
            "tightness",
        }

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("table99")


class TestDrivers:
    def test_figure2_runs_and_renders(self):
        result = run_figure2(scale="test")
        assert result.series.records
        text = result.render()
        assert "Figure 2" in text
        assert "c4.large" in text

    def test_figure4_curve_monotone(self):
        result = run_figure4(scale="test")
        finite = [d for d in result.curve.durations if not math.isnan(d)]
        assert finite == sorted(finite)
        assert "bid-duration" in result.render()

    def test_table2_shape(self):
        result = run_table2(scale="test")
        # The headline: DrAFTS cuts the worst-case (risked) cost.
        assert result.drafts.max_bid_cost < result.original.max_bid_cost
        text = result.render()
        assert "Table 2" in text
        # The rendered rows are pinned (cost, maximum bid cost).
        assert "Original (80% On-demand)  $16.54  $55.77" in text
        assert "DrAFTS Bid                $12.79  $16.52" in text

    def test_tightness_in_paper_band(self):
        result = run_tightness(scale="test")
        # Tech report: per-combination averages between 4.8x and 7.5x;
        # our per-class spread straddles that band and the overall mean
        # lands in the same regime.
        assert 1.5 < result.mean_ratio < 15.0
        assert result.by_class()
        assert "Tightness" in result.render()


class TestCli:
    def test_main_runs_an_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["figure4", "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "completed in" in out

    def test_main_rejects_unknown(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["tableX"])


class TestParallelBacktest:
    def test_parallel_matches_sequential(self):
        from repro.experiments.parallel import backtest_matrix

        seq = backtest_matrix(scale="test", probability=0.95, workers=0)
        par = backtest_matrix(scale="test", probability=0.95, workers=2)
        assert len(seq) == len(par) == 6 * 4
        for a, b in zip(seq, par):
            assert a.combo_key == b.combo_key
            assert a.strategy == b.strategy
            assert a.success_fraction == b.success_fraction
            assert a.outcomes == b.outcomes

    def test_table1_workers_path(self):
        from repro.experiments.table1 import run_table1

        result = run_table1(scale="test", probability=0.95, workers=2)
        assert len(result.results) == 24
        assert result.table.rows

    def test_unknown_scale_rejected(self):
        from repro.experiments.parallel import backtest_matrix

        with pytest.raises(KeyError):
            backtest_matrix(scale="galactic")


class TestColdSweep:
    def test_cleared_caches_refit_every_combo(self):
        # The backtest benchmark clears exactly these two caches before
        # each timed Table 1 sweep; the sweep must then refit every DrAFTS
        # predictor and every AR(1) segmentation, or a new cache layer
        # would have it time a warm sweep.
        from repro.backtest import predcache
        from repro.baselines.ar1 import AR1Bid
        from repro.experiments.common import scaled_combos
        from repro.experiments.table1 import run_table1

        n = len(scaled_combos("test"))
        try:
            run_table1(scale="test", probability=0.99)
            predcache.clear()
            AR1Bid.clear_prefit()
            run_table1(scale="test", probability=0.99)
            info = predcache.cache_info()
            assert info["batch_fits"] == n
            assert info["misses"] == 0
            assert len(AR1Bid._scan_cache) == n
        finally:
            predcache.clear()
            AR1Bid.clear_prefit()


class TestCostOptDrivers:
    def test_table4_shape_at_test_scale(self):
        from repro.experiments.tables45 import run_table4

        result = run_table4(scale="test")
        table = result.table
        assert table.probability == 0.99
        assert len(table.rows) == 9  # two combos sampled per AZ
        for row in table.rows:
            assert row.savings >= -0.02
            assert row.spot_requests + row.ondemand_requests > 0
        assert "Table 4" in result.render()

    def test_table5_saves_at_least_table4(self):
        from repro.experiments.tables45 import run_table4, run_table5

        t4 = run_table4(scale="test").table
        t5 = run_table5(scale="test").table
        assert t5.total_savings >= t4.total_savings - 0.02


class TestFigureDrivers:
    def test_figure1_collects_sub_target_spread(self):
        from repro.experiments.figure1 import run_figure1

        result = run_figure1(scale="test", probability=0.99)
        # The premium combination guarantees at least one total failure.
        assert result.has_zero_fraction
        assert result.n_combos == 6
        assert "Figure 1" in result.render()

    def test_figure3_runs_and_reports_runs(self):
        from repro.experiments.figures23 import run_figure3

        result = run_figure3(scale="test")
        series = result.series
        assert len(series.records) > 0
        assert 0.0 <= series.success_fraction <= 1.0
        # failure_runs is always consistent with the failure count.
        assert sum(length for _, length in series.failure_runs()) == (
            series.failures
        )
