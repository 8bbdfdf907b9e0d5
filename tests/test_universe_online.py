"""Bit-identity tests for the SoA universe ticker.

:class:`~repro.core.universe.UniverseTicker` is a pure optimisation over a
dict of scalar :class:`~repro.core.online.OnlineDraftsPredictor`\\ s: every
test here pins the batched structure-of-arrays path to the scalar reference
with exact comparisons, across the hard cases that shaped the code — QBETS
change-point epochs, per-key ladder re-anchors mid-batch, keys joining and
leaving the universe mid-run, zero-delta epochs where only a subset of keys
tick, the per-key snapshot handoff, and the frozen-key backtest replay
whose censor instant must match the batch predictor's interior-``t_idx``
convention.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.drafts import DraftsConfig, DraftsPredictor
from repro.core.online import OnlineDraftsPredictor
from repro.core.universe import UniverseTicker
from repro.market.synthetic import generate_trace

EPD = 288

#: Query durations spanning sub-epoch to multi-day (and one unsatisfiable).
DURATIONS = (1800.0, 3600.0, 6 * 3600.0, 86400.0, 1e12)

CONFIG = DraftsConfig(probability=0.95)


def curves_equal(a, b) -> bool:
    """Bit-equality of curves, with nan == nan allowed per rung."""
    if a is None or b is None:
        return a is b
    if a.bids != b.bids:
        return False
    if (a.probability, a.computed_at) != (b.probability, b.computed_at):
        return False
    return all(
        x == y or (math.isnan(x) and math.isnan(y))
        for x, y in zip(a.durations, b.durations)
    )


def assert_floats_equal(a: float, b: float) -> None:
    if math.isnan(a) or math.isnan(b):
        assert math.isnan(a) and math.isnan(b)
    else:
        assert a == b


def make_traces(n_epochs: int):
    """One trace per volatility class, on the shared epoch grid."""
    # Seeds chosen so the 6-day spiky trace trips a QBETS change point.
    seeds = {"calm": 30, "diurnal": 31, "spiky": 17, "volatile": 33}
    return {
        f"{cls}-{i}": generate_trace(cls, 0.42, n_epochs=n_epochs, rng=seed)
        for i, (cls, seed) in enumerate(seeds.items())
    }


class TestLiveEquivalence:
    """Per-epoch lockstep: tick the universe, tick the scalars, compare."""

    def test_tracks_scalar_through_changepoints_and_reanchors(self):
        n_epochs = 6 * EPD
        traces = make_traces(n_epochs)
        keys = sorted(traces)

        # Checkpoints must straddle a QBETS change point exactly: pull the
        # reset epochs from a batch fit of the spiky trace and compare at
        # cp - 1, cp and cp + 1 in addition to the regular cadence.
        spiky_key = next(k for k in keys if k.startswith("spiky"))
        batch = DraftsPredictor(traces[spiky_key], CONFIG)
        cps = batch.changepoints
        assert len(cps) > 0, "fixture must trigger a QBETS reset"
        checkpoints = set(range(200, n_epochs, 131)) | {n_epochs - 1}
        for cp in cps:
            checkpoints |= {int(cp) - 1, int(cp), int(cp) + 1}

        ticker = UniverseTicker(CONFIG)
        scalars = {}
        for k in keys:
            cls, zone = k.split("-", 1)
            ticker.add_key(k, instance_type=cls, zone=zone)
            scalars[k] = OnlineDraftsPredictor(CONFIG)

        ladders_seen = {k: set() for k in keys}
        for t in range(n_epochs):
            time = float(traces[keys[0]].times[t])
            ticker.observe(
                time, np.array([traces[k].prices[t] for k in keys])
            )
            for k in keys:
                scalars[k].observe(time, float(traces[k].prices[t]))
            if t in checkpoints:
                batch_curves = ticker.curves()
                for k in keys:
                    cls, zone = k.split("-", 1)
                    assert curves_equal(
                        batch_curves[k], scalars[k].curve(cls, zone)
                    ), f"curve diverged at t={t} for {k}"
                    for d in DURATIONS:
                        assert_floats_equal(
                            ticker.bid_for(k, d), scalars[k].bid_for(d)
                        )
                    if batch_curves[k] is not None:
                        ladders_seen[k].add(batch_curves[k].bids)

        # The sweep must have exercised a mid-run ladder re-anchor (the
        # minimum bid moved enough to rebuild a key's rung layout) for the
        # equivalence to mean anything.
        assert any(len(s) > 1 for s in ladders_seen.values())

    def test_zero_delta_epochs_with_key_subsets(self):
        """Keys without an announcement this epoch keep answering from
        their existing history — tick with ``keys=`` subsets."""
        n_epochs = 4 * EPD
        traces = make_traces(n_epochs)
        keys = sorted(traces)
        ticker = UniverseTicker(CONFIG)
        scalars = {}
        for k in keys:
            ticker.add_key(k)
            scalars[k] = OnlineDraftsPredictor(CONFIG)

        for t in range(n_epochs):
            # Deterministic staggering: key i announces every (i + 1)
            # epochs, so every epoch is a zero-delta epoch for someone.
            ticked = [k for i, k in enumerate(keys) if t % (i + 1) == 0]
            time = float(traces[keys[0]].times[t])
            ticker.observe(
                time, np.array([traces[k].prices[t] for k in ticked]),
                keys=ticked,
            )
            for k in ticked:
                scalars[k].observe(time, float(traces[k].prices[t]))
            if t % 157 == 0 or t == n_epochs - 1:
                for k in keys:
                    assert curves_equal(
                        ticker.curve_for(k), scalars[k].curve()
                    ), f"diverged at t={t} for {k}"

        # An empty tick is a no-op.
        before = ticker.curves()
        ticker.observe(1e12, np.empty(0), keys=[])
        after = ticker.curves()
        assert all(curves_equal(before[k], after[k]) for k in keys)

    def test_key_join_and_leave_mid_run(self):
        n_epochs = 4 * EPD
        traces = make_traces(n_epochs)
        keys = sorted(traces)
        join_cold, join_warm = n_epochs // 4, n_epochs // 2
        leave = 3 * n_epochs // 4

        ticker = UniverseTicker(CONFIG)
        scalars = {k: OnlineDraftsPredictor(CONFIG) for k in keys}
        enrolled = keys[:2]
        for k in enrolled:
            ticker.add_key(k)
        gone = None
        for t in range(n_epochs):
            if t == join_cold:
                # A cold key joins with no history.
                ticker.add_key(keys[2])
                enrolled = enrolled + [keys[2]]
            if t == join_warm:
                # A key joins by adopting a scalar predictor's state; the
                # reference keeps its own (identically-fed) twin.
                warm = OnlineDraftsPredictor(CONFIG)
                warm.extend(traces[keys[3]].times[:t], traces[keys[3]].prices[:t])
                scalars[keys[3]].extend(
                    traces[keys[3]].times[:t], traces[keys[3]].prices[:t]
                )
                ticker.add_key(keys[3], online=warm)
                enrolled = enrolled + [keys[3]]
            if t == leave:
                gone = enrolled[0]
                ticker.remove_key(gone)
                enrolled = enrolled[1:]
            time = float(traces[keys[0]].times[t])
            order = ticker.keys()
            assert sorted(order) == sorted(enrolled)
            ticker.observe(
                time, np.array([traces[k].prices[t] for k in order]),
                keys=order,
            )
            for k in enrolled:
                scalars[k].observe(time, float(traces[k].prices[t]))
            if t % 97 == 0 or t in (
                join_cold, join_warm, leave, n_epochs - 1
            ):
                for k in enrolled:
                    assert curves_equal(
                        ticker.curve_for(k), scalars[k].curve()
                    ), f"diverged at t={t} for {k}"

        assert gone not in ticker
        with pytest.raises(KeyError):
            ticker.bid_for(gone, 3600.0)
        # The freed slot is recycled without inheriting the old key's state.
        ticker.add_key("recycled")
        assert ticker.n("recycled") == 0
        assert ticker.curve_for("recycled") is None

    def test_tick_is_observe_plus_curves(self):
        trace = generate_trace("calm", 0.42, n_epochs=3 * EPD, rng=9)
        a, b = UniverseTicker(CONFIG), UniverseTicker(CONFIG)
        a.add_key("k")
        b.add_key("k")
        for t in range(len(trace)):
            ticked = a.tick(float(trace.times[t]), [float(trace.prices[t])])
            b.observe(float(trace.times[t]), [float(trace.prices[t])])
            assert curves_equal(ticked["k"], b.curves()["k"])


class TestEjectHandoff:
    """``to_online`` / ``key_snapshot`` — the refit handoff must produce a
    scalar predictor bit-identical to one that never went batched."""

    def test_to_online_round_trip(self):
        trace = generate_trace("spiky", 0.42, n_epochs=6 * EPD, rng=8)
        half = len(trace) // 2
        ticker = UniverseTicker(CONFIG)
        ticker.add_key("k", instance_type="it", zone="z")
        reference = OnlineDraftsPredictor(CONFIG)
        for t in range(half):
            ticker.observe(float(trace.times[t]), [float(trace.prices[t])])
            reference.observe(float(trace.times[t]), float(trace.prices[t]))

        ejected = ticker.to_online("k")
        assert ejected.n == half
        assert curves_equal(ejected.curve("it", "z"),
                            reference.curve("it", "z"))
        # The ejected copy must track the reference through the remainder
        # scalar-side — including any QBETS resets in the second half.
        for t in range(half, len(trace)):
            ejected.observe(float(trace.times[t]), float(trace.prices[t]))
            reference.observe(float(trace.times[t]), float(trace.prices[t]))
        assert curves_equal(ejected.curve(), reference.curve())
        np.testing.assert_array_equal(
            ejected.as_batch().changepoints,
            reference.as_batch().changepoints,
        )

    def test_frozen_keys_have_no_scalar_form(self):
        ticker = UniverseTicker(CONFIG)
        ticker.add_key(
            "frozen",
            bounds=np.array([0.1, 0.1]),
            final_bound=0.1,
            levels=np.array([0.2, 0.3]),
        )
        with pytest.raises(ValueError):
            ticker.key_snapshot("frozen")


class TestFrozenReplay:
    """Frozen keys replay a fitted batch predictor: at history ``[0, t)``
    with censor instant ``times[t]``, answers must match
    ``DraftsPredictor.bid_for(d, t)`` bit for bit."""

    @pytest.fixture(scope="class")
    def fitted(self):
        trace = generate_trace("spiky", 0.42, n_epochs=8 * EPD, rng=13)
        return trace, DraftsPredictor(trace, CONFIG)

    def _enroll(self, ticker, key, pred):
        ticker.add_key(
            key,
            bounds=pred._bounds,
            final_bound=pred._final_bound,
            levels=pred._ladder.levels,
            max_price=pred.config.max_price,
        )

    def test_observe_walk_matches_batch_bid_for(self, fitted, rng):
        trace, pred = fitted
        n = len(trace)
        query_ts = sorted(set(rng.integers(1, n, size=24).tolist()) | {1, n - 1})
        durations = [1800.0, 3600.0, 4 * 3600.0, 86400.0]
        ticker = UniverseTicker(CONFIG)
        self._enroll(ticker, "k", pred)
        fed = 0
        checked = 0
        for t in query_ts:
            while fed < t:
                ticker.observe(
                    float(trace.times[fed]), [float(trace.prices[fed])]
                )
                fed += 1
            for d in durations:
                got = ticker.bid_for("k", d, now=float(trace.times[t]))
                ref = pred.bid_for(d, t)
                assert_floats_equal(got, ref)
                if not math.isnan(ref):
                    checked += 1
        assert checked > 10

    def test_extend_frozen_equals_per_epoch_observe(self, fitted):
        trace, pred = fitted
        n = len(trace)
        stops = [n // 3, n // 2, n - 1]
        walked = UniverseTicker(CONFIG)
        bulk = UniverseTicker(CONFIG)
        for ticker in (walked, bulk):
            self._enroll(ticker, "k", pred)
        fed = 0
        for t in stops:
            for i in range(fed, t):
                walked.observe(
                    float(trace.times[i]), [float(trace.prices[i])]
                )
            bulk.extend_frozen(
                trace.times[fed:t],
                trace.prices[None, fed:t],
                pred._bounds[None, fed:t],
                np.array([pred._bounds[t] if t < n else pred._final_bound]),
            )
            fed = t
            assert bulk.n("k") == walked.n("k") == t
            assert curves_equal(bulk.curve_for("k"), walked.curve_for("k"))
            for d in (3600.0, 86400.0):
                assert_floats_equal(
                    bulk.bid_for("k", d, now=float(trace.times[t])),
                    walked.bid_for("k", d, now=float(trace.times[t])),
                )

    def test_extend_frozen_validation(self, fitted):
        trace, pred = fitted
        ticker = UniverseTicker(CONFIG)
        self._enroll(ticker, "k", pred)
        ticker.add_key("live")
        with pytest.raises(ValueError):  # live keys cannot fast-forward
            ticker.extend_frozen(
                trace.times[:4], trace.prices[None, :4],
                pred._bounds[None, :4], np.array([0.1]), keys=["live"],
            )
        with pytest.raises(ValueError):  # misaligned shapes
            ticker.extend_frozen(
                trace.times[:4], trace.prices[None, :3],
                pred._bounds[None, :4], np.array([0.1]), keys=["k"],
            )
        ticker.extend_frozen(
            trace.times[:4], trace.prices[None, :4],
            pred._bounds[None, :4], np.array([float(pred._bounds[4])]),
            keys=["k"],
        )
        with pytest.raises(ValueError):  # time must keep increasing
            ticker.extend_frozen(
                trace.times[:4], trace.prices[None, :4],
                pred._bounds[None, :4], np.array([0.1]), keys=["k"],
            )


def _assert_same_state(a, b, path: str) -> None:
    """Recursive bit-equality of snapshot-shaped values (nan == nan)."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for k in a:
            _assert_same_state(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(
            a, b, equal_nan=a.dtype.kind == "f"
        ), path
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same_state(x, y, f"{path}[{i}]")
    elif isinstance(a, float):
        assert_floats_equal(a, b)
    else:
        assert a == b, path


def _assert_same_slot(window, stepped, key) -> None:
    """Every piece of a key's ticker state, window vs one-epoch calls:
    its snapshot (histories incl. the bounds, envelopes, QBETS state),
    the current bound and the per-rung suffix pointers."""
    _assert_same_state(
        window.key_snapshot(key), stepped.key_snapshot(key), str(key)
    )
    a, b = window._index[key], stepped._index[key]
    assert_floats_equal(float(window._bnow[a]), float(stepped._bnow[b]))
    np.testing.assert_array_equal(window._last[a], stepped._last[b])
    _assert_suffix_pointers(window, key)


def _assert_suffix_pointers(ticker, key) -> None:
    """Each rung's suffix pointer is its level's last exceedance in the
    key's price history — recomputed here from scratch, independently of
    the ticker's sweep."""
    s = ticker._index[key]
    prices = ticker._prices[s, : ticker.n(key)]
    for r in range(int(ticker._nr[s])):
        hits = np.flatnonzero(prices >= ticker._levels[s, r])
        assert ticker._last[s, r] == (hits[-1] if hits.size else -1), (key, r)


class TestWindowObserve:
    """``observe`` over a window — W timestamps, (K, W) prices — is W
    one-epoch calls in one: the service hands each refresh's whole delta
    to one call."""

    #: Window sizes cycled through the run: empty, single and many
    #: announcements, some straddling the spiky key's change point.
    SIZES = (0, 1, 3, 2, 0, 7, 1, 40, 3, 150, 1, 11, 0, 64)

    def test_window_equals_one_epoch_calls(self):
        n_epochs = 6 * EPD
        traces = make_traces(n_epochs)
        keys = sorted(traces)
        spiky_key = next(k for k in keys if k.startswith("spiky"))
        cps = DraftsPredictor(traces[spiky_key], CONFIG).changepoints
        assert len(cps) > 0, "fixture must trigger a QBETS reset"
        late = keys[-1]
        late_from = n_epochs // 3  # joins cold: keys differ in history length

        window, stepped = UniverseTicker(CONFIG), UniverseTicker(CONFIG)
        scalars = {k: OnlineDraftsPredictor(CONFIG) for k in keys}
        for ticker in (window, stepped):
            for k in keys[:-1]:
                ticker.add_key(k)
        ladders_seen = {k: set() for k in keys}
        windows_over_cp = 0
        t = i = 0
        while t < n_epochs:
            if t == late_from:
                for ticker in (window, stepped):
                    ticker.add_key(late)
            w = min(self.SIZES[i % len(self.SIZES)], n_epochs - t)
            if t < late_from:
                w = min(w, late_from - t)
            i += 1
            if any(t < cp < t + w for cp in cps):
                windows_over_cp += 1
            order = window.keys()
            times = traces[keys[0]].times[t : t + w]
            prices = np.array([traces[k].prices[t : t + w] for k in order])
            window.observe(times, prices, keys=order)
            for j in range(w):
                stepped.observe(float(times[j]), prices[:, j], keys=order)
                for pos, k in enumerate(order):
                    scalars[k].observe(float(times[j]), float(prices[pos, j]))
            t += w
            got, ref = window.curves(), stepped.curves()
            for k in order:
                _assert_same_slot(window, stepped, k)
                _assert_same_state(
                    window.key_snapshot(k), scalars[k].to_snapshot(), k
                )
                assert curves_equal(got[k], ref[k]), f"t={t} {k}"
                assert curves_equal(got[k], scalars[k].curve()), f"t={t} {k}"
                for d in DURATIONS:
                    assert_floats_equal(
                        window.bid_for(k, d), stepped.bid_for(k, d)
                    )
                if got[k] is not None:
                    ladders_seen[k].add(got[k].bids)
        # The run must cover a QBETS change point inside one window and a
        # ladder relayout between windows for the equivalence to mean
        # anything.
        assert windows_over_cp > 0
        assert any(len(s) > 1 for s in ladders_seen.values())

    def test_frozen_window_equals_one_epoch_calls(self):
        trace = generate_trace("spiky", 0.42, n_epochs=4 * EPD, rng=13)
        pred = DraftsPredictor(trace, CONFIG)
        window, stepped = UniverseTicker(CONFIG), UniverseTicker(CONFIG)
        for ticker in (window, stepped):
            ticker.add_key(
                "k",
                bounds=pred._bounds,
                final_bound=pred._final_bound,
                levels=pred._ladder.levels,
                max_price=pred.config.max_price,
            )
        n = len(trace)
        for lo, hi in ((0, 300), (300, 301), (301, 301), (301, n - 9), (n - 9, n)):
            window.observe(trace.times[lo:hi], trace.prices[None, lo:hi])
            for j in range(lo, hi):
                stepped.observe(float(trace.times[j]), [float(trace.prices[j])])
            a, b = window._index["k"], stepped._index["k"]
            for name in ("_times", "_prices", "_bounds", "_last"):
                np.testing.assert_array_equal(
                    getattr(window, name)[a, :hi], getattr(stepped, name)[b, :hi]
                )
            assert_floats_equal(float(window._bnow[a]), float(stepped._bnow[b]))
            _assert_suffix_pointers(window, "k")
            assert curves_equal(window.curve_for("k"), stepped.curve_for("k"))
            if hi < n:
                # The batch predictor is the oracle at the query instant.
                for d in (1800.0, 3600.0, 86400.0):
                    now = float(trace.times[hi])
                    assert_floats_equal(
                        window.bid_for("k", d, now=now), pred.bid_for(d, hi)
                    )

    def test_window_validation_leaves_state_untouched(self):
        ticker = UniverseTicker(CONFIG)
        ticker.add_key("a")
        ticker.add_key("b")
        ticker.observe([0.0, 300.0], [[0.1, 0.2], [0.1, 0.1]])
        before = {k: ticker.key_snapshot(k) for k in ("a", "b")}
        bad = (
            ([600.0, 900.0], [[0.1, 0.2]]),  # misaligned keys
            ([600.0, 900.0], [[0.1], [0.2]]),  # misaligned window
            ([600.0, 600.0], [[0.1, 0.2], [0.1, 0.1]]),  # repeated time
            ([300.0, 600.0], [[0.1, 0.2], [0.1, 0.1]]),  # not after history
            ([600.0, 900.0], [[0.1, 0.2], [0.1, 0.0]]),  # non-positive price
        )
        for times, prices in bad:
            with pytest.raises(ValueError):
                ticker.observe(times, prices)
            for k in ("a", "b"):
                _assert_same_state(ticker.key_snapshot(k), before[k], k)
        assert ticker.n("a") == ticker.n("b") == 2


class TestTickerMechanics:
    def test_rejects_ablation_configs(self):
        for override in (
            {"truncate_durations": True},
            {"autocorr_durations": True},
        ):
            with pytest.raises(ValueError):
                UniverseTicker(CONFIG.with_(**override))

    def test_add_key_validation(self):
        ticker = UniverseTicker(CONFIG)
        ticker.add_key("k")
        with pytest.raises(ValueError):
            ticker.add_key("k")  # duplicate
        with pytest.raises(ValueError):
            ticker.add_key("partial", bounds=np.array([0.1]))
        with pytest.raises(ValueError):
            ticker.add_key(
                "both",
                online=OnlineDraftsPredictor(CONFIG),
                bounds=np.array([0.1]),
                final_bound=0.1,
                levels=np.array([0.2]),
            )
        mismatched = OnlineDraftsPredictor(CONFIG.with_(probability=0.99))
        with pytest.raises(ValueError):
            ticker.add_key("wrong-config", online=mismatched)

    def test_observe_validation(self):
        ticker = UniverseTicker(CONFIG)
        ticker.add_key("a")
        ticker.add_key("b")
        with pytest.raises(ValueError):  # misaligned prices
            ticker.observe(0.0, [0.1])
        with pytest.raises(ValueError):  # non-positive price
            ticker.observe(0.0, [0.1, 0.0])
        ticker.observe(0.0, [0.1, 0.1])
        with pytest.raises(ValueError):  # time must strictly increase
            ticker.observe(0.0, [0.1, 0.1])

    def test_bid_for_now_guard(self):
        trace = generate_trace("calm", 0.42, n_epochs=3 * EPD, rng=4)
        pred = DraftsPredictor(trace, CONFIG)
        ticker = UniverseTicker(CONFIG)
        ticker.add_key(
            "k",
            bounds=pred._bounds,
            final_bound=pred._final_bound,
            levels=pred._ladder.levels,
            max_price=pred.config.max_price,
        )
        t = len(trace) // 2
        ticker.extend_frozen(
            trace.times[:t], trace.prices[None, :t],
            pred._bounds[None, :t], np.array([float(pred._bounds[t])]),
        )
        with pytest.raises(ValueError):
            ticker.bid_for("k", 3600.0, now=float(trace.times[t - 2]))

    def test_warmup_returns_nan_and_none(self):
        ticker = UniverseTicker(CONFIG)
        ticker.add_key("k")
        for i in range(50):
            ticker.observe(i * 300.0, [0.1])
        assert math.isnan(ticker.bid_for("k", 3600.0))
        assert ticker.curve_for("k") is None
        assert len(ticker) == 1 and "k" in ticker

    def test_adopted_key_refreshes_without_reallocating_history(self):
        """An adopted (live) key reserves history headroom, so the first
        refresh after adoption writes in place. Failing before: the
        history was sized to exactly the fitted length, and that refresh
        reallocated every slot's times, prices and bounds."""
        trace = generate_trace("calm", 0.42, n_epochs=8 * EPD, rng=4)
        n = len(trace) - 3  # past the 1 024-column floor
        pred = OnlineDraftsPredictor(CONFIG)
        pred.extend(trace.times[:n], trace.prices[:n])
        ticker = UniverseTicker(CONFIG)
        ticker.add_key("k", online=pred)
        cap = ticker._hist_cap
        arrays = (ticker._times, ticker._prices, ticker._bounds)
        ticker.observe(trace.times[n:], trace.prices[None, n:], keys=["k"])
        assert ticker.n("k") == len(trace)
        assert ticker._hist_cap == cap
        assert all(
            a is b
            for a, b in zip(arrays, (ticker._times, ticker._prices, ticker._bounds))
        )
