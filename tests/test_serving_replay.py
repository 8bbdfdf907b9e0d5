"""Replayer tests: open-loop scheduling and hedge accounting against an
injected clock and a fake transport, and the end-to-end seeded-spike
demonstration that hedging cuts p99.9."""

from __future__ import annotations

import threading
import time

import pytest

from repro.serving.chaos import FaultConfig, ReplaySpiker
from repro.serving.clock import ManualClock
from repro.serving.replay import (
    HEDGE_HEADER,
    HttpTransport,
    ReplayConfig,
    Replayer,
    format_slo_report,
    hedge_outcome,
)

KEYS = [("m1.large", "us-east-1a", 0.95), ("m2.xlarge", "us-east-1b", 0.95)]


class FakeTransport:
    """Advances the injected clock by a planned service time per call.

    ``plan(path, headers)`` returns the service seconds, or raises to
    model transport failures.
    """

    def __init__(self, clock, plan):
        self._clock = clock
        self._plan = plan
        self.calls: list[tuple[str, str, dict]] = []

    def __call__(self, target, path, timeout, headers):
        seconds = self._plan(path, headers)
        self._clock.sleep(seconds)
        self.calls.append((target, path, dict(headers)))
        return 200, b"{}"

    def close(self):
        pass


def _replayer(plan, clock=None, **overrides):
    clock = clock or ManualClock()
    defaults = dict(
        n_requests=40, rate=100.0, warmup_requests=0, concurrency=0
    )
    defaults.update(overrides)
    transport = FakeTransport(clock, plan)
    replayer = Replayer(
        "http://a",
        KEYS,
        ReplayConfig(**defaults),
        transport=transport,
        clock=clock,
    )
    return replayer, transport


class TestHedgeOutcome:
    def test_fast_primary_never_hedges(self):
        assert hedge_outcome(0.005, None, 0.01) == (0.005, False, False)
        assert hedge_outcome(0.01, 0.001, 0.01) == (0.01, False, False)

    def test_hedge_wins_when_it_finishes_first(self):
        latency, hedged, won = hedge_outcome(0.5, 0.002, 0.01)
        assert latency == pytest.approx(0.012)
        assert hedged and won

    def test_primary_wins_slow_hedge(self):
        latency, hedged, won = hedge_outcome(0.05, 0.2, 0.01)
        assert latency == 0.05
        assert hedged and not won


class TestOpenLoopScheduling:
    def test_overload_queues_instead_of_slowing_arrivals(self):
        """Open-loop semantics: service slower than the inter-arrival gap
        shows up as growing queue delay and achieved < offered."""
        replayer, _ = _replayer(lambda path, headers: 0.05)
        report = replayer.run()
        # rate=100/s offered, but each request takes 0.05 s inline.
        assert report["achieved_rps"] < report["offered_rps"] * 0.5
        # 40 requests each ~0.04 s behind schedule accumulates seconds of
        # queue delay by the tail of the stream.
        assert report["queue_delay"]["max"] > 0.5
        assert report["queue_delay"]["max"] > report["queue_delay"]["p50"]

    def test_schedule_is_independent_of_service_time(self):
        """The arrival schedule (hence offered rate) is fixed by the seed,
        no matter how slow the server is — the defining open-loop
        property."""
        fast_report = _replayer(lambda path, headers: 0.0)[0].run()
        slow_report = _replayer(lambda path, headers: 0.05)[0].run()
        assert fast_report["offered_rps"] == pytest.approx(
            slow_report["offered_rps"]
        )

    def test_same_seed_is_deterministic(self):
        a = _replayer(lambda path, headers: 0.01)[0].run()
        b = _replayer(lambda path, headers: 0.01)[0].run()
        assert a == b

    def test_warmup_requests_are_dropped_from_the_report(self):
        replayer, _ = _replayer(
            lambda path, headers: 0.001, n_requests=30, warmup_requests=10
        )
        report = replayer.run()
        assert report["measured"] == 20
        assert report["warmup_dropped"] == 10


class TestHedgeAccounting:
    def test_fixed_delay_hedges_slow_primaries(self):
        calls = {"primaries": 0}

        def plan(path, headers):
            if headers.get(HEDGE_HEADER):
                return 0.001
            calls["primaries"] += 1
            # every 5th primary stalls well past the hedge delay
            return 0.2 if calls["primaries"] % 5 == 0 else 0.001

        replayer, transport = _replayer(
            plan,
            n_requests=30,
            hedge=True,
            hedge_delay_seconds=0.01,
        )
        report = replayer.run()
        assert report["hedge"]["launched"] == 6
        assert report["hedge"]["wins"] == 6
        assert report["hedge"]["win_rate"] == 1.0
        assert report["hedge"]["hedged_measured"] == 6
        # every winner resolved at delay + hedge service, not at the stall
        assert report["latency"]["max"] == pytest.approx(0.011)
        hedge_calls = [
            c for c in transport.calls if c[2].get(HEDGE_HEADER)
        ]
        assert len(hedge_calls) == 6

    def test_slow_hedge_loses_and_is_counted(self):
        def plan(path, headers):
            return 0.5 if headers.get(HEDGE_HEADER) else 0.05

        replayer, _ = _replayer(
            plan, n_requests=10, hedge=True, hedge_delay_seconds=0.01
        )
        report = replayer.run()
        assert report["hedge"]["launched"] == 10
        assert report["hedge"]["wins"] == 0
        assert report["latency"]["max"] == pytest.approx(0.05)

    def test_adaptive_delay_waits_for_min_samples(self):
        replayer, transport = _replayer(
            lambda path, headers: 0.001,
            n_requests=30,
            hedge=True,
            hedge_delay_seconds=None,
            hedge_min_samples=10,
        )
        report = replayer.run()
        # p95 of a 1 ms population gives a ~10 ms floor delay; nothing is
        # slow enough to hedge, and nothing hedges before 10 samples.
        assert report["hedge"]["launched"] == 0
        assert all(not c[2].get(HEDGE_HEADER) for c in transport.calls)
        assert report["hedge"]["delay_seconds"] >= 0.01

    def test_transport_failures_are_classified(self):
        calls = {"n": 0}

        def plan(path, headers):
            calls["n"] += 1
            if calls["n"] % 10 == 1:
                raise TimeoutError("slow")
            if calls["n"] % 10 == 2:
                raise OSError("refused")
            return 0.001

        replayer, _ = _replayer(plan, n_requests=20)
        report = replayer.run()
        assert report["timeout_rate"] == pytest.approx(2 / 20)
        assert report["error_rate"] == pytest.approx(2 / 20)
        assert report["responded"] == 16


class _FakeResponse:
    """Just enough of HTTPResponse for HttpTransport: headers, read(),
    isclosed(), status."""

    def __init__(self, *, closing=False, fully_read=True):
        self.status = 200
        self.headers = {"Connection": "close"} if closing else {}
        self._fully_read = fully_read

    def read(self):
        return b"{}"

    def isclosed(self):
        return self._fully_read


class _FakeConnection:
    """Stands in for http.client.HTTPConnection — no network, records
    closes, optional per-copy service delay (primaries vs hedges)."""

    primary_seconds = 0.0
    hedge_seconds = 0.0
    response_kwargs: dict = {}
    instances: list = []
    _lock = threading.Lock()

    def __init__(self, host, port, timeout=None):
        self.closed = False
        with _FakeConnection._lock:
            _FakeConnection.instances.append(self)

    def request(self, method, path, headers=None):
        self._hedge = bool((headers or {}).get(HEDGE_HEADER))

    def getresponse(self):
        seconds = (
            _FakeConnection.hedge_seconds
            if self._hedge
            else _FakeConnection.primary_seconds
        )
        if seconds:
            time.sleep(seconds)
        return _FakeResponse(**_FakeConnection.response_kwargs)

    def close(self):
        self.closed = True

    @classmethod
    def reset(cls, primary=0.0, hedge=0.0, **response_kwargs):
        cls.primary_seconds = primary
        cls.hedge_seconds = hedge
        cls.response_kwargs = response_kwargs
        cls.instances = []


@pytest.fixture
def fake_connections(monkeypatch):
    _FakeConnection.reset()
    monkeypatch.setattr(
        "repro.serving.replay.HTTPConnection", _FakeConnection
    )
    return _FakeConnection


def _assert_conserved(stats):
    """The pool conservation invariant: every connection ever created is
    idle, in flight, or discarded — none has leaked."""
    assert stats["created"] == (
        stats["idle"] + stats["in_flight"] + stats["discarded"]
    ), stats


class TestPoolConservation:
    """Hedge wins and losses must conserve the connection pool: every
    connection the transport creates ends up pooled, in flight, or
    discarded-and-closed — never leaked half-read or left open."""

    def test_release_after_close_discards_instead_of_leaking(
        self, fake_connections
    ):
        """Failing before: a connection released after close() (a losing
        hedge finishing late) was re-pooled into the fresh dict, leaving
        it open forever."""
        transport = HttpTransport()
        conn = transport._acquire("http://a")
        transport.close()  # replay finished while the hedge was in flight
        transport._release("http://a", conn)
        assert conn.closed
        stats = transport.stats()
        assert stats["idle"] == 0
        assert stats["in_flight"] == 0
        assert stats["discarded"] == 1
        _assert_conserved(stats)

    def test_half_read_response_is_discarded_not_pooled(
        self, fake_connections
    ):
        """A connection whose response body was not fully consumed must be
        discarded — reusing it would read the stale remainder."""
        fake_connections.reset(fully_read=False)
        transport = HttpTransport()
        status, body = transport("http://a", "/healthz", 5.0, {})
        assert status == 200
        stats = transport.stats()
        assert stats["discarded"] == 1
        assert stats["idle"] == 0
        _assert_conserved(stats)
        assert all(c.closed for c in fake_connections.instances)

    def test_fully_read_keep_alive_is_pooled_and_reused(
        self, fake_connections
    ):
        transport = HttpTransport()
        transport("http://a", "/healthz", 5.0, {})
        transport("http://a", "/healthz", 5.0, {})
        stats = transport.stats()
        assert stats["created"] == 1
        assert stats["reused"] == 1
        assert stats["idle"] == 1
        _assert_conserved(stats)

    def test_inline_replay_closes_its_own_transport(self, fake_connections):
        """Failing before: inline mode (concurrency=0) never closed the
        transport it owned, so the keep-alive pool outlived the replay."""
        replayer = Replayer(
            "http://a",
            KEYS,
            ReplayConfig(
                n_requests=8, rate=10000.0, warmup_requests=0, concurrency=0
            ),
        )
        report = replayer.run()
        stats = report["transport"]
        assert stats["closed"] is True
        assert stats["idle"] == 0
        assert stats["in_flight"] == 0
        assert stats["created"] == stats["discarded"]
        _assert_conserved(stats)
        assert all(c.closed for c in fake_connections.instances)

    def test_threaded_hedged_replay_conserves_the_pool(
        self, fake_connections
    ):
        """Hedges race a second connection per slow request; whether the
        hedge wins or the primary does, both connections must come home:
        no half-read leak, nothing left open after the replay."""
        fake_connections.reset(primary=0.03, hedge=0.001)
        replayer = Replayer(
            "http://a",
            KEYS,
            ReplayConfig(
                n_requests=12,
                rate=2000.0,
                warmup_requests=0,
                concurrency=4,
                hedge=True,
                hedge_delay_seconds=0.005,
            ),
        )
        report = replayer.run()
        assert report["hedge"]["launched"] > 0
        stats = report["transport"]
        assert stats["closed"] is True
        assert stats["in_flight"] == 0
        assert stats["idle"] == 0
        assert stats["created"] == stats["discarded"]
        _assert_conserved(stats)
        assert all(c.closed for c in fake_connections.instances)


class TestReplaySpiker:
    def test_spikes_primaries_spares_hedges(self):
        clock = ManualClock()
        spiker = ReplaySpiker(
            FaultConfig(spike_rate=1.0, spike_seconds=2.0, seed=3),
            clock=clock,
        )
        spiker("/predictions/x/y", {})
        assert clock.now() == pytest.approx(2.0)
        spiker("/predictions/x/y", {HEDGE_HEADER: "1"})
        assert clock.now() == pytest.approx(2.0)  # hedge never stalled
        assert spiker.injected_spikes == 1
        assert spiker.spared_hedges == 1

    def test_disabled_spiker_is_inert(self):
        clock = ManualClock()
        spiker = ReplaySpiker(
            FaultConfig(spike_rate=1.0, spike_seconds=2.0), clock=clock
        )
        spiker.enabled = False
        spiker("/x", {})
        assert clock.now() == 0.0
        assert spiker.injected_spikes == 0


class TestReportShape:
    def test_report_and_table_carry_the_slo_fields(self):
        replayer, _ = _replayer(lambda path, headers: 0.002, n_requests=50)
        report = replayer.run()
        for field in ("p50", "p95", "p99", "p999", "mean", "max"):
            assert report["latency"][field] >= 0.0
        assert report["statuses"] == {"200": 50}
        assert report["shed_rate"] == 0.0
        table = format_slo_report(report)
        assert "p99.9 latency" in table
        assert "hedges launched / won" in table


class TestHedgingCutsTail:
    def test_seeded_spikes_hedged_p999_below_unhedged(self):
        """End-to-end over a real socket: seeded server-side latency
        spikes, identical replay seed; hedging must cut the spike out of
        the measured p99.9 (loose bounds — thread scheduling varies)."""
        from repro.serving.bench import SloBenchConfig, run_slo_benchmark

        results = run_slo_benchmark(
            SloBenchConfig(
                n_keys=2,
                n_requests=400,
                rate=400.0,
                warmup_requests=50,
                hedge_demo_requests=300,
                hedge_demo_rate=150.0,
                spike_rate=0.08,
                spike_seconds=0.25,
                hedge_delay_seconds=0.02,
                seed=7,
            )
        )
        demo = results["hedge_demo"]
        assert demo["unhedged"]["injected_spikes"] > 5
        # unhedged tail sits on the spike plateau
        assert demo["unhedged"]["p999"] > 0.5 * 0.25
        # hedging cuts it well below — the acceptance criterion
        assert demo["ok"]
        assert demo["hedged"]["p999"] < 0.6 * demo["unhedged"]["p999"]
        assert demo["hedged"]["hedges_launched"] > 0
        # the main replay produced a full SLO table over the socket
        slo = results["slo"]
        assert slo["responded"] > 300
        assert slo["latency"]["p999"] >= slo["latency"]["p50"]
        assert slo["statuses"].get("200", 0) > 0
        assert results["drain"]["drained"] is True
