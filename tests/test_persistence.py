"""Tests for the crash-safe snapshot layer.

Three levels: the framed file format (checksums, tearing, version skew),
the service checkpoint directory (save/load round-trip, damaged files
degrade to clean refits), and the gateway lifecycle (restore on start,
checkpoint on stop). The contract throughout: damage is *detected* and
degrades to the pre-checkpoint cold-refit behaviour — it never crashes the
serving path and never resurrects corrupt predictor state.
"""

import json
import math

import numpy as np
import pytest

from repro.cloud.api import EC2Api
from repro.service.drafts_service import DraftsService, ServiceConfig
from repro.service.persistence import (
    MANIFEST_NAME,
    SNAPSHOT_VERSION,
    SnapshotError,
    dumps_snapshot,
    filename_key,
    key_filename,
    loads_snapshot,
    read_snapshot,
    write_snapshot,
)
from repro.service.rest import encode_body
from repro.serving.clock import ManualClock
from repro.serving.gateway import GatewayConfig, ServingGateway, warm_gateway


def curves_equal(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if a.bids != b.bids or (a.probability, a.computed_at) != (
        b.probability,
        b.computed_at,
    ):
        return False
    return all(
        x == y or (math.isnan(x) and math.isnan(y))
        for x, y in zip(a.durations, b.durations)
    )


class TestFrameFormat:
    PAYLOAD = {
        "scalars": {"n": 7, "rho": 0.25, "flag": True, "none": None},
        "array": np.array([1.5, -0.0, np.nan, np.inf, 1e-308]),
        "ints": np.arange(5, dtype=np.int64),
        "nested": [{"x": np.array([2.0**-52])}],
    }

    def test_roundtrip_is_bit_exact(self):
        out = loads_snapshot(dumps_snapshot(self.PAYLOAD, "key"), "key")
        assert out["scalars"] == self.PAYLOAD["scalars"]
        np.testing.assert_array_equal(out["array"], self.PAYLOAD["array"])
        assert out["array"].dtype == np.float64
        # -0.0 keeps its sign bit (array_equal treats -0.0 == 0.0).
        assert math.copysign(1.0, out["array"][1]) == -1.0
        np.testing.assert_array_equal(out["ints"], self.PAYLOAD["ints"])
        np.testing.assert_array_equal(
            out["nested"][0]["x"], self.PAYLOAD["nested"][0]["x"]
        )

    def test_truncation_is_detected(self):
        raw = dumps_snapshot(self.PAYLOAD, "key")
        with pytest.raises(SnapshotError, match="torn"):
            loads_snapshot(raw[:-10], "key")
        with pytest.raises(SnapshotError, match="separator"):
            loads_snapshot(raw.partition(b"\n")[0], "key")
        with pytest.raises(SnapshotError):
            loads_snapshot(b"", "key")

    def test_bit_flip_is_detected(self):
        raw = bytearray(dumps_snapshot(self.PAYLOAD, "key"))
        body_start = raw.index(b"\n") + 1
        raw[body_start + 5] ^= 0x01
        with pytest.raises(SnapshotError, match="checksum"):
            loads_snapshot(bytes(raw), "key")

    def test_version_skew_is_detected(self):
        raw = dumps_snapshot(self.PAYLOAD, "key")
        head, _, body = raw.partition(b"\n")
        header = json.loads(head)
        header["version"] = SNAPSHOT_VERSION + 1
        skewed = json.dumps(header, sort_keys=True).encode() + b"\n" + body
        with pytest.raises(SnapshotError, match="version"):
            loads_snapshot(skewed, "key")

    def test_wrong_kind_and_foreign_file_are_detected(self):
        raw = dumps_snapshot(self.PAYLOAD, "key")
        with pytest.raises(SnapshotError, match="kind"):
            loads_snapshot(raw, "manifest")
        with pytest.raises(SnapshotError):
            loads_snapshot(b'{"some": "json"}\n{}', "key")

    def test_write_read_file_roundtrip(self, tmp_path):
        path = tmp_path / "one.snap"
        write_snapshot(path, self.PAYLOAD, kind="key")
        out = read_snapshot(path, kind="key")
        np.testing.assert_array_equal(out["array"], self.PAYLOAD["array"])
        # Atomic write leaves no temp file behind.
        assert list(tmp_path.iterdir()) == [path]

    def test_missing_file_raises_snapshot_error(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            read_snapshot(tmp_path / "absent.snap", kind="key")

    def test_key_filename_roundtrip(self):
        for key in (
            ("c4.large", "us-east-1b", 0.95),
            ("weird/type", "zone__with__underscores", 0.99),
            ("a b", "c%d", 0.875),
        ):
            name = key_filename(key)
            assert "/" not in name and name.endswith(".snap")
            assert filename_key(name) == key
        with pytest.raises(ValueError):
            filename_key("nonsense")


@pytest.fixture(scope="module")
def warm_service(request):
    """A service with two fitted keys, plus the instants it was fitted at."""
    small_universe = request.getfixturevalue("small_universe")
    service = DraftsService(EC2Api(small_universe), ServiceConfig())
    combo = small_universe.combo("c4.large", "us-east-1b")
    now = small_universe.trace(combo).start + 45 * 86400.0
    keys = [("c4.large", "us-east-1b", 0.95), ("c4.large", "us-east-1c", 0.95)]
    for key in keys:
        assert service.curve(key[0], key[1], key[2], now) is not None
    return small_universe, service, keys, now


class TestServiceCheckpoint:
    def test_roundtrip_restores_curves_and_stays_incremental(
        self, warm_service, tmp_path
    ):
        universe, service, keys, now = warm_service
        info = service.save_state(tmp_path)
        assert info["saved"] == len(keys) and info["skipped"] == 0

        restored = DraftsService(EC2Api(universe), ServiceConfig())
        loaded = restored.load_state(tmp_path)
        assert loaded == {"loaded": len(keys), "skipped": 0, "errors": {}}
        # Same instant: served from the restored cache, bit-identical.
        for key in keys:
            assert curves_equal(
                restored.curve(key[0], key[1], key[2], now),
                service.curve(key[0], key[1], key[2], now),
            )
        # A later instant: the restored predictors delta-fetch (no refit)
        # and still match the uninterrupted service exactly.
        later = now + ServiceConfig().refresh_seconds + 60.0
        for key in keys:
            assert curves_equal(
                restored.curve(key[0], key[1], key[2], later),
                service.curve(key[0], key[1], key[2], later),
            )
        assert restored.cache_info()["cold_fits"] == 0
        assert restored.cache_info()["refits"] == 0
        assert restored.cache_info()["incremental_refreshes"] == len(keys)

    def test_torn_key_file_is_skipped_not_fatal(
        self, warm_service, tmp_path
    ):
        universe, service, keys, now = warm_service
        service.save_state(tmp_path)
        victim = tmp_path / key_filename(keys[0])
        victim.write_bytes(victim.read_bytes()[:-200])

        restored = DraftsService(EC2Api(universe), ServiceConfig())
        loaded = restored.load_state(tmp_path)
        assert loaded["loaded"] == len(keys) - 1
        assert loaded["skipped"] == 1
        assert "torn" in loaded["errors"][victim.name]
        # The damaged key still serves — via a clean cold refit.
        assert restored.curve(keys[0][0], keys[0][1], keys[0][2], now) is not None
        # The damaged key held no restored state, so its fit was a cold one.
        assert restored.cache_info()["cold_fits"] == 1
        assert restored.cache_info()["refits"] == 0

    def test_missing_manifest_loads_nothing(self, warm_service, tmp_path):
        universe = warm_service[0]
        restored = DraftsService(EC2Api(universe), ServiceConfig())
        loaded = restored.load_state(tmp_path / "never-written")
        assert loaded["loaded"] == 0
        assert MANIFEST_NAME in loaded["errors"]

    def test_corrupt_manifest_loads_nothing(self, warm_service, tmp_path):
        universe, service, keys, now = warm_service
        service.save_state(tmp_path)
        (tmp_path / MANIFEST_NAME).write_bytes(b"not a snapshot at all")
        restored = DraftsService(EC2Api(universe), ServiceConfig())
        loaded = restored.load_state(tmp_path)
        assert loaded["loaded"] == 0 and MANIFEST_NAME in loaded["errors"]

    def test_unpublished_probability_is_skipped(self, warm_service, tmp_path):
        universe, service, keys, now = warm_service
        service.save_state(tmp_path)
        narrow = DraftsService(
            EC2Api(universe), ServiceConfig(probabilities=(0.875,))
        )
        loaded = narrow.load_state(tmp_path)
        assert loaded["loaded"] == 0 and loaded["skipped"] == len(keys)
        assert all("probability" in msg for msg in loaded["errors"].values())

    def test_foreign_ladder_config_is_skipped(self, warm_service, tmp_path):
        universe, service, keys, now = warm_service
        service.save_state(tmp_path)
        coarse = DraftsService(
            EC2Api(universe), ServiceConfig(ladder_increment=0.1)
        )
        loaded = coarse.load_state(tmp_path)
        assert loaded["loaded"] == 0 and loaded["skipped"] == len(keys)
        assert coarse.curve(*keys[0], now) is not None  # a clean cold fit


class TestGatewayLifecycle:
    def _gateway(self, universe, snapshot_dir, clock, **kwargs):
        return ServingGateway(
            DraftsService(EC2Api(universe)),
            GatewayConfig(snapshot_dir=str(snapshot_dir), **kwargs),
            clock=clock,
        )

    def test_warm_start_serves_without_recompute(
        self, small_universe, tmp_path
    ):
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        url = f"/predictions/c4.large/us-east-1b?probability=0.95&now={now}"

        first = self._gateway(small_universe, tmp_path, ManualClock())
        with first:
            body = first.get(url).body
        assert (tmp_path / MANIFEST_NAME).exists()  # stop() checkpointed

        second = self._gateway(small_universe, tmp_path, ManualClock())
        with second:
            response = second.get(url)
        assert response.status == 200 and response.body == body
        counters = second.metrics.snapshot()["counters"]
        # The restored entry is a store hit: zero recomputes after restart.
        assert counters["gateway.hits"] == 1
        assert counters["serving.recomputes"] == 0
        assert second.service.cache_info()["cold_fits"] == 0
        assert second.service.cache_info()["refits"] == 0

    def test_snapshot_failure_never_breaks_serving(
        self, small_universe, tmp_path
    ):
        clock = ManualClock()
        blocker = tmp_path / "dir-as-file"
        blocker.write_text("in the way")
        gateway = self._gateway(small_universe, blocker / "sub", clock)
        combo = small_universe.combo("c4.large", "us-east-1b")
        now = small_universe.trace(combo).start + 45 * 86400.0
        url = f"/predictions/c4.large/us-east-1b?probability=0.95&now={now}"
        gateway.start()
        assert gateway.get(url).status == 200
        gateway.stop()  # the final checkpoint fails; stop() returns
        assert gateway.metrics.counter("gateway.snapshot_failures").value == 1
        assert gateway.metrics.counter("gateway.snapshots").value == 0
        assert gateway.get(url).status == 200

    def test_warm_gateway_restart_restores_instead_of_fitting(
        self, small_universe, tmp_path
    ):
        """``warm_gateway`` over an intact checkpoint fits nothing: the
        restart restores every key and serves the bytes it served before."""
        combos = [
            ("c4.large", zone)
            for zone in ("us-east-1b", "us-east-1c", "us-east-1d", "us-east-1e")
        ]
        combo = small_universe.combo(*combos[0])
        now = small_universe.trace(combo).start + 45 * 86400.0
        urls = [
            f"/{route}/{itype}/{zone}?probability=0.95&duration=3600&now={now}"
            for itype, zone in combos
            for route in ("predictions", "bid")
        ]
        config = GatewayConfig(snapshot_dir=str(tmp_path))

        def served(gateway):
            with gateway:
                return [
                    (r.status, encode_body(r.body)) for r in map(gateway.get, urls)
                ]

        first = warm_gateway(small_universe, combos, now, 0.95, config=config)
        before = served(first)
        assert first.service.cache_info()["cold_fits"] == len(combos)
        assert {status for status, _ in before} == {200}

        second = warm_gateway(small_universe, combos, now, 0.95, config=config)
        assert served(second) == before
        info = second.service.cache_info()
        assert info["cold_fits"] == 0 and info["refits"] == 0
        counters = second.metrics.snapshot()["counters"]
        assert counters["gateway.hits"] == len(urls)

    def test_save_state_requires_a_directory(self, small_universe):
        gateway = ServingGateway(
            DraftsService(EC2Api(small_universe)), clock=ManualClock()
        )
        with pytest.raises(ValueError):
            gateway.save_state()
        with pytest.raises(ValueError):
            gateway.load_state()
