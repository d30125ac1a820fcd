"""Streaming quantile digests (repro.obs.quality)."""

import numpy as np
import pytest

from repro.obs import telemetry as obs
from repro.obs.quality import (
    DEFAULT_MAX_CENTROIDS,
    QuantileDigest,
    observe,
)


class TestIngest:
    def test_exact_side_stats(self):
        digest = QuantileDigest()
        digest.observe_many([5.0, 1.0, 3.0])
        assert digest.count == 3
        assert digest.min == 1.0
        assert digest.max == 5.0
        assert digest.mean == pytest.approx(3.0)

    def test_empty_digest(self):
        digest = QuantileDigest()
        assert digest.count == 0
        assert digest.quantile(0.5) == 0.0
        data = digest.to_dict()
        assert data["count"] == 0
        assert data["min"] == 0.0

    def test_rejects_tiny_budget(self):
        with pytest.raises(ValueError):
            QuantileDigest(max_centroids=4)

    def test_numpy_arrays_stream_in(self):
        digest = QuantileDigest()
        digest.observe_many(np.arange(100, dtype=float))
        assert digest.count == 100
        assert digest.max == 99.0


class TestQuantiles:
    def test_exact_below_budget(self):
        digest = QuantileDigest()
        digest.observe_many(float(v) for v in range(101))
        assert digest.quantile(0.0) == pytest.approx(0.0)
        assert digest.quantile(0.5) == pytest.approx(50.0)
        assert digest.quantile(1.0) == pytest.approx(100.0)

    def test_accurate_over_budget(self):
        rng = np.random.default_rng(7)
        values = rng.normal(100.0, 15.0, size=50_000)
        digest = QuantileDigest()
        digest.observe_many(values)
        for q in (0.5, 0.9, 0.99):
            estimate = digest.quantile(q)
            exact = float(np.quantile(values, q))
            assert estimate == pytest.approx(exact, rel=0.02), q

    def test_bounded_memory(self):
        digest = QuantileDigest()
        digest.observe_many(float(v) for v in range(100_000))
        digest.to_dict()  # forces compression
        assert len(digest._centroids) <= DEFAULT_MAX_CENTROIDS

    def test_quantile_range_validated(self):
        with pytest.raises(ValueError):
            QuantileDigest().quantile(1.5)

    def test_deterministic_for_equal_streams(self):
        a, b = QuantileDigest(), QuantileDigest()
        values = [float((i * 37) % 1000) for i in range(10_000)]
        a.observe_many(values)
        b.observe_many(values)
        assert a.to_dict() == b.to_dict()


class TestMergeAndSerialisation:
    def test_roundtrip(self):
        digest = QuantileDigest()
        digest.observe_many(float(v) for v in range(1000))
        clone = QuantileDigest.from_dict(digest.to_dict())
        assert clone.count == digest.count
        assert clone.mean == pytest.approx(digest.mean)
        assert clone.quantile(0.9) == pytest.approx(
            digest.quantile(0.9), rel=0.02
        )

    def test_merge_matches_combined_stream(self):
        rng = np.random.default_rng(11)
        left = rng.uniform(0, 50, size=5000)
        right = rng.uniform(50, 100, size=5000)
        a = QuantileDigest()
        a.observe_many(left)
        b = QuantileDigest()
        b.observe_many(right)
        a.merge(b)
        combined = np.concatenate([left, right])
        assert a.count == 10_000
        assert a.quantile(0.5) == pytest.approx(
            float(np.quantile(combined, 0.5)), rel=0.05
        )

    def test_merge_empty_is_noop(self):
        a = QuantileDigest()
        a.observe(3.0)
        before = a.to_dict()
        a.merge(QuantileDigest())
        assert a.to_dict() == before

class TestModuleHelper:
    def test_noop_when_disabled(self):
        assert obs.get_telemetry() is obs.NULL
        observe("geo_error_km", [1.0, 2.0])
        assert obs.NULL.snapshot()["quality"] == {}

    def test_records_on_active_registry(self):
        with obs.capture() as telemetry:
            observe("geo_error_km", [1.0, 2.0, 3.0])
            observe("geo_error_km", [4.0])
        snapshot = telemetry.snapshot()
        assert snapshot["quality"]["geo_error_km"]["count"] == 4
        assert snapshot["quality"]["geo_error_km"]["max"] == 4.0

    def test_worker_digests_merge_home(self):
        worker = obs.Telemetry()
        worker.quality_observe("as_peer_count", [10.0, 20.0])
        parent = obs.Telemetry()
        parent.quality_observe("as_peer_count", [30.0])
        parent.merge_snapshot(worker.snapshot())
        merged = parent.snapshot()["quality"]["as_peer_count"]
        assert merged["count"] == 3
        assert merged["min"] == 10.0
        assert merged["max"] == 30.0
