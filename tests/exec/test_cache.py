"""Content-addressed artifact cache: key semantics, hits, corruption.

Key sensitivity tests are exhaustive over the job fields the digest
covers — a cache that fails to invalidate on a changed input would
silently serve wrong science, so every field gets its own test.
"""

import pickle

import numpy as np
import pytest

from repro.exec import (
    ArtifactCache,
    CODE_SALT,
    FootprintJob,
    execute_job,
    gazetteer_fingerprint,
    job_key,
)
from repro.obs import telemetry as obs

#: A fixed digest standing in for a gazetteer fingerprint in key tests.
GAZ = "0" * 64


def make_job(**overrides):
    base = dict(
        asn=64512,
        lats=np.array([45.0, 45.1, 45.2]),
        lons=np.array([9.0, 9.1, 9.2]),
        bandwidth_km=40.0,
    )
    base.update(overrides)
    return FootprintJob(**base)


class TestJobValidation:
    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            make_job(lats=np.array([45.0, 45.1]))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            make_job(lats=np.array([]), lons=np.array([]))

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            make_job(bandwidth_km=0.0)

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_job(alpha=1.0)


class TestKeySemantics:
    def test_identical_jobs_share_a_key(self):
        assert job_key(make_job(), GAZ) == job_key(make_job(), GAZ)

    def test_key_is_hex_sha256(self):
        key = job_key(make_job(), GAZ)
        assert len(key) == 64
        int(key, 16)

    def test_asn_does_not_enter_the_key(self):
        # Content addressing: the same peers/parameters are the same
        # computation whichever ASN asked for it.
        assert job_key(make_job(asn=1), GAZ) == job_key(make_job(asn=2), GAZ)

    @pytest.mark.parametrize(
        "override",
        [
            {"lats": np.array([45.0, 45.1, 45.3])},
            {"lons": np.array([9.0, 9.1, 9.3])},
            {"bandwidth_km": 10.0},
            {"alpha": 0.02},
            {"cell_km": 5.0},
            {"contour_level": 0.02},
            {"method": "direct"},
            {"weights": np.array([1.0, 2.0, 1.0])},
        ],
        ids=lambda o: next(iter(o)),
    )
    def test_any_changed_input_changes_the_key(self, override):
        assert job_key(make_job(), GAZ) != job_key(make_job(**override), GAZ)

    def test_extra_coordinate_changes_the_key(self):
        grown = make_job(
            lats=np.array([45.0, 45.1, 45.2, 45.3]),
            lons=np.array([9.0, 9.1, 9.2, 9.3]),
        )
        assert job_key(make_job(), GAZ) != job_key(grown, GAZ)

    def test_gazetteer_digest_changes_the_key(self):
        assert job_key(make_job(), GAZ) != job_key(make_job(), "f" * 64)

    def test_code_salt_is_versioned(self):
        # The invalidation handle CONTRIBUTING.md tells algorithm
        # changes to bump: it must exist and look like a version tag.
        assert "/" in CODE_SALT


class TestGazetteerFingerprint:
    def test_stable_across_calls(self, italy_gazetteer):
        assert gazetteer_fingerprint(italy_gazetteer) == gazetteer_fingerprint(
            italy_gazetteer
        )

    def test_different_worlds_differ(self, italy_gazetteer, small_scenario):
        assert gazetteer_fingerprint(italy_gazetteer) != gazetteer_fingerprint(
            small_scenario.gazetteer
        )


class TestCacheRoundtrip:
    def test_miss_then_hit(self, tmp_path, italy_gazetteer):
        cache = ArtifactCache(tmp_path)
        job = make_job()
        key = job_key(job, gazetteer_fingerprint(italy_gazetteer))
        assert cache.get(key) is None
        artifact = execute_job(job, italy_gazetteer)
        cache.put(key, artifact)
        cached = cache.get(key)
        assert cached is not None
        assert cached.asn == artifact.asn
        assert cached.peak_latlons == artifact.peak_latlons
        assert cached.pop_footprint == artifact.pop_footprint

    def test_counters_flow_into_telemetry(self, tmp_path, italy_gazetteer):
        cache = ArtifactCache(tmp_path)
        job = make_job()
        key = job_key(job, gazetteer_fingerprint(italy_gazetteer))
        with obs.capture() as telemetry:
            cache.get(key)
            cache.put(key, execute_job(job, italy_gazetteer))
            cache.get(key)
        assert telemetry.counters["exec.cache.misses"] == 1
        assert telemetry.counters["exec.cache.writes"] == 1
        assert telemetry.counters["exec.cache.hits"] == 1

    def test_entry_count(self, tmp_path, italy_gazetteer):
        cache = ArtifactCache(tmp_path)
        assert cache.entry_count() == 0
        artifact = execute_job(make_job(), italy_gazetteer)
        cache.put("a" * 64, artifact)
        cache.put("b" * 64, artifact)
        assert cache.entry_count() == 2


class TestCorruptionTolerance:
    def put_garbage(self, cache, key, payload):
        path = cache._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)
        return path

    def test_truncated_entry_is_evicted_not_fatal(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "c" * 64
        path = self.put_garbage(cache, key, b"\x80\x05 not a pickle")
        with obs.capture() as telemetry:
            assert cache.get(key) is None
        assert not path.exists()
        assert telemetry.counters["exec.cache.evictions"] == 1
        assert telemetry.counters["exec.cache.misses"] == 1

    def test_wrong_type_entry_is_evicted(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "d" * 64
        path = self.put_garbage(
            cache, key, pickle.dumps({"not": "an artifact"})
        )
        assert cache.get(key) is None
        assert not path.exists()

    def test_recompute_after_eviction_recovers(self, tmp_path, italy_gazetteer):
        cache = ArtifactCache(tmp_path)
        job = make_job()
        key = job_key(job, gazetteer_fingerprint(italy_gazetteer))
        self.put_garbage(cache, key, b"junk")
        assert cache.get(key) is None  # evicted
        cache.put(key, execute_job(job, italy_gazetteer))
        assert cache.get(key) is not None
