"""FootprintEngine: serial/parallel equivalence, caching, telemetry.

The acceptance bar for the whole execution layer is here: a parallel
run must produce artifacts indistinguishable from the serial path on a
fixed-seed dataset, a cached re-run must serve every job from disk,
and the funnel and digests must not depend on either.  Parallel tests
use 2 workers and a handful of jobs to stay fast.
"""

import pytest

from repro.exec import FootprintEngine, FootprintJob, ParallelConfig
from repro.obs import telemetry as obs
from repro.pipeline import build_footprint_jobs

BANDWIDTH_KM = 40.0


@pytest.fixture(scope="module")
def jobs(small_scenario):
    asns = small_scenario.eyeball_target_asns()[:6]
    return build_footprint_jobs(small_scenario.dataset, asns, BANDWIDTH_KM)


@pytest.fixture(scope="module")
def serial_artifacts(small_scenario, jobs):
    return FootprintEngine(small_scenario.gazetteer).run(jobs)


def assert_same_artifacts(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.asn == want.asn
        assert got.bandwidth_km == want.bandwidth_km
        assert got.peak_latlons == want.peak_latlons
        assert got.pop_footprint == want.pop_footprint


class TestSerialPath:
    def test_results_in_job_order(self, jobs, serial_artifacts):
        assert [a.asn for a in serial_artifacts] == [j.asn for j in jobs]

    def test_matches_inline_pipeline(self, small_scenario, jobs, serial_artifacts):
        # The engine's serial path must be the unparallelised pipeline.
        for job, artifact in zip(jobs, serial_artifacts):
            inline = small_scenario.pop_footprint(job.asn, BANDWIDTH_KM)
            assert artifact.pop_footprint == inline

    def test_peaks_found_counts_every_peak(
        self, small_scenario, jobs, serial_artifacts
    ):
        for job, artifact in zip(jobs, serial_artifacts):
            footprint = small_scenario.geo_footprint(job.asn, BANDWIDTH_KM)
            assert artifact.peaks_found == len(footprint.peaks)
            assert artifact.peaks_found >= len(artifact.peak_latlons)

    def test_run_by_asn_preserves_job_order(self, small_scenario, jobs):
        engine = FootprintEngine(small_scenario.gazetteer)
        by_asn = engine.run_by_asn(jobs)
        assert list(by_asn) == [j.asn for j in jobs]

    def test_empty_batch(self, small_scenario):
        assert FootprintEngine(small_scenario.gazetteer).run([]) == []


class TestParallelEquivalence:
    def test_parallel_matches_serial(self, small_scenario, jobs, serial_artifacts):
        engine = FootprintEngine(
            small_scenario.gazetteer, ParallelConfig(workers=2, chunk_size=2)
        )
        assert_same_artifacts(engine.run(jobs), serial_artifacts)

    def test_more_workers_than_chunks(self, small_scenario, jobs, serial_artifacts):
        # max_workers is clamped to the chunk count; one big chunk is fine.
        engine = FootprintEngine(
            small_scenario.gazetteer,
            ParallelConfig(workers=4, chunk_size=len(jobs)),
        )
        assert_same_artifacts(engine.run(jobs), serial_artifacts)

    def test_worker_telemetry_comes_home(self, small_scenario, jobs):
        engine = FootprintEngine(
            small_scenario.gazetteer, ParallelConfig(workers=2, chunk_size=2)
        )
        with obs.capture() as telemetry:
            engine.run(jobs)
        snapshot = telemetry.snapshot()
        (run_span,) = snapshot["spans"]
        assert run_span["name"] == "exec.run"
        (parallel_span,) = run_span["children"]
        assert parallel_span["name"] == "exec.parallel_map"
        # Worker-side spans must be grafted under the map span.
        child_names = {c["name"] for c in parallel_span["children"]}
        assert "kde.evaluate" in child_names
        assert "pop.extract" in child_names
        assert telemetry.counters["exec.jobs"] == len(jobs)
        assert telemetry.counters["exec.chunks"] == 3
        assert telemetry.gauges["exec.workers"] == 2


class TestCaching:
    def test_second_run_is_all_hits(self, small_scenario, jobs, tmp_path):
        config = ParallelConfig(cache_dir=str(tmp_path))
        with obs.capture() as telemetry:
            first = FootprintEngine(small_scenario.gazetteer, config).run(jobs)
        assert telemetry.counters["exec.cache.misses"] == len(jobs)
        assert telemetry.counters["exec.cache.writes"] == len(jobs)

        with obs.capture() as telemetry:
            second = FootprintEngine(small_scenario.gazetteer, config).run(jobs)
        assert telemetry.counters["exec.cache.hits"] == len(jobs)
        assert "exec.cache.misses" not in telemetry.counters
        assert_same_artifacts(second, first)

    def test_partial_hit_batch_recomputes_only_the_rest(
        self, small_scenario, jobs, tmp_path
    ):
        config = ParallelConfig(cache_dir=str(tmp_path))
        warm, cold = jobs[:2], jobs[2:]
        FootprintEngine(small_scenario.gazetteer, config).run(warm)
        with obs.capture() as telemetry:
            merged = FootprintEngine(small_scenario.gazetteer, config).run(jobs)
        assert telemetry.counters["exec.cache.hits"] == len(warm)
        assert telemetry.counters["exec.cache.misses"] == len(cold)
        # Order is positional even when hits and misses interleave.
        assert [a.asn for a in merged] == [j.asn for j in jobs]

    def test_hit_carries_the_requesting_asn(
        self, small_scenario, jobs, tmp_path
    ):
        # The key leaves the ASN out, so two ASes with the same peers
        # share one entry; each must still get its own ASN back.
        twins = [
            FootprintJob(
                asn=asn,
                lats=jobs[0].lats,
                lons=jobs[0].lons,
                bandwidth_km=BANDWIDTH_KM,
            )
            for asn in (64500, 64501)
        ]
        config = ParallelConfig(cache_dir=str(tmp_path))
        cold = FootprintEngine(small_scenario.gazetteer, config).run_by_asn(twins)
        with obs.capture() as telemetry:
            warm = FootprintEngine(
                small_scenario.gazetteer, config
            ).run_by_asn(twins)
        assert telemetry.counters["exec.cache.hits"] == 2
        assert list(cold) == list(warm) == [64500, 64501]
        for asn, artifact in warm.items():
            assert artifact.pop_footprint.asn == asn
        assert_same_artifacts(list(warm.values()), list(cold.values()))

    def test_cache_with_parallel_workers(
        self, small_scenario, jobs, serial_artifacts, tmp_path
    ):
        config = ParallelConfig(workers=2, chunk_size=2, cache_dir=str(tmp_path))
        engine = FootprintEngine(small_scenario.gazetteer, config)
        assert_same_artifacts(engine.run(jobs), serial_artifacts)
        with obs.capture() as telemetry:
            assert_same_artifacts(engine.run(jobs), serial_artifacts)
        assert telemetry.counters["exec.cache.hits"] == len(jobs)


class TestDataQuality:
    """The parent records the peak-selection stage and the peak-count
    digest once per returned artifact, computed or served."""

    @staticmethod
    def record(gazetteer, config, jobs):
        with obs.capture() as telemetry:
            FootprintEngine(gazetteer, config).run(jobs)
        snapshot = telemetry.snapshot()
        return snapshot["funnel"], snapshot["quality"]["footprint_peak_count"]

    def test_serial_record_sums_the_artifacts(
        self, small_scenario, jobs, serial_artifacts
    ):
        (stage,), digest = self.record(
            small_scenario.gazetteer, ParallelConfig(), jobs
        )
        assert stage["stage"] == "exec.peak_selection"
        assert stage["records_in"] == sum(
            a.peaks_found for a in serial_artifacts
        )
        assert stage["records_out"] == sum(
            len(a.peak_latlons) for a in serial_artifacts
        )
        assert digest["count"] == len(jobs)

    def test_same_for_every_schedule_and_cache_state(
        self, small_scenario, jobs, tmp_path
    ):
        gazetteer = small_scenario.gazetteer
        serial = self.record(gazetteer, ParallelConfig(), jobs)
        cached = ParallelConfig(
            workers=2, chunk_size=2, cache_dir=str(tmp_path)
        )
        assert self.record(gazetteer, cached, jobs) == serial  # cold
        assert self.record(gazetteer, cached, jobs) == serial  # warm


class TestWorkerResourceProfiles:
    def test_profiled_parallel_run_ships_worker_rollups(
        self, small_scenario, jobs, serial_artifacts
    ):
        shipped = []

        class Recording(obs.Telemetry):
            def merge_snapshot(self, snapshot):
                shipped.append(snapshot["resource_profile"])
                super().merge_snapshot(snapshot)

        engine = FootprintEngine(
            small_scenario.gazetteer,
            ParallelConfig(workers=2, chunk_size=2, profile_hz=200.0),
        )
        with obs.capture(Recording()) as telemetry:
            artifacts = engine.run(jobs)
        assert_same_artifacts(artifacts, serial_artifacts)
        assert len(shipped) == 3  # one rollup set per chunk
        profile = telemetry.snapshot()["resource_profile"]
        # One entry per worker process; samples stay worker-side.
        pids = {document["pid"] for document in shipped}
        assert sorted(w["pid"] for w in profile["workers"]) == sorted(pids)
        assert profile["samples"] == []
        for worker in profile["workers"]:
            assert worker["sample_count"] == sum(
                document["sample_count"] for document in shipped
                if document["pid"] == worker["pid"]
            )
            assert sum(
                rollup["samples"] for rollup in worker["stages"].values()
            ) == worker["sample_count"]
            assert worker["totals"].get("rss_peak_kib", 0.0) >= 0.0

    def test_unprofiled_run_has_no_profile_section(
        self, small_scenario, jobs
    ):
        engine = FootprintEngine(
            small_scenario.gazetteer, ParallelConfig(workers=2, chunk_size=2)
        )
        with obs.capture() as telemetry:
            engine.run(jobs)
        assert "resource_profile" not in telemetry.snapshot()
