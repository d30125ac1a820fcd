"""Worker-snapshot merging: the Telemetry.merge_snapshot contract.

The exec engine's workers capture telemetry into their own registries
and ship snapshots back; the parent folds them in.  These tests pin the
reduction semantics: child span trees graft (and aggregate) under the
currently open span, counters add, gauges keep the maximum, and the
null registry ignores everything.
"""

import pytest

from repro.obs import telemetry as obs
from repro.obs.telemetry import NullTelemetry, Telemetry


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock() -> FakeClock:
    return FakeClock()


def child_snapshot(clock, counter=3, gauge=2.0):
    """A worker-style snapshot: one span with a nested child."""
    worker = Telemetry(clock=clock)
    with worker.span("kde.evaluate"):
        clock.advance(1.0)
        with worker.span("pop.extract"):
            clock.advance(0.5)
    worker.count("exec.jobs", counter)
    worker.gauge("exec.workers", gauge)
    return worker.snapshot()


class TestSpanGrafting:
    def test_spans_graft_under_the_open_span(self, clock):
        parent = Telemetry(clock=clock)
        with parent.span("exec.parallel_map"):
            parent.merge_snapshot(child_snapshot(clock))
        (root,) = parent.snapshot()["spans"]
        assert root["name"] == "exec.parallel_map"
        (kde,) = root["children"]
        assert kde["name"] == "kde.evaluate"
        assert kde["total_s"] == pytest.approx(1.5)
        (pop,) = kde["children"]
        assert pop["name"] == "pop.extract"
        assert pop["total_s"] == pytest.approx(0.5)

    def test_merge_outside_any_span_grafts_at_root(self, clock):
        parent = Telemetry(clock=clock)
        parent.merge_snapshot(child_snapshot(clock))
        (kde,) = parent.snapshot()["spans"]
        assert kde["name"] == "kde.evaluate"

    def test_same_name_snapshots_aggregate(self, clock):
        parent = Telemetry(clock=clock)
        with parent.span("exec.parallel_map"):
            parent.merge_snapshot(child_snapshot(clock))
            parent.merge_snapshot(child_snapshot(clock))
        (root,) = parent.snapshot()["spans"]
        (kde,) = root["children"]
        assert kde["count"] == 2
        assert kde["total_s"] == pytest.approx(3.0)
        assert kde["min_s"] == pytest.approx(1.5)
        assert kde["max_s"] == pytest.approx(1.5)

    def test_merge_preserves_existing_children(self, clock):
        parent = Telemetry(clock=clock)
        with parent.span("exec.parallel_map"):
            with parent.span("exec.cache_lookup"):
                clock.advance(0.1)
            parent.merge_snapshot(child_snapshot(clock))
        (root,) = parent.snapshot()["spans"]
        names = sorted(c["name"] for c in root["children"])
        assert names == ["exec.cache_lookup", "kde.evaluate"]


class TestMetricReduction:
    def test_counters_add(self, clock):
        parent = Telemetry(clock=clock)
        parent.count("exec.jobs", 10)
        parent.merge_snapshot(child_snapshot(clock, counter=3))
        parent.merge_snapshot(child_snapshot(clock, counter=4))
        assert parent.counters["exec.jobs"] == 17

    def test_gauges_keep_the_maximum(self, clock):
        parent = Telemetry(clock=clock)
        parent.merge_snapshot(child_snapshot(clock, gauge=4.0))
        parent.merge_snapshot(child_snapshot(clock, gauge=2.0))
        assert parent.gauges["exec.workers"] == 4.0

    def test_gauge_absent_in_parent_is_adopted(self, clock):
        parent = Telemetry(clock=clock)
        parent.merge_snapshot(child_snapshot(clock, gauge=1.5))
        assert parent.gauges["exec.workers"] == 1.5

    def test_empty_snapshot_is_a_noop(self, clock):
        parent = Telemetry(clock=clock)
        parent.merge_snapshot({"spans": [], "counters": {}, "gauges": {}})
        snapshot = parent.snapshot()
        assert snapshot["spans"] == []
        assert snapshot["counters"] == {}


class TestRegistryPlumbing:
    def test_null_registry_ignores_snapshots(self, clock):
        null = NullTelemetry()
        null.merge_snapshot(child_snapshot(clock))
        assert null.snapshot()["spans"] == []

    def test_module_function_targets_active_registry(self, clock):
        with obs.capture() as telemetry:
            obs.merge_snapshot(child_snapshot(clock))
        assert telemetry.counters["exec.jobs"] == 3

    def test_module_function_is_noop_by_default(self, clock):
        # No registry installed: must not raise, must not record.
        obs.merge_snapshot(child_snapshot(clock))
        assert obs.get_telemetry().snapshot()["spans"] == []


class TestWorkerResourceProfiles:
    def worker_profile(self, cpu=1.0, rss=1000.0):
        return {
            "schema": "repro.resource-profile/v1",
            "hz": 10.0,
            "sample_count": 4,
            "dropped_samples": 0,
            "samples": [],
            "stages": {"kde.evaluate": {"samples": 4, "cpu_s": cpu}},
            "totals": {"cpu_s": cpu, "rss_peak_kib": rss},
        }

    def test_worker_profile_folds_under_workers(self, clock):
        parent = Telemetry(clock=clock)
        parent.merge_snapshot({"resource_profile": self.worker_profile()})
        profile = parent.snapshot()["resource_profile"]
        (worker,) = profile["workers"]
        assert worker["worker"] == 0
        assert worker["totals"]["rss_peak_kib"] == 1000.0
        assert worker["stages"]["kde.evaluate"]["cpu_s"] == 1.0

    def test_multiple_workers_number_sequentially(self, clock):
        parent = Telemetry(clock=clock)
        parent.merge_snapshot({"resource_profile": self.worker_profile(1.0)})
        parent.merge_snapshot({"resource_profile": self.worker_profile(2.0)})
        workers = parent.snapshot()["resource_profile"]["workers"]
        assert [w["worker"] for w in workers] == [0, 1]
        assert [w["totals"]["cpu_s"] for w in workers] == [1.0, 2.0]

    def test_nested_worker_lists_flatten(self, clock):
        # A worker that itself merged sub-workers ships a profile with
        # its own workers list; the host flattens and renumbers.
        nested = self.worker_profile(1.0)
        nested["workers"] = [
            {"worker": 0, "sample_count": 2, "stages": {},
             "totals": {"cpu_s": 9.0}},
        ]
        parent = Telemetry(clock=clock)
        parent.merge_snapshot({"resource_profile": nested})
        workers = parent.snapshot()["resource_profile"]["workers"]
        assert len(workers) == 2
        assert [w["worker"] for w in workers] == [0, 1]
        assert 9.0 in [w["totals"].get("cpu_s") for w in workers]

    def test_chunks_of_one_worker_process_merge_into_one_entry(self, clock):
        def chunk(pid, samples, cpu, wall, rss_peak, rss_mean, heap=None):
            rollup = {"samples": samples, "cpu_s": cpu, "wall_s": wall,
                      "rss_peak_kib": rss_peak, "rss_mean_kib": rss_mean}
            totals = {"cpu_s": cpu, "duration_s": wall,
                      "rss_peak_kib": rss_peak, "rss_mean_kib": rss_mean}
            if heap is not None:
                rollup["heap_peak_kib"] = totals["heap_peak_kib"] = heap
            return {"resource_profile": {
                "schema": "repro.resource-profile/v1", "hz": 10.0,
                "pid": pid, "sample_count": samples, "dropped_samples": 0,
                "samples": [], "stages": {"kde.evaluate": rollup},
                "totals": totals,
            }}

        parent = Telemetry(clock=clock)
        parent.merge_snapshot(chunk(7, 2, 1.0, 2.0, 3000.0, 1000.0))
        parent.merge_snapshot(chunk(8, 5, 9.0, 9.0, 9000.0, 9000.0))
        parent.merge_snapshot(chunk(7, 6, 2.0, 2.0, 2000.0, 2000.0, 64.0))
        workers = parent.snapshot()["resource_profile"]["workers"]
        assert [(w["worker"], w["pid"]) for w in workers] == [(0, 7), (1, 8)]
        merged = workers[0]
        assert merged["sample_count"] == 8
        for rollup in (merged["stages"]["kde.evaluate"], merged["totals"]):
            assert rollup["cpu_s"] == pytest.approx(3.0)
            assert rollup["rss_peak_kib"] == 3000.0
            assert rollup["rss_mean_kib"] == pytest.approx(1750.0)
            assert rollup["cpu_util"] == pytest.approx(0.75)
            assert rollup["heap_peak_kib"] == 64.0
        assert merged["stages"]["kde.evaluate"]["samples"] == 8
        assert merged["stages"]["kde.evaluate"]["wall_s"] == 4.0
        assert merged["totals"]["duration_s"] == 4.0

    def test_shell_host_document_when_host_unprofiled(self, clock):
        parent = Telemetry(clock=clock)
        parent.merge_snapshot({"resource_profile": self.worker_profile()})
        profile = parent.snapshot()["resource_profile"]
        assert profile["schema"] == "repro.resource-profile/v1"
        assert profile["sample_count"] == 0
        assert profile["samples"] == []

    def test_null_registry_ignores_worker_profiles(self, clock):
        registry = NullTelemetry()
        registry.merge_snapshot({"resource_profile": self.worker_profile()})
        assert registry.snapshot() == {
            "spans": [], "counters": {}, "gauges": {},
            "funnel": [], "quality": {},
        }
