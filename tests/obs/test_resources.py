"""ResourceReader: deterministic rollup math, ring buffer, budgets.

Everything timing-sensitive is driven through explicit timestamps, an
injected clock and fake readers — :meth:`ResourceReader.read` and
:meth:`Sampler.tick` need no thread, so the rollup arithmetic
(per-stage CPU/wall attribution, peaks, means, ``cpu_util``) is exact.
A small smoke section exercises the real daemon thread and the real
/proc readers.
"""

import threading
import time

import pytest

from repro.obs import telemetry as obs
from repro.obs.resources import (
    DEFAULT_HZ,
    RESOURCE_BUDGET_SCHEMA,
    RESOURCE_PROFILE_SCHEMA,
    ResourceReader,
    check_budget,
    default_cpu_reader,
    default_rss_reader,
    profile_gauges,
    render_profile,
    validate_profile,
)
from repro.obs.sampler import (
    NULL_SAMPLER,
    TOP_LABEL,
    NullSampler,
    Sampler,
    sample,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeReaders:
    """Scripted RSS/CPU/heap: values the tests fully control."""

    def __init__(self) -> None:
        self.rss = 1000.0
        self.cpu = 5.0
        self.heap = None

    def read_rss(self) -> float:
        return self.rss

    def read_cpu(self) -> float:
        return self.cpu

    def read_heap(self):
        return self.heap


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def readers():
    return FakeReaders()


def make_reader(readers, **kwargs):
    return ResourceReader(
        kwargs.pop("hz", 10.0),
        rss_reader=readers.read_rss,
        cpu_reader=readers.read_cpu,
        heap_reader=readers.read_heap,
        **kwargs,
    )


def make_sampler(clock, readers, telemetry=None, **kwargs):
    return Sampler(
        [make_reader(readers, **kwargs)], telemetry=telemetry, clock=clock
    )


def resource_document(sampler):
    return sampler.documents()["resource_profile"]


class TestRollupMath:
    def test_cpu_and_wall_attributed_to_open_span(self, clock, readers):
        telemetry = obs.Telemetry(clock=clock)
        sampler = make_sampler(clock, readers, telemetry=telemetry)
        sampler.begin()  # t=0 sample, outside any span
        with telemetry.span("kde.evaluate"):
            clock.advance(1.0)
            readers.cpu += 0.8
            sampler.tick()
        clock.advance(1.0)
        readers.cpu += 0.1
        sampler.tick()
        profile = resource_document(sampler)
        kde = profile["stages"]["kde.evaluate"]
        assert kde["cpu_s"] == pytest.approx(0.8)
        assert kde["wall_s"] == pytest.approx(1.0)
        assert kde["cpu_util"] == pytest.approx(0.8)
        top = profile["stages"]["(top)"]
        assert top["cpu_s"] == pytest.approx(0.1)
        assert profile["totals"]["cpu_s"] == pytest.approx(0.9)
        assert profile["totals"]["duration_s"] == pytest.approx(2.0)
        assert profile["totals"]["cpu_util"] == pytest.approx(0.45)

    def test_rss_peak_and_mean(self, readers):
        reader = make_reader(readers)
        reader.begin(0.0, TOP_LABEL)  # rss 1000
        for now, rss in ((0.1, 3000.0), (0.2, 2000.0)):
            readers.rss = rss
            reader.read(now, TOP_LABEL)
        totals = reader.document()["totals"]
        assert totals["rss_peak_kib"] == 3000.0
        assert totals["rss_mean_kib"] == pytest.approx(2000.0)

    def test_heap_peak_only_when_reader_reports(self, readers):
        reader = make_reader(readers)
        reader.begin(0.0, TOP_LABEL)
        assert "heap_peak_kib" not in reader.document()["totals"]
        readers.heap = 512.0
        reader.read(0.1, TOP_LABEL)
        assert reader.document()["totals"]["heap_peak_kib"] == 512.0

    def test_sample_rows_carry_schema_fields(self, readers):
        reader = make_reader(readers)
        reader.begin(100.0, TOP_LABEL)
        row = reader.read(100.25, TOP_LABEL)
        assert row["t_s"] == pytest.approx(0.25)
        assert row["rss_kib"] == 1000.0
        assert row["cpu_s"] == 0.0
        assert row["heap_kib"] is None
        assert row["span"] == "(top)"
        assert len(row["gc"]) == 3

    def test_profile_validates_cleanly(self, readers):
        reader = make_reader(readers)
        reader.begin(0.0, TOP_LABEL)
        readers.cpu += 0.2
        reader.read(0.5, "crawl.run")
        assert validate_profile(reader.document()) == []


class TestRingBuffer:
    def test_overflow_drops_oldest_and_counts(self, readers):
        reader = make_reader(readers, max_samples=4)
        reader.begin(0.0, TOP_LABEL)
        for step in range(1, 10):
            reader.read(step / 10.0, TOP_LABEL)
        profile = reader.document()
        assert profile["sample_count"] == 10
        assert profile["dropped_samples"] == 6
        assert len(profile["samples"]) == 4
        times = [row["t_s"] for row in profile["samples"]]
        assert times == sorted(times)  # ring unrolled in time order
        assert times[-1] == pytest.approx(0.9)

    def test_rollups_cover_dropped_samples(self, readers):
        reader = make_reader(readers, max_samples=4)
        reader.begin(0.0, TOP_LABEL)
        readers.rss = 9000.0  # peak in a row the ring will drop
        reader.read(0.1, TOP_LABEL)
        readers.rss = 1000.0
        for step in range(2, 10):
            reader.read(step / 10.0, TOP_LABEL)
        profile = reader.document()
        assert all(r["rss_kib"] == 1000.0 for r in profile["samples"])
        assert profile["totals"]["rss_peak_kib"] == 9000.0

    def test_keep_samples_false_records_rollups_only(self, readers):
        reader = make_reader(readers, keep_samples=False)
        reader.begin(0.0, TOP_LABEL)
        reader.read(0.1, TOP_LABEL)
        profile = reader.document()
        assert profile["samples"] == []
        assert profile["dropped_samples"] == 0
        assert profile["sample_count"] == 2
        assert profile["totals"]["rss_peak_kib"] == 1000.0


class TestLifecycle:
    def test_stop_attaches_profile_to_enabled_telemetry(self, clock, readers):
        telemetry = obs.Telemetry(clock=clock)
        sampler = make_sampler(clock, readers, telemetry=telemetry)
        sampler.begin()
        sampler.stop()
        assert telemetry.resource_profile is not None
        assert (
            telemetry.resource_profile["schema"] == RESOURCE_PROFILE_SCHEMA
        )
        assert telemetry.resource_profile["sample_count"] == 2  # begin+end

    def test_stop_preserves_merged_worker_rollups(self, clock, readers):
        telemetry = obs.Telemetry(clock=clock)
        sampler = make_sampler(clock, readers, telemetry=telemetry)
        sampler.begin()
        telemetry.merge_snapshot(
            {
                "resource_profile": {
                    "schema": RESOURCE_PROFILE_SCHEMA,
                    "totals": {"cpu_s": 2.0},
                    "stages": {},
                    "sample_count": 1,
                }
            }
        )
        sampler.stop()
        (worker,) = telemetry.resource_profile["workers"]
        assert worker["totals"]["cpu_s"] == 2.0
        # The host's own samples are present too.
        assert telemetry.resource_profile["sample_count"] >= 1

    def test_stop_is_idempotent(self, clock, readers):
        sampler = make_sampler(clock, readers)
        sampler.begin()
        sampler.stop()
        count = resource_document(sampler)["sample_count"]
        sampler.stop()
        assert resource_document(sampler)["sample_count"] == count

    def test_no_attach_to_null_registry(self, clock, readers):
        registry = obs.NullTelemetry()
        sampler = make_sampler(clock, readers, telemetry=registry)
        sampler.begin()
        sampler.stop()
        assert registry.resource_profile is None
        assert vars(registry) == {}  # class attr untouched

    def test_context_manager_attaches_on_exception(self):
        telemetry = obs.Telemetry()
        with pytest.raises(RuntimeError):
            with sample(telemetry, profile_hz=10.0):
                raise RuntimeError("mid-run failure")
        assert telemetry.resource_profile is not None

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ResourceReader(0.0)
        with pytest.raises(ValueError):
            ResourceReader(-1.0)
        with pytest.raises(ValueError):
            ResourceReader(10.0, max_samples=1)


class TestNullSampler:
    def test_falsy_hz_yields_the_shared_null(self):
        with sample(profile_hz=None) as sampler:
            assert sampler is NULL_SAMPLER
        with sample(profile_hz=0.0) as sampler:
            assert sampler is NULL_SAMPLER

    def test_null_operations_are_noops(self):
        assert NULL_SAMPLER.running is False
        assert NULL_SAMPLER.documents() == {}

    def test_null_sampler_is_slotted(self):
        with pytest.raises(AttributeError):
            NullSampler().stray = 1


class TestGauges:
    def test_profile_gauges_from_totals(self):
        profile = {
            "sample_count": 7,
            "totals": {
                "cpu_s": 1.5, "cpu_util": 0.75,
                "rss_peak_kib": 4096.0, "rss_mean_kib": 2048.0,
                "heap_peak_kib": 100.0,
            },
        }
        gauges = profile_gauges(profile)
        assert gauges == {
            "resources.cpu_s": 1.5,
            "resources.cpu_util": 0.75,
            "resources.rss_peak_kib": 4096.0,
            "resources.rss_mean_kib": 2048.0,
            "resources.heap_peak_kib": 100.0,
            "resources.samples": 7.0,
        }

    def test_missing_totals_yield_partial_gauges(self):
        assert profile_gauges({"sample_count": 2, "totals": {}}) == {
            "resources.samples": 2.0
        }


class TestValidation:
    def good(self):
        reader = make_reader(FakeReaders())
        reader.begin(0.0, TOP_LABEL)
        return reader.document()

    def test_rejects_non_object(self):
        assert validate_profile([]) == ["profile is not a JSON object"]

    def test_rejects_wrong_schema(self):
        profile = self.good()
        profile["schema"] = "bogus/v9"
        assert any("schema" in p for p in validate_profile(profile))

    def test_rejects_decreasing_timestamps(self):
        profile = self.good()
        profile["samples"] = [
            {"t_s": 1.0, "rss_kib": 1.0, "cpu_s": 0.0, "span": "x"},
            {"t_s": 0.5, "rss_kib": 1.0, "cpu_s": 0.0, "span": "x"},
        ]
        assert any("decreases" in p for p in validate_profile(profile))

    def test_rejects_malformed_rollup(self):
        profile = self.good()
        profile["stages"] = {"kde.evaluate": {"samples": 0}}
        problems = validate_profile(profile)
        assert any("samples" in p for p in problems)
        assert any("cpu_s" in p for p in problems)

    def test_rejects_negative_sample_fields(self):
        profile = self.good()
        profile["samples"] = [
            {"t_s": 0.0, "rss_kib": -5.0, "cpu_s": 0.0, "span": "x"},
        ]
        assert any("rss_kib" in p for p in validate_profile(profile))

    def test_rejects_non_list_workers(self):
        profile = self.good()
        profile["workers"] = {"not": "a list"}
        assert any("workers" in p for p in validate_profile(profile))


class TestBudget:
    def budget(self, **limits):
        doc = {"schema": RESOURCE_BUDGET_SCHEMA}
        doc.update(limits)
        return doc

    def profile(self, **totals):
        return {"schema": RESOURCE_PROFILE_SCHEMA, "totals": totals}

    def test_within_budget_passes(self):
        breaches = check_budget(
            self.profile(rss_peak_kib=1000.0, cpu_s=1.0),
            self.budget(max_rss_peak_kib=2000.0, max_cpu_s=10.0),
        )
        assert breaches == []

    def test_breach_names_metric_and_limit(self):
        breaches = check_budget(
            self.profile(rss_peak_kib=3000.0),
            self.budget(max_rss_peak_kib=2000.0),
        )
        assert breaches == [
            "totals.rss_peak_kib = 3000 exceeds max_rss_peak_kib = 2000"
        ]

    def test_absent_keys_are_unbounded(self):
        breaches = check_budget(
            self.profile(cpu_s=1e9), self.budget(max_rss_peak_kib=1.0)
        )
        assert breaches == []  # rss totals absent, cpu unbounded

    def test_wrong_budget_schema_is_a_breach(self):
        breaches = check_budget(self.profile(), {"schema": "nope"})
        assert len(breaches) == 1 and "schema" in breaches[0]


class TestRendering:
    def test_render_lists_stages_by_cpu(self, readers):
        reader = make_reader(readers)
        reader.begin(0.0, TOP_LABEL)
        readers.cpu += 0.9
        reader.read(1.0, "kde.evaluate")
        readers.cpu += 0.1
        reader.read(2.0, "pop.extract")
        text = render_profile(reader.document())
        assert "sampled at 10 Hz" in text
        assert text.index("kde.evaluate") < text.index("pop.extract")
        assert "totals:" in text

    def test_render_mentions_dropped_and_workers(self):
        profile = {
            "hz": 10.0,
            "sample_count": 10,
            "dropped_samples": 3,
            "totals": {"duration_s": 1.0, "rss_peak_kib": 2048.0},
            "stages": {},
            "workers": [
                {"worker": 0, "totals": {"rss_peak_kib": 1024.0}},
            ],
        }
        text = render_profile(profile)
        assert "3 oldest dropped" in text
        assert "workers: 1 profiled" in text
        assert "1.0M" in text


class TestRealThread:
    def test_thread_samples_and_stops(self):
        telemetry = obs.Telemetry()
        with sample(telemetry, profile_hz=200.0) as sampler:
            assert sampler.running
            assert sampler._thread.daemon
            time.sleep(0.1)
        assert not sampler.running
        profile = telemetry.resource_profile
        assert profile["sample_count"] >= 2
        assert validate_profile(profile) == []

    def test_real_readers_return_plausible_values(self):
        rss = default_rss_reader()
        cpu = default_cpu_reader()
        assert rss > 0.0  # this process surely has resident pages
        assert cpu >= 0.0

    def test_sample_cost_is_small(self):
        # The <2% wall-clock overhead claim at 10 Hz needs each sample
        # to cost well under 2 ms; allow slack for noisy CI machines.
        reader = ResourceReader(10.0)
        reader.begin(0.0, TOP_LABEL)
        start = time.perf_counter()
        for step in range(100):
            reader.read(step / 10.0, TOP_LABEL)
        per_sample = (time.perf_counter() - start) / 100
        assert per_sample < 0.002

    def test_sampler_thread_is_allowed_outside_exec(self):
        # Regression guard for REP601: the one sampler thread lives in
        # repro.obs.sampler, which uses threading (allowed), not
        # multiprocessing (exec-only).
        import repro.obs.sampler as module

        assert module.threading is threading
        assert not hasattr(module, "multiprocessing")


def test_default_hz_is_documented_value():
    assert DEFAULT_HZ == 10.0
