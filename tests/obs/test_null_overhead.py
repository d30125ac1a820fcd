"""Null-mode overhead guard: disabled telemetry must stay free.

The contract since PR 1 is that instrumented call-sites cost roughly
one attribute lookup when nothing is listening.  These tests pin the
properties that keep that true — shared no-op singletons, no per-call
state — and that the PR 3 ``--memory`` flag cannot start costing
anything while telemetry is off.
"""

import tracemalloc

import pytest

from repro.cli import main
from repro.obs import events, lineage, progress, quality
from repro.obs import telemetry as obs
from repro.obs.progress import NULL_TRACKER, NullProgressTracker
from repro.obs.telemetry import _NULL_SPAN, NullTelemetry, _NullSpan


class TestNoPerCallState:
    def test_span_returns_the_shared_singleton(self):
        assert obs.NULL.span("kde.evaluate") is _NULL_SPAN
        assert obs.NULL.span("a") is obs.NULL.span("b")

    def test_null_span_is_slotted_and_stateless(self):
        assert _NullSpan.__slots__ == ()
        assert not hasattr(_NULL_SPAN, "__dict__")

    def test_count_and_gauge_store_nothing(self):
        registry = NullTelemetry()
        assert registry.count("pipeline.peers_in", 5) is None
        assert registry.gauge("pipeline.target_ases", 3.0) is None
        assert registry.funnel_record(
            "pipeline.mapping", unit="peers", records_in=3, records_out=3
        ) is None
        assert registry.quality_observe("geo_error_km", [1.0, 2.0]) is None
        registry.span("crawl.run")
        # No instance attributes appear, ever: nothing accumulates.
        assert vars(registry) == {}
        assert registry.snapshot() == {
            "spans": [], "counters": {}, "gauges": {},
            "funnel": [], "quality": {},
        }

    def test_null_calls_allocate_no_lasting_memory(self):
        # 10k no-op calls must not grow the traced heap: everything
        # returned is a pre-existing shared object.
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            for _ in range(10_000):
                with obs.NULL.span("kde.evaluate"):
                    pass
                obs.NULL.count("kde.evaluations")
                obs.NULL.gauge("pipeline.target_ases", 1.0)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert current - baseline < 4096, (
            f"null telemetry leaked {current - baseline} bytes over "
            "10k calls"
        )

    def test_null_lineage_and_quality_allocate_no_lasting_memory(self):
        # The PR 5 lineage/quality helpers share the same budget: a
        # disabled registry must neither digest values nor build stages.
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            for _ in range(10_000):
                lineage.record_stage(
                    "pipeline.filter_geo_error", unit="peers",
                    records_in=10, records_out=9,
                    drops={"geo_error": 1},
                )
                quality.observe("geo_error_km", (1.0, 2.0))
            current, _ = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert current - baseline < 4096, (
            f"null lineage/quality leaked {current - baseline} bytes "
            "over 10k calls"
        )

    def test_module_helpers_hit_the_null_registry(self):
        assert obs.get_telemetry() is obs.NULL
        with obs.span("anything.here"):
            pass
        obs.count("anything.counter")
        obs.gauge("anything.gauge", 1.0)
        lineage.record_stage(
            "anything.stage", unit="peers", records_in=2, records_out=1,
            drops={"geo_error": 1},
        )
        quality.observe("anything.digest", [1.0, 2.0, 3.0])
        assert obs.NULL.snapshot() == {
            "spans": [], "counters": {}, "gauges": {},
            "funnel": [], "quality": {},
        }


class TestMemoryFlagIsNullSafe:
    """``--memory`` without a telemetry sink must change nothing."""

    def test_memory_flag_alone_starts_no_tracemalloc(self, capsys):
        assert not tracemalloc.is_tracing()
        # seed 91 is shared with tests/obs/test_cli_metrics.py so the
        # scenario cache makes this cheap.
        status = main(["--memory", "--seed", "91", "table1"])
        assert status == 0
        assert not tracemalloc.is_tracing()
        assert obs.get_telemetry() is obs.NULL

    def test_memory_flag_alone_output_is_byte_identical(self, capsys):
        status_plain = main(["--seed", "91", "table1"])
        plain = capsys.readouterr().out
        status_memory = main(["--memory", "--seed", "91", "table1"])
        instrumented = capsys.readouterr().out
        assert status_plain == status_memory == 0
        assert plain == instrumented

    def test_memory_with_metrics_out_does_gauge(self, tmp_path, capsys):
        from repro.obs.memory import MEMORY_GAUGE_PREFIX
        from repro.obs.report import RunReport

        path = tmp_path / "run.json"
        status = main(["--metrics-out", str(path), "--memory",
                       "--seed", "91", "table1"])
        assert status == 0
        assert not tracemalloc.is_tracing()
        report = RunReport.load(path)
        memory_gauges = [
            name for name in report.gauges
            if name.startswith(MEMORY_GAUGE_PREFIX)
        ]
        assert memory_gauges, "expected memory.peak_kib.* gauges"
        assert report.meta["memory"] is True


def test_null_registry_is_the_default():
    assert isinstance(obs.get_telemetry(), NullTelemetry)
    assert not obs.get_telemetry().enabled


class TestProgressAndEventsAreNullSafe:
    """The PR 6 live layer shares the zero-overhead budget: with no
    stream installed and telemetry off, instrumented loops pay one
    global read per tracker and one no-op method call per step."""

    def test_tracker_returns_the_shared_singleton(self):
        assert events.get_stream() is None
        assert progress.tracker("crawl.run", total=1_000) is NULL_TRACKER
        assert progress.tracker("a", total=1) is progress.tracker(
            "b", total=2
        )

    def test_null_tracker_is_slotted_and_stateless(self):
        assert NullProgressTracker.__slots__ == ()
        assert not hasattr(NULL_TRACKER, "__dict__")

    def test_disabled_progress_and_events_allocate_no_lasting_memory(self):
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            for _ in range(10_000):
                with progress.tracker(
                    "pipeline.mapping", total=100, unit="peers"
                ) as tracked:
                    tracked.advance()
                events.emit("heartbeat", source="nobody")
                events.heartbeat("nobody")
            current, _ = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert current - baseline < 4096, (
            f"null progress/events leaked {current - baseline} bytes "
            "over 10k calls"
        )

    def test_cli_run_without_events_flags_installs_no_stream(self, capsys):
        assert events.get_stream() is None
        status = main(["--seed", "91", "table1"])
        assert status == 0
        assert events.get_stream() is None


class TestResourceSamplingIsNullSafe:
    """The PR 8 resource layer shares the zero-overhead budget: with
    no --profile-resources the shared null sampler is the only object
    in play and experiment output is byte-identical."""

    def test_null_sampler_is_slotted_and_stateless(self):
        from repro.obs.sampler import sample

        with sample(profile_hz=None) as null:
            assert type(null).__slots__ == ()
            assert not hasattr(null, "__dict__")

    def test_falsy_hz_yields_the_shared_singleton(self):
        from repro.obs.sampler import NULL_SAMPLER, sample

        with sample(profile_hz=None) as first:
            with sample(profile_hz=0.0) as second:
                assert first is NULL_SAMPLER
                assert second is NULL_SAMPLER

    def test_null_sampling_allocates_no_lasting_memory(self):
        from repro.obs.sampler import NULL_SAMPLER, sample

        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            for _ in range(10_000):
                with sample(profile_hz=None):
                    NULL_SAMPLER.documents()
            current, _ = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert current - baseline < 4096, (
            f"null sampler leaked {current - baseline} bytes over "
            "10k blocks"
        )

    def test_profile_flag_alone_output_is_byte_identical(self, capsys):
        import threading

        status_plain = main(["--seed", "91", "table1"])
        plain = capsys.readouterr().out
        before = threading.active_count()
        status_profiled = main(
            ["--profile-resources", "--seed", "91", "table1"]
        )
        instrumented = capsys.readouterr().out
        assert status_plain == status_profiled == 0
        assert plain == instrumented
        assert threading.active_count() == before  # no sampler thread
        assert obs.get_telemetry() is obs.NULL


class TestStackSamplingIsNullSafe:
    """The PR 10 stack profiler shares the same budget: with no
    --flame-out the shared null sampler is the only object in play and
    no sampler thread ever starts."""

    def test_null_stack_sampler_is_slotted_and_stateless(self):
        from repro.obs.sampler import sample

        with sample(flame_hz=None) as null:
            assert type(null).__slots__ == ()
            assert not hasattr(null, "__dict__")

    def test_falsy_hz_yields_the_shared_singleton(self):
        from repro.obs.sampler import NULL_SAMPLER, sample

        with sample(flame_hz=None) as first:
            with sample(flame_hz=0.0) as second:
                assert first is NULL_SAMPLER
                assert second is NULL_SAMPLER

    def test_null_stack_sampling_allocates_no_lasting_memory(self):
        from repro.obs.sampler import NULL_SAMPLER, sample

        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            for _ in range(10_000):
                with sample(flame_hz=0.0):
                    NULL_SAMPLER.documents()
            current, _ = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert current - baseline < 4096, (
            f"null stack sampler leaked {current - baseline} bytes "
            "over 10k blocks"
        )

    def test_no_flame_flag_starts_no_sampler_thread(self, capsys):
        import threading

        before = threading.active_count()
        assert main(["--seed", "91", "table1"]) == 0
        capsys.readouterr()
        assert threading.active_count() == before
        assert obs.get_telemetry() is obs.NULL
