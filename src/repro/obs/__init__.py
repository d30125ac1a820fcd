"""repro.obs — pipeline observability.

Zero-dependency pieces, layered in two tiers.  Capture:

``repro.obs.telemetry``
    Hierarchical timing spans, counters and gauges behind a
    process-wide registry with a no-op null mode (the default).
``repro.obs.memory``
    :class:`~repro.obs.memory.MemoryTelemetry` — opt-in
    ``tracemalloc``-backed per-span peak-allocation gauges.
``repro.obs.report``
    :class:`~repro.obs.report.RunReport` — JSON serialisation of a
    run's telemetry plus a human summary table.
``repro.obs.logconfig``
    Structured ``key=value`` logging under the ``repro.`` namespace.
``repro.obs.lineage``
    :class:`~repro.obs.lineage.FunnelStage` — dataset-lineage funnel
    accounting under a conservation law, with the closed
    :class:`~repro.obs.lineage.DropReason` vocabulary.
``repro.obs.quality``
    :class:`~repro.obs.quality.QuantileDigest` — fixed-size streaming
    quantile sketches of data-quality distributions.
``repro.obs.events``
    The live ``repro.events/v1`` stream — append-only JSONL of
    ``stage_start``/``stage_end``/``progress``/``heartbeat``/
    ``stall_warning`` events with monotonic sequence numbers.
``repro.obs.progress``
    :class:`~repro.obs.progress.ProgressTracker` (rate/ETA per stage)
    and :class:`~repro.obs.progress.StallWatchdog` (chunk-latency
    stall detection) feeding the event stream.
``repro.obs.sampler``
    :func:`~repro.obs.sampler.sample` — one background
    :class:`~repro.obs.sampler.Sampler` thread per process driving
    the resource and stack readers below, each at its own rate.
``repro.obs.resources``
    :class:`~repro.obs.resources.ResourceReader` — RSS/CPU/heap
    readings into ``repro.resource-profile/v1`` documents (per-sample
    rows + per-stage rollups), with a committed-budget gate
    (:func:`~repro.obs.resources.check_budget`).
``repro.obs.prof``
    :class:`~repro.obs.prof.StackReader` — wall-clock stack readings
    into span-attributed ``repro.flame/v1`` collapsed-stack tables,
    with flamegraph.pl/speedscope export and a hot-frame diff gate
    (:func:`~repro.obs.prof.diff_flame`).

And the longitudinal tier built on run reports:

``repro.obs.history``
    :class:`~repro.obs.history.RunHistory` — append-only JSONL archive
    of reports and benchmark records (the perf trajectory).
``repro.obs.diff``
    :func:`~repro.obs.diff.diff_reports` — noise-aware report
    comparison with a machine-readable verdict (the perf gate).
``repro.obs.trace``
    Chrome trace-event export of the span tree (Perfetto-loadable).

See ``docs/OBSERVABILITY.md`` for the span taxonomy, metric names,
the report/history/diff schemas and the trace walkthrough.
"""

from .diff import (
    DiffThresholds,
    MetricDrift,
    QuantileDrift,
    ReportDiff,
    ResourceDrift,
    RetentionDrift,
    SpanDelta,
    diff_reports,
)
from .events import (
    EVENTS_SCHEMA,
    EventStream,
    load_events,
    parse_events,
    render_events,
    stream_events,
    summarize_events,
    validate_events,
)
from .history import HISTORY_SCHEMA, HistoryEntry, RunHistory, utc_timestamp
from .lineage import (
    DropReason,
    FunnelConservationError,
    FunnelStage,
    record_stage,
    render_funnel,
)
from .logconfig import configure_logging, get_logger, kv
from .memory import MEMORY_GAUGE_PREFIX, MemoryTelemetry, capture_memory
from .prof import (
    FLAME_DIFF_SCHEMA,
    FLAME_SCHEMA,
    FlameDiff,
    FrameShift,
    diff_flame,
    merge_flame,
    render_collapsed,
    render_flame,
    render_speedscope,
    top_frames,
    validate_flame,
)
from .progress import (
    NULL_TRACKER,
    NullProgressTracker,
    ProgressTracker,
    StallWatchdog,
    tracker,
)
from .quality import QuantileDigest, observe
from .report import DATA_QUALITY_SCHEMA, SCHEMA, RunReport
from .resources import (
    RESOURCE_BUDGET_SCHEMA,
    RESOURCE_PROFILE_SCHEMA,
    check_budget,
    render_profile,
    validate_profile,
)
from .sampler import NULL_SAMPLER, Sampler, sample
from .telemetry import (
    NULL,
    NullTelemetry,
    SpanNode,
    Telemetry,
    capture,
    count,
    gauge,
    get_telemetry,
    merge_snapshot,
    set_telemetry,
    span,
)
from .trace import trace_from_report, validate_trace, write_trace

__all__ = [
    "DATA_QUALITY_SCHEMA",
    "DiffThresholds",
    "DropReason",
    "EVENTS_SCHEMA",
    "EventStream",
    "FLAME_DIFF_SCHEMA",
    "FLAME_SCHEMA",
    "FlameDiff",
    "FrameShift",
    "FunnelConservationError",
    "FunnelStage",
    "HISTORY_SCHEMA",
    "HistoryEntry",
    "MEMORY_GAUGE_PREFIX",
    "MemoryTelemetry",
    "MetricDrift",
    "NULL",
    "NULL_SAMPLER",
    "NULL_TRACKER",
    "NullProgressTracker",
    "NullTelemetry",
    "ProgressTracker",
    "StallWatchdog",
    "QuantileDigest",
    "QuantileDrift",
    "RESOURCE_BUDGET_SCHEMA",
    "RESOURCE_PROFILE_SCHEMA",
    "ReportDiff",
    "ResourceDrift",
    "RetentionDrift",
    "RunHistory",
    "RunReport",
    "SCHEMA",
    "Sampler",
    "SpanDelta",
    "SpanNode",
    "Telemetry",
    "capture",
    "capture_memory",
    "check_budget",
    "configure_logging",
    "count",
    "diff_flame",
    "diff_reports",
    "gauge",
    "get_logger",
    "get_telemetry",
    "kv",
    "load_events",
    "merge_flame",
    "merge_snapshot",
    "observe",
    "parse_events",
    "record_stage",
    "render_collapsed",
    "render_events",
    "render_flame",
    "render_funnel",
    "render_profile",
    "render_speedscope",
    "sample",
    "set_telemetry",
    "span",
    "top_frames",
    "validate_flame",
    "validate_profile",
    "stream_events",
    "summarize_events",
    "trace_from_report",
    "tracker",
    "validate_events",
    "utc_timestamp",
    "validate_trace",
    "write_trace",
]
