"""Noise-aware comparison of two run reports.

:func:`diff_reports` lines two :class:`~repro.obs.report.RunReport`
objects up span-by-span (flattened to their ``" > "``-joined paths)
and produces per-span wall-time deltas plus counter/gauge drift, all
behind relative thresholds so timer jitter on tiny spans never raises
false alarms.  The result carries a machine-readable verdict
(``"ok"`` / ``"regression"``) — the diff gate of the CLI's ``stats
check`` and the CI perf gate are thin wrappers over it.

Three limits are settable per baseline (:class:`DiffThresholds`); the
rest are the fixed module constants below.

* a span is only judged when either run spent at least
  ``noise_floor_s`` in it — microsecond spans are reported but never
  fail a diff;
* a judged span regresses when ``new_total / old_total`` exceeds
  ``max_ratio`` (default 1.5×), so a genuine 2× slowdown always
  trips the gate while scheduler noise does not;
* counters and gauges drift when their relative change exceeds
  :data:`COUNTER_REL_TOL` / :data:`GAUGE_REL_TOL`; that drift is
  reported and never fails the verdict (counter drift on a fixed seed
  usually means the experiment changed, not slowed).

Beyond wall time, reports carrying a ``repro.data-quality/v1`` section
are also compared as *datasets*: per-stage funnel **retention rates**
(absolute tolerance :data:`RETENTION_ABS_TOL`) and headline
**quantiles** of every distribution digest (relative tolerance
:data:`QUANTILE_REL_TOL`).  Data drift always fails the verdict —
unlike counter drift, a shifted drop rate or error distribution on a
fixed seed means the *input data* changed, which is exactly the silent
failure this gate exists to catch.

Reports carrying a ``repro.resource-profile/v1`` section (see
:mod:`repro.obs.resources`) are additionally compared as *resource
consumers*: peak RSS may not grow past :data:`MAX_RSS_RATIO` and
``cpu_util`` may not move by more than ``cpu_util_abs_tol``, judged on
the profile totals and on every stage present in both runs.  Resource
drift always fails the verdict — a memory regression is exactly what
the out-of-core work needs this gate to catch — and is only judged
when *both* reports carry a profile.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .report import RunReport, _walk_span_dicts

#: Schema identifier embedded in every serialised diff.
DIFF_SCHEMA = "repro.report-diff/v1"

#: Span statuses.
STATUS_OK = "ok"  # judged, within thresholds
STATUS_SLOWER = "slower"  # judged, over max_ratio — a regression
STATUS_FASTER = "faster"  # judged, improved beyond max_ratio
STATUS_NOISE = "noise"  # below the floor in both runs; not judged
STATUS_ADDED = "added"  # only in the new report
STATUS_REMOVED = "removed"  # only in the old report


#: Relative counter change above which drift is reported.
COUNTER_REL_TOL = 0.0
#: Relative gauge change above which drift is reported.
GAUGE_REL_TOL = 0.25
#: Absolute funnel-retention change above which a stage drifts.
RETENTION_ABS_TOL = 0.05
#: Relative headline-quantile change above which a digest drifts.
QUANTILE_REL_TOL = 0.25
#: New/old peak-RSS ratio above which a profiled run drifts.
MAX_RSS_RATIO = 1.5


@dataclass(frozen=True)
class DiffThresholds:
    """The limits a baseline's ``thresholds.json`` may set."""

    #: new/old wall-time ratio above which a span counts as slower.
    max_ratio: float = 1.5
    #: spans under this total in *both* runs are never judged.
    noise_floor_s: float = 0.005
    #: absolute cpu_util change above which a profiled run drifts.
    cpu_util_abs_tol: float = 0.25


@dataclass
class SpanDelta:
    """One span path compared across the two reports."""

    path: str
    old_total_s: Optional[float]
    new_total_s: Optional[float]
    old_count: int
    new_count: int
    status: str

    @property
    def ratio(self) -> Optional[float]:
        """``new/old`` wall-time ratio (``None`` when not comparable)."""
        if not self.old_total_s or self.new_total_s is None:
            return None
        return self.new_total_s / self.old_total_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "old_total_s": self.old_total_s,
            "new_total_s": self.new_total_s,
            "old_count": self.old_count,
            "new_count": self.new_count,
            "ratio": self.ratio,
            "status": self.status,
        }


@dataclass
class MetricDrift:
    """One counter or gauge whose value moved across the two reports."""

    kind: str  # "counter" | "gauge"
    name: str
    old: Optional[float]
    new: Optional[float]

    @property
    def rel_change(self) -> Optional[float]:
        if self.old is None or self.new is None or self.old == 0:
            return None
        return (self.new - self.old) / abs(self.old)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "old": self.old,
            "new": self.new,
            "rel_change": self.rel_change,
        }


@dataclass
class RetentionDrift:
    """One funnel stage whose retention rate moved beyond tolerance."""

    stage: str
    unit: str
    old_retention: Optional[float]
    new_retention: Optional[float]
    old_out: Optional[int]
    new_out: Optional[int]

    @property
    def delta(self) -> Optional[float]:
        if self.old_retention is None or self.new_retention is None:
            return None
        return self.new_retention - self.old_retention

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "unit": self.unit,
            "old_retention": self.old_retention,
            "new_retention": self.new_retention,
            "old_out": self.old_out,
            "new_out": self.new_out,
            "delta": self.delta,
        }


@dataclass
class QuantileDrift:
    """One distribution quantile that moved beyond tolerance."""

    name: str  # distribution name, e.g. "geo_error_km"
    quantile: str  # "p50" | "p90" | "p99"
    old: Optional[float]
    new: Optional[float]

    @property
    def rel_change(self) -> Optional[float]:
        if self.old is None or self.new is None or self.old == 0:
            return None
        return (self.new - self.old) / abs(self.old)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "quantile": self.quantile,
            "old": self.old,
            "new": self.new,
            "rel_change": self.rel_change,
        }


@dataclass
class ResourceDrift:
    """One resource-profile rollup that moved beyond tolerance."""

    metric: str  # "rss_peak_kib" | "cpu_util"
    scope: str  # "totals" or a stage name
    old: Optional[float]
    new: Optional[float]

    @property
    def ratio(self) -> Optional[float]:
        if not self.old or self.new is None:
            return None
        return self.new / self.old

    @property
    def delta(self) -> Optional[float]:
        if self.old is None or self.new is None:
            return None
        return self.new - self.old

    def to_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "scope": self.scope,
            "old": self.old,
            "new": self.new,
            "ratio": self.ratio,
            "delta": self.delta,
        }


@dataclass
class ReportDiff:
    """The full comparison; ``verdict`` is the machine-readable gate."""

    thresholds: DiffThresholds
    spans: List[SpanDelta] = field(default_factory=list)
    drifts: List[MetricDrift] = field(default_factory=list)
    retention_drifts: List[RetentionDrift] = field(default_factory=list)
    quantile_drifts: List[QuantileDrift] = field(default_factory=list)
    resource_drifts: List[ResourceDrift] = field(default_factory=list)

    @property
    def regressions(self) -> List[SpanDelta]:
        return [d for d in self.spans if d.status == STATUS_SLOWER]

    @property
    def improvements(self) -> List[SpanDelta]:
        return [d for d in self.spans if d.status == STATUS_FASTER]

    @property
    def data_drifts(self) -> List[Any]:
        """Every data-quality drift (funnel retention + quantiles)."""
        return list(self.retention_drifts) + list(self.quantile_drifts)

    @property
    def data_verdict(self) -> str:
        """The data gate alone: ``"ok"`` or ``"data-drift"``."""
        return "data-drift" if self.data_drifts else "ok"

    @property
    def resource_verdict(self) -> str:
        """The resource gate alone: ``"ok"`` or ``"resource-drift"``."""
        return "resource-drift" if self.resource_drifts else "ok"

    @property
    def verdict(self) -> str:
        """Slower spans, data drift and resource drift fail; counter
        and gauge drift is reported only."""
        if self.regressions or self.data_drifts or self.resource_drifts:
            return "regression"
        return "ok"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": DIFF_SCHEMA,
            "verdict": self.verdict,
            "data_verdict": self.data_verdict,
            "resource_verdict": self.resource_verdict,
            "thresholds": {
                "max_ratio": self.thresholds.max_ratio,
                "noise_floor_s": self.thresholds.noise_floor_s,
                "counter_rel_tol": COUNTER_REL_TOL,
                "gauge_rel_tol": GAUGE_REL_TOL,
                "fail_on_drift": False,
                "retention_abs_tol": RETENTION_ABS_TOL,
                "quantile_rel_tol": QUANTILE_REL_TOL,
                "fail_on_data_drift": True,
                "max_rss_ratio": MAX_RSS_RATIO,
                "cpu_util_abs_tol": self.thresholds.cpu_util_abs_tol,
                "fail_on_resource_drift": True,
            },
            "regressions": [d.path for d in self.regressions],
            "spans": [d.to_dict() for d in self.spans],
            "drifts": [d.to_dict() for d in self.drifts],
            "retention_drifts": [
                d.to_dict() for d in self.retention_drifts
            ],
            "quantile_drifts": [d.to_dict() for d in self.quantile_drifts],
            "resource_drifts": [d.to_dict() for d in self.resource_drifts],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render_text(self) -> str:
        """Human summary leading with the verdict and any regressions."""
        lines: List[str] = []
        judged = [
            d for d in self.spans
            if d.status in (STATUS_OK, STATUS_SLOWER, STATUS_FASTER)
        ]
        lines.append(
            f"verdict: {self.verdict}  "
            f"({len(judged)} spans judged, "
            f"{len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s), "
            f"max_ratio={self.thresholds.max_ratio:g}, "
            f"noise_floor={self.thresholds.noise_floor_s * 1000:g}ms)"
        )
        if self.regressions:
            lines.append("")
            lines.append("regressed spans (new/old wall time over threshold):")
            for delta in self.regressions:
                lines.append("  " + _span_line(delta))
        if self.improvements:
            lines.append("")
            lines.append("improved spans:")
            for delta in self.improvements:
                lines.append("  " + _span_line(delta))
        structural = [
            d for d in self.spans
            if d.status in (STATUS_ADDED, STATUS_REMOVED)
        ]
        if structural:
            lines.append("")
            lines.append("structural changes:")
            for delta in structural:
                lines.append(f"  {delta.status:<8} {delta.path}")
        if self.retention_drifts:
            lines.append("")
            lines.append(
                "funnel retention drift (|delta| over "
                f"{RETENTION_ABS_TOL:g}):"
            )
            for rd in self.retention_drifts:
                delta = rd.delta
                delta_text = f"{delta:+.1%}" if delta is not None else "n/a"
                lines.append(
                    f"  {rd.stage:<36} {rd.unit:<7} "
                    f"{_fmt_pct(rd.old_retention):>8} -> "
                    f"{_fmt_pct(rd.new_retention):>8} ({delta_text})"
                )
        if self.quantile_drifts:
            lines.append("")
            lines.append(
                "distribution quantile drift (relative change over "
                f"{QUANTILE_REL_TOL:g}):"
            )
            for qd in self.quantile_drifts:
                rel = qd.rel_change
                rel_text = f"{rel:+.1%}" if rel is not None else "n/a"
                lines.append(
                    f"  {qd.name + '.' + qd.quantile:<44} "
                    f"{_fmt(qd.old):>12} -> {_fmt(qd.new):>12} "
                    f"({rel_text})"
                )
        if self.resource_drifts:
            lines.append("")
            lines.append(
                "resource drift (rss over "
                f"{MAX_RSS_RATIO:g}x or |cpu_util| over "
                f"{self.thresholds.cpu_util_abs_tol:g}):"
            )
            for rd in self.resource_drifts:
                if rd.metric == "rss_peak_kib":
                    ratio = rd.ratio
                    change = f"{ratio:.2f}x" if ratio is not None else "n/a"
                else:
                    delta = rd.delta
                    change = f"{delta:+.2f}" if delta is not None else "n/a"
                lines.append(
                    f"  {rd.scope:<36} {rd.metric:<14} "
                    f"{_fmt(rd.old):>12} -> {_fmt(rd.new):>12} ({change})"
                )
        if self.drifts:
            lines.append("")
            lines.append("metric drift:")
            for drift in self.drifts:
                rel = drift.rel_change
                rel_text = f"{rel:+.1%}" if rel is not None else "n/a"
                lines.append(
                    f"  {drift.kind:<8} {drift.name:<44} "
                    f"{_fmt(drift.old):>12} -> {_fmt(drift.new):>12} "
                    f"({rel_text})"
                )
        if len(lines) == 1:
            lines.append("no spans over the noise floor changed; "
                         "no metric, data or resource drift")
        return "\n".join(lines)


def _span_line(delta: SpanDelta) -> str:
    ratio = delta.ratio
    ratio_text = f"{ratio:.2f}x" if ratio is not None else "n/a"
    return (
        f"{delta.path:<44} "
        f"{_fmt_s(delta.old_total_s):>10} -> {_fmt_s(delta.new_total_s):>10} "
        f"({ratio_text})"
    )


def _fmt_s(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.3f}s"
    return f"{value * 1000.0:.2f}ms"


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if float(value).is_integer():
        return f"{int(value):d}"
    return f"{value:.4g}"


def _fmt_pct(value: Optional[float]) -> str:
    return f"{value:.1%}" if value is not None else "-"


def _flatten(report: RunReport) -> Dict[str, Tuple[float, int]]:
    """``path -> (total_s, count)`` for every span in the report."""
    flat: Dict[str, Tuple[float, int]] = {}
    for path, node in _walk_span_dicts(report.spans):
        key = " > ".join(path)
        total, count = flat.get(key, (0.0, 0))
        flat[key] = (
            total + float(node.get("total_s", 0.0)),
            count + int(node.get("count", 0)),
        )
    return flat


def diff_reports(
    old: RunReport,
    new: RunReport,
    thresholds: Optional[DiffThresholds] = None,
) -> ReportDiff:
    """Compare ``new`` against the ``old`` baseline."""
    limits = thresholds if thresholds is not None else DiffThresholds()
    old_spans = _flatten(old)
    new_spans = _flatten(new)
    deltas: List[SpanDelta] = []
    for path in sorted(set(old_spans) | set(new_spans)):
        old_entry = old_spans.get(path)
        new_entry = new_spans.get(path)
        if old_entry is None:
            assert new_entry is not None
            deltas.append(
                SpanDelta(path, None, new_entry[0], 0, new_entry[1],
                          STATUS_ADDED)
            )
            continue
        if new_entry is None:
            deltas.append(
                SpanDelta(path, old_entry[0], None, old_entry[1], 0,
                          STATUS_REMOVED)
            )
            continue
        old_total, old_count = old_entry
        new_total, new_count = new_entry
        if max(old_total, new_total) < limits.noise_floor_s:
            status = STATUS_NOISE
        elif old_total <= 0.0:
            # Baseline recorded zero time but the span now clears the
            # floor: an unbounded slowdown, judged slower.
            status = STATUS_SLOWER
        elif new_total / old_total > limits.max_ratio:
            status = STATUS_SLOWER
        elif old_total / max(new_total, 1e-12) > limits.max_ratio:
            status = STATUS_FASTER
        else:
            status = STATUS_OK
        deltas.append(
            SpanDelta(path, old_total, new_total, old_count, new_count,
                      status)
        )
    drifts = _metric_drift("counter", old.counters, new.counters,
                           COUNTER_REL_TOL)
    drifts += _metric_drift("gauge", old.gauges, new.gauges, GAUGE_REL_TOL)
    return ReportDiff(
        thresholds=limits,
        spans=deltas,
        drifts=drifts,
        retention_drifts=_retention_drift(old, new),
        quantile_drifts=_quantile_drift(old, new),
        resource_drifts=_resource_drift(old, new, limits),
    )


def _resource_drift(
    old: RunReport,
    new: RunReport,
    limits: DiffThresholds,
) -> List[ResourceDrift]:
    """Peak-RSS and cpu_util comparison of two resource profiles.

    Judged only when *both* reports carry a profile (an unprofiled
    baseline stays comparable), on the totals and on every stage name
    present in both — a stage appearing or vanishing is already visible
    as span structure change, not a resource regression.
    """
    old_profile = old.resource_profile or {}
    new_profile = new.resource_profile or {}
    if not old_profile or not new_profile:
        return []
    drifts: List[ResourceDrift] = []

    def judge(scope: str, old_roll: Dict[str, Any],
              new_roll: Dict[str, Any]) -> None:
        old_rss = old_roll.get("rss_peak_kib")
        new_rss = new_roll.get("rss_peak_kib")
        if (
            isinstance(old_rss, (int, float))
            and isinstance(new_rss, (int, float))
            and old_rss > 0
            and new_rss / old_rss > MAX_RSS_RATIO
        ):
            drifts.append(
                ResourceDrift("rss_peak_kib", scope,
                              float(old_rss), float(new_rss))
            )
        old_util = old_roll.get("cpu_util")
        new_util = new_roll.get("cpu_util")
        if (
            isinstance(old_util, (int, float))
            and isinstance(new_util, (int, float))
            and abs(new_util - old_util) > limits.cpu_util_abs_tol
        ):
            drifts.append(
                ResourceDrift("cpu_util", scope,
                              float(old_util), float(new_util))
            )

    judge("totals", old_profile.get("totals") or {},
          new_profile.get("totals") or {})
    old_stages = old_profile.get("stages") or {}
    new_stages = new_profile.get("stages") or {}
    for name in sorted(set(old_stages) & set(new_stages)):
        old_roll = old_stages[name]
        new_roll = new_stages[name]
        if isinstance(old_roll, dict) and isinstance(new_roll, dict):
            judge(name, old_roll, new_roll)
    return drifts


def _retention_drift(old: RunReport, new: RunReport) -> List[RetentionDrift]:
    """Per-stage funnel retention comparison (absolute tolerance).

    A stage present in only one report is reported (its missing side is
    ``None``) so the funnel's shape change is visible, and it drifts:
    a stage appearing or vanishing is a dataset change.
    """
    old_stages = {s["stage"]: s for s in old.funnel()}
    new_stages = {s["stage"]: s for s in new.funnel()}
    if not old_stages and not new_stages:
        return []
    drifts: List[RetentionDrift] = []
    for name in sorted(set(old_stages) | set(new_stages)):
        old_stage = old_stages.get(name)
        new_stage = new_stages.get(name)
        unit = str((new_stage or old_stage or {}).get("unit", ""))
        old_ret = (
            float(old_stage["retention"]) if old_stage is not None else None
        )
        new_ret = (
            float(new_stage["retention"]) if new_stage is not None else None
        )
        old_out = (
            int(old_stage["records_out"]) if old_stage is not None else None
        )
        new_out = (
            int(new_stage["records_out"]) if new_stage is not None else None
        )
        if old_ret is not None and new_ret is not None:
            if abs(new_ret - old_ret) <= RETENTION_ABS_TOL:
                continue
        drifts.append(
            RetentionDrift(name, unit, old_ret, new_ret, old_out, new_out)
        )
    return drifts


def _quantile_drift(old: RunReport, new: RunReport) -> List[QuantileDrift]:
    """Headline-quantile comparison of every distribution digest.

    Like :func:`_metric_drift`, a quantile moving off an exact zero is
    reported (relative change is undefined there), and a distribution
    present in only one report surfaces through its quantiles with the
    missing side ``None``.
    """
    old_digests = old.quality_digests()
    new_digests = new.quality_digests()
    drifts: List[QuantileDrift] = []
    for name in sorted(set(old_digests) | set(new_digests)):
        old_q = dict(old_digests.get(name, {}).get("quantiles", {}))
        new_q = dict(new_digests.get(name, {}).get("quantiles", {}))
        for label in sorted(set(old_q) | set(new_q)):
            old_value = old_q.get(label)
            new_value = new_q.get(label)
            if old_value is None or new_value is None:
                drifts.append(QuantileDrift(name, label, old_value, new_value))
                continue
            if old_value == new_value:
                continue
            if old_value == 0:
                drifts.append(QuantileDrift(name, label, old_value, new_value))
                continue
            rel = abs(new_value - old_value) / abs(old_value)
            if rel > QUANTILE_REL_TOL:
                drifts.append(QuantileDrift(name, label, old_value, new_value))
    return drifts


def _metric_drift(
    kind: str,
    old: Dict[str, float],
    new: Dict[str, float],
    rel_tol: float,
) -> List[MetricDrift]:
    drifts: List[MetricDrift] = []
    for name in sorted(set(old) | set(new)):
        old_value = old.get(name)
        new_value = new.get(name)
        if old_value is None or new_value is None:
            drifts.append(MetricDrift(kind, name, old_value, new_value))
            continue
        if old_value == new_value:
            continue
        if old_value == 0:
            drifts.append(MetricDrift(kind, name, old_value, new_value))
            continue
        if abs(new_value - old_value) / abs(old_value) > rel_tol:
            drifts.append(MetricDrift(kind, name, old_value, new_value))
    return drifts
