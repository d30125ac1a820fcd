"""Machine-readable run reports.

A :class:`RunReport` freezes one pipeline run's telemetry — the span
tree, counters and gauges, plus free-form metadata about the run (the
command, preset, seed, package version) — into a stable JSON document
(schema :data:`SCHEMA`), and renders the same data as a human summary
table.  The CLI's ``--obs-dir`` bundle and the ``stats`` subcommand
are thin wrappers around this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple, Union

from .lineage import render_funnel
from .prof import FLAME_SCHEMA, render_flame
from .resources import RESOURCE_PROFILE_SCHEMA, render_profile
from .telemetry import Telemetry

#: Schema identifier embedded in every report.
SCHEMA = "repro.run-report/v1"

#: Schema identifier of the nested dataset-lineage/data-quality section.
DATA_QUALITY_SCHEMA = "repro.data-quality/v1"


def _walk_span_dicts(
    spans: List[Dict[str, Any]], path: Tuple[str, ...] = ()
) -> Iterator[Tuple[Tuple[str, ...], Dict[str, Any]]]:
    for node in spans:
        here = path + (node["name"],)
        yield here, node
        yield from _walk_span_dicts(node.get("children", []), here)


@dataclass
class RunReport:
    """One run's telemetry, serialisable to/from JSON."""

    meta: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    #: The ``repro.data-quality/v1`` section: dataset lineage (the
    #: funnel) and distribution digests.  Empty for pre-lineage reports.
    data_quality: Dict[str, Any] = field(default_factory=dict)
    #: The ``repro.resource-profile/v1`` section: sampled RSS/CPU/heap
    #: rows and per-stage rollups.  Empty for unprofiled runs.
    resource_profile: Dict[str, Any] = field(default_factory=dict)
    #: The ``repro.flame/v1`` section: the span-attributed collapsed
    #: stack table.  Empty when stacks were not sampled.
    flame_profile: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_telemetry(cls, telemetry: Telemetry, **meta: Any) -> "RunReport":
        """Freeze the registry's current state into a report."""
        snapshot = telemetry.snapshot()
        return cls(
            meta=dict(meta),
            spans=snapshot["spans"],
            counters=snapshot["counters"],
            gauges=snapshot["gauges"],
            data_quality={
                "schema": DATA_QUALITY_SCHEMA,
                "funnel": snapshot.get("funnel", []),
                "quality": snapshot.get("quality", {}),
            },
            resource_profile=dict(snapshot.get("resource_profile") or {}),
            flame_profile=dict(snapshot.get("flame_profile") or {}),
        )

    # -- data-quality accessors ---------------------------------------

    def funnel(self) -> List[Dict[str, Any]]:
        """The funnel stages in recording order (empty if absent)."""
        return list(self.data_quality.get("funnel", []))

    def quality_digests(self) -> Dict[str, Dict[str, Any]]:
        """The serialised quantile digests by distribution name."""
        return dict(self.data_quality.get("quality", {}))

    # -- serialisation ------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        document = {
            "schema": SCHEMA,
            "meta": self.meta,
            "spans": self.spans,
            "counters": self.counters,
            "gauges": self.gauges,
        }
        if self.data_quality:
            document["data_quality"] = self.data_quality
        if self.resource_profile:
            document["resource_profile"] = self.resource_profile
        if self.flame_profile:
            document["flame_profile"] = self.flame_profile
        return document

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunReport":
        if data.get("schema") != SCHEMA:
            raise ValueError(
                f"not a run report (schema={data.get('schema')!r}, "
                f"expected {SCHEMA!r})"
            )
        data_quality = dict(data.get("data_quality", {}))
        if (
            data_quality
            and data_quality.get("schema") != DATA_QUALITY_SCHEMA
        ):
            raise ValueError(
                "unknown data-quality section "
                f"(schema={data_quality.get('schema')!r}, expected "
                f"{DATA_QUALITY_SCHEMA!r})"
            )
        resource_profile = dict(data.get("resource_profile", {}))
        if (
            resource_profile
            and resource_profile.get("schema") != RESOURCE_PROFILE_SCHEMA
        ):
            raise ValueError(
                "unknown resource-profile section "
                f"(schema={resource_profile.get('schema')!r}, expected "
                f"{RESOURCE_PROFILE_SCHEMA!r})"
            )
        flame_profile = dict(data.get("flame_profile", {}))
        if (
            flame_profile
            and flame_profile.get("schema") != FLAME_SCHEMA
        ):
            raise ValueError(
                "unknown flame-profile section "
                f"(schema={flame_profile.get('schema')!r}, expected "
                f"{FLAME_SCHEMA!r})"
            )
        return cls(
            meta=dict(data.get("meta", {})),
            spans=list(data.get("spans", [])),
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
            data_quality=data_quality,
            resource_profile=resource_profile,
            flame_profile=flame_profile,
        )

    def write(self, path: Union[str, Path]) -> Path:
        """Serialise to ``path``; parent directories are created."""
        target = Path(path)
        if target.parent != Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n")
        return target

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunReport":
        return cls.from_dict(json.loads(Path(path).read_text()))

    # -- queries ------------------------------------------------------

    def span_paths(self) -> List[str]:
        """Every span's ``" > "``-joined path, depth-first."""
        return [" > ".join(p) for p, _ in _walk_span_dicts(self.spans)]

    def top_spans(self, n: int = 10) -> List[Tuple[str, Dict[str, Any]]]:
        """The ``n`` spans with the largest total time, descending."""
        nodes = [
            (" > ".join(path), node)
            for path, node in _walk_span_dicts(self.spans)
        ]
        nodes.sort(key=lambda item: (-item[1]["total_s"], item[0]))
        return nodes[:n]

    # -- rendering ----------------------------------------------------

    def render_summary(self, top: int = 10) -> str:
        """Human summary: metadata line, span tree, top list, metrics."""
        lines: List[str] = []
        if self.meta:
            lines.append(
                "run: "
                + "  ".join(f"{k}={v}" for k, v in sorted(self.meta.items()))
            )
        lines.append("")
        lines.append(f"{'span':<44}{'count':>7}{'total':>10}{'mean':>10}")
        if not self.spans:
            lines.append("  (no spans recorded)")
        for path, node in _walk_span_dicts(self.spans):
            label = "  " * (len(path) - 1) + path[-1]
            count = node["count"]
            mean = node["total_s"] / count if count else 0.0
            lines.append(
                f"{label:<44}{count:>7}"
                f"{_fmt_seconds(node['total_s']):>10}{_fmt_seconds(mean):>10}"
            )
        ranked = self.top_spans(top)
        if ranked:
            lines.append("")
            lines.append(f"top {len(ranked)} spans by total time:")
            for rank, (path, node) in enumerate(ranked, start=1):
                lines.append(
                    f"{rank:>3}. {_fmt_seconds(node['total_s']):>9}"
                    f"  ×{node['count']:<6} {path}"
                )
        if self.funnel():
            lines.append("")
            lines.append("data funnel:")
            lines.append(render_funnel(self.funnel(), indent="  "))
        digests = self.quality_digests()
        if digests:
            lines.append("")
            lines.append("distributions:")
            lines.append(
                f"  {'digest':<36}{'count':>9}{'p50':>12}{'p90':>12}"
                f"{'p99':>12}"
            )
            for name, digest in sorted(digests.items()):
                quantiles = digest.get("quantiles", {})
                lines.append(
                    f"  {name:<36}{_fmt_number(digest.get('count', 0)):>9}"
                    + "".join(
                        f"{_fmt_number(quantiles.get(label, 0.0)):>12}"
                        for label in ("p50", "p90", "p99")
                    )
                )
        if self.resource_profile:
            lines.append("")
            lines.append("resource profile:")
            lines.append(render_profile(self.resource_profile, indent="  "))
        if self.flame_profile:
            lines.append("")
            lines.append("flame profile:")
            lines.append(render_flame(self.flame_profile, top=5, indent="  "))
        if self.counters:
            lines.append("")
            lines.append("counters:")
            for name in sorted(self.counters):
                lines.append(f"  {name:<48}{_fmt_number(self.counters[name]):>12}")
        if self.gauges:
            lines.append("")
            lines.append("gauges:")
            for name in sorted(self.gauges):
                lines.append(f"  {name:<48}{_fmt_number(self.gauges[name]):>12}")
        return "\n".join(lines)


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f}s"
    return f"{value * 1000.0:.2f}ms"


def _fmt_number(value: float) -> str:
    if float(value).is_integer():
        return f"{int(value):d}"
    return f"{value:.4g}"
