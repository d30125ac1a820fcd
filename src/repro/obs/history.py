"""Append-only run history: the repo's perf trajectory on disk.

A :class:`RunHistory` is a JSONL file where every line archives one
run — a :class:`~repro.obs.report.RunReport` or a benchmark timing
record — together with the metadata needed to compare runs over time
(git revision, preset, seed, timestamp).  Append-only by design: runs
are never rewritten, so the file is a longitudinal record future
optimisation PRs can mine, exactly the way a geolocation database only
becomes trustworthy once tracked across snapshots.

The store itself never reads the wall clock: callers pass timestamps
in (the :func:`utc_timestamp` helper lives here because ``repro.obs``
owns all clock reads, but using it is the caller's explicit choice).

::

    history = RunHistory("benchmarks/results/history.jsonl")
    history.append_report(report, name="table1",
                          git_rev="3e826e8", timestamp=utc_timestamp())
    latest = history.last("table1")
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, TypeVar, Union

from .report import RunReport

#: Schema identifier embedded in every history line.
HISTORY_SCHEMA = "repro.run-history/v1"

#: The two entry kinds the store understands.
KIND_REPORT = "report"
KIND_BENCHMARK = "benchmark"


T = TypeVar("T")


def recent(items: Sequence[T], last: int) -> Sequence[T]:
    """The ``last`` most recent ``items``, oldest first; none for 0."""
    return items[len(items) - last:] if last else items[:0]


def utc_timestamp() -> str:
    """The current UTC time as ``2026-08-05T21:52:11+00:00``.

    Lives in ``repro.obs`` because the side-car owns all clock reads;
    experiment code must receive timestamps, never take them.
    """
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass
class HistoryEntry:
    """One archived run: a payload plus comparison metadata."""

    kind: str  # KIND_REPORT or KIND_BENCHMARK
    name: str  # logical run name ("table1", "stats", ...)
    meta: Dict[str, Any] = field(default_factory=dict)
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": HISTORY_SCHEMA,
            "kind": self.kind,
            "name": self.name,
            "meta": self.meta,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HistoryEntry":
        if data.get("schema") != HISTORY_SCHEMA:
            raise ValueError(
                f"not a history entry (schema={data.get('schema')!r}, "
                f"expected {HISTORY_SCHEMA!r})"
            )
        return cls(
            kind=str(data.get("kind", "")),
            name=str(data.get("name", "")),
            meta=dict(data.get("meta", {})),
            payload=dict(data.get("payload", {})),
        )

    def report(self) -> RunReport:
        """The payload as a :class:`RunReport` (report entries only)."""
        return RunReport.from_dict(self.payload)

    def wall_time_s(self) -> Optional[float]:
        """Best-effort headline duration for summaries.

        Benchmark records carry ``wall_time_s`` directly; report
        entries fall back to the sum of their top-level span totals.
        """
        value = self.payload.get("wall_time_s")
        if value is not None:
            return float(value)
        spans = self.payload.get("spans")
        if spans:
            return float(sum(node.get("total_s", 0.0) for node in spans))
        return None


class RunHistory:
    """An append-only JSONL archive of runs.

    Unparseable lines are tolerated on read (counted, skipped): a
    half-written line from a crashed run must never brick the whole
    trajectory.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    # -- writing ------------------------------------------------------

    def append(
        self,
        kind: str,
        name: str,
        payload: Dict[str, Any],
        **meta: Any,
    ) -> HistoryEntry:
        """Append one entry; parent directories are created."""
        entry = HistoryEntry(
            kind=kind, name=name, meta=dict(meta), payload=payload
        )
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(entry.to_dict(), sort_keys=True)
        with self.path.open("a") as stream:
            stream.write(line + "\n")
        return entry

    def append_report(
        self, report: RunReport, name: str, **meta: Any
    ) -> HistoryEntry:
        """Archive a :class:`RunReport` under ``name``."""
        return self.append(KIND_REPORT, name, report.to_dict(), **meta)

    def append_benchmark(
        self, record: Dict[str, Any], **meta: Any
    ) -> HistoryEntry:
        """Archive one benchmark timing record (keyed by its name)."""
        return self.append(
            KIND_BENCHMARK, str(record.get("name", "")), dict(record), **meta
        )

    # -- reading ------------------------------------------------------

    def entries(
        self, kind: Optional[str] = None, name: Optional[str] = None
    ) -> List[HistoryEntry]:
        """All readable entries in file order, optionally filtered."""
        entries, _ = self._read()
        if kind is not None:
            entries = [e for e in entries if e.kind == kind]
        if name is not None:
            entries = [e for e in entries if e.name == name]
        return entries

    def last(
        self, name: str, kind: Optional[str] = None
    ) -> Optional[HistoryEntry]:
        """The most recent entry for ``name`` (or ``None``)."""
        matches = self.entries(kind=kind, name=name)
        return matches[-1] if matches else None

    def names(self) -> List[str]:
        """Distinct run names, sorted."""
        return sorted({entry.name for entry in self.entries()})

    def skipped_lines(self) -> int:
        """How many lines could not be parsed on the last full read."""
        _, skipped = self._read()
        return skipped

    def _read(self) -> "tuple[List[HistoryEntry], int]":
        if not self.path.exists():
            return [], 0
        entries: List[HistoryEntry] = []
        skipped = 0
        for raw in self.path.read_text().splitlines():
            raw = raw.strip()
            if not raw:
                continue
            try:
                entries.append(HistoryEntry.from_dict(json.loads(raw)))
            except (ValueError, TypeError):
                skipped += 1
        return entries, skipped

    # -- rendering ----------------------------------------------------

    def render_summary(
        self, last: int = 10, name: Optional[str] = None
    ) -> str:
        """Human table of the most recent ``last`` entries."""
        entries = self.entries(name=name)
        if not entries:
            return f"no history entries in {self.path}"
        shown = recent(entries, last)
        lines = [
            f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'} in "
            f"{self.path} ({len(self.names())} distinct runs), "
            f"showing last {len(shown)}:",
            "",
            f"{'kind':<10}{'name':<28}{'wall':>10}  "
            f"{'git rev':<10}{'timestamp':<26}",
        ]
        for entry in shown:
            wall = entry.wall_time_s()
            wall_text = f"{wall:.3f}s" if wall is not None else "-"
            lines.append(
                f"{entry.kind:<10}{entry.name:<28}{wall_text:>10}  "
                f"{str(entry.meta.get('git_rev', '-')):<10}"
                f"{str(entry.meta.get('timestamp', '-')):<26}"
            )
        return "\n".join(lines)
