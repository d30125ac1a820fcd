"""The live event stream (schema ``repro.events/v1``).

Every observability layer before this one is post-hoc: spans, funnels
and digests only materialise in a report after the run exits.  The
event stream is the *in-flight* layer — an append-only JSONL file (or
in-memory tail) of small, self-identifying events emitted while the
run is still going, so a paper-scale crawl or a long-lived serving
daemon is observable before it finishes.

Design points:

* **Append-only JSONL.**  One JSON object per line; a crashed run
  leaves a readable prefix, never a corrupt document.
* **Monotonic sequence numbers.**  Every event carries ``seq`` (dense,
  starting at 0) assigned at emit time by the single driver-side
  stream, so any gap or reordering in a stored stream is detectable —
  ``validate_events`` (and the ``stats events`` CLI) fails on it.
* **Injected clock.**  ``t_s`` is seconds since stream start from an
  injectable monotonic clock, so tests are deterministic and the
  stream never reads the wall clock outside ``repro.obs`` (REP103).
* **Closed event taxonomy.**  :data:`EVENT_TYPES` is the complete
  vocabulary; ``emit`` refuses unknown types so consumers can rely on
  the set.

Like telemetry, the stream is **off by default**: the module-level
helpers are no-ops (one global read and an ``is None`` test) until a
stream is installed with :func:`set_stream`/:func:`stream_events`, so
instrumented call-sites stay free in null mode.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

#: Schema identifier carried by every event line.
EVENTS_SCHEMA = "repro.events/v1"

#: The closed event vocabulary (alphabetical).  ``emit`` rejects
#: anything else, and ``validate_events`` flags unknown types in stored
#: streams.
EVENT_TYPES = (
    "heartbeat",
    "progress",
    "stage_end",
    "stage_start",
    "stall_warning",
)

#: Required fields (beyond the envelope) per event type, with the
#: accepted value types — the contract ``validate_events`` enforces.
_REQUIRED_FIELDS: Dict[str, Tuple[Tuple[str, tuple], ...]] = {
    "stage_start": (("stage", (str,)), ("total", (int,)), ("unit", (str,))),
    "stage_end": (("stage", (str,)), ("done", (int,))),
    "progress": (
        ("stage", (str,)),
        ("done", (int,)),
        ("total", (int,)),
        ("unit", (str,)),
    ),
    "heartbeat": (("source", (str,)),),
    "stall_warning": (
        ("source", (str,)),
        ("chunk", (int,)),
        ("duration_s", (int, float)),
        ("threshold_s", (int, float)),
    ),
}


class EventStream:
    """One live run's event writer.

    ``sink`` is an open text file (or any object with ``write``); pass
    ``None`` for an in-memory-only stream (the recorded ``events`` tail
    is kept either way, so the trace exporter can fold events in after
    the run).  ``clock`` must be monotonically non-decreasing; event
    timestamps are seconds since stream construction.  ``listeners``
    are called with every emitted event dict — the CLI's ``--progress``
    renderer hangs off this hook.
    """

    def __init__(
        self,
        sink: Optional[IO[str]] = None,
        *,
        clock: Callable[[], float] = time.perf_counter,
        listeners: Sequence[Callable[[Dict[str, Any]], None]] = (),
    ) -> None:
        self.clock = clock
        self._sink = sink
        self._listeners = list(listeners)
        self._t0 = clock()
        self._seq = 0
        #: Every emitted event, in order (the in-memory tail).
        self.events: List[Dict[str, Any]] = []

    @property
    def next_seq(self) -> int:
        """The sequence number the next emitted event will carry."""
        return self._seq

    def elapsed_s(self) -> float:
        """Seconds since the stream opened (clamped non-negative)."""
        return max(self.clock() - self._t0, 0.0)

    def emit(self, type_: str, **fields: Any) -> Dict[str, Any]:
        """Append one event; returns the emitted dict.

        The envelope (``schema``/``seq``/``t_s``/``type``) is owned by
        the stream; ``fields`` may not collide with it.  Unknown event
        types are a :class:`ValueError` — the taxonomy is closed.
        """
        if type_ not in EVENT_TYPES:
            raise ValueError(
                f"unknown event type {type_!r}; "
                f"expected one of {', '.join(EVENT_TYPES)}"
            )
        event: Dict[str, Any] = {
            "schema": EVENTS_SCHEMA,
            "seq": self._seq,
            "t_s": round(self.elapsed_s(), 6),
            "type": type_,
        }
        for key, value in fields.items():
            if key in event:
                raise ValueError(f"field {key!r} is owned by the envelope")
            event[key] = value
        self._seq += 1
        self.events.append(event)
        if self._sink is not None:
            self._sink.write(json.dumps(event, sort_keys=True) + "\n")
            flush = getattr(self._sink, "flush", None)
            if flush is not None:
                flush()
        for listener in self._listeners:
            listener(event)
        return event

    def heartbeat(self, source: str, **fields: Any) -> Dict[str, Any]:
        """Emit a liveness ``heartbeat`` attributed to ``source``."""
        return self.emit("heartbeat", source=source, **fields)


#: The active stream, or ``None`` (the default: everything is a no-op).
_STREAM: Optional[EventStream] = None


def get_stream() -> Optional[EventStream]:
    """The currently-installed event stream (``None`` when disabled)."""
    return _STREAM


def set_stream(stream: Optional[EventStream]) -> Optional[EventStream]:
    """Install ``stream`` process-wide; returns the previous stream."""
    global _STREAM
    previous = _STREAM
    _STREAM = stream
    return previous


def emit(type_: str, **fields: Any) -> None:
    """Emit on the active stream (no-op when no stream is installed)."""
    stream = _STREAM
    if stream is not None:
        stream.emit(type_, **fields)


def heartbeat(source: str, **fields: Any) -> None:
    """Heartbeat on the active stream (no-op when disabled)."""
    stream = _STREAM
    if stream is not None:
        stream.emit("heartbeat", source=source, **fields)


@contextmanager
def stream_events(
    path: Optional[Union[str, Path]] = None,
    *,
    clock: Callable[[], float] = time.perf_counter,
    listeners: Sequence[Callable[[Dict[str, Any]], None]] = (),
) -> Iterator[EventStream]:
    """Install a stream for a block, restoring the previous one after.

    ``path`` of ``None`` keeps the stream in-memory only (used by
    ``--progress`` without ``--obs-dir``).  The stream brackets the
    block with ``heartbeat`` events (``source="stream"``), so even a
    run that registers no stages proves its driver was alive.
    """
    sink: Optional[IO[str]] = None
    if path is not None:
        target = Path(path)
        if target.parent != Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        sink = target.open("w")
    stream = EventStream(sink, clock=clock, listeners=listeners)
    previous = set_stream(stream)
    stream.heartbeat("stream", phase="start")
    try:
        yield stream
    finally:
        stream.heartbeat("stream", phase="end")
        set_stream(previous)
        if sink is not None:
            sink.close()


# -- stored-stream reading and validation -----------------------------


def parse_events(text: str) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Parse a stored JSONL stream; returns (events, parse problems).

    A truncated final line (a crash mid-write) or any non-object line
    is reported as a problem rather than raised, so ``stats events``
    can name the damage and exit 1.
    """
    events: List[Dict[str, Any]] = []
    problems: List[str] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except ValueError:
            problems.append(f"line {number}: not valid JSON (truncated?)")
            continue
        if not isinstance(event, dict):
            problems.append(f"line {number}: not a JSON object")
            continue
        events.append(event)
    return events, problems


def validate_events(events: Sequence[Dict[str, Any]]) -> List[str]:
    """Schema violations in an event sequence ([] when valid).

    Checks the envelope of every event (schema match, dense ``seq``
    from 0, non-decreasing numeric ``t_s``, known ``type``) and the
    per-type required fields of :data:`_REQUIRED_FIELDS`.
    """
    problems: List[str] = []
    if not events:
        return ["stream is empty (no events)"]
    last_t = 0.0
    for index, event in enumerate(events):
        where = f"event[{index}]"
        if event.get("schema") != EVENTS_SCHEMA:
            problems.append(
                f"{where}: schema is {event.get('schema')!r}, "
                f"expected {EVENTS_SCHEMA!r}"
            )
        seq = event.get("seq")
        if not isinstance(seq, int):
            problems.append(f"{where}: seq missing or not an integer")
        elif seq != index:
            problems.append(
                f"{where}: sequence gap (seq={seq}, expected {index})"
            )
        t_s = event.get("t_s")
        if not isinstance(t_s, (int, float)) or t_s < 0:
            problems.append(f"{where}: t_s missing or negative")
        elif t_s < last_t:
            problems.append(
                f"{where}: t_s went backwards ({t_s} < {last_t})"
            )
        else:
            last_t = float(t_s)
        type_ = event.get("type")
        if type_ not in EVENT_TYPES:
            problems.append(f"{where}: unknown event type {type_!r}")
            continue
        for field, kinds in _REQUIRED_FIELDS.get(type_, ()):
            value = event.get(field)
            if not isinstance(value, kinds) or isinstance(value, bool):
                problems.append(
                    f"{where}: {type_} event needs "
                    f"{field} ({'/'.join(k.__name__ for k in kinds)})"
                )
    return problems


def load_events(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read a stored stream, raising on unreadable files.

    Parse- and schema-level damage is *not* raised here — run
    :func:`parse_events` + :func:`validate_events` for the verdict;
    this helper is for consumers that already trust the stream.
    """
    events, _ = parse_events(Path(path).read_text())
    return events


def summarize_events(events: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """A JSON-ready digest of a stream: counts, stages, stalls."""
    by_type: Dict[str, int] = {}
    stages: Dict[str, Dict[str, Any]] = {}
    stalls: List[Dict[str, Any]] = []
    for event in events:
        type_ = str(event.get("type"))
        by_type[type_] = by_type.get(type_, 0) + 1
        stage = event.get("stage")
        if type_ == "stage_start" and isinstance(stage, str):
            stages.setdefault(stage, {}).update(
                total=event.get("total"), unit=event.get("unit"),
                started_t_s=event.get("t_s"),
            )
        elif type_ == "progress" and isinstance(stage, str):
            entry = stages.setdefault(stage, {})
            entry["done"] = event.get("done")
            entry.setdefault("total", event.get("total"))
            entry.setdefault("unit", event.get("unit"))
        elif type_ == "stage_end" and isinstance(stage, str):
            entry = stages.setdefault(stage, {})
            entry["done"] = event.get("done")
            entry["ended_t_s"] = event.get("t_s")
        elif type_ == "stall_warning":
            stalls.append(dict(event))
    duration = float(events[-1].get("t_s", 0.0)) if events else 0.0
    return {
        "schema": EVENTS_SCHEMA,
        "events": len(events),
        "duration_s": duration,
        "by_type": by_type,
        "stages": stages,
        "stalls": stalls,
    }


def render_events(events: Sequence[Dict[str, Any]]) -> str:
    """Human summary of a stream (the ``stats events`` text output)."""
    summary = summarize_events(events)
    lines = [
        f"{summary['events']} event(s) over {summary['duration_s']:.3f}s"
    ]
    by_type = summary["by_type"]
    lines.append(
        "by type: "
        + "  ".join(f"{name}={by_type[name]}" for name in sorted(by_type))
    )
    stages = summary["stages"]
    if stages:
        lines.append("")
        lines.append(f"{'stage':<36}{'done':>10}{'total':>10}  unit")
        for name in stages:
            entry = stages[name]
            done = entry.get("done")
            total = entry.get("total")
            lines.append(
                f"{name:<36}"
                f"{done if done is not None else '?':>10}"
                f"{total if total is not None else '?':>10}"
                f"  {entry.get('unit') or ''}"
            )
    for stall in summary["stalls"]:
        lines.append(
            f"STALL: {stall.get('source')} chunk {stall.get('chunk')} took "
            f"{stall.get('duration_s'):.3f}s "
            f"(threshold {stall.get('threshold_s'):.3f}s)"
        )
    return "\n".join(lines)
