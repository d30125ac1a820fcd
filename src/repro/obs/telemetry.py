"""Zero-dependency instrumentation core.

The pipeline's stages report *what they did* (counters, gauges) and
*how long it took* (hierarchical timing spans) to a process-wide
:class:`Telemetry` registry.  Telemetry is **off by default**: the
active registry is a :class:`NullTelemetry` whose operations are no-ops
returning shared singletons, so instrumented call-sites pay roughly one
attribute lookup when nothing is listening and experiment output is
byte-identical either way.

Spans aggregate structurally: entering ``span("kde.evaluate")`` five
hundred times under the same parent produces **one** tree node with
``count == 500`` and accumulated ``total_s`` — the report stays compact
no matter how many ASes the pipeline processes.

Typical usage::

    from repro.obs import telemetry as obs

    with obs.span("kde.evaluate"):
        ...                       # timed when telemetry is enabled
    obs.count("pipeline.peers_mapped", mapped)

    with obs.capture() as telemetry:   # enable for a block of work
        run_pipeline()
    print(telemetry.snapshot())
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from . import events as _events
from .lineage import FunnelStage, ReasonLike
from .prof import merge_flame
from .quality import QuantileDigest
from .resources import fold_resources


class SpanNode:
    """One aggregated node of the span tree.

    A node represents *all* spans with the same name entered under the
    same parent: ``count`` entries totalling ``total_s`` seconds, with
    ``min_s``/``max_s`` the extreme single durations.
    """

    __slots__ = ("name", "count", "total_s", "min_s", "max_s", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.min_s = math.inf
        self.max_s = 0.0
        self.children: Dict[str, "SpanNode"] = {}

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = SpanNode(name)
            self.children[name] = node
        return node

    def record(self, elapsed_s: float) -> None:
        if elapsed_s < 0.0:
            elapsed_s = 0.0  # clock skew guard; keeps totals monotone
        self.count += 1
        self.total_s += elapsed_s
        self.min_s = min(self.min_s, elapsed_s)
        self.max_s = max(self.max_s, elapsed_s)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (recursive)."""
        data: Dict[str, Any] = {
            "name": self.name,
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }
        if self.children:
            data["children"] = [
                child.to_dict() for child in self.children.values()
            ]
        return data

    def walk(
        self, path: Tuple[str, ...] = ()
    ) -> Iterator[Tuple[Tuple[str, ...], "SpanNode"]]:
        """Depth-first (path, node) pairs, excluding the anonymous root."""
        here = path + (self.name,) if self.name else path
        if self.name:
            yield here, self
        for child in self.children.values():
            yield from child.walk(here)


class Telemetry:
    """A live instrumentation registry.

    ``clock`` is injectable for deterministic tests; it must be a
    monotonically non-decreasing ``() -> float`` in seconds.

    **Concurrency contract.**  A registry instance is single-threaded:
    one process, one span stack.  Parallel work (the ``repro.exec``
    engine's worker processes) does not share a registry — each worker
    captures into its *own* fresh registry, snapshots it, and ships the
    snapshot back; the parent then folds every child snapshot into its
    live registry with :meth:`merge_snapshot`.  Merged spans land under
    the span open at merge time, counters add, and gauges keep their
    maximum (the only order-independent reduction for level-style
    gauges such as memory peaks) — so a parallel run's report has the
    same shape as a serial run's, regardless of worker scheduling.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.root = SpanNode("")
        self._stack: List[SpanNode] = [self.root]
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.funnel: Dict[str, FunnelStage] = {}  # insertion = run order
        self.quality: Dict[str, QuantileDigest] = {}
        #: ``repro.resource-profile/v1`` document folded in by a
        #: :class:`repro.obs.sampler.Sampler` on stop or by
        #: :meth:`merge_snapshot` (None when the run was not profiled).
        self.resource_profile: Optional[Dict[str, Any]] = None
        #: ``repro.flame/v1`` document folded in the same two ways (None
        #: when the run's stacks were not sampled).
        self.flame_profile: Optional[Dict[str, Any]] = None

    @property
    def current_span_name(self) -> str:
        """Name of the innermost open span ("" at top level).

        Read by the sampler thread to label readings; a bare list-tail
        read, safe under the GIL.
        """
        return self._stack[-1].name

    @contextmanager
    def span(self, name: str) -> Iterator[SpanNode]:
        """Time a block as a child of the currently-open span."""
        node = self._stack[-1].child(name)
        self._stack.append(node)
        start = self._clock()
        try:
            yield node
        finally:
            node.record(self._clock() - start)
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the named counter (creates it at zero)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to ``value`` (last write wins)."""
        self.gauges[name] = float(value)

    def funnel_record(
        self,
        name: str,
        *,
        unit: str,
        records_in: int,
        records_out: int,
        drops: Optional[Mapping[ReasonLike, int]] = None,
    ) -> None:
        """Accumulate one funnel-stage observation (lineage layer).

        Stages aggregate by name like spans do; each call must balance
        (``in == out + sum(drops)``) or it raises immediately — see
        :mod:`repro.obs.lineage`.
        """
        stage = self.funnel.get(name)
        if stage is None:
            stage = FunnelStage(name=name, unit=unit)
            self.funnel[name] = stage
        stage.record(records_in, records_out, drops)

    def quality_observe(self, name: str, values: Iterable[float]) -> None:
        """Stream values into the named data-quality quantile digest."""
        digest = self.quality.get(name)
        if digest is None:
            digest = QuantileDigest()
            self.quality[name] = digest
        digest.observe_many(values)

    def quality_observe_array(self, name: str, values: Any) -> None:
        """Vectorised :meth:`quality_observe` for whole numpy arrays."""
        digest = self.quality.get(name)
        if digest is None:
            digest = QuantileDigest()
            self.quality[name] = digest
        digest.observe_array(values)

    def top_spans(self, n: int = 10) -> List[Tuple[str, SpanNode]]:
        """The ``n`` span nodes with the largest total time, descending.

        Paths are dotted-joined with ``" > "`` so the same leaf name
        under different parents stays distinguishable.
        """
        nodes = [(" > ".join(path), node) for path, node in self.root.walk()]
        nodes.sort(key=lambda item: (-item[1].total_s, item[0]))
        return nodes[:n]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dump of spans, counters, gauges, funnel, quality
        and, when present, the two profiles.

        Funnel stages are conservation-checked here (``to_dict``
        raises on imbalance).
        """
        snapshot: Dict[str, Any] = {
            "spans": [child.to_dict() for child in self.root.children.values()],
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "funnel": [stage.to_dict() for stage in self.funnel.values()],
            "quality": {
                name: digest.to_dict()
                for name, digest in self.quality.items()
            },
        }
        if self.resource_profile is not None:
            snapshot["resource_profile"] = self.resource_profile
        if self.flame_profile is not None:
            snapshot["flame_profile"] = self.flame_profile
        return snapshot

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold a child registry's :meth:`snapshot` into this registry.

        The worker-merge half of the concurrency contract: ``spans``
        are grafted under the currently-open span (so worker time nests
        inside whatever stage dispatched the work) with counts/totals
        accumulated and min/max widened; ``counters`` add; ``gauges``
        keep the maximum of the existing and incoming values, which is
        the only commutative reduction that makes sense for level-style
        gauges (peaks, sizes) and keeps parallel reports independent of
        worker completion order.

        Each merged snapshot also piggybacks a ``heartbeat`` event on
        the live stream (:mod:`repro.obs.events`): a worker result
        arriving home *is* the liveness signal, so parallel runs get
        heartbeats for free without any cross-process channel.
        """
        _events.heartbeat(
            "exec.worker",
            spans=len(snapshot.get("spans", ())),
            counters=len(snapshot.get("counters", {})),
        )
        parent = self._stack[-1]
        for span_dict in snapshot.get("spans", ()):
            _merge_span_dict(parent, span_dict)
        for name, value in snapshot.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            existing = self.gauges.get(name)
            merged = value if existing is None else max(existing, value)
            self.gauges[name] = float(merged)
        for stage_dict in snapshot.get("funnel", ()):
            stage = self.funnel.get(str(stage_dict.get("stage", "")))
            if stage is None:
                stage = FunnelStage.from_dict(stage_dict)
                self.funnel[stage.name] = stage
            else:
                stage.merge(stage_dict)
        for name, digest_dict in snapshot.get("quality", {}).items():
            digest = self.quality.get(name)
            if digest is None:
                digest = QuantileDigest()
                self.quality[name] = digest
            digest.merge_dict(digest_dict)
        # Worker profiles go through the same fold as the host sampler's
        # stop: resource rollups land under ``workers`` (one entry per
        # worker process), flame tables add per (stage, stack) key.
        profile = snapshot.get("resource_profile")
        if isinstance(profile, dict) and profile:
            self.resource_profile = fold_resources(
                self.resource_profile, profile, worker=True
            )
        flame = snapshot.get("flame_profile")
        if isinstance(flame, dict) and flame:
            self.flame_profile = merge_flame(self.flame_profile, flame)


def _merge_span_dict(parent: SpanNode, data: Dict[str, Any]) -> None:
    """Recursively accumulate one serialised span node under ``parent``."""
    node = parent.child(str(data["name"]))
    count = int(data.get("count", 0))
    node.count += count
    node.total_s += float(data.get("total_s", 0.0))
    if count:
        node.min_s = min(node.min_s, float(data.get("min_s", 0.0)))
        node.max_s = max(node.max_s, float(data.get("max_s", 0.0)))
    for child in data.get("children", ()):
        _merge_span_dict(node, child)


class _NullSpan:
    """A reusable no-op context manager (one shared instance)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled registry: every operation is a cheap no-op."""

    enabled = False
    current_span_name = ""
    resource_profile = None
    flame_profile = None

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, value: float = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def funnel_record(self, name: str, **observation: Any) -> None:
        return None

    def quality_observe(self, name: str, values: Iterable[float]) -> None:
        return None

    def quality_observe_array(self, name: str, values: Any) -> None:
        return None

    def top_spans(self, n: int = 10) -> List[Tuple[str, SpanNode]]:
        return []

    def snapshot(self) -> Dict[str, Any]:
        return {
            "spans": [],
            "counters": {},
            "gauges": {},
            "funnel": [],
            "quality": {},
        }

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        return None


#: The process-wide null registry (also the default active one).
NULL = NullTelemetry()

_current: Any = NULL


def get_telemetry() -> Any:
    """The currently-active registry (:data:`NULL` when disabled)."""
    return _current


def set_telemetry(telemetry: Optional[Any]) -> Any:
    """Install ``telemetry`` process-wide; returns the previous registry.

    Passing ``None`` disables instrumentation (installs :data:`NULL`).
    """
    global _current
    previous = _current
    _current = telemetry if telemetry is not None else NULL
    return previous


@contextmanager
def capture(telemetry: Optional[Telemetry] = None) -> Iterator[Telemetry]:
    """Enable telemetry for a block, restoring the previous registry.

    ::

        with capture() as t:
            build_scenario(config)
        report = RunReport.from_telemetry(t)
    """
    active = telemetry if telemetry is not None else Telemetry()
    previous = set_telemetry(active)
    try:
        yield active
    finally:
        set_telemetry(previous)


def span(name: str):
    """Open a timing span on the active registry (no-op when disabled)."""
    return _current.span(name)


def count(name: str, value: float = 1) -> None:
    """Bump a counter on the active registry (no-op when disabled)."""
    _current.count(name, value)


def gauge(name: str, value: float) -> None:
    """Set a gauge on the active registry (no-op when disabled)."""
    _current.gauge(name, value)


def merge_snapshot(snapshot: Dict[str, Any]) -> None:
    """Fold a worker snapshot into the active registry (no-op when
    disabled) — see :meth:`Telemetry.merge_snapshot`."""
    _current.merge_snapshot(snapshot)
