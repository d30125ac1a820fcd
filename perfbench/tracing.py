"""Layer spans for the benchmark's traced run.

The traced run wraps the public functions of each layer of ``repro``
(see :data:`TARGETS`) and records one :class:`Span` per call: layer,
function, start, end, parent span and an id shared by every span of one
repetition, or of one (AS, bandwidth) footprint.  Wrappers replace
*every* module binding of a function, so ``from x import f`` call sites
are covered as well as ``x.f``; methods are wrapped on their class.
:meth:`Tracer.installed` puts the wrappers in place for one block and
restores every binding afterwards.  Nothing under ``src/`` is edited,
and ``repro.obs`` telemetry is never switched on.

Spans live in memory; :func:`layer_table` folds them into per-layer
``calls`` / ``busy_s`` / ``self_s``, where self time is a span's
duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One timed call into a layer."""

    layer: str
    func: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the tracer, -1 at the root
    rid: str
    cells: int = 0  # grid cells a core.* call worked on (0 elsewhere)

    @property
    def duration(self) -> float:
        return self.end - self.start


Observer = Callable[["Tracer", Optional[Span], tuple, dict, object], None]


@dataclass(frozen=True)
class Target:
    """One public function (``qualname`` ``f`` or ``Class.f``) to trace.

    ``layer`` ``None`` makes a probe: the call only feeds ``observe``
    and opens no span.  ``rid`` derives a span id from the arguments;
    the span's children inherit it.
    """

    layer: Optional[str]
    module: str
    qualname: str
    observe: Optional[Observer] = None
    rid: Optional[Callable[[tuple], str]] = None


class Tracer:
    """In-memory span and count recorder for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.rid = "rep0"
        self._open: List[int] = []

    def call(self, target: Target, fn: Callable, args: tuple, kwargs: dict):
        """Run ``fn`` inside a span of ``target.layer``."""
        if target.layer is None:
            result = fn(*args, **kwargs)
            target.observe(self, None, args, kwargs, result)
            return result
        parent = self._open[-1] if self._open else -1
        if target.rid is not None:
            rid = f"{self.rid}/{target.rid(args)}"
        else:
            rid = self.spans[parent].rid if parent >= 0 else self.rid
        span = Span(target.layer, target.qualname, 0.0, 0.0, parent, rid)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._open.pop()
        if target.observe is not None:
            target.observe(self, span, args, kwargs, result)
        return result

    def timed_iter(self, layer: str, func: str, items: Iterable) -> Iterator:
        """Yield from ``items``, timing each ``next()`` as a span."""
        iterator = iter(items)
        target = Target(layer, "", func)
        while True:
            try:
                item = self.call(target, next, (iterator,), {})
            except StopIteration:
                return
            yield item

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every binding of :data:`TARGETS` for the block, then
        restore them."""
        patches = install(self, TARGETS)
        try:
            yield self
        finally:
            uninstall(patches)


Patch = Tuple[object, str, object]  # (namespace, attribute, original)


def _resolve(target: Target) -> Tuple[object, str, object]:
    """(owner, attribute, original function) of a target."""
    owner = importlib.import_module(target.module)
    *path, name = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


def install(tracer: Tracer, targets: Iterable[Target]) -> List[Patch]:
    """Replace each target at every binding; return what to restore.

    A method is replaced on its class.  A function is replaced in every
    loaded ``repro`` module that binds the same object, which covers
    re-exports and ``from x import f`` imports.
    """
    patches: List[Patch] = []
    functions: Dict[int, Tuple[object, Target]] = {}
    for target in targets:
        owner, name, original = _resolve(target)
        if isinstance(owner, type):
            patches.append((owner, name, original))
            setattr(owner, name, _wrapper(tracer, target, original))
        else:
            functions[id(original)] = (original, target)
    for module in [m for n, m in sys.modules.items() if _is_repro(n, m)]:
        for name, value in list(vars(module).items()):
            entry = functions.get(id(value))
            if entry is not None and entry[0] is value:
                patches.append((module, name, value))
                setattr(module, name, _wrapper(tracer, entry[1], value))
    return patches


def uninstall(patches: List[Patch]) -> None:
    """Put back every binding :func:`install` replaced."""
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)


def _is_repro(name: str, module: object) -> bool:
    return module is not None and (name == "repro" or name.startswith("repro."))


def _wrapper(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(target, fn, args, kwargs)

    return traced


def layer_table(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per-layer ``calls``, ``busy_s`` and ``self_s`` of a span list.

    ``calls`` and ``busy_s`` count a layer's outermost spans only, so a
    re-entrant call (a layer function calling another of the same
    layer) is neither counted nor timed twice.  ``self_s`` is each
    span's duration minus its direct children's, summed over the layer.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    table: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        row = table.setdefault(span.layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["self_s"] += span.duration - child_time[index]
        if not _inside_layer(spans, span):
            row["calls"] += 1
            row["busy_s"] += span.duration
    return table


def _inside_layer(spans: List[Span], span: Span) -> bool:
    """Whether an ancestor of ``span`` belongs to the same layer."""
    parent = span.parent
    while parent >= 0:
        if spans[parent].layer == span.layer:
            return True
        parent = spans[parent].parent
    return False


def root_time(spans: List[Span]) -> float:
    """Total duration of the spans no other span encloses."""
    return sum(span.duration for span in spans if span.parent < 0)


# -- what the traced run wraps ------------------------------------------


def _count_len(name: str) -> Observer:
    def observe(tracer, span, args, kwargs, result):
        tracer.counts[name] += len(result)

    return observe


def _survival(tracer, span, args, kwargs, result):
    tracer.counts["pipeline.peers_in"] += result.stats.crawled_peers
    tracer.counts["pipeline.peers_out"] += result.stats.target_peers


def _lookups(tracer, span, args, kwargs, result):
    tracer.counts["net.lpm.lookups"] += int(result.size)


def _kde_cells(tracer, span, args, kwargs, result):
    span.cells = int(result.values.size)
    tracer.counts["core.kde.cells"] += span.cells


def _grid_cells(tracer, span, args, kwargs, result):
    span.cells = int(args[0].values.size)


def _peaks_found(tracer, span, args, kwargs, result):
    _grid_cells(tracer, span, args, kwargs, result)
    tracer.counts["core.peaks.found"] += len(result)


def _peaks_selected(tracer, span, args, kwargs, result):
    # GeoFootprint.peaks_above(self, alpha): the alpha * Dmax selection.
    tracer.counts["core.peaks.selected"] += len(result)
    tracer.counts["core.peaks.considered"] += len(args[0].peaks)


def _footprint_id(args: tuple) -> str:
    # Scenario.geo_footprint(self, asn, bandwidth_km, ...)
    return f"AS{args[1]}@{args[2]:g}km"


_PIPELINE = "repro.pipeline"

#: Every traced function, by layer.  The experiment entry points form
#: the ``experiments`` layer, whose self time is their own code.
TARGETS: Tuple[Target, ...] = (
    Target("experiments", "repro.experiments.scenario", "build_scenario"),
    Target("experiments", "repro.experiments.scenario", "Scenario.geo_footprint",
           rid=_footprint_id),
    Target("experiments", "repro.experiments.table1", "run_table1"),
    Target("experiments", "repro.experiments.figure2", "run_figure2"),
    Target("experiments", "repro.experiments.section5", "run_section5"),
    Target("geo", "repro.geo.world", "generate_world"),
    Target("geo", "repro.geo.gazetteer", "Gazetteer.__init__"),
    Target("net.ecosystem", "repro.net.ecosystem", "generate_ecosystem"),
    Target("crawl.population", "repro.crawl.population", "generate_population"),
    Target("crawl.run", "repro.crawl.crawler", "run_crawl",
           observe=_count_len("crawl.run.peers")),
    Target("geodb", "repro.geodb.synth", "build_database",
           observe=_count_len("geodb.blocks")),
    Target("pipeline", f"{_PIPELINE}.dataset", "build_target_dataset",
           observe=_survival),
    Target("pipeline", f"{_PIPELINE}.stream", "stream_summary", observe=_survival),
    Target("pipeline.map", f"{_PIPELINE}.mapping", "map_peers"),
    Target("pipeline.map", f"{_PIPELINE}.batch", "map_batch"),
    Target("pipeline.filter", f"{_PIPELINE}.filtering", "filter_geo_error"),
    Target("pipeline.filter", f"{_PIPELINE}.batch", "filter_geo_error_batch"),
    Target("pipeline.filter", f"{_PIPELINE}.filtering", "filter_min_peers"),
    Target("pipeline.filter", f"{_PIPELINE}.filtering", "filter_error_percentile"),
    Target("pipeline.filter", f"{_PIPELINE}.filtering",
           "filter_error_percentile_digests"),
    Target("pipeline.filter", f"{_PIPELINE}.filtering", "digest_error_percentile"),
    Target("pipeline.group", f"{_PIPELINE}.grouping", "group_by_as"),
    Target("pipeline.group", f"{_PIPELINE}.grouping", "partition_groups"),
    Target("pipeline.group", f"{_PIPELINE}.batch", "assign_asn_batch"),
    Target("pipeline.group", f"{_PIPELINE}.batch", "group_slices"),
    Target("pipeline.classify", f"{_PIPELINE}.dataset", "classify_groups"),
    Target("pipeline.classify", f"{_PIPELINE}.classify", "classify_group"),
    Target("pipeline.classify", f"{_PIPELINE}.classify", "classify_from_counts"),
    Target("pipeline.aggregate", f"{_PIPELINE}.stream", "ASAggregate.absorb"),
    Target("pipeline.aggregate", f"{_PIPELINE}.profile", "profile_dataset"),
    Target("net.lpm.lookup", "repro.net.lpm", "FlatLPMIndex.lookup_many",
           observe=_lookups),
    Target("core.footprint", "repro.core.footprint", "estimate_geo_footprint"),
    Target("core.kde", "repro.core.kde", "compute_kde", observe=_kde_cells),
    Target("core.contours", "repro.core.contours", "footprint_contour",
           observe=_grid_cells),
    Target("core.contours", "repro.core.contours", "extract_contour"),
    Target("core.peaks", "repro.core.peaks", "find_peaks", observe=_peaks_found),
    Target(None, "repro.core.footprint", "GeoFootprint.peaks_above",
           observe=_peaks_selected),
    Target("validation", "repro.validation.reference", "select_reference_ases"),
    Target("validation", "repro.validation.reference", "build_reference_dataset"),
    Target("validation", "repro.validation.matching", "match_pop_sets"),
    Target("validation", "repro.validation.dimes", "run_dimes_campaign"),
    Target("validation", "repro.validation.dimes", "compare_with_dimes"),
)

#: Every layer the traced run reports, including the benchmark-side
#: ``crawl.chunks`` (time inside the ``stream`` chunk generator).
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys([t.layer for t in TARGETS if t.layer] + ["crawl.chunks"])
)
