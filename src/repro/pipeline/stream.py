"""Summary-mode conditioning: the pipeline in O(chunk + ASes) memory.

:func:`~repro.pipeline.dataset.build_target_dataset` (also exported
here as :func:`stream_target_dataset`) streams the per-peer stages in
chunks but keeps every surviving peer, which Sections 3-6 need.
:func:`stream_summary` keeps none: each AS holds a fixed-size
:class:`ASAggregate` (counts, coordinate sums, region counters, a
merged geo-error :class:`~repro.obs.quality.QuantileDigest` and three
scalar tallies of the errors split at the p90 gate's threshold), so
peak memory is O(chunk + ASes) no matter how many peers stream through.
The percentile gate decides exactly from the tallies
(:func:`~repro.pipeline.filtering.filter_error_percentile_digests`),
the digest only reports the percentile, and classification runs on the
merged region counts
(:func:`~repro.pipeline.classify.classify_from_counts`).

Summary mode records the same lineage funnel stages as the exact
driver: stages aggregate by name, so per-chunk records sum to the same
totals and conservation (``in == out + drops``) holds either way.  The
merge rules are specified in ``docs/DATA_MODEL.md``; the scale
benchmark that pins the O(chunk) claim is ``benchmarks/bench_stream.py``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..crawl.chunks import PeerChunk
from ..geo.regions import RegionLevel
from ..geodb.database import GeoDatabase
from ..net.bgp import RoutingTable
from ..obs import lineage, quality
from ..obs import telemetry as obs
from ..obs.progress import tracker
from ..obs.quality import QuantileDigest
from .batch import PeerBatch, RegionVocab, group_slices
from .classify import ASClassification, classify_from_counts
from .dataset import (
    PipelineConfig,
    PipelineStats,
    _ChunkTotals,
    _StageContext,
    build_target_dataset,
)
from .filtering import (
    digest_error_percentile,
    filter_error_percentile_digests,
    filter_min_peers,
)

#: The exact driver, which always streams, under its streaming name.
stream_target_dataset = build_target_dataset


@dataclass
class ASAggregate:
    """Fixed-size per-AS state merged across chunks (summary mode).

    Everything here is bounded regardless of how many peers the AS
    accumulates: scalar counts, per-app counts, float64 coordinate
    sums, one capped quantile digest, four region counters whose key
    space is the geo database's block vocabulary, and the percentile
    gate's tallies.  Those split the AS's errors at ``gate_km`` (fixed
    before the first chunk): ``count_le`` errors at or under it, the
    largest of them ``max_le`` and the smallest error over it
    ``min_gt``, compared in float64 like ``np.percentile``.  ``__len__``
    returns the peer count so the object passes straight through
    :func:`~repro.pipeline.filtering.filter_min_peers`.
    """

    asn: int
    n_apps: int
    gate_km: float
    count: int = 0
    count_le: int = 0
    max_le: float = -math.inf
    min_gt: float = math.inf
    app_counts: np.ndarray = field(default=None)  # type: ignore[assignment]
    lat_sum: float = 0.0
    lon_sum: float = 0.0
    error_digest: QuantileDigest = field(default_factory=QuantileDigest)
    city_counts: Counter = field(default_factory=Counter)
    state_counts: Counter = field(default_factory=Counter)
    country_counts: Counter = field(default_factory=Counter)
    continent_counts: Counter = field(default_factory=Counter)

    def __post_init__(self) -> None:
        if self.app_counts is None:
            self.app_counts = np.zeros(self.n_apps, dtype=np.int64)

    def __len__(self) -> int:
        return self.count

    def absorb(
        self, batch: PeerBatch, rows: np.ndarray, membership: np.ndarray
    ) -> None:
        """Fold one chunk's rows for this AS into the aggregate."""
        data = batch.data
        geo = batch.geo
        self.count += int(rows.size)
        self.app_counts += np.count_nonzero(membership[rows], axis=0)
        self.lat_sum += float(data["lat"][rows].astype(np.float64).sum())
        self.lon_sum += float(data["lon"][rows].astype(np.float64).sum())
        errors = data["error_km"][rows].astype(np.float64)
        self.error_digest.observe_array(errors)
        within = errors <= self.gate_km
        self.count_le += int(np.count_nonzero(within))
        self.max_le = max(
            self.max_le, float(np.max(errors, where=within, initial=-math.inf))
        )
        self.min_gt = min(
            self.min_gt, float(np.min(errors, where=~within, initial=math.inf))
        )
        blocks = data["block"][rows].astype(np.int64)
        self.city_counts.update(_id_counts(geo.city_key_id[blocks]))
        self.state_counts.update(_id_counts(geo.state_key_id[blocks]))
        self.country_counts.update(_id_counts(geo.country_id[blocks]))
        self.continent_counts.update(_id_counts(geo.continent_id[blocks]))


def _id_counts(ids: np.ndarray) -> Dict[int, int]:
    """Occurrence counts of interned region ids, as a plain dict."""
    uniq, freq = np.unique(ids, return_counts=True)
    return dict(zip(uniq.tolist(), freq.tolist()))


def _named(counter: Counter, vocab: RegionVocab) -> Dict[str, int]:
    """Region-id counter → region-name counts (names from the vocab)."""
    return {vocab.name(rid): count for rid, count in counter.items()}


@dataclass(frozen=True)
class StreamTargetAS:
    """One surviving AS of a summary-mode run — aggregates only."""

    asn: int
    peer_count: int
    app_counts: Dict[str, int]
    lat: float  # peer-coordinate centroid, degrees
    lon: float
    error_percentile_km: float  # digest read of the gate percentile
    classification: ASClassification
    continent: str  # majority continent (Table 1 binning)

    @property
    def level(self) -> RegionLevel:
        return self.classification.level


@dataclass
class StreamSummary:
    """A summary-mode run's output: per-AS aggregates plus the funnel."""

    ases: Dict[int, StreamTargetAS]
    stats: PipelineStats
    app_names: Tuple[str, ...]
    config: PipelineConfig
    chunks_processed: int
    rss_peak_kib: float

    def __len__(self) -> int:
        return len(self.ases)

    @property
    def total_peers(self) -> int:
        return sum(a.peer_count for a in self.ases.values())

    def ases_at_level(self, level: RegionLevel) -> List[StreamTargetAS]:
        return [a for a in self.ases.values() if a.level is level]


def stream_summary(
    chunks: Iterable[PeerChunk],
    primary: GeoDatabase,
    secondary: GeoDatabase,
    routing_table: RoutingTable,
    config: PipelineConfig = PipelineConfig(),
    chunk_size: Optional[int] = None,
    app_names: Tuple[str, ...] = (),
) -> StreamSummary:
    """The bounded-memory Section 2 pipeline over a chunk stream.

    Conditions each chunk with the same batch transforms as
    :func:`~repro.pipeline.dataset.build_target_dataset` but keeps only
    per-AS :class:`ASAggregate` state between chunks, so peak memory is
    O(chunk + ASes) — the property ``benchmarks/bench_stream.py`` pins
    across population sizes.  Both per-AS gates are exact: the
    min-peers gate on counts, the percentile gate on the error tallies
    (see ``docs/DATA_MODEL.md``).  Classification runs on merged region
    counts via :func:`~repro.pipeline.classify.classify_from_counts`,
    with the exact driver's tie-break.

    ``chunk_size`` is metadata for the ``pipeline.stream.chunk_size``
    gauge; ``app_names`` seeds the output when the stream is empty.
    """
    aggregates: Dict[int, ASAggregate] = {}
    totals = _ChunkTotals()
    context = _StageContext(primary, secondary, routing_table)
    with obs.span("pipeline.stream_summary"):
        # total=0: a generated chunk stream has no known length upfront;
        # the tracker still emits throttled progress and the final gauge.
        with tracker("pipeline.stream", total=0, unit="chunks") as progress:
            for chunk in chunks:
                app_names = chunk.app_names
                routed = context.condition_chunk(chunk, config, totals)
                membership = routed.membership()
                for asn, rows in group_slices(
                    routed.data["asn"].astype(np.int64)
                ):
                    aggregate = aggregates.get(asn)
                    if aggregate is None:
                        aggregate = ASAggregate(
                            asn=asn,
                            n_apps=len(app_names),
                            gate_km=config.error_percentile_max_km,
                        )
                        aggregates[asn] = aggregate
                    aggregate.absorb(routed, rows, membership)
                progress.advance()
        quality.observe(
            "as_peer_count",
            (float(a.count) for a in aggregates.values()),
        )
        obs.gauge("pipeline.ases_grouped", len(aggregates))
        ases_before = len(aggregates)
        with obs.span("pipeline.filter_min_peers"):
            # filter_min_peers only needs len(); ASAggregate provides it.
            aggregates, dropped_small = filter_min_peers(
                aggregates, config.min_peers_per_as
            )
        with obs.span("pipeline.filter_error_percentile"):
            aggregates, dropped_percentile = filter_error_percentile_digests(
                aggregates, config.error_percentile
            )
        ases: Dict[int, StreamTargetAS] = {}
        with obs.span("pipeline.classify"):
            with tracker(
                "pipeline.classify", total=len(aggregates), unit="ases"
            ) as progress:
                for asn in sorted(aggregates):
                    ases[asn] = _finalise_as(
                        aggregates[asn], context.vocab, tuple(app_names),
                        config,
                    )
                    progress.advance()
        lineage.record_stage(
            "pipeline.classify",
            unit="ases",
            records_in=len(aggregates),
            records_out=len(ases),
        )
    stats = totals.stats(
        chunk_size or 0,
        ases_before=ases_before,
        dropped_small=dropped_small,
        dropped_percentile=dropped_percentile,
        target_ases=len(ases),
        target_peers=sum(a.peer_count for a in ases.values()),
    )
    return StreamSummary(
        ases=ases,
        stats=stats,
        app_names=tuple(app_names),
        config=config,
        chunks_processed=totals.chunks,
        rss_peak_kib=totals.rss_peak_kib,
    )


def _finalise_as(
    aggregate: ASAggregate,
    vocab: RegionVocab,
    app_names: Tuple[str, ...],
    config: PipelineConfig,
) -> StreamTargetAS:
    """Classify one aggregate and freeze its summary row."""
    level_counts = (
        (RegionLevel.CITY, _named(aggregate.city_counts, vocab)),
        (RegionLevel.STATE, _named(aggregate.state_counts, vocab)),
        (RegionLevel.COUNTRY, _named(aggregate.country_counts, vocab)),
        (RegionLevel.CONTINENT, _named(aggregate.continent_counts, vocab)),
    )
    classification = classify_from_counts(
        level_counts, aggregate.count, config.containment_threshold
    )
    continents = _named(aggregate.continent_counts, vocab)
    majority = min(continents, key=lambda name: (-continents[name], name))
    app_counts = {
        name: int(aggregate.app_counts[i])
        for i, name in enumerate(app_names)
    }
    return StreamTargetAS(
        asn=aggregate.asn,
        peer_count=aggregate.count,
        app_counts=app_counts,
        lat=aggregate.lat_sum / aggregate.count,
        lon=aggregate.lon_sum / aggregate.count,
        error_percentile_km=digest_error_percentile(
            aggregate.error_digest, config.error_percentile
        ),
        classification=classification,
        continent=majority,
    )
