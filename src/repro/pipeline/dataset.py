"""The target dataset (paper Section 2, "Target Dataset").

Runs the complete conditioning pipeline — map, error-filter, group,
density-filter, error-percentile-filter, classify — and packages the
result: one :class:`TargetAS` per surviving eyeball AS.

:func:`build_target_dataset` is the one driver.  The per-peer stages
(mapping, the geo-error cut, AS resolution) stream over the sample in
``config.chunk_size``-peer slices through the columnar transforms of
:mod:`repro.pipeline.batch`; only the surviving rows are kept, and the
per-AS tail runs once over them, so peak memory is O(chunk +
survivors).  The chunk size is a memory knob, never a results knob
(see ``docs/DATA_MODEL.md``).  The bounded-memory summary mode in
:mod:`repro.pipeline.stream` shares this module's per-chunk context
and funnel totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..crawl.chunks import DEFAULT_CHUNK_SIZE, PeerChunk
from ..crawl.crawler import PeerSample
from ..geo.regions import RegionLevel
from ..geodb.database import GeoDatabase
from ..net.bgp import RoutingTable
from ..obs import lineage
from ..obs import telemetry as obs
from ..obs.progress import tracker
from ..obs.resources import default_rss_reader
from .batch import (
    PEER_DTYPE,
    GeoColumns,
    PeerBatch,
    RegionVocab,
    assign_asn_batch,
    filter_geo_error_batch,
    map_batch,
)
from .classify import ASClassification, classify_group
from .filtering import (
    GEO_ERROR_GATE_KM,
    ERROR_PERCENTILE,
    METRO_DIAMETER_KM,
    MIN_PEERS_PER_AS,
    filter_error_percentile,
    filter_min_peers,
)
from .grouping import ASPeerGroup, partition_groups


@dataclass(frozen=True)
class PipelineConfig:
    """Thresholds of the conditioning pipeline (paper defaults).

    ``chunk_size`` bounds how many peers the per-peer stages hold at
    once; the output is the same at every chunk size.
    """

    max_geo_error_km: float = METRO_DIAMETER_KM
    min_peers_per_as: int = MIN_PEERS_PER_AS
    error_percentile: float = ERROR_PERCENTILE
    error_percentile_max_km: float = GEO_ERROR_GATE_KM
    containment_threshold: float = 0.95
    chunk_size: int = DEFAULT_CHUNK_SIZE


@dataclass
class TargetAS:
    """One eyeball AS of the target dataset."""

    asn: int
    group: ASPeerGroup
    classification: ASClassification

    def __len__(self) -> int:
        return len(self.group)

    @property
    def level(self) -> RegionLevel:
        return self.classification.level

    @property
    def continent(self) -> str:
        return self.group.majority_continent()

    def peer_count_by_app(self) -> Dict[str, int]:
        peers = self.group.peers
        return {
            name: int(peers.membership[:, i].sum())
            for i, name in enumerate(peers.app_names)
        }


@dataclass(frozen=True)
class PipelineStats:
    """How many peers/ASes each pipeline stage consumed."""

    crawled_peers: int
    dropped_missing_record: int
    dropped_geo_error: int
    grouped_peers: int
    dropped_unrouted: int
    ases_before_filters: int
    ases_dropped_small: int
    ases_dropped_error_percentile: int
    target_ases: int
    target_peers: int


@dataclass
class TargetDataset:
    """The conditioned dataset the paper's Sections 3-6 operate on."""

    ases: Dict[int, TargetAS]
    stats: PipelineStats
    app_names: Tuple[str, ...]
    config: PipelineConfig = field(default_factory=PipelineConfig)

    def __len__(self) -> int:
        return len(self.ases)

    @property
    def total_peers(self) -> int:
        return sum(len(a) for a in self.ases.values())

    def ases_at_level(self, level: RegionLevel) -> List[TargetAS]:
        return [a for a in self.ases.values() if a.level is level]

    def ases_in_continent(self, continent_code: str) -> List[TargetAS]:
        return [a for a in self.ases.values() if a.continent == continent_code]

    def get(self, asn: int) -> Optional[TargetAS]:
        return self.ases.get(asn)


class _ChunkTotals:
    """Running funnel totals across chunks (plain numeric attributes)."""

    __slots__ = ("chunks", "peers_in", "dropped_missing", "dropped_geo_error",
                 "dropped_unrouted", "rss_peak_kib")

    def __init__(self) -> None:
        self.chunks = 0
        self.peers_in = 0
        self.dropped_missing = 0
        self.dropped_geo_error = 0
        self.dropped_unrouted = 0
        self.rss_peak_kib = 0.0

    def absorb(
        self, n: int, missing: int, geo_error: int, unrouted: int
    ) -> None:
        self.chunks += 1
        self.peers_in += n
        self.dropped_missing += missing
        self.dropped_geo_error += geo_error
        self.dropped_unrouted += unrouted
        self.rss_peak_kib = max(self.rss_peak_kib, default_rss_reader())

    def stats(
        self,
        chunk_size: int,
        ases_before: int,
        dropped_small: int,
        dropped_percentile: int,
        target_ases: int,
        target_peers: int,
    ) -> PipelineStats:
        """The run's :class:`PipelineStats`; records its gauges."""
        stats = PipelineStats(
            crawled_peers=self.peers_in,
            dropped_missing_record=self.dropped_missing,
            dropped_geo_error=self.dropped_geo_error,
            grouped_peers=self.peers_in - self.dropped_missing
            - self.dropped_geo_error - self.dropped_unrouted,
            dropped_unrouted=self.dropped_unrouted,
            ases_before_filters=ases_before,
            ases_dropped_small=dropped_small,
            ases_dropped_error_percentile=dropped_percentile,
            target_ases=target_ases,
            target_peers=target_peers,
        )
        obs.gauge("pipeline.target_ases", stats.target_ases)
        obs.gauge("pipeline.target_peers", stats.target_peers)
        obs.gauge("pipeline.stream.chunks", self.chunks)
        obs.gauge("pipeline.stream.chunk_size", chunk_size)
        obs.gauge("pipeline.stream.rss_peak_kib", self.rss_peak_kib)
        return stats


class _StageContext:
    """Per-run decode context: geo columns + routing index, built once."""

    __slots__ = ("vocab", "primary", "secondary", "routing")

    def __init__(
        self,
        primary: GeoDatabase,
        secondary: GeoDatabase,
        routing_table: RoutingTable,
    ) -> None:
        self.vocab = RegionVocab()
        self.primary = GeoColumns.from_database(primary, self.vocab)
        self.secondary = GeoColumns.from_database(secondary, self.vocab)
        self.routing = routing_table.flat_index()

    def condition_chunk(
        self, chunk: PeerChunk, config: PipelineConfig, totals: _ChunkTotals
    ) -> PeerBatch:
        """Map → error-cut → AS-resolve one chunk (the per-peer stages)
        and add its drops to ``totals``; returns the routed rows."""
        with obs.span("pipeline.mapping"):
            mapped, dropped_missing = map_batch(
                PeerBatch.from_chunk(chunk), self.primary, self.secondary,
                self.vocab,
            )
        with obs.span("pipeline.filter_geo_error"):
            kept, dropped_error = filter_geo_error_batch(
                mapped, config.max_geo_error_km
            )
        with obs.span("pipeline.grouping"):
            routed, dropped_unrouted = assign_asn_batch(kept, self.routing)
        totals.absorb(
            len(chunk), dropped_missing, dropped_error, dropped_unrouted
        )
        return routed


def classify_groups(
    groups: Dict[int, ASPeerGroup], threshold: float = 0.95
) -> Dict[int, TargetAS]:
    """Classify the surviving groups into :class:`TargetAS` entries.

    ASes are classified in ascending-ASN order, which fixes the output
    dict's insertion order.
    """
    ases: Dict[int, TargetAS] = {}
    with obs.span("pipeline.classify"):
        with tracker(
            "pipeline.classify", total=len(groups), unit="ases"
        ) as progress:
            for asn in sorted(groups):
                group = groups[asn]
                classification = classify_group(group, threshold)
                ases[asn] = TargetAS(
                    asn=asn, group=group, classification=classification
                )
                progress.advance()
    # Classification keeps every AS; the lossless stage still goes
    # on the funnel so the waterfall runs gap-free end to end.
    lineage.record_stage(
        "pipeline.classify",
        unit="ases",
        records_in=len(groups),
        records_out=len(ases),
    )
    return ases


def build_target_dataset(
    sample: PeerSample,
    primary: GeoDatabase,
    secondary: GeoDatabase,
    routing_table: RoutingTable,
    config: PipelineConfig = PipelineConfig(),
) -> TargetDataset:
    """Run the full Section 2 pipeline over a crawl sample.

    The per-peer stages see ``config.chunk_size`` rows at a time and
    dropped rows are released with their chunk.  Chunks arrive in
    sample order and every stage keeps row order, so the survivors
    line up row for row whatever the chunk size, and the per-AS tail
    runs once over all of them.
    """
    with obs.span("pipeline.build_target_dataset"):
        context = _StageContext(primary, secondary, routing_table)
        totals = _ChunkTotals()
        # Pre-sized to the sample: pages are touched only as survivors
        # are written, so resident memory follows the survivor count.
        survivors = np.empty(len(sample), dtype=PEER_DTYPE)
        kept = 0
        with tracker(
            "pipeline.mapping", total=len(sample), unit="peers"
        ) as progress:
            for chunk in sample.chunks(config.chunk_size):
                routed = context.condition_chunk(chunk, config, totals)
                survivors[kept:kept + len(routed)] = routed.data
                kept += len(routed)
                progress.advance(len(chunk))
        merged = PeerBatch(
            app_names=sample.app_names,
            data=survivors[:kept],
            geo=context.primary,
            vocab=context.vocab,
        )
        with obs.span("pipeline.grouping"):
            groups = partition_groups(
                merged.to_mapped_peers(), merged.data["asn"].astype(np.int64)
            )
        ases_before = len(groups)
        with obs.span("pipeline.filter_min_peers"):
            groups, dropped_small = filter_min_peers(
                groups, config.min_peers_per_as
            )
        with obs.span("pipeline.filter_error_percentile"):
            groups, dropped_percentile = filter_error_percentile(
                groups, config.error_percentile, config.error_percentile_max_km
            )
        ases = classify_groups(groups, config.containment_threshold)
    stats = totals.stats(
        config.chunk_size,
        ases_before=ases_before,
        dropped_small=dropped_small,
        dropped_percentile=dropped_percentile,
        target_ases=len(ases),
        target_peers=sum(len(a) for a in ases.values()),
    )
    return TargetDataset(
        ases=ases, stats=stats, app_names=sample.app_names, config=config
    )
