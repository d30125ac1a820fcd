"""Section 2 data-preparation pipeline: map, filter, group, classify.

:func:`build_target_dataset` is the one exact driver: it streams the
crawl sample through the columnar stage transforms
(:mod:`repro.pipeline.batch`) in ``PipelineConfig.chunk_size`` chunks,
and :func:`stream_target_dataset` is another name for it.
:func:`stream_summary` is the bounded-memory mode that keeps per-AS
aggregates only.  The whole-sample stage functions (:func:`map_peers`,
:func:`filter_geo_error`, :func:`group_by_as`, ...) remain for callers
that hold a sample's columns themselves.  The columnar schema and the
adapter rules are specified in ``docs/DATA_MODEL.md``.
"""

from .batch import (
    PEER_DTYPE,
    GeoColumns,
    PeerBatch,
    RegionVocab,
    assign_asn_batch,
    concat_batches,
    filter_geo_error_batch,
    group_slices,
    map_batch,
)
from .classify import (
    ASClassification,
    CONTAINMENT_THRESHOLD,
    classify_from_counts,
    classify_group,
)
from .dataset import (
    PipelineConfig,
    PipelineStats,
    TargetAS,
    TargetDataset,
    build_target_dataset,
    classify_groups,
)
from .filtering import (
    ERROR_PERCENTILE,
    GEO_ERROR_GATE_KM,
    METRO_DIAMETER_KM,
    MIN_PEERS_PER_AS,
    digest_error_percentile,
    filter_error_percentile,
    filter_error_percentile_digests,
    filter_geo_error,
    filter_min_peers,
)
from .footprints import (
    build_footprint_jobs,
    footprint_jobs_from_batch,
    run_footprint_stage,
)
from .grouping import ASPeerGroup, GroupingStats, group_by_as, partition_groups
from .mapping import MappedPeers, MappingStats, map_peers
from .profile import DatasetProfile, RegionProfile, profile_dataset
from .stats import DatasetStatistics, Distribution, summarize_dataset
from .stream import (
    ASAggregate,
    StreamSummary,
    StreamTargetAS,
    stream_summary,
    stream_target_dataset,
)

__all__ = [
    "ASAggregate",
    "ASClassification",
    "ASPeerGroup",
    "CONTAINMENT_THRESHOLD",
    "DatasetProfile",
    "DatasetStatistics",
    "Distribution",
    "ERROR_PERCENTILE",
    "GEO_ERROR_GATE_KM",
    "GeoColumns",
    "GroupingStats",
    "METRO_DIAMETER_KM",
    "MIN_PEERS_PER_AS",
    "MappedPeers",
    "MappingStats",
    "PEER_DTYPE",
    "PeerBatch",
    "PipelineConfig",
    "PipelineStats",
    "RegionProfile",
    "RegionVocab",
    "StreamSummary",
    "StreamTargetAS",
    "TargetAS",
    "TargetDataset",
    "assign_asn_batch",
    "build_footprint_jobs",
    "build_target_dataset",
    "classify_from_counts",
    "classify_group",
    "classify_groups",
    "concat_batches",
    "digest_error_percentile",
    "filter_error_percentile",
    "filter_error_percentile_digests",
    "filter_geo_error",
    "filter_geo_error_batch",
    "filter_min_peers",
    "footprint_jobs_from_batch",
    "group_by_as",
    "group_slices",
    "map_batch",
    "map_peers",
    "partition_groups",
    "profile_dataset",
    "run_footprint_stage",
    "stream_summary",
    "stream_target_dataset",
    "summarize_dataset",
]
