"""Dataset conditioning filters (paper Sections 2 and 3.1).

Three filters condition the raw mapped peers into the target dataset:

* the per-peer geo-error cut ("we remove all IP addresses whose error is
  larger than the diameter of typical metropolitan area, around 100km";
  Section 3.1 sharpens the working value to 80 km),
* the per-AS density floor ("we eliminate all ASes with less than 1000
  peers"), and
* the per-AS error-percentile gate ("we remove all the ASes whose 90th
  percentile of geo error is larger than 80km"), which is what licenses
  a *fixed* 40 km kernel bandwidth across all surviving ASes.

The summary path (:mod:`repro.pipeline.stream`) cannot hold an AS's
full error column.  Its percentile gate
(:func:`filter_error_percentile_digests`) still decides exactly, from
three mergeable tallies of the errors split at the threshold
(:func:`tallies_within_percentile`); the AS's merged
:class:`~repro.obs.quality.QuantileDigest` only reports the percentile
(:func:`digest_error_percentile`).  ``docs/DATA_MODEL.md`` gives the
rule.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Tuple

import numpy as np

from ..obs import lineage
from ..obs.lineage import DropReason
from ..obs.quality import QuantileDigest
from .grouping import ASPeerGroup
from .mapping import MappedPeers

#: Paper constants.
METRO_DIAMETER_KM = 100.0
GEO_ERROR_GATE_KM = 80.0
MIN_PEERS_PER_AS = 1000
ERROR_PERCENTILE = 90.0


def filter_geo_error(
    mapped: MappedPeers, max_error_km: float = METRO_DIAMETER_KM
) -> Tuple[MappedPeers, int]:
    """Drop peers whose inter-database geo error exceeds the threshold."""
    if max_error_km <= 0:
        raise ValueError("error threshold must be positive")
    # Errors are float32-quantised (see docs/DATA_MODEL.md); rounding
    # the threshold the same way keeps the object and batch paths'
    # keep/drop decisions bit-identical for any threshold value.
    keep = np.flatnonzero(mapped.error_km <= float(np.float32(max_error_km)))
    dropped = len(mapped) - keep.size
    lineage.record_stage(
        "pipeline.filter_geo_error",
        unit="peers",
        records_in=len(mapped),
        records_out=int(keep.size),
        drops={DropReason.GEO_ERROR: int(dropped)},
    )
    return mapped.subset(keep), int(dropped)


def filter_min_peers(
    groups: Dict[int, ASPeerGroup], min_peers: int = MIN_PEERS_PER_AS
) -> Tuple[Dict[int, ASPeerGroup], int]:
    """Drop ASes with fewer than ``min_peers`` sampled peers."""
    if min_peers < 1:
        raise ValueError("minimum peer count must be at least 1")
    kept = {asn: g for asn, g in groups.items() if len(g) >= min_peers}
    lineage.record_stage(
        "pipeline.filter_min_peers",
        unit="ases",
        records_in=len(groups),
        records_out=len(kept),
        drops={DropReason.AS_TOO_SMALL: len(groups) - len(kept)},
    )
    return kept, len(groups) - len(kept)


def filter_error_percentile(
    groups: Dict[int, ASPeerGroup],
    percentile: float = ERROR_PERCENTILE,
    max_km: float = GEO_ERROR_GATE_KM,
) -> Tuple[Dict[int, ASPeerGroup], int]:
    """Drop ASes whose geo-error percentile exceeds ``max_km``."""
    if not 0 < percentile <= 100:
        raise ValueError("percentile out of range")
    kept = {
        asn: g
        for asn, g in groups.items()
        if g.error_percentile(percentile) <= max_km
    }
    lineage.record_stage(
        "pipeline.filter_error_percentile",
        unit="ases",
        records_in=len(groups),
        records_out=len(kept),
        drops={DropReason.AS_ERROR_PERCENTILE: len(groups) - len(kept)},
    )
    return kept, len(groups) - len(kept)


def digest_error_percentile(
    digest: QuantileDigest, percentile: float = ERROR_PERCENTILE
) -> float:
    """Geo-error percentile of one AS read off its merged digest.

    The summary path's reported counterpart of
    :meth:`~repro.pipeline.grouping.ASPeerGroup.error_percentile`: while
    every observed value is still a weight-1 centroid (AS peer count at
    or under the digest's centroid budget) this equals ``np.percentile``
    exactly; beyond that it is the digest's equal-count approximation.
    The gate never reads it.
    """
    if not 0 < percentile <= 100:
        raise ValueError("percentile out of range")
    if digest.count == 0:
        return 0.0
    return float(digest.quantile(percentile / 100.0))


def tallies_within_percentile(
    count: int,
    count_le: int,
    max_le: float,
    min_gt: float,
    percentile: float,
    max_km: float,
) -> bool:
    """Exactly ``np.percentile(errors, percentile) <= max_km``, from the
    errors' tallies split at ``max_km``.

    ``count_le`` errors are at or under ``max_km``, the largest of them
    is ``max_le`` and the smallest error above it ``min_gt`` (all in
    float64).  ``np.percentile`` interpolates between the order
    statistics ``k`` and ``k + 1`` at ``k + t = percentile/100 *
    (count - 1)``: both sit under the threshold when ``k + 1 <
    count_le``, ``k`` already sits over it when ``k >= count_le``, ``k``
    is the last error and under it when ``k == count - 1``, and
    otherwise they are exactly ``max_le`` and ``min_gt``, so numpy's
    two-sided lerp of them decides.
    """
    index = (count - 1) * (percentile / 100.0)
    k = math.floor(index)
    t = index - k
    if k + 1 < count_le:
        return True
    if k >= count_le:
        return False
    if k == count - 1:
        return True
    diff = min_gt - max_le
    if t >= 0.5:
        value = min_gt - diff * (1.0 - t)
    else:
        value = max_le + diff * t
    return value <= max_km


def filter_error_percentile_digests(
    aggregates: Dict[int, Any], percentile: float = ERROR_PERCENTILE
) -> Tuple[Dict[int, Any], int]:
    """Summary-path twin of :func:`filter_error_percentile`.

    Applies the paper's percentile gate to per-AS
    :class:`~repro.pipeline.stream.ASAggregate` objects, each deciding
    exactly from its tallies (``count``, ``count_le``, ``max_le``,
    ``min_gt``) at the threshold it split them at (``gate_km``).
    Records the same ``pipeline.filter_error_percentile`` funnel stage,
    so summary and exact runs share one waterfall.
    """
    if not 0 < percentile <= 100:
        raise ValueError("percentile out of range")
    kept = {
        asn: a
        for asn, a in aggregates.items()
        if tallies_within_percentile(
            a.count, a.count_le, a.max_le, a.min_gt, percentile, a.gate_km
        )
    }
    lineage.record_stage(
        "pipeline.filter_error_percentile",
        unit="ases",
        records_in=len(aggregates),
        records_out=len(kept),
        drops={DropReason.AS_ERROR_PERCENTILE: len(aggregates) - len(kept)},
    )
    return kept, len(aggregates) - len(kept)
