"""Grouping peers by AS (paper Section 2, step 3).

Resolves each mapped peer's origin AS with a longest-prefix match
against the Routeviews-style routing table, and partitions the peer
columns per AS.  Since the columnar refactor the match is one
vectorised pass over the routing table's flattened interval index
(:meth:`~repro.net.bgp.RoutingTable.flat_index`), not a per-peer trie
walk, and the partition is a single stable argsort
(:func:`repro.pipeline.batch.group_slices`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..net.bgp import RoutingTable
from ..net.lpm import NO_MATCH
from ..obs import lineage, quality
from ..obs import telemetry as obs
from ..obs.lineage import DropReason
from .batch import group_slices
from .mapping import MappedPeers


@dataclass
class ASPeerGroup:
    """All mapped peers of one AS."""

    asn: int
    peers: MappedPeers

    def __len__(self) -> int:
        return len(self.peers)

    @property
    def lat(self) -> np.ndarray:
        return self.peers.lat

    @property
    def lon(self) -> np.ndarray:
        return self.peers.lon

    @property
    def error_km(self) -> np.ndarray:
        return self.peers.error_km

    def error_percentile(self, percentile: float = 90.0) -> float:
        """Geo-error percentile across the AS's peers (paper uses p90)."""
        if len(self) == 0:
            return 0.0
        return float(np.percentile(self.peers.error_km, percentile))

    def majority_continent(self) -> str:
        """Continent holding the most peers (used to bin ASes in Table 1)."""
        values, counts = np.unique(
            self.peers.continent.astype(str), return_counts=True
        )
        return str(values[int(np.argmax(counts))])


@dataclass(frozen=True)
class GroupingStats:
    input_peers: int
    grouped_peers: int
    dropped_unrouted: int
    as_count: int


def partition_groups(
    mapped: MappedPeers, asns: np.ndarray
) -> Dict[int, ASPeerGroup]:
    """Partition already-routed peers into per-AS groups.

    ``asns`` is the parallel origin-AS column (no ``NO_MATCH`` rows —
    drop accounting belongs to the lookup site).  Shared by
    :func:`group_by_as` below and the driver in
    :mod:`repro.pipeline.dataset`; records the per-AS peer-count quality
    digest and the ``pipeline.ases_grouped`` gauge in both.
    """
    groups: Dict[int, ASPeerGroup] = {}
    for asn, indices in group_slices(asns):
        groups[asn] = ASPeerGroup(asn=asn, peers=mapped.subset(indices))
    quality.observe(
        "as_peer_count", (float(len(group)) for group in groups.values())
    )
    obs.gauge("pipeline.ases_grouped", len(groups))
    return groups


def group_by_as(
    mapped: MappedPeers, routing_table: RoutingTable
) -> Tuple[Dict[int, ASPeerGroup], GroupingStats]:
    """Partition mapped peers by origin AS.

    Peers whose address matches no announced prefix are dropped (they
    would be invisible in BGP).
    """
    with obs.span("pipeline.grouping"):
        return _group_by_as(mapped, routing_table)


def _group_by_as(
    mapped: MappedPeers, routing_table: RoutingTable
) -> Tuple[Dict[int, ASPeerGroup], GroupingStats]:
    n = len(mapped)
    asns = routing_table.flat_index().lookup_many(mapped.ips)
    routed = asns != NO_MATCH
    kept = int(routed.sum())
    lineage.record_stage(
        "pipeline.grouping",
        unit="peers",
        records_in=n,
        records_out=kept,
        drops={DropReason.UNROUTED: n - kept},
    )
    indices = np.flatnonzero(routed)
    groups = partition_groups(mapped.subset(indices), asns[indices])
    stats = GroupingStats(
        input_peers=n,
        grouped_peers=kept,
        dropped_unrouted=n - kept,
        as_count=len(groups),
    )
    return groups, stats
