"""Columnar peer batches: the conditioning pipeline's core data model.

One :class:`PeerBatch` holds a *chunk* of peers as a NumPy structured
array (:data:`PEER_DTYPE`) instead of per-peer Python objects, and each
Section 2 stage is a vectorised batch→batch transform that records its
lineage funnel stage and drop reason.  The full schema contract — field widths,
units, sentinel values, precision budget and the adapter rules back to
:class:`~repro.pipeline.mapping.MappedPeers` — lives in
``docs/DATA_MODEL.md``; change either together.

Region names never enter the array: administrative strings are
interned once per geo-database *block* into a :class:`RegionVocab`,
and each peer row carries only its block row (``block``), so a chunk's
memory cost is a flat ~44 bytes/peer regardless of name lengths.

The transforms here are single-chunk; the drivers that stream many
batches are :func:`repro.pipeline.dataset.build_target_dataset` and
the per-AS aggregating :func:`repro.pipeline.stream.stream_summary`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..crawl.chunks import PeerChunk
from ..geo.coords import haversine_km
from ..geodb.database import GeoDatabase
from ..net.lpm import NO_MATCH, FlatLPMIndex
from ..obs import lineage, quality
from ..obs import telemetry as obs
from ..obs.lineage import DropReason

#: The columnar peer schema (see docs/DATA_MODEL.md for the contract).
PEER_DTYPE = np.dtype(
    [
        ("user_index", np.int64),  # row in the originating population
        ("ip", np.int64),          # IPv4 address as integer
        ("asn", np.int32),         # origin AS; ASN_NONE before grouping
        ("block", np.int32),       # primary-DB block row; BLOCK_NONE unmapped
        ("lat", np.float32),       # reference latitude, degrees (primary DB)
        ("lon", np.float32),       # reference longitude, degrees
        ("lat2", np.float32),      # secondary-DB latitude, degrees
        ("lon2", np.float32),      # secondary-DB longitude, degrees
        ("error_km", np.float32),  # inter-database geo error, km
        ("apps", np.uint8),        # application-membership bitmask
        ("flags", np.uint8),       # stage-progress flags (FLAG_*)
    ]
)

#: Sentinels (all documented in docs/DATA_MODEL.md).
ASN_NONE = -1
BLOCK_NONE = -1

#: ``flags`` bits set as a row clears each stage.
FLAG_MAPPED = 0x01
FLAG_ROUTED = 0x02

#: The ``apps`` bitmask caps the application count.
MAX_APPS = 8


class RegionVocab:
    """Interns administrative names (and composite region keys) to ids.

    Ids are dense ``int32`` in first-intern order; ``-1`` is the null
    id (blocks without a city-level record).  Decoding returns the
    *same* string objects that were interned, so adapter output
    compares identically to the object path's.
    """

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._names: List[str] = []

    def __len__(self) -> int:
        return len(self._names)

    def intern(self, name: str) -> int:
        rid = self._ids.get(name)
        if rid is None:
            rid = len(self._names)
            self._ids[name] = rid
            self._names.append(name)
        return rid

    def name(self, rid: int) -> str:
        return self._names[rid]

    def decode(self, ids: np.ndarray) -> np.ndarray:
        """Ids → object array of names (ids must be valid, not -1)."""
        table = np.asarray(self._names, dtype=object)
        return table[np.asarray(ids, dtype=np.int64)]


@dataclass(frozen=True)
class GeoColumns:
    """One geo database, columnised per block row for batch lookups.

    Row order is the database's interval-table row order; ``index``
    payloads point into these columns.  ``has_record`` is False for
    blocks the database covers *without* city-level resolution (they
    shadow enclosing blocks, exactly like the trie path).
    """

    index: FlatLPMIndex
    has_record: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    city_id: np.ndarray
    state_id: np.ndarray
    country_id: np.ndarray
    continent_id: np.ndarray
    city_key_id: np.ndarray
    state_key_id: np.ndarray

    @classmethod
    def from_database(
        cls, database: GeoDatabase, vocab: RegionVocab
    ) -> "GeoColumns":
        """Columnise a database's block table (O(blocks), done once)."""
        index, records = database.flat_index()
        n = len(records)
        has_record = np.zeros(n, dtype=bool)
        lat = np.zeros(n, dtype=np.float32)
        lon = np.zeros(n, dtype=np.float32)
        ids = np.full((6, n), -1, dtype=np.int32)
        populated = [
            row for row, record in enumerate(records) if record is not None
        ]
        for row in populated:
            record = records[row]
            has_record[row] = True
            lat[row] = record.lat
            lon[row] = record.lon
            ids[0, row] = vocab.intern(record.city)
            ids[1, row] = vocab.intern(record.state)
            ids[2, row] = vocab.intern(record.country)
            ids[3, row] = vocab.intern(record.continent)
            ids[4, row] = vocab.intern(record.city_key)
            ids[5, row] = vocab.intern(f"{record.country}/{record.state}")
        return cls(
            index=index,
            has_record=has_record,
            lat=lat,
            lon=lon,
            city_id=ids[0],
            state_id=ids[1],
            country_id=ids[2],
            continent_id=ids[3],
            city_key_id=ids[4],
            state_key_id=ids[5],
        )


@dataclass
class PeerBatch:
    """A chunk of peers in columnar form, plus its decode context.

    ``geo``/``vocab`` are attached by :func:`map_batch` (they are the
    primary database's columns — the reference the paper classifies
    against) and shared, never copied, across subsets.
    """

    app_names: Tuple[str, ...]
    data: np.ndarray
    geo: Optional[GeoColumns] = None
    vocab: Optional[RegionVocab] = None

    def __post_init__(self) -> None:
        if self.data.dtype != PEER_DTYPE:
            raise ValueError("batch data must use PEER_DTYPE")
        if len(self.app_names) > MAX_APPS:
            raise ValueError(
                f"apps bitmask is uint8: at most {MAX_APPS} applications "
                f"(got {len(self.app_names)}); see docs/DATA_MODEL.md"
            )

    def __len__(self) -> int:
        return int(self.data.size)

    @classmethod
    def from_chunk(cls, chunk: PeerChunk) -> "PeerBatch":
        """Pack one crawl chunk into the columnar schema."""
        n = len(chunk)
        data = np.zeros(n, dtype=PEER_DTYPE)
        data["user_index"] = chunk.user_index
        data["ip"] = chunk.ips
        data["asn"] = ASN_NONE
        data["block"] = BLOCK_NONE
        weights = 1 << np.arange(len(chunk.app_names), dtype=np.uint8)
        data["apps"] = (
            chunk.membership.astype(np.uint8) * weights[None, :]
        ).sum(axis=1).astype(np.uint8)
        return cls(app_names=chunk.app_names, data=data)

    def subset(self, selector: np.ndarray) -> "PeerBatch":
        """A new batch restricted to a mask or index array."""
        return replace(self, data=self.data[selector])

    def membership(self) -> np.ndarray:
        """Unpack the ``apps`` bitmask to the boolean matrix."""
        weights = 1 << np.arange(len(self.app_names), dtype=np.uint8)
        return (self.data["apps"][:, None] & weights[None, :]) != 0

    def to_mapped_peers(self):
        """Decode to the object-path :class:`MappedPeers` (adapter rule).

        Float columns are widened to float64 — values stay exactly the
        float32-quantised ones the batch carries (the documented
        precision budget) — and region ids decode to the interned
        string objects.
        """
        from .mapping import MappedPeers  # deferred: mapping imports us

        if self.geo is None or self.vocab is None:
            raise ValueError("batch is not mapped yet (no geo columns)")
        rows = self.data["block"].astype(np.int64)
        return MappedPeers(
            app_names=self.app_names,
            user_index=self.data["user_index"].copy(),
            ips=self.data["ip"].copy(),
            lat=self.data["lat"].astype(np.float64),
            lon=self.data["lon"].astype(np.float64),
            error_km=self.data["error_km"].astype(np.float64),
            city=self.vocab.decode(self.geo.city_id[rows]),
            state=self.vocab.decode(self.geo.state_id[rows]),
            country=self.vocab.decode(self.geo.country_id[rows]),
            continent=self.vocab.decode(self.geo.continent_id[rows]),
            membership=self.membership(),
        )


def concat_batches(batches: Sequence[PeerBatch]) -> PeerBatch:
    """Concatenate batches (shared decode context, row order kept)."""
    if not batches:
        raise ValueError("need at least one batch")
    first = batches[0]
    return replace(
        first, data=np.concatenate([batch.data for batch in batches])
    )


def map_batch(
    batch: PeerBatch, primary: GeoColumns, secondary: GeoColumns,
    vocab: RegionVocab,
) -> Tuple[PeerBatch, int]:
    """Vectorised Section 2 mapping stage for one batch.

    Looks every row up in both databases, keeps rows with city-level
    records in *both* (the paper's elimination rule), fills the
    coordinate/error columns and attaches the decode context.  Returns
    ``(mapped_batch, dropped)`` and records the ``pipeline.mapping``
    funnel stage, per chunk (stages aggregate by name, so the totals do
    not depend on the chunk size).
    """
    n = len(batch)
    ips = batch.data["ip"]
    row1 = primary.index.lookup_many(ips)
    row2 = secondary.index.lookup_many(ips)
    safe1 = np.clip(row1, 0, None)
    safe2 = np.clip(row2, 0, None)
    keep = (
        (row1 != NO_MATCH)
        & (row2 != NO_MATCH)
        & primary.has_record[safe1]
        & secondary.has_record[safe2]
    )
    data = batch.data[keep]
    r1 = row1[keep]
    r2 = row2[keep]
    data["block"] = r1.astype(np.int32)
    data["lat"] = primary.lat[r1]
    data["lon"] = primary.lon[r1]
    data["lat2"] = secondary.lat[r2]
    data["lon2"] = secondary.lon[r2]
    error = haversine_km(
        primary.lat[r1].astype(np.float64),
        primary.lon[r1].astype(np.float64),
        secondary.lat[r2].astype(np.float64),
        secondary.lon[r2].astype(np.float64),
    )
    data["error_km"] = np.asarray(error, dtype=np.float32)
    data["flags"] |= FLAG_MAPPED
    mapped = replace(batch, data=data, geo=primary, vocab=vocab)
    dropped = n - len(mapped)
    obs.count("pipeline.peers_in", n)
    obs.count("pipeline.peers_mapped", len(mapped))
    lineage.record_stage(
        "pipeline.mapping",
        unit="peers",
        records_in=n,
        records_out=len(mapped),
        drops={DropReason.MISSING_RECORD: dropped},
    )
    quality.observe_array("geo_error_km", data["error_km"])
    return mapped, dropped


def filter_geo_error_batch(
    batch: PeerBatch, max_error_km: float
) -> Tuple[PeerBatch, int]:
    """Vectorised per-peer geo-error cut (threshold inclusive)."""
    if max_error_km <= 0:
        raise ValueError("error threshold must be positive")
    keep = batch.data["error_km"] <= np.float32(max_error_km)
    kept = batch.subset(keep)
    dropped = len(batch) - len(kept)
    lineage.record_stage(
        "pipeline.filter_geo_error",
        unit="peers",
        records_in=len(batch),
        records_out=len(kept),
        drops={DropReason.GEO_ERROR: dropped},
    )
    return kept, dropped


def assign_asn_batch(
    batch: PeerBatch, routing_index: FlatLPMIndex
) -> Tuple[PeerBatch, int]:
    """Vectorised origin-AS resolution; drops unrouted rows."""
    asns = routing_index.lookup_many(batch.data["ip"])
    if asns.size and int(asns.max()) > np.iinfo(np.int32).max:
        raise ValueError("ASN exceeds the int32 column width")
    keep = asns != NO_MATCH
    kept = batch.subset(keep)
    kept.data["asn"] = asns[keep].astype(np.int32)
    kept.data["flags"] |= FLAG_ROUTED
    dropped = len(batch) - len(kept)
    lineage.record_stage(
        "pipeline.grouping",
        unit="peers",
        records_in=len(batch),
        records_out=len(kept),
        drops={DropReason.UNROUTED: dropped},
    )
    return kept, dropped


def group_slices(asns: np.ndarray) -> List[Tuple[int, np.ndarray]]:
    """``(asn, row-indices)`` per AS, ASNs ascending, rows in order.

    The stable argsort keeps each AS's rows in original batch order,
    matching the object path's ``np.flatnonzero`` partitioning exactly.
    """
    order = np.argsort(asns, kind="stable")
    ordered = asns[order]
    uniq, starts = np.unique(ordered, return_index=True)
    bounds = np.append(starts, ordered.size)
    return [
        (int(uniq[i]), order[bounds[i]:bounds[i + 1]])
        for i in range(uniq.size)
    ]
