"""Synthetic end-user population generation.

Places every end-user of every eyeball (and content) AS:

1. the user's PoP is drawn from the AS's customer-weight distribution,
2. their home is scattered around the PoP's city,
3. the home is snapped to the city's nearest zip-code centroid (the
   geo-database resolution the paper describes), and
4. users sharing an (AS, city, zip) cell are packed into aligned
   address blocks carved from the AS's prefixes.

The block is the unit the synthetic geo databases annotate, so database
errors are correlated within a block — as they are in real databases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..geo.coords import jitter_around
from ..geo.regions import City
from ..geo.world import World
from ..geo.zipgrid import ZipGrid
from ..net.asn import ASNode
from ..net.ecosystem import ASEcosystem
from ..net.ip import MAX_IPV4, Prefix
from ..obs import telemetry as obs
from ..obs.progress import tracker


@dataclass(frozen=True)
class AddressBlock:
    """An aligned address block whose users share one (AS, city, zip)."""

    prefix: Prefix
    asn: int
    city_key: str
    zip_lat: float
    zip_lon: float


@dataclass
class UserPopulation:
    """All synthetic users, stored column-wise for scale.

    ``user_ips[i]`` is user *i*'s address and ``user_block[i]`` indexes
    into ``blocks``.  Everything else (AS, true location) is derived
    from the block.
    """

    world: World
    blocks: List[AddressBlock]
    user_ips: np.ndarray
    user_block: np.ndarray
    _block_asn: np.ndarray = field(init=False, repr=False)
    _block_lat: np.ndarray = field(init=False, repr=False)
    _block_lon: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.user_ips.shape != self.user_block.shape:
            raise ValueError("user arrays must be parallel")
        self._block_asn = np.array([b.asn for b in self.blocks], dtype=np.int64)
        self._block_lat = np.array([b.zip_lat for b in self.blocks], dtype=float)
        self._block_lon = np.array([b.zip_lon for b in self.blocks], dtype=float)

    def __len__(self) -> int:
        return int(self.user_ips.size)

    @property
    def user_asn(self) -> np.ndarray:
        """Ground-truth AS of every user."""
        return self._block_asn[self.user_block]

    @property
    def true_lat(self) -> np.ndarray:
        """Ground-truth (zip-resolution) latitude of every user."""
        return self._block_lat[self.user_block]

    @property
    def true_lon(self) -> np.ndarray:
        return self._block_lon[self.user_block]

    def users_of_as(self, asn: int) -> np.ndarray:
        """Indices of the users belonging to one AS."""
        in_as = self._block_asn == int(asn)
        return np.flatnonzero(in_as[self.user_block])

    def gather_by_as(self, value_of: Callable[[int], float]) -> np.ndarray:
        """``value_of(asn)`` for every user, evaluated once per AS.

        The per-AS values reach the users through the block column, so
        the cost is one call per distinct AS plus an O(blocks + users)
        gather: no per-AS scan of the users and no per-user sort.
        """
        asns, block_slot = np.unique(self._block_asn, return_inverse=True)
        per_as = np.array([value_of(int(asn)) for asn in asns], dtype=float)
        return per_as[block_slot][self.user_block]


@dataclass(frozen=True)
class PopulationConfig:
    """Knobs of the population generator."""

    seed: int = 7
    #: Preferred block capacity in addresses (blocks shrink for small
    #: zip groups so address space is not wasted).
    block_capacity: int = 64
    #: Home scatter around the city centre, as a fraction of city radius.
    scatter_fraction: float = 0.6

    def __post_init__(self) -> None:
        if self.block_capacity < 2 or self.block_capacity & (self.block_capacity - 1):
            raise ValueError("block capacity must be a power of two >= 2")
        if self.scatter_fraction <= 0:
            raise ValueError("scatter fraction must be positive")


class _BlockCarver:
    """Carves aligned sub-prefixes sequentially out of an AS's prefixes."""

    def __init__(self, prefixes: List[Prefix]) -> None:
        self._prefixes = list(prefixes)
        self._index = 0
        self._cursor = self._prefixes[0].first if self._prefixes else 0

    def carve(self, host_count: int, max_capacity: int) -> Prefix:
        """Smallest aligned block holding ``min(host_count, max_capacity)``
        addresses; advances through the AS's prefixes."""
        want = min(host_count, max_capacity)
        size = 1
        while size < want:
            size *= 2
        length = 32 - size.bit_length() + 1
        while self._index < len(self._prefixes):
            parent = self._prefixes[self._index]
            start = (self._cursor + size - 1) & ~(size - 1) & MAX_IPV4
            if start >= parent.first and start + size - 1 <= parent.last:
                self._cursor = start + size
                return Prefix(start, max(length, parent.length))
            self._index += 1
            if self._index < len(self._prefixes):
                self._cursor = self._prefixes[self._index].first
        raise MemoryError("AS address space exhausted while packing users")


def _scatter_users(
    city: City, count: int, config: PopulationConfig, rng: np.random.Generator,
    zipgrid: ZipGrid,
) -> np.ndarray:
    """Zip index for each of ``count`` users homed in ``city``."""
    sigma = city.radius_km * config.scatter_fraction
    lats, lons = jitter_around(
        np.full(count, city.lat), np.full(count, city.lon), sigma, rng
    )
    zlats, zlons = zipgrid.centroids(city)
    if zlats.size == 1:
        return np.zeros(count, dtype=np.int64)
    cos_lat = np.cos(np.radians(city.lat))
    dx = (zlons[None, :] - np.asarray(lons)[:, None]) * cos_lat
    dy = zlats[None, :] - np.asarray(lats)[:, None]
    return np.argmin(dx * dx + dy * dy, axis=1).astype(np.int64)


def generate_population(
    ecosystem: ASEcosystem,
    config: PopulationConfig = PopulationConfig(),
    zipgrid: Optional[ZipGrid] = None,
) -> UserPopulation:
    """Generate the full user population of an ecosystem."""
    with obs.span("crawl.generate_population"):
        return _generate_population(ecosystem, config, zipgrid)


def _generate_population(
    ecosystem: ASEcosystem,
    config: PopulationConfig,
    zipgrid: Optional[ZipGrid],
) -> UserPopulation:
    zipgrid = zipgrid or ZipGrid()
    rng = np.random.default_rng(config.seed)
    world = ecosystem.world
    blocks: List[AddressBlock] = []
    ip_chunks: List[np.ndarray] = []
    block_chunks: List[np.ndarray] = []

    progress = tracker(
        "crawl.generate_population",
        total=len(ecosystem.as_nodes),
        unit="ases",
    )
    for asn in sorted(ecosystem.as_nodes):
        progress.advance()
        node: ASNode = ecosystem.as_nodes[asn]
        if node.user_count <= 0:
            continue
        customer_pops = node.customer_pops
        if not customer_pops:
            continue
        weights = np.array([p.customer_weight for p in customer_pops], dtype=float)
        weights /= weights.sum()
        per_pop = rng.multinomial(node.user_count, weights)
        carver = _BlockCarver(ecosystem.prefixes_of(asn))
        for pop, count in zip(customer_pops, per_pop):
            if count == 0:
                continue
            city = world.city(pop.city_key)
            zip_indices = _scatter_users(city, int(count), config, rng, zipgrid)
            zlats, zlons = zipgrid.centroids(city)
            zip_ids, zip_counts = np.unique(zip_indices, return_counts=True)
            for zip_idx, group in zip(zip_ids, zip_counts):
                remaining = int(group)
                while remaining > 0:
                    block_prefix = carver.carve(remaining, config.block_capacity)
                    take = min(remaining, block_prefix.size)
                    block = AddressBlock(
                        prefix=block_prefix,
                        asn=asn,
                        city_key=city.key,
                        zip_lat=float(zlats[zip_idx]),
                        zip_lon=float(zlons[zip_idx]),
                    )
                    block_index = len(blocks)
                    blocks.append(block)
                    ips = np.arange(
                        block_prefix.first, block_prefix.first + take, dtype=np.int64
                    )
                    ip_chunks.append(ips)
                    block_chunks.append(np.full(take, block_index, dtype=np.int64))
                    remaining -= take

    progress.finish()
    if ip_chunks:
        user_ips = np.concatenate(ip_chunks)
        user_block = np.concatenate(block_chunks)
    else:
        user_ips = np.empty(0, dtype=np.int64)
        user_block = np.empty(0, dtype=np.int64)
    return UserPopulation(
        world=world, blocks=blocks, user_ips=user_ips, user_block=user_block
    )
