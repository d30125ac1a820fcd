"""Application-specific crawl protocols.

The paper's three applications are crawled in structurally different
ways, and each way misses users differently:

* **Kad** is a DHT: a crawler sweeps zones of the ID space, so coverage
  is a near-uniform random sample of adopters — the fraction of zones
  swept, with no geographic structure.
* **Gnutella** is a two-tier overlay: a BFS over the ultrapeer layer
  finds ultrapeers and the leaves attached to them; leaves behind
  unreachable or unresponsive ultrapeers are never seen.
* **BitTorrent** is content-driven: crawlers scrape trackers of the
  most popular torrents, so users who only join unpopular swarms are
  invisible, and swarm membership — not topology — decides coverage.

Each protocol implements ``observe(adopters, rng) -> observed indices``
over the app's adopters; :func:`run_protocol_crawl` assembles a
:class:`~repro.crawl.crawler.PeerSample` using the protocol matched to
each application's name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..net.ecosystem import ASEcosystem
from ..obs import telemetry as obs
from ..obs.progress import tracker
from .apps import P2PApp, default_apps
from .crawler import PeerSample, user_rates
from .population import UserPopulation


@dataclass(frozen=True)
class KadProtocol:
    """ID-space zone sweeps.

    Adopters get uniform IDs in ``[0, 1)``; the crawler sweeps
    ``zones_swept`` of ``zone_count`` equal zones and observes every
    responsive adopter whose ID falls inside a swept zone.
    """

    zone_count: int = 64
    zones_swept: int = 48
    response_prob: float = 0.9

    def __post_init__(self) -> None:
        if not 1 <= self.zones_swept <= self.zone_count:
            raise ValueError("zones swept must be within the zone count")
        if not 0.0 < self.response_prob <= 1.0:
            raise ValueError("response probability must be in (0, 1]")

    def observe(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n == 0:
            return np.empty(0, dtype=np.int64)
        ids = rng.random(n)
        swept = rng.choice(self.zone_count, size=self.zones_swept,
                           replace=False)
        zone = np.minimum(
            (ids * self.zone_count).astype(np.int64), self.zone_count - 1
        )
        in_swept = np.isin(zone, swept)
        responsive = rng.random(n) < self.response_prob
        return np.flatnonzero(in_swept & responsive)


@dataclass(frozen=True)
class GnutellaProtocol:
    """Two-tier ultrapeer BFS.

    A random ``ultrapeer_fraction`` of adopters form the searchable
    layer (random graph of mean degree ``ultrapeer_degree``); leaves
    attach to 1-``max_leaf_links`` ultrapeers.  The crawl BFSes the
    ultrapeer layer from ``bootstrap_count`` seeds; a reached,
    responsive ultrapeer reveals itself, its ultrapeer neighbours and
    its leaves.
    """

    ultrapeer_fraction: float = 0.15
    ultrapeer_degree: float = 6.0
    max_leaf_links: int = 3
    response_prob: float = 0.85
    bootstrap_count: int = 5

    def __post_init__(self) -> None:
        if not 0.0 < self.ultrapeer_fraction <= 1.0:
            raise ValueError("ultrapeer fraction must be in (0, 1]")
        if self.ultrapeer_degree < 1:
            raise ValueError("ultrapeer degree must be at least 1")
        if self.max_leaf_links < 1:
            raise ValueError("leaves need at least one link")
        if not 0.0 < self.response_prob <= 1.0:
            raise ValueError("response probability must be in (0, 1]")
        if self.bootstrap_count < 1:
            raise ValueError("need at least one bootstrap")

    def observe(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n == 0:
            return np.empty(0, dtype=np.int64)
        is_ultra = rng.random(n) < self.ultrapeer_fraction
        ultras = np.flatnonzero(is_ultra)
        if ultras.size == 0:
            ultras = np.array([int(rng.integers(n))])
            is_ultra[ultras[0]] = True
        u = ultras.size
        # Random ultrapeer graph.
        adjacency: List[List[int]] = [[] for _ in range(u)]
        links = rng.poisson(self.ultrapeer_degree / 2.0, u)
        for i in range(u):
            for _ in range(int(links[i])):
                j = int(rng.integers(u))
                if j != i:
                    adjacency[i].append(j)
                    adjacency[j].append(i)
        # Leaves attach to ultrapeers.
        leaves = np.flatnonzero(~is_ultra)
        leaf_links: Dict[int, List[int]] = {i: [] for i in range(u)}
        for leaf in leaves:
            k = int(rng.integers(1, self.max_leaf_links + 1))
            for parent in rng.integers(0, u, k):
                leaf_links[int(parent)].append(int(leaf))
        # BFS over ultrapeers.
        responsive = rng.random(u) < self.response_prob
        seeds = rng.choice(u, size=min(self.bootstrap_count, u),
                           replace=False)
        seen_ultra = np.zeros(u, dtype=bool)
        seen_ultra[seeds] = True
        frontier = [int(s) for s in seeds]
        observed = set()
        while frontier:
            node = frontier.pop()
            observed.add(int(ultras[node]))
            if not responsive[node]:
                continue
            observed.update(leaf_links[node])
            for neighbour in adjacency[node]:
                if not seen_ultra[neighbour]:
                    seen_ultra[neighbour] = True
                    frontier.append(neighbour)
        return np.array(sorted(observed), dtype=np.int64)


@dataclass(frozen=True)
class BitTorrentProtocol:
    """Tracker scrapes of popular swarms.

    ``torrent_count`` torrents have Zipf popularity; each adopter joins
    1-``max_swarms`` torrents drawn by popularity.  The crawler scrapes
    the ``scraped_torrents`` most popular trackers and observes a
    ``scrape_coverage`` fraction of each scraped swarm.
    """

    torrent_count: int = 500
    scraped_torrents: int = 100
    max_swarms: int = 4
    scrape_coverage: float = 0.8
    zipf_exponent: float = 1.1

    def __post_init__(self) -> None:
        if not 1 <= self.scraped_torrents <= self.torrent_count:
            raise ValueError("scraped torrents must be within the catalogue")
        if self.max_swarms < 1:
            raise ValueError("users join at least one swarm")
        if not 0.0 < self.scrape_coverage <= 1.0:
            raise ValueError("scrape coverage must be in (0, 1]")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf exponent must be positive")

    def observe(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n == 0:
            return np.empty(0, dtype=np.int64)
        ranks = np.arange(1, self.torrent_count + 1, dtype=float)
        popularity = ranks**-self.zipf_exponent
        popularity /= popularity.sum()
        observed = np.zeros(n, dtype=bool)
        swarm_counts = rng.integers(1, self.max_swarms + 1, n)
        # Scraped set = the most popular torrents (trackers know sizes).
        scraped = set(range(self.scraped_torrents))
        for i in range(n):
            torrents = rng.choice(
                self.torrent_count, size=int(swarm_counts[i]),
                replace=False, p=popularity,
            )
            for torrent in torrents:
                if int(torrent) in scraped and rng.random() < self.scrape_coverage:
                    observed[i] = True
                    break
        return np.flatnonzero(observed)


@dataclass(frozen=True)
class ProtocolCrawlConfig:
    """Protocol assignment per application name."""

    seed: int = 19
    apps: Tuple[P2PApp, ...] = ()
    kad: KadProtocol = field(default_factory=KadProtocol)
    gnutella: GnutellaProtocol = field(default_factory=GnutellaProtocol)
    bittorrent: BitTorrentProtocol = field(default_factory=BitTorrentProtocol)

    def resolved_apps(self) -> Tuple[P2PApp, ...]:
        return self.apps if self.apps else default_apps()

    def protocol_for(self, app_name: str):
        lowered = app_name.lower()
        if "kad" in lowered:
            return self.kad
        if "gnutella" in lowered:
            return self.gnutella
        if "torrent" in lowered:
            return self.bittorrent
        raise KeyError(f"no protocol registered for app {app_name!r}")


def run_protocol_crawl(
    ecosystem: ASEcosystem,
    population: UserPopulation,
    config: ProtocolCrawlConfig = ProtocolCrawlConfig(),
) -> PeerSample:
    """Crawl each application with its own protocol model."""
    with obs.span("crawl.protocol"):
        return _run_protocol_crawl(ecosystem, population, config)


def _run_protocol_crawl(
    ecosystem: ASEcosystem,
    population: UserPopulation,
    config: ProtocolCrawlConfig,
) -> PeerSample:
    apps = config.resolved_apps()
    rng = np.random.default_rng(config.seed)
    n_users = len(population)
    membership = np.zeros((n_users, len(apps)), dtype=bool)

    with tracker(
        "crawl.protocol", total=len(apps), unit="apps"
    ) as progress:
        for column, app in enumerate(apps):
            draws = rng.random(n_users)
            rate = user_rates(
                ecosystem, population, app.adoption_rate_for_as, config.seed
            )
            adopters = np.flatnonzero(draws < rate)
            protocol = config.protocol_for(app.name)
            observed_local = protocol.observe(adopters.size, rng)
            membership[adopters[observed_local], column] = True
            progress.advance()

    return PeerSample.observed("crawl.protocol", population, apps, membership)
