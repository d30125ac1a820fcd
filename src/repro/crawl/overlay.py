"""Overlay-graph crawling (structural observation model).

The default crawler observes each application user independently
(Bernoulli).  Real P2P crawls are *graph walks*: a crawler bootstraps
from a few well-known peers and repeatedly asks reached peers for their
neighbour lists, so coverage depends on overlay structure — peers in
small components or behind unresponsive neighbours are never found.

This module builds a random overlay among each application's adopters
(degree-bounded, locality-biased like real DHT/gossip overlays) and
crawls it by breadth-first neighbour exchange with per-peer response
probabilities.  Plugging its output into the pipeline shows whether the
paper's results are robust to the crawl's structural bias — a sharper
version of the Section 4.3 sampling-bias discussion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..net.ecosystem import ASEcosystem
from ..obs import telemetry as obs
from ..obs.progress import tracker
from .apps import P2PApp, default_apps
from .crawler import PeerSample, user_rates
from .population import UserPopulation


@dataclass(frozen=True)
class OverlayConfig:
    """Overlay construction and crawl parameters."""

    seed: int = 17
    apps: Tuple[P2PApp, ...] = ()
    #: Mean overlay degree (each adopter links to ~this many others).
    mean_degree: float = 8.0
    #: Fraction of a peer's links chosen inside its own AS (locality).
    local_link_fraction: float = 0.3
    #: Probability a reached peer answers the crawler's query.
    response_prob: float = 0.85
    #: Bootstrap peers per application.
    bootstrap_count: int = 10

    def __post_init__(self) -> None:
        if self.mean_degree < 1:
            raise ValueError("mean degree must be at least 1")
        if not 0.0 <= self.local_link_fraction <= 1.0:
            raise ValueError("local link fraction must be a probability")
        if not 0.0 < self.response_prob <= 1.0:
            raise ValueError("response probability must be in (0, 1]")
        if self.bootstrap_count < 1:
            raise ValueError("need at least one bootstrap peer")

    def resolved_apps(self) -> Tuple[P2PApp, ...]:
        return self.apps if self.apps else default_apps()


def _build_overlay(
    adopters: np.ndarray,
    adopter_asn: np.ndarray,
    config: OverlayConfig,
    rng: np.random.Generator,
) -> List[np.ndarray]:
    """Adjacency lists (indices into ``adopters``) for one app's overlay.

    Each node draws ``Poisson(mean_degree/2)`` outgoing links — a share
    of them to peers in the same AS (locality), the rest uniform — and
    links are used bidirectionally, giving mean total degree
    ``mean_degree``.
    """
    n = adopters.size
    neighbours: List[List[int]] = [[] for _ in range(n)]
    if n <= 1:
        return [np.array(v, dtype=np.int64) for v in neighbours]
    # Group adopters by AS for locality-biased link targets.
    order = np.argsort(adopter_asn, kind="stable")
    sorted_asn = adopter_asn[order]
    boundaries = np.flatnonzero(np.diff(sorted_asn)) + 1
    groups = np.split(order, boundaries)
    group_of = np.empty(n, dtype=np.int64)
    for gi, group in enumerate(groups):
        group_of[group] = gi

    out_degree = rng.poisson(config.mean_degree / 2.0, n)
    for i in range(n):
        k = int(out_degree[i])
        if k == 0:
            continue
        local = rng.random(k) < config.local_link_fraction
        n_local = int(local.sum())
        targets: List[int] = []
        group = groups[group_of[i]]
        if n_local and group.size > 1:
            picks = rng.integers(0, group.size, n_local)
            targets.extend(int(group[p]) for p in picks)
        n_global = k - n_local
        if n_global:
            picks = rng.integers(0, n, n_global)
            targets.extend(int(p) for p in picks)
        for j in targets:
            if j == i:
                continue
            neighbours[i].append(j)
            neighbours[j].append(i)
    return [np.array(sorted(set(v)), dtype=np.int64) for v in neighbours]


def _crawl_overlay(
    neighbours: List[np.ndarray],
    config: OverlayConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """BFS neighbour-exchange crawl; returns observed node indices.

    A node is *observed* when some responsive peer lists it (or it is a
    bootstrap).  Only responsive nodes reveal their neighbour lists.
    """
    n = len(neighbours)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    responsive = rng.random(n) < config.response_prob
    bootstrap = rng.choice(n, size=min(config.bootstrap_count, n),
                           replace=False)
    observed = np.zeros(n, dtype=bool)
    expanded = np.zeros(n, dtype=bool)
    frontier = [int(b) for b in bootstrap]
    observed[bootstrap] = True
    while frontier:
        node = frontier.pop()
        if expanded[node] or not responsive[node]:
            continue
        expanded[node] = True
        for neighbour in neighbours[node]:
            j = int(neighbour)
            if not observed[j]:
                observed[j] = True
                frontier.append(j)
            elif not expanded[j]:
                frontier.append(j)
    return np.flatnonzero(observed)


def run_overlay_crawl(
    ecosystem: ASEcosystem,
    population: UserPopulation,
    config: OverlayConfig = OverlayConfig(),
) -> PeerSample:
    """Crawl every application's overlay and return the observed sample."""
    with obs.span("crawl.overlay"):
        return _run_overlay_crawl(ecosystem, population, config)


def _run_overlay_crawl(
    ecosystem: ASEcosystem,
    population: UserPopulation,
    config: OverlayConfig,
) -> PeerSample:
    apps = config.resolved_apps()
    rng = np.random.default_rng(config.seed)
    n_users = len(population)
    user_asn = population.user_asn
    membership = np.zeros((n_users, len(apps)), dtype=bool)

    with tracker(
        "crawl.overlay", total=len(apps), unit="apps"
    ) as progress:
        for column, app in enumerate(apps):
            draws = rng.random(n_users)
            rate = user_rates(
                ecosystem, population, app.adoption_rate_for_as, config.seed
            )
            adopters = np.flatnonzero(draws < rate)
            neighbours = _build_overlay(
                adopters, user_asn[adopters], config, rng
            )
            observed_local = _crawl_overlay(neighbours, config, rng)
            membership[adopters[observed_local], column] = True
            progress.advance()

    return PeerSample.observed("crawl.overlay", population, apps, membership)
