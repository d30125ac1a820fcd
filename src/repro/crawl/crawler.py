"""P2P crawl simulation.

Simulates the paper's six-month crawl of Kad, BitTorrent and Gnutella:
each synthetic user independently runs each application with the app's
per-AS rate, and the crawl observes those users (observation probability
is folded into the rate).  The result is the paper's raw input — a set
of unique IP addresses per application, with the union forming the
initial peer dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..net.ecosystem import ASEcosystem
from ..obs import lineage
from ..obs import telemetry as obs
from ..obs.lineage import DropReason
from ..obs.progress import tracker
from .apps import P2PApp, default_apps
from .population import UserPopulation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .bias import SamplingBias


@dataclass
class PeerSample:
    """Crawl output: which users were seen, and by which application.

    ``user_index`` indexes into the originating
    :class:`~repro.crawl.population.UserPopulation`; ``membership`` is a
    boolean matrix of shape ``(n_peers, n_apps)``.  A peer appears once
    regardless of how many applications it was seen in (the paper's
    "unique IP addresses").
    """

    population: UserPopulation
    app_names: Tuple[str, ...]
    user_index: np.ndarray
    membership: np.ndarray

    def __post_init__(self) -> None:
        if self.membership.shape != (self.user_index.size, len(self.app_names)):
            raise ValueError("membership matrix shape mismatch")

    def __len__(self) -> int:
        return int(self.user_index.size)

    @classmethod
    def observed(
        cls,
        stage: str,
        population: UserPopulation,
        apps: Sequence[P2PApp],
        membership: np.ndarray,
    ) -> "PeerSample":
        """The users a crawl saw, from its full-population membership.

        ``membership`` has one row per population user and one column
        per app; every user with a ``True`` in their row is kept.  The
        crawl's funnel ``stage`` is recorded, with every other user
        dropped as ``NOT_OBSERVED``.
        """
        n_users = len(population)
        user_index = np.flatnonzero(membership.any(axis=1))
        lineage.record_stage(
            stage,
            unit="users",
            records_in=n_users,
            records_out=int(user_index.size),
            drops={DropReason.NOT_OBSERVED: n_users - int(user_index.size)},
        )
        return cls(
            population=population,
            app_names=tuple(app.name for app in apps),
            user_index=user_index,
            membership=membership[user_index],
        )

    @property
    def ips(self) -> np.ndarray:
        """Observed IP addresses (unique)."""
        return self.population.user_ips[self.user_index]

    @property
    def true_asn(self) -> np.ndarray:
        """Ground-truth AS per peer (oracle view, for validation only)."""
        return self.population.user_asn[self.user_index]

    def count_by_app(self) -> Dict[str, int]:
        """Peers seen per application (a peer may count towards several
        applications — Table 1's per-source columns)."""
        return {
            name: int(self.membership[:, i].sum())
            for i, name in enumerate(self.app_names)
        }

    def peers_in_app(self, app_name: str) -> np.ndarray:
        """Population indices of the peers seen in one application."""
        column = self.app_names.index(app_name)
        return self.user_index[self.membership[:, column]]

    def chunks(self, chunk_size: int):
        """The sample as fixed-size zero-copy chunks, in peer order.

        The streaming-pipeline adapter (see ``repro.pipeline.stream``
        and ``docs/DATA_MODEL.md``): each yielded
        :class:`~repro.crawl.chunks.PeerChunk` views this sample's
        columns, so chunking an in-memory sample allocates nothing.
        """
        from .chunks import iter_sample_chunks  # deferred: imports us

        return iter_sample_chunks(self, chunk_size)


@dataclass(frozen=True)
class CrawlConfig:
    """Crawl parameters."""

    seed: int = 11
    apps: Tuple[P2PApp, ...] = ()

    def resolved_apps(self) -> Tuple[P2PApp, ...]:
        return self.apps if self.apps else default_apps()


def user_rates(
    ecosystem: ASEcosystem,
    population: UserPopulation,
    rate_for_as: Callable[[int, str, int], float],
    seed: int,
) -> np.ndarray:
    """Every user's rate ``rate_for_as(asn, continent_code, seed)``.

    ``rate_for_as`` is an app's :meth:`~repro.crawl.apps.P2PApp.rate_for_as`
    or :meth:`~repro.crawl.apps.P2PApp.adoption_rate_for_as`; it is
    evaluated once per AS, and each user carries their AS's rate.
    """
    as_nodes = ecosystem.as_nodes
    return population.gather_by_as(
        lambda asn: rate_for_as(asn, as_nodes[asn].continent_code, seed)
    )


def run_crawl(
    ecosystem: ASEcosystem,
    population: UserPopulation,
    config: CrawlConfig = CrawlConfig(),
    bias: Optional["SamplingBias"] = None,
) -> PeerSample:
    """Crawl the population and return the observed peer sample.

    ``bias`` optionally applies per-(AS, city) penetration multipliers
    (see :mod:`repro.crawl.bias` — the paper's Section 4.3 regimes).
    """
    apps = config.resolved_apps()
    with obs.span("crawl.run"):
        rng = np.random.default_rng(config.seed)
        n_users = len(population)
        membership = np.zeros((n_users, len(apps)), dtype=bool)
        bias_multiplier = bias.per_user(population) if bias is not None else None

        with tracker("crawl.run", total=len(apps), unit="apps") as progress:
            for app_column, app in enumerate(apps):
                draws = rng.random(n_users)
                rate = user_rates(
                    ecosystem, population, app.rate_for_as, config.seed
                )
                if bias_multiplier is not None:
                    rate = np.minimum(rate * bias_multiplier, 1.0)
                membership[:, app_column] = draws < rate
                progress.advance()

        sample = PeerSample.observed("crawl.run", population, apps, membership)
        obs.gauge("crawl.users", n_users)
        obs.count("crawl.peers_sampled", len(sample))
        for name, count in sample.count_by_app().items():
            obs.count(f"crawl.peers.{name}", count)
        return sample


def crawl_union_size(samples: Sequence[PeerSample]) -> int:
    """Unique peers across several crawl snapshots of one population."""
    if not samples:
        return 0
    population = samples[0].population
    union: np.ndarray = np.zeros(len(population), dtype=bool)
    for sample in samples:
        if sample.population is not population:
            raise ValueError("samples must share a population")
        union[sample.user_index] = True
    return int(union.sum())
