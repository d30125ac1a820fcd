"""Multi-month crawl campaigns (paper Section 2).

"We crawl three large-scale P2P applications ... during the months of
January to June of 2009 to obtain more than 89.1 million unique IP
addresses."  A six-month campaign sees more unique peers than any
single snapshot because (a) each monthly crawl observes only part of an
application's user base and (b) the user base itself churns month to
month.  This module models both effects and produces the deduplicated
union the paper's pipeline starts from.
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
class CampaignConfig:
    """Parameters of a multi-month crawl."""

    seed: int = 13
    months: int = 6
    apps: Tuple[P2PApp, ...] = ()
    #: Fraction of an app's current users one monthly crawl observes.
    monthly_observation: float = 0.5
    #: Per-month turnover of an app's user base.
    churn: float = 0.15

    def __post_init__(self) -> None:
        if self.months < 1:
            raise ValueError("campaign needs at least one month")
        if not 0.0 < self.monthly_observation <= 1.0:
            raise ValueError("monthly observation must be in (0, 1]")
        if not 0.0 <= self.churn <= 1.0:
            raise ValueError("churn must be a probability")

    def resolved_apps(self) -> Tuple[P2PApp, ...]:
        return self.apps if self.apps else default_apps()


@dataclass
class CrawlCampaign:
    """All monthly snapshots plus their deduplicated union."""

    monthly: List[PeerSample]
    union: PeerSample

    @property
    def months(self) -> int:
        return len(self.monthly)

    def unique_peers(self) -> int:
        """The paper's '89.1 million unique IP addresses' figure."""
        return len(self.union)

    def monthly_counts(self) -> List[int]:
        return [len(sample) for sample in self.monthly]

    def new_peers_per_month(self) -> List[int]:
        """Peers first observed in each month (diminishing over time)."""
        seen = np.zeros(len(self.union.population), dtype=bool)
        counts = []
        for sample in self.monthly:
            fresh = ~seen[sample.user_index]
            counts.append(int(fresh.sum()))
            seen[sample.user_index] = True
        return counts


def _evolve_adoption(
    adopters: np.ndarray,
    rate: np.ndarray,
    churn: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One month of user churn, stationary in the adoption rate.

    Adopters quit with probability ``churn``; non-adopters join with the
    probability that keeps the expected adoption at their ``rate``.
    """
    join_prob = np.minimum(churn * rate / np.maximum(1.0 - rate, 1e-9), 1.0)
    draws = rng.random(adopters.size)
    quit_mask = adopters & (draws < churn)
    join_mask = ~adopters & (draws < join_prob)
    return (adopters & ~quit_mask) | join_mask


def run_campaign(
    ecosystem: ASEcosystem,
    population: UserPopulation,
    config: CampaignConfig = CampaignConfig(),
) -> CrawlCampaign:
    """Run the monthly crawls and assemble their union."""
    with obs.span("crawl.campaign"):
        return _run_campaign(ecosystem, population, config)


def _run_campaign(
    ecosystem: ASEcosystem,
    population: UserPopulation,
    config: CampaignConfig,
) -> CrawlCampaign:
    apps = config.resolved_apps()
    rng = np.random.default_rng(config.seed)
    n_users = len(population)
    rates = [
        user_rates(ecosystem, population, app.adoption_rate_for_as, config.seed)
        for app in apps
    ]
    # Initial adoption per app.
    adoption = np.stack([rng.random(n_users) < rate for rate in rates], axis=1)
    # Churn draws one value per user with a positive rate, AS by AS in
    # ascending AS order and in index order within an AS: one draw per
    # app and month yields exactly the values of one draw per (app, AS).
    by_as = np.argsort(population.user_asn, kind="stable")
    churning = [by_as[rate[by_as] > 0.0] for rate in rates]

    monthly: List[PeerSample] = []
    union_membership = np.zeros((n_users, len(apps)), dtype=bool)
    with tracker(
        "crawl.campaign", total=config.months, unit="months"
    ) as progress:
        for _month in range(config.months):
            observed = adoption & (
                rng.random((n_users, len(apps))) < config.monthly_observation
            )
            union_membership |= observed
            index = np.flatnonzero(observed.any(axis=1))
            monthly.append(
                PeerSample(
                    population=population,
                    app_names=tuple(app.name for app in apps),
                    user_index=index,
                    membership=observed[index],
                )
            )
            # Churn between months, per app (stationary rates).
            for column, (users, rate) in enumerate(zip(churning, rates)):
                adoption[users, column] = _evolve_adoption(
                    adoption[users, column], rate[users], config.churn, rng
                )
            progress.advance()

    union = PeerSample.observed(
        "crawl.campaign", population, apps, union_membership
    )
    return CrawlCampaign(monthly=monthly, union=union)
