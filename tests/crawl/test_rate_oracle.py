"""The crawls' one per-AS rate draw against its slow oracle.

Every crawl (plain, campaign, overlay, protocol) draws each user's
membership from a rate fixed per (app, AS).  The crawls evaluate that
rate once per AS and gather it to the users through the population's
block column.  The reference functions below are the original
per-(app, AS) loops, one mask over every user per pair; the crawls
must reproduce them byte for byte.
"""

import numpy as np
import pytest

from repro.crawl.apps import P2PApp
from repro.crawl.bias import SamplingBias
from repro.crawl.campaign import CampaignConfig, run_campaign
from repro.crawl.crawler import CrawlConfig, PeerSample, run_crawl
from repro.crawl.overlay import (
    OverlayConfig,
    _build_overlay,
    _crawl_overlay,
    run_overlay_crawl,
)
from repro.crawl.population import UserPopulation
from repro.crawl.protocols import ProtocolCrawlConfig, run_protocol_crawl
from repro.obs import telemetry as obs

SEEDS = (3, 8)

#: The default apps, and apps absent from some continents, whose ASes
#: there have rate 0 (no draw of their own in the campaign's churn).
APP_SETS = {
    "default": (),
    "regional": (
        P2PApp(name="Kad-EU", penetration={"EU": 0.4}),
        P2PApp(name="Gnutella-NA-AS", penetration={"NA": 0.2, "AS": 0.1}),
    ),
}


# -- the reference loops -----------------------------------------------


def _reference_adoption(
    ecosystem, population, rate_for_as, seed, draws, multiplier=None
):
    """Per-user choice ``draws < rate``, one AS at a time."""
    user_asn = population.user_asn
    chosen = np.zeros(len(population), dtype=bool)
    for asn in np.unique(user_asn):
        node = ecosystem.as_nodes[int(asn)]
        rate = rate_for_as(int(asn), node.continent_code, seed)
        if rate <= 0.0:
            continue
        mask = user_asn == asn
        if multiplier is None:
            chosen[mask] = draws[mask] < rate
        else:
            chosen[mask] = draws[mask] < np.minimum(
                rate * multiplier[mask], 1.0
            )
    return chosen


def _observed(membership):
    index = np.flatnonzero(membership.any(axis=1))
    return index, membership[index]


def _reference_crawl(ecosystem, population, config, bias=None):
    apps = config.resolved_apps()
    rng = np.random.default_rng(config.seed)
    multiplier = bias.per_user(population) if bias is not None else None
    membership = np.zeros((len(population), len(apps)), dtype=bool)
    for column, app in enumerate(apps):
        draws = rng.random(len(population))
        membership[:, column] = _reference_adoption(
            ecosystem, population, app.rate_for_as, config.seed, draws,
            multiplier,
        )
    return _observed(membership)


def _reference_churn(adopters, rate, churn, rng):
    """One AS's month of churn at its scalar rate (no draw at rate 0)."""
    if rate <= 0.0:
        return np.zeros_like(adopters)
    join_prob = min(churn * rate / max(1.0 - rate, 1e-9), 1.0)
    draws = rng.random(adopters.size)
    quit_mask = adopters & (draws < churn)
    join_mask = ~adopters & (draws < join_prob)
    return (adopters & ~quit_mask) | join_mask


def _reference_campaign(ecosystem, population, config):
    apps = config.resolved_apps()
    rng = np.random.default_rng(config.seed)
    n_users = len(population)
    user_asn = population.user_asn
    asns = np.unique(user_asn)
    adoption = np.zeros((n_users, len(apps)), dtype=bool)
    for column, app in enumerate(apps):
        draws = rng.random(n_users)
        adoption[:, column] = _reference_adoption(
            ecosystem, population, app.adoption_rate_for_as, config.seed,
            draws,
        )
    monthly = []
    union = np.zeros_like(adoption)
    for _month in range(config.months):
        observed = adoption & (
            rng.random((n_users, len(apps))) < config.monthly_observation
        )
        union |= observed
        monthly.append(_observed(observed))
        for column, app in enumerate(apps):
            for asn in asns:
                node = ecosystem.as_nodes[int(asn)]
                rate = app.adoption_rate_for_as(
                    int(asn), node.continent_code, config.seed
                )
                mask = user_asn == asn
                adoption[mask, column] = _reference_churn(
                    adoption[mask, column], rate, config.churn, rng
                )
    return monthly, _observed(union)


def _reference_observe(ecosystem, population, config, observe):
    """Adoption draw per app, then ``observe(app, adopters, rng)``."""
    apps = config.resolved_apps()
    rng = np.random.default_rng(config.seed)
    membership = np.zeros((len(population), len(apps)), dtype=bool)
    for column, app in enumerate(apps):
        draws = rng.random(len(population))
        adopters = np.flatnonzero(_reference_adoption(
            ecosystem, population, app.adoption_rate_for_as, config.seed,
            draws,
        ))
        if adopters.size == 0:
            continue
        observed = observe(app, adopters, rng)
        membership[adopters[observed], column] = True
    return _observed(membership)


def _assert_same(sample, reference):
    index, membership = reference
    assert sample.user_index.dtype == index.dtype
    assert sample.user_index.tobytes() == index.tobytes()
    assert sample.membership.shape == membership.shape
    assert sample.membership.tobytes() == membership.tobytes()


# -- fixtures ----------------------------------------------------------


@pytest.fixture(scope="module")
def shuffled_population(small_population):
    """The small population with its users out of AS order.

    The generator emits users AS by AS, so only a hand-built population
    exercises the campaign's stable by-AS ordering.
    """
    order = np.random.default_rng(2).permutation(len(small_population))
    population = UserPopulation(
        world=small_population.world,
        blocks=small_population.blocks,
        user_ips=small_population.user_ips[order],
        user_block=small_population.user_block[order],
    )
    assert (np.diff(population.user_asn) < 0).any()
    return population


@pytest.fixture(params=["generated", "shuffled"])
def population(request, small_population, shuffled_population):
    if request.param == "generated":
        return small_population
    return shuffled_population


@pytest.fixture(scope="module")
def biases(small_ecosystem):
    """No bias, and both Section 4.3 regimes on one AS's top cities."""
    node = max(
        (n for n in small_ecosystem.eyeballs if len(n.customer_pops) >= 3),
        key=lambda n: n.user_count,
    )
    pops = sorted(node.customer_pops, key=lambda p: -p.customer_weight)
    cities = [pop.city_key for pop in pops[:2]]
    return {
        "none": None,
        "significant": SamplingBias.significant(node.asn, cities),
        "mild": SamplingBias.mild(node.asn, cities, factor=0.25),
    }


# -- the crawls against the oracle -------------------------------------


class TestCrawlsMatchTheOracle:
    @pytest.mark.parametrize("apps", sorted(APP_SETS))
    @pytest.mark.parametrize("bias_name", ["none", "significant", "mild"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_crawl(self, small_ecosystem, population, biases, seed,
                   bias_name, apps):
        config = CrawlConfig(seed=seed, apps=APP_SETS[apps])
        bias = biases[bias_name]
        _assert_same(
            run_crawl(small_ecosystem, population, config, bias=bias),
            _reference_crawl(small_ecosystem, population, config, bias),
        )

    @pytest.mark.parametrize("apps", sorted(APP_SETS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_campaign(self, small_ecosystem, population, seed, apps):
        config = CampaignConfig(seed=seed, months=4, apps=APP_SETS[apps])
        campaign = run_campaign(small_ecosystem, population, config)
        monthly, union = _reference_campaign(
            small_ecosystem, population, config
        )
        assert campaign.months == len(monthly)
        for sample, reference in zip(campaign.monthly, monthly):
            _assert_same(sample, reference)
        _assert_same(campaign.union, union)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_overlay(self, small_ecosystem, population, seed):
        config = OverlayConfig(seed=seed, mean_degree=3.0)
        user_asn = population.user_asn

        def observe(app, adopters, rng):
            neighbours = _build_overlay(
                adopters, user_asn[adopters], config, rng
            )
            return _crawl_overlay(neighbours, config, rng)

        _assert_same(
            run_overlay_crawl(small_ecosystem, population, config),
            _reference_observe(small_ecosystem, population, config, observe),
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_protocol(self, small_ecosystem, population, seed):
        config = ProtocolCrawlConfig(seed=seed)

        def observe(app, adopters, rng):
            return config.protocol_for(app.name).observe(adopters.size, rng)

        _assert_same(
            run_protocol_crawl(small_ecosystem, population, config),
            _reference_observe(small_ecosystem, population, config, observe),
        )


# -- the shared pieces -------------------------------------------------


class TestBlockColumnGather:
    def test_gather_by_as_equals_a_per_user_lookup(self, shuffled_population):
        values = {
            int(asn): float(asn) / 7.0
            for asn in np.unique(shuffled_population.user_asn)
        }
        gathered = shuffled_population.gather_by_as(values.__getitem__)
        expected = np.array(
            [values[int(asn)] for asn in shuffled_population.user_asn]
        )
        assert gathered.tobytes() == expected.tobytes()

    def test_gather_evaluates_once_per_as(self, small_population):
        calls = []
        small_population.gather_by_as(lambda asn: calls.append(asn) or 0.5)
        assert calls == sorted(set(calls))
        assert len(calls) == np.unique(small_population.user_asn).size

    def test_users_of_as_equals_the_user_mask(self, shuffled_population):
        user_asn = shuffled_population.user_asn
        for asn in np.unique(user_asn)[:5]:
            assert np.array_equal(
                shuffled_population.users_of_as(int(asn)),
                np.flatnonzero(user_asn == asn),
            )


class TestObservedSample:
    def test_keeps_seen_users_and_records_the_funnel(self, small_population):
        apps = CrawlConfig().resolved_apps()
        membership = np.zeros((len(small_population), len(apps)), bool)
        membership[[1, 4, 9], 0] = True
        membership[[4, 20], 2] = True
        with obs.capture() as telemetry:
            sample = PeerSample.observed(
                "crawl.test", small_population, apps, membership
            )
        assert sample.user_index.tolist() == [1, 4, 9, 20]
        assert sample.membership.tolist() == [
            [True, False, False],
            [True, False, True],
            [True, False, False],
            [False, False, True],
        ]
        assert sample.app_names == tuple(app.name for app in apps)
        stage = telemetry.funnel["crawl.test"]
        assert (stage.records_in, stage.records_out) == (
            len(small_population), 4
        )
        assert stage.drops == {"not_observed": len(small_population) - 4}

    def test_crawl_progress_counts_apps(self, small_ecosystem,
                                        small_population):
        with obs.capture() as telemetry:
            run_crawl(small_ecosystem, small_population, CrawlConfig(seed=1))
        assert telemetry.gauges["progress.crawl.run.total"] == 3
