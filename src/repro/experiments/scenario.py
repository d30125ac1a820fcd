"""End-to-end scenario assembly.

A :class:`Scenario` bundles everything the paper's evaluation needs —
world, ecosystem, user population, the two geo databases, the crawl
sample and the conditioned target dataset — built deterministically
from one :class:`ScenarioConfig`.  The experiment drivers (Table 1,
Figures 1-2, Sections 5-6) all start from a scenario.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.footprint import GeoFootprint, estimate_geo_footprint
from ..core.pop import DEFAULT_ALPHA, PoPFootprint, extract_pop_footprint
from ..crawl.crawler import CrawlConfig, PeerSample, run_crawl
from ..crawl.population import PopulationConfig, UserPopulation, generate_population
from ..exec import ParallelConfig
from ..geo.gazetteer import Gazetteer
from ..geo.world import World, WorldConfig, generate_world
from ..geodb.database import GeoDatabase
from ..geodb.error import (
    GeoErrorModel,
    default_primary_model,
    default_secondary_model,
)
from ..geodb.synth import build_database
from ..net.ecosystem import ASEcosystem, EcosystemConfig, generate_ecosystem
from ..obs import telemetry as obs
from ..obs.logconfig import get_logger, kv
from ..pipeline.dataset import (
    PipelineConfig,
    TargetDataset,
    build_target_dataset,
)
from ..pipeline.footprints import run_footprint_stage


@dataclass(frozen=True)
class ScenarioConfig:
    """All knobs of an end-to-end run, with two standard presets."""

    name: str = "default"
    world: WorldConfig = field(default_factory=WorldConfig)
    ecosystem: EcosystemConfig = field(default_factory=EcosystemConfig)
    population: PopulationConfig = field(default_factory=PopulationConfig)
    crawl: CrawlConfig = field(default_factory=CrawlConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    primary_model: GeoErrorModel = field(default_factory=default_primary_model)
    secondary_model: GeoErrorModel = field(default_factory=default_secondary_model)

    @classmethod
    def small(cls, seed: int = 5) -> "ScenarioConfig":
        """A seconds-scale scenario for tests."""
        return cls(
            name="small",
            world=WorldConfig(
                seed=seed,
                countries_per_continent=2,
                states_per_country=2,
                cities_per_state=3,
            ),
            ecosystem=EcosystemConfig(
                seed=seed + 1,
                eyeballs_per_country=4,
                tier2_per_continent=3,
                user_base_range=(1_200, 6_000),
            ),
            population=PopulationConfig(seed=seed + 2),
            crawl=CrawlConfig(seed=seed + 3),
            pipeline=PipelineConfig(min_peers_per_as=250),
        )

    @classmethod
    def default(cls, seed: int = 5) -> "ScenarioConfig":
        """The paper-shaped scenario used by benchmarks and examples."""
        return cls(
            name="default",
            world=WorldConfig(seed=seed),
            ecosystem=EcosystemConfig(
                seed=seed + 1,
                eyeballs_per_country=8,
                user_base_range=(2_000, 25_000),
            ),
            population=PopulationConfig(seed=seed + 2),
            crawl=CrawlConfig(seed=seed + 3),
            pipeline=PipelineConfig(min_peers_per_as=1000),
        )


@dataclass
class Scenario:
    """A fully-built end-to-end run."""

    config: ScenarioConfig
    world: World
    gazetteer: Gazetteer
    ecosystem: ASEcosystem
    population: UserPopulation
    primary_db: GeoDatabase
    secondary_db: GeoDatabase
    sample: PeerSample
    dataset: TargetDataset

    def peer_locations(self, asn: int) -> np.ndarray:
        """Mapped (lat, lon) columns of one target AS's peers."""
        target = self.dataset.ases[asn]
        return np.column_stack([target.group.lat, target.group.lon])

    def geo_footprint(
        self,
        asn: int,
        bandwidth_km: float,
        cell_km: Optional[float] = None,
        method: str = "fft",
    ) -> GeoFootprint:
        """KDE geo-footprint of one target AS from its *mapped* peers —
        the paper's pipeline, error and all."""
        target = self.dataset.ases[asn]
        return estimate_geo_footprint(
            target.group.lat,
            target.group.lon,
            bandwidth_km=bandwidth_km,
            cell_km=cell_km,
            method=method,
        )

    def pop_footprint(
        self,
        asn: int,
        bandwidth_km: float,
        alpha: float = DEFAULT_ALPHA,
        cell_km: Optional[float] = None,
    ) -> PoPFootprint:
        """PoP-level footprint of one target AS."""
        footprint = self.geo_footprint(asn, bandwidth_km, cell_km=cell_km)
        return extract_pop_footprint(footprint, self.gazetteer, alpha=alpha, asn=asn)

    def pop_footprints(
        self,
        asns: Sequence[int],
        bandwidth_km: float,
        alpha: float = DEFAULT_ALPHA,
        parallel: ParallelConfig = ParallelConfig(),
    ) -> Dict[int, PoPFootprint]:
        """PoP footprints for many ASes at one bandwidth, in ``asns``
        order, computed by the ``repro.exec`` engine under
        ``parallel`` (serial and uncached by default).  Equal to
        :meth:`pop_footprint` per AS for every config.
        """
        artifacts = run_footprint_stage(
            self.dataset,
            self.gazetteer,
            asns,
            bandwidth_km,
            alpha=alpha,
            parallel=parallel,
        )
        return {asn: artifacts[asn].pop_footprint for asn in asns}

    def peak_locations(
        self,
        asn: int,
        bandwidth_km: float,
        alpha: float = DEFAULT_ALPHA,
        cell_km: Optional[float] = None,
    ) -> List[tuple]:
        """(lat, lon) of the alpha-selected density peaks of one AS —
        the facility-level PoP locations Section 5's counting and
        40 km matching operate on."""
        footprint = self.geo_footprint(asn, bandwidth_km, cell_km=cell_km)
        return [(p.lat, p.lon) for p in footprint.peaks_above(alpha)]

    def peak_location_sets(
        self,
        asns: Sequence[int],
        bandwidth_km: float,
        alpha: float = DEFAULT_ALPHA,
        parallel: ParallelConfig = ParallelConfig(),
    ) -> Dict[int, List[tuple]]:
        """Peak-level PoP location sets for many ASes, through the same
        engine as :meth:`pop_footprints`.  Equal to
        :meth:`peak_locations` per AS for every config.
        """
        artifacts = run_footprint_stage(
            self.dataset,
            self.gazetteer,
            asns,
            bandwidth_km,
            alpha=alpha,
            parallel=parallel,
        )
        return {asn: artifacts[asn].peak_locations() for asn in asns}

    def eyeball_target_asns(self) -> List[int]:
        """Target-dataset ASNs that are ground-truth eyeball/content ASes
        with at least one customer PoP."""
        result = []
        for asn in sorted(self.dataset.ases):
            node = self.ecosystem.as_nodes.get(asn)
            if node is not None and node.customer_pops:
                result.append(asn)
        return result


logger = get_logger("experiments.scenario")


def config_hash(config: ScenarioConfig) -> str:
    """A short stable digest of a scenario config (cache/log identity)."""
    return hashlib.sha256(repr(config).encode()).hexdigest()[:12]


def build_scenario(config: ScenarioConfig = ScenarioConfig.default()) -> Scenario:
    """Build a scenario end to end.  Deterministic in the config."""
    logger.debug(
        "scenario.build.start %s",
        kv(name=config.name, hash=config_hash(config)),
    )
    with obs.span("scenario.build"):
        with obs.span("scenario.world"):
            world = generate_world(config.world)
        with obs.span("scenario.ecosystem"):
            ecosystem = generate_ecosystem(world, config.ecosystem)
        with obs.span("scenario.population"):
            population = generate_population(ecosystem, config.population)
        with obs.span("scenario.geodb"):
            primary = build_database(
                "GeoIP-City", population.blocks, world, config.primary_model
            )
            secondary = build_database(
                "IP2Location-DB15", population.blocks, world,
                config.secondary_model,
            )
        sample = run_crawl(ecosystem, population, config.crawl)
        dataset = build_target_dataset(
            sample, primary, secondary, ecosystem.routing_table, config.pipeline
        )
    logger.info(
        "scenario.build.done %s",
        kv(
            name=config.name,
            hash=config_hash(config),
            peers=len(sample),
            target_ases=len(dataset),
        ),
    )
    return Scenario(
        config=config,
        world=world,
        gazetteer=Gazetteer(world),
        ecosystem=ecosystem,
        population=population,
        primary_db=primary,
        secondary_db=secondary,
        sample=sample,
        dataset=dataset,
    )


_SCENARIO_CACHE: Dict[str, Scenario] = {}


def cached_scenario(config: ScenarioConfig) -> Scenario:
    """Build-once scenario cache keyed by config name + seeds.

    Experiment drivers and benchmarks share scenarios through this to
    avoid rebuilding the same multi-second pipeline repeatedly.  Every
    lookup logs a ``scenario.cache`` line with the config hash so
    repeated experiment runs are explainable.
    """
    key = repr(config)
    digest = config_hash(config)
    scenario = _SCENARIO_CACHE.get(key)
    if scenario is None:
        obs.count("scenario.cache_miss")
        logger.info(
            "scenario.cache %s", kv(event="miss", name=config.name, hash=digest)
        )
        scenario = build_scenario(config)
        _SCENARIO_CACHE[key] = scenario
    else:
        obs.count("scenario.cache_hit")
        logger.info(
            "scenario.cache %s", kv(event="hit", name=config.name, hash=digest)
        )
    return scenario
