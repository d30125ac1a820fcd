"""The benchmark's three workloads.

Each workload splits into an untimed :meth:`prepare` (the inputs) and
a timed :meth:`run` (one repetition, through the public entry points a
user calls, ending in a checked :class:`Outcome`).  The runner calls
:meth:`prepare` afresh before every repetition, so no repetition sees
state (a cached scenario, a memoised LPM index) left by another.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro import experiments
from repro.crawl import chunks as chunk_mod
from repro.pipeline import stream as stream_mod
from repro.pipeline.dataset import PipelineConfig
from repro.pipeline.profile import profile_dataset
from repro.validation.reference import ReferenceConfig

from .tracing import Tracer


@dataclass
class Outcome:
    """One repetition's checked result."""

    checks: Dict[str, bool]
    output: str  # the rendered result; byte-identical across repetitions
    #: Work counts that must repeat exactly: always ``peers`` (crawled
    #: peers carried through to the result), ``footprints`` where any.
    work: Dict[str, int]
    #: Checks reported beside the result but not counted in it.
    reported: Dict[str, bool] = field(default_factory=dict)
    #: More checks, too slow to time with the result: the runner calls
    #: this once after timing, then drops it and what it holds.
    verify: Optional[Callable[[], Dict[str, bool]]] = None

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.output.encode()).hexdigest()


class Table1:
    """``repro-eyeball --preset default table1``: substrate, crawl and
    the exact Section 2 pipeline, rebuilt from scratch every time.

    Why: most of its time is ``geodb``, ``crawl.run``,
    ``crawl.population`` and the exact ``build_target_dataset``, and it
    computes no footprint, so a ``core`` change must not move it.
    """

    name = "table1"
    #: Table 1 shape checks that decide ``correct`` at every seed: the
    #: regional application pattern, which the repository's own seed
    #: robustness test asserts at several seeds, and EU's country-level
    #: majority.  Each held at all 55 seeds tried.
    gated_shape = (
        "gnutella_dominates_na",
        "kad_dominates_eu",
        "kad_dominates_as",
        "eu_country_heavy",
    )
    # The other two, na_state_heavy and as_most_city_level, compare a
    # few to a dozen ASes across regions, so the draw decides them: they
    # failed at 8 of those 55 seeds on unchanged code.  They are
    # reported, not counted.
    check_count = len(gated_shape) + 3  # and the three streamed_* checks

    def prepare(self, seed: int):
        return experiments.ScenarioConfig.default(seed)

    def run(self, config, tracer: Optional[Tracer]) -> Outcome:
        scenario = experiments.build_scenario(config)
        result = experiments.run_table1(scenario)
        shape = result.shape_checks()
        return Outcome(
            checks={k: v for k, v in shape.items() if k in self.gated_shape},
            reported={k: v for k, v in shape.items() if k not in self.gated_shape},
            output=result.render(),
            work={
                "peers": len(scenario.sample),
                "geodb.blocks": len(scenario.primary_db) + len(scenario.secondary_db),
            },
            verify=lambda: streamed_agrees(scenario, result.profile),
        )


def streamed_agrees(scenario, profile) -> Dict[str, bool]:
    """Whether the chunk-streamed exact driver (what ``--chunk-size``
    selects), run on the scenario's crawl, reproduces the funnel, the
    target ASes and Table 1 of the dataset the serial driver built."""
    streamed = stream_mod.stream_target_dataset(
        scenario.sample,
        scenario.primary_db,
        scenario.secondary_db,
        scenario.ecosystem.routing_table,
        scenario.config.pipeline,
    )
    return {
        "streamed_funnel": streamed.stats == scenario.dataset.stats,
        "streamed_ases": _as_levels(streamed) == _as_levels(scenario.dataset),
        "streamed_table1": profile_dataset(streamed) == profile,
    }


def _as_levels(dataset) -> Dict[int, tuple]:
    return {asn: (len(t), t.level) for asn, t in dataset.ases.items()}


class Footprints:
    """Figure 2 (reference ASes x 10/40/80 km), then Section 5 reusing
    it (every DIMES-common AS at 40 km), on a default-preset scenario
    built during preparation.  Default inline path: no workers, no
    artifact cache.

    Why: it is all ``core`` and ``validation`` with no conditioning;
    the 10 km batch is where ``find_peaks`` is super-linear in grid
    cells, and Section 5 repeats some of Figure 2's (AS, 40 km)
    footprints, the property a memoising change would rely on.
    """

    name = "footprints"
    check_count = 8
    #: Reference ASes of Figure 2: the paper's 45 take ~80 s a
    #: repetition, 10 take ~10 s.  All three bandwidths are kept.
    reference_ases = 10
    #: The scenario's seed, whatever ``--seed`` says: ``find_peaks`` is
    #: super-linear in grid cells, so another scenario moves the work
    #: by tens of percent and would swamp any bound on ``wall_s``.
    scenario_seed = 5

    def prepare(self, seed: int):
        config = experiments.ScenarioConfig.default(self.scenario_seed)
        return experiments.build_scenario(config)

    def run(self, scenario, tracer: Optional[Tracer]) -> Outcome:
        figure2 = experiments.run_figure2(
            scenario, reference_config=ReferenceConfig(as_count=self.reference_ases)
        )
        section5 = experiments.run_section5(scenario, figure2=figure2)
        checks = {f"figure2.{k}": v for k, v in figure2.shape_checks().items()}
        checks.update(
            {f"section5.{k}": v for k, v in section5.shape_checks().items()}
        )
        # Footprints per AS: one per Figure 2 bandwidth, plus one at
        # 40 km for each AS Section 5 compares with DIMES.
        per_as = {asn: len(figure2.reports) for asn in figure2.reference.pops}
        common = set(scenario.eyeball_target_asns()) & set(section5.dimes.pops)
        for asn in common:
            per_as[asn] = per_as.get(asn, 0) + 1
        peers = sum(len(scenario.dataset.ases[a]) * n for a, n in per_as.items())
        return Outcome(
            checks=checks,
            output=figure2.render() + "\n" + section5.render(),
            work={"footprints": sum(per_as.values()), "peers": peers},
        )


class Stream:
    """``stream_summary`` over a generated paper-order population in
    the default 256Ki-peer chunks.  No random draws: the seed does not
    change it.

    Why: the ``pipeline`` and ``net.lpm`` code in the regime opposite
    to ``table1`` -- summary mode, lookup-heavy, O(chunk) memory,
    no substrate generation.
    """

    name = "stream"
    check_count = 5
    users = 10_240_000
    chunk_size = chunk_mod.DEFAULT_CHUNK_SIZE

    def prepare(self, seed: int):
        source = chunk_mod.SyntheticChunkSource(self.users)
        return source, source.conditioning_inputs()

    def run(self, inputs, tracer: Optional[Tracer]) -> Outcome:
        source, (primary, secondary, routing) = inputs
        chunks = source.chunks(self.chunk_size)
        if tracer is not None:
            chunks = tracer.timed_iter(
                "crawl.chunks", "SyntheticChunkSource.chunks", chunks
            )
        summary = stream_mod.stream_summary(
            chunks,
            primary,
            secondary,
            routing,
            config=PipelineConfig(),
            chunk_size=self.chunk_size,
            app_names=source.app_names,
        )
        stats = summary.stats
        missing, unrouted = expected_drops(source)
        checks = {
            "dropped_missing_record": stats.dropped_missing_record == missing,
            "dropped_unrouted": stats.dropped_unrouted == unrouted,
            "dropped_geo_error": stats.dropped_geo_error == 0,
            "all_ases_survive": len(summary.ases) == source.n_as,
            "chunk_count": summary.chunks_processed
            == math.ceil(len(source) / self.chunk_size),
        }
        return Outcome(
            checks=checks,
            output=render_summary(summary),
            work={"peers": stats.crawled_peers, "chunks": summary.chunks_processed},
        )


def expected_drops(source) -> tuple:
    """``(missing-record, unrouted)`` drops the source's block pattern
    implies: users sit round-robin on blocks; every ``missing_every``-th
    block lacks a secondary record, and every ``unrouted_every``-th
    block that still maps is unannounced."""
    missing = unrouted = 0
    for block in range(source.n_blocks):
        users = source.n_users // source.n_blocks + (
            block < source.n_users % source.n_blocks
        )
        if block % source.missing_every == 0:
            missing += users
        elif block % source.unrouted_every == 0:
            unrouted += users
    return missing, unrouted


def render_summary(summary) -> str:
    """A canonical text form of a summary-mode result."""
    rows = [
        [a.asn, a.peer_count, a.app_counts, repr(a.lat), repr(a.lon),
         repr(a.error_percentile_km), a.classification.region_name,
         a.level.name, a.continent]
        for a in summary.ases.values()
    ]
    return json.dumps(
        {"stats": vars(summary.stats), "chunks": summary.chunks_processed,
         "ases": rows},
        sort_keys=True,
    )


WORKLOADS = {w.name: w for w in (Table1(), Footprints(), Stream())}
