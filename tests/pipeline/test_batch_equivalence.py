"""The conditioning driver against a whole-sample oracle.

docs/DATA_MODEL.md promises that ``config.chunk_size`` changes
*nothing observable*: the same TargetAS set, the same classifications,
the same funnel totals — byte-for-byte on rendered output (CI diffs
table1; here we compare the datasets structurally at several chunk
sizes, including degenerate ones).  The reference is the whole-sample
composition of the stage functions, built below in the test, not in
``src``.  Summary mode trades the materialised dataset for per-AS
aggregates; its gates are exact, so it must agree with the exact driver
on every decision, at the paper's 1000-peer floor too.  Finally, the
whole point: peak memory must not grow with the population at a fixed
chunk size.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.crawl.chunks import (
    DEFAULT_CHUNK_SIZE,
    SyntheticChunkSource,
    iter_sample_chunks,
)
from repro.geo.coords import KM_PER_DEGREE
from repro.geodb.database import GeoDatabase
from repro.geodb.records import GeoRecord
from repro.net.bgp import RoutingTable
from repro.net.ip import Prefix
from repro.obs import telemetry as obs
from repro.pipeline.batch import PEER_DTYPE, GeoColumns, PeerBatch, RegionVocab
from repro.pipeline.dataset import (
    PipelineConfig,
    PipelineStats,
    TargetDataset,
    build_target_dataset,
    classify_groups,
)
from repro.pipeline.filtering import (
    filter_error_percentile,
    filter_error_percentile_digests,
    filter_geo_error,
    filter_min_peers,
)
from repro.pipeline.grouping import group_by_as
from repro.pipeline.mapping import map_peers
from repro.pipeline.stream import ASAggregate, stream_summary

#: Chunk sizes the equivalence sweep runs: prime (misaligned with every
#: block structure), smaller than the sample, the default, and larger
#: than the sample (the one-chunk degenerate case).
CHUNK_SIZES = (997, 4096, DEFAULT_CHUNK_SIZE, 1 << 30)


def serial_oracle(sample, primary, secondary, routing_table, config):
    """The whole Section 2 pipeline over the whole sample at once:
    map → geo-error cut → group → density floor → p90 gate → classify."""
    mapped, mapping = map_peers(sample, primary, secondary)
    mapped, dropped_error = filter_geo_error(mapped, config.max_geo_error_km)
    groups, grouping = group_by_as(mapped, routing_table)
    ases_before = len(groups)
    groups, dropped_small = filter_min_peers(groups, config.min_peers_per_as)
    groups, dropped_percentile = filter_error_percentile(
        groups, config.error_percentile, config.error_percentile_max_km
    )
    ases = classify_groups(groups, config.containment_threshold)
    stats = PipelineStats(
        crawled_peers=mapping.input_peers,
        dropped_missing_record=mapping.dropped_missing,
        dropped_geo_error=dropped_error,
        grouped_peers=grouping.grouped_peers,
        dropped_unrouted=grouping.dropped_unrouted,
        ases_before_filters=ases_before,
        ases_dropped_small=dropped_small,
        ases_dropped_error_percentile=dropped_percentile,
        target_ases=len(ases),
        target_peers=sum(len(a) for a in ases.values()),
    )
    return TargetDataset(
        ases=ases, stats=stats, app_names=sample.app_names, config=config
    )


@pytest.fixture(scope="module")
def inputs(small_scenario):
    s = small_scenario
    # The sweep must cross chunk boundaries, default size included.
    assert 4096 < len(s.sample) < DEFAULT_CHUNK_SIZE
    return (
        s.sample,
        s.primary_db,
        s.secondary_db,
        s.ecosystem.routing_table,
        s.config.pipeline,
    )


@pytest.fixture(scope="module")
def oracle(inputs):
    with obs.capture() as telemetry:
        dataset = serial_oracle(*inputs)
    return dataset, telemetry


def _chunked(inputs, chunk_size):
    sample, primary, secondary, table, config = inputs
    config = dataclasses.replace(config, chunk_size=chunk_size)
    with obs.capture() as telemetry:
        dataset = build_target_dataset(
            sample, primary, secondary, table, config
        )
    return dataset, telemetry


def assert_same_dataset(actual, expected):
    assert set(actual.ases) == set(expected.ases)
    assert list(actual.ases) == list(expected.ases)
    assert actual.stats == expected.stats
    assert actual.app_names == expected.app_names
    for asn, target in expected.ases.items():
        other = actual.ases[asn]
        assert other.classification == target.classification
        np.testing.assert_array_equal(
            other.group.peers.user_index, target.group.peers.user_index
        )
        np.testing.assert_array_equal(other.group.lat, target.group.lat)
        np.testing.assert_array_equal(other.group.lon, target.group.lon)
        np.testing.assert_array_equal(
            other.group.error_km, target.group.error_km
        )
        np.testing.assert_array_equal(
            other.group.peers.membership, target.group.peers.membership
        )
        np.testing.assert_array_equal(
            other.group.peers.city, target.group.peers.city
        )


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_chunked_dataset_is_identical(inputs, oracle, chunk_size):
    expected, _ = oracle
    actual, _ = _chunked(inputs, chunk_size)
    assert_same_dataset(actual, expected)


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_chunked_funnel_totals_match_serial(inputs, oracle, chunk_size):
    """Per-chunk funnel records aggregate by stage name: the driver's
    totals (and drop reasons) must equal the whole-sample run's."""
    _, expected = oracle
    _, actual = _chunked(inputs, chunk_size)
    assert set(actual.funnel) == set(expected.funnel)
    for name, stage in expected.funnel.items():
        other = actual.funnel[name]
        assert other.records_in == stage.records_in, name
        assert other.records_out == stage.records_out, name
        assert other.drops == stage.drops, name


def test_default_config_streams_at_the_default_chunk_size():
    assert PipelineConfig().chunk_size == DEFAULT_CHUNK_SIZE


def test_stream_gauges_present(inputs):
    sample, *_ = inputs
    _, telemetry = _chunked(inputs, 997)
    gauges = telemetry.gauges
    assert gauges["pipeline.stream.chunk_size"] == 997
    assert gauges["pipeline.stream.chunks"] == -(-len(sample) // 997)
    assert gauges["pipeline.stream.rss_peak_kib"] > 0


@dataclasses.dataclass
class _Sample:
    """An in-memory crawl sample: the columns the driver reads."""

    app_names: tuple
    user_index: np.ndarray
    ips: np.ndarray
    membership: np.ndarray

    def __len__(self):
        return int(self.user_index.size)

    def chunks(self, chunk_size):
        return iter_sample_chunks(self, chunk_size)


def _materialise(source):
    parts = list(source.chunks(1 << 20))
    return _Sample(
        app_names=source.app_names,
        user_index=np.concatenate([c.user_index for c in parts]),
        ips=np.concatenate([c.ips for c in parts]),
        membership=np.vstack([c.membership for c in parts]),
    )


def _summary(source, conditioning, config, chunk_size):
    primary, secondary, table = conditioning
    return stream_summary(
        source.chunks(chunk_size),
        primary,
        secondary,
        table,
        config=config,
        chunk_size=chunk_size,
        app_names=source.app_names,
    )


def assert_summary_matches(summary, exact, config):
    assert set(summary.ases) == set(exact.ases)
    assert summary.stats == exact.stats
    for asn, target in exact.ases.items():
        aggregate = summary.ases[asn]
        assert aggregate.peer_count == len(target)
        assert aggregate.classification == target.classification
        assert aggregate.app_counts == target.peer_count_by_app()
        assert aggregate.lat == pytest.approx(
            float(np.mean(target.group.lat)), abs=1e-9
        )
        assert aggregate.lon == pytest.approx(
            float(np.mean(target.group.lon)), abs=1e-9
        )
        # Exact here: in both populations below every AS's errors take
        # only a few distinct values, which the digest keeps exactly.
        assert aggregate.error_percentile_km == pytest.approx(
            target.group.error_percentile(config.error_percentile),
            abs=1e-6,
        )


def test_stream_summary_matches_exact_dataset():
    """64 ASes over 4096 blocks.  At 8000 users every AS holds ~125
    routed peers, inside the digest's centroid budget; at 80,000 users
    it holds 1113-1153, over the paper's 1000-peer floor, where p90
    gates keep every AS, drop half of them, and sit exactly on the
    lower p90 (which must pass: the gate is ``<=``)."""
    small = SyntheticChunkSource(8_000)
    config = PipelineConfig(min_peers_per_as=10)
    conditioning = small.conditioning_inputs()
    exact = build_target_dataset(_materialise(small), *conditioning, config)
    assert_summary_matches(
        _summary(small, conditioning, config, 1_024), exact, config
    )

    source = SyntheticChunkSource(80_000)
    conditioning = source.conditioning_inputs()
    sample = _materialise(source)
    every_as = build_target_dataset(sample, *conditioning, PipelineConfig())
    assert min(len(t) for t in every_as.ases.values()) >= 1000
    # Each AS's peers sit in three synthetic cities; the furthest-off
    # one sets the p90, which is one of two values.
    low, high = sorted(
        {t.group.error_percentile(90.0) for t in every_as.ases.values()}
    )
    for gate_km, dropped in ((80.0, 0), ((low + high) / 2, 32), (low, 32)):
        config = PipelineConfig(error_percentile_max_km=gate_km)
        exact = build_target_dataset(sample, *conditioning, config)
        assert exact.stats.ases_dropped_error_percentile == dropped
        assert_summary_matches(
            _summary(source, conditioning, config, 4_096), exact, config
        )


def _one_as_world(errors_km, asn=64_512):
    """A sample of one AS whose peers show the given geo errors, and its
    conditioning inputs: one /24 block per peer, the secondary record
    displaced due north."""
    base = 10 << 24
    primary, secondary = GeoDatabase("primary"), GeoDatabase("secondary")
    table = RoutingTable()
    names = dict(city="Here", state="S", country="CC", continent="EU")
    for i, error in enumerate(errors_km):
        prefix = Prefix(base + (i << 8), 24)
        primary.add_block(prefix, GeoRecord(lat=0.0, lon=0.0, **names))
        secondary.add_block(
            prefix,
            GeoRecord(lat=float(error) / KM_PER_DEGREE, lon=0.0, **names),
        )
    table.announce(Prefix(base, 8), asn)
    ips = base + (np.arange(len(errors_km), dtype=np.int64) << 8) + 1
    sample = _Sample(
        app_names=("Kad",),
        user_index=np.arange(ips.size, dtype=np.int64),
        ips=ips,
        membership=np.ones((ips.size, 1), dtype=bool),
    )
    return sample, (primary, secondary, table)


@pytest.mark.parametrize("chunk_size", [256, 1 << 20])
def test_summary_gate_keeps_an_as_just_under_the_threshold(chunk_size):
    """1000 peers: 900 errors spread over 70-79.9 km, 100 over
    80.1-90 km.  The p90 interpolates a tenth of the way across the gap
    at the 80 km gate (79.92 km), so the AS stays.  A 128-centroid
    digest averages values from both sides of the gap and reads the p90
    above 80 km, so a gate reading the digest drops this AS."""
    errors = np.concatenate(
        [np.linspace(70.0, 79.9, 900), np.linspace(80.1, 90.0, 100)]
    )
    sample, conditioning = _one_as_world(errors)
    config = PipelineConfig()
    exact = build_target_dataset(sample, *conditioning, config)
    [target] = exact.ases.values()
    assert 79.9 < target.group.error_percentile(90.0) < 80.0
    summary = _summary(sample, conditioning, config, chunk_size)
    assert set(summary.ases) == set(exact.ases)
    assert summary.stats == exact.stats


@pytest.fixture(scope="module")
def one_block_geo():
    database = GeoDatabase("one-block")
    database.add_block(
        Prefix(10 << 24, 8),
        GeoRecord(city="Here", state="S", country="CC", continent="EU",
                  lat=0.0, lon=0.0),
    )
    return GeoColumns.from_database(database, RegionVocab())


def _aggregate(errors, bounds, gate_km, geo):
    """One :class:`ASAggregate` fed ``errors`` in the chunks that
    ``bounds`` cut, through its own per-chunk ``absorb``."""
    data = np.zeros(errors.size, dtype=PEER_DTYPE)
    data["error_km"] = errors
    aggregate = ASAggregate(asn=1, n_apps=0, gate_km=gate_km)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        batch = PeerBatch(app_names=(), data=data[lo:hi], geo=geo)
        aggregate.absorb(
            batch, np.arange(hi - lo), np.zeros((hi - lo, 0), dtype=bool)
        )
    return aggregate


def test_tally_gate_matches_np_percentile(one_block_geo):
    """The summary gate against ``np.percentile(e, 90) <= T`` on random
    float32 error arrays: n from 1 to 3000, the count at or under T
    steered around the interpolation rank, ties at T and at its float32
    neighbours, random chunk splits, T = 80 and T = 79.97."""
    rng = np.random.default_rng(2010)
    straddled = 0
    for _ in range(2_000):
        gate_km = float(rng.choice([80.0, 79.97]))
        n = int(rng.integers(1, 3_001))
        k = int(np.floor((n - 1) * 0.9))
        at_or_under = int(np.clip(k + rng.integers(-1, 3), 0, n))
        spread = float(rng.choice([0.001, 0.5, 20.0]))
        errors = np.concatenate(
            [
                np.clip(gate_km - rng.exponential(spread, at_or_under), 0, None),
                gate_km + rng.exponential(spread, n - at_or_under),
            ]
        ).astype(np.float32)
        near = np.float32(gate_km)
        ties = np.array(
            [near, np.nextafter(near, np.float32(0)),
             np.nextafter(near, np.float32(200))],
            dtype=np.float32,
        )
        tied = rng.random(n) < float(rng.choice([0.0, 0.05, 0.5]))
        errors[tied] = rng.choice(ties, int(tied.sum()))
        errors = rng.permutation(errors)
        cuts = np.sort(rng.integers(0, n + 1, int(rng.integers(0, 5))))
        bounds = np.concatenate([[0], cuts, [n]])
        aggregate = _aggregate(errors, bounds, gate_km, one_block_geo)
        kept, dropped = filter_error_percentile_digests({1: aggregate}, 90.0)
        expected = np.percentile(errors.astype(np.float64), 90.0) <= gate_km
        assert (1 in kept) == expected, (n, gate_km, bounds)
        assert dropped == (0 if expected else 1)
        straddled += int(aggregate.count_le == k + 1 and k < n - 1)
    # Enough cases land on the interpolation between max_le and min_gt.
    assert straddled > 100


def test_summary_memory_is_flat_in_population():
    """Fixed chunk size, 8x the population: peak *traced* allocation
    must stay flat — the O(chunk + ASes) claim, measured."""
    chunk_size = 8_192
    peaks = []
    for n_users in (40_000, 320_000):
        source = SyntheticChunkSource(n_users)
        primary, secondary, table = source.conditioning_inputs()
        tracemalloc.start()
        try:
            summary = stream_summary(
                source.chunks(chunk_size),
                primary,
                secondary,
                table,
                config=PipelineConfig(min_peers_per_as=10),
                chunk_size=chunk_size,
                app_names=source.app_names,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary.chunks_processed == -(-n_users // chunk_size)
        peaks.append(peak)
    small, large = peaks
    assert large < 2 * small, (
        f"peak allocation grew {small} -> {large} bytes over an 8x "
        "population: streaming is holding O(population) state"
    )
