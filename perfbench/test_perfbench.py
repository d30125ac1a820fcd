"""Tests of the benchmark's own machinery (``python -m pytest perfbench``)."""

import sys

import numpy as np
import pytest

from perfbench import summary, tracing, workloads
from perfbench.tracing import Target, Tracer, layer_table, root_time


def _scripted(*ticks):
    clock = iter(ticks)
    return Tracer(clock=lambda: float(next(clock)))


@pytest.mark.parametrize(
    "n, expected",
    [
        (100, 90.0),  # p95 has 5 samples beyond it, p90 has 10
        (228, 95.0),  # 11 beyond p95
        (2000, 99.0),  # 20 beyond p99, 2 beyond p99.9
        (21, 50.0),  # only the median keeps 10 beyond it
    ],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    values = np.arange(1, n + 1, dtype=float)
    p, value = summary.tail_percentile(values)
    assert p == expected
    assert value == np.percentile(values, expected)
    assert np.count_nonzero(values > value) >= summary.MIN_BEYOND


def test_tail_percentile_none_below_twenty_samples():
    assert summary.tail_percentile(np.arange(15.0)) is None
    assert summary.tail_percentile([]) is None


def test_self_time_subtracts_nested_and_reentrant_spans():
    # outer(L1) [0,10] > inner(L1) [1,6] > leaf(L2) [2,5];  outer > leaf [7,9]
    tracer = _scripted(0, 1, 2, 5, 6, 7, 9, 10)
    outer, inner, leaf = (Target("L1", "m", "outer"), Target("L1", "m", "inner"),
                          Target("L2", "m", "leaf"))

    def run_inner():
        tracer.call(leaf, lambda: None, (), {})

    def run_outer():
        tracer.call(inner, run_inner, (), {})
        tracer.call(leaf, lambda: None, (), {})

    tracer.call(outer, run_outer, (), {})
    table = layer_table(tracer.spans)
    # The re-entrant inner call is neither a second call nor busy twice.
    assert table["L1"] == {"calls": 1, "busy_s": 10.0, "self_s": 5.0}
    assert table["L2"] == {"calls": 2, "busy_s": 5.0, "self_s": 5.0}
    assert sum(row["self_s"] for row in table.values()) == root_time(tracer.spans)


def test_span_ids_pass_to_children():
    tracer = _scripted(0, 1, 2, 3, 4, 5)
    tracer.rid = "rep1"
    footprint = Target("experiments", "m", "f", rid=lambda args: f"AS{args[0]}")
    child = Target("core.kde", "m", "g")
    tracer.call(footprint, lambda asn: tracer.call(child, lambda: None, (), {}),
                (7,), {})
    tracer.call(child, lambda: None, (), {})
    assert [s.rid for s in tracer.spans] == ["rep1/AS7", "rep1/AS7", "rep1"]
    assert [s.parent for s in tracer.spans] == [-1, 0, -1]


def test_timed_iter_times_each_next():
    tracer = _scripted(0, 1, 2, 3, 4, 5)
    assert list(tracer.timed_iter("crawl.chunks", "gen", iter("ab"))) == ["a", "b"]
    assert [s.duration for s in tracer.spans] == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("power", [1.0, 2.0, 2.5])
def test_loglog_slope_recovers_the_exponent(power):
    cells = np.array([1e3, 4e3, 2e4, 1e5, 8e5])
    assert summary.loglog_slope(cells, 3e-7 * cells**power) == pytest.approx(power)


def test_loglog_slope_needs_two_sizes():
    assert summary.loglog_slope([100, 100], [1.0, 2.0]) == 0.0
    assert summary.loglog_slope([], []) == 0.0


def _bindings():
    """Every attribute of every loaded repro module and wrapped class."""
    classes = {tracing._resolve(t)[0] for t in tracing.TARGETS}
    state = {}
    for name, module in list(sys.modules.items()):
        if tracing._is_repro(name, module):
            for attr, value in vars(module).items():
                state[(name, attr)] = value
    for cls in classes:
        if isinstance(cls, type):
            for attr, value in vars(cls).items():
                state[(cls.__qualname__, attr)] = value
    return state


def test_install_then_uninstall_restores_every_binding():
    from repro.core import footprint
    from repro.experiments import scenario

    before = _bindings()
    original = footprint.estimate_geo_footprint
    tracer = Tracer()
    with tracer.installed():
        # Both the defining module and a `from x import f` site are wrapped.
        assert footprint.estimate_geo_footprint is not original
        assert scenario.estimate_geo_footprint is not original
        rng = np.random.default_rng(0)
        scenario.estimate_geo_footprint(
            45 + rng.random(40), 9 + rng.random(40), bandwidth_km=40.0
        )
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    layers = {s.layer for s in tracer.spans}
    assert {"core.footprint", "core.kde", "core.contours", "core.peaks"} <= layers
    assert tracer.counts["core.kde.cells"] > 0


def test_every_target_resolves_to_a_function():
    for target in tracing.TARGETS:
        assert callable(tracing._resolve(target)[2]), target


def test_expected_stream_drops_follow_the_block_pattern():
    source = workloads.chunk_mod.SyntheticChunkSource(2_560_000)
    assert workloads.expected_drops(source) == (150_625, 105_000)


def test_table1_counts_gated_checks_and_reports_the_rest():
    table1 = workloads.WORKLOADS["table1"]
    config = workloads.experiments.ScenarioConfig.small()
    outcome = table1.run(config, None)
    shape = set(outcome.checks) | set(outcome.reported)
    assert set(outcome.checks) == set(table1.gated_shape)
    assert shape == {"gnutella_dominates_na", "kad_dominates_eu", "kad_dominates_as",
                     "na_state_heavy", "eu_country_heavy", "as_most_city_level"}
    streamed = outcome.verify()
    assert streamed == {"streamed_funnel": True, "streamed_ases": True,
                        "streamed_table1": True}
    assert len(outcome.checks) + len(streamed) == table1.check_count
