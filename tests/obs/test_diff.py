"""Report diffing: noise-aware deltas, drift, the regression verdict."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.diff import (
    DIFF_SCHEMA,
    STATUS_ADDED,
    STATUS_FASTER,
    STATUS_NOISE,
    STATUS_OK,
    STATUS_REMOVED,
    STATUS_SLOWER,
    DiffThresholds,
    diff_reports,
)
from repro.obs.report import RunReport


def _report(spans=None, counters=None, gauges=None):
    return RunReport(
        meta={},
        spans=spans or [],
        counters=counters or {},
        gauges=gauges or {},
    )


def _span(name, total_s, count=1, children=None):
    node = {
        "name": name,
        "count": count,
        "total_s": total_s,
        "min_s": total_s / count,
        "max_s": total_s / count,
    }
    if children:
        node["children"] = children
    return node


class TestSpanJudgement:
    def test_identical_reports_are_ok(self):
        report = _report(spans=[_span("scenario.build", 1.0)])
        diff = diff_reports(report, report)
        assert diff.verdict == "ok"
        assert [d.status for d in diff.spans] == [STATUS_OK]

    def test_2x_slowdown_is_a_regression_naming_the_span(self):
        old = _report(spans=[_span("scenario.build", 1.0),
                             _span("pop.extract", 0.3)])
        new = _report(spans=[_span("scenario.build", 1.02),
                             _span("pop.extract", 0.6)])
        diff = diff_reports(old, new)
        assert diff.verdict == "regression"
        assert [d.path for d in diff.regressions] == ["pop.extract"]
        assert "pop.extract" in diff.render_text()
        assert diff.regressions[0].ratio == pytest.approx(2.0)

    def test_nested_paths_compared_independently(self):
        old = _report(spans=[_span("scenario.build", 1.0,
                                   children=[_span("kde.evaluate", 0.2)])])
        new = _report(spans=[_span("scenario.build", 1.1,
                                   children=[_span("kde.evaluate", 0.9)])])
        diff = diff_reports(old, new)
        assert [d.path for d in diff.regressions] == [
            "scenario.build > kde.evaluate"
        ]

    def test_noise_floor_shields_tiny_spans(self):
        old = _report(spans=[_span("kde.evaluate", 0.0001)])
        new = _report(spans=[_span("kde.evaluate", 0.004)])  # 40x but tiny
        diff = diff_reports(old, new)
        assert diff.verdict == "ok"
        assert [d.status for d in diff.spans] == [STATUS_NOISE]

    def test_big_speedup_is_reported_as_improvement(self):
        old = _report(spans=[_span("pipeline.mapping", 2.0)])
        new = _report(spans=[_span("pipeline.mapping", 0.5)])
        diff = diff_reports(old, new)
        assert diff.verdict == "ok"
        assert [d.path for d in diff.improvements] == ["pipeline.mapping"]
        assert diff.spans[0].status == STATUS_FASTER

    def test_added_and_removed_spans_are_structural(self):
        old = _report(spans=[_span("crawl.run", 1.0)])
        new = _report(spans=[_span("pipeline.grouping", 1.0)])
        diff = diff_reports(old, new)
        statuses = {d.path: d.status for d in diff.spans}
        assert statuses == {
            "crawl.run": STATUS_REMOVED,
            "pipeline.grouping": STATUS_ADDED,
        }
        assert diff.verdict == "ok"  # structure alone is not a slowdown

    def test_zero_baseline_that_clears_floor_regresses(self):
        old = _report(spans=[_span("pop.extract", 0.0)])
        new = _report(spans=[_span("pop.extract", 1.0)])
        diff = diff_reports(old, new)
        assert diff.verdict == "regression"

    def test_custom_ratio_threshold(self):
        old = _report(spans=[_span("scenario.build", 1.0)])
        new = _report(spans=[_span("scenario.build", 2.5)])
        lax = diff_reports(old, new, DiffThresholds(max_ratio=3.0))
        assert lax.verdict == "ok"
        strict = diff_reports(old, new, DiffThresholds(max_ratio=2.0))
        assert strict.verdict == "regression"


class TestDrift:
    def test_counter_drift_reported_but_not_fatal(self):
        old = _report(spans=[_span("crawl.run", 1.0)],
                      counters={"crawl.peers_sampled": 100})
        new = _report(spans=[_span("crawl.run", 1.0)],
                      counters={"crawl.peers_sampled": 120})
        diff = diff_reports(old, new)
        assert diff.verdict == "ok"
        (drift,) = diff.drifts
        assert drift.name == "crawl.peers_sampled"
        assert drift.rel_change == pytest.approx(0.2)

    def test_gauge_tolerance_absorbs_small_changes(self):
        old = _report(gauges={"memory.peak_kib.crawl.run": 1000.0})
        new = _report(gauges={"memory.peak_kib.crawl.run": 1100.0})
        assert diff_reports(old, new).drifts == []  # within GAUGE_REL_TOL
        grown = _report(gauges={"memory.peak_kib.crawl.run": 1300.0})
        drifted = diff_reports(old, grown)
        assert [d.name for d in drifted.drifts] == [
            "memory.peak_kib.crawl.run"
        ]
        assert drifted.verdict == "ok"  # gauge drift is report-only

    def test_appearing_metric_is_drift(self):
        old = _report()
        new = _report(counters={"kde.evaluations": 5})
        (drift,) = diff_reports(old, new).drifts
        assert drift.old is None and drift.new == 5


class TestSerialisation:
    def test_to_dict_is_machine_readable(self):
        old = _report(spans=[_span("crawl.run", 1.0)])
        new = _report(spans=[_span("crawl.run", 3.0)])
        data = diff_reports(old, new).to_dict()
        assert data["schema"] == DIFF_SCHEMA
        assert data["verdict"] == "regression"
        assert data["regressions"] == ["crawl.run"]
        json.dumps(data)  # must be serialisable as-is

    def test_render_text_mentions_thresholds(self):
        text = diff_reports(_report(), _report()).render_text()
        assert "max_ratio=1.5" in text
        assert "verdict: ok" in text


class TestCliStatsDiff:
    """The acceptance path: ``stats check``'s report diff exits 1 and
    names the span."""

    def _write_pair(self, bundle_copy, new_total):
        """A baseline and a candidate bundle whose spans differ only in
        ``pop.extract`` (0.4 s, then ``new_total``)."""

        def spans(total):
            return lambda data: data.update(spans=[
                _span("scenario.build", 1.0), _span("pop.extract", total),
            ])

        old = bundle_copy("old", spans(0.4))
        new = bundle_copy("new", spans(new_total))
        return str(old), str(new)

    def _check(self, new, old, *flags):
        return main(["stats", "check", new, "--baseline", old, *flags])

    def test_injected_2x_slowdown_fails_and_names_span(
        self, bundle_copy, capsys
    ):
        old_path, new_path = self._write_pair(bundle_copy, 0.8)
        status = self._check(new_path, old_path)
        captured = capsys.readouterr()
        assert status == 1
        assert "diff        failed   verdict: regression" in captured.out
        assert "pop.extract" in captured.err

    def test_identical_reports_pass(self, bundle_copy, capsys):
        old_path, _ = self._write_pair(bundle_copy, 0.8)
        assert self._check(old_path, old_path) == 0

    def test_json_format(self, bundle_copy, capsys):
        old_path, new_path = self._write_pair(bundle_copy, 0.8)
        status = self._check(new_path, old_path, "--format", "json")
        gates = {
            g["gate"]: g for g in json.loads(capsys.readouterr().out)["gates"]
        }
        data = gates["diff"]["document"]
        assert status == 1
        assert data["verdict"] == "regression"
        assert data["regressions"] == ["pop.extract"]

    def test_relaxed_threshold_passes(self, bundle_copy, capsys):
        # max_ratio in the baseline's thresholds.json.
        old_path, new_path = self._write_pair(bundle_copy, 0.8)
        (Path(old_path) / "thresholds.json").write_text(
            '{"diff": {"max_ratio": 3.0}}'
        )
        assert self._check(new_path, old_path) == 0

    def test_missing_file_is_a_usage_error(self, bundle_copy, capsys):
        old_path, new_path = self._write_pair(bundle_copy, 0.8)
        (Path(new_path) / "report.json").unlink()
        assert self._check(new_path, old_path) == 2
        assert "cannot load" in capsys.readouterr().out

    def test_non_report_json_is_a_usage_error(self, bundle_copy, capsys):
        old_path, _ = self._write_pair(bundle_copy, 0.8)
        (Path(old_path) / "report.json").write_text('{"schema": "other"}')
        assert self._check(old_path, old_path) == 2


def _profiled_report(rss=1000.0, util=0.5, stages=None):
    profile = {
        "schema": "repro.resource-profile/v1",
        "hz": 10.0,
        "sample_count": 5,
        "dropped_samples": 0,
        "samples": [],
        "stages": stages or {},
        "totals": {
            "duration_s": 1.0, "cpu_s": util, "cpu_util": util,
            "rss_peak_kib": rss, "rss_mean_kib": rss,
        },
    }
    report = _report()
    report.resource_profile = profile
    return report


class TestResourceDrift:
    def test_identical_profiles_are_ok(self):
        result = diff_reports(_profiled_report(), _profiled_report())
        assert result.resource_drifts == []
        assert result.resource_verdict == "ok"
        assert result.verdict == "ok"

    def test_rss_blowup_fails_by_default(self):
        result = diff_reports(
            _profiled_report(rss=1000.0), _profiled_report(rss=2000.0)
        )
        (drift,) = result.resource_drifts
        assert drift.metric == "rss_peak_kib"
        assert drift.scope == "totals"
        assert drift.ratio == pytest.approx(2.0)
        assert result.resource_verdict == "resource-drift"
        assert result.verdict == "regression"

    def test_rss_within_ratio_is_ok(self):
        result = diff_reports(
            _profiled_report(rss=1000.0), _profiled_report(rss=1400.0)
        )
        assert result.resource_drifts == []

    def test_cpu_util_swing_fails(self):
        result = diff_reports(
            _profiled_report(util=0.3), _profiled_report(util=0.9)
        )
        metrics = {d.metric for d in result.resource_drifts}
        assert "cpu_util" in metrics
        assert result.verdict == "regression"

    def test_custom_thresholds(self):
        limits = DiffThresholds(cpu_util_abs_tol=0.8)
        result = diff_reports(
            _profiled_report(rss=1000.0, util=0.3),
            _profiled_report(rss=1400.0, util=0.9),
            limits,
        )
        assert result.resource_drifts == []

    def test_shared_stages_judged_individually(self):
        old = _profiled_report(stages={
            "kde.evaluate": {"rss_peak_kib": 1000.0, "cpu_util": 0.5},
            "only.old": {"rss_peak_kib": 1.0, "cpu_util": 0.1},
        })
        new = _profiled_report(stages={
            "kde.evaluate": {"rss_peak_kib": 5000.0, "cpu_util": 0.5},
            "only.new": {"rss_peak_kib": 1e9, "cpu_util": 1.0},
        })
        scopes = {(d.scope, d.metric) for d in diff_reports(old, new)
                  .resource_drifts}
        assert ("kde.evaluate", "rss_peak_kib") in scopes
        # Stages present on only one side are never judged.
        assert not any(s in ("only.old", "only.new") for s, _ in scopes)

    def test_profile_on_one_side_only_is_not_judged(self):
        result = diff_reports(_report(), _profiled_report(rss=1e9))
        assert result.resource_drifts == []
        assert result.verdict == "ok"

    def test_serialisation_carries_resource_sections(self):
        result = diff_reports(
            _profiled_report(rss=1000.0), _profiled_report(rss=2000.0)
        )
        payload = json.loads(result.to_json())
        assert payload["resource_verdict"] == "resource-drift"
        assert payload["thresholds"]["max_rss_ratio"] == 1.5
        (drift,) = payload["resource_drifts"]
        assert drift["metric"] == "rss_peak_kib"
        text = result.render_text()
        assert "resource drift" in text
        assert "2.00x" in text
