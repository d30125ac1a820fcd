"""The data-quality gate: funnel/quantile drift in diffs and the CLI.

Covers the acceptance path end to end: an instrumented ``table1`` run
produces a conserving ``repro.data-quality/v1`` section, ``stats
funnel`` renders it (and exits 1 on a conservation violation), and
``stats check`` exits 1 when a funnel stage's retention rate drifts
from the baseline's beyond tolerance.
"""

import json

import pytest

from repro.cli import main
from repro.obs.diff import diff_reports
from repro.obs.lineage import FunnelStage
from repro.obs.report import DATA_QUALITY_SCHEMA, RunReport


def _stage(name, records_in, records_out, reason=None, unit="peers"):
    stage = FunnelStage(name=name, unit=unit)
    drops = (
        {reason: records_in - records_out}
        if records_in != records_out
        else None
    )
    stage.record(records_in, records_out, drops)
    return stage.to_dict()


def _report(funnel=None, quality=None):
    data_quality = {}
    if funnel is not None or quality is not None:
        data_quality = {
            "schema": DATA_QUALITY_SCHEMA,
            "funnel": funnel or [],
            "quality": quality or {},
        }
    return RunReport(meta={}, data_quality=data_quality)


def _digest(p50, p90, p99, count=100):
    return {
        "count": count,
        "total": p50 * count,
        "min": 0.0,
        "max": p99,
        "mean": p50,
        "quantiles": {"p50": p50, "p90": p90, "p99": p99},
        "centroids": [[p50, count]],
    }


class TestRetentionDrift:
    def test_identical_funnels_are_ok(self):
        report = _report(funnel=[_stage("pipeline.mapping", 100, 90,
                                        "missing_record")])
        diff = diff_reports(report, report)
        assert diff.retention_drifts == []
        assert diff.data_verdict == "ok"
        assert diff.verdict == "ok"

    def test_retention_shift_fails_by_default(self):
        old = _report(funnel=[_stage("pipeline.filter_geo_error", 100, 95,
                                     "geo_error")])
        new = _report(funnel=[_stage("pipeline.filter_geo_error", 100, 80,
                                     "geo_error")])
        diff = diff_reports(old, new)
        [drift] = diff.retention_drifts
        assert drift.stage == "pipeline.filter_geo_error"
        assert drift.delta == pytest.approx(-0.15)
        assert diff.data_verdict == "data-drift"
        assert diff.verdict == "regression"

    def test_within_tolerance_passes(self):
        old = _report(funnel=[_stage("s", 100, 95, "geo_error")])
        new = _report(funnel=[_stage("s", 100, 92, "geo_error")])
        diff = diff_reports(old, new)  # |delta| = 0.03 <= 0.05
        assert diff.retention_drifts == []
        assert diff.verdict == "ok"

    def test_stage_present_in_only_one_report_drifts(self):
        old = _report(funnel=[])
        new = _report(funnel=[_stage("crawl.run", 10, 10, unit="users")])
        diff = diff_reports(old, new)
        [drift] = diff.retention_drifts
        assert drift.old_retention is None
        assert drift.new_retention == 1.0
        assert diff.verdict == "regression"

    def test_pre_lineage_reports_have_no_data_gate(self):
        diff = diff_reports(_report(), _report())
        assert diff.data_drifts == []
        assert diff.verdict == "ok"


class TestQuantileDrift:
    def test_quantile_shift_beyond_tolerance_drifts(self):
        old = _report(quality={"geo_error_km": _digest(10.0, 40.0, 80.0)})
        new = _report(quality={"geo_error_km": _digest(10.0, 60.0, 80.0)})
        diff = diff_reports(old, new)
        [drift] = diff.quantile_drifts
        assert (drift.name, drift.quantile) == ("geo_error_km", "p90")
        assert drift.rel_change == pytest.approx(0.5)
        assert diff.verdict == "regression"

    def test_small_shift_within_tolerance_passes(self):
        old = _report(quality={"geo_error_km": _digest(10.0, 40.0, 80.0)})
        new = _report(quality={"geo_error_km": _digest(11.0, 44.0, 88.0)})
        assert diff_reports(old, new).quantile_drifts == []

    def test_serialised_diff_carries_data_sections(self):
        old = _report(funnel=[_stage("s", 100, 80, "geo_error")],
                      quality={"x": _digest(10.0, 40.0, 80.0)})
        new = _report(funnel=[_stage("s", 100, 60, "geo_error")],
                      quality={"x": _digest(20.0, 40.0, 80.0)})
        data = diff_reports(old, new).to_dict()
        assert data["data_verdict"] == "data-drift"
        assert data["retention_drifts"][0]["stage"] == "s"
        assert data["quantile_drifts"][0]["quantile"] == "p50"
        assert data["thresholds"]["retention_abs_tol"] == 0.05


class TestInstrumentedRunEndToEnd:
    @pytest.fixture(scope="class")
    def report_path(self, run_bundle):
        return run_bundle / "report.json"

    def test_table1_report_carries_conserving_funnel(self, report_path):
        report = RunReport.load(report_path)
        assert report.data_quality["schema"] == DATA_QUALITY_SCHEMA
        stages = {s["stage"]: s for s in report.funnel()}
        for expected in (
            "crawl.run",
            "pipeline.mapping",
            "pipeline.filter_geo_error",
            "pipeline.grouping",
            "pipeline.filter_min_peers",
            "pipeline.filter_error_percentile",
            "pipeline.classify",
        ):
            assert expected in stages, expected
        for stage in stages.values():
            FunnelStage.from_dict(stage).check_conservation()
        # The funnel is continuous: each peer stage consumes what the
        # previous one produced.
        assert (stages["pipeline.mapping"]["records_out"]
                == stages["pipeline.filter_geo_error"]["records_in"])
        assert (stages["pipeline.filter_geo_error"]["records_out"]
                == stages["pipeline.grouping"]["records_in"])

    def test_quality_digests_and_gauges_present(self, report_path):
        report = RunReport.load(report_path)
        digests = report.quality_digests()
        for name in ("geo_error_km", "as_peer_count",
                     "classification_containment"):
            assert name in digests, name
            assert digests[name]["count"] > 0
        # Each fact has one place: digests and profiles are never
        # mirrored into gauges.
        assert not [
            name for name in report.gauges
            if name.startswith(("quality.", "resources.", "prof."))
        ]
        summary = report.render_summary()
        for name, digest in digests.items():
            row = next(
                line.split() for line in summary.splitlines()
                if line.split()[:1] == [name]
            )
            assert row[1] == str(digest["count"]), row
            assert len(row) == 5, row  # count, p50, p90, p99

    def test_stats_funnel_renders_waterfall(self, report_path, capsys):
        assert main(["stats", "funnel", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "pipeline.mapping" in out
        assert "missing_record" in out

    def test_stats_funnel_json(self, report_path, capsys):
        assert main(["stats", "funnel", str(report_path),
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == DATA_QUALITY_SCHEMA
        assert data["conserved"] is True
        assert data["violations"] == []

    def test_stats_funnel_flags_conservation_violation(
        self, report_path, tmp_path, capsys
    ):
        data = json.loads(report_path.read_text())
        data["data_quality"]["funnel"][0]["records_out"] += 7
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data))
        assert main(["stats", "funnel", str(broken)]) == 1
        assert "VIOLATED" in capsys.readouterr().err

    # The data gate of stats check's report diff (against the baseline).

    def test_stats_diff_fails_on_perturbed_retention(
        self, run_bundle, bundle_copy, capsys
    ):
        def perturb(data):
            for stage in data["data_quality"]["funnel"]:
                if stage["stage"] == "pipeline.filter_geo_error":
                    shift = stage["records_out"] // 2
                    stage["records_out"] -= shift
                    stage["drops"]["geo_error"] += shift
                    stage["retention"] = (
                        stage["records_out"] / stage["records_in"]
                    )

        perturbed = bundle_copy("perturbed", perturb)
        status = main([
            "stats", "check", str(perturbed), "--baseline", str(run_bundle)
        ])
        captured = capsys.readouterr()
        assert status == 1
        assert "funnel      ok" in captured.out  # still conserving
        assert "diff        failed" in captured.out
        assert "funnel retention drift" in captured.err
        assert "pipeline.filter_geo_error" in captured.err

    def test_stats_diff_identical_reports_pass_data_gate(
        self, run_bundle, capsys
    ):
        assert main([
            "stats", "check", str(run_bundle), "--baseline", str(run_bundle)
        ]) == 0
        capsys.readouterr()


class TestMemoryFlagWarning:
    def test_memory_without_sink_warns_on_stderr(self, capsys):
        status = main(["--memory", "--seed", "91", "table1"])
        assert status == 0
        err = capsys.readouterr().err
        assert "--memory does nothing without a telemetry sink" in err
        assert "--obs-dir" in err

    def test_no_warning_with_a_sink(self, tmp_path, capsys):
        status = main(["--obs-dir", str(tmp_path),
                       "--memory", "--seed", "91", "table1"])
        assert status == 0
        err = capsys.readouterr().err
        assert "does nothing" not in err

    def test_no_warning_without_memory_flag(self, capsys):
        status = main(["--seed", "91", "table1"])
        assert status == 0
        assert "does nothing" not in capsys.readouterr().err
