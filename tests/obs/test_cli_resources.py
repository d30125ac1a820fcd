"""CLI surface of the resource-profile layer.

An instrumented ``table1`` run with ``--obs-dir`` produces a
validating ``repro.resource-profile/v1`` section whose rollups appear
in the run report summary, as Perfetto counter tracks in the bundle's
trace, and in ``stats resources`` output; ``stats check``'s budget
gate and the report diff's resource dimensions exit 1 on doctored
damage; degraded inputs exit 2 with one actionable line.
"""

import json
import pathlib

import pytest

from repro.cli import load_thresholds, main
from repro.obs.report import RunReport
from repro.obs.resources import RESOURCE_BUDGET_SCHEMA, validate_profile
from repro.obs.trace import validate_trace


@pytest.fixture(scope="module")
def profiled_run(run_bundle):
    """The shared instrumented table1 run: its report and trace."""
    return run_bundle / "report.json", run_bundle / "trace.json"


def write_baseline(root, report_path=None, **sections):
    """A baseline directory: an optional report plus thresholds.json."""
    root.mkdir()
    if report_path is not None:
        (root / "report.json").write_text(report_path.read_text())
    (root / "thresholds.json").write_text(json.dumps(sections))
    return root


class TestProfiledRun:
    def test_report_carries_valid_profile(self, profiled_run):
        report_path, _ = profiled_run
        profile = RunReport.load(report_path).resource_profile
        assert profile["sample_count"] >= 2
        assert profile["hz"] == 10.0
        assert validate_profile(profile) == []

    def test_meta_records_profile_hz(self, profiled_run):
        report_path, _ = profiled_run
        assert RunReport.load(report_path).meta["profile_hz"] == 10.0

    def test_summary_renders_rollups(self, profiled_run):
        report_path, _ = profiled_run
        summary = RunReport.load(report_path).render_summary()
        assert "resource profile:" in summary
        assert "rss peak" in summary

    def test_trace_gains_counter_tracks(self, profiled_run):
        _, trace_path = profiled_run
        document = json.loads(trace_path.read_text())
        assert validate_trace(document) == []
        names = {
            e["name"] for e in document["traceEvents"] if e["ph"] == "C"
        }
        assert "resources.rss_kib" in names
        assert "resources.cpu_util" in names

    def test_bare_flag_defaults_to_ten_hz(self, profiled_run):
        # --obs-dir samples resources at the one default rate.
        report_path, _ = profiled_run
        report = RunReport.load(report_path)
        assert report.resource_profile["hz"] == 10.0
        assert report.meta["profile_hz"] == 10.0


class TestStatsResources:
    def test_text_output_and_exit_zero(self, profiled_run, capsys):
        report_path, _ = profiled_run
        assert main(["stats", "resources", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "sampled at 10 Hz" in out
        assert "totals:" in out

    def test_json_output_carries_document(self, profiled_run, capsys):
        report_path, _ = profiled_run
        status = main([
            "stats", "resources", str(report_path), "--format", "json",
        ])
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is True
        assert payload["problems"] == []
        assert payload["profile"]["sample_count"] >= 2

    def test_doctored_profile_exits_one(self, profiled_run, tmp_path, capsys):
        report_path, _ = profiled_run
        data = json.loads(report_path.read_text())
        data["resource_profile"]["sample_count"] = -3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["stats", "resources", str(bad)]) == 1
        assert "resource profile INVALID" in capsys.readouterr().err

    def test_missing_section_exits_two(self, bundle_copy, capsys):
        bundle = bundle_copy("plain", lambda d: d.pop("resource_profile"))
        assert main(["stats", "resources", str(bundle / "report.json")]) == 2
        assert "regenerate it with --obs-dir" in capsys.readouterr().err

    def test_unreadable_report_exits_two(self, tmp_path, capsys):
        assert main(["stats", "resources", str(tmp_path / "nope.json")]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_budget_within_limits_passes(
        self, profiled_run, tmp_path, capsys
    ):
        report_path, _ = profiled_run
        base = write_baseline(tmp_path / "base", budget={
            "schema": RESOURCE_BUDGET_SCHEMA,
            "max_rss_peak_kib": 10 * 1024 * 1024,
            "max_cpu_s": 3600.0,
        })
        status = main([
            "stats", "check", str(report_path.parent),
            "--baseline", str(base),
        ])
        assert status == 0
        assert "budget      ok" in capsys.readouterr().out

    def test_budget_breach_exits_one(self, profiled_run, tmp_path, capsys):
        report_path, _ = profiled_run
        base = write_baseline(tmp_path / "base", budget={
            "schema": RESOURCE_BUDGET_SCHEMA,
            "max_rss_peak_kib": 1.0,
        })
        status = main([
            "stats", "check", str(report_path.parent),
            "--baseline", str(base),
        ])
        assert status == 1
        captured = capsys.readouterr()
        assert "budget      failed" in captured.out
        assert "max_rss_peak_kib" in captured.err

    def test_unreadable_budget_exits_two(self, profiled_run, tmp_path, capsys):
        report_path, _ = profiled_run
        base = tmp_path / "base"
        base.mkdir()
        (base / "thresholds.json").write_text("{not json")
        status = main([
            "stats", "check", str(report_path.parent),
            "--baseline", str(base),
        ])
        assert status == 2
        assert "cannot load thresholds" in capsys.readouterr().err


class TestStatsDiffResourceGate:
    """The report diff of ``stats check``: its resource dimensions."""

    def doctor(self, bundle_copy, name, rss_factor):
        def edit(data):
            totals = data["resource_profile"]["totals"]
            totals["rss_peak_kib"] = totals["rss_peak_kib"] * rss_factor

        return bundle_copy(name, edit)

    def check(self, profiled_run, bundle, tmp_path):
        report_path, _ = profiled_run
        base = write_baseline(
            tmp_path / "base", report_path, diff={"max_ratio": 1000}
        )
        return main(["stats", "check", str(bundle), "--baseline", str(base)])

    def test_doctored_rss_blowup_fails_the_gate(
        self, profiled_run, bundle_copy, tmp_path, capsys
    ):
        fat = self.doctor(bundle_copy, "fat", 10.0)
        assert self.check(profiled_run, fat, tmp_path) == 1
        captured = capsys.readouterr()
        assert "diff        failed" in captured.out
        assert "resource drift" in captured.err
        assert "rss_peak_kib" in captured.err

    def test_identical_profiles_are_ok(self, profiled_run, capsys):
        report_path, _ = profiled_run
        bundle = str(report_path.parent)
        status = main(["stats", "check", bundle, "--baseline", bundle])
        assert status == 0
        out = capsys.readouterr().out
        assert "diff        ok       verdict: ok" in out

    def test_one_sided_profile_exits_two_naming_the_bare_report(
        self, profiled_run, bundle_copy, capsys
    ):
        # Diffing a profiled report against one missing the resource
        # section would silently skip the resource gate; the check must
        # refuse with one actionable line instead.
        report_path, _ = profiled_run
        bare = bundle_copy("bare", lambda d: d.pop("resource_profile"))
        for new, base in ((bare, report_path.parent),
                          (report_path.parent, bare)):
            status = main([
                "stats", "check", str(new), "--baseline", str(base),
                "--format", "json",
            ])
            assert status == 2
            gates = {
                g["gate"]: g for g in json.loads(capsys.readouterr().out)[
                    "gates"
                ]
            }
            assert gates["diff"]["status"] == "error"
            assert str(bare / "report.json") in gates["diff"]["summary"]
            assert "regenerate it with --obs-dir" in gates["diff"]["summary"]

    def test_two_unprofiled_reports_still_diff_cleanly(
        self, bundle_copy, capsys
    ):
        # The diff itself judges two unprofiled reports; the check still
        # exits 2 because the resource gate cannot judge either bundle.
        bare = bundle_copy("bare", lambda d: d.pop("resource_profile"))
        status = main([
            "stats", "check", str(bare), "--baseline", str(bare),
            "--format", "json",
        ])
        assert status == 2
        gates = {
            g["gate"]: g for g in json.loads(capsys.readouterr().out)["gates"]
        }
        assert gates["diff"]["status"] == "ok"
        assert gates["diff"]["document"]["verdict"] == "ok"
        assert gates["resources"]["status"] == "error"


class TestCommittedBudgetFile:
    """The committed baselines' thresholds, loaded the way ``stats
    check`` loads them — a malformed edit would silently disarm a CI
    gate."""

    BUDGET_KEYS = {
        "max_rss_peak_kib", "max_rss_mean_kib", "max_cpu_s",
        "max_cpu_util", "max_heap_peak_kib",
    }

    BASELINES = pathlib.Path(__file__).resolve().parents[2] / (
        "benchmarks/baselines"
    )

    @pytest.fixture(scope="class")
    def smoke(self):
        return load_thresholds(self.BASELINES / "smoke")

    @pytest.fixture(scope="class")
    def stream(self):
        return load_thresholds(self.BASELINES / "stream")

    @pytest.fixture(scope="class")
    def section5(self):
        return load_thresholds(self.BASELINES / "section5")

    def _assert_valid(self, budget):
        assert budget["schema"] == RESOURCE_BUDGET_SCHEMA
        limits = {
            key: value
            for key, value in budget.items()
            if key.startswith("max_")
        }
        assert limits, "budget bounds nothing"
        assert set(limits) <= self.BUDGET_KEYS
        assert all(value > 0 for value in limits.values())

    def test_smoke_budget_is_valid(self, smoke):
        self._assert_valid(smoke["budget"])

    def test_section5_budget_is_valid(self, section5, smoke):
        # The Section 3-4 smoke bundle: its own budget, judged with the
        # table1 smoke run's diff limits.
        self._assert_valid(section5["budget"])
        assert section5["diff"] == smoke["diff"]

    def test_stream_budget_is_valid(self, stream):
        # The chunked-path baseline make smoke-stream checks against:
        # a budget and nothing else (it has no report to diff).
        self._assert_valid(stream["budget"])
        assert not (self.BASELINES / "stream" / "report.json").exists()

    def test_stream_budget_caps_rss(self, smoke, stream):
        # The O(chunk) contract (docs/DATA_MODEL.md): the chunked path
        # never needs more memory than the serial smoke run's ceiling.
        assert (
            stream["budget"]["max_rss_peak_kib"]
            <= smoke["budget"]["max_rss_peak_kib"]
        )

    def test_unknown_key_exits_two(self, profiled_run, tmp_path, capsys):
        report_path, _ = profiled_run
        base = tmp_path / "base"
        base.mkdir()
        (base / "thresholds.json").write_text('{"budgets": {}}')
        with pytest.raises(ValueError, match="unknown key 'budgets'"):
            load_thresholds(base)
        status = main([
            "stats", "check", str(report_path.parent),
            "--baseline", str(base),
        ])
        assert status == 2
        assert "unknown key 'budgets'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "thresholds, key",
        [
            ({"flame": {}}, "'flame'"),
            ({"diff": {"fail_on_data_drift": False}},
             "diff.'fail_on_data_drift'"),
        ],
    )
    def test_fixed_limit_keys_exit_two(
        self, profiled_run, tmp_path, capsys, thresholds, key
    ):
        # Only max_ratio, noise_floor_s and cpu_util_abs_tol are
        # settable; every other gate limit is a constant of the code.
        report_path, _ = profiled_run
        base = write_baseline(tmp_path / "base", **thresholds)
        status = main([
            "stats", "check", str(report_path.parent),
            "--baseline", str(base),
        ])
        assert status == 2
        assert f"unknown key {key}" in capsys.readouterr().err
