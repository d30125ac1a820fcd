"""End-to-end observability: CLI flags, run reports, cache logging.

Seeds here are deliberately distinct from the rest of the suite so the
scenario cache misses and the instrumented build paths actually run.
"""

import json
import logging

import pytest

from repro import __version__
from repro.cli import main
from repro.experiments.scenario import (
    ScenarioConfig,
    cached_scenario,
    config_hash,
)
from repro.obs import telemetry as obs
from repro.obs.report import RunReport


def _span_names(report: RunReport) -> set:
    return {path.split(" > ")[-1] for path in report.span_paths()}


class TestMetricsOut:
    """The run report ``--obs-dir`` writes into its bundle."""

    def test_table1_writes_run_report(self, tmp_path, capsys):
        status = main(["--obs-dir", str(tmp_path), "--seed", "91", "table1"])
        assert status == 0
        report = RunReport.load(tmp_path / "report.json")
        assert report.meta["command"] == "table1"
        assert report.meta["preset"] == "small"
        assert report.meta["seed"] == 91
        assert report.meta["version"] == __version__
        names = _span_names(report)
        # Per-stage spans of the Section 2 pipeline.
        for expected in ("crawl.run", "pipeline.mapping",
                         "pipeline.grouping", "pipeline.classify",
                         "scenario.build", "cli.table1"):
            assert expected in names, expected
        assert "crawl.peers_sampled" in report.counters

    def test_report_is_valid_json_on_disk(self, tmp_path, capsys):
        main(["--obs-dir", str(tmp_path), "--seed", "91", "table1"])
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["schema"] == "repro.run-report/v1"

    def test_telemetry_disabled_after_run(self, tmp_path, capsys):
        main(["--obs-dir", str(tmp_path), "--seed", "91", "table1"])
        assert not obs.get_telemetry().enabled

    def test_output_identical_with_and_without_telemetry(
        self, tmp_path, capsys
    ):
        status_plain = main(["--seed", "92", "table1"])
        plain = capsys.readouterr().out
        status_instrumented = main(
            ["--obs-dir", str(tmp_path), "--seed", "92", "table1"]
        )
        instrumented = capsys.readouterr().out
        assert status_plain == status_instrumented == 0
        assert plain == instrumented  # telemetry must not change results


class TestStatsCommand:
    def test_stats_prints_span_table(self, capsys):
        status = main(["--seed", "93", "stats", "--top", "4",
                       "--profile-ases", "1"])
        out = capsys.readouterr().out
        assert status == 0
        assert "scenario.build" in out
        assert "kde.evaluate" in out
        assert "pop.extract" in out
        assert "top 4 spans by total time:" in out
        assert "counters:" in out
        assert "target dataset:" in out

    def test_stats_respects_metrics_out(self, tmp_path, capsys):
        status = main(["--obs-dir", str(tmp_path), "--seed", "94", "stats",
                       "--profile-ases", "1"])
        assert status == 0
        report = RunReport.load(tmp_path / "report.json")
        assert "kde.evaluations" in report.counters
        assert "cli.stats" in _span_names(report)


class TestStatsProfilingFlags:
    """Bare ``stats``: the ``make profile`` path, where main() arms
    telemetry and the one sampler at its default rates."""

    def run_stats(self, capsys, *flags):
        status = main([*flags, "stats", "--profile-ases", "1"])
        assert status == 0
        return capsys.readouterr().out

    def test_profile_resources_prints_the_resource_profile(self, capsys):
        out = self.run_stats(capsys, "--seed", "81")
        assert "resource profile:" in out
        assert "sampled at 10 Hz" in out

    def test_flame_hz_prints_the_flame_profile(self, capsys):
        out = self.run_stats(capsys, "--seed", "82")
        assert "flame profile:" in out
        assert "sampled at 97 Hz" in out

    def test_memory_prints_the_peak_gauges(self, capsys):
        out = self.run_stats(capsys, "--memory", "--seed", "83")
        assert "memory.peak_kib.scenario.build" in out


class TestVersionAndLogging:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_log_level_is_validated(self, capsys):
        with pytest.raises(SystemExit):
            main(["--log-level", "chatty", "table1"])

    def test_cache_hit_and_miss_are_logged(self, caplog):
        config = ScenarioConfig.small(seed=95)
        digest = config_hash(config)
        with caplog.at_level(logging.INFO, logger="repro"):
            cached_scenario(config)
            cached_scenario(config)
        cache_lines = [
            r.getMessage() for r in caplog.records
            if r.getMessage().startswith("scenario.cache ")
        ]
        assert len(cache_lines) == 2
        assert "event=miss" in cache_lines[0]
        assert "event=hit" in cache_lines[1]
        assert all(f"hash={digest}" in line for line in cache_lines)

    def test_cache_events_counted(self):
        config = ScenarioConfig.small(seed=96)
        with obs.capture() as t:
            cached_scenario(config)
            cached_scenario(config)
        assert t.counters["scenario.cache_miss"] == 1
        assert t.counters["scenario.cache_hit"] == 1
