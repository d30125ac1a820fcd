"""CLI surface of the live-telemetry layer.

An instrumented ``table1`` run with ``--obs-dir`` streams a
schema-valid ``events.jsonl`` (heartbeats, one terminal ``progress``
per instrumented stage), ``stats events`` validates it (exit 0) and
names damage (exit 1), ``--progress`` renders live bars on stderr, and
the degraded-input paths of ``stats funnel`` and ``stats check``'s
report diff fail with one actionable line and exit 2 — never a
traceback.
"""

import json

import pytest

from repro.cli import main
from repro.obs.events import EVENTS_SCHEMA, load_events, validate_events
from repro.obs.trace import validate_trace

# Live-stage tests need seeds no other test file uses: the in-process
# scenario cache would otherwise serve the scenario whole and the
# crawl/pipeline stages would never loop — no events.  (This file also
# must not warm a seed another file expects to build first: it runs
# before tests/obs/test_cli_metrics.py, whose span assertions need the
# seed-91 build to happen inside its own instrumented run.)
FRESH_SEED = "911"


@pytest.fixture(scope="module")
def events_run(run_bundle):
    """The shared instrumented table1 run: events + report side by side."""
    return run_bundle / "events.jsonl", run_bundle / "report.json"


class TestEventsOut:
    def test_stream_is_schema_valid(self, events_run):
        events_path, _ = events_run
        stored = load_events(events_path)
        assert validate_events(stored) == []
        assert all(e["schema"] == EVENTS_SCHEMA for e in stored)

    def test_at_least_one_heartbeat(self, events_run):
        events_path, _ = events_run
        beats = [
            e for e in load_events(events_path) if e["type"] == "heartbeat"
        ]
        assert len(beats) >= 1

    def test_terminal_progress_per_instrumented_stage(self, events_run):
        events_path, _ = events_run
        stored = load_events(events_path)
        started = {
            e["stage"] for e in stored if e["type"] == "stage_start"
        }
        assert {"crawl.run", "pipeline.mapping"} <= started
        for stage in started:
            terminal = [
                e for e in stored
                if e["type"] == "progress" and e["stage"] == stage
            ][-1]
            assert terminal["done"] == terminal["total"]
            ends = [
                e for e in stored
                if e["type"] == "stage_end" and e["stage"] == stage
            ]
            assert len(ends) == 1

    def test_progress_gauges_land_in_the_report(self, events_run):
        from repro.obs.report import RunReport

        events_path, report_path = events_run
        report = RunReport.load(report_path)
        stored = load_events(events_path)
        for event in stored:
            if event["type"] != "stage_end":
                continue
            gauge = f"progress.{event['stage']}.total"
            assert report.gauges[gauge] == event["done"]

    def test_stdout_is_byte_identical_to_plain_run(self, tmp_path, capsys):
        status_plain = main(["--seed", FRESH_SEED, "table1"])
        plain = capsys.readouterr()
        status_events = main([
            "--obs-dir", str(tmp_path / "run"),
            "--seed", FRESH_SEED, "table1",
        ])
        instrumented = capsys.readouterr()
        assert status_plain == status_events == 0
        assert plain.out == instrumented.out
        assert "run bundle written to" in instrumented.err
        assert load_events(tmp_path / "run" / "events.jsonl")


class TestProgressFlag:
    def test_progress_renders_bars_on_stderr(self, capsys):
        status = main(["--progress", "--seed", "912", "table1"])
        captured = capsys.readouterr()
        assert status == 0
        assert "[crawl.run] |" in captured.err
        assert "done:" in captured.err


class TestStatsEvents:
    def test_valid_stream_exits_zero(self, events_run, capsys):
        events_path, _ = events_run
        status = main(["stats", "events", str(events_path)])
        captured = capsys.readouterr()
        assert status == 0
        assert "event(s)" in captured.out
        assert "INVALID" not in captured.err

    def test_json_format_reports_valid(self, events_run, capsys):
        events_path, _ = events_run
        status = main([
            "stats", "events", str(events_path), "--format", "json"
        ])
        summary = json.loads(capsys.readouterr().out)
        assert status == 0
        assert summary["valid"] is True
        assert summary["problems"] == []
        assert summary["schema"] == EVENTS_SCHEMA
        assert summary["by_type"]["heartbeat"] >= 1

    def test_sequence_gap_exits_one(self, events_run, tmp_path, capsys):
        events_path, _ = events_run
        lines = events_path.read_text().splitlines()
        gapped = tmp_path / "gapped.jsonl"
        gapped.write_text("\n".join(lines[:2] + lines[3:]) + "\n")
        status = main(["stats", "events", str(gapped)])
        captured = capsys.readouterr()
        assert status == 1
        assert "sequence gap" in captured.err

    def test_truncated_stream_exits_one(self, events_run, tmp_path, capsys):
        events_path, _ = events_run
        text = events_path.read_text().rstrip("\n")
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text(text[:-20])
        status = main(["stats", "events", str(truncated)])
        captured = capsys.readouterr()
        assert status == 1
        assert "not valid JSON (truncated?)" in captured.err

    def test_unreadable_file_exits_two(self, tmp_path, capsys):
        status = main(["stats", "events", str(tmp_path / "missing.jsonl")])
        captured = capsys.readouterr()
        assert status == 2
        assert "cannot read event stream" in captured.err


class TestStatsEventsLimit:
    """--limit N tails the rendering without weakening validation."""

    def test_limit_tails_the_text_rendering(self, events_run, capsys):
        events_path, _ = events_run
        total = len(events_path.read_text().splitlines())
        status = main([
            "stats", "events", str(events_path), "--limit", "2",
        ])
        captured = capsys.readouterr()
        assert status == 0
        assert f"(showing last 2 of {total} events)" in captured.out

    def test_limit_json_reports_shown_and_total(self, events_run, capsys):
        events_path, _ = events_run
        total = len(events_path.read_text().splitlines())
        status = main([
            "stats", "events", str(events_path),
            "--format", "json", "--limit", "3",
        ])
        summary = json.loads(capsys.readouterr().out)
        assert status == 0
        assert summary["total_events"] == total
        assert summary["shown_events"] == min(3, total)
        assert summary["valid"] is True

    def test_limit_larger_than_stream_shows_everything(
        self, events_run, capsys
    ):
        events_path, _ = events_run
        status = main([
            "stats", "events", str(events_path), "--limit", "100000",
        ])
        captured = capsys.readouterr()
        assert status == 0
        assert "(showing last" not in captured.out

    def test_limit_does_not_mask_early_damage(
        self, events_run, tmp_path, capsys
    ):
        # A sequence gap in the untrimmed head must still fail even
        # when --limit hides those events from the rendering.
        events_path, _ = events_run
        lines = events_path.read_text().splitlines()
        gapped = tmp_path / "gapped.jsonl"
        gapped.write_text("\n".join(lines[:2] + lines[3:]) + "\n")
        status = main(["stats", "events", str(gapped), "--limit", "1"])
        captured = capsys.readouterr()
        assert status == 1
        assert "sequence gap" in captured.err

    def test_negative_limit_is_rejected(self, events_run, capsys):
        events_path, _ = events_run
        status = main([
            "stats", "events", str(events_path), "--limit", "-1",
        ])
        assert status == 2
        assert "--limit must be non-negative" in capsys.readouterr().err


class TestDegradedReports:
    """Reports from older versions get one actionable line, exit 2."""

    def _strip_data_quality(self, report_path, target):
        document = json.loads(report_path.read_text())
        document.pop("data_quality", None)
        target.write_text(json.dumps(document))
        return target

    def test_funnel_without_section_exits_two(
        self, events_run, tmp_path, capsys
    ):
        _, report_path = events_run
        old = self._strip_data_quality(report_path, tmp_path / "old.json")
        status = main(["stats", "funnel", str(old)])
        captured = capsys.readouterr()
        assert status == 2
        assert "has no repro.data-quality/v1 section" in captured.err
        assert "regenerate" in captured.err
        assert "Traceback" not in captured.err

    def test_diff_with_malformed_funnel_exits_two(
        self, run_bundle, bundle_copy, capsys
    ):
        # A baseline funnel stage missing its "stage" key: the shape an
        # older (or hand-edited) writer could leave behind.
        base = bundle_copy(
            "old",
            lambda data: data["data_quality"].update(
                funnel=[{"unit": "peers"}]
            ),
        )
        status = main([
            "stats", "check", str(run_bundle), "--baseline", str(base)
        ])
        captured = capsys.readouterr()
        assert status == 2
        assert "diff        error    cannot diff reports" in captured.out
        assert "regenerate" in captured.out
        assert "Traceback" not in captured.err


class TestTraceIntegration:
    def test_events_fold_into_trace_as_instant_marks(
        self, tmp_path, capsys
    ):
        trace_path = tmp_path / "run" / "trace.json"
        events_path = tmp_path / "run" / "events.jsonl"
        status = main([
            "--obs-dir", str(tmp_path / "run"), "--seed", "913", "table1",
        ])
        assert status == 0
        document = json.loads(trace_path.read_text())
        assert validate_trace(document) == []
        instants = [
            e for e in document["traceEvents"] if e["ph"] == "i"
        ]
        assert len(instants) == len(load_events(events_path))
        names = {e["name"] for e in instants}
        assert "event.heartbeat" in names
        assert "event.progress" in names
        assert all(e["cat"] == "events" for e in instants)
