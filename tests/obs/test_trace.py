"""Chrome trace-event export: structure, nesting, schema validity."""

import json

from repro.cli import main
from repro.obs.report import RunReport
from repro.obs.trace import (
    TRACE_PID,
    trace_from_report,
    validate_trace,
    write_trace,
)


def _report():
    return RunReport(
        meta={"command": "stats", "preset": "small"},
        spans=[
            {
                "name": "scenario.build",
                "count": 1,
                "total_s": 2.0,
                "min_s": 2.0,
                "max_s": 2.0,
                "children": [
                    {"name": "scenario.world", "count": 1, "total_s": 0.5,
                     "min_s": 0.5, "max_s": 0.5},
                    {"name": "kde.evaluate", "count": 10, "total_s": 1.0,
                     "min_s": 0.05, "max_s": 0.3},
                ],
            },
            {"name": "pop.extract", "count": 3, "total_s": 0.3,
             "min_s": 0.1, "max_s": 0.1},
        ],
        counters={"kde.evaluations": 10},
        gauges={"pipeline.target_ases": 7},
    )


def _events_by_name(document):
    return {e["name"]: e for e in document["traceEvents"] if e["ph"] == "X"}


class TestExport:
    def test_document_validates_against_schema(self):
        document = trace_from_report(_report())
        assert validate_trace(document) == []

    def test_every_span_becomes_a_complete_event(self):
        slices = _events_by_name(trace_from_report(_report()))
        assert set(slices) == {
            "scenario.build", "scenario.world", "kde.evaluate",
            "pop.extract",
        }
        build = slices["scenario.build"]
        assert build["dur"] == 2.0e6  # microseconds
        assert build["pid"] == TRACE_PID

    def test_children_nest_inside_parent_and_siblings_follow(self):
        slices = _events_by_name(trace_from_report(_report()))
        build = slices["scenario.build"]
        world = slices["scenario.world"]
        kde = slices["kde.evaluate"]
        pop = slices["pop.extract"]
        # children start at the parent and sit within its extent
        assert world["ts"] == build["ts"]
        assert kde["ts"] == world["ts"] + world["dur"]
        assert kde["ts"] + kde["dur"] <= build["ts"] + build["dur"] + 1e-6
        # the next root span starts where the previous one ended
        assert pop["ts"] == build["ts"] + build["dur"]

    def test_aggregate_stats_ride_in_args(self):
        slices = _events_by_name(trace_from_report(_report()))
        kde = slices["kde.evaluate"]
        assert kde["args"]["count"] == 10
        assert kde["args"]["mean_ms"] == 100.0
        assert kde["args"]["max_ms"] == 300.0

    def test_counters_become_counter_events(self):
        document = trace_from_report(_report())
        counters = [e for e in document["traceEvents"] if e["ph"] == "C"]
        assert [(e["name"], e["args"]["value"]) for e in counters] == [
            ("kde.evaluations", 10)
        ]

    def test_meta_and_gauges_ride_in_other_data(self):
        document = trace_from_report(_report())
        assert document["otherData"]["meta"]["command"] == "stats"
        assert document["otherData"]["gauges"] == {
            "pipeline.target_ases": 7
        }

    def test_category_is_the_taxonomy_prefix(self):
        slices = _events_by_name(trace_from_report(_report()))
        assert slices["kde.evaluate"]["cat"] == "kde"
        assert slices["scenario.build"]["cat"] == "scenario"

    def test_write_trace_roundtrips_through_disk(self, tmp_path):
        path = write_trace(_report(), tmp_path / "sub" / "trace.json")
        document = json.loads(path.read_text())
        assert validate_trace(document) == []
        assert _events_by_name(document)["pop.extract"]["dur"] == 0.3e6


def _live_events():
    return [
        {"schema": "repro.events/v1", "seq": 0, "t_s": 0.0,
         "type": "heartbeat", "source": "stream"},
        {"schema": "repro.events/v1", "seq": 1, "t_s": 0.5,
         "type": "progress", "stage": "crawl.run", "done": 5,
         "total": 10, "unit": "apps"},
        {"schema": "repro.events/v1", "seq": 2, "t_s": 1.25,
         "type": "stall_warning", "source": "exec", "chunk": 3,
         "duration_s": 9.0, "threshold_s": 2.0},
    ]


class TestInstantEvents:
    def test_live_events_become_instant_marks(self):
        document = trace_from_report(_report(), live_events=_live_events())
        assert validate_trace(document) == []
        instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
        assert [e["name"] for e in instants] == [
            "event.heartbeat", "event.progress", "event.stall_warning"
        ]
        assert all(e["cat"] == "events" for e in instants)

    def test_timestamps_scale_to_microseconds(self):
        document = trace_from_report(_report(), live_events=_live_events())
        instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
        assert instants[1]["ts"] == 0.5e6
        assert instants[2]["ts"] == 1.25e6

    def test_stall_warnings_get_process_scope(self):
        document = trace_from_report(_report(), live_events=_live_events())
        scopes = {
            e["name"]: e["s"]
            for e in document["traceEvents"] if e["ph"] == "i"
        }
        assert scopes["event.stall_warning"] == "p"
        assert scopes["event.heartbeat"] == "t"
        assert scopes["event.progress"] == "t"

    def test_full_event_rides_in_args(self):
        document = trace_from_report(_report(), live_events=_live_events())
        instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
        assert instants[2]["args"]["chunk"] == 3
        assert instants[2]["args"]["threshold_s"] == 2.0

    def test_bad_timestamps_clamp_instead_of_invalidating(self):
        weird = [
            {"type": "heartbeat", "t_s": -2.0},
            {"type": "heartbeat", "t_s": "soon"},
        ]
        document = trace_from_report(_report(), live_events=weird)
        assert validate_trace(document) == []
        instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
        assert [e["ts"] for e in instants] == [0.0, 0.0]

    def test_write_trace_forwards_events(self, tmp_path):
        path = write_trace(
            _report(), tmp_path / "trace.json", events=_live_events()
        )
        document = json.loads(path.read_text())
        assert validate_trace(document) == []
        assert sum(
            1 for e in document["traceEvents"] if e["ph"] == "i"
        ) == 3


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_trace([]) == ["document is not a JSON object"]

    def test_rejects_missing_event_array(self):
        assert validate_trace({}) == [
            "traceEvents is missing or not an array"
        ]

    def test_flags_unknown_phase_and_missing_fields(self):
        problems = validate_trace(
            {
                "traceEvents": [
                    {"name": "x", "ph": "Z", "ts": 0},
                    {"name": 3, "ph": "X", "ts": 1, "dur": 1,
                     "pid": 1, "tid": 1},
                    {"name": "y", "ph": "X", "ts": -1, "pid": 1, "tid": 1},
                ]
            }
        )
        text = "\n".join(problems)
        assert "unknown phase 'Z'" in text
        assert "name is not a string" in text
        assert "ts missing or negative" in text
        assert "X event needs dur" in text

    def test_empty_trace_is_valid(self):
        assert validate_trace({"traceEvents": []}) == []

    def test_flags_illegal_instant_scope(self):
        problems = validate_trace(
            {
                "traceEvents": [
                    {"name": "x", "ph": "i", "ts": 0, "s": "q",
                     "pid": 1, "tid": 1},
                    {"name": "y", "ph": "i", "ts": 0, "s": "g",
                     "pid": 1, "tid": 1},
                ]
            }
        )
        assert len(problems) == 1
        assert "scope must be one of g/p/t" in problems[0]


class TestCliTraceOut:
    """The trace.json of an ``--obs-dir`` run bundle."""

    def test_trace_out_writes_valid_trace(self, tmp_path, capsys):
        status = main(["--obs-dir", str(tmp_path), "--seed", "87", "table1"])
        assert status == 0
        document = json.loads((tmp_path / "trace.json").read_text())
        assert validate_trace(document) == []
        names = {e["name"] for e in document["traceEvents"]}
        assert "scenario.build" in names
        assert "cli.table1" in names

    def test_trace_out_composes_with_metrics_out(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        report_path = tmp_path / "report.json"
        status = main(["--obs-dir", str(tmp_path), "--seed", "87", "table1"])
        assert status == 0
        assert trace_path.exists() and report_path.exists()
        report = RunReport.load(report_path)
        document = json.loads(trace_path.read_text())
        assert document["otherData"]["meta"] == report.meta
