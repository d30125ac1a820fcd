"""RunHistory: the append-only JSONL run archive."""

import json

import pytest

from repro.obs.history import (
    HISTORY_SCHEMA,
    KIND_BENCHMARK,
    KIND_REPORT,
    HistoryEntry,
    RunHistory,
    utc_timestamp,
)
from repro.obs.report import RunReport


def _report(total_s=1.0):
    return RunReport(
        meta={"command": "table1"},
        spans=[{"name": "scenario.build", "count": 1, "total_s": total_s,
                "min_s": total_s, "max_s": total_s}],
        counters={"crawl.peers_sampled": 10},
        gauges={"pipeline.target_ases": 4},
    )


class TestAppend:
    def test_append_report_roundtrips(self, tmp_path):
        history = RunHistory(tmp_path / "history.jsonl")
        history.append_report(
            _report(), name="table1", git_rev="abc1234",
            preset="small", seed=5, timestamp="2026-08-05T00:00:00+00:00",
        )
        (entry,) = history.entries()
        assert entry.kind == KIND_REPORT
        assert entry.name == "table1"
        assert entry.meta["git_rev"] == "abc1234"
        assert entry.meta["preset"] == "small"
        restored = entry.report()
        assert restored.counters == {"crawl.peers_sampled": 10}
        assert restored.span_paths() == ["scenario.build"]

    def test_append_benchmark_uses_record_name(self, tmp_path):
        history = RunHistory(tmp_path / "h.jsonl")
        history.append_benchmark(
            {"name": "figure2", "wall_time_s": 12.5},
            timestamp="2026-08-05T00:00:00+00:00",
        )
        (entry,) = history.entries(kind=KIND_BENCHMARK)
        assert entry.name == "figure2"
        assert entry.wall_time_s() == 12.5

    def test_appends_are_cumulative_one_line_each(self, tmp_path):
        path = tmp_path / "h.jsonl"
        history = RunHistory(path)
        for rev in ("a", "b", "c"):
            history.append_report(_report(), name="stats", git_rev=rev)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            assert json.loads(line)["schema"] == HISTORY_SCHEMA

    def test_parent_directories_created(self, tmp_path):
        history = RunHistory(tmp_path / "deep" / "er" / "h.jsonl")
        history.append(KIND_REPORT, "x", {})
        assert history.entries()


class TestRead:
    def test_missing_file_is_empty(self, tmp_path):
        history = RunHistory(tmp_path / "absent.jsonl")
        assert history.entries() == []
        assert history.last("anything") is None
        assert "no history entries" in history.render_summary()

    def test_filter_by_name_and_last(self, tmp_path):
        history = RunHistory(tmp_path / "h.jsonl")
        history.append_report(_report(1.0), name="table1", git_rev="one")
        history.append_report(_report(2.0), name="figure2", git_rev="two")
        history.append_report(_report(3.0), name="table1", git_rev="three")
        assert [e.name for e in history.entries(name="table1")] == [
            "table1", "table1"
        ]
        assert history.last("table1").meta["git_rev"] == "three"
        assert history.names() == ["figure2", "table1"]

    def test_corrupt_lines_are_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "h.jsonl"
        history = RunHistory(path)
        history.append_report(_report(), name="ok")
        with path.open("a") as stream:
            stream.write("{not json\n")
            stream.write('{"schema": "something/else"}\n')
            stream.write("\n")
        assert [e.name for e in history.entries()] == ["ok"]
        assert history.skipped_lines() == 2

    def test_entry_schema_is_enforced(self):
        with pytest.raises(ValueError, match="not a history entry"):
            HistoryEntry.from_dict({"schema": "bogus", "kind": "report"})

    def test_wall_time_falls_back_to_span_totals(self):
        entry = HistoryEntry(
            kind=KIND_REPORT, name="x", payload=_report(2.5).to_dict()
        )
        assert entry.wall_time_s() == pytest.approx(2.5)


class TestRender:
    def test_summary_lists_recent_entries(self, tmp_path):
        history = RunHistory(tmp_path / "h.jsonl")
        for index in range(12):
            history.append_benchmark(
                {"name": f"bench{index}", "wall_time_s": float(index)},
                git_rev="abc", timestamp="2026-08-05T00:00:00+00:00",
            )
        text = history.render_summary(last=3)
        assert "12 entries" in text
        assert "bench11" in text and "bench9" in text
        assert "bench8" not in text
        assert "abc" in text


class TestCliStatsHistory:
    @pytest.fixture()
    def history_path(self, tmp_path):
        path = tmp_path / "h.jsonl"
        history = RunHistory(path)
        for index in range(5):
            history.append_benchmark(
                {"name": f"bench{index}", "wall_time_s": float(index)},
                git_rev="abc", timestamp="2026-08-05T00:00:00+00:00",
            )
        return path

    def test_limit_flag_caps_entries(self, history_path, capsys):
        from repro.cli import main

        assert main(["stats", "history", "--path", str(history_path),
                     "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "bench4" in out and "bench3" in out
        assert "bench2" not in out

    def test_json_format_emits_raw_entries(self, history_path, capsys):
        from repro.cli import main

        assert main(["stats", "history", "--path", str(history_path),
                     "--limit", "2", "--format", "json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 2
        assert all(e["schema"] == HISTORY_SCHEMA for e in entries)
        assert entries[-1]["name"] == "bench4"


    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("limit, shown", [(0, []), (2, [3, 4])])
    def test_limit_picks_the_same_entries_in_both_formats(
        self, history_path, capsys, fmt, limit, shown
    ):
        from repro.cli import main

        assert main(["stats", "history", "--path", str(history_path),
                     "--limit", str(limit), "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            names = [entry["name"] for entry in json.loads(out)]
        else:
            names = [
                line.split()[1] for line in out.splitlines()
                if line.startswith("benchmark ")
            ]
        assert names == [f"bench{index}" for index in shown]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_negative_limit_is_rejected(self, history_path, capsys, fmt):
        from repro.cli import main

        assert main(["stats", "history", "--path", str(history_path),
                     "--limit", "-1", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert "--limit must be non-negative" in captured.err
        assert captured.out == ""


def test_utc_timestamp_is_isoformat():
    stamp = utc_timestamp()
    assert "T" in stamp and stamp.endswith("+00:00")
