"""CLI surface of the stack profiler.

Covers the ISSUE acceptance paths: ``--flame-out`` captures a
validating ``repro.flame/v1`` document (and embeds it in the run
report) without changing the rendered experiment output; ``stats
flame`` renders and exports it; the ``--diff`` hot-frame gate exits 1
on a doctored regression; degraded inputs exit 2 with one actionable
line.
"""

import json

import pytest

from repro.cli import main
from repro.obs.prof import FLAME_SCHEMA, validate_flame
from repro.obs.report import RunReport

# Fresh seed: the in-process scenario cache must not serve this file's
# scenario from another test file's build (see test_cli_events.py).
FRESH_SEED = "917"


def make_profile(stage_frames):
    """A valid repro.flame/v1 document from {stage: [(leaf, count)]}."""
    frames, index, stacks, total = [], {}, [], 0
    for stage, leaves in sorted(stage_frames.items()):
        for name, count in leaves:
            if name not in index:
                index[name] = len(frames)
                frames.append(
                    {"name": name, "file": "repro/x.py", "line": 1}
                )
            stacks.append(
                {"stage": stage, "frames": [index[name]], "count": count}
            )
            total += count
    return {
        "schema": FLAME_SCHEMA,
        "hz": 97.0,
        "duration_s": 1.0,
        "sample_count": total,
        "dropped_samples": 0,
        "frames": frames,
        "stacks": stacks,
    }


@pytest.fixture(scope="module")
def flamed_run(tmp_path_factory):
    """One instrumented table1 run with a flame profile + run report."""
    root = tmp_path_factory.mktemp("flamed-run")
    report_path = root / "run.json"
    flame_path = root / "flame.json"
    status = main([
        "--metrics-out", str(report_path),
        "--flame-out", str(flame_path),
        "--flame-hz", "400",
        "--seed", FRESH_SEED, "table1",
    ])
    assert status == 0
    return report_path, flame_path


class TestFlamedRun:
    def test_written_document_validates(self, flamed_run):
        _, flame_path = flamed_run
        profile = json.loads(flame_path.read_text())
        assert profile["schema"] == FLAME_SCHEMA
        assert profile["hz"] == 400.0
        assert profile["sample_count"] >= 1
        assert validate_flame(profile) == []

    def test_report_embeds_the_same_section(self, flamed_run):
        report_path, _ = flamed_run
        report = RunReport.load(report_path)
        assert report.flame_profile["schema"] == FLAME_SCHEMA
        assert validate_flame(report.flame_profile) == []

    def test_meta_records_flame_hz(self, flamed_run):
        report_path, _ = flamed_run
        assert RunReport.load(report_path).meta["flame_hz"] == 400.0

    def test_headline_gauges_present(self, flamed_run):
        report_path, _ = flamed_run
        gauges = RunReport.load(report_path).gauges
        assert gauges["prof.hz"] == 400.0
        assert gauges["prof.samples"] >= 1
        assert gauges["prof.dropped"] >= 0

    def test_summary_renders_the_profile(self, flamed_run):
        report_path, _ = flamed_run
        summary = RunReport.load(report_path).render_summary()
        assert "flame profile:" in summary
        assert "sampled at 400 Hz" in summary

    def test_no_leaf_frame_is_arming_code(self, flamed_run):
        # Stacks are read on sampler ticks only: a read inside the
        # arming call would see nothing but contextlib and the sampler.
        _, flame_path = flamed_run
        profile = json.loads(flame_path.read_text())
        frames = profile["frames"]
        leaves = {
            frames[stack["frames"][-1]]["file"]
            for stack in profile["stacks"] if stack["frames"]
        }
        assert leaves
        assert not [
            leaf for leaf in leaves
            if leaf.endswith(("contextlib.py", "obs/sampler.py"))
        ]


class TestStatsFlame:
    def test_renders_top_frames(self, flamed_run, capsys):
        _, flame_path = flamed_run
        assert main(["stats", "flame", str(flame_path)]) == 0
        out = capsys.readouterr().out
        assert "sampled at 400 Hz" in out
        assert "frame" in out

    def test_accepts_a_run_report_too(self, flamed_run, capsys):
        report_path, _ = flamed_run
        assert main(["stats", "flame", str(report_path)]) == 0
        assert "sampled at 400 Hz" in capsys.readouterr().out

    def test_json_format_carries_profile_and_ranking(
        self, flamed_run, capsys
    ):
        _, flame_path = flamed_run
        assert main([
            "stats", "flame", str(flame_path), "--format", "json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["valid"] is True
        assert document["profile"]["schema"] == FLAME_SCHEMA
        assert len(document["top"]) <= 10

    def test_collapsed_format_is_flamegraph_input(self, flamed_run, capsys):
        _, flame_path = flamed_run
        assert main([
            "stats", "flame", str(flame_path), "--format", "collapsed",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1
            assert ";" in stack or stack  # stage-rooted folded path

    def test_speedscope_format_is_loadable(self, flamed_run, capsys):
        _, flame_path = flamed_run
        assert main([
            "stats", "flame", str(flame_path), "--format", "speedscope",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["$schema"].endswith("file-format-schema.json")
        assert document["profiles"][0]["type"] == "sampled"


class TestStatsFlameDegraded:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        status = main(["stats", "flame", str(tmp_path / "nope.json")])
        assert status == 2
        assert "cannot load flame profile" in capsys.readouterr().err

    def test_schema_invalid_document_exits_2(self, tmp_path, capsys):
        doctored = make_profile({"x.y": [("a", 5)]})
        doctored["stacks"][0]["count"] = 99  # break count conservation
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doctored))
        assert main(["stats", "flame", str(path)]) == 2
        assert "flame profile INVALID" in capsys.readouterr().err

    def test_report_without_flame_section_exits_2(self, tmp_path, capsys):
        report_path = tmp_path / "bare.json"
        status = main([
            "--metrics-out", str(report_path),
            "--seed", FRESH_SEED, "table1",
        ])
        assert status == 0
        capsys.readouterr()
        assert main(["stats", "flame", str(report_path)]) == 2
        err = capsys.readouterr().err
        assert "regenerate it with --flame-out" in err

    def test_invalid_diff_baseline_exits_2(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(make_profile({"x.y": [("a", 5)]})))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        status = main([
            "stats", "flame", str(good), "--diff", str(bad),
        ])
        assert status == 2
        assert "cannot load flame profile" in capsys.readouterr().err


class TestHotFrameGate:
    def _write(self, tmp_path, name, stage_frames):
        path = tmp_path / name
        path.write_text(json.dumps(make_profile(stage_frames)))
        return str(path)

    def test_self_diff_is_clean(self, flamed_run, capsys):
        _, flame_path = flamed_run
        status = main([
            "stats", "flame", str(flame_path), "--diff", str(flame_path),
        ])
        assert status == 0
        assert "verdict: ok" in capsys.readouterr().out

    def test_doctored_regression_exits_1(self, tmp_path, capsys):
        old = self._write(
            tmp_path, "old.json",
            {"pipeline.mapping": [("lookup", 2), ("build", 8)]},
        )
        new = self._write(
            tmp_path, "new.json",
            {"pipeline.mapping": [("lookup", 8), ("build", 2)]},
        )
        status = main(["stats", "flame", new, "--diff", old])
        assert status == 1
        captured = capsys.readouterr()
        assert "hot-frame regression gate FAILED" in captured.err
        assert "pipeline.mapping" in captured.err
        assert "lookup" in captured.err

    def test_tolerance_flag_widens_the_gate(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", {"x.y": [("a", 5), ("b", 5)]})
        new = self._write(tmp_path, "new.json", {"x.y": [("a", 7), ("b", 3)]})
        assert main(["stats", "flame", new, "--diff", old]) == 1
        capsys.readouterr()
        assert main([
            "stats", "flame", new, "--diff", old, "--share-tolerance", "0.5",
        ]) == 0

    def test_min_share_flag_raises_the_noise_floor(self, tmp_path, capsys):
        old = self._write(
            tmp_path, "old.json", {"x.y": [("cold", 1), ("hot", 9)]}
        )
        new = self._write(
            tmp_path, "new.json", {"x.y": [("cold", 2), ("hot", 8)]}
        )
        assert main([
            "stats", "flame", new, "--diff", old,
            "--share-tolerance", "0.05", "--min-share", "0.25",
        ]) == 0

    def test_json_diff_output(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", {"x.y": [("a", 1), ("b", 9)]})
        new = self._write(tmp_path, "new.json", {"x.y": [("a", 9), ("b", 1)]})
        status = main([
            "stats", "flame", new, "--diff", old, "--format", "json",
        ])
        assert status == 1
        document = json.loads(capsys.readouterr().out)
        assert document["verdict"] == "hot-frame-regression"
        assert document["regressions"]


class TestZeroCostContract:
    def test_output_identical_with_and_without_flame_out(
        self, tmp_path, capsys
    ):
        assert main(["--seed", FRESH_SEED, "table1"]) == 0
        plain = capsys.readouterr().out
        flame_path = tmp_path / "flame.json"
        assert main([
            "--flame-out", str(flame_path),
            "--seed", FRESH_SEED, "table1",
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain  # byte-identical experiment output
        assert "flame profile written to" in captured.err
        assert flame_path.exists()

    def test_flame_hz_alone_warns_and_changes_nothing(self, capsys):
        assert main(["--flame-hz", "50", "--seed", FRESH_SEED, "table1"]) == 0
        err = capsys.readouterr().err
        assert "warning: --flame-hz does nothing without --flame-out" in err

    def test_flame_hz_out_of_range_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["--flame-hz", "0", "table1"])
        with pytest.raises(SystemExit):
            main(["--flame-hz", "5000", "table1"])
