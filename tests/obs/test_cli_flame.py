"""CLI surface of the stack profiler.

An ``--obs-dir`` run embeds a validating ``repro.flame/v1`` section in
its run report without changing the rendered experiment output;
``stats flame`` renders and exports it; ``stats check``'s hot-frame
gate exits 1 on a doctored regression; degraded inputs exit 2 with
one actionable line.
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
def flamed_run(run_bundle):
    """The shared instrumented table1 run: its report and the report's
    flame section."""
    report_path = run_bundle / "report.json"
    return report_path, RunReport.load(report_path).flame_profile


def write_flamed_report(path, profile):
    """A minimal run report carrying ``profile`` as its flame section."""
    path.write_text(json.dumps(
        {**RunReport().to_dict(), "flame_profile": profile}
    ))
    return path


class TestFlamedRun:
    def test_written_document_validates(self, flamed_run):
        _, profile = flamed_run
        assert profile["schema"] == FLAME_SCHEMA
        assert profile["hz"] == 97.0
        assert profile["sample_count"] >= 1
        assert validate_flame(profile) == []

    def test_report_embeds_the_same_section(self, flamed_run, capsys):
        # The report is the only flame document: stats flame exports
        # exactly the embedded section.
        report_path, profile = flamed_run
        assert main([
            "stats", "flame", str(report_path), "--format", "json",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["profile"] == profile
        assert not (report_path.parent / "flame.json").exists()

    def test_meta_records_flame_hz(self, flamed_run):
        report_path, _ = flamed_run
        assert RunReport.load(report_path).meta["flame_hz"] == 97.0

    def test_headline_gauges_present(self, flamed_run):
        report_path, _ = flamed_run
        gauges = RunReport.load(report_path).gauges
        assert gauges["prof.hz"] == 97.0
        assert gauges["prof.samples"] >= 1
        assert gauges["prof.dropped"] >= 0

    def test_summary_renders_the_profile(self, flamed_run):
        report_path, _ = flamed_run
        summary = RunReport.load(report_path).render_summary()
        assert "flame profile:" in summary
        assert "sampled at 97 Hz" in summary

    def test_no_leaf_frame_is_arming_code(self, flamed_run):
        # Stacks are read on sampler ticks only: a read inside the
        # arming call would see nothing but contextlib and the sampler.
        _, profile = flamed_run
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
        report_path, _ = flamed_run
        assert main(["stats", "flame", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "sampled at 97 Hz" in out
        assert "frame" in out

    def test_accepts_a_run_report_too(self, flamed_run, capsys):
        report_path, _ = flamed_run
        assert main(["stats", "flame", str(report_path)]) == 0
        assert "sampled at 97 Hz" in capsys.readouterr().out

    def test_json_format_carries_profile_and_ranking(
        self, flamed_run, capsys
    ):
        report_path, _ = flamed_run
        assert main([
            "stats", "flame", str(report_path), "--format", "json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["valid"] is True
        assert document["profile"]["schema"] == FLAME_SCHEMA
        assert len(document["top"]) <= 10

    def test_collapsed_format_is_flamegraph_input(self, flamed_run, capsys):
        report_path, _ = flamed_run
        assert main([
            "stats", "flame", str(report_path), "--format", "collapsed",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1
            assert ";" in stack or stack  # stage-rooted folded path

    def test_speedscope_format_is_loadable(self, flamed_run, capsys):
        report_path, _ = flamed_run
        assert main([
            "stats", "flame", str(report_path), "--format", "speedscope",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["$schema"].endswith("file-format-schema.json")
        assert document["profiles"][0]["type"] == "sampled"


class TestStatsFlameDegraded:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        status = main(["stats", "flame", str(tmp_path / "nope.json")])
        assert status == 2
        assert "cannot load run report" in capsys.readouterr().err

    def test_schema_invalid_document_exits_2(self, tmp_path, capsys):
        doctored = make_profile({"x.y": [("a", 5)]})
        doctored["stacks"][0]["count"] = 99  # break count conservation
        path = write_flamed_report(tmp_path / "broken.json", doctored)
        assert main(["stats", "flame", str(path)]) == 2
        assert "flame profile INVALID" in capsys.readouterr().err

    def test_report_without_flame_section_exits_2(self, bundle_copy, capsys):
        bundle = bundle_copy("bare", lambda d: d.pop("flame_profile"))
        assert main(["stats", "flame", str(bundle / "report.json")]) == 2
        err = capsys.readouterr().err
        assert "regenerate it with --obs-dir" in err

    def test_invalid_diff_baseline_exits_2(
        self, run_bundle, bundle_copy, capsys
    ):
        base = bundle_copy("base")
        (base / "report.json").write_text("{not json")
        status = main([
            "stats", "check", str(run_bundle), "--baseline", str(base),
        ])
        assert status == 2
        out = capsys.readouterr().out
        assert "flame-diff  error    cannot load run report" in out


class TestHotFrameGate:
    """The hot-frame gate of ``stats check``: both bundles carry flames."""

    def _bundle(self, bundle_copy, name, stage_frames):
        profile = make_profile(stage_frames)
        return bundle_copy(
            name, lambda data: data.update(flame_profile=profile)
        )

    def _base(self, bundle_copy, name, stage_frames, **flame):
        base = self._bundle(bundle_copy, name, stage_frames)
        (base / "thresholds.json").write_text(json.dumps({"flame": flame}))
        return str(base)

    def test_self_diff_is_clean(self, run_bundle, capsys):
        status = main([
            "stats", "check", str(run_bundle), "--baseline", str(run_bundle),
        ])
        assert status == 0
        assert "flame-diff  ok       verdict: ok" in capsys.readouterr().out

    def test_doctored_regression_exits_1(self, bundle_copy, capsys):
        old = self._base(
            bundle_copy, "old",
            {"pipeline.mapping": [("lookup", 2), ("build", 8)]},
        )
        new = self._bundle(
            bundle_copy, "new",
            {"pipeline.mapping": [("lookup", 8), ("build", 2)]},
        )
        status = main(["stats", "check", str(new), "--baseline", old])
        assert status == 1
        captured = capsys.readouterr()
        assert "flame-diff  failed   verdict: hot-frame-regression" in (
            captured.out
        )
        assert "pipeline.mapping" in captured.err
        assert "lookup" in captured.err

    def test_tolerance_flag_widens_the_gate(self, bundle_copy, capsys):
        # share_tolerance in the baseline's thresholds.json.  The 20-point
        # shift rests on 200 samples a side, well past sampling error.
        frames = {"x.y": [("a", 100), ("b", 100)]}
        new = str(self._bundle(
            bundle_copy, "new", {"x.y": [("a", 140), ("b", 60)]}
        ))
        strict = self._base(bundle_copy, "strict", frames)
        assert main(["stats", "check", new, "--baseline", strict]) == 1
        loose = self._base(bundle_copy, "loose", frames, share_tolerance=0.5)
        assert main(["stats", "check", new, "--baseline", loose]) == 0
        capsys.readouterr()

    def test_min_share_flag_raises_the_noise_floor(self, bundle_copy, capsys):
        # min_share in the baseline's thresholds.json.
        old = self._base(
            bundle_copy, "old", {"x.y": [("cold", 1), ("hot", 9)]},
            share_tolerance=0.05, min_share=0.25,
        )
        new = self._bundle(
            bundle_copy, "new", {"x.y": [("cold", 2), ("hot", 8)]}
        )
        assert main(["stats", "check", str(new), "--baseline", old]) == 0
        capsys.readouterr()

    def test_json_diff_output(self, bundle_copy, capsys):
        old = self._base(bundle_copy, "old", {"x.y": [("a", 1), ("b", 9)]})
        new = self._bundle(bundle_copy, "new", {"x.y": [("a", 9), ("b", 1)]})
        status = main([
            "stats", "check", str(new), "--baseline", old, "--format", "json",
        ])
        assert status == 1
        gates = {
            g["gate"]: g for g in json.loads(capsys.readouterr().out)["gates"]
        }
        document = gates["flame-diff"]["document"]
        assert document["verdict"] == "hot-frame-regression"
        assert document["regressions"]


class TestZeroCostContract:
    def test_output_identical_with_and_without_flame_out(
        self, tmp_path, capsys
    ):
        assert main(["--seed", FRESH_SEED, "table1"]) == 0
        plain = capsys.readouterr().out
        bundle = tmp_path / "run"
        assert main([
            "--obs-dir", str(bundle), "--seed", FRESH_SEED, "table1",
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain  # byte-identical experiment output
        assert RunReport.load(bundle / "report.json").flame_profile
