"""``stats check``: every gate on one run bundle, one exit status.

The per-rule acceptance paths that have a single-artifact home live
next to it (span regression in test_diff.py, data drift in
test_data_gate.py, resource drift, one-sided profiles and the budget
in test_cli_resources.py, hot frames in test_cli_flame.py).  This file
covers the rest: funnel and event-stream damage, unreadable bundle
files, every gate reporting after a failure, the exit-status order,
the JSON form, baselines without a report or a flame section, and the
``--obs-dir`` run that writes the bundle.
"""

import json

import pytest

from repro.cli import main

VALIDITY_GATES = ["events", "funnel", "resources", "flame", "trace"]
BASELINE_GATES = VALIDITY_GATES + ["diff", "flame-diff", "budget"]


def check(capsys, *argv):
    status = main(["stats", "check", *map(str, argv)])
    return status, capsys.readouterr()


def gate_lines(out):
    """``{gate: status}`` from the text rendering."""
    lines = out.strip().splitlines()
    assert lines[-1].startswith("verdict: ")
    return {line.split()[0]: line.split()[1] for line in lines[:-1]}


def gap_events(bundle):
    path = bundle / "events.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + lines[3:]) + "\n")


def break_funnel(data):
    data["data_quality"]["funnel"][0]["records_out"] += 7


class TestCleanBundle:
    def test_self_baseline_passes_every_gate(self, run_bundle, capsys):
        status, captured = check(
            capsys, run_bundle, "--baseline", run_bundle
        )
        assert status == 0
        assert gate_lines(captured.out) == {
            "events": "ok", "funnel": "ok", "resources": "ok",
            "flame": "ok", "trace": "ok", "diff": "ok",
            "flame-diff": "ok", "budget": "skipped",
        }
        assert captured.out.strip().endswith("verdict: ok")
        assert captured.err == ""

    def test_without_baseline_runs_the_validity_gates(
        self, run_bundle, capsys
    ):
        status, captured = check(capsys, run_bundle)
        assert status == 0
        assert list(gate_lines(captured.out)) == VALIDITY_GATES

    def test_json_embeds_both_diff_documents(self, run_bundle, capsys):
        status, captured = check(
            capsys, run_bundle, "--baseline", run_bundle, "--format", "json"
        )
        document = json.loads(captured.out)
        assert status == 0
        assert document["verdict"] == "ok"
        gates = {gate["gate"]: gate for gate in document["gates"]}
        assert list(gates) == BASELINE_GATES
        assert gates["diff"]["document"]["schema"] == "repro.report-diff/v1"
        assert (
            gates["flame-diff"]["document"]["schema"]
            == "repro.flame-diff/v1"
        )


class TestGateRules:
    def test_funnel_violation_exits_one(self, bundle_copy, capsys):
        bundle = bundle_copy("broken", break_funnel)
        status, captured = check(capsys, bundle)
        assert status == 1
        assert gate_lines(captured.out)["funnel"] == "failed"
        assert "funnel: stage" in captured.err

    def test_event_sequence_gap_exits_one(self, bundle_copy, capsys):
        bundle = bundle_copy("gapped")
        gap_events(bundle)
        status, captured = check(capsys, bundle)
        assert status == 1
        assert gate_lines(captured.out)["events"] == "failed"
        assert "sequence gap" in captured.err

    @pytest.mark.parametrize("name", ["events.jsonl", "trace.json"])
    def test_unreadable_bundle_file_exits_two(
        self, bundle_copy, capsys, name
    ):
        bundle = bundle_copy("damaged")
        (bundle / name).unlink()
        status, captured = check(capsys, bundle)
        assert status == 2
        gate = "events" if name == "events.jsonl" else "trace"
        assert gate_lines(captured.out)[gate] == "error"
        assert "verdict: error" in captured.out

    def test_unreadable_report_fails_every_report_gate(
        self, bundle_copy, capsys
    ):
        bundle = bundle_copy("no-report")
        (bundle / "report.json").write_text("{not json")
        status, captured = check(capsys, bundle)
        assert status == 2
        lines = gate_lines(captured.out)
        assert lines["events"] == lines["trace"] == "ok"
        for gate in ("funnel", "resources", "flame"):
            assert lines[gate] == "error"
        assert "cannot load run report" in captured.out

    def test_every_gate_reports_after_a_failure(self, bundle_copy, capsys):
        bundle = bundle_copy("two-faults", break_funnel)
        gap_events(bundle)
        status, captured = check(capsys, bundle, "--baseline", bundle)
        assert status == 1
        lines = gate_lines(captured.out)
        assert list(lines) == BASELINE_GATES
        assert lines["events"] == lines["funnel"] == "failed"
        assert lines["trace"] == "ok"

    def test_an_unjudged_input_outranks_a_failed_gate(
        self, bundle_copy, capsys
    ):
        bundle = bundle_copy("fail-and-error", break_funnel)
        (bundle / "trace.json").unlink()
        status, _ = check(capsys, bundle)
        assert status == 2


class TestBaselines:
    def test_baseline_without_report_skips_both_diffs(
        self, run_bundle, tmp_path, capsys
    ):
        base = tmp_path / "base"
        base.mkdir()
        (base / "thresholds.json").write_text('{"diff": {}}')
        status, captured = check(capsys, run_bundle, "--baseline", base)
        assert status == 0
        lines = gate_lines(captured.out)
        assert lines["diff"] == lines["flame-diff"] == "skipped"

    def test_flame_diff_names_the_side_without_flames(
        self, run_bundle, bundle_copy, capsys
    ):
        base = bundle_copy("flameless", lambda d: d.pop("flame_profile"))
        status, captured = check(capsys, run_bundle, "--baseline", base)
        assert status == 0
        assert gate_lines(captured.out)["flame-diff"] == "skipped"
        assert (
            f"not judged: {base / 'report.json'} has no repro.flame/v1"
            in captured.out
        )

    def test_empty_baseline_exits_two(self, run_bundle, tmp_path, capsys):
        status, captured = check(
            capsys, run_bundle, "--baseline", tmp_path / "absent"
        )
        assert status == 2
        assert "holds neither report.json nor thresholds.json" in (
            captured.err
        )

    def test_unknown_threshold_key_exits_two(
        self, run_bundle, tmp_path, capsys
    ):
        base = tmp_path / "base"
        base.mkdir()
        (base / "thresholds.json").write_text(
            '{"diff": {"max_ratoi": 2.0}}'
        )
        status, captured = check(capsys, run_bundle, "--baseline", base)
        assert status == 2
        assert "unknown key diff.'max_ratoi'" in captured.err


class TestObsDir:
    def test_bundle_holds_report_events_and_trace(self, run_bundle):
        assert sorted(p.name for p in run_bundle.iterdir()) == [
            "events.jsonl", "report.json", "trace.json",
        ]
        meta = json.loads((run_bundle / "report.json").read_text())["meta"]
        assert meta["profile_hz"] == 10.0
        assert meta["flame_hz"] == 97.0

    def test_stdout_identical_with_memory_and_workers(
        self, tmp_path, capsys
    ):
        figure2 = ["--seed", "943", "--reference-ases", "4", "figure2"]
        assert main(figure2) == 0
        plain = capsys.readouterr().out
        assert main([
            "--obs-dir", str(tmp_path / "run"), "--memory",
            "--workers", "2", *figure2,
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        assert "run bundle written to" in captured.err
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["resource_profile"]["workers"]

    def test_command_errors_propagate_like_an_unobserved_run(
        self, tmp_path, capsys
    ):
        # A --cache-dir under a regular file fails inside the command,
        # when the engine opens its cache; the bundle must not relabel
        # that as an observability error.
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = [
            "--cache-dir", str(blocker / "x"),
            "--reference-ases", "4", "figure2",
        ]
        with pytest.raises(NotADirectoryError) as plain:
            main(argv)
        with pytest.raises(NotADirectoryError) as observed:
            main(["--obs-dir", str(tmp_path / "run"), *argv])
        assert "observability" not in capsys.readouterr().err
        for raised in (plain, observed):
            assert any(
                entry.name == "__init__"
                and entry.path.parts[-2:] == ("exec", "cache.py")
                for entry in raised.traceback
            )

    def test_unwritable_bundle_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        status = main(["--obs-dir", str(blocker), "table1"])
        assert status == 1
        assert "cannot write observability output" in (
            capsys.readouterr().err
        )
