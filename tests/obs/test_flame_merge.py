"""The worker-merge half of the flamegraph contract.

``Telemetry.merge_snapshot`` folds worker flame tables into the host
profile with counts adding and stage attribution preserved; a real
``--workers 2 --obs-dir`` run must therefore report *one* merged,
validating profile.
"""

import pytest

from repro.cli import main
from repro.obs.prof import (
    FLAME_SCHEMA,
    stage_samples,
    validate_flame,
)
from repro.obs.report import RunReport
from repro.obs.telemetry import Telemetry

# Fresh seed (see test_cli_events.py for the scenario-cache rationale).
FRESH_SEED = "919"


def worker_snapshot(stage_frames):
    """A worker-style snapshot carrying a flame table."""
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
    worker = Telemetry()
    worker.flame_profile = {
        "schema": FLAME_SCHEMA,
        "hz": 97.0,
        "duration_s": 1.0,
        "sample_count": total,
        "dropped_samples": 0,
        "frames": frames,
        "stacks": stacks,
    }
    return worker.snapshot()


class TestMergeSnapshot:
    def test_worker_tables_fold_with_counts_adding(self):
        parent = Telemetry()
        parent.merge_snapshot(worker_snapshot({
            "kde.evaluate": [("eval_grid", 5)],
            "pop.extract": [("extract", 2)],
        }))
        parent.merge_snapshot(worker_snapshot({
            "kde.evaluate": [("eval_grid", 3)],
            "footprint.contour": [("trace", 4)],
        }))
        merged = parent.flame_profile
        assert validate_flame(merged) == []
        # Per-stage counts equal the sum of the worker tables.
        assert stage_samples(merged) == {
            "footprint.contour": 4,
            "kde.evaluate": 8,
            "pop.extract": 2,
        }
        assert merged["sample_count"] == 14

    def test_snapshot_ships_the_table_and_gauges_home(self):
        snapshot = worker_snapshot({"kde.evaluate": [("eval_grid", 5)]})
        assert snapshot["flame_profile"]["schema"] == FLAME_SCHEMA
        assert snapshot["gauges"]["prof.samples"] == 5.0

    def test_snapshot_without_profile_has_no_section(self):
        snapshot = Telemetry().snapshot()
        assert "flame_profile" not in snapshot
        assert not any(k.startswith("prof.") for k in snapshot["gauges"])

    def test_merge_without_flame_section_is_a_no_op(self):
        parent = Telemetry()
        parent.merge_snapshot(Telemetry().snapshot())
        assert parent.flame_profile is None

    def test_merged_snapshot_round_trips_through_another_merge(self):
        # Host → coordinator relays must keep folding, not overwrite.
        middle = Telemetry()
        middle.merge_snapshot(worker_snapshot({"x.y": [("a", 2)]}))
        top = Telemetry()
        top.merge_snapshot(middle.snapshot())
        top.merge_snapshot(worker_snapshot({"x.y": [("a", 3)]}))
        assert stage_samples(top.flame_profile) == {"x.y": 5}


class TestParallelRun:
    @pytest.fixture(scope="class")
    def parallel_report(self, tmp_path_factory):
        bundle = tmp_path_factory.mktemp("parallel-flame")
        status = main([
            "--workers", "2",
            "--obs-dir", str(bundle),
            "--seed", FRESH_SEED, "--reference-ases", "4", "figure2",
        ])
        assert status == 0
        return RunReport.load(bundle / "report.json")

    @pytest.fixture(scope="class")
    def parallel_flame(self, parallel_report):
        return parallel_report.flame_profile

    def test_the_engine_fanned_out(self, parallel_report):
        assert parallel_report.resource_profile["workers"]

    def test_one_merged_profile_validates(self, parallel_flame):
        assert parallel_flame["schema"] == FLAME_SCHEMA
        assert validate_flame(parallel_flame) == []
        assert parallel_flame["sample_count"] >= 1

    def test_host_stages_are_attributed(self, parallel_flame):
        stages = set(stage_samples(parallel_flame))
        assert stages  # at least the host's cli/figure2 spans sampled
        assert all(isinstance(stage, str) and stage for stage in stages)

    def test_no_leaf_frame_is_arming_code(self, parallel_flame):
        # Neither the host nor any worker chunk records its own arming.
        frames = parallel_flame["frames"]
        leaves = {
            frames[stack["frames"][-1]]["file"]
            for stack in parallel_flame["stacks"] if stack["frames"]
        }
        assert not [
            leaf for leaf in leaves
            if leaf.endswith(("contextlib.py", "obs/sampler.py"))
        ]
