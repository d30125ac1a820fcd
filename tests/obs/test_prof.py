"""The sampling stack profiler: folding, merging, diffing, exporting.

Everything deterministic runs on explicit timestamps or an injected
clock plus a scripted frame reader; one test drives the real sampler
thread against a busy loop to cover the default ``sys._current_frames``
reader end to end.
"""

import json
import threading
import time

import pytest

from repro.obs.prof import (
    DEFAULT_HZ,
    FLAME_DIFF_SCHEMA,
    FLAME_SCHEMA,
    FrameShift,
    StackReader,
    diff_flame,
    flame_gauges,
    merge_flame,
    render_collapsed,
    render_flame,
    render_speedscope,
    stage_self_shares,
    top_frames,
    validate_flame,
)
from repro.obs.sampler import NULL_SAMPLER, Sampler, sample


def ticking_clock(step=0.1):
    """A deterministic monotonic clock advancing ``step`` per call."""
    state = {"t": 0.0}

    def clock():
        state["t"] += step
        return state["t"]

    return clock


def fixed_reader(*frames):
    """A frame reader always returning the same stack (root → leaf)."""
    stack = list(frames)

    def read():
        return list(stack)

    return read


def read_stacks(reader, count, stage="x.y"):
    """Begin ``reader`` and take ``count`` readings under ``stage``."""
    reader.begin(0.0, stage)
    for index in range(count):
        reader.read(0.01 * (index + 1), stage)
    return reader.document()


class SpanStub:
    """Duck-typed telemetry: a settable open-span label."""

    enabled = True

    def __init__(self, name=""):
        self.current_span_name = name
        self.flame_profile = None


F_MAIN = ("main", "repro/cli.py", 10)
F_WORK = ("work", "repro/pipeline/batch.py", 42)
F_LEAF = ("leaf", "repro/net/lpm.py", 7)


class TestSampling:
    def test_samples_fold_into_one_counted_stack(self):
        reader = StackReader(
            hz=50.0, frame_reader=fixed_reader(F_MAIN, F_WORK, F_LEAF)
        )
        profile = read_stacks(reader, 5)
        assert profile["schema"] == FLAME_SCHEMA
        assert profile["sample_count"] == 5
        assert profile["dropped_samples"] == 0
        assert len(profile["frames"]) == 3  # interned once each
        assert len(profile["stacks"]) == 1
        (stack,) = profile["stacks"]
        assert stack["count"] == 5
        names = [profile["frames"][i]["name"] for i in stack["frames"]]
        assert names == ["main", "work", "leaf"]  # root → leaf order
        assert validate_flame(profile) == []

    def test_duration_tracks_the_injected_clock(self):
        sampler = Sampler(
            [StackReader(hz=5.0, frame_reader=fixed_reader(F_MAIN))],
            clock=ticking_clock(0.5),
        )
        # Three clock reads: begin's anchor, then two due ticks.
        sampler.begin()
        sampler.tick()
        sampler.tick()
        profile = sampler.documents()["flame_profile"]
        assert profile["sample_count"] == 2
        assert profile["duration_s"] == pytest.approx(1.0)

    def test_stage_attribution_follows_the_open_span(self):
        telemetry = SpanStub("pipeline.mapping")
        sampler = Sampler(
            [StackReader(hz=50.0, frame_reader=fixed_reader(F_MAIN))],
            telemetry=telemetry,
            clock=ticking_clock(),
        )
        sampler.begin()
        sampler.tick()
        telemetry.current_span_name = "pipeline.classify"
        sampler.tick()
        profile = sampler.documents()["flame_profile"]
        stages = [s["stage"] for s in profile["stacks"]]
        assert stages == ["pipeline.classify", "pipeline.mapping"]

    def test_no_span_buckets_under_the_top_label(self):
        sampler = Sampler(
            [StackReader(hz=50.0, frame_reader=fixed_reader(F_MAIN))],
            clock=ticking_clock(),
        )
        sampler.begin()
        sampler.tick()
        profile = sampler.documents()["flame_profile"]
        assert profile["stacks"][0]["stage"] == "(top)"

    def test_deep_stacks_keep_the_leafmost_frames(self):
        deep = [(f"f{i}", "repro/deep.py", i + 1) for i in range(50)]
        reader = StackReader(
            hz=50.0, max_depth=5, frame_reader=fixed_reader(*deep)
        )
        profile = read_stacks(reader, 1)
        (stack,) = profile["stacks"]
        names = [profile["frames"][i]["name"] for i in stack["frames"]]
        assert names == ["f45", "f46", "f47", "f48", "f49"]

    def test_full_table_drops_new_stacks_but_conserves_counts(self):
        readings = [[F_MAIN], [F_WORK], [F_MAIN]]
        reader = StackReader(
            hz=50.0, max_stacks=1, frame_reader=lambda: readings.pop(0)
        )
        # The second reading is a distinct stack: table full, dropped;
        # the third is the known stack, which still folds.
        profile = read_stacks(reader, 3)
        assert profile["sample_count"] == 3
        assert profile["dropped_samples"] == 1
        assert profile["stacks"][0]["count"] == 2
        assert validate_flame(profile) == []

    def test_unreadable_stack_is_a_dropped_sample(self):
        reader = StackReader(hz=50.0, frame_reader=lambda: None)
        assert read_stacks(reader, 1)["dropped_samples"] == 1

    def test_raising_reader_degrades_to_a_drop_not_a_crash(self):
        def torn():
            raise RuntimeError("thread went away")

        profile = read_stacks(StackReader(hz=50.0, frame_reader=torn), 1)
        assert profile["dropped_samples"] == 1
        assert validate_flame(profile) == []

    def test_begin_and_stop_are_idempotent(self):
        # Stacks are read on ticks only: begin and stop run on the
        # profiled thread inside the arming call, so a stack read there
        # would only ever see the arming code.
        sampler = Sampler(
            [StackReader(hz=50.0, frame_reader=fixed_reader(F_MAIN))],
            clock=ticking_clock(),
        )
        sampler.begin()
        sampler.begin()
        assert sampler.documents()["flame_profile"]["sample_count"] == 0
        sampler.tick()
        sampler.stop()
        sampler.stop()
        assert sampler.documents()["flame_profile"]["sample_count"] == 1

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            StackReader(hz=0.0)
        with pytest.raises(ValueError):
            StackReader(hz=-1.0)
        with pytest.raises(ValueError):
            StackReader(max_stacks=0)
        with pytest.raises(ValueError):
            StackReader(max_depth=0)

    def test_stop_attaches_the_profile_to_telemetry(self):
        telemetry = SpanStub("crawl.run")
        sampler = Sampler(
            [StackReader(hz=50.0, frame_reader=fixed_reader(F_MAIN))],
            telemetry=telemetry,
            clock=ticking_clock(),
        )
        sampler.begin()
        sampler.tick()
        sampler.stop()
        assert telemetry.flame_profile["schema"] == FLAME_SCHEMA
        assert telemetry.flame_profile["sample_count"] == 1

    def test_stop_merges_with_worker_tables_already_attached(self):
        telemetry = SpanStub("exec.parallel_map")
        worker = StackReader(hz=50.0, frame_reader=fixed_reader(F_WORK))
        # merge_snapshot's doing:
        telemetry.flame_profile = read_stacks(worker, 1)
        host = Sampler(
            [StackReader(hz=50.0, frame_reader=fixed_reader(F_MAIN))],
            telemetry=telemetry,
            clock=ticking_clock(),
        )
        host.begin()
        host.tick()
        host.tick()
        host.stop()
        merged = telemetry.flame_profile
        assert merged["sample_count"] == 3  # 1 worker + 2 host samples
        assert {f["name"] for f in merged["frames"]} == {"main", "work"}
        assert validate_flame(merged) == []


class TestRealThread:
    def test_daemon_thread_samples_a_busy_loop(self):
        telemetry = SpanStub("pipeline.mapping")
        with sample(telemetry, flame_hz=500.0) as sampler:
            assert sampler.running
            deadline = time.perf_counter() + 0.2
            while time.perf_counter() < deadline:
                sum(i * i for i in range(1000))
        assert not sampler.running
        profile = telemetry.flame_profile
        assert profile["sample_count"] >= 2
        assert validate_flame(profile) == []
        # The default reader shortens paths to their repro-relative tail
        # and never records the profiler's own frames.
        files = {frame["file"] for frame in profile["frames"]}
        assert all(not f.startswith("/") for f in files)
        assert not any(f.endswith("obs/prof.py") for f in files)
        assert not any(f.endswith("obs/sampler.py") for f in files)


class TestNullMode:
    def test_null_sampler_is_inert(self):
        assert NULL_SAMPLER.running is False
        assert NULL_SAMPLER.documents() == {}

    def test_falsy_rate_yields_the_shared_null_sampler(self):
        for rate in (None, 0, 0.0):
            with sample(flame_hz=rate) as sampler:
                assert sampler is NULL_SAMPLER

    def test_null_sampler_holds_no_state(self):
        assert type(NULL_SAMPLER).__slots__ == ()


class TestMergeFlame:
    def _profile(self, stage, count, *frames, hz=50.0):
        reader = StackReader(hz=hz, frame_reader=fixed_reader(*frames))
        return read_stacks(reader, count, stage)

    def test_counts_add_per_stage_and_stack(self):
        a = self._profile("pipeline.mapping", 3, F_MAIN, F_LEAF)
        b = self._profile("pipeline.mapping", 2, F_MAIN, F_LEAF)
        merged = merge_flame(a, b)
        assert merged["sample_count"] == 5
        (stack,) = merged["stacks"]
        assert stack["count"] == 5
        assert validate_flame(merged) == []

    def test_distinct_stages_stay_attributed(self):
        a = self._profile("pipeline.mapping", 2, F_MAIN)
        b = self._profile("pipeline.classify", 3, F_MAIN)
        merged = merge_flame(a, b)
        counts = {s["stage"]: s["count"] for s in merged["stacks"]}
        assert counts == {"pipeline.mapping": 2, "pipeline.classify": 3}
        assert len(merged["frames"]) == 1  # shared frame interned once

    def test_hz_and_duration_take_the_maximum(self):
        a = self._profile("x.y", 2, F_MAIN, hz=97.0)
        b = self._profile("x.y", 2, F_MAIN, hz=50.0)
        merged = merge_flame(a, b)
        assert merged["hz"] == 97.0
        assert merged["duration_s"] == max(a["duration_s"], b["duration_s"])

    def test_empty_or_missing_base_is_identity(self):
        profile = self._profile("x.y", 3, F_MAIN, F_WORK)
        for base in (None, {}):
            merged = merge_flame(base, profile)
            assert merged["sample_count"] == 3
            assert validate_flame(merged) == []

    def test_merge_is_commutative_on_counts(self):
        a = self._profile("pipeline.mapping", 3, F_MAIN, F_LEAF)
        b = self._profile("pipeline.classify", 2, F_WORK)
        ab, ba = merge_flame(a, b), merge_flame(b, a)
        key = lambda s: (s["stage"], s["count"])  # noqa: E731
        assert sorted(map(key, ab["stacks"])) == sorted(map(key, ba["stacks"]))


class TestGaugesAndAnalysis:
    def test_flame_gauges_map_the_headline_numbers(self):
        gauges = flame_gauges({
            "hz": 97.0, "sample_count": 40, "dropped_samples": 2,
        })
        assert gauges == {
            "prof.hz": 97.0, "prof.samples": 40.0, "prof.dropped": 2.0,
        }

    def test_flame_gauges_skip_malformed_values(self):
        assert flame_gauges({"hz": "fast"}) == {}

    def _two_stack_profile(self):
        reader = StackReader(
            hz=50.0, frame_reader=fixed_reader(F_MAIN, F_LEAF)
        )
        read_stacks(reader, 3, "pipeline.mapping")
        reader._frame_reader = fixed_reader(F_MAIN, F_WORK)
        reader.read(1.0, "pipeline.mapping")
        return reader.document()

    def test_top_frames_split_self_and_total(self):
        ranked = top_frames(self._two_stack_profile())
        by_name = {entry["frame"].split(" ")[0]: entry for entry in ranked}
        assert by_name["leaf"]["self"] == 3
        assert by_name["work"]["self"] == 1
        assert by_name["main"]["self"] == 0
        assert by_name["main"]["total"] == 4  # on every stack
        assert ranked[0]["frame"].startswith("leaf")  # ranked by self

    def test_top_frames_respects_n_and_stage(self):
        profile = self._two_stack_profile()
        assert len(top_frames(profile, n=1)) == 1
        assert top_frames(profile, stage="no.such") == []

    def test_stage_self_shares_are_leaf_shares(self):
        shares = stage_self_shares(self._two_stack_profile())
        stage = shares["pipeline.mapping"]
        by_name = {label.split(" ")[0]: s for label, s in stage.items()}
        assert by_name["leaf"] == pytest.approx(0.75)
        assert by_name["work"] == pytest.approx(0.25)


class TestDiffFlame:
    def _profile(self, stage_frames):
        """Build a profile from {stage: [(leaf_name, count), ...]}."""
        frames = []
        index = {}
        stacks = []
        total = 0
        for stage, leaves in sorted(stage_frames.items()):
            for name, count in leaves:
                frame = {"name": name, "file": "repro/x.py", "line": 1}
                key = name
                if key not in index:
                    index[key] = len(frames)
                    frames.append(frame)
                stacks.append({
                    "stage": stage, "frames": [index[key]], "count": count,
                })
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

    def test_grown_share_is_a_regression(self):
        old = self._profile({"pipeline.mapping": [("a", 2), ("b", 8)]})
        new = self._profile({"pipeline.mapping": [("a", 8), ("b", 2)]})
        diff = diff_flame(old, new)
        assert diff.verdict == "hot-frame-regression"
        (shift,) = diff.regressions
        assert shift.frame.startswith("a")
        assert shift.delta == pytest.approx(0.6)
        (better,) = diff.improvements
        assert better.frame.startswith("b")

    def test_noise_floor_spares_cold_frames(self):
        old = self._profile({"x.y": [("cold", 1), ("hot", 99)]})
        new = self._profile({"x.y": [("cold", 4), ("hot", 96)]})
        diff = diff_flame(old, new, share_tolerance=0.01, min_share=0.05)
        assert all(not s.frame.startswith("cold") for s in diff.regressions)

    def test_one_sample_stage_flip_is_not_a_regression(self):
        # 0% -> 100% of a 1-sample stage is one sample landing elsewhere.
        old = self._profile({"x.rare": [("a", 1)], "x.y": [("c", 50)]})
        new = self._profile({"x.rare": [("b", 1)], "x.y": [("c", 50)]})
        diff = diff_flame(old, new)
        assert diff.regressions == [] and diff.improvements == []

    def test_shift_within_sampling_error_is_not_judged(self):
        # 5/10 -> 7/10 is past the tolerance but not past sampling error;
        # the same shares over 20x the samples are.
        old = self._profile({"x.y": [("a", 5), ("b", 5)]})
        new = self._profile({"x.y": [("a", 7), ("b", 3)]})
        assert diff_flame(old, new).verdict == "ok"
        old = self._profile({"x.y": [("a", 100), ("b", 100)]})
        new = self._profile({"x.y": [("a", 140), ("b", 60)]})
        diff = diff_flame(old, new)
        assert [s.frame[0] for s in diff.regressions] == ["a"]
        assert [s.frame[0] for s in diff.improvements] == ["b"]

    def test_within_tolerance_is_ok(self):
        old = self._profile({"x.y": [("a", 50), ("b", 50)]})
        new = self._profile({"x.y": [("a", 55), ("b", 45)]})
        assert diff_flame(old, new, share_tolerance=0.10).verdict == "ok"

    def test_stage_in_only_one_profile_is_skipped(self):
        old = self._profile({"x.old": [("a", 10)]})
        new = self._profile({"x.new": [("a", 10)]})
        diff = diff_flame(old, new, share_tolerance=0.0)
        assert diff.regressions == [] and diff.improvements == []

    def test_self_diff_is_clean(self):
        profile = self._profile({"x.y": [("a", 3), ("b", 7)]})
        assert diff_flame(profile, profile).verdict == "ok"

    def test_to_dict_carries_schema_and_shifts(self):
        old = self._profile({"x.y": [("a", 1), ("b", 9)]})
        new = self._profile({"x.y": [("a", 9), ("b", 1)]})
        document = diff_flame(old, new).to_dict()
        assert document["schema"] == FLAME_DIFF_SCHEMA
        assert document["verdict"] == "hot-frame-regression"
        assert document["regressions"][0]["delta"] == pytest.approx(0.8)
        json.dumps(document)  # serialisable

    def test_frame_shift_delta(self):
        shift = FrameShift("x.y", "a", old_share=0.2, new_share=0.5)
        assert shift.delta == pytest.approx(0.3)
        assert shift.to_dict()["delta"] == pytest.approx(0.3)

    def test_render_text_names_the_shift(self):
        old = self._profile({"x.y": [("a", 1), ("b", 9)]})
        new = self._profile({"x.y": [("a", 9), ("b", 1)]})
        text = diff_flame(old, new).render_text()
        assert "hot-frame regressions:" in text
        assert "x.y" in text
        assert "verdict: hot-frame-regression" in text


class TestValidateFlame:
    def _valid(self):
        return {
            "schema": FLAME_SCHEMA,
            "hz": 97.0,
            "duration_s": 0.5,
            "sample_count": 3,
            "dropped_samples": 1,
            "frames": [{"name": "f", "file": "repro/x.py", "line": 1}],
            "stacks": [{"stage": "x.y", "frames": [0], "count": 2}],
        }

    def test_valid_profile_passes(self):
        assert validate_flame(self._valid()) == []

    def test_non_object_is_one_problem(self):
        assert validate_flame([]) == ["profile is not a JSON object"]

    def test_wrong_schema_is_flagged(self):
        document = self._valid()
        document["schema"] = "bogus/v9"
        assert any("schema" in p for p in validate_flame(document))

    def test_negative_counts_are_flagged(self):
        document = self._valid()
        document["sample_count"] = -1
        assert any("sample_count" in p for p in validate_flame(document))

    def test_out_of_range_frame_index_is_flagged(self):
        document = self._valid()
        document["stacks"][0]["frames"] = [5]
        assert any("frame index" in p for p in validate_flame(document))

    def test_count_conservation_is_enforced(self):
        document = self._valid()
        document["stacks"][0]["count"] = 99
        assert any("sum to" in p for p in validate_flame(document))


class TestRendering:
    def _profile(self):
        reader = StackReader(
            hz=97.0, frame_reader=fixed_reader(F_MAIN, F_LEAF)
        )
        return read_stacks(reader, 2, "pipeline.mapping")

    def test_render_flame_headline_and_table(self):
        text = render_flame(self._profile())
        assert "sampled at 97 Hz: 2 sample(s)" in text
        assert "leaf (repro/net/lpm.py:7)" in text
        assert "per-stage top frames" in text
        assert "pipeline.mapping" in text

    def test_render_flame_honours_indent(self):
        text = render_flame(self._profile(), indent="  ")
        assert all(line.startswith("  ") for line in text.splitlines())

    def test_collapsed_lines_are_stage_rooted(self):
        (line,) = render_collapsed(self._profile()).splitlines()
        assert line == (
            "pipeline.mapping;main (repro/cli.py:10);"
            "leaf (repro/net/lpm.py:7) 2"
        )

    def test_collapsed_sanitises_semicolons(self):
        profile = self._profile()
        profile["stacks"][0]["stage"] = "evil;stage"
        line = render_collapsed(profile)
        assert line.startswith("evil:stage;")

    def test_speedscope_document_shape(self):
        document = render_speedscope(self._profile(), name="unit")
        assert document["$schema"].endswith("file-format-schema.json")
        (prof,) = document["profiles"]
        assert prof["type"] == "sampled"
        assert prof["endValue"] == sum(prof["weights"]) == 2
        frames = document["shared"]["frames"]
        assert frames[0] == {"name": "pipeline.mapping"}  # synthetic root
        assert prof["samples"][0][0] == 0  # every stack starts at its stage
        json.dumps(document)  # serialisable

    def test_default_rate_is_prime(self):
        # 97 Hz on purpose: a prime rate cannot lock step with the
        # 10 Hz resource sampler or per-second periodic work.
        assert DEFAULT_HZ == 97.0
        assert all(DEFAULT_HZ % d for d in (2, 3, 5, 7))


def test_profiled_thread_is_the_one_that_begins():
    """begin() pins the calling thread; readings taken while another
    thread is active still walk the pinned thread's stack."""
    telemetry = SpanStub("x.y")
    sampler = Sampler([StackReader(hz=500.0)], telemetry=telemetry)
    done = threading.Event()

    def busy():
        sampler.begin()
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            sum(i * i for i in range(500))
        done.set()

    worker = threading.Thread(target=busy)
    worker.start()
    while not done.is_set():
        sampler.tick()
    worker.join(timeout=5.0)
    assert not worker.is_alive()
    sampler.stop()
    profile = telemetry.flame_profile
    assert profile["sample_count"] >= 2
    assert validate_flame(profile) == []
    names = {frame["name"] for frame in profile["frames"]}
    assert "busy" in names
