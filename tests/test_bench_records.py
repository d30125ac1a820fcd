"""Every benchmark must leave a committed, well-formed perf record.

PR 1 promised a perf trajectory under ``benchmarks/results/`` but only
``table1.json`` ever landed; this guard makes the promise structural:
each ``benchmarks/bench_<name>.py`` has a ``results/<name>.json``
timing record carrying its wall time and slowest span paths, and the
run history archive carries an entry for every benchmark.
"""

import json
from pathlib import Path

import pytest

from repro.obs.history import KIND_BENCHMARK, RunHistory

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = REPO_ROOT / "benchmarks"
RESULTS_DIR = BENCH_DIR / "results"
HISTORY_PATH = RESULTS_DIR / "history.jsonl"

#: Keys every timing record must carry (benchmarks/conftest.py writes them).
REQUIRED_KEYS = frozenset(
    {"name", "test", "wall_time_s", "preset", "seed", "git_rev",
     "timestamp", "top_spans"}
)

#: Whole-run documents a record no longer embeds: a trajectory reads
#: the top spans and frames, not the snapshot or the resource profile.
DROPPED_KEYS = frozenset({"telemetry", "resources"})


def bench_names():
    names = sorted(
        path.stem[len("bench_"):]
        for path in BENCH_DIR.glob("bench_*.py")
    )
    assert names, "no benchmarks found"
    return names


@pytest.mark.parametrize("name", bench_names())
def test_timing_record_exists_and_is_well_formed(name):
    record_path = RESULTS_DIR / f"{name}.json"
    assert record_path.exists(), (
        f"{record_path} is missing: run `make bench` and commit the "
        "timing record (the perf trajectory must not have holes)"
    )
    record = json.loads(record_path.read_text())
    missing = REQUIRED_KEYS - set(record)
    assert not missing, f"{record_path} lacks keys: {sorted(missing)}"
    assert record["name"] == name
    assert record["wall_time_s"] >= 0
    assert not DROPPED_KEYS & set(record), record_path
    spans = record["top_spans"]
    assert isinstance(spans, list) and len(spans) <= 10
    for entry in spans:
        assert set(entry) == {"path", "count", "total_s"}
    totals = [entry["total_s"] for entry in spans]
    assert totals == sorted(totals, reverse=True)
    # The stack profiler's hottest frames: a bounded ranked list, not a
    # whole stack table (records written before the profiler lack it).
    if "frames" in record:
        frames = record["frames"]
        assert isinstance(frames, list) and len(frames) <= 10
        for entry in frames:
            assert set(entry) >= {"frame", "self", "total", "self_share"}
            assert entry["self"] <= entry["total"]


@pytest.mark.parametrize("name", bench_names())
def test_rendered_artifact_exists(name):
    assert (RESULTS_DIR / f"{name}.txt").exists()


def test_history_covers_every_benchmark():
    assert HISTORY_PATH.exists(), (
        "benchmarks/results/history.jsonl is missing: run `make bench`"
    )
    history = RunHistory(HISTORY_PATH)
    recorded = {e.name for e in history.entries(kind=KIND_BENCHMARK)}
    missing = set(bench_names()) - recorded
    assert not missing, f"history has no entry for: {sorted(missing)}"
    assert history.skipped_lines() == 0


def test_history_payloads_are_compact_records():
    history = RunHistory(HISTORY_PATH)
    for entry in history.entries(kind=KIND_BENCHMARK):
        assert "top_spans" in entry.payload, entry.name
        assert not DROPPED_KEYS & set(entry.payload), entry.name


def test_history_entries_carry_comparison_metadata():
    history = RunHistory(HISTORY_PATH)
    for entry in history.entries(kind=KIND_BENCHMARK):
        assert "timestamp" in entry.meta, entry.name
        assert "preset" in entry.meta, entry.name
        assert entry.wall_time_s() is not None, entry.name
