"""Shared benchmark fixtures.

The paper-shaped default scenario is built once per benchmark session.
Each benchmark renders its table/figure next to the paper's numbers and
archives it under ``benchmarks/results/`` twice: the human-readable
``<name>.txt`` EXPERIMENTS.md cites, and a machine-readable
``<name>.json`` timing record (name, wall-time, preset, seed, git rev,
plus the run's top spans and hottest frames) so successive runs leave
a small, comparable perf trajectory future optimisation PRs can diff
against.

Every record is additionally appended to the append-only run history
``benchmarks/results/history.jsonl`` (see ``repro.obs.history``), the
longitudinal archive ``repro-eyeball stats history`` summarises.
"""

import json
import pathlib
import subprocess
import time

import pytest

from repro.experiments.scenario import ScenarioConfig, cached_scenario
from repro.obs import telemetry as obs
from repro.obs.history import RunHistory, utc_timestamp
from repro.obs.prof import top_frames
from repro.obs.sampler import sample

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Sampling rate of the per-benchmark stack profiler.
BENCH_FLAME_HZ = 97.0

#: Slowest span paths embedded per timing record (path, count,
#: total_s): where the wall time went, without the whole span tree.
BENCH_TOP_SPANS = 10

#: Hottest frames embedded per timing record (self/total sample counts
#: and shares) — enough to spot a shifted hot path in the trajectory
#: without bloating committed records with whole stack tables.
BENCH_TOP_FRAMES = 5

#: The longitudinal archive every record is appended to.
HISTORY_PATH = RESULTS_DIR / "history.jsonl"

#: The scenario every benchmark runs against, recorded in each JSON record.
BENCH_PRESET = "default"
BENCH_SEED = 5


def _git_rev():
    """Short HEAD revision, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=pathlib.Path(__file__).parent,
            timeout=10,
        )
    except OSError:
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


@pytest.fixture(scope="session")
def default_scenario():
    return cached_scenario(ScenarioConfig.default(seed=BENCH_SEED))


@pytest.fixture()
def archive(request):
    """Write ``results/<name>.txt`` plus a ``results/<name>.json`` record.

    The wall time runs from this fixture's setup to the archive call:
    the test body's own computation.  Session-scoped fixtures (the
    shared scenario build) are set up before the timer starts, so the
    record isolates what *this* benchmark did.

    Telemetry is captured for the duration of the test and a stack
    sampler runs alongside.  The record keeps what a trajectory reads:
    the wall time, the slowest span paths under ``"top_spans"`` and the
    hottest frames under ``"frames"``, so it also records *where* each
    benchmark spent its time.  The whole record is appended to
    ``results/history.jsonl``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    with obs.capture() as telemetry, sample(
        telemetry, flame_hz=BENCH_FLAME_HZ
    ) as sampler:
        start = time.perf_counter()

        def write(name: str, text: str, **extra) -> None:
            wall_s = time.perf_counter() - start
            documents = sampler.documents()  # read while it still runs
            (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
            record = {
                "name": name,
                "test": request.node.name,
                "wall_time_s": round(wall_s, 6),
                "preset": BENCH_PRESET,
                "seed": BENCH_SEED,
                "git_rev": _git_rev(),
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                "top_spans": [
                    {"path": path, "count": node.count,
                     "total_s": round(node.total_s, 6)}
                    for path, node in telemetry.top_spans(BENCH_TOP_SPANS)
                ],
                "frames": top_frames(
                    documents["flame_profile"], n=BENCH_TOP_FRAMES
                ),
            }
            record.update(extra)
            (RESULTS_DIR / f"{name}.json").write_text(
                json.dumps(record, indent=2, sort_keys=True) + "\n"
            )
            RunHistory(HISTORY_PATH).append_benchmark(
                record,
                git_rev=record["git_rev"],
                preset=BENCH_PRESET,
                seed=BENCH_SEED,
                timestamp=utc_timestamp(),
            )
            print(f"\n{text}\n")

        yield write
