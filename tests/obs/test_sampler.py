"""One Sampler: one thread, per-reader rates, mid-run documents.

The rate test runs on a scripted clock, so its read counts are exact
functions of the schedule; the thread tests use the real clock.
"""

import os
import sys
import threading
import time

import pytest

from repro.obs import telemetry as obs
from repro.obs.prof import FLAME_SCHEMA, StackReader, validate_flame
from repro.obs.resources import (
    RESOURCE_PROFILE_SCHEMA,
    ResourceReader,
    validate_profile,
)
from repro.obs.sampler import Sampler, sample


class ScriptedClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def scripted_readers():
    resources = ResourceReader(
        10.0,
        rss_reader=lambda: 1000.0,
        cpu_reader=lambda: 0.0,
        heap_reader=lambda: None,
    )
    stacks = StackReader(
        97.0, frame_reader=lambda: [("work", "repro/x.py", 1)]
    )
    return resources, stacks


def test_both_rates_share_one_sampler_thread():
    telemetry = obs.Telemetry()
    before = set(threading.enumerate())
    with sample(telemetry, profile_hz=10.0, flame_hz=97.0) as sampler:
        started = [t for t in threading.enumerate() if t not in before]
        assert len(started) == 1
        assert started[0].daemon
        assert sampler.running
    assert not started[0].is_alive()
    assert telemetry.resource_profile["hz"] == 10.0
    assert telemetry.flame_profile["hz"] == 97.0


def test_each_reader_keeps_its_rate_on_a_scripted_clock():
    clock = ScriptedClock()
    resources, stacks = scripted_readers()
    sampler = Sampler([resources, stacks], clock=clock)
    sampler.begin()  # the resource reader's first reading
    per_second = []
    for _ in range(3):
        counts = (
            resources.document()["sample_count"],
            stacks.document()["sample_count"],
        )
        for _ in range(1000):  # one simulated second in 1 ms ticks
            clock.now += 0.001
            sampler.tick()
        per_second.append((
            resources.document()["sample_count"] - counts[0],
            stacks.document()["sample_count"] - counts[1],
        ))
    for resource_reads, stack_reads in per_second:
        assert resource_reads == pytest.approx(10, abs=1)
        assert stack_reads == pytest.approx(97, abs=1)


def test_a_stall_skips_missed_readings_instead_of_bursting():
    clock = ScriptedClock()
    resources, stacks = scripted_readers()
    sampler = Sampler([resources, stacks], clock=clock)
    sampler.begin()
    clock.now = 5.0  # the thread was starved for five seconds
    sampler.tick()
    sampler.tick()
    assert resources.document()["sample_count"] == 2  # begin + one
    assert stacks.document()["sample_count"] == 1


def test_both_documents_validate_and_report_their_rates():
    telemetry = obs.Telemetry()
    with sample(telemetry, profile_hz=50.0, flame_hz=200.0):
        with telemetry.span("busy"):
            deadline = time.perf_counter() + 0.1
            while time.perf_counter() < deadline:
                sum(i * i for i in range(1000))
    resources = telemetry.resource_profile
    flame = telemetry.flame_profile
    assert resources["schema"] == RESOURCE_PROFILE_SCHEMA
    assert flame["schema"] == FLAME_SCHEMA
    assert validate_profile(resources) == []
    assert validate_flame(flame) == []
    assert (resources["hz"], flame["hz"]) == (50.0, 200.0)
    assert resources["pid"] == os.getpid()
    assert "busy" in resources["stages"]
    assert "busy" in {stack["stage"] for stack in flame["stacks"]}


def test_stacks_are_read_on_ticks_only():
    clock = ScriptedClock()
    resources, stacks = scripted_readers()
    sampler = Sampler([resources, stacks], clock=clock)
    sampler.begin()
    clock.now = 1.0
    sampler.stop()
    # Resource readings bracket the run; the stack reader took none,
    # but its duration still spans it.
    assert resources.document()["sample_count"] == 2
    assert stacks.document()["sample_count"] == 0
    assert stacks.document()["duration_s"] == pytest.approx(1.0)


def test_documents_are_readable_while_the_thread_runs():
    with sample(obs.Telemetry(), profile_hz=200.0, flame_hz=200.0) as s:
        time.sleep(0.05)
        documents = s.documents()
        assert s.running
    assert set(documents) == {"resource_profile", "flame_profile"}
    assert documents["resource_profile"]["sample_count"] >= 1
    assert validate_flame(documents["flame_profile"]) == []


def test_mid_run_documents_stay_consistent_under_thread_switching():
    # Readings and document reads race on the reader tables; the lock
    # must keep every snapshot internally consistent.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with sample(
            obs.Telemetry(), profile_hz=1000.0, flame_hz=1000.0
        ) as sampler:
            deadline = time.perf_counter() + 0.3
            while time.perf_counter() < deadline:
                documents = sampler.documents()
                resources = documents["resource_profile"]
                assert len(resources["samples"]) == resources["sample_count"]
                assert validate_flame(documents["flame_profile"]) == []
    finally:
        sys.setswitchinterval(interval)
    assert not sampler.running
    assert resources["sample_count"] > 10


def test_a_sampler_needs_a_reader():
    with pytest.raises(ValueError):
        Sampler([])
