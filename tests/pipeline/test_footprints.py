"""The pipeline footprint stage and its scenario-level wiring."""

import numpy as np
import pytest

from repro.obs import telemetry as obs
from repro.pipeline import build_footprint_jobs, run_footprint_stage

BANDWIDTH_KM = 40.0


@pytest.fixture(scope="module")
def asns(small_scenario):
    return small_scenario.eyeball_target_asns()[:4]


class TestJobBuilding:
    def test_one_job_per_asn_in_order(self, small_scenario, asns):
        jobs = build_footprint_jobs(small_scenario.dataset, asns, BANDWIDTH_KM)
        assert [j.asn for j in jobs] == list(asns)

    def test_jobs_carry_the_group_coordinates(self, small_scenario, asns):
        (job,) = build_footprint_jobs(
            small_scenario.dataset, asns[:1], BANDWIDTH_KM
        )
        target = small_scenario.dataset.ases[asns[0]]
        assert np.array_equal(job.lats, target.group.lat)
        assert np.array_equal(job.lons, target.group.lon)
        assert job.bandwidth_km == BANDWIDTH_KM

    def test_building_opens_its_span(self, small_scenario, asns):
        with obs.capture() as telemetry:
            build_footprint_jobs(small_scenario.dataset, asns, BANDWIDTH_KM)
        names = [s["name"] for s in telemetry.snapshot()["spans"]]
        assert names == ["pipeline.footprint_jobs"]


class TestStage:
    def test_matches_the_inline_scenario_loop(self, small_scenario, asns):
        artifacts = run_footprint_stage(
            small_scenario.dataset,
            small_scenario.gazetteer,
            asns,
            BANDWIDTH_KM,
        )
        assert list(artifacts) == list(asns)
        for asn in asns:
            inline = small_scenario.pop_footprint(asn, BANDWIDTH_KM)
            assert artifacts[asn].pop_footprint == inline

    def test_stage_opens_its_span(self, small_scenario, asns):
        with obs.capture() as telemetry:
            run_footprint_stage(
                small_scenario.dataset,
                small_scenario.gazetteer,
                asns,
                BANDWIDTH_KM,
            )
        (stage,) = telemetry.snapshot()["spans"]
        assert stage["name"] == "pipeline.footprints"
        child_names = {c["name"] for c in stage["children"]}
        assert "pipeline.footprint_jobs" in child_names
        assert "exec.run" in child_names


class TestScenarioWiring:
    """The batch methods run on the engine; the per-AS methods call
    ``core`` directly and are the reference."""

    def test_pop_footprints_engine_path_matches_inline(
        self, small_scenario, asns
    ):
        batch = small_scenario.pop_footprints(asns, BANDWIDTH_KM)
        assert list(batch) == list(asns)
        for asn in asns:
            assert batch[asn] == small_scenario.pop_footprint(
                asn, BANDWIDTH_KM
            )

    def test_peak_location_sets_engine_path_matches_inline(
        self, small_scenario, asns
    ):
        with obs.capture() as telemetry:
            batch = small_scenario.peak_location_sets(asns, BANDWIDTH_KM)
        assert telemetry.counters["exec.jobs"] == len(asns)
        assert list(batch) == list(asns)
        for asn in asns:
            assert batch[asn] == small_scenario.peak_locations(
                asn, BANDWIDTH_KM
            )
