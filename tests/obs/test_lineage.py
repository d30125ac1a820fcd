"""Dataset-lineage funnel accounting (repro.obs.lineage)."""

import pytest

from repro.obs import telemetry as obs
from repro.obs.lineage import (
    DropReason,
    FunnelConservationError,
    FunnelStage,
    record_stage,
    render_funnel,
)


class TestDropReason:
    def test_closed_vocabulary(self):
        assert DropReason("geo_error") is DropReason.GEO_ERROR
        with pytest.raises(ValueError):
            DropReason("cosmic_rays")

    def test_str_is_the_value(self):
        assert str(DropReason.AS_TOO_SMALL) == "as_too_small"


class TestFunnelStage:
    def test_record_accumulates_under_conservation(self):
        stage = FunnelStage(name="pipeline.mapping", unit="peers")
        stage.record(100, 90, {DropReason.MISSING_RECORD: 10})
        stage.record(50, 50)
        assert stage.records_in == 150
        assert stage.records_out == 140
        assert stage.drops == {"missing_record": 10}
        assert stage.dropped == 10
        assert stage.retention == pytest.approx(140 / 150)

    def test_record_rejects_imbalance(self):
        stage = FunnelStage(name="s", unit="peers")
        with pytest.raises(FunnelConservationError):
            stage.record(100, 90, {DropReason.GEO_ERROR: 5})
        # Nothing is accumulated from a rejected observation.
        assert stage.records_in == 0

    def test_record_rejects_negative_drops(self):
        stage = FunnelStage(name="s", unit="peers")
        with pytest.raises(ValueError):
            stage.record(10, 15, {DropReason.GEO_ERROR: -5})

    def test_record_rejects_unknown_reason_strings(self):
        stage = FunnelStage(name="s", unit="peers")
        with pytest.raises(ValueError):
            stage.record(10, 5, {"gremlins": 5})

    def test_string_reasons_normalise_to_enum_values(self):
        stage = FunnelStage(name="s", unit="peers")
        stage.record(10, 5, {"geo_error": 3, DropReason.UNROUTED: 2})
        assert stage.drops == {"geo_error": 3, "unrouted": 2}

    def test_empty_stage_retention_is_one(self):
        assert FunnelStage(name="s", unit="peers").retention == 1.0

    def test_to_dict_rechecks_conservation(self):
        stage = FunnelStage(name="s", unit="peers")
        stage.record(10, 8, {DropReason.GEO_ERROR: 2})
        data = stage.to_dict()
        assert data == {
            "stage": "s",
            "unit": "peers",
            "records_in": 10,
            "records_out": 8,
            "drops": {"geo_error": 2},
            "retention": 0.8,
        }
        # A merge bug that unbalances the stage must fail serialisation.
        stage.records_out = 3
        with pytest.raises(FunnelConservationError):
            stage.to_dict()

    def test_from_dict_merge_roundtrip(self):
        stage = FunnelStage(name="s", unit="peers")
        stage.record(10, 8, {DropReason.GEO_ERROR: 2})
        clone = FunnelStage.from_dict(stage.to_dict())
        clone.merge(stage.to_dict())
        assert clone.records_in == 20
        assert clone.records_out == 16
        assert clone.drops == {"geo_error": 4}
        clone.check_conservation()


class TestRecordStage:
    def test_noop_when_disabled(self):
        assert obs.get_telemetry() is obs.NULL
        record_stage("s", unit="peers", records_in=10, records_out=5,
                     drops={DropReason.GEO_ERROR: 5})
        assert obs.NULL.snapshot()["funnel"] == []

    def test_records_on_active_registry(self):
        with obs.capture() as telemetry:
            record_stage(
                "pipeline.mapping", unit="peers",
                records_in=100, records_out=97,
                drops={DropReason.MISSING_RECORD: 3},
            )
        [stage] = telemetry.snapshot()["funnel"]
        assert stage["stage"] == "pipeline.mapping"
        assert stage["records_in"] == 100
        assert stage["drops"] == {"missing_record": 3}

    def test_conservation_error_propagates_when_enabled(self):
        with obs.capture():
            with pytest.raises(FunnelConservationError):
                record_stage("s", unit="peers", records_in=2, records_out=5)

    def test_stages_aggregate_by_name(self):
        with obs.capture() as telemetry:
            for _ in range(3):
                record_stage(
                    "pipeline.mapping", unit="peers",
                    records_in=10, records_out=9,
                    drops={DropReason.MISSING_RECORD: 1},
                )
        [stage] = telemetry.snapshot()["funnel"]
        assert stage["records_in"] == 30
        assert stage["drops"] == {"missing_record": 3}


class TestWorkerMerge:
    def test_merge_snapshot_preserves_conservation(self):
        worker = obs.Telemetry()
        worker.funnel_record(
            "exec.peak_selection", unit="peaks",
            records_in=7, records_out=4,
            drops={DropReason.BELOW_ALPHA: 3},
        )
        parent = obs.Telemetry()
        parent.funnel_record(
            "exec.peak_selection", unit="peaks",
            records_in=5, records_out=5,
        )
        parent.merge_snapshot(worker.snapshot())
        [stage] = parent.snapshot()["funnel"]
        assert stage["records_in"] == 12
        assert stage["records_out"] == 9
        assert stage["drops"] == {"below_alpha": 3}

    def test_merge_creates_missing_stages(self):
        worker = obs.Telemetry()
        worker.funnel_record("crawl.run", unit="users",
                             records_in=3, records_out=3)
        parent = obs.Telemetry()
        parent.merge_snapshot(worker.snapshot())
        [stage] = parent.snapshot()["funnel"]
        assert stage["stage"] == "crawl.run"
        assert stage["unit"] == "users"


class TestRenderFunnel:
    def test_waterfall_lists_stages_and_reasons(self):
        stage = FunnelStage(name="pipeline.mapping", unit="peers")
        stage.record(100, 90, {DropReason.MISSING_RECORD: 10})
        text = render_funnel([stage.to_dict()])
        assert "pipeline.mapping" in text
        assert "missing_record" in text
        assert "90.0%" in text

    def test_empty_funnel_renders_placeholder(self):
        assert "no funnel stages" in render_funnel([])
