"""REP403: drop counters must go through the lineage funnel API."""

import textwrap

from repro.analysis import lint_source
from repro.analysis.registry import get_rule


def check(source, module="repro.pipeline.fixture"):
    return lint_source(
        textwrap.dedent(source), module=module, rules=[get_rule("REP403")]
    )


def test_flags_raw_dropped_counter():
    findings = check(
        """
        from ..obs import telemetry as obs

        def filter_things(items):
            kept = [i for i in items if i.ok]
            obs.count("pipeline.peers_dropped_geo_error", len(items) - len(kept))
            return kept
        """
    )
    assert [f.rule_id for f in findings] == ["REP403"]
    assert "record_stage" in findings[0].message
    assert "pipeline.peers_dropped_geo_error" in findings[0].message


def test_flags_bare_count_call_and_name_keyword():
    findings = check(
        """
        from repro.obs.telemetry import count

        def f(n):
            count("crawl.users_dropped", n)
            count(name="exec.jobs_dropped", value=n)
        """
    )
    assert len(findings) == 2


def test_clean_counters_ignored():
    findings = check(
        """
        from ..obs import telemetry as obs

        def f(n):
            obs.count("pipeline.peers_in", n)
            obs.count("pipeline.peers_mapped", n)
            obs.count("kde.evaluations")
        """
    )
    assert findings == []


def test_dynamic_counter_names_are_undecidable():
    findings = check(
        """
        from ..obs import telemetry as obs

        def f(name, n):
            obs.count(name, n)
            obs.count(f"crawl.peers.{name}", n)
        """
    )
    assert findings == []


def test_lineage_api_call_sites_are_clean():
    findings = check(
        """
        from ..obs import lineage
        from ..obs.lineage import DropReason

        def filter_things(items, kept):
            lineage.record_stage(
                "pipeline.filter_geo_error",
                unit="peers",
                records_in=len(items),
                records_out=len(kept),
                drops={DropReason.GEO_ERROR: len(items) - len(kept)},
            )
            return kept
        """
    )
    assert findings == []


def test_obs_sidecar_is_exempt():
    source = """
        def record_stage(name, telemetry, counter_name, count):
            telemetry.count(counter_name, count)
            telemetry.count("pipeline.peers_dropped_geo_error", count)
        """
    assert check(source, module="repro.obs.lineage") == []
    assert check(source, module="repro.obs") == []
    assert check(source, module="repro.pipeline.filtering") != []


def test_non_repro_modules_ignored():
    source = """
        def f(obs, n):
            obs.count("stuff_dropped", n)
        """
    assert check(source, module="conftest") == []
