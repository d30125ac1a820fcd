"""REP402: literal span names must use documented taxonomy prefixes."""

import re
import textwrap
from pathlib import Path

from repro.analysis import lint_source
from repro.analysis.registry import get_rule
from repro.analysis.rules.telemetry import TAXONOMY_PREFIXES

REPO_ROOT = Path(__file__).resolve().parents[2]
OBSERVABILITY_DOC = REPO_ROOT / "docs" / "OBSERVABILITY.md"


def check(source, module="repro.core.fixture"):
    return lint_source(
        textwrap.dedent(source), module=module, rules=[get_rule("REP402")]
    )


def test_flags_undocumented_prefix():
    findings = check(
        """
        with obs.span("mylayer.step"):
            pass
        """
    )
    assert [f.rule_id for f in findings] == ["REP402"]
    assert "mylayer" in findings[0].message
    assert "docs/OBSERVABILITY.md" in findings[0].message


def test_flags_dotless_name():
    findings = check(
        """
        with span("work"):
            pass
        """
    )
    assert [f.rule_id for f in findings] == ["REP402"]


def test_flags_valid_prefix_without_step():
    # A bare layer name is not `<layer>.<step>`.
    findings = check(
        """
        with obs.span("pop"):
            pass
        """
    )
    assert [f.rule_id for f in findings] == ["REP402"]
    assert "<layer>.<step>" in findings[0].message


def test_every_taxonomy_prefix_is_clean():
    for prefix in TAXONOMY_PREFIXES:
        assert check(f'with obs.span("{prefix}.step"):\n    pass\n') == []


def test_fstring_with_documented_head_is_clean():
    findings = check(
        """
        with obs.span(f"cli.{args.command}"):
            pass
        """
    )
    assert findings == []


def test_fstring_with_undocumented_head_is_flagged():
    findings = check(
        """
        with obs.span(f"xyz.{args.command}"):
            pass
        """
    )
    assert [f.rule_id for f in findings] == ["REP402"]


def test_dynamic_names_are_exempt():
    findings = check(
        """
        def span_it(name):
            with obs.span(name):
                pass
            with obs.span(compute_name()):
                pass
            with obs.span(f"{layer}.step"):
                pass
        """
    )
    assert findings == []


def test_keyword_name_argument_is_checked():
    findings = check(
        """
        with obs.span(name="bogus.step"):
            pass
        """
    )
    assert [f.rule_id for f in findings] == ["REP402"]


def test_non_repro_modules_are_exempt():
    source = """
        with obs.span("anything.goes"):
            pass
        """
    assert check(source, module="somepkg.mod") == []


def test_non_span_calls_are_ignored():
    findings = check(
        """
        obs.count("bogus.counter", 3)
        obs.gauge("bogus.gauge", 1.0)
        widen("bogus.name")
        """
    )
    assert findings == []


def _doc_span_prefixes():
    """Span-name prefixes from the doc's "Span taxonomy" table."""
    text = OBSERVABILITY_DOC.read_text()
    match = re.search(
        r"## Span taxonomy\n(.*?)\n## ", text, flags=re.DOTALL
    )
    assert match, "docs/OBSERVABILITY.md lost its '## Span taxonomy' section"
    prefixes = set()
    for line in match.group(1).splitlines():
        if not line.startswith("|") or "---" in line:
            continue
        first_cell = line.split("|")[1]
        for token in re.findall(r"`([a-z_]+)\.", first_cell):
            prefixes.add(token)
    return prefixes


def test_taxonomy_matches_documentation():
    # The rule's embedded prefix tuple and the documented taxonomy must
    # never drift apart: extending one without the other fails here.
    documented = _doc_span_prefixes()
    assert documented == set(TAXONOMY_PREFIXES), (
        f"rule prefixes {sorted(TAXONOMY_PREFIXES)} != documented "
        f"{sorted(documented)}; update docs/OBSERVABILITY.md and "
        "TAXONOMY_PREFIXES together"
    )
    assert TAXONOMY_PREFIXES == tuple(sorted(TAXONOMY_PREFIXES))
