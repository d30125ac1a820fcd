"""The repository's own source must pass reprolint.

This is the acceptance gate, in three parts: ``src/repro`` at HEAD is
clean under the committed baseline; the hygiene part of that baseline
stays small (violations are fixed, not accumulated); and the scale
part — the REP701/REP8xx entries that form the columnar-refactor
burn-down list — is an exact, shrink-only ratchet.
"""

import json
from pathlib import Path

from repro.analysis import Baseline, lint_paths, render_text

REPO_ROOT = Path(__file__).resolve().parents[2]
SOURCE = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / ".reprolint.json"

#: Trees feeding the whole-program reference index (must match the CLI's
#: REFERENCE_ROOTS so the committed baseline reproduces here).
REFERENCE = [
    REPO_ROOT / name
    for name in ("src", "tests", "benchmarks", "examples")
]

#: The acceptance criteria cap the committed *hygiene* baseline at 10
#: entries.  Ratcheted rules are budgeted separately below.
MAX_BASELINE_ENTRIES = 10

#: Rules whose baseline is a shrink-only ratchet, not a hygiene debt.
RATCHET_RULES = frozenset({"REP701", "REP801", "REP802", "REP901"})

#: Committed REP8xx budget: the number of O(population) sites the
#: columnar refactor (ROADMAP item 1) must burn down.  Lower it as
#: sites move to the batch representation; raising it means a new
#: population-sized materialisation shipped — don't.
MAX_SCALE_BUDGET = 11

#: Committed REP701 budget: public symbols currently referenced nowhere.
MAX_DEAD_API_BUDGET = 1

#: Committed REP901 budget: element-at-a-time loops still living in
#: pipeline stage modules (the batch-first burn-down list).
MAX_ELEMENTWISE_BUDGET = 1


def run_self_lint(baseline=None):
    return lint_paths(
        [SOURCE],
        root=REPO_ROOT,
        baseline=baseline,
        reference_paths=REFERENCE,
    )


def test_source_tree_is_lint_clean():
    baseline = Baseline.load(BASELINE)
    result = run_self_lint(baseline)
    assert result.findings == [], "\n" + render_text(result)


def test_baseline_is_committed_and_small():
    assert BASELINE.exists(), "commit .reprolint.json (repro lint --write-baseline)"
    document = json.loads(BASELINE.read_text())
    assert document["schema"] == "repro.lint-baseline/v1"
    hygiene = [
        entry
        for entry in document["entries"]
        if entry["rule"] not in RATCHET_RULES
    ]
    assert len(hygiene) <= MAX_BASELINE_ENTRIES


def test_scale_ratchet_only_shrinks():
    """The REP8xx baseline is the refactor burn-down list: it must
    match the live findings exactly (no stale credit to spend) and stay
    within the committed budget (it can only shrink)."""
    document = json.loads(BASELINE.read_text())
    budget = {
        rule: sum(
            entry["count"]
            for entry in document["entries"]
            if entry["rule"] == rule
        )
        for rule in sorted(RATCHET_RULES)
    }
    assert budget["REP801"] + budget["REP802"] <= MAX_SCALE_BUDGET, (
        "REP8xx budget grew: a new O(population) site shipped; stream "
        "or batch it instead of re-baselining"
    )
    assert budget["REP701"] <= MAX_DEAD_API_BUDGET, (
        "REP701 budget grew: new dead public API shipped; delete it or "
        "use it instead of re-baselining"
    )
    assert budget["REP901"] <= MAX_ELEMENTWISE_BUDGET, (
        "REP901 budget grew: a new element-at-a-time loop shipped in a "
        "pipeline stage module; vectorise it over the batch instead of "
        "re-baselining"
    )
    live = run_self_lint(baseline=None)
    for rule in sorted(RATCHET_RULES):
        count = sum(1 for f in live.findings if f.rule_id == rule)
        assert count == budget[rule], (
            f"{rule}: baseline budgets {budget[rule]} finding(s) but "
            f"the tree has {count}; regenerate the baseline "
            "(repro-eyeball lint --write-baseline) so the ratchet "
            "stays exact"
        )


def test_no_import_cycles_in_source_tree():
    """REP203 must stay at zero *without* baseline credit: cycles are
    fixed, never grandfathered."""
    result = run_self_lint(baseline=None)
    cycles = [f for f in result.findings if f.rule_id == "REP203"]
    assert cycles == [], "\n".join(f.message for f in cycles)


def test_analysis_package_has_no_repro_dependencies():
    # The linter lints itself: repro.analysis must stay stdlib-only so
    # it can never perturb what the pipeline computes.
    result = lint_paths([SOURCE / "analysis"], root=REPO_ROOT)
    sidecar = [f for f in result.findings if f.rule_id == "REP202"]
    assert sidecar == []
