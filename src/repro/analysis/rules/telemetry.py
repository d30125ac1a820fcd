"""Telemetry-hygiene rules (REP4xx).

PR 1 established the contract that every pipeline/crawl *stage entry
point* opens a telemetry span, so run reports always show where the
time went; and that telemetry never changes experiment output (that
half is enforced by REP202's isolation of ``repro.obs``).  PR 3 added
the span *naming* contract: every literal span name uses one of the
``layer.step`` taxonomy prefixes documented in
``docs/OBSERVABILITY.md``, so reports, diffs and traces from different
runs always line up.  PR 5 added the *lineage* contract: drop counts
go through ``repro.obs.lineage.record_stage`` (with a declared
:class:`~repro.obs.lineage.DropReason`) so every drop is subject to
the funnel's conservation law — a raw ``obs.count("*dropped*")`` call
site is a drop the data-quality gate cannot see.  PR 6 added the
*liveness* contract: a stage entry point that loops over records/jobs
registers a :class:`~repro.obs.progress.ProgressTracker`, so a running
stage is never a silent black box on the live event stream.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..context import ModuleContext
from ..findings import Finding, Severity
from ..registry import Rule, RuleMeta, register

#: Packages whose stage entry points must be instrumented.
INSTRUMENTED_PACKAGES = ("repro.pipeline.", "repro.crawl.")

#: A public module-level function with one of these prefixes is a stage
#: entry point.
STAGE_PREFIXES = ("run_", "build_", "generate_")

#: The documented span-name taxonomy (docs/OBSERVABILITY.md, "Span
#: taxonomy"): every span is ``<prefix>.<step>`` with the prefix naming
#: the owning layer.  tests/analysis/test_rules_taxonomy.py cross-checks
#: this tuple against the doc's table, so the two cannot drift apart.
TAXONOMY_PREFIXES = (
    "cli",
    "crawl",
    "exec",
    "footprint",
    "kde",
    "pipeline",
    "pop",
    "scenario",
)


def _opens_span(fn: ast.AST) -> bool:
    """True if the function body contains ``with obs.span(...)``."""
    for node in ast.walk(fn):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            expr = item.context_expr
            if not isinstance(expr, ast.Call):
                continue
            func = expr.func
            if isinstance(func, ast.Attribute) and func.attr == "span":
                return True
            if isinstance(func, ast.Name) and func.id == "span":
                return True
    return False


@register
class StageSpanRule(Rule):
    """Stage entry points (``run_*``/``build_*``/``generate_*``) in
    ``repro.pipeline``/``repro.crawl`` must open a span."""

    meta = RuleMeta(
        id="REP401",
        name="stage-span",
        severity=Severity.WARNING,
        summary="pipeline/crawl stage entry point opens no telemetry "
        "span",
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module.startswith(INSTRUMENTED_PACKAGES):
            return
        for node in ctx.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            if not node.name.startswith(STAGE_PREFIXES):
                continue
            if not _opens_span(node):
                yield self.finding(
                    ctx,
                    node,
                    f"stage entry point {node.name}() opens no telemetry "
                    "span; wrap its body in `with obs.span(...)` so run "
                    "reports attribute its time",
                )


def _span_name_literal(call: ast.Call) -> Optional[ast.AST]:
    """The AST node holding a ``span(...)`` call's name argument."""
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "name":
            return keyword.value
    return None


def _literal_prefix(node: ast.AST) -> Optional[str]:
    """The span name's static prefix, or ``None`` when undecidable.

    A string constant yields everything before the first dot (the whole
    string when dotless); an f-string yields the same from its leading
    constant piece when that piece already contains the dot.  Dynamic
    names (variables, call results, f-strings with a dynamic head) are
    undecidable and exempt.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split(".")[0]
    if isinstance(node, ast.JoinedStr) and node.values:
        head = node.values[0]
        if (
            isinstance(head, ast.Constant)
            and isinstance(head.value, str)
            and "." in head.value
        ):
            return head.value.split(".")[0]
    return None


@register
class SpanTaxonomyRule(Rule):
    """Literal span names must use a documented taxonomy prefix so
    reports, diffs and traces stay comparable across runs."""

    meta = RuleMeta(
        id="REP402",
        name="span-taxonomy",
        severity=Severity.WARNING,
        summary="span name outside the documented taxonomy prefixes "
        "(docs/OBSERVABILITY.md)",
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module.startswith("repro."):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_span = (
                isinstance(func, ast.Attribute) and func.attr == "span"
            ) or (isinstance(func, ast.Name) and func.id == "span")
            if not is_span:
                continue
            name_node = _span_name_literal(node)
            if name_node is None:
                continue
            prefix = _literal_prefix(name_node)
            if prefix is None:
                continue  # dynamic name; undecidable statically
            literal = (
                name_node.value
                if isinstance(name_node, ast.Constant)
                else f"{prefix}.*"
            )
            if prefix not in TAXONOMY_PREFIXES:
                yield self.finding(
                    ctx,
                    name_node,
                    f"span name {literal!r} uses undocumented prefix "
                    f"{prefix!r}; use one of {', '.join(TAXONOMY_PREFIXES)} "
                    "or extend the taxonomy in docs/OBSERVABILITY.md "
                    "first",
                )
            elif isinstance(name_node, ast.Constant) and "." not in literal:
                yield self.finding(
                    ctx,
                    name_node,
                    f"span name {literal!r} is not of the form "
                    "'<layer>.<step>' (see docs/OBSERVABILITY.md)",
                )


def _has_loop(fn: ast.AST) -> bool:
    """True if the function body contains a for/while loop (or a
    comprehension, which is the same iteration in expression form)."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            return True
    return False


def _registers_tracker(fn: ast.AST) -> bool:
    """True if the body calls ``tracker(...)``/``progress.tracker(...)``
    or constructs a ``ProgressTracker`` directly."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "tracker", "ProgressTracker"
        ):
            return True
        if isinstance(func, ast.Name) and func.id in (
            "tracker", "ProgressTracker"
        ):
            return True
    return False


@register
class StageProgressRule(Rule):
    """Stage entry points that loop over records/jobs must register a
    ``ProgressTracker`` so the live event stream sees them advance."""

    meta = RuleMeta(
        id="REP404",
        name="stage-progress",
        severity=Severity.WARNING,
        summary="looping stage entry point registers no ProgressTracker "
        "(repro.obs.progress)",
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module.startswith(INSTRUMENTED_PACKAGES):
            return
        for node in ctx.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            if not node.name.startswith(STAGE_PREFIXES):
                continue
            if not _has_loop(node):
                continue
            if not _registers_tracker(node):
                yield self.finding(
                    ctx,
                    node,
                    f"stage entry point {node.name}() loops without a "
                    "ProgressTracker; register one with "
                    "repro.obs.progress.tracker(stage, total, unit) so "
                    "the live event stream sees it advance (see "
                    "docs/OBSERVABILITY.md, 'Live progress & events')",
                )


def _counter_name_literal(call: ast.Call) -> Optional[str]:
    """The static counter name of a ``count(...)`` call, if literal."""
    node: Optional[ast.AST] = call.args[0] if call.args else None
    if node is None:
        for keyword in call.keywords:
            if keyword.arg == "name":
                node = keyword.value
                break
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


@register
class LineageDropCounterRule(Rule):
    """Drop accounting must go through the lineage API, not raw
    counters, so the funnel's conservation law covers every drop."""

    meta = RuleMeta(
        id="REP403",
        name="lineage-drop-counter",
        severity=Severity.WARNING,
        summary="raw drop counter bypasses the lineage funnel "
        "(repro.obs.lineage.record_stage)",
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module.startswith("repro."):
            return
        # The side-car itself is exempt: it implements the funnel.
        if ctx.module == "repro.obs" or ctx.module.startswith("repro.obs."):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_count = (
                isinstance(func, ast.Attribute) and func.attr == "count"
            ) or (isinstance(func, ast.Name) and func.id == "count")
            if not is_count:
                continue
            name = _counter_name_literal(node)
            if name is None or "dropped" not in name:
                continue
            yield self.finding(
                ctx,
                node,
                f"counter {name!r} records drops outside the lineage "
                "funnel; call repro.obs.lineage.record_stage(...) with "
                "a DropReason instead",
            )
