"""Command-line interface: regenerate any of the paper's artefacts.

::

    repro-eyeball table1   [--preset small|default] [--workers N] [--cache-dir DIR]
    repro-eyeball figure1  [--scale 0.01]
    repro-eyeball figure2  [--preset small|default] [--reference-ases 45]
    repro-eyeball section5 [--preset small|default]
    repro-eyeball section6 [--scale 0.01]
    repro-eyeball all      [--preset small]
    repro-eyeball stats    [--preset small] [--top 10]
    repro-eyeball stats diff OLD.json NEW.json [--max-ratio 1.5]
                           [--max-rss-ratio 1.5]
    repro-eyeball stats funnel REPORT.json [--format text|json]
    repro-eyeball stats history [--limit 10] [--name table1] [--format json]
    repro-eyeball stats events EVENTS.jsonl [--format text|json] [--limit N]
    repro-eyeball stats resources REPORT.json [--format text|json]
                           [--budget BUDGET.json]
    repro-eyeball stats flame PROFILE.json [--top 10]
                           [--format text|json|collapsed|speedscope]
                           [--diff BASELINE.json] [--share-tolerance 0.1]
                           [--min-share 0.05]
    repro-eyeball lint     [PATH ...] [--format text|json] [--list-rules]
                           [--select RULES] [--graph-out GRAPH.json]
                           [--show-suppressed]

Each subcommand prints the same rendered table/figure the benchmark
harness archives, with the paper's numbers alongside.  ``--preset
small`` (the default) runs in seconds; ``--preset default`` is the
paper-shaped scenario the benchmarks use (a couple of minutes for
figure2/section5).

Global observability flags (see ``docs/OBSERVABILITY.md``):

``--log-level LEVEL``
    Structured ``repro.*`` logging threshold (default ``warning``).
``--metrics-out PATH``
    Enable telemetry for the run and write a JSON run report to PATH.
``--trace-out PATH``
    Enable telemetry and export the span tree as Chrome trace-event
    JSON (loadable in Perfetto / ``chrome://tracing``).
``--memory``
    With telemetry enabled, additionally gauge per-span peak heap via
    ``tracemalloc`` (``memory.peak_kib.*``); a no-op otherwise.
``--profile-resources[=HZ]``
    With telemetry enabled, sample RSS/CPU/heap on a background thread
    (default 10 Hz) into a ``repro.resource-profile/v1`` section of the
    run report, rendered as counter tracks in ``--trace-out`` traces;
    inspect with ``stats resources``.  A no-op otherwise.
``--flame-out PATH``
    Enable telemetry, sample the call stack on a background thread and
    write the span-attributed ``repro.flame/v1`` collapsed-stack
    profile to PATH; render, export (flamegraph.pl / speedscope) and
    diff it with ``stats flame``.
``--flame-hz HZ``
    Stack-sampling rate for ``--flame-out`` (default 97 Hz); workers
    sample themselves and ship their stack tables home.
``--events-out PATH.jsonl``
    Stream live ``repro.events/v1`` events (stage progress, heartbeats,
    stall warnings) to PATH while the run executes — independent of the
    post-hoc report sinks.  Validate with ``stats events``.
``--progress``
    Render live per-stage progress bars with rate/ETA on stderr.
``--version``
    Print the package version and exit.

Execution-engine flags (see ``docs/PERFORMANCE.md``):

``--workers N``
    Fan per-AS footprint batches over N worker processes via the
    ``repro.exec`` engine.  ``1`` (the default) is the serial
    in-process path; results are identical for every N.
``--cache-dir PATH``
    Content-addressed artifact cache for footprint results.  A re-run
    with unchanged inputs serves footprints from disk (watch the
    ``exec.cache.*`` counters in ``--metrics-out`` reports).
``--chunk-size N``
    Stream the conditioning pipeline in N-peer chunks (default 262144;
    see ``docs/DATA_MODEL.md``).  Output is the same at every chunk
    size; per-stage memory is bounded by the chunk.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import __version__
from .analysis import (
    Baseline,
    Severity,
    all_rules,
    lint_paths,
    render_import_graph,
    render_json,
    render_text,
    select_rules,
)
from .crawl.chunks import DEFAULT_CHUNK_SIZE
from .exec import MAX_WORKERS, ParallelConfig
from .experiments.figure1 import run_figure1
from .experiments.figure2 import run_figure2
from .experiments.scenario import (
    ScenarioConfig,
    build_scenario,
    cached_scenario,
    config_hash,
)
from .experiments.section5 import run_section5
from .experiments.section6 import run_section6
from .experiments.table1 import run_table1
from .obs import events as obs_events
from .obs import prof as obs_prof
from .obs import resources as obs_resources
from .obs import telemetry as obs
from .obs.diff import DiffThresholds, diff_reports
from .obs.history import RunHistory
from .obs.lineage import (
    FunnelConservationError,
    FunnelStage,
    render_funnel,
)
from .obs.logconfig import LEVELS, configure_logging
from .obs.memory import capture_memory
from .obs.report import DATA_QUALITY_SCHEMA, RunReport
from .obs.report import SCHEMA as RUN_REPORT_SCHEMA
from .obs.trace import write_trace
from .validation.reference import ReferenceConfig


def _scenario_config(args) -> ScenarioConfig:
    config = (
        ScenarioConfig.default(seed=args.seed)
        if args.preset == "default"
        else ScenarioConfig.small(seed=args.seed)
    )
    chunk_size = getattr(args, "chunk_size", None)
    if chunk_size is not None:
        if chunk_size < 1:
            raise SystemExit("--chunk-size must be a positive peer count")
        config = dataclasses.replace(
            config,
            pipeline=dataclasses.replace(
                config.pipeline, chunk_size=chunk_size
            ),
        )
    return config


def _scenario(args):
    return cached_scenario(_scenario_config(args))


def _parallel_config(args) -> Optional[ParallelConfig]:
    """The engine config implied by --workers/--cache-dir, if any.

    ``None`` (no flag given) keeps every experiment on its historical
    inline code path; any flag routes footprint batches through the
    ``repro.exec`` engine (still bit-identical output).
    """
    if args.workers == 1 and args.cache_dir is None:
        return None
    return ParallelConfig(
        workers=args.workers,
        cache_dir=args.cache_dir,
        profile_hz=getattr(args, "profile_resources", None),
        flame_hz=_effective_flame_hz(args),
    )


def _effective_flame_hz(args) -> Optional[float]:
    """The stack-sampling rate this run profiles at (None = off).

    ``--flame-out`` arms the sampler (at ``--flame-hz`` or the default
    rate); bare ``stats`` runs additionally honour ``--flame-hz`` on
    their self-armed capture, mirroring ``--profile-resources``.
    """
    if getattr(args, "flame_out", None) is not None:
        return getattr(args, "flame_hz", None) or obs_prof.DEFAULT_HZ
    if (
        getattr(args, "command", None) == "stats"
        and getattr(args, "flame_hz", None)
    ):
        return args.flame_hz
    return None


def _reference_config(args) -> ReferenceConfig:
    count = args.reference_ases
    if count is None:
        count = 45 if args.preset == "default" else 18
    return ReferenceConfig(as_count=count)


def _emit(args, text: str, checks=None) -> int:
    print(text)
    if checks is not None:
        print(
            "shape checks: "
            + ", ".join(f"{name}={passed}" for name, passed in checks.items())
        )
        if not all(checks.values()):
            print(
                "WARNING: some shape checks failed (the small preset may "
                "be too small for every property; try --preset default)",
                file=sys.stderr,
            )
            return 1 if args.strict else 0
    return 0


#: Bandwidth of the table1 footprint warm stage (the paper's city scale).
WARM_BANDWIDTH_KM = 40.0


def cmd_table1(args) -> int:
    scenario = _scenario(args)
    parallel = _parallel_config(args)
    if parallel is not None:
        # Table 1 itself is footprint-free; with engine flags set we
        # additionally warm the per-AS footprint artifacts through the
        # exec engine so --workers scales the heavy stage and a second
        # run against the same --cache-dir hits instead of recomputing.
        # The rendered table is untouched either way.
        scenario.pop_footprints(
            scenario.eyeball_target_asns(),
            WARM_BANDWIDTH_KM,
            parallel=parallel,
        )
    result = run_table1(scenario)
    return _emit(args, result.render(), result.shape_checks())


def cmd_figure1(args) -> int:
    result = run_figure1(scale=args.scale, seed=args.seed)
    return _emit(args, result.render(), result.shape_checks())


def cmd_figure2(args) -> int:
    result = run_figure2(
        _scenario(args),
        reference_config=_reference_config(args),
        parallel=_parallel_config(args),
    )
    return _emit(args, result.render(), result.shape_checks())


def cmd_section5(args) -> int:
    result = run_section5(
        _scenario(args),
        reference_config=_reference_config(args),
        parallel=_parallel_config(args),
    )
    return _emit(args, result.render(), result.shape_checks())


def cmd_section6(args) -> int:
    result = run_section6(scale=args.scale, seed=args.seed)
    return _emit(args, result.render(), result.shape_checks())


def cmd_survey(args) -> int:
    """Peering + resilience surveys over the scenario's eyeball ASes."""
    from .connectivity.metrics import survey_edge_connectivity
    from .net.resilience import survey_resilience

    scenario = _scenario(args)
    peering = survey_edge_connectivity(scenario.ecosystem)
    resilience = survey_resilience(scenario.ecosystem)
    lines = ["Edge-connectivity survey:"]
    lines.append(
        f"{'region':<8}{'ASes':>6}{'providers':>11}{'multihomed':>12}"
        f"{'peering':>9}{'remote':>8}{'survival':>10}"
    )
    for code in sorted(peering.by_continent):
        profile = peering.continent(code)
        survival = resilience.survival_by_continent.get(code, 0.0)
        lines.append(
            f"{code:<8}{profile.as_count:>6}"
            f"{profile.mean_providers:>11.2f}"
            f"{profile.multihomed_fraction:>12.1%}"
            f"{profile.peering_fraction:>9.1%}"
            f"{profile.remote_peering_fraction:>8.1%}"
            f"{survival:>10.1%}"
        )
    lines.append(
        f"most peering-active: {peering.most_active_peering_continent()}"
        f"  (paper: Europe)"
    )
    return _emit(args, "\n".join(lines))


def cmd_all(args) -> int:
    status = 0
    for command in (cmd_table1, cmd_figure1, cmd_figure2, cmd_section5,
                    cmd_section6, cmd_survey):
        status |= command(args)
        print()
    return status


#: Baseline file the lint subcommand looks for when --baseline is absent.
DEFAULT_BASELINE = ".reprolint.json"

#: Trees whose files feed the whole-program reference index (REP701's
#: liveness evidence) without being linted themselves.
REFERENCE_ROOTS = ("src", "tests", "benchmarks", "examples")


def _lint_targets(args) -> List[str]:
    if args.paths:
        return args.paths
    # Prefer the source tree of a development checkout; fall back to
    # the installed package (e.g. when run from another directory).
    if Path("src/repro").is_dir():
        return ["src/repro"]
    return [str(Path(__file__).parent)]


def _lint_reference_paths() -> List[str]:
    return [root for root in REFERENCE_ROOTS if Path(root).is_dir()]


def cmd_lint(args) -> int:
    """Run reprolint (see docs/STATIC_ANALYSIS.md)."""
    if args.list_rules:
        print(f"{'id':<9}{'name':<26}{'severity':<10}summary")
        for rule in all_rules():
            meta = rule.meta
            print(
                f"{meta.id:<9}{meta.name:<26}{str(meta.severity):<10}"
                f"{meta.summary}"
            )
        return 0
    rules = None
    if args.select:
        try:
            rules = select_rules(args.select)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    baseline_path = Path(args.baseline or DEFAULT_BASELINE)
    baseline = None
    if not args.no_baseline and not args.write_baseline:
        baseline = Baseline.load(baseline_path)
    try:
        result = lint_paths(
            _lint_targets(args),
            rules=rules,
            baseline=baseline,
            reference_paths=_lint_reference_paths(),
            build_project=True if args.graph_out else None,
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.graph_out and result.project is not None:
        Path(args.graph_out).write_text(
            render_import_graph(
                result.project, targets=_lint_targets(args)
            )
            + "\n"
        )
        print(
            f"import graph ({len(result.project.modules)} modules) "
            f"written to {args.graph_out}",
            file=sys.stderr,
        )
    if args.write_baseline:
        saved = Baseline.from_findings(result.findings).save(baseline_path)
        print(
            f"baseline with {len(result.findings)} finding(s) "
            f"written to {saved}"
        )
        return 0
    threshold = Severity.parse(args.fail_on)
    if args.format == "json":
        print(
            render_json(
                result,
                targets=_lint_targets(args),
                fail_on=str(threshold),
                baseline=str(baseline_path) if baseline else None,
            )
        )
    else:
        print(
            render_text(
                result,
                verbose=args.verbose,
                show_suppressed=args.show_suppressed,
            )
        )
    return result.exit_status(threshold)


def cmd_stats(args) -> int:
    """Profile one fresh pipeline run and print the telemetry summary.

    Always rebuilds the scenario (no cache) so the span timings reflect
    real work, then exercises the KDE → PoP stages on a few target ASes
    so the Section 3/4 spans appear too.
    """
    config = _scenario_config(args)
    active = obs.get_telemetry()
    if active.enabled:  # --metrics-out/--trace-out installed a registry
        telemetry = active  # main() already armed the sampler, if any
        scenario = _run_profiled(config, args)
    else:
        enable = capture_memory if args.memory else obs.capture
        with ExitStack() as stack:
            telemetry = stack.enter_context(enable())
            profile_hz = getattr(args, "profile_resources", None)
            if profile_hz:
                stack.enter_context(
                    obs_resources.sample_resources(
                        profile_hz, telemetry=telemetry
                    )
                )
            flame_hz = _effective_flame_hz(args)
            if flame_hz:
                stack.enter_context(
                    obs_prof.sample_stacks(flame_hz, telemetry=telemetry)
                )
            scenario = _run_profiled(config, args)
    report = RunReport.from_telemetry(
        telemetry,
        command="stats",
        preset=args.preset,
        seed=args.seed,
        config_hash=config_hash(config),
        version=__version__,
    )
    print(report.render_summary(top=args.top))
    print(
        f"\ntarget dataset: {len(scenario.dataset)} ASes, "
        f"{scenario.dataset.total_peers} peers"
    )
    return 0


def _run_profiled(config: ScenarioConfig, args):
    scenario = build_scenario(config)
    asns = scenario.eyeball_target_asns()[: args.profile_ases]
    scenario.pop_footprints(
        asns, WARM_BANDWIDTH_KM, parallel=_parallel_config(args)
    )
    return scenario


#: Where the benchmark harness appends its run history.
DEFAULT_HISTORY = "benchmarks/results/history.jsonl"


def cmd_stats_diff(args) -> int:
    """Compare two run reports; exit 1 on a thresholded regression."""
    try:
        old = RunReport.load(args.old)
        new = RunReport.load(args.new)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load run report: {exc}", file=sys.stderr)
        return 2
    if bool(old.resource_profile) != bool(new.resource_profile):
        # Degrade like the funnel/events commands: one profiled and one
        # unprofiled report cannot be resource-judged — name the bare
        # one instead of silently skipping (or tripping) the gate.
        bare = args.old if not old.resource_profile else args.new
        print(
            f"error: {bare} has no "
            f"{obs_resources.RESOURCE_PROFILE_SCHEMA} section while the "
            "other report does; regenerate it with --profile-resources "
            "(or diff two unprofiled reports)",
            file=sys.stderr,
        )
        return 2
    thresholds = DiffThresholds(
        max_ratio=args.max_ratio,
        noise_floor_s=args.noise_floor_ms / 1000.0,
        counter_rel_tol=args.counter_tolerance,
        gauge_rel_tol=args.gauge_tolerance,
        fail_on_drift=args.fail_on_drift,
        retention_abs_tol=args.retention_tolerance,
        quantile_rel_tol=args.quantile_tolerance,
        fail_on_data_drift=not args.no_fail_on_data_drift,
        max_rss_ratio=args.max_rss_ratio,
        cpu_util_abs_tol=args.cpu_util_tolerance,
        fail_on_resource_drift=not args.no_fail_on_resource_drift,
    )
    try:
        result = diff_reports(old, new, thresholds)
    except (KeyError, TypeError, ValueError) as exc:
        # A report missing an expected section (e.g. written by an
        # older version) must name the problem, not traceback.
        print(
            f"error: cannot diff reports: {exc!r} — one report may "
            "predate the current repro.run-report/v1 sections; "
            "regenerate it with --metrics-out on this version",
            file=sys.stderr,
        )
        return 2
    if args.format == "json":
        print(result.to_json())
    else:
        print(f"old: {args.old}")
        print(f"new: {args.new}")
        print(result.render_text())
    if result.verdict != "ok":
        if result.regressions:
            detail = ", ".join(d.path for d in result.regressions)
        elif result.data_drifts:
            detail = "data drift (" + ", ".join(
                d.stage if hasattr(d, "stage") else f"{d.name}.{d.quantile}"
                for d in result.data_drifts
            ) + ")"
        elif result.resource_drifts:
            detail = "resource drift (" + ", ".join(
                f"{d.scope}.{d.metric}" for d in result.resource_drifts
            ) + ")"
        else:
            detail = "metric drift"
        print(f"perf regression gate FAILED: {detail}", file=sys.stderr)
        return 1
    return 0


def cmd_stats_funnel(args) -> int:
    """Render a report's data funnel; exit 1 on conservation violation."""
    try:
        report = RunReport.load(args.report)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load run report: {exc}", file=sys.stderr)
        return 2
    if not report.data_quality:
        print(
            f"error: {args.report} has no {DATA_QUALITY_SCHEMA} section "
            "(written by an older version?); regenerate it with "
            "--metrics-out on this version",
            file=sys.stderr,
        )
        return 2
    stages = report.funnel()
    violations: List[str] = []
    for raw in stages:
        try:
            FunnelStage.from_dict(raw).check_conservation()
        except FunnelConservationError as exc:
            violations.append(str(exc))
        except (KeyError, TypeError, ValueError) as exc:
            violations.append(f"malformed funnel stage: {exc!r}")
    if args.format == "json":
        print(json.dumps(
            {
                "schema": DATA_QUALITY_SCHEMA,
                "funnel": stages,
                "quality": report.quality_digests(),
                "conserved": not violations,
                "violations": violations,
            },
            indent=2,
            sort_keys=True,
        ))
    else:
        print(render_funnel(stages))
    for violation in violations:
        print(f"funnel conservation VIOLATED: {violation}", file=sys.stderr)
    return 1 if violations else 0


def cmd_stats_events(args) -> int:
    """Render and validate a stored ``repro.events/v1`` stream.

    Exit 0 on a schema-valid stream, 1 on sequence gaps, truncation or
    any other schema violation, 2 when the file cannot be read.
    """
    try:
        text = Path(args.stream).read_text()
    except OSError as exc:
        print(f"error: cannot read event stream: {exc}", file=sys.stderr)
        return 2
    parsed, problems = obs_events.parse_events(text)
    problems = problems + obs_events.validate_events(parsed)
    # --limit trims what is *shown*, never what is validated: sequence
    # gaps in the untrimmed head must still fail the gate.
    shown = parsed
    if args.limit is not None:
        if args.limit < 0:
            print("error: --limit must be non-negative", file=sys.stderr)
            return 2
        shown = parsed[len(parsed) - args.limit:] if args.limit else []
    if args.format == "json":
        summary = obs_events.summarize_events(shown)
        summary["valid"] = not problems
        summary["problems"] = problems
        if args.limit is not None:
            summary["total_events"] = len(parsed)
            summary["shown_events"] = len(shown)
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        if len(shown) < len(parsed):
            print(
                f"(showing last {len(shown)} of {len(parsed)} events)"
            )
        print(obs_events.render_events(shown))
    for problem in problems:
        print(f"event stream INVALID: {problem}", file=sys.stderr)
    return 1 if problems else 0


def cmd_stats_resources(args) -> int:
    """Render and validate a report's resource profile.

    Exit 0 on a valid (and within-budget) profile, 1 on schema damage
    or a budget breach, 2 when the report/budget cannot be loaded or
    the report carries no resource-profile section.
    """
    try:
        report = RunReport.load(args.report)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load run report: {exc}", file=sys.stderr)
        return 2
    profile = report.resource_profile
    if not profile:
        print(
            f"error: {args.report} has no "
            f"{obs_resources.RESOURCE_PROFILE_SCHEMA} section; "
            "regenerate it with --profile-resources",
            file=sys.stderr,
        )
        return 2
    problems = obs_resources.validate_profile(profile)
    breaches: List[str] = []
    if args.budget is not None:
        try:
            budget = json.loads(Path(args.budget).read_text())
        except (OSError, ValueError) as exc:
            print(f"error: cannot load budget: {exc}", file=sys.stderr)
            return 2
        breaches = obs_resources.check_budget(profile, budget)
    if args.format == "json":
        print(json.dumps(
            {
                "schema": obs_resources.RESOURCE_PROFILE_SCHEMA,
                "profile": profile,
                "valid": not problems,
                "problems": problems,
                "budget": args.budget,
                "budget_breaches": breaches,
            },
            indent=2,
            sort_keys=True,
        ))
    else:
        print(obs_resources.render_profile(profile))
    for problem in problems:
        print(f"resource profile INVALID: {problem}", file=sys.stderr)
    for breach in breaches:
        print(f"resource budget EXCEEDED: {breach}", file=sys.stderr)
    return 1 if problems or breaches else 0


def _load_flame_profile(path: str):
    """Load+validate a flame profile (raw document or run report).

    Returns ``(profile, 0)``, or ``(None, exit_status)`` with the error
    already printed on stderr.
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot load flame profile: {exc}", file=sys.stderr)
        return None, 2
    profile: Any = data
    if isinstance(data, dict) and data.get("schema") == RUN_REPORT_SCHEMA:
        try:
            profile = RunReport.from_dict(data).flame_profile
        except ValueError as exc:
            print(f"error: cannot load run report: {exc}", file=sys.stderr)
            return None, 2
        if not profile:
            print(
                f"error: {path} has no {obs_prof.FLAME_SCHEMA} section; "
                "regenerate it with --flame-out",
                file=sys.stderr,
            )
            return None, 2
    problems = obs_prof.validate_flame(profile)
    if problems:
        for problem in problems:
            print(f"flame profile INVALID: {problem}", file=sys.stderr)
        return None, 2
    return profile, 0


def cmd_stats_flame(args) -> int:
    """Render/export a stored flame profile; gate hot-frame drift.

    Exit 0 on a valid profile (and, with ``--diff``, no thresholded
    hot-frame regression), 1 when ``--diff`` finds one, 2 when either
    input cannot be read or fails ``repro.flame/v1`` validation.
    """
    profile, status = _load_flame_profile(args.profile)
    if profile is None:
        return status
    if args.diff is not None:
        baseline, status = _load_flame_profile(args.diff)
        if baseline is None:
            return status
        result = obs_prof.diff_flame(
            baseline,
            profile,
            share_tolerance=args.share_tolerance,
            min_share=args.min_share,
        )
        if args.format == "json":
            print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        else:
            print(f"old: {args.diff}")
            print(f"new: {args.profile}")
            print(result.render_text())
        if result.regressions:
            detail = ", ".join(
                f"{shift.stage}: {shift.frame}"
                for shift in result.regressions
            )
            print(
                f"hot-frame regression gate FAILED: {detail}",
                file=sys.stderr,
            )
            return 1
        return 0
    if args.format == "json":
        print(json.dumps(
            {
                "schema": obs_prof.FLAME_SCHEMA,
                "profile": profile,
                "valid": True,
                "problems": [],
                "top": obs_prof.top_frames(profile, n=args.top),
            },
            indent=2,
            sort_keys=True,
        ))
    elif args.format == "collapsed":
        print(obs_prof.render_collapsed(profile))
    elif args.format == "speedscope":
        print(json.dumps(
            obs_prof.render_speedscope(profile, name=args.profile),
            indent=2,
            sort_keys=True,
        ))
    else:
        print(obs_prof.render_flame(profile, top=args.top))
    return 0


class _ProgressRenderer:
    """Stderr listener for ``--progress``: per-stage bars, rate, ETA."""

    BAR_WIDTH = 24

    def __init__(self, out=None) -> None:
        self._out = out if out is not None else sys.stderr

    def __call__(self, event) -> None:
        type_ = event.get("type")
        if type_ == "progress":
            self._render_bar(event)
        elif type_ == "stall_warning":
            print(
                f"STALL: {event.get('source')} chunk {event.get('chunk')} "
                f"at {event.get('duration_s')}s "
                f"(threshold {event.get('threshold_s')}s)",
                file=self._out,
            )
        elif type_ == "stage_end":
            print(
                f"[{event.get('stage')}] done: {event.get('done')} "
                f"in {event.get('duration_s')}s",
                file=self._out,
            )

    def _render_bar(self, event) -> None:
        done = event.get("done") or 0
        total = event.get("total") or 0
        fraction = min(done / total, 1.0) if total > 0 else 0.0
        filled = int(fraction * self.BAR_WIDTH)
        bar = "#" * filled + "-" * (self.BAR_WIDTH - filled)
        rate = event.get("rate_per_s")
        eta = event.get("eta_s")
        tail = f"  {rate:.1f}/s" if isinstance(rate, (int, float)) else ""
        if isinstance(eta, (int, float)):
            tail += f"  eta {eta:.1f}s"
        print(
            f"[{event.get('stage')}] |{bar}| "
            f"{done}/{total} {event.get('unit') or ''}{tail}",
            file=self._out,
        )


def cmd_stats_history(args) -> int:
    """Summarise the append-only run history (most recent last)."""
    history = RunHistory(args.path)
    limit = args.limit if args.limit is not None else args.last
    if args.format == "json":
        entries = history.entries(name=args.name)[-limit:]
        print(json.dumps(
            [entry.to_dict() for entry in entries], indent=2, sort_keys=True
        ))
    else:
        print(history.render_summary(last=limit, name=args.name))
    skipped = history.skipped_lines()
    if skipped:
        print(f"({skipped} unreadable line(s) skipped)", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-eyeball",
        description="Regenerate the tables and figures of 'Eyeball ASes: "
                    "From Geography to Connectivity' (IMC 2010).",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    parser.add_argument(
        "--log-level",
        choices=LEVELS,
        default="warning",
        help="structured-logging threshold for repro.* loggers "
             "(default: warning)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="enable telemetry and write a JSON run report to PATH",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="enable telemetry and write a Chrome trace-event JSON "
             "(Perfetto / chrome://tracing) to PATH",
    )
    parser.add_argument(
        "--memory",
        action="store_true",
        help="gauge per-span peak heap via tracemalloc "
             "(memory.peak_kib.*); no-op unless telemetry is enabled",
    )
    parser.add_argument(
        "--profile-resources",
        type=float,
        default=None,
        metavar="HZ",
        help="sample RSS/CPU/heap at HZ into the run report's "
             f"resource profile (bare flag = {obs_resources.DEFAULT_HZ:g} "
             "Hz); workers sample themselves and ship rollups home",
    )
    parser.add_argument(
        "--flame-out",
        metavar="PATH",
        default=None,
        help="enable telemetry, sample the call stack on a background "
             "thread and write the span-attributed repro.flame/v1 "
             "profile to PATH; inspect/export with 'stats flame'",
    )
    parser.add_argument(
        "--flame-hz",
        type=float,
        default=None,
        metavar="HZ",
        help=f"stack-sampling rate for --flame-out (default: "
             f"{obs_prof.DEFAULT_HZ:g} Hz); workers sample themselves "
             "and ship stack tables home",
    )
    parser.add_argument(
        "--events-out",
        metavar="PATH.jsonl",
        default=None,
        help="stream live repro.events/v1 JSONL events (progress, "
             "heartbeats, stall warnings) to PATH while the run "
             "executes; validate with 'stats events'",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render live per-stage progress bars with rate/ETA on "
             "stderr",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=f"worker processes for per-AS footprint batches, 1-"
             f"{MAX_WORKERS} (default: 1 = serial; output is identical "
             "for every N)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="content-addressed footprint artifact cache directory "
             "(default: no caching)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="N",
        help="stream the conditioning pipeline in N-peer chunks "
             "(bit-identical output at every N, bounded per-stage "
             "memory; see docs/DATA_MODEL.md; default: "
             f"{DEFAULT_CHUNK_SIZE})",
    )
    parser.add_argument(
        "--preset",
        choices=("small", "default"),
        default="small",
        help="scenario size for table1/figure2/section5 (default: small)",
    )
    parser.add_argument(
        "--seed", type=int, default=5, help="master seed (default: 5)"
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when a shape check fails",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.01,
        help="user-count scale for the Italian case studies (default: 0.01)",
    )
    parser.add_argument(
        "--reference-ases",
        type=int,
        default=None,
        help="reference-dataset size for figure2/section5 "
             "(default: 45 on the default preset, 18 on small)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, handler in (
        ("table1", cmd_table1),
        ("figure1", cmd_figure1),
        ("figure2", cmd_figure2),
        ("section5", cmd_section5),
        ("section6", cmd_section6),
        ("survey", cmd_survey),
        ("all", cmd_all),
    ):
        sub = subparsers.add_parser(name, help=f"regenerate {name}")
        sub.set_defaults(handler=handler)
    stats = subparsers.add_parser(
        "stats",
        help="profile one fresh pipeline run and print its telemetry",
    )
    stats.add_argument(
        "--top",
        type=int,
        default=10,
        help="how many slowest spans to rank (default: 10)",
    )
    stats.add_argument(
        "--profile-ases",
        type=int,
        default=3,
        help="target ASes to run the KDE/PoP stages on (default: 3)",
    )
    stats.set_defaults(handler=cmd_stats)
    stats_sub = stats.add_subparsers(
        dest="stats_command",
        metavar="ACTION",
        help="longitudinal actions (omit to profile a fresh run)",
    )
    diff = stats_sub.add_parser(
        "diff",
        help="compare two run reports; exit 1 on a perf regression",
    )
    diff.add_argument("old", metavar="OLD.json",
                      help="baseline run report")
    diff.add_argument("new", metavar="NEW.json",
                      help="candidate run report")
    diff.add_argument(
        "--max-ratio",
        type=float,
        default=1.5,
        help="new/old span wall-time ratio that fails the gate "
             "(default: 1.5)",
    )
    diff.add_argument(
        "--noise-floor-ms",
        type=float,
        default=5.0,
        help="spans under this total in both runs are never judged "
             "(default: 5)",
    )
    diff.add_argument(
        "--counter-tolerance",
        type=float,
        default=0.0,
        help="relative counter change reported as drift (default: 0, "
             "i.e. any change)",
    )
    diff.add_argument(
        "--gauge-tolerance",
        type=float,
        default=0.25,
        help="relative gauge change reported as drift (default: 0.25)",
    )
    diff.add_argument(
        "--fail-on-drift",
        action="store_true",
        help="counter/gauge drift also fails the gate",
    )
    diff.add_argument(
        "--retention-tolerance",
        type=float,
        default=0.05,
        help="absolute funnel-retention change that counts as data "
             "drift (default: 0.05)",
    )
    diff.add_argument(
        "--quantile-tolerance",
        type=float,
        default=0.25,
        help="relative distribution-quantile change that counts as "
             "data drift (default: 0.25)",
    )
    diff.add_argument(
        "--no-fail-on-data-drift",
        action="store_true",
        help="report funnel/quantile data drift without failing the "
             "gate (it fails by default)",
    )
    diff.add_argument(
        "--max-rss-ratio",
        type=float,
        default=1.5,
        help="new/old peak-RSS ratio that counts as resource drift "
             "(default: 1.5); judged only when both reports carry a "
             "resource profile",
    )
    diff.add_argument(
        "--cpu-util-tolerance",
        type=float,
        default=0.25,
        help="absolute cpu_util change that counts as resource drift "
             "(default: 0.25)",
    )
    diff.add_argument(
        "--no-fail-on-resource-drift",
        action="store_true",
        help="report RSS/cpu_util resource drift without failing the "
             "gate (it fails by default)",
    )
    diff.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="diff output format (default: text)",
    )
    diff.set_defaults(handler=cmd_stats_diff)
    funnel = stats_sub.add_parser(
        "funnel",
        help="render a run report's data-lineage funnel; exit 1 if any "
             "stage violates conservation",
    )
    funnel.add_argument(
        "report", metavar="REPORT.json", help="run report to inspect"
    )
    funnel.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="waterfall output format (default: text)",
    )
    funnel.set_defaults(handler=cmd_stats_funnel)
    history = stats_sub.add_parser(
        "history",
        help="summarise the append-only run history",
    )
    history.add_argument(
        "--path",
        default=DEFAULT_HISTORY,
        help=f"history file (default: {DEFAULT_HISTORY})",
    )
    history.add_argument(
        "--last",
        type=int,
        default=10,
        help="how many most-recent entries to show (default: 10)",
    )
    history.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="synonym for --last (takes precedence when both are given)",
    )
    history.add_argument(
        "--name",
        default=None,
        help="only show entries for this run name",
    )
    history.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="history output format (default: text); json emits the "
             "raw repro.run-history/v1 entries",
    )
    history.set_defaults(handler=cmd_stats_history)
    events = stats_sub.add_parser(
        "events",
        help="render and validate a stored repro.events/v1 stream; "
             "exit 1 on sequence gaps or schema violations",
    )
    events.add_argument(
        "stream", metavar="EVENTS.jsonl", help="event stream to inspect"
    )
    events.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="summary output format (default: text)",
    )
    events.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="show only the last N events (the full stream is still "
             "validated)",
    )
    events.set_defaults(handler=cmd_stats_events)
    resources = stats_sub.add_parser(
        "resources",
        help="render and validate a run report's resource profile; "
             "exit 1 on schema damage or a budget breach",
    )
    resources.add_argument(
        "report", metavar="REPORT.json",
        help="run report (written with --profile-resources) to inspect",
    )
    resources.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="profile output format (default: text)",
    )
    resources.add_argument(
        "--budget",
        metavar="BUDGET.json",
        default=None,
        help="repro.resource-budget/v1 file to gate the profile's "
             "totals against (e.g. benchmarks/baselines/"
             "resource-budget.json)",
    )
    resources.set_defaults(handler=cmd_stats_resources)
    flame = stats_sub.add_parser(
        "flame",
        help="render/export a stored repro.flame/v1 stack profile; "
             "--diff gates per-stage hot-frame drift",
    )
    flame.add_argument(
        "profile", metavar="PROFILE.json",
        help="flame profile (--flame-out) or a run report carrying a "
             "flame_profile section",
    )
    flame.add_argument(
        "--top",
        type=int,
        default=10,
        help="how many hottest frames to rank (default: 10)",
    )
    flame.add_argument(
        "--format",
        choices=("text", "json", "collapsed", "speedscope"),
        default="text",
        help="output format (default: text); 'collapsed' is "
             "flamegraph.pl input, 'speedscope' loads in speedscope.app",
    )
    flame.add_argument(
        "--diff",
        metavar="BASELINE.json",
        default=None,
        help="baseline flame profile; exit 1 when any frame's "
             "per-stage self-time share grew past --share-tolerance",
    )
    flame.add_argument(
        "--share-tolerance",
        type=float,
        default=obs_prof.DEFAULT_SHARE_TOLERANCE,
        help="absolute per-stage self-share growth that fails the "
             f"--diff gate (default: {obs_prof.DEFAULT_SHARE_TOLERANCE:g})",
    )
    flame.add_argument(
        "--min-share",
        type=float,
        default=obs_prof.DEFAULT_MIN_SHARE,
        help="frames under this share in both runs are never judged "
             f"(default: {obs_prof.DEFAULT_MIN_SHARE:g})",
    )
    flame.set_defaults(handler=cmd_stats_flame)
    lint = subparsers.add_parser(
        "lint",
        help="run reprolint, the repo's AST-based static analyser",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files/directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help=f"baseline file (default: {DEFAULT_BASELINE})",
    )
    lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file; report every finding",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    lint.add_argument(
        "--fail-on",
        choices=("info", "warning", "error"),
        default="warning",
        help="lowest severity that fails the run (default: warning)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    lint.add_argument(
        "--verbose",
        action="store_true",
        help="also list baselined (grandfathered) findings",
    )
    lint.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also list findings silenced by inline directives, with "
        "the suppressing directive's line",
    )
    lint.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="run only these rules: comma-separated ids, names or "
        "family prefixes (e.g. 'REP5xx,REP203')",
    )
    lint.add_argument(
        "--graph-out",
        metavar="PATH",
        default=None,
        help="write the resolved repro.import-graph/v1 document "
        "(nodes with layer ranks, edges with def sites) to PATH",
    )
    lint.set_defaults(handler=cmd_lint)
    return parser


def _expand_bare_profile_flag(argv: List[str]) -> List[str]:
    """Give a bare ``--profile-resources`` its default rate.

    The flag takes an optional HZ; with plain argparse an HZ-less use
    would greedily eat the next token (usually the subcommand).  A
    bare occurrence — one whose following token is not a number — is
    rewritten to ``--profile-resources=<DEFAULT_HZ>`` before parsing.
    """
    expanded: List[str] = []
    for index, token in enumerate(argv):
        if token == "--profile-resources":
            following = argv[index + 1] if index + 1 < len(argv) else ""
            try:
                float(following)
            except ValueError:
                token = f"--profile-resources={obs_resources.DEFAULT_HZ:g}"
        expanded.append(token)
    return expanded


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(_expand_bare_profile_flag(argv))
    if not 1 <= args.workers <= MAX_WORKERS:
        parser.error(f"--workers must be in [1, {MAX_WORKERS}]")
    if args.profile_resources is not None:
        if not 0 < args.profile_resources <= 1000:
            parser.error("--profile-resources HZ must be in (0, 1000]")
    if args.flame_hz is not None:
        if not 0 < args.flame_hz <= 1000:
            parser.error("--flame-hz HZ must be in (0, 1000]")
    configure_logging(args.log_level)
    telemetry_on = (
        args.metrics_out is not None
        or args.trace_out is not None
        or args.flame_out is not None
    )
    events_on = args.events_out is not None or args.progress
    if args.memory and not telemetry_on:
        # --memory alone is a documented no-op (the null registry stays
        # installed, tracemalloc never starts) — but say so, because a
        # silent no-op reads as a bug.
        print(
            "warning: --memory does nothing without a telemetry "
            "sink; add --metrics-out PATH or --trace-out PATH",
            file=sys.stderr,
        )
    if (
        args.profile_resources is not None
        and not telemetry_on
        and args.command != "stats"  # stats arms its own capture
    ):
        print(
            "warning: --profile-resources does nothing without a "
            "telemetry sink; add --metrics-out PATH or --trace-out PATH",
            file=sys.stderr,
        )
    if (
        args.flame_hz is not None
        and args.flame_out is None
        and args.command != "stats"  # stats arms its own capture
    ):
        print(
            "warning: --flame-hz does nothing without --flame-out PATH",
            file=sys.stderr,
        )
    if not telemetry_on and not events_on:
        return args.handler(args)
    stream = None
    telemetry = None
    try:
        with ExitStack() as stack:
            if events_on:
                # The event stream is independent of the report sinks:
                # --events-out/--progress alone still get live events
                # (and an in-memory tail for the trace exporter).
                listeners = (_ProgressRenderer(),) if args.progress else ()
                stream = stack.enter_context(
                    obs_events.stream_events(
                        args.events_out, listeners=listeners
                    )
                )
            if telemetry_on:
                enable = capture_memory if args.memory else obs.capture
                telemetry = stack.enter_context(enable())
                if args.profile_resources is not None:
                    # Started before the cli.* span opens and stopped
                    # after it closes, so every sample lands inside a
                    # known stage (or the synthetic top-level bucket).
                    stack.enter_context(
                        obs_resources.sample_resources(
                            args.profile_resources, telemetry=telemetry
                        )
                    )
                flame_hz = _effective_flame_hz(args)
                if flame_hz is not None:
                    stack.enter_context(
                        obs_prof.sample_stacks(flame_hz, telemetry=telemetry)
                    )
                stack.enter_context(obs.span(f"cli.{args.command}"))
            status = args.handler(args)
    except OSError as exc:
        print(
            f"error: cannot write observability output: {exc}",
            file=sys.stderr,
        )
        return 1
    if args.events_out is not None:
        print(f"event stream written to {args.events_out}", file=sys.stderr)
    if telemetry is None:
        return status
    meta: Dict[str, Any] = dict(
        command=args.command,
        preset=getattr(args, "preset", None),
        seed=args.seed,
        version=__version__,
        exit_status=status,
        memory=args.memory,
    )
    if args.profile_resources is not None:
        meta["profile_hz"] = args.profile_resources
    if args.flame_out is not None:
        meta["flame_hz"] = _effective_flame_hz(args)
    report = RunReport.from_telemetry(telemetry, **meta)
    try:
        if args.metrics_out is not None:
            path = report.write(args.metrics_out)
            print(f"run report written to {path}", file=sys.stderr)
        if args.flame_out is not None:
            flame_path = Path(args.flame_out)
            if flame_path.parent != Path(""):
                flame_path.parent.mkdir(parents=True, exist_ok=True)
            flame_path.write_text(json.dumps(
                telemetry.flame_profile or {}, indent=2, sort_keys=True
            ) + "\n")
            print(
                f"flame profile written to {flame_path}", file=sys.stderr
            )
        if args.trace_out is not None:
            path = write_trace(
                report,
                args.trace_out,
                events=stream.events if stream is not None else None,
            )
            print(f"chrome trace written to {path}", file=sys.stderr)
    except OSError as exc:
        print(
            f"error: cannot write observability output: {exc}",
            file=sys.stderr,
        )
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
