"""Command-line interface: regenerate any of the paper's artefacts.

::

    repro-eyeball table1   [--preset small|default]
    repro-eyeball figure1  [--scale 0.01]
    repro-eyeball figure2  [--preset small|default] [--reference-ases 45]
    repro-eyeball section5 [--preset small|default]
    repro-eyeball section6 [--scale 0.01]
    repro-eyeball all      [--preset small]
    repro-eyeball stats    [--preset small] [--top 10]
    repro-eyeball stats check DIR [--baseline BASE] [--format text|json]
    repro-eyeball stats funnel REPORT.json [--format text|json]
    repro-eyeball stats history [--limit 10] [--name table1] [--format json]
    repro-eyeball stats events EVENTS.jsonl [--format text|json] [--limit N]
    repro-eyeball stats resources REPORT.json [--format text|json]
    repro-eyeball stats flame REPORT.json [--top 10]
                           [--format text|json|collapsed|speedscope]
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
``--obs-dir DIR``
    Enable telemetry and write the run bundle to DIR: ``report.json``
    (the ``repro.run-report/v1`` report, with resource and flame
    profiles sampled at 10 and 97 Hz on one background thread),
    ``events.jsonl`` (the live ``repro.events/v1`` stream: stage
    progress, heartbeats, stall warnings) and ``trace.json`` (Chrome
    trace-event JSON for Perfetto / ``chrome://tracing``).  Workers
    sample themselves and ship their profiles home.  Gate the bundle
    with ``stats check``.
``--memory``
    With telemetry enabled, additionally gauge per-span peak heap via
    ``tracemalloc`` (``memory.peak_kib.*``); a no-op otherwise.
``--progress``
    Render live per-stage progress bars with rate/ETA on stderr.
``--version``
    Print the package version and exit.

Execution-engine flags (see ``docs/PERFORMANCE.md``):

Every per-AS footprint batch (figure2, section5, stats) runs through
the ``repro.exec`` engine; these flags change only its schedule, never
the output, the funnel or the digests.

``--workers N``
    Fan per-AS footprint batches over N worker processes.  ``1`` (the
    default) runs them in-process.
``--cache-dir PATH``
    Content-addressed artifact cache for footprint results.  A re-run
    with unchanged inputs serves footprints from disk (watch the
    ``exec.cache.*`` counters in ``--obs-dir`` reports).
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
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

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
)
from .experiments.section5 import run_section5
from .experiments.section6 import run_section6
from .experiments.table1 import run_table1
from .obs import events as obs_events
from .obs import prof as obs_prof
from .obs import resources as obs_resources
from .obs import telemetry as obs
from .obs.diff import DiffThresholds, diff_reports
from .obs.history import RunHistory, recent
from .obs.lineage import (
    FunnelConservationError,
    FunnelStage,
    render_funnel,
)
from .obs.logconfig import LEVELS, configure_logging
from .obs.memory import capture_memory
from .obs.report import DATA_QUALITY_SCHEMA, RunReport
from .obs.sampler import sample
from .obs.trace import validate_trace, write_trace
from .validation.reference import ReferenceConfig


def _scenario_config(args) -> ScenarioConfig:
    config = (
        ScenarioConfig.default(seed=args.seed)
        if args.preset == "default"
        else ScenarioConfig.small(seed=args.seed)
    )
    chunk_size = getattr(args, "chunk_size", None)
    if chunk_size is not None:
        config = dataclasses.replace(
            config,
            pipeline=dataclasses.replace(
                config.pipeline, chunk_size=chunk_size
            ),
        )
    return config


def _scenario(args):
    return cached_scenario(_scenario_config(args))


def _parallel_config(args) -> ParallelConfig:
    """The engine schedule set by --workers/--cache-dir: serial and
    uncached without them; workers sample themselves when observed."""
    observed = _observed(args)
    return ParallelConfig(
        workers=args.workers,
        cache_dir=args.cache_dir,
        profile_hz=obs_resources.DEFAULT_HZ if observed else None,
        flame_hz=obs_prof.DEFAULT_HZ if observed else None,
    )


def _observed(args) -> bool:
    """Whether :func:`main` arms telemetry and the sampler: under
    ``--obs-dir``, and for a bare ``stats`` run, which profiles itself."""
    return args.obs_dir is not None or args.handler is cmd_stats


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


#: Bandwidth of the footprint stage ``stats`` profiles (the paper's
#: city scale).
WARM_BANDWIDTH_KM = 40.0


def cmd_table1(args) -> int:
    result = run_table1(_scenario(args))
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
    """Profile one fresh pipeline run.

    Always rebuilds the scenario (no cache) so the span timings reflect
    real work, then exercises the KDE → PoP stages on a few target ASes
    so the Section 3/4 spans appear too.  :func:`main` arms telemetry
    and the sampler around this run and prints the telemetry summary
    once the profiles are folded in.
    """
    scenario = build_scenario(_scenario_config(args))
    asns = scenario.eyeball_target_asns()[: args.profile_ases]
    scenario.pop_footprints(
        asns, WARM_BANDWIDTH_KM, parallel=_parallel_config(args)
    )
    print(
        f"target dataset: {len(scenario.dataset)} ASes, "
        f"{scenario.dataset.total_peers} peers\n"
    )
    return 0


#: Where the benchmark harness appends its run history.
DEFAULT_HISTORY = "benchmarks/results/history.jsonl"


#: The run bundle ``--obs-dir`` writes and ``stats check`` reads.
REPORT_FILE = "report.json"
EVENTS_FILE = "events.jsonl"
TRACE_FILE = "trace.json"

#: The committed limits of a ``stats check --baseline`` directory.
THRESHOLDS_FILE = "thresholds.json"

#: Sections of a thresholds file and the keys each may hold; ``budget``
#: is a whole ``repro.resource-budget/v1`` document, judged by
#: :func:`repro.obs.resources.check_budget`.
_THRESHOLD_KEYS = {
    "diff": {field.name for field in dataclasses.fields(DiffThresholds)},
    "flame": {"share_tolerance", "min_share"},
    "budget": None,
}

#: Schema named when a report lacks the section a gate reads.
_SECTION_SCHEMAS = {
    "data_quality": DATA_QUALITY_SCHEMA,
    "resource_profile": obs_resources.RESOURCE_PROFILE_SCHEMA,
    "flame_profile": obs_prof.FLAME_SCHEMA,
}


class _BadInput(Exception):
    """A stats input that cannot be read or judged (exit status 2)."""


class _Verdict(NamedTuple):
    """One gate's outcome: ``ok``, ``failed``, ``skipped`` or ``error``."""

    status: str
    summary: str
    problems: Sequence[str] = ()
    document: Optional[Dict[str, Any]] = None


def _verdict(problems: Sequence[str], path) -> _Verdict:
    """A validity gate's outcome on the file at ``path``."""
    return _Verdict("failed" if problems else "ok", str(path), problems)


def load_thresholds(baseline) -> Dict[str, Any]:
    """The gate limits in ``BASE/thresholds.json``.

    Returns ``diff`` (a :class:`DiffThresholds`), ``flame`` (keyword
    arguments of :func:`repro.obs.prof.diff_flame`) and ``budget`` (a
    ``repro.resource-budget/v1`` document or ``None``); an absent file
    or section means the defaults and no budget.  Raises
    ``ValueError`` naming the first unknown key.
    """
    path = Path(baseline) / THRESHOLDS_FILE
    data = json.loads(path.read_text()) if path.exists() else {}
    if not isinstance(data, dict):
        raise ValueError(f"{path} is not a JSON object")
    for section, body in data.items():
        if section not in _THRESHOLD_KEYS:
            raise ValueError(f"{path}: unknown key {section!r}")
        if not isinstance(body, dict):
            raise ValueError(f"{path}: {section!r} is not an object")
        allowed = _THRESHOLD_KEYS[section]
        unknown = sorted(set(body) - allowed) if allowed is not None else []
        if unknown:
            raise ValueError(f"{path}: unknown key {section}.{unknown[0]!r}")
    return {
        "diff": DiffThresholds(**data.get("diff", {})),
        "flame": dict(data.get("flame", {})),
        "budget": data.get("budget"),
    }


def _load_report(path) -> RunReport:
    try:
        return RunReport.load(path)
    except (OSError, ValueError) as exc:
        raise _BadInput(f"cannot load run report: {exc}") from None


def _section(report: RunReport, path, name: str) -> Dict[str, Any]:
    """The report's ``name`` section; :class:`_BadInput` when absent."""
    section = getattr(report, name)
    if not section:
        raise _BadInput(
            f"{path} has no {_SECTION_SCHEMAS[name]} section; regenerate "
            "it with --obs-dir on this version"
        )
    return section


def _read_events(path) -> Tuple[List[Dict[str, Any]], List[str]]:
    """A stored event stream and its schema problems."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _BadInput(f"cannot read event stream: {exc}") from None
    events, problems = obs_events.parse_events(text)
    return events, problems + obs_events.validate_events(events)


def _funnel_violations(report: RunReport, path) -> List[str]:
    """Stages of the report's funnel that break conservation."""
    _section(report, path, "data_quality")
    violations: List[str] = []
    for raw in report.funnel():
        try:
            FunnelStage.from_dict(raw).check_conservation()
        except FunnelConservationError as exc:
            violations.append(str(exc))
        except (KeyError, TypeError, ValueError) as exc:
            violations.append(f"malformed funnel stage: {exc!r}")
    return violations


def _flame_profile(report: RunReport, path) -> Dict[str, Any]:
    """The report's flame section; :class:`_BadInput` when it is
    absent or fails ``repro.flame/v1`` validation."""
    profile = _section(report, path, "flame_profile")
    problems = obs_prof.validate_flame(profile)
    if problems:
        raise _BadInput(
            f"{path}: flame profile INVALID: " + "; ".join(problems)
        )
    return profile


def cmd_stats_funnel(args) -> int:
    """Render a report's data funnel; exit 1 on conservation violation."""
    report = _load_report(args.report)
    violations = _funnel_violations(report, args.report)
    stages = report.funnel()
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
    if args.limit is not None and args.limit < 0:
        raise _BadInput("--limit must be non-negative")
    parsed, problems = _read_events(args.stream)
    # --limit trims what is *shown*, never what is validated: sequence
    # gaps in the untrimmed head must still fail the gate.
    shown = parsed if args.limit is None else recent(parsed, args.limit)
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

    Exit 0 on a valid profile, 1 on schema damage, 2 when the report
    cannot be loaded or carries no resource-profile section.
    """
    profile = _section(
        _load_report(args.report), args.report, "resource_profile"
    )
    problems = obs_resources.validate_profile(profile)
    if args.format == "json":
        print(json.dumps(
            {
                "schema": obs_resources.RESOURCE_PROFILE_SCHEMA,
                "profile": profile,
                "valid": not problems,
                "problems": problems,
            },
            indent=2,
            sort_keys=True,
        ))
    else:
        print(obs_resources.render_profile(profile))
    for problem in problems:
        print(f"resource profile INVALID: {problem}", file=sys.stderr)
    return 1 if problems else 0


def cmd_stats_flame(args) -> int:
    """Render/export a run report's flame profile.

    Exit 0 on a valid profile, 2 when the report cannot be read,
    carries no flame section or fails ``repro.flame/v1`` validation.
    """
    profile = _flame_profile(_load_report(args.report), args.report)
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
            obs_prof.render_speedscope(profile, name=args.report),
            indent=2,
            sort_keys=True,
        ))
    else:
        print(obs_prof.render_flame(profile, top=args.top))
    return 0


def _trace_problems(path) -> List[str]:
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise _BadInput(f"cannot load trace: {exc}") from None
    return validate_trace(document)


def _diff_gate(old_path, old, new_path, new, limits) -> _Verdict:
    """The report diff; a one-sided resource profile cannot be judged."""
    if bool(old.resource_profile) != bool(new.resource_profile):
        bare = old_path if not old.resource_profile else new_path
        raise _BadInput(
            f"{bare} has no {obs_resources.RESOURCE_PROFILE_SCHEMA} "
            "section while the other report does; regenerate it with "
            "--obs-dir"
        )
    try:
        result = diff_reports(old, new, limits)
    except (KeyError, TypeError, ValueError) as exc:
        # A report missing an expected section (e.g. written by an
        # older version) must name the problem, not traceback.
        raise _BadInput(
            f"cannot diff reports: {exc!r} — one report may predate the "
            "current repro.run-report/v1 sections; regenerate it with "
            "--obs-dir on this version"
        ) from None
    head, *detail = filter(None, result.render_text().splitlines())
    failed = result.verdict != "ok"
    return _Verdict(
        "failed" if failed else "ok",
        head,
        detail if failed else (),
        result.to_dict(),
    )


def _flame_diff_gate(old_path, old, new_path, new, limits) -> _Verdict:
    """Hot-frame drift, judged only when both reports carry flames."""
    for report, path in ((old, old_path), (new, new_path)):
        if not report.flame_profile:
            return _Verdict(
                "skipped",
                f"not judged: {path} has no {obs_prof.FLAME_SCHEMA} section",
            )
    result = obs_prof.diff_flame(
        _flame_profile(old, old_path), _flame_profile(new, new_path),
        **limits,
    )
    *detail, tail = filter(None, result.render_text().splitlines())
    return _Verdict(
        "failed" if result.regressions else "ok",
        tail,
        detail if result.regressions else (),
        result.to_dict(),
    )


def cmd_stats_check(args) -> int:
    """Run every gate on a run bundle, optionally against a baseline.

    Each gate calls the function its single-artifact command calls,
    runs even after another gate failed, and prints one line.  Exit 2
    when any input cannot be read or judged, else 1 when any gate
    fails, else 0.
    """
    bundle = Path(args.bundle)
    report_path = bundle / REPORT_FILE

    def report() -> RunReport:
        return _load_report(report_path)

    def flame() -> _Verdict:
        _flame_profile(report(), report_path)
        return _verdict([], report_path)

    gates: Dict[str, Callable[[], _Verdict]] = {
        "events": lambda: _verdict(
            _read_events(bundle / EVENTS_FILE)[1], bundle / EVENTS_FILE
        ),
        "funnel": lambda: _verdict(
            _funnel_violations(report(), report_path), report_path
        ),
        "resources": lambda: _verdict(
            obs_resources.validate_profile(
                _section(report(), report_path, "resource_profile")
            ),
            report_path,
        ),
        "flame": flame,
        "trace": lambda: _verdict(
            _trace_problems(bundle / TRACE_FILE), bundle / TRACE_FILE
        ),
    }
    if args.baseline is not None:
        # A baseline that cannot be read is a usage error, not a gate.
        base = Path(args.baseline)
        base_path = base / REPORT_FILE
        if not base_path.exists() and not (base / THRESHOLDS_FILE).exists():
            raise _BadInput(
                f"baseline {base} holds neither {REPORT_FILE} nor "
                f"{THRESHOLDS_FILE}"
            )
        try:
            limits = load_thresholds(base)
        except (OSError, ValueError) as exc:
            raise _BadInput(f"cannot load thresholds: {exc}") from None

        def against_base(gate, kind: str) -> _Verdict:
            if not base_path.exists():
                return _Verdict("skipped", f"not judged: no {base_path}")
            return gate(
                base_path, _load_report(base_path), report_path, report(),
                limits[kind],
            )

        def budget() -> _Verdict:
            document = limits["budget"]
            if document is None:
                return _Verdict("skipped", "not judged: no budget")
            profile = _section(report(), report_path, "resource_profile")
            return _verdict(
                obs_resources.check_budget(profile, document),
                base / THRESHOLDS_FILE,
            )

        gates["diff"] = lambda: against_base(_diff_gate, "diff")
        gates["flame-diff"] = lambda: against_base(_flame_diff_gate, "flame")
        gates["budget"] = budget
    verdicts: Dict[str, _Verdict] = {}
    for name, gate in gates.items():
        try:
            verdicts[name] = gate()
        except _BadInput as exc:
            verdicts[name] = _Verdict("error", str(exc))
    statuses = {verdict.status for verdict in verdicts.values()}
    status = 2 if "error" in statuses else 1 if "failed" in statuses else 0
    outcome = ("ok", "failed", "error")[status]
    if args.format == "json":
        print(json.dumps(
            {
                "bundle": str(bundle),
                "baseline": args.baseline,
                "verdict": outcome,
                "gates": [
                    {"gate": name, **verdict._asdict()}
                    for name, verdict in verdicts.items()
                ],
            },
            indent=2,
            sort_keys=True,
        ))
        return status
    for name, verdict in verdicts.items():
        print(f"{name:<12}{verdict.status:<9}{verdict.summary}")
        for problem in verdict.problems:
            print(f"{name}: {problem}", file=sys.stderr)
    print(f"verdict: {outcome}")
    return status


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
    if args.limit < 0:
        raise _BadInput("--limit must be non-negative")
    history = RunHistory(args.path)
    if args.format == "json":
        entries = recent(history.entries(name=args.name), args.limit)
        print(json.dumps(
            [entry.to_dict() for entry in entries], indent=2, sort_keys=True
        ))
    else:
        print(history.render_summary(last=args.limit, name=args.name))
    skipped = history.skipped_lines()
    if skipped:
        print(f"({skipped} unreadable line(s) skipped)", file=sys.stderr)
    return 0


def _positive_int(text: str) -> int:
    """argparse ``type`` of the count flags: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return value


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
        "--obs-dir",
        metavar="DIR",
        default=None,
        help="enable telemetry and write the run bundle to DIR: "
             "report.json (with resource and flame profiles), the live "
             "events.jsonl stream and trace.json; gate it with "
             "'stats check'",
    )
    parser.add_argument(
        "--memory",
        action="store_true",
        help="gauge per-span peak heap via tracemalloc "
             "(memory.peak_kib.*); no-op unless telemetry is enabled",
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
             f"{MAX_WORKERS} (default: 1 = in-process; output is "
             "identical for every N)",
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
        type=_positive_int,
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
        type=_positive_int,
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
        type=_positive_int,
        default=10,
        help="how many slowest spans to rank (default: 10)",
    )
    stats.add_argument(
        "--profile-ases",
        type=_positive_int,
        default=3,
        help="target ASes to run the KDE/PoP stages on (default: 3)",
    )
    stats.set_defaults(handler=cmd_stats)
    stats_sub = stats.add_subparsers(
        dest="stats_command",
        metavar="ACTION",
        help="longitudinal actions (omit to profile a fresh run)",
    )
    check = stats_sub.add_parser(
        "check",
        help="run every gate on a run bundle (--obs-dir); exit 1 when a "
             "gate fails, 2 when an input cannot be read or judged",
    )
    check.add_argument(
        "bundle", metavar="DIR", help="run bundle written by --obs-dir"
    )
    check.add_argument(
        "--baseline",
        metavar="BASE",
        default=None,
        help="baseline directory: diff against BASE/report.json and "
             "apply the limits in BASE/thresholds.json",
    )
    check.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="verdict output format (default: text)",
    )
    check.set_defaults(handler=cmd_stats_check)
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
        "--limit",
        type=int,
        default=10,
        metavar="N",
        help="how many most-recent entries to show (default: 10; 0 "
             "shows none)",
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
             "exit 1 on schema damage",
    )
    resources.add_argument(
        "report", metavar="REPORT.json", help="run report to inspect"
    )
    resources.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="profile output format (default: text)",
    )
    resources.set_defaults(handler=cmd_stats_resources)
    flame = stats_sub.add_parser(
        "flame",
        help="render/export a run report's repro.flame/v1 stack "
             "profile",
    )
    flame.add_argument(
        "report", metavar="REPORT.json", help="run report to inspect"
    )
    flame.add_argument(
        "--top",
        type=_positive_int,
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


def _dispatch(args) -> int:
    """Run the command; a stats input it cannot read or judge exits 2."""
    try:
        return args.handler(args)
    except _BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _bundle_error(exc: OSError) -> int:
    print(f"error: cannot write observability output: {exc}", file=sys.stderr)
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 1 <= args.workers <= MAX_WORKERS:
        parser.error(f"--workers must be in [1, {MAX_WORKERS}]")
    configure_logging(args.log_level)
    observed = _observed(args)
    if args.memory and not observed:
        # Alone, --memory is a documented no-op (the null registry stays
        # installed) — but say so, because a silent no-op reads as a bug.
        print(
            "warning: --memory does nothing without a telemetry sink; "
            "add --obs-dir DIR",
            file=sys.stderr,
        )
    if not observed and not args.progress:
        return _dispatch(args)
    bundle = Path(args.obs_dir) if args.obs_dir is not None else None
    stream = None
    telemetry = None
    with ExitStack() as stack:
        if bundle is not None or args.progress:
            # --progress alone keeps the stream in memory.
            listeners = (_ProgressRenderer(),) if args.progress else ()
            try:
                stream = stack.enter_context(obs_events.stream_events(
                    bundle / EVENTS_FILE if bundle is not None else None,
                    listeners=listeners,
                ))
            except OSError as exc:
                return _bundle_error(exc)
        if observed:
            enable = capture_memory if args.memory else obs.capture
            telemetry = stack.enter_context(enable())
            # Started before the cli.* span opens and stopped after it
            # closes, so every reading lands inside a known stage (or
            # the synthetic top-level bucket).
            stack.enter_context(sample(
                telemetry,
                profile_hz=obs_resources.DEFAULT_HZ,
                flame_hz=obs_prof.DEFAULT_HZ,
            ))
            stack.enter_context(obs.span(f"cli.{args.command}"))
        status = _dispatch(args)
    if telemetry is None:
        return status
    report = RunReport.from_telemetry(
        telemetry,
        command=args.command,
        preset=getattr(args, "preset", None),
        seed=args.seed,
        version=__version__,
        exit_status=status,
        memory=args.memory,
        profile_hz=obs_resources.DEFAULT_HZ,
        flame_hz=obs_prof.DEFAULT_HZ,
    )
    if args.handler is cmd_stats:
        print(report.render_summary(top=args.top))
    if bundle is None:
        return status
    try:
        report.write(bundle / REPORT_FILE)
        write_trace(report, bundle / TRACE_FILE, events=stream.events)
    except OSError as exc:
        return _bundle_error(exc)
    print(f"run bundle written to {bundle}", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
