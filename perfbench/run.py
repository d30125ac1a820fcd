"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1 [--seed 5] [--seconds 20] [--trace 0]

With ``--trace 0`` each repetition runs untraced and the last line of
standard output is a JSON object with the end-to-end metrics.  With
``--trace 1`` untraced and traced repetitions alternate and the JSON
carries the per-layer metrics; the spans are written once at the end
to ``perfbench/out/``.  A readable summary goes to standard error.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Set-ups measured per run at least, for a median.
MIN_SETUPS = 3


def _load():
    """Import the workloads with ``repro`` taken from this checkout."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {src}")
    sys.path[0:1] = [str(src), str(ROOT)]
    from perfbench import summary, tracing, workloads

    return summary, tracing, workloads


def _calibrate() -> float:
    """Time a fixed NumPy kernel: a view of host speed, never a divisor."""
    import numpy as np

    data = np.random.default_rng(0).random(1 << 20)
    start = time.perf_counter()
    np.sort(data)
    np.cumsum(data)
    return time.perf_counter() - start


def _reset_peak_rss() -> None:
    # Writing 5 to clear_refs resets the kernel's VmHWM to current RSS.
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def _peak_rss_mib() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Run:
    """The repetitions of one workload at one seed."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.setup_s = []
        self.calib_s = []
        self.untraced = []  # (wall_s, rss_mib, outcome)
        self.traced = []  # (wall_s, outcome, tracer)
        self.attempted = 0
        self.failed = 0
        self.reported = []  # outcomes of checks reported but not counted

    def prepare(self):
        gc.collect()
        start = time.perf_counter()
        inputs = self.workload.prepare(self.seed)
        self.setup_s.append(time.perf_counter() - start)
        return inputs

    def repetition(self, tracer=None) -> float:
        """Prepare fresh inputs, then time one checked repetition."""
        inputs = self.prepare()
        gc.collect()
        self.calib_s.append(_calibrate())
        if tracer is not None:
            tracer.rid = f"rep{len(self.traced)}"
        with tracer.installed() if tracer is not None else nullcontext():
            _reset_peak_rss()
            start = time.perf_counter()
            try:
                outcome = self.workload.run(inputs, tracer)
            except Exception:  # a failed repetition is reported, not retried
                traceback.print_exc(file=sys.stderr)
                outcome = None
            wall = time.perf_counter() - start
            rss = _peak_rss_mib()
        if outcome is not None and outcome.verify is not None:
            verify, outcome.verify = outcome.verify, None
            try:
                outcome.checks.update(verify())
            except Exception:
                traceback.print_exc(file=sys.stderr)
                outcome.checks["verify"] = False
        if outcome is None:
            self.attempted += self.workload.check_count
            self.failed += self.workload.check_count
        else:
            self.attempted += len(outcome.checks)
            self.failed += sum(not ok for ok in outcome.checks.values())
            for name, ok in outcome.checks.items():
                if not ok:
                    print(f"check failed: {name}", file=sys.stderr)
            self.reported.extend(outcome.reported.values())
            for name, ok in outcome.reported.items():
                if not ok:
                    print(f"reported check not met (not counted): {name}",
                          file=sys.stderr)
        if tracer is None:
            self.untraced.append((wall, rss, outcome))
        else:
            self.traced.append((wall, outcome, tracer))
        print(f"{'traced' if tracer else 'untraced'} repetition: wall_s {wall:.4f} "
              f"host.calib_s {self.calib_s[-1]:.4f} rss_peak_mib {rss:.1f}",
              file=sys.stderr)
        return wall

    def fidelity_checks(self) -> None:
        """Every repetition, traced or not, computed the same result on
        the same amount of work with ``repro.obs`` telemetry off, and
        traced repetitions counted the same per-layer work."""
        from repro.obs.telemetry import get_telemetry

        outcomes = [o for _, _, o in self.untraced] + [o for _, o, _ in self.traced]
        done = [o for o in outcomes if o is not None]
        checks = {
            "output_identical": len({o.digest for o in done}) <= 1,
            "work_counts_repeat": len({json.dumps(o.work, sort_keys=True) for o in done}) <= 1,
            "telemetry_off": not get_telemetry().enabled,
        }
        if self.traced:
            counts = {json.dumps(t.counts, sort_keys=True) for _, _, t in self.traced}
            checks["layer_counts_repeat"] = len(counts) == 1
        for name, ok in checks.items():
            self.attempted += 1
            self.failed += not ok
            if not ok:
                print(f"check failed: {name}", file=sys.stderr)


def end_to_end(run: Run, summary, import_s: float) -> dict:
    walls = [w for w, _, _ in run.untraced]
    outcome = next((o for _, _, o in run.untraced if o is not None), None)
    peers = outcome.work["peers"] if outcome else 0
    return {
        "setup_s": (import_s + summary.median(run.setup_s), "s"),
        "wall_s": (summary.median(walls), "s"),
        "peers_per_s": (summary.median([peers / w for w in walls]), "peers/s"),
        "rss_peak_mib": (summary.median([r for _, r, _ in run.untraced]), "MiB"),
    }


def per_layer(run: Run, summary, tracing) -> dict:
    tables = [tracing.layer_table(t.spans) for _, _, t in run.traced]
    walls = [w for w, _, _ in run.traced]
    metrics = {}
    for layer in tracing.LAYERS:
        for key, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s")):
            values = [table.get(layer, {}).get(key, 0) for table in tables]
            metrics[f"{layer}.{key}"] = (summary.median(values), unit)
    metrics["other_s"] = (
        summary.median([w - tracing.root_time(t.spans) for w, _, t in run.traced]),
        "s",
    )
    counts = run.traced[0][2].counts
    for name in ("geodb.blocks", "crawl.run.peers", "net.lpm.lookups",
                 "core.kde.cells", "core.peaks.found"):
        metrics[name] = (counts[name], "count")
    metrics["pipeline.survival_ratio"] = (
        _ratio(counts["pipeline.peers_out"], counts["pipeline.peers_in"]), "ratio")
    metrics["core.peaks.selected_ratio"] = (
        _ratio(counts["core.peaks.selected"], counts["core.peaks.considered"]),
        "ratio")
    # Per-AS footprint latency, per traced repetition, then the median.
    p50, tails = [], []
    for _, _, tracer in run.traced:
        latencies = [1000.0 * s.duration for s in tracer.spans
                     if s.layer == "core.footprint"]
        p50.append(summary.median(latencies) if latencies else 0.0)
        tails.append(summary.tail_percentile(latencies) or (0.0, 0.0))
    metrics["core.footprint.p50_ms"] = (summary.median(p50), "ms")
    metrics["core.footprint.tail_ms"] = (summary.median([t[1] for t in tails]), "ms")
    metrics["core.footprint.tail_pct"] = (min(t[0] for t in tails), "%")
    first = [s.rid for s in run.traced[0][2].spans if s.layer == "core.footprint"]
    metrics["core.footprint.repeat_ratio"] = (
        _ratio(len(first) - len(set(first)), len(first)), "ratio")
    spans = [s for _, _, t in run.traced for s in t.spans]
    for layer in ("core.kde", "core.contours", "core.peaks"):
        sized = [s for s in spans if s.layer == layer and s.cells > 0]
        metrics[f"{layer}.cells_exponent"] = (
            summary.loglog_slope([s.cells for s in sized],
                                 [s.duration for s in sized]), "1")
    untraced = summary.median([w for w, _, _ in run.untraced])
    metrics["traced_wall_s"] = (summary.median(walls), "s")
    metrics["trace_overhead_ratio"] = (summary.median(walls) / untraced, "ratio")
    metrics["host.calib_s"] = (summary.median(run.calib_s), "s")
    metrics["fail_ratio"] = (_ratio(run.failed, run.attempted), "ratio")
    metrics["reported_fail_ratio"] = (
        _ratio(run.reported.count(False), len(run.reported)), "ratio")
    return metrics


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _write_spans(run: Run, name: str, seed: int) -> Path:
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{name}-seed{seed}.json"
    spans = [vars(s) for _, _, t in run.traced for s in t.spans]
    path.write_text(json.dumps({"workload": name, "seed": seed, "spans": spans}))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    summary, tracing, workloads = _load()
    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    run = Run(workloads.WORKLOADS[args.workload], args.seed)

    measured = 0.0
    while measured < args.seconds or not run.untraced:
        measured += run.repetition()
        if args.trace:
            measured += run.repetition(tracing.Tracer())
    while len(run.setup_s) < MIN_SETUPS:
        run.prepare()
    run.fidelity_checks()

    if args.trace:
        metrics = per_layer(run, summary, tracing)
        print(f"spans: {_write_spans(run, args.workload, args.seed)}", file=sys.stderr)
    else:
        metrics = end_to_end(run, summary, import_s)
    outcome = next((o for _, _, o in run.untraced if o is not None), None)
    if outcome is not None and "footprints" in outcome.work:
        walls = [w for w, _, _ in run.untraced]
        footprints_per_s = outcome.work["footprints"] / summary.median(walls)
        print(f"footprints_per_s {footprints_per_s:.4f} 1/s", file=sys.stderr)
    print(f"fail_ratio {_ratio(run.failed, run.attempted):.4f} "
          f"({run.failed}/{run.attempted} checks)", file=sys.stderr)
    if run.reported:
        print(f"reported checks not met: {run.reported.count(False)}"
              f"/{len(run.reported)} (not counted)", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
