"""Sampled resource profiles: RSS/CPU/heap time series per run.

Span telemetry answers *where the time went*; tracemalloc gauges answer
*which stage allocated the most Python objects*.  Neither can show a
stage thrashing CPU, ballooning RSS through NumPy buffers (invisible to
tracemalloc), or starving workers — resource usage *over time*.
:class:`ResourceReader` fills that gap: driven by the run's
:class:`~repro.obs.sampler.Sampler` thread at a fixed cadence, it reads
RSS and CPU time from ``/proc/self/status`` / ``resource.getrusage``
(stdlib only, portable fallbacks), the traced Python heap when
``tracemalloc`` is active, GC generation counts and the open span name
into a bounded in-memory ring buffer, and serialises the result as a
``repro.resource-profile/v1`` document: per-sample rows plus per-stage
rollups (peak/mean RSS, CPU seconds, ``cpu_util = cpu_time /
wall_time``).

Exec workers read with ``keep_samples=False`` and ship only the
rollups home, where :func:`fold_resources` lists them per worker
process under the host profile's ``workers``.  This module imports
nothing from the rest of ``repro.obs`` (the registry imports *us* for
:func:`profile_gauges` and :func:`fold_resources`).
"""

from __future__ import annotations

import gc
import os
import sys
import time
import tracemalloc
from typing import Any, Callable, Dict, List, Optional

try:  # POSIX-only; Windows falls back to time.process_time.
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platform
    _resource = None  # type: ignore[assignment]

#: Schema identifier embedded in every serialised profile.
RESOURCE_PROFILE_SCHEMA = "repro.resource-profile/v1"

#: Schema identifier of a committed resource-budget file (the CI gate).
RESOURCE_BUDGET_SCHEMA = "repro.resource-budget/v1"

#: Gauge-name prefix for the headline rollups folded into snapshots.
RESOURCE_GAUGE_PREFIX = "resources."

#: The headline gauges derived from a profile's totals, in sorted order.
#: tests/analysis/test_rules_taxonomy.py locks this tuple to the gauge
#: table in docs/OBSERVABILITY.md, so the two cannot drift apart.
ROLLUP_GAUGES = (
    "cpu_s",
    "cpu_util",
    "heap_peak_kib",
    "rss_mean_kib",
    "rss_peak_kib",
    "samples",
)

#: Default sampling cadence of ``--profile-resources`` without a value.
DEFAULT_HZ = 10.0

#: Ring-buffer capacity: at 10 Hz this holds ~7 minutes of samples;
#: longer runs overwrite the oldest rows (rollups keep full coverage).
DEFAULT_MAX_SAMPLES = 4096

#: Budget keys and the totals metric each one bounds.
_BUDGET_KEYS = (
    ("max_rss_peak_kib", "rss_peak_kib"),
    ("max_rss_mean_kib", "rss_mean_kib"),
    ("max_cpu_s", "cpu_s"),
    ("max_cpu_util", "cpu_util"),
    ("max_heap_peak_kib", "heap_peak_kib"),
)


def _read_proc_rss_kib() -> Optional[float]:
    """Resident set size in KiB from ``/proc/self/status``, or None."""
    try:
        with open("/proc/self/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmRSS:"):
                    return float(line.split()[1])
    except (OSError, IndexError, ValueError):
        return None
    return None


def default_rss_reader() -> float:
    """Current RSS in KiB: ``/proc`` where available, else the
    ``getrusage`` high-water mark (KiB on Linux, bytes on macOS), else
    ``0.0`` — profiling degrades, it never raises."""
    rss = _read_proc_rss_kib()
    if rss is not None:
        return rss
    if _resource is not None:
        peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":
            return float(peak) / 1024.0
        return float(peak)
    return 0.0


def default_cpu_reader() -> float:
    """Cumulative process CPU seconds (user + system)."""
    if _resource is not None:
        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        return usage.ru_utime + usage.ru_stime
    return time.process_time()


def default_heap_reader() -> Optional[float]:
    """Traced Python heap in KiB when tracemalloc is active, else None."""
    if not tracemalloc.is_tracing():
        return None
    return tracemalloc.get_traced_memory()[0] / 1024.0


def _new_rollup() -> Dict[str, Any]:
    return {
        "samples": 0,
        "rss_peak_kib": 0.0,
        "rss_sum_kib": 0.0,
        "cpu_s": 0.0,
        "wall_s": 0.0,
        "heap_peak_kib": None,
    }


def _serialise_rollup(rollup: Dict[str, Any]) -> Dict[str, Any]:
    samples = int(rollup["samples"])
    wall_s = float(rollup["wall_s"])
    cpu_s = float(rollup["cpu_s"])
    out: Dict[str, Any] = {
        "samples": samples,
        "rss_peak_kib": round(float(rollup["rss_peak_kib"]), 1),
        "rss_mean_kib": round(
            float(rollup["rss_sum_kib"]) / samples if samples else 0.0, 1
        ),
        "cpu_s": round(cpu_s, 6),
        "wall_s": round(wall_s, 6),
        "cpu_util": round(cpu_s / wall_s, 4) if wall_s > 0 else 0.0,
    }
    if rollup["heap_peak_kib"] is not None:
        out["heap_peak_kib"] = round(float(rollup["heap_peak_kib"]), 1)
    return out


class ResourceReader:
    """Reads process RSS, CPU time and heap for a
    :class:`~repro.obs.sampler.Sampler`.

    Each reading is one row in a bounded ring buffer and adds to the
    rollups of the span it was taken in and of the whole run.  Readings
    bracket the run: one at begin, one per tick at ``hz``, one at end.
    ``keep_samples=False`` records rollups only — the mode exec workers
    use so shipping a profile home stays cheap.  ``rss_reader``,
    ``cpu_reader`` and ``heap_reader`` are injectable for deterministic
    tests.
    """

    section = "resource_profile"

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        *,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        keep_samples: bool = True,
        rss_reader: Optional[Callable[[], float]] = None,
        cpu_reader: Optional[Callable[[], float]] = None,
        heap_reader: Optional[Callable[[], Optional[float]]] = None,
    ) -> None:
        if not hz > 0:
            raise ValueError(f"hz must be positive, got {hz!r}")
        if max_samples < 2:
            raise ValueError("max_samples must be at least 2")
        self.hz = float(hz)
        self.max_samples = max_samples
        self.keep_samples = keep_samples
        self._rss_reader = rss_reader or default_rss_reader
        self._cpu_reader = cpu_reader or default_cpu_reader
        self._heap_reader = heap_reader or default_heap_reader
        self._samples: List[Dict[str, Any]] = []
        self._ring_next = 0
        self._dropped = 0
        self._sample_count = 0
        self._stages: Dict[str, Dict[str, Any]] = {}
        self._total = _new_rollup()
        self._t0 = 0.0
        self._cpu0 = 0.0
        self._last_t = 0.0
        self._last_cpu = 0.0

    def begin(self, now: float, label: str) -> None:
        """Anchor the time bases and take the first reading."""
        self._t0 = self._last_t = now
        self._cpu0 = self._last_cpu = self._cpu_reader()
        self.read(now, label)

    def end(self, now: float, label: str) -> None:
        """Take the final reading."""
        self.read(now, label)

    def read(self, now: float, label: str) -> Dict[str, Any]:
        """Take one reading attributed to ``label``; returns its row."""
        rss_kib = float(self._rss_reader())
        cpu = float(self._cpu_reader())
        heap_kib = self._heap_reader()
        row: Dict[str, Any] = {
            "t_s": round(max(now - self._t0, 0.0), 6),
            "rss_kib": round(rss_kib, 1),
            "cpu_s": round(max(cpu - self._cpu0, 0.0), 6),
            "heap_kib": round(heap_kib, 1) if heap_kib is not None else None,
            "gc": list(gc.get_count()),
            "span": label,
        }
        self._sample_count += 1
        if self.keep_samples:
            if len(self._samples) < self.max_samples:
                self._samples.append(row)
            else:
                self._samples[self._ring_next] = row
                self._ring_next = (self._ring_next + 1) % self.max_samples
                self._dropped += 1
        dt = max(now - self._last_t, 0.0)
        dcpu = max(cpu - self._last_cpu, 0.0)
        self._last_t = now
        self._last_cpu = cpu
        for rollup in (
            self._stages.setdefault(label, _new_rollup()),
            self._total,
        ):
            rollup["samples"] += 1
            rollup["rss_peak_kib"] = max(rollup["rss_peak_kib"], rss_kib)
            rollup["rss_sum_kib"] += rss_kib
            rollup["cpu_s"] += dcpu
            rollup["wall_s"] += dt
            if heap_kib is not None:
                peak = rollup["heap_peak_kib"]
                rollup["heap_peak_kib"] = (
                    heap_kib if peak is None else max(peak, heap_kib)
                )
        return row

    def document(self) -> Dict[str, Any]:
        """The ``repro.resource-profile/v1`` document, as recorded so
        far; ``pid`` names the process that recorded it."""
        samples = (
            self._samples[self._ring_next:] + self._samples[: self._ring_next]
        )
        stages = {
            name: _serialise_rollup(rollup)
            for name, rollup in self._stages.items()
        }
        duration_s = max(self._last_t - self._t0, 0.0)
        cpu_s = max(self._last_cpu - self._cpu0, 0.0)
        totals: Dict[str, Any] = {
            "duration_s": round(duration_s, 6),
            "cpu_s": round(cpu_s, 6),
            "cpu_util": (
                round(cpu_s / duration_s, 4) if duration_s > 0 else 0.0
            ),
            "rss_peak_kib": round(float(self._total["rss_peak_kib"]), 1),
            "rss_mean_kib": round(
                float(self._total["rss_sum_kib"]) / self._total["samples"]
                if self._total["samples"] else 0.0,
                1,
            ),
        }
        if self._total["heap_peak_kib"] is not None:
            totals["heap_peak_kib"] = round(
                float(self._total["heap_peak_kib"]), 1
            )
        return {
            "schema": RESOURCE_PROFILE_SCHEMA,
            "hz": self.hz,
            "pid": os.getpid(),
            "sample_count": self._sample_count,
            "dropped_samples": self._dropped,
            "samples": samples,
            "stages": stages,
            "totals": totals,
        }

    def fold(self, existing: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        """This host profile folded over ``existing`` (see
        :func:`fold_resources`)."""
        return fold_resources(existing, self.document())


# -- folding ----------------------------------------------------------


def fold_resources(
    base: Optional[Dict[str, Any]],
    incoming: Dict[str, Any],
    *,
    worker: bool = False,
) -> Dict[str, Any]:
    """Fold one resource profile into another (a fresh document).

    The one fold for ``repro.resource-profile/v1``, used both when a
    host sampler stops and when ``merge_snapshot`` brings a worker's
    profile home.  A host profile (``worker=False``) becomes the body
    of the result; a worker profile becomes one entry of its
    ``workers`` list.  The ``workers`` of both documents are kept, and
    an entry whose ``pid`` is already listed merges into that entry (a
    worker process that ran several chunks is one worker): samples, CPU
    and wall seconds add, RSS and heap peaks take the maximum, the RSS
    mean is weighted by samples and ``cpu_util`` is recomputed.
    Entries without a ``pid`` are appended.
    """
    folded = dict(base) if base else {
        "schema": RESOURCE_PROFILE_SCHEMA,
        "hz": float(incoming.get("hz", 0.0)),
        "sample_count": 0,
        "dropped_samples": 0,
        "samples": [],
        "stages": {},
        "totals": {},
    }
    entries = [*folded.pop("workers", ()), *incoming.get("workers", ())]
    if worker:
        entries.append({
            key: value for key, value in incoming.items()
            if key in ("pid", "sample_count", "stages", "totals")
        })
    else:
        folded.update(incoming)
    workers: List[Dict[str, Any]] = []
    for entry in entries:
        pid = entry.get("pid")
        listed = next(
            (w for w in workers if pid is not None and w.get("pid") == pid),
            None,
        )
        if listed is None:
            workers.append(dict(entry, worker=len(workers)))
            continue
        count = listed.get("sample_count", 0)
        extra = entry.get("sample_count", 0)
        stages = dict(listed.get("stages") or {})
        for name, rollup in (entry.get("stages") or {}).items():
            mine = stages.get(name)
            stages[name] = rollup if mine is None else _merge_rollups(
                mine, rollup, mine["samples"], rollup["samples"], "wall_s"
            )
        totals = _merge_rollups(
            listed.get("totals") or {}, entry.get("totals") or {},
            count, extra, "duration_s",
        )
        del totals["samples"]
        listed.update(stages=stages, totals=totals, sample_count=count + extra)
    if workers:
        folded["workers"] = workers
    return folded


def _merge_rollups(
    a: Dict[str, Any], b: Dict[str, Any], a_samples: int, b_samples: int,
    wall_key: str,
) -> Dict[str, Any]:
    """Two serialised rollups of one process as one (``wall_key`` names
    their wall-seconds field)."""
    heaps = [r["heap_peak_kib"] for r in (a, b) if "heap_peak_kib" in r]
    merged = _serialise_rollup({
        "samples": a_samples + b_samples,
        "rss_peak_kib": max(
            a.get("rss_peak_kib", 0.0), b.get("rss_peak_kib", 0.0)
        ),
        "rss_sum_kib": a.get("rss_mean_kib", 0.0) * a_samples
        + b.get("rss_mean_kib", 0.0) * b_samples,
        "cpu_s": a.get("cpu_s", 0.0) + b.get("cpu_s", 0.0),
        "wall_s": a.get(wall_key, 0.0) + b.get(wall_key, 0.0),
        "heap_peak_kib": max(heaps) if heaps else None,
    })
    merged[wall_key] = merged.pop("wall_s")
    return merged


# -- derived gauges ---------------------------------------------------


def profile_gauges(profile: Dict[str, Any]) -> Dict[str, float]:
    """The headline ``resources.*`` gauges derived from a profile.

    One gauge per :data:`ROLLUP_GAUGES` entry that the totals carry
    (``heap_peak_kib`` is absent unless tracemalloc was active).
    """
    totals = profile.get("totals") or {}
    gauges: Dict[str, float] = {}
    for name in ROLLUP_GAUGES:
        if name == "samples":
            value: Any = profile.get("sample_count")
        else:
            value = totals.get(name)
        if isinstance(value, (int, float)):
            gauges[RESOURCE_GAUGE_PREFIX + name] = float(value)
    return gauges


# -- validation -------------------------------------------------------


def _check_number(
    problems: List[str], where: str, value: Any, minimum: Optional[float] = None
) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        problems.append(f"{where}: not a number ({value!r})")
    elif minimum is not None and value < minimum:
        problems.append(f"{where}: below {minimum} ({value!r})")


def validate_profile(document: Any) -> List[str]:
    """Schema violations in a resource profile ([] when valid)."""
    if not isinstance(document, dict):
        return ["profile is not a JSON object"]
    problems: List[str] = []
    if document.get("schema") != RESOURCE_PROFILE_SCHEMA:
        problems.append(
            f"schema is {document.get('schema')!r}, expected "
            f"{RESOURCE_PROFILE_SCHEMA!r}"
        )
    _check_number(problems, "hz", document.get("hz"), minimum=0.0)
    for key in ("sample_count", "dropped_samples"):
        value = document.get(key)
        if not isinstance(value, int) or value < 0:
            problems.append(f"{key}: not a non-negative integer ({value!r})")
    samples = document.get("samples")
    if not isinstance(samples, list):
        problems.append("samples is missing or not an array")
        samples = []
    last_t: Optional[float] = None
    for index, sample in enumerate(samples):
        where = f"samples[{index}]"
        if not isinstance(sample, dict):
            problems.append(f"{where}: not an object")
            continue
        _check_number(problems, f"{where}.t_s", sample.get("t_s"), minimum=0.0)
        _check_number(
            problems, f"{where}.rss_kib", sample.get("rss_kib"), minimum=0.0
        )
        _check_number(
            problems, f"{where}.cpu_s", sample.get("cpu_s"), minimum=0.0
        )
        if sample.get("heap_kib") is not None:
            _check_number(
                problems, f"{where}.heap_kib", sample.get("heap_kib"),
                minimum=0.0,
            )
        if not isinstance(sample.get("span"), str):
            problems.append(f"{where}.span: not a string")
        t_s = sample.get("t_s")
        if isinstance(t_s, (int, float)):
            if last_t is not None and t_s < last_t:
                problems.append(
                    f"{where}.t_s: decreases ({t_s!r} after {last_t!r})"
                )
            last_t = float(t_s)
    stages = document.get("stages")
    if not isinstance(stages, dict):
        problems.append("stages is missing or not an object")
        stages = {}
    for name, rollup in stages.items():
        where = f"stages[{name!r}]"
        if not isinstance(rollup, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("rss_peak_kib", "rss_mean_kib", "cpu_s", "wall_s",
                    "cpu_util"):
            _check_number(problems, f"{where}.{key}", rollup.get(key),
                          minimum=0.0)
        count = rollup.get("samples")
        if not isinstance(count, int) or count < 1:
            problems.append(f"{where}.samples: not a positive integer")
    totals = document.get("totals")
    if not isinstance(totals, dict):
        problems.append("totals is missing or not an object")
    elif totals:
        for key in ("duration_s", "cpu_s", "cpu_util", "rss_peak_kib",
                    "rss_mean_kib"):
            _check_number(problems, f"totals.{key}", totals.get(key),
                          minimum=0.0)
    workers = document.get("workers", [])
    if not isinstance(workers, list):
        problems.append("workers is not an array")
        workers = []
    for index, worker in enumerate(workers):
        if not isinstance(worker, dict):
            problems.append(f"workers[{index}]: not an object")
            continue
        if not isinstance(worker.get("totals", {}), dict):
            problems.append(f"workers[{index}].totals: not an object")
        if not isinstance(worker.get("stages", {}), dict):
            problems.append(f"workers[{index}].stages: not an object")
    return problems


# -- budgets ----------------------------------------------------------


def check_budget(
    profile: Dict[str, Any], budget: Dict[str, Any]
) -> List[str]:
    """Budget breaches of ``profile`` against a committed budget doc.

    The budget is a flat ``repro.resource-budget/v1`` object holding
    any of ``max_rss_peak_kib``/``max_rss_mean_kib``/``max_cpu_s``/
    ``max_cpu_util``/``max_heap_peak_kib``; absent keys are unbounded.
    """
    if not isinstance(budget, dict):
        return ["budget is not a JSON object"]
    if budget.get("schema") != RESOURCE_BUDGET_SCHEMA:
        return [
            f"budget schema is {budget.get('schema')!r}, expected "
            f"{RESOURCE_BUDGET_SCHEMA!r}"
        ]
    totals = profile.get("totals") or {}
    breaches: List[str] = []
    for key, metric in _BUDGET_KEYS:
        limit = budget.get(key)
        if limit is None:
            continue
        if not isinstance(limit, (int, float)):
            breaches.append(f"budget {key} is not a number ({limit!r})")
            continue
        value = totals.get(metric)
        if isinstance(value, (int, float)) and value > limit:
            breaches.append(
                f"totals.{metric} = {value:g} exceeds {key} = {limit:g}"
            )
    return breaches


# -- rendering --------------------------------------------------------


def _fmt_mib(kib: Any) -> str:
    if not isinstance(kib, (int, float)):
        return "-"
    return f"{kib / 1024.0:.1f}M"


def render_profile(profile: Dict[str, Any], indent: str = "") -> str:
    """Human summary: per-stage rollup table plus totals and workers."""
    lines: List[str] = []
    hz = profile.get("hz", 0.0)
    count = profile.get("sample_count", 0)
    dropped = profile.get("dropped_samples", 0)
    totals = profile.get("totals") or {}
    duration = totals.get("duration_s", 0.0)
    head = (
        f"sampled at {hz:g} Hz: {count} sample(s) over "
        f"{duration:.2f}s"
    )
    if dropped:
        head += f" ({dropped} oldest dropped from the ring)"
    lines.append(indent + head)
    stages = profile.get("stages") or {}
    if stages:
        lines.append(
            indent
            + f"{'stage':<36}{'samples':>8}{'rss peak':>10}"
              f"{'rss mean':>10}{'cpu':>9}{'util':>7}"
        )
        ranked = sorted(
            stages.items(),
            key=lambda item: (-float(item[1].get("cpu_s", 0.0)), item[0]),
        )
        for name, rollup in ranked:
            lines.append(
                indent
                + f"{name:<36}{rollup.get('samples', 0):>8}"
                  f"{_fmt_mib(rollup.get('rss_peak_kib')):>10}"
                  f"{_fmt_mib(rollup.get('rss_mean_kib')):>10}"
                  f"{rollup.get('cpu_s', 0.0):>8.2f}s"
                  f"{rollup.get('cpu_util', 0.0):>7.2f}"
            )
    if totals:
        tail = (
            f"totals: rss peak {_fmt_mib(totals.get('rss_peak_kib'))}"
            f"  cpu {totals.get('cpu_s', 0.0):.2f}s"
            f"  util {totals.get('cpu_util', 0.0):.2f}"
        )
        if "heap_peak_kib" in totals:
            tail += f"  heap peak {_fmt_mib(totals.get('heap_peak_kib'))}"
        lines.append(indent + tail)
    workers = profile.get("workers") or []
    if workers:
        peaks = [
            w.get("totals", {}).get("rss_peak_kib")
            for w in workers
            if isinstance(w.get("totals", {}).get("rss_peak_kib"),
                          (int, float))
        ]
        line = f"workers: {len(workers)} profiled"
        if peaks:
            line += f", worker rss peak {_fmt_mib(max(peaks))}"
        lines.append(indent + line)
    return "\n".join(lines)
