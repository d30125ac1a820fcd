"""Sampling stack profiles: span-attributed flamegraphs per run.

Spans answer *which stage* is slow and resource profiles answer *what
it cost*, but neither can say *which frames inside a stage* burn the
time — every optimisation PR starts blind without that.
:class:`StackReader` fills the gap: driven by the run's
:class:`~repro.obs.sampler.Sampler` thread at a fixed cadence, it walks
``sys._current_frames()`` for the profiled thread and folds each
observation into a bounded collapsed-stack table keyed by ``(open
telemetry span, frame stack)``.  The result serialises as a
``repro.flame/v1`` document — an interned frame list plus per-stack
sample counts — and exports as Brendan-Gregg collapsed text
(``flamegraph.pl``-compatible) or speedscope JSON.

Exec workers read their own stacks and ship their tables home;
:func:`merge_flame` folds them into the host profile with counts adding
and stage attribution preserved, so a ``--workers N`` run yields one
unified flamegraph.  This module imports only
:mod:`repro.obs.sampler` (for the shared ``(top)`` stage label; the
registry imports *us* for :func:`merge_flame`).
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import sampler
from .sampler import TOP_LABEL

#: Schema identifier embedded in every serialised flame profile.
FLAME_SCHEMA = "repro.flame/v1"

#: Schema identifier of a serialised hot-frame diff (``stats check``).
FLAME_DIFF_SCHEMA = "repro.flame-diff/v1"

#: Sampling cadence of ``--obs-dir`` runs and bare ``stats``.  A prime
#: rate so the reader never locks step with the 10 Hz resource reader
#: or any periodic stage work (the classic aliasing trap of fixed-rate
#: profilers).
DEFAULT_HZ = 97.0

#: Bound on distinct (stage, stack) keys; samples that would grow the
#: table past this are counted in ``dropped_samples`` instead.
DEFAULT_MAX_STACKS = 10_000

#: Frames kept per sample (leaf-most survive when a stack is deeper).
DEFAULT_MAX_DEPTH = 128

#: Hot-frame gate: absolute self-share growth that counts as a
#: regression.
DEFAULT_SHARE_TOLERANCE = 0.10

#: Hot-frame noise floor: frames under this self-share in both runs are
#: never judged.
DEFAULT_MIN_SHARE = 0.05

#: A frame's share shift is judged only when it exceeds this many
#: standard errors of the difference of its two sampled shares.
SHARE_ERROR_Z = 3.0

#: One interned frame: (function name, shortened file path, def line).
Frame = Tuple[str, str, int]


def _short_path(path: str) -> str:
    """Shorten a code filename to its package-relative tail.

    Frames aggregate across machines and checkouts, so absolute
    prefixes (site-packages, venvs, build dirs) must not leak into the
    profile: ``.../src/repro/pipeline/batch.py`` becomes
    ``repro/pipeline/batch.py`` and anything else keeps its basename.
    """
    parts = path.replace("\\", "/").split("/")
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return parts[-1]


def _default_frame_reader(
    target_ident: int,
) -> Callable[[], Optional[List[Frame]]]:
    """A reader returning the target thread's stack, root → leaf.

    Frames are keyed by ``co_firstlineno`` (the def line), not the
    currently-executing line: per-line keys would explode one logical
    frame into dozens of stacks.  The profiler's own frames (this
    module and the sampler driving it) are skipped.  Returns ``None``
    when the thread is gone or the walk fails — profiling degrades, it
    never raises into the sampled program.
    """
    own_files = (__file__, sampler.__file__)

    def read() -> Optional[List[Frame]]:
        frame = sys._current_frames().get(target_ident)
        if frame is None:
            return None
        frames: List[Frame] = []
        while frame is not None:
            code = frame.f_code
            if code.co_filename not in own_files:
                frames.append((
                    code.co_name,
                    _short_path(code.co_filename),
                    code.co_firstlineno,
                ))
            frame = frame.f_back
        frames.reverse()
        return frames

    return read


class StackReader:
    """Reads one thread's call stack for a
    :class:`~repro.obs.sampler.Sampler`.

    Each reading folds the stack into a bounded table keyed by (open
    span, frame stack).  Stacks are read on the sampler thread's ticks
    only, never at begin or end: those run inside the arming call on
    the profiled thread, where the only stack to see is the arming code
    itself.  The profiled thread is the one that begins the sampler.
    ``frame_reader`` is injectable for deterministic tests.
    """

    section = "flame_profile"

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        *,
        max_stacks: int = DEFAULT_MAX_STACKS,
        max_depth: int = DEFAULT_MAX_DEPTH,
        frame_reader: Optional[Callable[[], Optional[List[Frame]]]] = None,
    ) -> None:
        if not hz > 0:
            raise ValueError(f"hz must be positive, got {hz!r}")
        if max_stacks < 1:
            raise ValueError("max_stacks must be at least 1")
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self.hz = float(hz)
        self.max_stacks = max_stacks
        self.max_depth = max_depth
        self._frame_reader = frame_reader
        self._frame_index: Dict[Frame, int] = {}
        self._frames: List[Frame] = []
        self._stacks: Dict[Tuple[str, Tuple[int, ...]], int] = {}
        self._sample_count = 0
        self._dropped = 0
        self._t0 = 0.0
        self._last_t = 0.0

    def begin(self, now: float, label: str) -> None:
        """Anchor the time base and pin the calling thread."""
        self._t0 = self._last_t = now
        if self._frame_reader is None:
            self._frame_reader = _default_frame_reader(threading.get_ident())

    def end(self, now: float, label: str) -> None:
        """Close the series at ``now``; no stack is read."""
        self._last_t = max(now, self._last_t)

    def _intern(self, frame: Frame) -> int:
        index = self._frame_index.get(frame)
        if index is None:
            index = len(self._frames)
            self._frame_index[frame] = index
            self._frames.append(frame)
        return index

    def read(self, now: float, label: str) -> int:
        """Fold one stack under ``label``; returns the folded stack's new
        count (0 when the sample was dropped)."""
        try:
            raw = self._frame_reader() if self._frame_reader else None
        except Exception:
            raw = None  # a torn frame walk is a dropped sample, not a crash
        self._sample_count += 1
        self._last_t = max(now, self._last_t)
        if not raw:
            self._dropped += 1
            return 0
        if len(raw) > self.max_depth:
            raw = raw[-self.max_depth:]
        key = (label, tuple(self._intern(frame) for frame in raw))
        count = self._stacks.get(key)
        if count is None:
            if len(self._stacks) >= self.max_stacks:
                self._dropped += 1
                return 0
            self._stacks[key] = 1
            return 1
        self._stacks[key] = count + 1
        return count + 1

    def document(self) -> Dict[str, Any]:
        """The ``repro.flame/v1`` document, as recorded so far."""
        return {
            "schema": FLAME_SCHEMA,
            "hz": self.hz,
            "duration_s": round(max(self._last_t - self._t0, 0.0), 6),
            "sample_count": self._sample_count,
            "dropped_samples": self._dropped,
            "frames": [
                {"name": name, "file": file, "line": line}
                for name, file, line in self._frames
            ],
            "stacks": [
                {"stage": stage, "frames": list(indices), "count": count}
                for (stage, indices), count in sorted(self._stacks.items())
            ],
        }

    def fold(self, existing: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        """This table merged with ``existing`` (see :func:`merge_flame`)."""
        return merge_flame(existing, self.document())


# -- merging ----------------------------------------------------------


def _document_frames(document: Dict[str, Any]) -> List[Frame]:
    frames: List[Frame] = []
    for raw in document.get("frames", ()):
        if not isinstance(raw, dict):
            continue
        frames.append((
            str(raw.get("name", "")),
            str(raw.get("file", "")),
            int(raw.get("line", 0) or 0),
        ))
    return frames


def merge_flame(
    base: Optional[Dict[str, Any]], incoming: Dict[str, Any]
) -> Dict[str, Any]:
    """Fold two flame profiles into one (a fresh document).

    The worker-merge half of the flamegraph contract: counts for the
    same ``(stage, frame stack)`` key add and stage attribution is
    preserved, so a parallel run's merged table equals the elementwise
    sum of the host and worker tables.  Frames are re-interned into a
    shared frame list; ``sample_count``/``dropped_samples`` add, and
    ``hz``/``duration_s`` keep the maximum (host and workers sample
    concurrently, so durations overlap rather than add).
    """
    if not isinstance(base, dict):
        base = {}
    frame_index: Dict[Frame, int] = {}
    frames: List[Frame] = []
    stacks: Dict[Tuple[str, Tuple[int, ...]], int] = {}

    def intern(frame: Frame) -> int:
        index = frame_index.get(frame)
        if index is None:
            index = len(frames)
            frame_index[frame] = index
            frames.append(frame)
        return index

    def fold(document: Dict[str, Any]) -> None:
        table = _document_frames(document)
        for stack in document.get("stacks", ()):
            if not isinstance(stack, dict):
                continue
            indices = stack.get("frames", ())
            try:
                key_frames = tuple(
                    intern(table[index])
                    for index in indices
                    if 0 <= int(index) < len(table)
                )
            except (TypeError, ValueError):
                continue
            key = (str(stack.get("stage", TOP_LABEL)), key_frames)
            stacks[key] = stacks.get(key, 0) + int(stack.get("count", 0) or 0)

    fold(base)
    fold(incoming)
    return {
        "schema": FLAME_SCHEMA,
        "hz": max(
            float(base.get("hz", 0.0) or 0.0),
            float(incoming.get("hz", 0.0) or 0.0),
        ),
        "duration_s": max(
            float(base.get("duration_s", 0.0) or 0.0),
            float(incoming.get("duration_s", 0.0) or 0.0),
        ),
        "sample_count": (
            int(base.get("sample_count", 0) or 0)
            + int(incoming.get("sample_count", 0) or 0)
        ),
        "dropped_samples": (
            int(base.get("dropped_samples", 0) or 0)
            + int(incoming.get("dropped_samples", 0) or 0)
        ),
        "frames": [
            {"name": name, "file": file, "line": line}
            for name, file, line in frames
        ],
        "stacks": [
            {"stage": stage, "frames": list(indices), "count": count}
            for (stage, indices), count in sorted(stacks.items())
        ],
    }


# -- analysis ---------------------------------------------------------


def frame_label(frame: Dict[str, Any]) -> str:
    """Human/collapsed-format label of one serialised frame."""
    name = str(frame.get("name", "?")).replace(";", ":")
    file = str(frame.get("file", "?")).replace(";", ":")
    return f"{name} ({file}:{frame.get('line', 0)})"


def stage_samples(profile: Dict[str, Any]) -> Dict[str, int]:
    """Folded samples per stage, insertion-free (sorted by stage)."""
    totals: Dict[str, int] = {}
    for stack in profile.get("stacks", ()):
        stage = str(stack.get("stage", TOP_LABEL))
        totals[stage] = totals.get(stage, 0) + int(stack.get("count", 0) or 0)
    return dict(sorted(totals.items()))


def stage_self_shares(
    profile: Dict[str, Any],
) -> Dict[str, Dict[str, float]]:
    """Per stage: each frame's self-time share of the stage's samples.

    Self time is leaf time — the samples where the frame was actually
    executing, not merely on the stack.  This is the quantity the
    hot-frame gate of ``stats check`` judges.
    """
    frames = profile.get("frames", [])
    counts: Dict[str, Dict[str, int]] = {}
    totals: Dict[str, int] = {}
    for stack in profile.get("stacks", ()):
        stage = str(stack.get("stage", TOP_LABEL))
        count = int(stack.get("count", 0) or 0)
        totals[stage] = totals.get(stage, 0) + count
        indices = stack.get("frames") or ()
        if not indices:
            continue
        leaf = indices[-1]
        if not isinstance(leaf, int) or not 0 <= leaf < len(frames):
            continue
        label = frame_label(frames[leaf])
        per_stage = counts.setdefault(stage, {})
        per_stage[label] = per_stage.get(label, 0) + count
    return {
        stage: {
            label: count / totals[stage]
            for label, count in sorted(per_frame.items())
        }
        for stage, per_frame in sorted(counts.items())
        if totals.get(stage)
    }


def top_frames(
    profile: Dict[str, Any], n: int = 10, stage: Optional[str] = None
) -> List[Dict[str, Any]]:
    """The ``n`` hottest frames by self samples, descending.

    Each entry carries ``frame`` (label), ``self`` and ``total`` sample
    counts and the corresponding shares of all folded samples (``total``
    counts a frame once per stack even when it recurses).  ``stage``
    restricts the ranking to one stage's stacks.
    """
    frames = profile.get("frames", [])
    self_counts: Dict[int, int] = {}
    total_counts: Dict[int, int] = {}
    folded = 0
    for stack in profile.get("stacks", ()):
        if stage is not None and str(stack.get("stage", TOP_LABEL)) != stage:
            continue
        count = int(stack.get("count", 0) or 0)
        indices = [
            index for index in (stack.get("frames") or ())
            if isinstance(index, int) and 0 <= index < len(frames)
        ]
        folded += count
        if not indices:
            continue
        leaf = indices[-1]
        self_counts[leaf] = self_counts.get(leaf, 0) + count
        for index in set(indices):
            total_counts[index] = total_counts.get(index, 0) + count
    ranked = sorted(
        total_counts,
        key=lambda index: (
            -self_counts.get(index, 0),
            -total_counts[index],
            frame_label(frames[index]),
        ),
    )
    return [
        {
            "frame": frame_label(frames[index]),
            "self": self_counts.get(index, 0),
            "total": total_counts[index],
            "self_share": (
                round(self_counts.get(index, 0) / folded, 4) if folded else 0.0
            ),
            "total_share": (
                round(total_counts[index] / folded, 4) if folded else 0.0
            ),
        }
        for index in ranked[:n]
    ]


# -- diffing ----------------------------------------------------------


@dataclass(frozen=True)
class FrameShift:
    """One frame whose per-stage self-time share moved across runs."""

    stage: str
    frame: str
    old_share: float
    new_share: float

    @property
    def delta(self) -> float:
        return self.new_share - self.old_share

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "frame": self.frame,
            "old_share": round(self.old_share, 4),
            "new_share": round(self.new_share, 4),
            "delta": round(self.delta, 4),
        }


@dataclass
class FlameDiff:
    """Hot-frame comparison of two profiles (``stats check``)."""

    regressions: List[FrameShift]
    improvements: List[FrameShift]

    @property
    def verdict(self) -> str:
        return "hot-frame-regression" if self.regressions else "ok"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": FLAME_DIFF_SCHEMA,
            "verdict": self.verdict,
            "share_tolerance": DEFAULT_SHARE_TOLERANCE,
            "min_share": DEFAULT_MIN_SHARE,
            "regressions": [shift.to_dict() for shift in self.regressions],
            "improvements": [shift.to_dict() for shift in self.improvements],
        }

    def render_text(self) -> str:
        lines: List[str] = []
        for title, shifts in (
            ("hot-frame regressions", self.regressions),
            ("improvements", self.improvements),
        ):
            if not shifts:
                continue
            lines.append(f"{title}:")
            for shift in shifts:
                lines.append(
                    f"  {shift.stage}: {shift.frame} "
                    f"{shift.old_share:.1%} -> {shift.new_share:.1%} "
                    f"({shift.delta:+.1%})"
                )
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def _share_shift_error(
    old_share: float, old_samples: int, new_share: float, new_samples: int
) -> float:
    """Standard error of the difference of two sampled self-shares.

    Each share is a binomial proportion over its stage's sample count.
    Its +1/+2 pseudo-counts keep a share of 0 or 1 over a handful of
    samples from reading as exact.
    """
    variance = 0.0
    for share, samples in ((old_share, old_samples), (new_share, new_samples)):
        p = (share * samples + 1.0) / (samples + 2.0)
        variance += p * (1.0 - p) / samples
    return variance ** 0.5


def diff_flame(old: Dict[str, Any], new: Dict[str, Any]) -> FlameDiff:
    """Compare per-stage frame self-time shares with a noise floor.

    The frame-level sibling of :func:`repro.obs.diff.diff_reports`:
    for every stage sampled in both profiles, a frame whose self-time
    share of the stage grew by more than
    :data:`DEFAULT_SHARE_TOLERANCE` (absolute) *and* by more than
    :data:`SHARE_ERROR_Z` standard errors of the shift (from the two
    stages' sample counts) is a regression; a fall past both is an
    improvement.  So a stage of a few samples, whose shares jump by
    whole samples, cannot trip the gate.  Frames under
    :data:`DEFAULT_MIN_SHARE` in *both* runs are never judged, and
    stages present in only one profile are skipped (there is nothing
    to compare).
    """
    old_shares = stage_self_shares(old)
    new_shares = stage_self_shares(new)
    old_samples = stage_samples(old)
    new_samples = stage_samples(new)
    regressions: List[FrameShift] = []
    improvements: List[FrameShift] = []
    for stage in sorted(set(old_shares) & set(new_shares)):
        old_stage = old_shares[stage]
        new_stage = new_shares[stage]
        for frame in sorted(set(old_stage) | set(new_stage)):
            old_share = old_stage.get(frame, 0.0)
            new_share = new_stage.get(frame, 0.0)
            if max(old_share, new_share) <= DEFAULT_MIN_SHARE:
                continue  # the noise floor
            shift = FrameShift(
                stage=stage, frame=frame,
                old_share=old_share, new_share=new_share,
            )
            bound = max(
                DEFAULT_SHARE_TOLERANCE,
                SHARE_ERROR_Z * _share_shift_error(
                    old_share, old_samples[stage],
                    new_share, new_samples[stage],
                ),
            )
            if shift.delta > bound:
                regressions.append(shift)
            elif shift.delta < -bound:
                improvements.append(shift)
    regressions.sort(key=lambda s: (-s.delta, s.stage, s.frame))
    improvements.sort(key=lambda s: (s.delta, s.stage, s.frame))
    return FlameDiff(regressions=regressions, improvements=improvements)


# -- validation -------------------------------------------------------


def validate_flame(document: Any) -> List[str]:
    """Schema violations in a flame profile ([] when valid)."""
    if not isinstance(document, dict):
        return ["profile is not a JSON object"]
    problems: List[str] = []
    if document.get("schema") != FLAME_SCHEMA:
        problems.append(
            f"schema is {document.get('schema')!r}, expected "
            f"{FLAME_SCHEMA!r}"
        )
    for key in ("hz", "duration_s"):
        value = document.get(key)
        if (
            not isinstance(value, (int, float))
            or isinstance(value, bool)
            or value < 0
        ):
            problems.append(f"{key}: not a non-negative number ({value!r})")
    for key in ("sample_count", "dropped_samples"):
        value = document.get(key)
        if not isinstance(value, int) or value < 0:
            problems.append(f"{key}: not a non-negative integer ({value!r})")
    frames = document.get("frames")
    if not isinstance(frames, list):
        problems.append("frames is missing or not an array")
        frames = []
    for index, frame in enumerate(frames):
        where = f"frames[{index}]"
        if not isinstance(frame, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(frame.get("name"), str):
            problems.append(f"{where}.name: not a string")
        if not isinstance(frame.get("file"), str):
            problems.append(f"{where}.file: not a string")
        line = frame.get("line")
        if not isinstance(line, int) or line < 0:
            problems.append(f"{where}.line: not a non-negative integer")
    stacks = document.get("stacks")
    if not isinstance(stacks, list):
        problems.append("stacks is missing or not an array")
        stacks = []
    folded = 0
    for index, stack in enumerate(stacks):
        where = f"stacks[{index}]"
        if not isinstance(stack, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(stack.get("stage"), str):
            problems.append(f"{where}.stage: not a string")
        count = stack.get("count")
        if not isinstance(count, int) or count < 1:
            problems.append(f"{where}.count: not a positive integer")
        else:
            folded += count
        indices = stack.get("frames")
        if not isinstance(indices, list):
            problems.append(f"{where}.frames: not an array")
            continue
        for position, frame_index in enumerate(indices):
            if (
                not isinstance(frame_index, int)
                or not 0 <= frame_index < len(frames)
            ):
                problems.append(
                    f"{where}.frames[{position}]: not a valid frame index "
                    f"({frame_index!r})"
                )
    sample_count = document.get("sample_count")
    dropped = document.get("dropped_samples")
    if (
        not problems
        and isinstance(sample_count, int)
        and isinstance(dropped, int)
        and folded != sample_count - dropped
    ):
        problems.append(
            f"stack counts sum to {folded}, expected sample_count - "
            f"dropped_samples = {sample_count - dropped}"
        )
    return problems


# -- rendering / export -----------------------------------------------


def render_flame(
    profile: Dict[str, Any], top: int = 10, indent: str = ""
) -> str:
    """Human summary: headline line, hottest frames, per-stage leaders."""
    lines: List[str] = []
    hz = profile.get("hz", 0.0)
    count = profile.get("sample_count", 0)
    dropped = profile.get("dropped_samples", 0)
    duration = profile.get("duration_s", 0.0)
    head = (
        f"sampled at {hz:g} Hz: {count} sample(s) over {duration:.2f}s, "
        f"{len(profile.get('stacks') or [])} unique stack(s)"
    )
    if dropped:
        head += f" ({dropped} dropped)"
    lines.append(indent + head)
    ranked = top_frames(profile, n=top)
    if ranked:
        lines.append(
            indent + f"{'self':>7}{'total':>8}  frame"
        )
        for entry in ranked:
            lines.append(
                indent
                + f"{entry['self_share']:>7.1%}{entry['total_share']:>8.1%}"
                  f"  {entry['frame']}"
            )
    per_stage = stage_samples(profile)
    if per_stage:
        lines.append(indent + "per-stage top frames (self share of stage):")
        ranked_stages = sorted(
            per_stage.items(), key=lambda item: (-item[1], item[0])
        )
        for stage, samples in ranked_stages:
            leaders = top_frames(profile, n=1, stage=stage)
            if not leaders:
                continue
            leader = leaders[0]
            share = leader["self"] / samples if samples else 0.0
            lines.append(
                indent
                + f"  {stage:<34}{samples:>7}  "
                  f"{share:>6.1%}  {leader['frame']}"
            )
    return "\n".join(lines)


def render_collapsed(profile: Dict[str, Any]) -> str:
    """Brendan-Gregg collapsed-stack text (``flamegraph.pl`` input).

    One line per folded stack — ``stage;frame;...;leaf count`` — with
    the owning span as the synthetic root frame, so the rendered
    flamegraph groups by pipeline stage exactly like the run report.
    """
    frames = profile.get("frames", [])
    lines: List[str] = []
    for stack in profile.get("stacks", ()):
        stage = str(stack.get("stage", TOP_LABEL)).replace(";", ":")
        labels = [stage] + [
            frame_label(frames[index])
            for index in (stack.get("frames") or ())
            if isinstance(index, int) and 0 <= index < len(frames)
        ]
        lines.append(";".join(labels) + f" {int(stack.get('count', 0) or 0)}")
    return "\n".join(lines)


def render_speedscope(
    profile: Dict[str, Any], name: str = "repro-eyeball"
) -> Dict[str, Any]:
    """The profile as a speedscope JSON document (speedscope.app).

    A single ``sampled`` profile in sample-count units: every folded
    stack becomes one weighted sample, with the owning span prepended
    as a synthetic root frame for stage attribution.
    """
    frames = profile.get("frames", [])
    stage_index: Dict[str, int] = {}
    shared_frames: List[Dict[str, Any]] = []
    for stack in profile.get("stacks", ()):
        stage = str(stack.get("stage", TOP_LABEL))
        if stage not in stage_index:
            stage_index[stage] = len(shared_frames)
            shared_frames.append({"name": stage})
    offset = len(shared_frames)
    for frame in frames:
        shared_frames.append({
            "name": str(frame.get("name", "?")),
            "file": str(frame.get("file", "?")),
            "line": int(frame.get("line", 0) or 0),
        })
    samples: List[List[int]] = []
    weights: List[int] = []
    for stack in profile.get("stacks", ()):
        stage = str(stack.get("stage", TOP_LABEL))
        indices = [stage_index[stage]] + [
            offset + index
            for index in (stack.get("frames") or ())
            if isinstance(index, int) and 0 <= index < len(frames)
        ]
        samples.append(indices)
        weights.append(int(stack.get("count", 0) or 0))
    total = sum(weights)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "exporter": f"repro-eyeball ({FLAME_SCHEMA})",
        "name": name,
        "activeProfileIndex": 0,
        "shared": {"frames": shared_frames},
        "profiles": [{
            "type": "sampled",
            "name": name,
            "unit": "none",
            "startValue": 0,
            "endValue": total,
            "samples": samples,
            "weights": weights,
        }],
    }
