"""Execution configuration for the per-AS footprint engine.

One frozen :class:`ParallelConfig` describes *how* a batch of footprint
jobs runs: how many worker processes fan the jobs out (``workers=1``,
the default, runs them in-process), how jobs are chunked for dispatch,
and where the content-addressed artifact cache lives (``cache_dir=None``,
the default, disables caching).  Every footprint batch runs through the
engine under some config, and the config changes only the schedule,
never the result.  It carries no open resources, so it pickles cleanly
and can be embedded in experiment presets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, TypeVar

#: Upper bound on worker processes; a fan-out wider than this is almost
#: certainly a configuration mistake on current hardware.
MAX_WORKERS = 128

#: Target number of chunks per worker when ``chunk_size`` is automatic.
#: Several chunks per worker smooths load imbalance (per-AS KDE cost
#: varies with footprint extent) without drowning in dispatch overhead.
AUTO_CHUNKS_PER_WORKER = 4

T = TypeVar("T")


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs of one engine invocation.

    ``workers``
        Worker-process count.  ``1`` (the default) selects the serial
        in-process path — no pool, no pickling.
    ``chunk_size``
        Jobs per dispatched chunk, or ``None`` to derive it from the
        job count (about :data:`AUTO_CHUNKS_PER_WORKER` chunks per
        worker).  Chunking is deterministic: job order never depends on
        worker scheduling.
    ``cache_dir``
        Directory of the content-addressed artifact cache, or ``None``
        to recompute everything.  Delete the directory to invalidate
        it; algorithm changes invalidate it through
        :data:`repro.exec.cache.CODE_SALT`.
    ``profile_hz``
        Sampling rate of the per-worker resource profiler
        (:mod:`repro.obs.resources`), or ``None`` (the default) for no
        worker-side sampling.  When set, every worker samples its own
        RSS/CPU and ships the rollups home with its telemetry
        snapshot; profiling never changes job results.
    ``flame_hz``
        Sampling rate of the per-worker stack profiler
        (:mod:`repro.obs.prof`), or ``None`` (the default) for no
        worker-side stack sampling.  When set, every worker folds its
        own span-attributed collapsed-stack table and ships it home
        with its telemetry snapshot, where tables merge counts-adding
        into one run-wide flame profile; sampling never changes job
        results.
    """

    workers: int = 1
    chunk_size: Optional[int] = None
    cache_dir: Optional[str] = None
    profile_hz: Optional[float] = None
    flame_hz: Optional[float] = None

    def __post_init__(self) -> None:
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(
                f"workers must be in [1, {MAX_WORKERS}], got {self.workers}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be positive when given")
        if self.profile_hz is not None and not self.profile_hz > 0:
            raise ValueError("profile_hz must be positive when given")
        if self.flame_hz is not None and not self.flame_hz > 0:
            raise ValueError("flame_hz must be positive when given")

    @property
    def is_serial(self) -> bool:
        """Whether this config selects the in-process path."""
        return self.workers == 1

    def resolved_chunk_size(self, job_count: int) -> int:
        """The chunk size used for ``job_count`` jobs (always >= 1)."""
        if self.chunk_size is not None:
            return self.chunk_size
        if job_count <= 0:
            return 1
        target_chunks = self.workers * AUTO_CHUNKS_PER_WORKER
        return max(1, math.ceil(job_count / target_chunks))

    def chunk(self, items: Sequence[T]) -> List[Tuple[T, ...]]:
        """Deterministically split ``items`` into dispatch chunks.

        Plain contiguous slicing: chunk ``k`` holds items
        ``[k*size, (k+1)*size)``.  The split depends only on the item
        order and this config — never on worker timing — which is what
        makes the ordered result merge reproducible.
        """
        size = self.resolved_chunk_size(len(items))
        return [
            tuple(items[start:start + size])
            for start in range(0, len(items), size)
        ]
