"""repro.exec — the parallel per-AS footprint engine.

The paper's Section 3-4 computation (KDE → contours → peaks → PoP
mapping) is independent per AS; this side-car layer schedules it:

``repro.exec.config``
    :class:`~repro.exec.config.ParallelConfig` — worker count, chunk
    size, cache location; the default is serial and uncached.
``repro.exec.jobs``
    :class:`~repro.exec.jobs.FootprintJob` /
    :class:`~repro.exec.jobs.FootprintArtifact` and the pure
    :func:`~repro.exec.jobs.execute_job` unit of work.
``repro.exec.cache``
    :class:`~repro.exec.cache.ArtifactCache` — content-addressed
    on-disk artifacts keyed by :func:`~repro.exec.cache.job_key`.
``repro.exec.engine``
    :class:`~repro.exec.engine.FootprintEngine` — deterministic
    chunking over a process pool with ordered merge and worker
    telemetry folding.

This package is the only part of ``repro`` permitted to import
``multiprocessing``/``concurrent.futures`` (reprolint rule REP601);
everything else parallelises by handing jobs to this engine.

See ``docs/PERFORMANCE.md`` for the cost model and cache-key
semantics.
"""

from .cache import CODE_SALT, ArtifactCache, gazetteer_fingerprint, job_key
from .config import MAX_WORKERS, ParallelConfig
from .engine import FootprintEngine
from .jobs import (
    DEFAULT_CONTOUR_LEVEL,
    FootprintArtifact,
    FootprintJob,
    execute_job,
)

__all__ = [
    "ArtifactCache",
    "CODE_SALT",
    "DEFAULT_CONTOUR_LEVEL",
    "FootprintArtifact",
    "FootprintEngine",
    "FootprintJob",
    "MAX_WORKERS",
    "ParallelConfig",
    "execute_job",
    "gazetteer_fingerprint",
    "job_key",
]
