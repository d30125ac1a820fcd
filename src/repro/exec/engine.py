"""The work-scheduling layer: fan footprint jobs out, merge results in.

The paper's per-AS computation (KDE → contours → peaks → PoP mapping)
is embarrassingly parallel across target ASes.  :class:`FootprintEngine`
exploits that without giving up determinism:

* jobs are **chunked deterministically** (contiguous slices whose size
  depends only on the job count and config — never on worker timing),
* chunks run on a ``concurrent.futures.ProcessPoolExecutor`` whose
  results are **merged in submission order**, so the output list/dict
  order is identical to the serial path's,
* ``workers=1`` (the default) runs the same chunk walk in-process,
  calling :func:`repro.exec.jobs.execute_job` inline,
* each worker captures telemetry into its own registry and ships the
  snapshot home; the parent folds every snapshot into the live registry
  (:meth:`repro.obs.telemetry.Telemetry.merge_snapshot`), so a parallel
  run's report carries the same spans under its map span and the same
  counters outside ``exec.*`` as a serial run's,
* the parent records the ``exec.peak_selection`` funnel stage and the
  ``footprint_peak_count`` digest once per returned artifact, whether
  computed or served from the cache, so the data-quality record does
  not depend on the schedule either.

With a :class:`~repro.exec.cache.ArtifactCache` configured, the parent
probes the cache before dispatching anything: across re-runs where only
a fraction of ASes changed, only that fraction is recomputed.

This module is the only place in ``repro`` allowed to touch
``multiprocessing``/``concurrent.futures`` (reprolint REP601).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..geo.gazetteer import Gazetteer
from ..obs import lineage, quality
from ..obs import progress as obs_progress
from ..obs import telemetry as obs
from ..obs.lineage import DropReason
from ..obs.progress import StallWatchdog
from ..obs.sampler import sample
from .cache import ArtifactCache, gazetteer_fingerprint, job_key
from .config import ParallelConfig
from .jobs import FootprintArtifact, FootprintJob, execute_job

#: Worker-process state installed by :func:`_init_worker` (one gazetteer
#: per worker, shipped once via the pool initializer instead of once per
#: chunk).
_WORKER_GAZETTEER: Optional[Gazetteer] = None

#: Worker-side resource-sampling rate (None = profiling off).
_WORKER_PROFILE_HZ: Optional[float] = None

#: Worker-side stack-sampling rate (None = stack profiling off).
_WORKER_FLAME_HZ: Optional[float] = None


def _init_worker(
    gazetteer: Gazetteer,
    profile_hz: Optional[float] = None,
    flame_hz: Optional[float] = None,
) -> None:
    """Pool initializer: pin the gazetteer, detach inherited telemetry.

    Under the ``fork`` start method the child inherits the parent's
    active registry; recording into it would be silently lost (the
    fork's copy never returns home).  Workers therefore start with the
    null registry and do all recording inside an explicit capture in
    :func:`_run_chunk`.  ``profile_hz`` and ``flame_hz`` arm the
    per-worker resource and stack readers
    (:class:`~repro.exec.config.ParallelConfig.profile_hz`,
    :class:`~repro.exec.config.ParallelConfig.flame_hz`).
    """
    global _WORKER_GAZETTEER, _WORKER_PROFILE_HZ, _WORKER_FLAME_HZ
    _WORKER_GAZETTEER = gazetteer
    _WORKER_PROFILE_HZ = profile_hz
    _WORKER_FLAME_HZ = flame_hz
    obs.set_telemetry(None)


def _run_chunk(
    jobs: Sequence[FootprintJob],
) -> Tuple[List[FootprintArtifact], Dict[str, Any]]:
    """Execute one chunk in a worker; return artifacts + telemetry.

    With profiling armed, the worker samples itself for the chunk's
    duration and ships its documents home inside the snapshot: resource
    rollups only (``keep_samples=False`` keeps the pickle bounded),
    tagged with the worker's pid, and its collapsed-stack table.  The
    parent folds them into the host profiles in
    :meth:`repro.obs.telemetry.Telemetry.merge_snapshot`.
    """
    gazetteer = _WORKER_GAZETTEER
    if gazetteer is None:
        raise RuntimeError("worker initialised without a gazetteer")
    with obs.capture() as telemetry, sample(
        telemetry,
        profile_hz=_WORKER_PROFILE_HZ,
        flame_hz=_WORKER_FLAME_HZ,
        keep_samples=False,
    ):
        artifacts = [execute_job(job, gazetteer) for job in jobs]
    return artifacts, telemetry.snapshot()


class FootprintEngine:
    """Executes batches of footprint jobs for one gazetteer.

    The engine is cheap to construct; the gazetteer fingerprint (part
    of every cache key) is computed lazily on first cached lookup.
    """

    def __init__(
        self,
        gazetteer: Gazetteer,
        config: ParallelConfig = ParallelConfig(),
        watchdog: Optional[StallWatchdog] = None,
    ) -> None:
        self.gazetteer = gazetteer
        self.config = config
        #: The stall watchdog judging chunk latencies.  Injectable so
        #: tests can script its clock; a fresh default otherwise.  One
        #: watchdog per engine: its rolling median spans every batch
        #: this engine runs, which is exactly the baseline you want.
        self.watchdog = watchdog if watchdog is not None else StallWatchdog()
        self._cache: Optional[ArtifactCache] = (
            ArtifactCache(self.config.cache_dir)
            if self.config.cache_dir is not None
            else None
        )
        self._gazetteer_digest: Optional[str] = None

    def gazetteer_digest(self) -> str:
        """Fingerprint of this engine's gazetteer (memoised)."""
        if self._gazetteer_digest is None:
            self._gazetteer_digest = gazetteer_fingerprint(self.gazetteer)
        return self._gazetteer_digest

    def run(self, jobs: Iterable[FootprintJob]) -> List[FootprintArtifact]:
        """Execute ``jobs``; results are returned in job order.

        Cached jobs are served without dispatch, relabelled with the
        job's ASN; the rest run serially or on the pool per the config.
        The returned list is positional: ``result[i]`` belongs to
        ``jobs[i]`` regardless of which worker computed it or whether
        it came from the cache.
        """
        job_list = list(jobs)
        with obs.span("exec.run"):
            obs.count("exec.jobs", len(job_list))
            artifacts: List[Optional[FootprintArtifact]] = [None] * len(job_list)
            keys: List[Optional[str]] = [None] * len(job_list)
            pending: List[Tuple[int, FootprintJob]] = []
            if self._cache is not None:
                with obs.span("exec.cache_lookup"):
                    digest = self.gazetteer_digest()
                    for index, job in enumerate(job_list):
                        key = job_key(job, digest)
                        keys[index] = key
                        cached = self._cache.get(key)
                        if cached is None:
                            pending.append((index, job))
                        else:
                            artifacts[index] = cached.relabelled(job.asn)
            else:
                pending = list(enumerate(job_list))

            if pending:
                computed = self._execute([job for _, job in pending])
                for (index, _), artifact in zip(pending, computed):
                    artifacts[index] = artifact
                    if self._cache is not None:
                        key = keys[index]
                        assert key is not None
                        self._cache.put(key, artifact)
            results = [a for a in artifacts if a is not None]
            assert len(results) == len(job_list)
            for artifact in results:
                _record_peak_selection(artifact)
            return results

    def run_by_asn(
        self, jobs: Iterable[FootprintJob]
    ) -> Dict[int, FootprintArtifact]:
        """Like :meth:`run`, keyed by ASN in job order."""
        return {artifact.asn: artifact for artifact in self.run(jobs)}

    # -- execution strategies -----------------------------------------

    def _execute(
        self, jobs: Sequence[FootprintJob]
    ) -> List[FootprintArtifact]:
        if self.config.is_serial:
            return self._execute_serial(jobs)
        return self._execute_parallel(jobs)

    def _execute_serial(
        self, jobs: Sequence[FootprintJob]
    ) -> List[FootprintArtifact]:
        """The in-process path: inline calls, in order.

        The serial path runs the same chunk walk as the parallel one —
        identical job order, so identical output — which gives serial
        runs the same progress events and stall coverage.
        """
        chunks = self.config.chunk(jobs)
        results: List[FootprintArtifact] = []
        with obs.span("exec.serial_map"):
            with obs_progress.tracker(
                "exec.serial_map", total=len(chunks), unit="chunks"
            ) as tracked:
                for index, chunk in enumerate(chunks):
                    self.watchdog.started(index)
                    results.extend(
                        execute_job(job, self.gazetteer) for job in chunk
                    )
                    self.watchdog.finished(index, jobs=len(chunk))
                    tracked.advance()
        return results

    def _execute_parallel(
        self, jobs: Sequence[FootprintJob]
    ) -> List[FootprintArtifact]:
        """Chunked fan-out over a process pool, ordered merge.

        Futures are collected in submission order (not completion
        order), so the concatenated result is exactly the serial
        ordering; worker telemetry snapshots merge under this span in
        the same deterministic order.  The watchdog marks each chunk at
        submission and at collection — both driver-side, so a scripted
        clock sees a deterministic call sequence — and judges the
        dispatch-to-collection latency against the rolling median.
        """
        chunks = self.config.chunk(jobs)
        results: List[FootprintArtifact] = []
        with obs.span("exec.parallel_map"):
            obs.count("exec.chunks", len(chunks))
            obs.gauge("exec.workers", self.config.workers)
            max_workers = min(self.config.workers, len(chunks))
            with obs_progress.tracker(
                "exec.parallel_map", total=len(chunks), unit="chunks"
            ) as tracked:
                with ProcessPoolExecutor(
                    max_workers=max_workers,
                    initializer=_init_worker,
                    initargs=(
                        self.gazetteer,
                        self.config.profile_hz,
                        self.config.flame_hz,
                    ),
                ) as pool:
                    futures = []
                    for index, chunk in enumerate(chunks):
                        self.watchdog.started(index)
                        futures.append(pool.submit(_run_chunk, chunk))
                    for index, future in enumerate(futures):
                        artifacts, snapshot = future.result()
                        self.watchdog.finished(
                            index, jobs=len(chunks[index])
                        )
                        results.extend(artifacts)
                        obs.merge_snapshot(snapshot)
                        tracked.advance()
        return results


def _record_peak_selection(artifact: FootprintArtifact) -> None:
    """The alpha cut of one returned artifact, as a funnel stage and a
    ``footprint_peak_count`` digest value."""
    selected = len(artifact.peak_latlons)
    lineage.record_stage(
        "exec.peak_selection",
        unit="peaks",
        records_in=artifact.peaks_found,
        records_out=selected,
        drops={DropReason.BELOW_ALPHA: artifact.peaks_found - selected},
    )
    quality.observe("footprint_peak_count", (float(selected),))
