"""The footprint stage: target dataset → per-AS footprint artifacts.

This is the pipeline-level entry point of the ``repro.exec`` engine,
and the only driver of per-AS footprint batches.  It turns conditioned
:class:`~repro.pipeline.dataset.TargetAS` groups into
:class:`~repro.exec.jobs.FootprintJob` descriptions — one per requested
AS, all at one kernel bandwidth — and hands the batch to a
:class:`~repro.exec.engine.FootprintEngine`, serial and uncached unless
the caller's :class:`~repro.exec.config.ParallelConfig` says otherwise.

Job order follows the caller's ``asns`` order, and the engine merges
results in job order, so the returned dict's insertion order is
identical to a per-AS loop over ``asns``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.pop import DEFAULT_ALPHA
from ..exec import FootprintArtifact, FootprintEngine, FootprintJob, ParallelConfig
from ..geo.gazetteer import Gazetteer
from ..obs import telemetry as obs
from ..obs.progress import tracker
from .dataset import TargetDataset


def build_footprint_jobs(
    dataset: TargetDataset,
    asns: Sequence[int],
    bandwidth_km: float,
    alpha: float = DEFAULT_ALPHA,
    cell_km: Optional[float] = None,
) -> list:
    """One :class:`FootprintJob` per AS, in ``asns`` order."""
    jobs = []
    with obs.span("pipeline.footprint_jobs"):
        with tracker(
            "pipeline.footprint_jobs", total=len(asns), unit="jobs"
        ) as progress:
            for asn in asns:
                target = dataset.ases[asn]
                jobs.append(
                    FootprintJob(
                        asn=asn,
                        lats=target.group.lat,
                        lons=target.group.lon,
                        bandwidth_km=bandwidth_km,
                        alpha=alpha,
                        cell_km=cell_km,
                    )
                )
                progress.advance()
    return jobs


def run_footprint_stage(
    dataset: TargetDataset,
    gazetteer: Gazetteer,
    asns: Sequence[int],
    bandwidth_km: float,
    alpha: float = DEFAULT_ALPHA,
    cell_km: Optional[float] = None,
    parallel: ParallelConfig = ParallelConfig(),
) -> Dict[int, FootprintArtifact]:
    """Compute footprint artifacts for many ASes at one bandwidth.

    ``parallel`` (serial and uncached by default) sets the schedule of
    the one engine invocation per call; the artifacts are the same
    for every setting.
    """
    with obs.span("pipeline.footprints"):
        jobs = build_footprint_jobs(
            dataset, asns, bandwidth_km, alpha=alpha, cell_km=cell_km
        )
        engine = FootprintEngine(gazetteer, parallel)
        return engine.run_by_asn(jobs)
