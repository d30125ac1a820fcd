"""Footprint job and artifact types.

A :class:`FootprintJob` is the complete, self-contained description of
one AS's Section 3-4 computation — peer coordinates, kernel bandwidth,
grid spec, peak-selection alpha — independent of any scenario object,
so it can be hashed for the artifact cache and pickled to a worker
process.  Executing a job yields a :class:`FootprintArtifact`: the
PoP-level footprint plus the alpha-selected peak locations, i.e.
everything the experiment drivers consume, without the dense KDE grid
(which would dominate cache size for no downstream use).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from ..core.footprint import estimate_geo_footprint
from ..core.pop import DEFAULT_ALPHA, PoPFootprint, extract_pop_footprint
from ..geo.gazetteer import Gazetteer

#: The footprint-contour level :func:`estimate_geo_footprint` defaults
#: to; spelled out here so job digests never depend on a default
#: changing silently elsewhere.
DEFAULT_CONTOUR_LEVEL = 0.01


@dataclass(frozen=True, eq=False)
class FootprintJob:
    """One AS's footprint computation, fully specified.

    ``lats``/``lons`` are the AS's mapped peer coordinates (parallel
    float arrays); the remaining fields mirror the keyword arguments of
    :func:`repro.core.footprint.estimate_geo_footprint` and
    :func:`repro.core.pop.extract_pop_footprint` so executing a job is
    *exactly* the serial pipeline's call sequence.
    """

    asn: int
    lats: np.ndarray
    lons: np.ndarray
    bandwidth_km: float
    alpha: float = DEFAULT_ALPHA
    cell_km: Optional[float] = None
    contour_level: float = DEFAULT_CONTOUR_LEVEL
    method: str = "fft"
    weights: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "lats", np.ascontiguousarray(self.lats, dtype=float)
        )
        object.__setattr__(
            self, "lons", np.ascontiguousarray(self.lons, dtype=float)
        )
        if self.lats.shape != self.lons.shape:
            raise ValueError("lats and lons must be parallel arrays")
        if self.lats.size == 0:
            raise ValueError("a footprint job needs at least one sample")
        if self.bandwidth_km <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if self.weights is not None:
            object.__setattr__(
                self,
                "weights",
                np.ascontiguousarray(self.weights, dtype=float),
            )


@dataclass(frozen=True)
class FootprintArtifact:
    """The cached/merged result of one :class:`FootprintJob`.

    ``pop_footprint`` is the Section 4.2 city-merged view;
    ``peak_latlons`` the raw alpha-selected peak coordinates Section 5's
    facility-level counting and 40 km matching operate on;
    ``peaks_found`` the number of density peaks before the alpha cut,
    which the engine's ``exec.peak_selection`` funnel stage reads.
    """

    asn: int
    bandwidth_km: float
    alpha: float
    pop_footprint: PoPFootprint
    peak_latlons: Tuple[Tuple[float, float], ...]
    peaks_found: int

    def peak_locations(self) -> list:
        """The peak coordinates as the ``List[tuple]`` the serial
        :meth:`Scenario.peak_locations` API returns."""
        return [tuple(p) for p in self.peak_latlons]

    def relabelled(self, asn: int) -> "FootprintArtifact":
        """This artifact as computed for ``asn``.

        The cache key leaves the ASN out (same peers and parameters,
        same computation), so an entry may have been written by a job
        for another AS; a served artifact carries the requester's ASN.
        """
        if asn == self.asn:
            return self
        return replace(
            self, asn=asn, pop_footprint=replace(self.pop_footprint, asn=asn)
        )


def execute_job(job: FootprintJob, gazetteer: Gazetteer) -> FootprintArtifact:
    """Run one job — the exact serial Section 3-4 call sequence.

    This function *is* the engine's unit of work: the serial path calls
    it inline, workers call it in their own process, and the cache
    stores its return value.  Keeping it a pure function of (job,
    gazetteer) is what makes its output the same for every worker
    count and cache state; the engine's parent records the funnel
    stage and digest it feeds, once per returned artifact.
    """
    footprint = estimate_geo_footprint(
        job.lats,
        job.lons,
        bandwidth_km=job.bandwidth_km,
        contour_level=job.contour_level,
        cell_km=job.cell_km,
        weights=job.weights,
        method=job.method,
    )
    pop_footprint = extract_pop_footprint(
        footprint, gazetteer, alpha=job.alpha, asn=job.asn
    )
    peaks = tuple(
        (p.lat, p.lon) for p in footprint.peaks_above(job.alpha)
    )
    return FootprintArtifact(
        asn=job.asn,
        bandwidth_km=job.bandwidth_km,
        alpha=job.alpha,
        pop_footprint=pop_footprint,
        peak_latlons=peaks,
        peaks_found=len(footprint.peaks),
    )
