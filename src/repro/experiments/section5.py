"""Experiment S5 — Section 5 scalar results.

Two headline comparisons:

* **S5a — PoP counts by bandwidth.**  "Our approach on average
  identified 31.9, 13.6 and 7.3 PoPs per AS with kernel bandwidth of
  10km, 40km and 80km, respectively.  The average number of reported
  PoPs per AS in our reference dataset is 43.7."  Shape: counts fall
  monotonically with bandwidth and stay below the reference mean.

* **S5b — DIMES comparison.**  "Our approach identified 7.14 PoPs per
  AS on average (with bandwidth=40km), DIMES reports only 1.54 ...  for
  80% of eyeball ASes our identified PoPs are a clear superset."
  Shape: KDE count well above DIMES count; high superset fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.bandwidth import CITY_BANDWIDTH_KM, FIGURE2_BANDWIDTHS_KM
from ..exec import ParallelConfig
from ..validation.dimes import (
    DimesComparison,
    DimesConfig,
    DimesDataset,
    compare_with_dimes,
    run_dimes_campaign,
)
from ..validation.reference import ReferenceConfig
from .figure2 import Figure2Result, run_figure2
from .report import render_kv, render_table
from .scenario import Scenario

#: Paper scalars.
PAPER_POPS_PER_AS: Dict[float, float] = {10.0: 31.9, 40.0: 13.6, 80.0: 7.3}
PAPER_REFERENCE_POPS_PER_AS = 43.7
PAPER_DIMES = DimesComparison(
    common_as_count=226,
    kde_mean_pops=7.14,
    dimes_mean_pops=1.54,
    superset_fraction=0.80,
)


@dataclass
class Section5Result:
    """Both Section 5 comparisons."""

    figure2: Figure2Result
    dimes: DimesDataset
    comparison: DimesComparison

    def pops_per_as(self) -> Dict[float, float]:
        return {
            bandwidth: report.mean_inferred_pops()
            for bandwidth, report in self.figure2.reports.items()
        }

    def reference_pops_per_as(self) -> float:
        return self.figure2.reference.mean_pops_per_as()

    def shape_checks(self) -> Dict[str, bool]:
        counts = self.pops_per_as()
        ordered = [counts[b] for b in sorted(counts)]
        return {
            "pops_fall_with_bandwidth": ordered == sorted(ordered, reverse=True),
            "reference_mean_above_city_bandwidth_mean": (
                self.reference_pops_per_as() > counts.get(CITY_BANDWIDTH_KM, 0.0)
            ),
            "kde_beats_dimes": (
                self.comparison.kde_mean_pops > 2 * self.comparison.dimes_mean_pops
            ),
            "kde_superset_of_dimes_mostly": self.comparison.superset_fraction >= 0.6,
        }

    def render(self) -> str:
        counts = self.pops_per_as()
        rows = [
            (
                int(bandwidth),
                round(counts[bandwidth], 2),
                PAPER_POPS_PER_AS.get(bandwidth, float("nan")),
            )
            for bandwidth in sorted(counts)
        ]
        table = render_table(
            ("BW(km)", "PoPs/AS measured", "PoPs/AS paper"),
            rows,
            title="Section 5a: mean identified PoPs per AS",
        )
        kv = render_kv(
            [
                ("reference PoPs/AS (measured)", round(self.reference_pops_per_as(), 2)),
                ("reference PoPs/AS (paper)", PAPER_REFERENCE_POPS_PER_AS),
                ("common ASes with DIMES", self.comparison.common_as_count),
                ("KDE PoPs/AS (measured)", round(self.comparison.kde_mean_pops, 2)),
                ("KDE PoPs/AS (paper)", PAPER_DIMES.kde_mean_pops),
                ("DIMES PoPs/AS (measured)", round(self.comparison.dimes_mean_pops, 2)),
                ("DIMES PoPs/AS (paper)", PAPER_DIMES.dimes_mean_pops),
                ("KDE superset fraction (measured)", round(self.comparison.superset_fraction, 2)),
                ("KDE superset fraction (paper)", PAPER_DIMES.superset_fraction),
            ],
            title="Section 5b: DIMES comparison",
        )
        return table + "\n" + kv


def run_section5(
    scenario: Scenario,
    bandwidths_km: Tuple[float, ...] = FIGURE2_BANDWIDTHS_KM,
    reference_config: ReferenceConfig = ReferenceConfig(),
    dimes_config: DimesConfig = DimesConfig(),
    figure2: Optional[Figure2Result] = None,
    parallel: ParallelConfig = ParallelConfig(),
) -> Section5Result:
    """Run both Section 5 comparisons (reusing a Figure 2 result when
    the caller already computed one).  ``parallel`` schedules every
    footprint batch on the ``repro.exec`` engine."""
    if figure2 is None:
        figure2 = run_figure2(
            scenario,
            bandwidths_km=bandwidths_km,
            reference_config=reference_config,
            parallel=parallel,
        )
    target_asns = scenario.eyeball_target_asns()
    dimes = run_dimes_campaign(scenario.ecosystem, target_asns, dimes_config)
    common = sorted(set(target_asns) & set(dimes.pops))
    kde_pops = scenario.peak_location_sets(
        common, CITY_BANDWIDTH_KM, parallel=parallel
    )
    comparison = compare_with_dimes(kde_pops, dimes)
    return Section5Result(figure2=figure2, dimes=dimes, comparison=comparison)
