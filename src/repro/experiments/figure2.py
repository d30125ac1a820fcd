"""Experiment F2 — Figure 2: validation against published PoP lists.

Figure 2(a) plots, per AS, the CDF of the percentage of ground-truth
(web-published) PoPs matched by the KDE-discovered PoPs, for kernel
bandwidths of 10, 40 and 80 km.  Figure 2(b) plots the opposite view —
the percentage of discovered PoPs that match a ground-truth PoP.

Paper shape targets:

* smaller bandwidths match *more* ground-truth PoPs (recall curves
  shift right as bandwidth decreases);
* larger bandwidths give *more reliable* PoPs: the fraction of ASes
  with a perfect Figure 2(b) match is 60% at 80 km, 41% at 40 km and
  5% at 10 km — monotone in bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.bandwidth import FIGURE2_BANDWIDTHS_KM
from ..exec import ParallelConfig
from ..geo.regions import RegionLevel
from ..validation.matching import (
    MATCH_RADIUS_KM,
    ValidationReport,
    match_pop_sets,
)
from ..validation.reference import (
    ReferenceConfig,
    ReferenceDataset,
    build_reference_dataset,
    select_reference_ases,
)
from .report import render_cdf, render_table
from .scenario import Scenario

#: Paper: fraction of ASes with a perfect Figure 2(b) match.
PAPER_PERFECT_PRECISION: Dict[float, float] = {80.0: 0.60, 40.0: 0.41, 10.0: 0.05}


@dataclass
class Figure2Result:
    """Validation reports per bandwidth, plus the reference dataset."""

    reports: Dict[float, ValidationReport]
    reference: ReferenceDataset
    match_radius_km: float

    def report_at(self, bandwidth_km: float) -> ValidationReport:
        return self.reports[bandwidth_km]

    def shape_checks(self) -> Dict[str, bool]:
        bandwidths = sorted(self.reports)
        recalls = [float(self.reports[b].recalls().mean()) for b in bandwidths]
        perfect = [
            self.reports[b].perfect_precision_fraction() for b in bandwidths
        ]
        pop_means = [self.reports[b].mean_inferred_pops() for b in bandwidths]
        return {
            "recall_decreases_with_bandwidth": (
                recalls == sorted(recalls, reverse=True)
            ),
            "perfect_precision_increases_with_bandwidth": (
                perfect == sorted(perfect)
            ),
            "pop_count_decreases_with_bandwidth": (
                pop_means == sorted(pop_means, reverse=True)
            ),
            "reference_lists_longer_than_inferred": all(
                self.reports[b].mean_reference_pops()
                > self.reports[b].mean_inferred_pops()
                for b in bandwidths
                if b >= 40.0
            ),
        }

    def render(self) -> str:
        headers = (
            "BW(km)",
            "ASes",
            "PoPs/AS",
            "ref PoPs/AS",
            "mean recall",
            "mean precision",
            "perfect-prec",
            "paper perfect-prec",
        )
        rows: List[Tuple] = []
        for bandwidth in sorted(self.reports):
            report = self.reports[bandwidth]
            rows.append(
                (
                    int(bandwidth),
                    len(report),
                    round(report.mean_inferred_pops(), 2),
                    round(report.mean_reference_pops(), 2),
                    round(float(report.recalls().mean()), 3),
                    round(float(report.precisions().mean()), 3),
                    round(report.perfect_precision_fraction(), 3),
                    PAPER_PERFECT_PRECISION.get(bandwidth, float("nan")),
                )
            )
        table = render_table(headers, rows, title="Figure 2: PoP validation")
        cdfs = []
        for bandwidth in sorted(self.reports):
            report = self.reports[bandwidth]
            cdfs.append(render_cdf(report.recalls(), f"2(a) recall    BW={int(bandwidth):>2}km"))
        for bandwidth in sorted(self.reports):
            report = self.reports[bandwidth]
            cdfs.append(render_cdf(report.precisions(), f"2(b) precision BW={int(bandwidth):>2}km"))
        return table + "\n" + "\n".join(cdfs)


def reference_for_scenario(
    scenario: Scenario, config: ReferenceConfig = ReferenceConfig()
) -> ReferenceDataset:
    """Build the published-PoP reference dataset for a scenario.

    Candidates are the target-dataset ASes classified at state or
    country level, like the paper's 672-candidate search that yielded
    PoP pages for 45 ASes.
    """
    levels = {
        asn: target.level for asn, target in scenario.dataset.ases.items()
    }
    candidates = [
        asn
        for asn, level in levels.items()
        if level in (RegionLevel.STATE, RegionLevel.COUNTRY, RegionLevel.CONTINENT)
    ]
    selected = select_reference_ases(
        scenario.ecosystem, candidates, levels=levels, config=config
    )
    return build_reference_dataset(scenario.ecosystem, selected, config)


def run_figure2(
    scenario: Scenario,
    bandwidths_km: Tuple[float, ...] = FIGURE2_BANDWIDTHS_KM,
    reference_config: ReferenceConfig = ReferenceConfig(),
    match_radius_km: float = MATCH_RADIUS_KM,
    parallel: ParallelConfig = ParallelConfig(),
) -> Figure2Result:
    """Reproduce Figure 2 over a scenario.

    ``parallel`` (worker fan-out / artifact cache) schedules the
    per-bandwidth footprint batches; results are identical for every
    config.
    """
    reference = reference_for_scenario(scenario, reference_config)
    asns = sorted(reference.pops)
    reports: Dict[float, ValidationReport] = {}
    for bandwidth in bandwidths_km:
        inferred_sets = scenario.peak_location_sets(
            asns, bandwidth, parallel=parallel
        )
        results = {}
        for asn in asns:
            results[asn] = match_pop_sets(
                inferred_sets[asn], reference.coordinates_of(asn), match_radius_km
            )
        reports[bandwidth] = ValidationReport(
            bandwidth_km=bandwidth, results=results
        )
    return Figure2Result(
        reports=reports, reference=reference, match_radius_km=match_radius_km
    )
