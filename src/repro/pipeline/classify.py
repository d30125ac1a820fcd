"""AS geographic-level classification (paper Section 2).

"We can broadly classify all ASes in this target dataset into city-,
state-, country-, continent-level, or global ASes by identifying the
smallest geographical region that contains a large majority (>95%) of
the associated peers."

Region membership is taken from the primary geo database's
administrative names, so classification sees exactly what the paper's
pipeline saw — including database mistakes.

The decision itself lives in :func:`classify_from_counts`, which works
on per-region *count* dictionaries — the shape both the exact driver
(counts from one AS's peer columns) and summary mode (counts merged
across chunks, see :mod:`repro.pipeline.stream`) produce, so the two
modes cannot drift.  Ties break towards the
lexicographically smallest region name (the historical
``np.unique``-then-``argmax`` behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..geo.regions import RegionLevel
from ..obs import quality
from ..obs import telemetry as obs
from .grouping import ASPeerGroup

CONTAINMENT_THRESHOLD = 0.95


@dataclass(frozen=True)
class ASClassification:
    """An AS's level plus the region that earns it."""

    level: RegionLevel
    region_name: Optional[str]  # None for GLOBAL
    containment: float  # fraction of peers inside the region


def classify_from_counts(
    level_counts: Sequence[Tuple[RegionLevel, Dict[str, int]]],
    total: int,
    threshold: float = CONTAINMENT_THRESHOLD,
) -> ASClassification:
    """Smallest-enclosing-region decision over per-level region counts.

    ``level_counts`` lists ``(level, {region name: peers})`` from the
    most specific level outward; the first level whose majority region
    holds a share strictly above ``threshold`` wins, else GLOBAL.
    Records the ``pipeline.classified.*`` counter and the containment
    quality observation for whichever level wins.
    """
    if total <= 0:
        raise ValueError("cannot classify an AS with no peers")
    if not 0.5 < threshold <= 1.0:
        raise ValueError("threshold must be in (0.5, 1]")
    for level, counts in level_counts:
        name = min(counts, key=lambda key: (-counts[key], key))
        share = counts[name] / total
        if share > threshold:
            obs.count(f"pipeline.classified.{level.name.lower()}")
            quality.observe("classification_containment", (share,))
            return ASClassification(
                level=level, region_name=name, containment=share
            )
    obs.count("pipeline.classified.global")
    quality.observe("classification_containment", (1.0,))
    return ASClassification(
        level=RegionLevel.GLOBAL, region_name=None, containment=1.0
    )


def _counts(values: np.ndarray) -> Dict[str, int]:
    """Region-name occurrence counts for one peer column."""
    uniq, counts = np.unique(values.astype(str), return_counts=True)
    return {str(name): int(count) for name, count in zip(uniq, counts)}


def classify_group(
    group: ASPeerGroup, threshold: float = CONTAINMENT_THRESHOLD
) -> ASClassification:
    """Classify one AS by the 95% smallest-enclosing-region rule."""
    if len(group) == 0:
        raise ValueError("cannot classify an AS with no peers")
    peers = group.peers
    city_keys = np.array(
        [f"{c}/{s}/{x}" for c, s, x in zip(peers.country, peers.state, peers.city)],
        dtype=object,
    )
    state_keys = np.array(
        [f"{c}/{s}" for c, s in zip(peers.country, peers.state)], dtype=object
    )
    level_counts = (
        (RegionLevel.CITY, _counts(city_keys)),
        (RegionLevel.STATE, _counts(state_keys)),
        (RegionLevel.COUNTRY, _counts(peers.country)),
        (RegionLevel.CONTINENT, _counts(peers.continent)),
    )
    return classify_from_counts(level_counts, len(group), threshold)
