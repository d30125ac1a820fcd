"""Dataset lineage: funnel-stage accounting with a conservation law.

The paper's result is the output of an aggressive data funnel — 89.1M
crawled IPs shrink to 48M peers in 1233 eyeball ASes through
city-record drops, geo-error thresholds and the <1000-peer cutoff.  A
silently shifted drop rate changes Table 1 without failing anything,
so every dropping/aggregating site records a :class:`FunnelStage`:
records in, records out, and a per-reason breakdown of the difference,
under the conservation invariant

    ``records_in == records_out + sum(drops.values())``

checked on every :func:`record_stage` call *and* again at snapshot
time (a merge bug in parallel runs must not survive serialisation).

Drop reasons are a **closed enum** (:class:`DropReason`): reprolint's
REP403 flags any raw ``obs.count("*dropped*")`` call site outside
``repro.obs``, so new drop accounting cannot bypass the funnel.

Like spans, stages aggregate: recording ``pipeline.mapping`` once per
chunk (or merging worker snapshots) adds records and drops into one
stage, and the conservation law is preserved by addition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Mapping, Optional, Union


class DropReason(str, Enum):
    """The closed vocabulary of reasons a record may leave the funnel."""

    #: crawl: the user was never observed by any application's crawl.
    NOT_OBSERVED = "not_observed"
    #: mapping: no city-level record in one of the two geo databases.
    MISSING_RECORD = "missing_record"
    #: filtering: inter-database geo error over the metro-diameter cut.
    GEO_ERROR = "geo_error"
    #: grouping: the address matches no announced BGP prefix.
    UNROUTED = "unrouted"
    #: filtering: the AS has fewer peers than the density floor.
    AS_TOO_SMALL = "as_too_small"
    #: filtering: the AS's p90 geo error exceeds the 80 km gate.
    AS_ERROR_PERCENTILE = "as_error_percentile"
    #: footprints: a KDE peak below the alpha·Dmax selection threshold.
    BELOW_ALPHA = "below_alpha"

    def __str__(self) -> str:  # "geo_error", not "DropReason.GEO_ERROR"
        return self.value


ReasonLike = Union[DropReason, str]


class FunnelConservationError(ValueError):
    """A stage's records do not balance: ``in != out + sum(drops)``."""


def _reason_key(reason: ReasonLike) -> str:
    """Normalise a drop reason to its enum value, validating strings."""
    if isinstance(reason, DropReason):
        return reason.value
    return DropReason(str(reason)).value  # raises ValueError on unknowns


@dataclass
class FunnelStage:
    """One aggregated stage of the data funnel.

    A stage accumulates every :meth:`record` call made under its name:
    ``records_in``/``records_out`` add, and ``drops`` adds per reason —
    so the conservation law, checked per call, also holds for the sum.
    """

    name: str
    unit: str  # what is being counted: "users", "peers", "ases", ...
    records_in: int = 0
    records_out: int = 0
    drops: Dict[str, int] = field(default_factory=dict)

    def record(
        self,
        records_in: int,
        records_out: int,
        drops: Optional[Mapping[ReasonLike, int]] = None,
    ) -> None:
        """Accumulate one observation; raises unless records balance."""
        normalised = {
            _reason_key(reason): int(count)
            for reason, count in (drops or {}).items()
        }
        if any(count < 0 for count in normalised.values()):
            raise ValueError(f"stage {self.name!r}: negative drop count")
        if int(records_in) != int(records_out) + sum(normalised.values()):
            raise FunnelConservationError(
                f"stage {self.name!r}: {int(records_in)} in != "
                f"{int(records_out)} out + {sum(normalised.values())} "
                "dropped"
            )
        self.records_in += int(records_in)
        self.records_out += int(records_out)
        for reason, count in normalised.items():
            self.drops[reason] = self.drops.get(reason, 0) + count

    @property
    def dropped(self) -> int:
        return sum(self.drops.values())

    @property
    def retention(self) -> float:
        """``out / in`` (1.0 for an empty stage — nothing was lost)."""
        if self.records_in == 0:
            return 1.0
        return self.records_out / self.records_in

    def check_conservation(self) -> None:
        """Raise :class:`FunnelConservationError` unless balanced."""
        if self.records_in != self.records_out + self.dropped:
            raise FunnelConservationError(
                f"stage {self.name!r}: {self.records_in} in != "
                f"{self.records_out} out + {self.dropped} dropped"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; conservation is re-checked here so a merge
        bug can never serialise an unbalanced stage."""
        self.check_conservation()
        return {
            "stage": self.name,
            "unit": self.unit,
            "records_in": self.records_in,
            "records_out": self.records_out,
            "drops": dict(sorted(self.drops.items())),
            "retention": self.retention,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FunnelStage":
        stage = cls(
            name=str(data["stage"]),
            unit=str(data.get("unit", "")),
            records_in=int(data.get("records_in", 0)),
            records_out=int(data.get("records_out", 0)),
            drops={
                str(k): int(v) for k, v in data.get("drops", {}).items()
            },
        )
        return stage

    def merge(self, other: Mapping[str, Any]) -> None:
        """Fold a serialised stage (a worker's) into this one."""
        self.records_in += int(other.get("records_in", 0))
        self.records_out += int(other.get("records_out", 0))
        for reason, count in other.get("drops", {}).items():
            self.drops[str(reason)] = (
                self.drops.get(str(reason), 0) + int(count)
            )


def record_stage(
    name: str,
    *,
    unit: str,
    records_in: int,
    records_out: int,
    drops: Optional[Mapping[ReasonLike, int]] = None,
) -> None:
    """Record one funnel observation on the active registry.

    This is *the* lineage API (reprolint REP403 points raw drop-counter
    call sites here): a no-op under the null registry, conservation-
    checked otherwise.
    """
    from .telemetry import get_telemetry  # deferred: telemetry imports us

    telemetry = get_telemetry()
    if not telemetry.enabled:
        return
    telemetry.funnel_record(
        name,
        unit=unit,
        records_in=records_in,
        records_out=records_out,
        drops=drops,
    )


def render_funnel(stages: Any, indent: str = "") -> str:
    """Human waterfall of serialised funnel stages (report order).

    ``stages`` is the ``data_quality["funnel"]`` list of a run report —
    the same shape :meth:`FunnelStage.to_dict` emits.
    """
    lines = [
        f"{indent}{'stage':<36}{'unit':<8}{'in':>10}{'out':>10}"
        f"{'dropped':>9}{'kept':>8}"
    ]
    if not stages:
        lines.append(f"{indent}  (no funnel stages recorded)")
    for raw in stages:
        stage = FunnelStage.from_dict(raw)
        lines.append(
            f"{indent}{stage.name:<36}{stage.unit:<8}"
            f"{stage.records_in:>10}{stage.records_out:>10}"
            f"{stage.dropped:>9}{stage.retention:>8.1%}"
        )
        for reason in sorted(stage.drops):
            count = stage.drops[reason]
            if count:
                lines.append(f"{indent}  - {reason:<34}{count:>28}")
    return "\n".join(lines)
