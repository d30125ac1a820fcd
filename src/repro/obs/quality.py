"""Data-quality telemetry: fixed-size streaming quantile digests.

Geolocation-database studies show geo-error distributions vary wildly
across networks, which is exactly the input drift a wall-time diff
cannot see.  A :class:`QuantileDigest` summarises a distribution we
care about — per-IP geo error km, per-AS peer counts, peak counts per
footprint — in **bounded memory**: values stream into a buffer that is
periodically compressed into at most ``max_centroids`` weighted
centroids, so observing 89 million values costs the same memory as
observing a thousand.

Accuracy model: quantiles are linearly interpolated over the centroid
cumulative weights; with the default 128 centroids the mid-quantiles
(p50/p90) of unimodal distributions are accurate to well under the
thresholds the drift gate uses, the exact ``min``/``max``/``count``/
``mean`` are tracked losslessly on the side, and compression is
deterministic (equal-weight chunking of the sorted centroids, extreme
centroids pinned) so equal runs produce equal digests.

Digests merge commutatively (centroids re-observed by weight), which
is what lets ``repro.exec`` workers ship their digests home inside
telemetry snapshots.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Tuple

#: The headline quantiles every serialised digest carries (the ones
#: the drift gate compares and ``stats`` prints).
HEADLINE_QUANTILES = (0.5, 0.9, 0.99)

#: Default centroid budget (fixed size regardless of stream length).
DEFAULT_MAX_CENTROIDS = 128


class QuantileDigest:
    """A fixed-size, mergeable, deterministic quantile sketch."""

    __slots__ = ("max_centroids", "count", "total", "min", "max",
                 "_centroids", "_buffer")

    def __init__(self, max_centroids: int = DEFAULT_MAX_CENTROIDS) -> None:
        if max_centroids < 8:
            raise ValueError("digest needs at least 8 centroids")
        self.max_centroids = int(max_centroids)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._centroids: List[Tuple[float, int]] = []  # (mean, weight)
        self._buffer: List[float] = []

    # -- ingest -------------------------------------------------------

    def observe(self, value: float) -> None:
        """Add one value to the stream."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._buffer.append(value)
        if len(self._buffer) >= 4 * self.max_centroids:
            self._compress()

    def observe_many(self, values: Iterable[float]) -> None:
        """Add every value of an iterable (numpy arrays welcome)."""
        for value in values:
            self.observe(value)

    def observe_array(self, values: Any) -> None:
        """Fold a whole numpy array in at C speed (the batch-pipeline
        ingest path).

        Side stats (count/total/min/max) stay exact.  Arrays small
        enough to fit the centroid budget enter as exact weight-1
        centroids — identical to :meth:`observe_many`; larger arrays are
        pre-compressed into at most ``max_centroids`` equal-count
        centroids (sorted, extremes pinned, deterministic) before the
        regular merge, trading per-value Python cost for one vectorised
        pass.  Still commutative up to compression, like :meth:`merge`.
        """
        import numpy as np

        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            return
        self.count += int(values.size)
        self.total += float(values.sum())
        self.min = min(self.min, float(values.min()))
        self.max = max(self.max, float(values.max()))
        if self._buffer:
            self._compress()  # fold pending scalar observations first
        ordered = np.sort(values)
        budget = self.max_centroids
        if ordered.size <= 2 * budget:
            self._centroids.extend((float(v), 1) for v in ordered)
        else:
            interior = ordered[1:-1]
            bounds = np.round(
                np.linspace(0, interior.size, budget - 1)
            ).astype(np.int64)
            weights = np.diff(bounds)
            keep = weights > 0
            starts = bounds[:-1][keep]
            sums = np.add.reduceat(interior, starts)
            means = sums / weights[keep]
            self._centroids.append((float(ordered[0]), 1))
            self._centroids.extend(
                (float(m), int(w)) for m, w in zip(means, weights[keep])
            )
            self._centroids.append((float(ordered[-1]), 1))
        self._centroids.sort()
        if len(self._centroids) > self.max_centroids:
            self._compress()

    def merge(self, other: "QuantileDigest") -> None:
        """Fold another digest in (commutative up to compression)."""
        self.merge_dict(other.to_dict())

    def merge_dict(self, data: Mapping[str, Any]) -> None:
        """Fold a serialised digest (a worker's) into this one."""
        incoming = int(data.get("count", 0))
        if incoming == 0:
            return
        self.count += incoming
        self.total += float(data.get("total", 0.0))
        self.min = min(self.min, float(data.get("min", math.inf)))
        self.max = max(self.max, float(data.get("max", -math.inf)))
        for mean, weight in data.get("centroids", ()):
            self._centroids.append((float(mean), int(weight)))
        self._centroids.sort()
        if len(self._centroids) > self.max_centroids:
            self._compress()

    # -- queries ------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1), interpolated over centroids."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        self._compress()
        centroids = self._centroids
        if len(centroids) == 1:
            return centroids[0][0]
        # Midpoint rank of each centroid over the cumulative weight.
        target = q * (self.count - 1)
        cumulative = 0.0
        previous_rank = None
        previous_mean = self.min
        for mean, weight in centroids:
            rank = cumulative + (weight - 1) / 2.0
            if target <= rank:
                if previous_rank is None:
                    return max(mean, self.min) if q == 0.0 else mean
                span = rank - previous_rank
                frac = (target - previous_rank) / span if span > 0 else 0.0
                return previous_mean + frac * (mean - previous_mean)
            cumulative += weight
            previous_rank = rank
            previous_mean = mean
        return self.max

    # -- serialisation ------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form: exact side stats + the centroid sketch."""
        self._compress()
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "quantiles": {
                _quantile_label(q): self.quantile(q)
                for q in HEADLINE_QUANTILES
            },
            "centroids": [[mean, weight] for mean, weight in self._centroids],
        }

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any],
        max_centroids: int = DEFAULT_MAX_CENTROIDS,
    ) -> "QuantileDigest":
        digest = cls(max_centroids=max_centroids)
        digest.merge_dict(data)
        return digest

    # -- internals ----------------------------------------------------

    def _compress(self) -> None:
        """Fold the buffer in; re-chunk down to the centroid budget.

        Deterministic: sort, then partition the weight mass into equal
        chunks and replace each chunk by its weighted mean.  The first
        and last centroids are pinned to single points so ``min``/
        ``max`` survive as exact centroids too.
        """
        if self._buffer:
            self._centroids.extend((value, 1) for value in self._buffer)
            self._buffer.clear()
            self._centroids.sort()
        if len(self._centroids) <= self.max_centroids:
            return
        centroids = self._centroids
        total_weight = sum(weight for _, weight in centroids)
        # Pin the extremes, chunk the interior.
        head, tail = centroids[0], centroids[-1]
        interior = centroids[1:-1]
        budget = self.max_centroids - 2
        interior_weight = total_weight - head[1] - tail[1]
        chunk_size = interior_weight / budget
        merged: List[Tuple[float, int]] = [head]
        acc_sum = 0.0
        acc_weight = 0
        boundary = chunk_size
        consumed = 0.0
        for mean, weight in interior:
            acc_sum += mean * weight
            acc_weight += weight
            consumed += weight
            if consumed >= boundary and acc_weight:
                merged.append((acc_sum / acc_weight, acc_weight))
                acc_sum = 0.0
                acc_weight = 0
                boundary += chunk_size
        if acc_weight:
            merged.append((acc_sum / acc_weight, acc_weight))
        merged.append(tail)
        self._centroids = merged


def _quantile_label(q: float) -> str:
    """``0.5 -> "p50"``, ``0.99 -> "p99"``."""
    scaled = q * 100.0
    if scaled.is_integer():
        return f"p{int(scaled)}"
    return "p" + f"{scaled:g}".replace(".", "_")


def observe(name: str, values: Iterable[float]) -> None:
    """Stream values into the named digest on the active registry.

    The data-quality counterpart of ``obs.count`` — a no-op under the
    null registry, so uninstrumented runs never pay for digesting.
    """
    from .telemetry import get_telemetry  # deferred: telemetry imports us

    telemetry = get_telemetry()
    if not telemetry.enabled:
        return
    telemetry.quality_observe(name, values)


def observe_array(name: str, values: Any) -> None:
    """Stream a whole numpy array into the named digest.

    The vectorised counterpart of :func:`observe` used by the columnar
    batch pipeline; see :meth:`QuantileDigest.observe_array` for the
    (bounded) pre-compression it applies to large arrays.
    """
    from .telemetry import get_telemetry  # deferred: telemetry imports us

    telemetry = get_telemetry()
    if not telemetry.enabled:
        return
    telemetry.quality_observe_array(name, values)
