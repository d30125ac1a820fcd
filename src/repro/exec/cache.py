"""Content-addressed on-disk artifact cache.

Footprint runs are re-executed far more often than their inputs change:
geolocation databases drift over time and disagree per prefix, so a
re-run against a refreshed geo input typically changes the peer
coordinates of a *fraction* of the 1233 target ASes.  This cache makes
the unchanged majority free.

Each :class:`~repro.exec.jobs.FootprintJob` is addressed by a SHA-256
digest of everything its result depends on:

* the peer coordinate arrays (raw float64 bytes, shape included) and
  optional weights,
* the kernel bandwidth, grid cell size, contour level and alpha,
* the KDE method string,
* a fingerprint of the gazetteer (peak→city mapping input),
* the code-version salt :data:`CODE_SALT` (bumped whenever the
  footprint algorithm or the artifact layout changes).

Identical inputs hit; any changed input — a single moved peer, a new
bandwidth, a different alpha, a new code version — misses and
recomputes.  The ASN is not an input: two ASes with the same peers
share an entry, and the engine relabels a served artifact with the
requesting job's ASN.  Entries are pickled artifacts written atomically
(temp file + rename); a corrupt or unreadable entry is *evicted* and
recomputed, never fatal.  Hit/miss/write/evict counts flow into
``repro.obs`` under ``exec.cache.*``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..geo.gazetteer import Gazetteer
from ..obs import telemetry as obs
from .jobs import FootprintArtifact, FootprintJob

#: Version salt folded into every key.  Bump on ANY change to the
#: footprint algorithm (KDE, contouring, peak detection, PoP mapping)
#: or to the artifact layout — stale entries then miss instead of
#: serving results computed by old code.
CODE_SALT = "repro-footprint/v3"

#: On-disk entry suffix.
ENTRY_SUFFIX = ".pkl"


def _hash_float(digest: "hashlib._Hash", value: Optional[float]) -> None:
    """Feed a float (or its absence) into the digest unambiguously."""
    if value is None:
        digest.update(b"\x00none")
    else:
        digest.update(struct.pack("<d", float(value)))


def _hash_array(digest: "hashlib._Hash", array: Optional[np.ndarray]) -> None:
    """Feed an array's dtype, shape and raw bytes into the digest."""
    if array is None:
        digest.update(b"\x00none")
        return
    contiguous = np.ascontiguousarray(array, dtype=float)
    digest.update(str(contiguous.shape).encode())
    digest.update(contiguous.tobytes())


def gazetteer_fingerprint(gazetteer: Gazetteer) -> str:
    """A stable digest of the peak→city mapping input.

    Two scenarios can produce identical peer coordinates over different
    worlds; without this fingerprint their PoP artifacts would collide.
    The fingerprint covers every city's identity, coordinates and
    population — exactly the attributes
    :meth:`~repro.geo.gazetteer.Gazetteer.most_populated_within`
    consults.
    """
    digest = hashlib.sha256(b"gazetteer/v1")
    for city in gazetteer.world.cities:
        digest.update(
            f"{city.country_code}/{city.state_code}/{city.name}".encode()
        )
        _hash_float(digest, city.lat)
        _hash_float(digest, city.lon)
        _hash_float(digest, float(city.population))
    return digest.hexdigest()


def job_key(job: FootprintJob, gazetteer_digest: str) -> str:
    """The content address of one job (hex SHA-256).

    ``gazetteer_digest`` is :func:`gazetteer_fingerprint` of the
    gazetteer the job will map peaks against.
    """
    digest = hashlib.sha256()
    digest.update(CODE_SALT.encode())
    digest.update(b"\x1f")
    digest.update(gazetteer_digest.encode())
    digest.update(b"\x1f")
    digest.update(job.method.encode())
    _hash_float(digest, job.bandwidth_km)
    _hash_float(digest, job.cell_km)
    _hash_float(digest, job.alpha)
    _hash_float(digest, job.contour_level)
    _hash_array(digest, job.lats)
    _hash_array(digest, job.lons)
    _hash_array(digest, job.weights)
    return digest.hexdigest()


class ArtifactCache:
    """Filesystem-backed artifact store addressed by content digest.

    Entries live at ``<root>/<key[:2]>/<key>.pkl`` (two-level sharding
    keeps directories small at the 1233-AS × several-bandwidth scale).
    The class is deliberately dumb: no locking, no TTLs — keys are
    content addresses, so concurrent writers can only ever write the
    same bytes, and last-write-wins via atomic rename is safe.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _entry_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{ENTRY_SUFFIX}"

    def get(self, key: str) -> Optional[FootprintArtifact]:
        """The cached artifact for ``key``, or ``None`` on miss.

        A present-but-unreadable entry (truncated write, bit rot,
        foreign file) counts as a miss *and* an eviction: the entry is
        removed so the follow-up :meth:`put` rewrites it cleanly.
        """
        path = self._entry_path(key)
        try:
            payload = path.read_bytes()
        except OSError:
            obs.count("exec.cache.misses")
            return None
        try:
            artifact = pickle.loads(payload)
            if not isinstance(artifact, FootprintArtifact):
                raise TypeError(
                    f"cache entry holds {type(artifact).__name__}, "
                    "not FootprintArtifact"
                )
        except Exception:
            self._evict(path)
            obs.count("exec.cache.misses")
            return None
        obs.count("exec.cache.hits")
        return artifact

    def put(self, key: str, artifact: FootprintArtifact) -> Path:
        """Store ``artifact`` under ``key`` atomically."""
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=ENTRY_SUFFIX
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        obs.count("exec.cache.writes")
        return path

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
        obs.count("exec.cache.evictions")

    def entry_count(self) -> int:
        """Number of entries currently on disk (test/diagnostic aid)."""
        return sum(1 for _ in self.root.glob(f"*/*{ENTRY_SUFFIX}"))
