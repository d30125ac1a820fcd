"""Bivariate Gaussian kernel density estimation (paper Section 3).

"We place a bivariate kernel function with a predefined bandwidth at the
geo-location of individual users of the AS.  The aggregation of these
kernel functions forms a function that estimates the overall user
density over the map."

The estimator is implemented from scratch on a projected km grid with
two evaluation strategies:

* ``direct`` — exact evaluation, O(n · cells); the reference
  implementation used by tests,
* ``fft`` — bin the points into the grid and convolve with a truncated
  Gaussian kernel via FFT; O(cells · log cells) regardless of n, the
  default for the millions-of-users scale the paper operates at.  The
  truncated kernel cannot reach a cell more than its radius from every
  occupied bin, so the density there is set to exactly 0 rather than
  left as FFT round-off (which peak finding would label as peaks).

The bandwidth is the Gaussian sigma in kilometres — the paper's tuning
parameter for the resolution of the geo-footprint (Figure 1).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import fft as sp_fft
from scipy import ndimage

from ..geo.projection import LocalProjection
from ..obs import telemetry as obs
from .grid import DensityGrid

#: Kernel support radius in sigmas for the FFT path; beyond this the
#: Gaussian contributes < 1e-7 of its peak.
KERNEL_TRUNCATION_SIGMAS = 5.0

#: Default grid resolution relative to the bandwidth.  Four cells per
#: sigma keeps binning error far below the smoothing scale.
DEFAULT_CELLS_PER_BANDWIDTH = 4.0


def _grid_geometry(
    x: np.ndarray,
    y: np.ndarray,
    bandwidth_km: float,
    cell_km: float,
    padding_km: float,
):
    x_min = float(x.min()) - padding_km
    x_max = float(x.max()) + padding_km
    y_min = float(y.min()) - padding_km
    y_max = float(y.max()) + padding_km
    nx = max(int(np.ceil((x_max - x_min) / cell_km)), 1)
    ny = max(int(np.ceil((y_max - y_min) / cell_km)), 1)
    return x_min, y_min, nx, ny


def compute_kde(
    lats: np.ndarray,
    lons: np.ndarray,
    bandwidth_km: float,
    cell_km: Optional[float] = None,
    weights: Optional[np.ndarray] = None,
    method: str = "fft",
    projection: Optional[LocalProjection] = None,
) -> DensityGrid:
    """Estimate the user density of one AS.

    Parameters mirror the paper's method: ``bandwidth_km`` is the
    Gaussian kernel bandwidth; the grid covers the samples' bounding box
    plus a :data:`KERNEL_TRUNCATION_SIGMAS`-bandwidth margin so the
    estimate integrates to ~1.  ``weights`` (optional, non-negative)
    allow weighted samples; they are normalised internally.

    Returns a :class:`~repro.core.grid.DensityGrid` whose values are a
    probability density per km².
    """
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    if lats.size == 0:
        raise ValueError("KDE needs at least one sample")
    if lats.shape != lons.shape:
        raise ValueError("lats and lons must be parallel arrays")
    if bandwidth_km <= 0:
        raise ValueError("bandwidth must be positive")
    if method not in ("fft", "direct"):
        raise ValueError(f"unknown KDE method {method!r}")
    if cell_km is None:
        cell_km = bandwidth_km / DEFAULT_CELLS_PER_BANDWIDTH
    if cell_km <= 0:
        raise ValueError("cell size must be positive")

    if weights is None:
        w = np.full(lats.size, 1.0 / lats.size)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != lats.shape:
            raise ValueError("weights must be parallel to the samples")
        if np.any(w < 0):
            raise ValueError("weights cannot be negative")
        total = w.sum()
        if total <= 0:
            raise ValueError("weights must have positive sum")
        w = w / total

    with obs.span("kde.evaluate"):
        projection = projection or LocalProjection.for_points(lats, lons)
        x, y = projection.forward(lats, lons)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        padding = KERNEL_TRUNCATION_SIGMAS * bandwidth_km
        x_min, y_min, nx, ny = _grid_geometry(x, y, bandwidth_km, cell_km, padding)

        if method == "direct":
            values = _direct_kde(
                x, y, w, bandwidth_km, x_min, y_min, nx, ny, cell_km
            )
        else:
            values = _fft_kde(x, y, w, bandwidth_km, x_min, y_min, nx, ny, cell_km)
        # Numerical noise from the FFT can leave tiny negatives.
        np.clip(values, 0.0, None, out=values)
        obs.count("kde.evaluations")
        obs.count("kde.samples", int(x.size))
        obs.count("kde.cells", int(nx) * int(ny))
        return DensityGrid(
            projection=projection, x_min=x_min, y_min=y_min, cell_km=cell_km,
            values=values,
        )


def _direct_kde(
    x: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    h: float,
    x_min: float,
    y_min: float,
    nx: int,
    ny: int,
    cell_km: float,
) -> np.ndarray:
    """Exact KDE: evaluate every kernel at every cell centre.

    Evaluated in row blocks to bound peak memory at
    ``O(block · n_samples)``.
    """
    xc = x_min + (np.arange(nx) + 0.5) * cell_km
    yc = y_min + (np.arange(ny) + 0.5) * cell_km
    norm = 1.0 / (2.0 * np.pi * h * h)
    inv_two_h2 = 1.0 / (2.0 * h * h)
    values = np.empty((ny, nx), dtype=float)
    # Row block sized so the temporary stays around ~8M floats.
    block = max(1, int(8_000_000 / max(x.size * nx, 1)))
    dx2 = (xc[None, :] - x[:, None]) ** 2  # (n, nx)
    for start in range(0, ny, block):
        stop = min(start + block, ny)
        dy2 = (yc[start:stop][None, :] - y[:, None]) ** 2  # (n, rows)
        # sum_i w_i * exp(-(dx2_i + dy2_i) / 2h^2), per (row, col)
        contrib = np.einsum(
            "ir,ic->rc",
            np.exp(-dy2 * inv_two_h2) * w[:, None],
            np.exp(-dx2 * inv_two_h2),
        )
        values[start:stop] = contrib * norm
    return values


def _fft_kde(
    x: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    h: float,
    x_min: float,
    y_min: float,
    nx: int,
    ny: int,
    cell_km: float,
) -> np.ndarray:
    """Binned KDE: weight histogram convolved with a truncated Gaussian.

    Cells farther than the kernel radius from every occupied bin are
    exactly 0 in the binned estimate; they are zeroed here instead of
    keeping the convolution's ~1e-17 round-off.
    """
    x_edges = x_min + np.arange(nx + 1) * cell_km
    y_edges = y_min + np.arange(ny + 1) * cell_km
    hist, _, _ = np.histogram2d(y, x, bins=(y_edges, x_edges), weights=w)
    radius_cells = int(np.ceil(KERNEL_TRUNCATION_SIGMAS * h / cell_km))
    offsets = np.arange(-radius_cells, radius_cells + 1) * cell_km
    gauss_1d = np.exp(-(offsets**2) / (2.0 * h * h))
    kernel = np.outer(gauss_1d, gauss_1d) / (2.0 * np.pi * h * h)
    values = _convolve_same(hist, kernel)
    reachable = ndimage.maximum_filter(
        hist > 0, size=2 * radius_cells + 1, mode="constant", cval=False
    )
    values[~reachable] = 0.0
    return values


def _convolve_same(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Linear 2-D convolution cropped to ``image``'s shape, centred.

    The steps of ``scipy.signal.fftconvolve(image, kernel, mode="same")``
    on real inputs, through :mod:`scipy.fft` alone (``scipy.signal``
    costs about half a second to import).  The output is bitwise equal
    whenever every axis is longer than 1, as on every KDE grid with
    cells finer than ten bandwidths.
    """
    full = [a + b - 1 for a, b in zip(image.shape, kernel.shape)]
    fast = [sp_fft.next_fast_len(n, True) for n in full]
    spectrum = sp_fft.rfftn(image, fast) * sp_fft.rfftn(kernel, fast)
    product = sp_fft.irfftn(spectrum, fast)
    start = [(n - a) // 2 for n, a in zip(full, image.shape)]
    return product[
        start[0]:start[0] + image.shape[0],
        start[1]:start[1] + image.shape[1],
    ].copy()


def kde_at_points(
    sample_lats: np.ndarray,
    sample_lons: np.ndarray,
    bandwidth_km: float,
    query_lats: np.ndarray,
    query_lons: np.ndarray,
    projection: Optional[LocalProjection] = None,
) -> np.ndarray:
    """Exact KDE evaluated at arbitrary query points (no grid).

    Used by tests as ground truth and by callers needing densities at a
    handful of locations (e.g. candidate PoP sites).
    """
    sample_lats = np.asarray(sample_lats, dtype=float)
    sample_lons = np.asarray(sample_lons, dtype=float)
    if sample_lats.size == 0:
        raise ValueError("KDE needs at least one sample")
    if bandwidth_km <= 0:
        raise ValueError("bandwidth must be positive")
    projection = projection or LocalProjection.for_points(sample_lats, sample_lons)
    sx, sy = projection.forward(sample_lats, sample_lons)
    qx, qy = projection.forward(
        np.asarray(query_lats, dtype=float), np.asarray(query_lons, dtype=float)
    )
    sx = np.atleast_1d(np.asarray(sx, dtype=float))
    sy = np.atleast_1d(np.asarray(sy, dtype=float))
    qx = np.atleast_1d(np.asarray(qx, dtype=float))
    qy = np.atleast_1d(np.asarray(qy, dtype=float))
    inv_two_h2 = 1.0 / (2.0 * bandwidth_km * bandwidth_km)
    norm = 1.0 / (2.0 * np.pi * bandwidth_km * bandwidth_km * sx.size)
    d2 = (qx[:, None] - sx[None, :]) ** 2 + (qy[:, None] - sy[None, :]) ** 2
    return norm * np.exp(-d2 * inv_two_h2).sum(axis=1)
