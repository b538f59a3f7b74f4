"""Post-inference computations on sample sets: conditional-mean
reconstruction, per-coordinate marginals for uncertainty quantification,
PSNR/MSE, and pairwise diversity."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# KDE bandwidth for degenerate columns, and the KDE's grid size
_BANDWIDTH_FLOOR = 1e-4
_GRID_POINTS = 512


class EstimatorError(ValueError):
    pass


def _samples(x) -> np.ndarray:
    s = np.asarray(x, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] < 1:
        raise EstimatorError("samples must be a non-empty (n, d) array")
    return s


def mmse_estimate(samples) -> np.ndarray:
    """Coordinatewise sample mean: the Monte Carlo conditional expectation."""
    return _samples(samples).mean(axis=0)


def mse(x, x_ref) -> float:
    x = np.asarray(x, dtype=np.float64)
    x_ref = np.asarray(x_ref, dtype=np.float64)
    if x.shape != x_ref.shape:
        raise EstimatorError(f"mse: shapes {x.shape} vs {x_ref.shape}")
    d = x - x_ref
    return float(np.mean(d * d))


def psnr(x, x_ref, peak: float = 1.0) -> float:
    """10 log10(peak^2 / mse); returns +inf when the inputs coincide."""
    if peak <= 0.0:
        raise EstimatorError("peak must be positive")
    err = mse(x, x_ref)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / err)


def mse_decomposition(samples, x_ref):
    """(mean per-sample MSE, MSE of the mean, mean per-coordinate variance).

    The first equals the sum of the other two; this identity is what makes
    the sample mean dominate any single draw under squared loss.
    """
    s = _samples(samples)
    x_ref = np.asarray(x_ref, dtype=np.float64)
    per_sample = float(np.mean((s - x_ref[None, :]) ** 2))
    center = mse(s.mean(axis=0), x_ref)
    spread = float(np.mean(s.var(axis=0)))
    return per_sample, center, spread


def diversity(samples) -> float:
    """Mean pairwise l2 distance, normalized by sqrt(d)."""
    s = _samples(samples)
    n, d = s.shape
    if n < 2:
        raise EstimatorError("diversity needs at least two samples")
    total = 0.0
    count = 0
    for i in range(n - 1):
        diff = s[i + 1:] - s[i]
        total += float(np.sum(np.sqrt(np.sum(diff * diff, axis=1))))
        count += diff.shape[0]
    return total / count / math.sqrt(d)


@dataclass
class PixelMarginal:
    coordinate: int
    bin_edges: np.ndarray
    counts: np.ndarray
    grid: np.ndarray
    density: np.ndarray
    mean: float
    variance: float
    bandwidth: float


def silverman_bandwidth(values: np.ndarray) -> float:
    """Rule-of-thumb kernel width 0.9 min(std, IQR/1.34) n^(-1/5), floored
    for degenerate samples."""
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    if n < 2:
        return _BANDWIDTH_FLOOR
    std = float(v.std(ddof=1))
    q75, q25 = np.percentile(v, [75.0, 25.0])
    iqr = float(q75 - q25)
    scale = min(std, iqr / 1.34) if iqr > 0.0 else std
    return max(0.9 * scale * n ** (-0.2), _BANDWIDTH_FLOOR)


def pixel_marginal(samples, coordinate: int, bins: int = 50) -> PixelMarginal:
    """Histogram plus Gaussian kernel density of one coordinate's draws."""
    s = _samples(samples)
    if not 0 <= coordinate < s.shape[1]:
        raise EstimatorError(f"coordinate {coordinate} out of range")
    if bins < 2:
        raise EstimatorError("bins must be >= 2")
    v = s[:, coordinate]
    lo, hi = float(v.min()), float(v.max())
    if hi == lo:
        hi = lo + 1e-8
    counts, edges = np.histogram(v, bins=bins, range=(lo, hi))
    bw = silverman_bandwidth(v)
    grid = np.linspace(lo - 4.0 * bw, hi + 4.0 * bw, _GRID_POINTS)
    z = (grid[:, None] - v[None, :]) / bw
    density = np.exp(-0.5 * z * z).mean(axis=1) / (bw * math.sqrt(2.0 * math.pi))
    return PixelMarginal(coordinate=coordinate, bin_edges=edges, counts=counts,
                         grid=grid, density=density, mean=float(v.mean()),
                         variance=float(v.var()), bandwidth=bw)


def export_pixel_marginal(pm: PixelMarginal, path) -> None:
    """Tabular export: (bin_left, bin_right, count) rows then (grid, kde) rows."""
    with open(path, "w", encoding="ascii") as f:
        f.write(f"# coordinate={pm.coordinate} mean={pm.mean!r} "
                f"variance={pm.variance!r} bandwidth={pm.bandwidth!r}\n")
        f.write("bin_left,bin_right,count\n")
        for i, c in enumerate(pm.counts):
            f.write(f"{float(pm.bin_edges[i])!r},"
                    f"{float(pm.bin_edges[i + 1])!r},{int(c)}\n")
        f.write("grid,kde\n")
        for g, d in zip(pm.grid, pm.density):
            f.write(f"{float(g)!r},{float(d)!r}\n")
