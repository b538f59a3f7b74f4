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
# diversity's row block, and the share of the block's squared norms below
# which a Gram-identity distance is recomputed from the row difference
_BLOCK_ROWS = 64
_CANCELLATION = 1e-6
# the KDE's grid rows per block, and the floor on exp's argument: numpy's
# exp is 13-90x slower where its result is subnormal or 0, and exp(-700)
# is below 1e-304
_KDE_BLOCK = 16
_EXP_FLOOR = -700.0
# a kernel term left out of the KDE is at most this share, over n^2, of the
# grid's largest kernel sum
_KDE_DROPPED = 1e-16


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
    """Mean pairwise l2 distance over all n(n-1)/2 pairs, normalized by
    sqrt(d).

    Blocks of rows of the mean-centred samples meet every later row
    through one matrix product, d^2 = |a|^2 + |b|^2 - 2 a.b.  Where that
    subtraction may have cancelled (d^2 below ``_CANCELLATION`` times the
    block's largest squared norms), d^2 is recomputed from the exact row
    difference, so identical rows still give 0.  Memory stays
    O(``_BLOCK_ROWS`` * n).
    """
    s = _samples(samples)
    n, d = s.shape
    if n < 2:
        raise EstimatorError("diversity needs at least two samples")
    c = s - s.mean(axis=0)
    sq = np.einsum("ij,ij->i", c, c)
    # [a, |a|^2, 1] . [-2b, 1, |b|^2] is the Gram identity in one product
    left = np.column_stack([c, sq, np.ones(n)])
    right = np.vstack([-2.0 * c.T, np.ones(n), sq])
    # row k of a block pairs only with the rows after it
    below = np.tril(np.ones((_BLOCK_ROWS, _BLOCK_ROWS), dtype=bool))
    total = 0.0
    for i in range(0, n - 1, _BLOCK_ROWS):
        b = min(_BLOCK_ROWS, n - i)
        d2 = np.matmul(left[i:i + b], right[:, i:])
        d2[:, :b][below[:b, :b]] = np.inf   # kept out of the zone search
        zone = _CANCELLATION * (sq[i:i + b].max() + sq[i:].max())
        rows = np.flatnonzero(d2.min(axis=1) <= zone)
        hit, cols = np.nonzero(d2[rows] <= zone)
        rows = rows[hit]
        diff = c[i + rows] - c[i + cols]
        d2[rows, cols] = np.einsum("ij,ij->i", diff, diff)
        d2[:, :b][below[:b, :b]] = 0.0
        total += float(np.sqrt(d2, out=d2).sum())
    return total / (n * (n - 1) / 2) / math.sqrt(d)


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


def _sorted_quantile(ordered: np.ndarray, q: float) -> float:
    """numpy's linear percentile at fraction 0 <= ``q`` < 1 of draws
    ``ordered`` in ascending order, bit for bit: the value at virtual index
    q (n - 1), interpolated from below, or from above when the fraction is
    >= 0.5."""
    index = (len(ordered) - 1) * q
    lo = math.floor(index)
    t = index - lo
    a, b = float(ordered[lo]), float(ordered[lo + 1])
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def silverman_bandwidth(values: np.ndarray, ordered: np.ndarray | None = None) -> float:
    """Rule-of-thumb kernel width 0.9 min(std, IQR/1.34) n^(-1/5), floored
    for degenerate samples.  ``ordered``, the values sorted, gives the
    quartiles when the caller holds it; the std is taken on ``values``."""
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    if n < 2:
        return _BANDWIDTH_FLOOR
    std = float(v.std(ddof=1))
    if ordered is None:
        ordered = np.sort(v)
    iqr = _sorted_quantile(ordered, 0.75) - _sorted_quantile(ordered, 0.25)
    scale = min(std, iqr / 1.34) if iqr > 0.0 else std
    return max(0.9 * scale * n ** (-0.2), _BANDWIDTH_FLOOR)


def pixel_marginal(samples, coordinate: int, bins: int = 50) -> PixelMarginal:
    """Histogram plus Gaussian kernel density of one coordinate's draws.

    The column is sorted once: its ends are the histogram's range, it
    gives the bandwidth's quartiles, and the KDE reads, for each block of
    grid rows, only the draws its kernel can reach.  The mean, the variance
    and the bandwidth's std are computed on the column as drawn.
    """
    s = _samples(samples)
    if not 0 <= coordinate < s.shape[1]:
        raise EstimatorError(f"coordinate {coordinate} out of range")
    if bins < 2:
        raise EstimatorError("bins must be >= 2")
    v = s[:, coordinate]
    ordered = np.sort(v)
    lo, hi = float(ordered[0]), float(ordered[-1])
    if not (math.isfinite(lo) and math.isfinite(hi)):     # NaN sorts last
        raise EstimatorError(f"coordinate {coordinate} holds a non-finite draw")
    if hi == lo:
        hi = lo + 1e-8
    counts, edges = np.histogram(ordered, bins=bins, range=(lo, hi))
    bw = silverman_bandwidth(v, ordered)
    grid = np.linspace(lo - 4.0 * bw, hi + 4.0 * bw, _GRID_POINTS)
    return PixelMarginal(coordinate=coordinate, bin_edges=edges, counts=counts,
                         grid=grid, density=_gaussian_kde(ordered, grid, bw),
                         mean=float(v.mean()), variance=float(v.var()),
                         bandwidth=bw)


def _gaussian_kde(ordered: np.ndarray, grid: np.ndarray, bw: float) -> np.ndarray:
    """mean_j exp(-(g - v_j)^2 / (2 bw^2)) / (bw sqrt(2 pi)) at each point g
    of an evenly spaced grid, from draws ``ordered`` in ascending order.

    Each block of grid rows sums only the contiguous run of draws within
    R = sqrt(spacing^2 / 4 + 2 bw^2 ln(n^2 / _KDE_DROPPED)) of the block.
    Every draw lies within spacing / 2 of a grid point, so the largest
    kernel sum on the grid is at least exp(-spacing^2 / (8 bw^2)), and each
    term left out is below that times _KDE_DROPPED / n^2: at any grid point
    the n terms left out sum to at most _KDE_DROPPED / n of the grid's
    largest density, however far out the draws or coarse the grid.
    """
    n = len(ordered)
    spacing = float(grid[1] - grid[0])
    reach = math.sqrt(0.25 * spacing * spacing
                      + 2.0 * bw * bw * math.log(n * n / _KDE_DROPPED))
    # the block of rows i:j reads ordered[a:z], the draws within reach of it
    starts = np.arange(0, len(grid), _KDE_BLOCK)
    ends = np.minimum(starts + _KDE_BLOCK, len(grid))
    first = np.searchsorted(ordered, grid[starts] - reach, side="left")
    stop = np.searchsorted(ordered, grid[ends - 1] + reach, side="right")
    # [g, 1] . [1, -v_j] is g - v_j rounded once, as np.subtract gives it,
    # at a third of the cost of a broadcast subtract; g - v_j is formed
    # before any scaling, so it stays exact to one rounding where |v_j| >> bw
    ones = np.ones(n)
    points = np.column_stack([grid, np.ones(len(grid))])
    pairs = np.vstack([ones, -ordered])
    c = -0.5 / (bw * bw)
    density = np.zeros(len(grid))
    buf = np.empty(_KDE_BLOCK * n)
    for i, j, a, z in zip(starts.tolist(), ends.tolist(), first.tolist(),
                          stop.tolist()):
        if a == z:
            continue
        block = buf[:(j - i) * (z - a)].reshape(j - i, z - a)
        np.matmul(points[i:j], pairs[:, a:z], out=block)
        np.square(block, out=block)
        block *= c
        # the block's widest |g - v_j|
        far = max(grid[j - 1] - ordered[a], ordered[z - 1] - grid[i])
        if c * far * far < _EXP_FLOOR:
            np.maximum(block, _EXP_FLOOR, out=block)
        np.exp(block, out=block)
        np.matmul(block, ones[:z - a], out=density[i:j])    # row sums
    density *= 1.0 / (n * bw * math.sqrt(2.0 * math.pi))
    return density


def export_pixel_marginal(pm: PixelMarginal, path) -> None:
    """Tabular export: (bin_left, bin_right, count) rows then (grid, kde) rows."""
    edges = pm.bin_edges.tolist()
    lines = [f"# coordinate={pm.coordinate} mean={pm.mean!r} "
             f"variance={pm.variance!r} bandwidth={pm.bandwidth!r}",
             "bin_left,bin_right,count"]
    lines += [f"{left!r},{right!r},{c}"
              for left, right, c in zip(edges, edges[1:], pm.counts.tolist())]
    lines.append("grid,kde")
    lines += [f"{g!r},{d!r}" for g, d in zip(pm.grid.tolist(), pm.density.tolist())]
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")
