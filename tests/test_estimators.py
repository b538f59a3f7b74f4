"""Estimator tests: the mean-dominance identity, PSNR conventions,
diversity normalization, and marginal histogram/KDE behavior; the sorted,
tiled diversity and windowed KDE against their direct formulas, the sorted
histogram against np.histogram, the marginal export against its per-line
writer, and the memory both stay in."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcond.estimators import (EstimatorError, diversity,
                                 export_pixel_marginal, mmse_estimate, mse,
                                 mse_decomposition, pixel_marginal, psnr,
                                 silverman_bandwidth)
from flowcond.estimators import _TILE_COLS, _TILE_ROWS, _sorted_quantile


def brute_diversity(x):
    """All-pairs mean distance / sqrt(d), one row of differences at a time."""
    n, d = x.shape
    total = 0.0
    for i in range(n - 1):
        diff = x[i + 1:] - x[i]
        total += float(np.sum(np.sqrt(np.sum(diff * diff, axis=1))))
    return total / (n * (n - 1) / 2) / math.sqrt(d)


def direct_kde(v, grid, bw):
    z = (grid[:, None] - v[None, :]) / bw
    return np.exp(-0.5 * z * z).mean(axis=1) / (bw * math.sqrt(2.0 * math.pi))


def line_by_line_export(pm, path):
    """The marginal writer as it was, one write per line: the byte reference."""
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


def far_out_column(rng, n=2000):
    """Pixel-like draws with up to two far-out values, as a brief fit gives."""
    v = 0.5 + 0.05 * rng.standard_normal(n)
    v[:2] = [173.0, -90.0][:n]
    return v


def kde_column(kind, n, rng):
    """n draws of one of the column shapes the KDE must handle."""
    if kind == "normal":
        return rng.standard_normal(n)
    if kind == "cauchy":
        return rng.standard_cauchy(n)
    if kind == "far_out":
        return far_out_column(rng, n)
    if kind == "offset":
        return 1000.0 + 0.01 * rng.standard_normal(n)
    if kind == "ties":
        return np.round(rng.standard_normal(n), 1)
    return np.full(n, 0.7)


COLUMNS = ["normal", "cauchy", "far_out", "offset", "ties", "constant"]


def diversity_set(kind, n, d, rng):
    """n draws in d dimensions of one of the shapes the sorted, windowed
    diversity must handle; coordinate 0 is the widest unless the shape
    says otherwise."""
    if kind == "clustered":
        # a few tight clusters, each holding exact and near duplicates:
        # the shape of a sharp posterior
        centers = rng.standard_normal((3, d))
        x = centers[rng.integers(0, 3, n)] \
            + 10.0 ** -rng.integers(4, 9, (n, 1)) * rng.standard_normal((n, d))
        x[rng.random(n) < 0.3] = centers[0]
        return x
    x = rng.standard_normal((n, d))
    x[:, 0] *= 3.0
    if kind == "straddling":
        # copies of one row on both sides of a tile edge in sorted order
        x = x[np.argsort(x[:, 0], kind="stable")]
        edge = next((e for e in (_TILE_COLS, _TILE_ROWS) if n > e), n // 2)
        lo, hi = max(edge - 3, 0), min(edge + 3, n)
        x[lo:hi] = x[lo]
        return rng.permutation(x)
    if kind == "sort_ties":       # many rows share each sort-axis value
        x[:, 0] = np.round(x[:, 0])
    elif kind == "collinear_along":     # on a line along the sort axis
        x[:, 1:] = 0.5
    elif kind == "collinear_across":    # a third on a line across it
        x[: n // 3, 0] = 0.25
    elif kind == "offset":
        x += 1e4
    elif kind == "scaled":
        x[::7] *= 100.0
    return x


DIVERSITY_SETS = ["clustered", "straddling", "sort_ties", "collinear_along",
                  "collinear_across", "offset", "scaled", "normal"]
DIVERSITY_SIZES = [2, 3, _TILE_ROWS - 1, _TILE_ROWS, _TILE_ROWS + 1,
                   _TILE_COLS - 1, _TILE_COLS, _TILE_COLS + 1]


class TestMmse:
    def test_identical_samples(self):
        s = np.tile([1.0, 2.0], (5, 1))
        np.testing.assert_array_equal(mmse_estimate(s), [1.0, 2.0])

    def test_two_point_mean(self):
        s = np.array([[0.0, 0.0], [2.0, 2.0]])
        np.testing.assert_array_equal(mmse_estimate(s), [1.0, 1.0])

    def test_decomposition_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = rng.standard_normal((rng.integers(2, 50), 7))
            ref = rng.standard_normal(7)
            per_sample, center, spread = mse_decomposition(s, ref)
            assert abs(per_sample - (center + spread)) < 1e-9

    def test_mean_dominates_any_single_sample_on_average(self):
        rng = np.random.default_rng(1)
        s = rng.standard_normal((32, 10)) + 0.5
        ref = np.zeros(10)
        per_sample, center, _ = mse_decomposition(s, ref)
        assert center < per_sample


class TestPsnrMse:
    def test_mse_zero_and_psnr_sentinel(self):
        x = np.array([0.2, 0.4])
        assert mse(x, x) == 0.0
        assert psnr(x, x) == math.inf

    def test_psnr_formula(self):
        x = np.zeros(4)
        ref = np.full(4, 0.1)
        assert psnr(x, ref, peak=1.0) == pytest.approx(20.0, abs=1e-12)

    def test_peak_validation(self):
        with pytest.raises(EstimatorError):
            psnr(np.zeros(2), np.ones(2), peak=0.0)

    def test_shape_mismatch(self):
        with pytest.raises(EstimatorError):
            mse(np.zeros(2), np.zeros(3))


class TestDiversity:
    def test_identical_samples_zero(self):
        assert diversity(np.tile([1.0, 2.0, 3.0], (4, 1))) == 0.0

    def test_sqrt_d_normalization(self):
        d = 9
        a = np.zeros(d)
        b = np.ones(d)   # distance sqrt(d)
        assert diversity(np.stack([a, b])) == pytest.approx(1.0, abs=1e-12)

    def test_iid_standard_normal_close_to_sqrt2(self):
        rng = np.random.default_rng(2)
        value = diversity(rng.standard_normal((200, 100)))
        assert abs(value - math.sqrt(2.0)) / math.sqrt(2.0) < 0.1

    def test_needs_two_samples(self):
        with pytest.raises(EstimatorError):
            diversity(np.zeros((1, 3)))

    @pytest.mark.parametrize("shape", [(2, 1), (7, 3), (300, 64), (1000, 2)])
    def test_matches_brute_force(self, shape):
        x = np.random.default_rng(sum(shape)).standard_normal(shape)
        want = brute_diversity(x)
        assert abs(diversity(x) - want) <= 1e-12 * want

    @pytest.mark.parametrize("case", ["duplicated", "offset", "scaled"])
    def test_matches_brute_force_where_gram_cancels(self, case):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((200, 5))
        if case == "duplicated":
            x[100:] = x[:100]
        elif case == "offset":     # without centring, the Gram identity
            # cancels ~8 of 16 digits here
            x += 1e4
        else:
            x[::40] *= 100.0
        want = brute_diversity(x)
        assert abs(diversity(x) - want) <= 1e-12 * want

    def test_identical_rows_across_blocks_give_exact_zero(self):
        assert diversity(np.tile([0.1, -0.3, 0.7], (150, 1))) == 0.0

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(DIVERSITY_SETS),
           n=st.sampled_from(DIVERSITY_SIZES), d=st.sampled_from([1, 2, 3, 64]),
           seed=st.integers(0, 2**32 - 1))
    @example(kind="clustered", n=_TILE_COLS + 1, d=2, seed=0)
    @example(kind="straddling", n=_TILE_COLS + 1, d=2, seed=1)
    @example(kind="straddling", n=_TILE_ROWS + 1, d=64, seed=2)
    @example(kind="collinear_across", n=_TILE_ROWS, d=3, seed=3)
    @example(kind="offset", n=_TILE_COLS, d=1, seed=4)
    def test_sorted_windowed_walk_matches_brute_force(self, kind, n, d, seed):
        x = diversity_set(kind, n, d, np.random.default_rng(seed))
        want = brute_diversity(x)
        got = diversity(x)
        if want == 0.0:
            assert got == 0.0
        else:
            assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("kind", ["clustered", "sort_ties"])
    def test_same_bits_every_call_and_any_row_order(self, kind):
        rng = np.random.default_rng(15)
        x = diversity_set(kind, 2 * _TILE_COLS + 5, 2, rng)
        first = diversity(x)
        assert diversity(x.copy()) == first
        permuted = diversity(rng.permutation(x))
        assert abs(permuted - first) <= 1e-12 * first

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_draw_raises_naming_its_row(self, bad):
        x = np.random.default_rng(16).standard_normal((30, 2))
        x[[7, 12], 1] = bad
        with pytest.raises(EstimatorError, match="row 7 holds a non-finite"):
            diversity(x)


class TestPixelMarginal:
    def test_counts_conserve_n(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal((500, 3))
        pm = pixel_marginal(s, coordinate=1, bins=24)
        assert pm.counts.sum() == 500

    def test_kde_integrates_to_one(self):
        rng = np.random.default_rng(4)
        s = rng.standard_normal((400, 2))
        pm = pixel_marginal(s, coordinate=0)
        integral = np.trapezoid(pm.density, pm.grid)
        assert abs(integral - 1.0) < 1e-3

    def test_bimodal_samples_give_two_local_maxima(self):
        rng = np.random.default_rng(5)
        signs = rng.integers(0, 2, size=800) * 2.0 - 1.0
        values = signs + 0.05 * rng.standard_normal(800)
        s = values[:, None]
        pm = pixel_marginal(s, coordinate=0)
        d = pm.density
        interior_max = (d[1:-1] > d[:-2]) & (d[1:-1] > d[2:])
        peaks = pm.grid[1:-1][interior_max]
        assert np.any(peaks < 0) and np.any(peaks > 0)

    def test_single_sample_degenerate_bump(self):
        s = np.array([[0.3]])
        pm = pixel_marginal(s, coordinate=0)
        assert pm.counts.sum() == 1
        assert pm.bandwidth == pytest.approx(1e-4)
        assert abs(np.trapezoid(pm.density, pm.grid) - 1.0) < 1e-3

    def test_zero_variance_bandwidth_floor(self):
        assert silverman_bandwidth(np.full(50, 2.0)) == 1e-4

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(values=st.lists(st.one_of(
        st.floats(-1e6, 1e6, allow_subnormal=False), st.sampled_from(
            [0.0, -0.0, 1.0, 1.0 + 2.0 ** -52, 3.0])), min_size=2, max_size=60))
    @example(values=[1.0, 2.0])
    @example(values=[-1.0, 0.5, 7.0])
    @example(values=[2.0] * 7)
    @example(values=[0.1, 0.1, 0.7, 0.7, 0.7])
    def test_quartiles_from_sorted_draws_match_percentile(self, values):
        # numpy's linear rule, including its lerp from above at t >= 0.5,
        # read off the sorted column the marginal already holds; equal bit
        # for bit but for the sign of a zero, since neither np.sort nor
        # np.partition orders 0.0 against -0.0 (the IQR is then 0 either way)
        v = np.array(values)
        ordered = np.sort(v)
        zero_signs = {math.copysign(1.0, x) for x in values if x == 0.0}
        for q in (0.25, 0.75):
            expected = float(np.percentile(v, 100.0 * q))
            got = _sorted_quantile(ordered, q)
            assert got == expected
            if len(zero_signs) < 2:
                assert math.copysign(1.0, got) == math.copysign(1.0, expected)
        q75, q25 = np.percentile(v, [75.0, 25.0])
        iqr = float(q75 - q25)
        std = float(v.std(ddof=1))
        scale = min(std, iqr / 1.34) if iqr > 0.0 else std
        assert silverman_bandwidth(v, ordered) == silverman_bandwidth(v) == \
            max(0.9 * scale * len(v) ** (-0.2), 1e-4)

    def test_coordinate_out_of_range(self):
        with pytest.raises(EstimatorError):
            pixel_marginal(np.zeros((3, 2)), coordinate=5)

    @pytest.mark.parametrize("column", ["normal", "far_out"])
    def test_kde_matches_direct_sum(self, column):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(2000) if column == "normal" else far_out_column(rng)
        pm = pixel_marginal(v[:, None], 0)
        want = direct_kde(v, pm.grid, pm.bandwidth)
        assert np.max(np.abs(pm.density - want)) <= 1e-12 * want.max()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(COLUMNS), n=st.integers(1, 700),
           seed=st.integers(0, 2**32 - 1))
    @example(kind="normal", n=1, seed=0)
    @example(kind="far_out", n=2, seed=0)
    @example(kind="cauchy", n=2, seed=1)
    def test_windowed_kde_matches_direct_sum(self, kind, n, seed):
        v = kde_column(kind, n, np.random.default_rng(seed))
        pm = pixel_marginal(v[:, None], 0)
        want = direct_kde(v, pm.grid, pm.bandwidth)
        assert np.max(np.abs(pm.density - want)) <= 1e-12 * want.max()
        hi = v.max() if v.max() > v.min() else v.min() + 1e-8
        counts, edges = np.histogram(v, bins=50, range=(v.min(), hi))
        assert np.array_equal(pm.counts, counts)
        assert np.array_equal(pm.bin_edges, edges)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_draw_raises(self, bad):
        v = np.random.default_rng(14).standard_normal((30, 2))
        v[3, 1] = bad
        with pytest.raises(EstimatorError, match="non-finite"):
            pixel_marginal(v, 1)

    @pytest.mark.parametrize("column", ["normal", "far_out", "constant",
                                        "two_clusters"])
    def test_export_bytes_match_line_by_line_writer(self, tmp_path, column):
        rng = np.random.default_rng(12)
        v = {"normal": rng.standard_normal(300), "far_out": far_out_column(rng),
             "constant": np.full(10, 0.1),
             # 270 draws near 0 and 30 near 50: the kernel is narrow next to
             # the gap, so the KDE is exactly 0 between the clusters
             "two_clusters": np.concatenate([
                 0.05 * rng.standard_normal(270),
                 50.0 + 0.05 * rng.standard_normal(30)])}[column]
        pm = pixel_marginal(v[:, None], 0, bins=17)
        if column == "two_clusters":
            assert 0.0 in pm.density
        export_pixel_marginal(pm, tmp_path / "new.txt")
        line_by_line_export(pm, tmp_path / "old.txt")
        assert (tmp_path / "new.txt").read_bytes() == \
            (tmp_path / "old.txt").read_bytes()

    def test_export_format(self, tmp_path):
        rng = np.random.default_rng(6)
        pm = pixel_marginal(rng.standard_normal((100, 1)), 0, bins=10)
        path = tmp_path / "marginal.txt"
        export_pixel_marginal(pm, path)
        text = path.read_text()
        assert "bin_left,bin_right,count" in text
        assert "grid,kde" in text
        counts = [int(line.split(",")[2]) for line in
                  text.splitlines()[2:12]]
        assert sum(counts) == 100


class TestMemory:
    """Both estimators work in row blocks: a (5000, 2) set must not build
    an n x n distance matrix (200 MB) or a 512 x n KDE matrix (20 MB)."""

    @pytest.mark.parametrize("estimator", [diversity,
                                           lambda s: pixel_marginal(s, 0)],
                             ids=["diversity", "pixel_marginal"])
    def test_peak_under_16_mb(self, estimator):
        s = np.random.default_rng(13).standard_normal((5000, 2))
        tracemalloc.start()
        try:
            estimator(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_diversity_peak_under_16_mb_at_d64(self):
        s = np.random.default_rng(13).standard_normal((2000, 64))
        tracemalloc.start()
        try:
            diversity(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestSampleSet:
    def test_needs_2d(self):
        with pytest.raises(EstimatorError):
            mmse_estimate(np.zeros(3))
