"""Estimator tests: the mean-dominance identity, PSNR conventions,
diversity normalization, and marginal histogram/KDE behavior."""

import math

import numpy as np
import pytest

from flowcond.estimators import (EstimatorError, diversity, mmse_estimate,
                                 mse, mse_decomposition, pixel_marginal, psnr,
                                 silverman_bandwidth)


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

    def test_coordinate_out_of_range(self):
        with pytest.raises(EstimatorError):
            pixel_marginal(np.zeros((3, 2)), coordinate=5)

    def test_export_format(self, tmp_path):
        from flowcond.estimators import export_pixel_marginal
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


class TestSampleSet:
    def test_needs_2d(self):
        with pytest.raises(EstimatorError):
            mmse_estimate(np.zeros(3))
