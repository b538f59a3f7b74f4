"""Forward-operator tests: linearity and adjoint identities on random
probes for every kind, plus the file formats.  The adjoint A^T u is the
tape's backward pass through ``apply_node``, the one every loss gradient
uses."""

import numpy as np
import pytest

from flowcond import diffengine as de
from flowcond.measurement import (Downsample2xOp, GaussianOp, GrayscaleOp,
                                  MaskOp, MeasurementError, Observation,
                                  load_mask_file, make_observation,
                                  save_mask_file)

RNG = np.random.default_rng(0)


def tape_adjoint(op, x, u):
    """A^T u at the (d,) point ``x``: the gradient of <u, A x> that
    ``de.backward`` takes through ``op.apply_node``."""
    g = de.Graph()
    node = g.leaf(np.asarray(x, dtype=np.float64)[None, :])
    dot = (op.apply_node(node) * g.constant(np.asarray(u)[None, :])).sum()
    return de.backward(g, dot)[node][0]


def all_ops():
    return [
        MaskOp([0, 2, 5], 8),
        GaussianOp(seed=3, m=5, d=12),
        Downsample2xOp(4, 6, 1),
        Downsample2xOp(4, 4, 3),
        GrayscaleOp(3, 3, 3),
    ]


class TestApply:
    def test_mask_selects(self):
        op = MaskOp([0, 2], 3)
        np.testing.assert_array_equal(op.apply([5.0, 7.0, 9.0]), [5.0, 9.0])

    def test_downsample_constant_image(self):
        op = Downsample2xOp(4, 4, 1)
        out = op.apply(np.full(16, 0.7))
        np.testing.assert_allclose(out, np.full(4, 0.7), atol=1e-12)

    def test_downsample_block_average(self):
        op = Downsample2xOp(2, 2, 1)
        img = np.array([1.0, 2.0, 3.0, 4.0])   # one 2x2 block
        assert op.apply(img)[0] == pytest.approx(2.5)

    def test_grayscale_averages_channels(self):
        op = GrayscaleOp(1, 2, 3)
        img = np.array([1.0, 2.0, 3.0, 0.0, 0.3, 0.6])
        np.testing.assert_allclose(op.apply(img), [2.0, 0.3])

    def test_paper_scale_cs_setting(self):
        op = GaussianOp(seed=0, m=500, d=3072)
        y = op.apply(RNG.standard_normal(3072))
        assert y.shape == (500,)

    def test_dimension_mismatch(self):
        with pytest.raises(MeasurementError):
            MaskOp([0], 3).apply(np.zeros(4))


class TestLinearityAndAdjoint:
    @pytest.mark.parametrize("op", all_ops(), ids=lambda o: o.kind + str(o.output_dim))
    def test_linearity(self, op):
        rng = np.random.default_rng(1)
        x, xp = rng.standard_normal((2, op.input_dim))
        a, b = 1.7, -0.4
        lhs = op.apply(a * x + b * xp)
        rhs = a * op.apply(x) + b * op.apply(xp)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @pytest.mark.parametrize("op", all_ops(), ids=lambda o: o.kind + str(o.output_dim))
    def test_adjoint_identity(self, op):
        rng = np.random.default_rng(2)
        for _ in range(10):
            u = rng.standard_normal(op.output_dim)
            v = rng.standard_normal(op.input_dim)
            assert abs(np.dot(u, op.apply(v)) - np.dot(tape_adjoint(op, v, u), v)) < 1e-9

    @pytest.mark.parametrize("op", all_ops(), ids=lambda o: o.kind + str(o.output_dim))
    def test_apply_node_matches_apply_bitwise(self, op):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, op.input_dim))
        g = de.Graph()
        node = op.apply_node(g.constant(x))
        np.testing.assert_array_equal(node.value, op.apply(x))
        obs = Observation(y_star=rng.standard_normal(op.output_dim), op=op)
        np.testing.assert_array_equal(obs.residual_node(g.constant(x)).value,
                                      obs.residual(x))

    def test_gaussian_vjp_against_finite_differences(self):
        op = GaussianOp(seed=5, m=3, d=7)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(7)
        u = rng.standard_normal(3)
        vjp = tape_adjoint(op, x, u)
        step = 1e-6
        for j in range(7):
            hi, lo = x.copy(), x.copy()
            hi[j] += step
            lo[j] -= step
            fd = (np.dot(u, op.apply(hi)) - np.dot(u, op.apply(lo))) / (2 * step)
            assert abs(vjp[j] - fd) < 1e-6

    def test_mask_vjp_scatters(self):
        op = MaskOp([1, 3], 5)
        out = tape_adjoint(op, np.zeros(5), np.array([2.0, 4.0]))
        np.testing.assert_array_equal(out, [0.0, 2.0, 0.0, 4.0, 0.0])

    def test_mask_projection(self):
        op = MaskOp([0, 2], 4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4)
        once = tape_adjoint(op, x, op.apply(x))
        twice = tape_adjoint(op, x, op.apply(once))
        np.testing.assert_array_equal(once, twice)


class TestGaussianOp:
    def test_reconstructible_from_seed(self):
        a = GaussianOp(seed=9, m=6, d=10)
        b = GaussianOp(seed=9, m=6, d=10)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_row_norm_concentration(self):
        op = GaussianOp(seed=10, m=20, d=600)   # m*d >= 1e4
        row_sq = np.sum(op.matrix ** 2, axis=1)
        target = 600 / 20
        assert abs(row_sq.mean() - target) / target < 0.2

    def test_degenerate_one_by_one(self):
        op = GaussianOp(seed=11, m=1, d=1)
        assert np.isfinite(op.matrix).all()

    def test_invalid_sizes(self):
        with pytest.raises(MeasurementError):
            GaussianOp(0, 0, 3)


class TestObservation:
    def test_length_validation(self):
        with pytest.raises(MeasurementError):
            Observation(y_star=np.zeros(3), op=MaskOp([0], 4))

    def test_make_observation_noiseless_matches_apply_bitwise(self):
        op = GaussianOp(seed=12, m=4, d=6)
        x = np.random.default_rng(6).standard_normal(6)
        obs = make_observation(op, x)
        np.testing.assert_array_equal(obs.y_star, op.apply(x))
        np.testing.assert_array_equal(obs.ground_truth, x)

    def test_noise_recorded(self):
        op = MaskOp([0, 1], 3)
        obs = make_observation(op, np.zeros(3), noise_sigma=0.5,
                               rng=np.random.default_rng(7))
        assert np.any(obs.y_star != 0.0)

    @pytest.mark.parametrize("op", all_ops(), ids=lambda o: o.kind + str(o.output_dim))
    def test_residual_is_per_row_squared_misfit(self, op):
        rng = np.random.default_rng(8)
        obs = Observation(y_star=rng.standard_normal(op.output_dim), op=op)
        x = rng.standard_normal((5, op.input_dim))
        matrix = op.matrix if op.kind != "mask" else np.eye(op.input_dim)[op.indices]
        expected = np.sum((x @ matrix.T - obs.y_star) ** 2, axis=1)
        np.testing.assert_allclose(obs.residual(x), expected, rtol=1e-12)
        assert obs.residual(x[0]).shape == (1,)
        assert obs.residual(x[0])[0] == obs.residual(x[:1])[0]
        err = de.check_gradients(lambda n: obs.residual_node(n).sum(), x)
        assert err < 1e-7

    def test_noise_needs_rng(self):
        with pytest.raises(MeasurementError):
            make_observation(MaskOp([0], 2), np.zeros(2), noise_sigma=0.1)


class TestMaskFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "mask.txt"
        save_mask_file(path, [3, 1, 4])
        np.testing.assert_array_equal(load_mask_file(path), [3, 1, 4])

    def test_bad_content(self, tmp_path):
        path = tmp_path / "mask.txt"
        path.write_text("1\nnope\n")
        with pytest.raises(MeasurementError):
            load_mask_file(path)


class TestValidation:
    def test_mask_duplicate_indices(self):
        with pytest.raises(MeasurementError):
            MaskOp([0, 0], 3)

    def test_mask_out_of_range(self):
        with pytest.raises(MeasurementError):
            MaskOp([5], 3)

    def test_downsample_odd_size(self):
        with pytest.raises(MeasurementError):
            Downsample2xOp(3, 4, 1)

    def test_grayscale_needs_channels(self):
        with pytest.raises(MeasurementError):
            GrayscaleOp(2, 2, 1)


class TestDescriptors:
    def test_gaussian_serializes_as_seed_and_shape_only(self):
        op = GaussianOp(seed=9, m=6, d=10)
        assert (op.seed, op.output_dim, op.input_dim) == (9, 6, 10)
        rebuilt = GaussianOp(seed=op.seed, m=op.output_dim, d=op.input_dim)
        np.testing.assert_array_equal(rebuilt.matrix, op.matrix)
