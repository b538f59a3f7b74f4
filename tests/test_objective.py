"""Tests for the variational losses: the KL estimator against closed-form
Gaussian KL, exact identity-start zeros, the loss decomposition, gradient
correctness, and the joint-vs-marginal quadrature bound."""

import math

import numpy as np
import pytest

from flowcond import diffengine as de
from flowcond.flows import (ComposedSampler, DiagonalAffine, FlowModel,
                            ParamBinder, make_flow)
from flowcond.measurement import GaussianOp, MaskOp, Observation
from flowcond.objective import (GridError, GridSpec, LossBreakdown,
                                ObjectiveError, SmoothingSpec,
                                joint_vs_marginal_gap, latent_kl_estimate,
                                latent_kl_terms_node, svi_loss, svi_loss_nodes)
from tests.test_flows import perturbed_flow


def gaussian_base(dim=2):
    """Base flow that is exactly N(0, I)."""
    return FlowModel(dim, [])


class TestSmoothingSpec:
    def test_beta_is_derived_from_sigma(self):
        for sigma in (0.1, 0.05, 7.0, 1e-4):
            spec = SmoothingSpec(sigma)
            assert spec.beta == 1.0 / (2.0 * sigma * sigma)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ObjectiveError):
            SmoothingSpec(0.0)
        with pytest.raises(ObjectiveError):
            SmoothingSpec(-1.0)


class TestLossBreakdown:
    def test_additivity_exact(self):
        lb = LossBreakdown.of(0.1, 0.2)
        assert lb.total == lb.kl_term + lb.penalty_term


class TestLatentKl:
    def test_identity_start_is_exactly_zero_every_batch(self):
        base = perturbed_flow(4, "affine", seed=1)
        pre = make_flow(4, rng=np.random.default_rng(2))
        cs = ComposedSampler(pre, base)
        rng = np.random.default_rng(3)
        for _ in range(5):
            eps = rng.standard_normal((64, 4))
            assert latent_kl_estimate(cs, eps) == 0.0

    def test_fixed_affine_matches_closed_form(self):
        # pre-generator z = 2 eps on R^1: KL(N(0,4) || N(0,1)) in closed form
        pre = FlowModel(1, [DiagonalAffine([2.0])])
        cs = ComposedSampler(pre, gaussian_base(1))
        expected = (4.0 - 1.0 - math.log(4.0)) / 2.0      # 0.8069
        eps = np.random.default_rng(4).standard_normal((10_000, 1))
        est = latent_kl_estimate(cs, eps)
        # recompute per-term values for the MC standard error
        z = 2.0 * eps
        terms = (-0.5 * eps[:, 0] ** 2 - math.log(2.0)) - (-0.5 * z[:, 0] ** 2)
        se = terms.std(ddof=1) / math.sqrt(len(terms))
        assert abs(est - expected) < 3 * se

    def test_latent_equals_ambient_termwise(self):
        base = perturbed_flow(3, "affine", seed=5)
        pre = perturbed_flow(3, "affine", seed=6, scale=0.2)
        cs = ComposedSampler(pre, base)
        eps = np.random.default_rng(7).standard_normal((500, 3))
        latent = latent_kl_estimate(cs, eps)
        # ambient estimate with the same draws
        from flowcond.flows import gaussian_logpdf
        z, ld_pre = pre.forward(eps)
        xs, ld_base = base.forward(z)
        log_qx = gaussian_logpdf(eps) - ld_pre - ld_base
        log_px = base.log_prob(xs)
        ambient = float(np.mean(log_qx - log_px))
        assert abs(latent - ambient) < 1e-9


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.mark.parametrize("dim", [4, 64])
@pytest.mark.parametrize("op", ["mask", "gaussian"])
@pytest.mark.parametrize("conditional", [False, True],
                         ids=["unconditional", "conditional"])
class TestValueOnlyLosses:
    """The value-only losses run the layer bodies of the tape passes,
    without their VJPs; they give the tape's values bit for bit, also where
    the operator's matmul is wide enough to round differently on a
    differently laid-out input."""

    def problem(self, dim, op, conditional):
        rng = np.random.default_rng(40)
        head = DiagonalAffine(rng.uniform(0.5, 2.0, dim), rng.normal(0.0, 0.3, dim))
        base = perturbed_flow(dim, "affine", seed=41, num_layers=3, hidden_width=16)
        base = FlowModel(dim, [head] + base.layers)
        pre = perturbed_flow(dim, "affine", seed=42, num_layers=2, hidden_width=16,
                             scale=0.1, context_width=3 if conditional else 0)
        context = np.array([0.2, -1.0, 0.7]) if conditional else None
        cs = ComposedSampler(pre, base, context=context)
        m = dim // 4
        measure = MaskOp(np.arange(m), dim) if op == "mask" else GaussianOp(5, m, dim)
        obs = Observation(y_star=rng.standard_normal(m), op=measure)
        eps = rng.standard_normal((32, dim))
        return cs, obs, eps

    def test_svi_loss_matches_tape(self, dim, op, conditional):
        cs, obs, eps = self.problem(dim, op, conditional)
        smoothing = SmoothingSpec(0.3)
        kl, pen, total = svi_loss_nodes(ParamBinder(de.Graph()), cs, obs,
                                        smoothing, eps)
        lb = svi_loss(cs, obs, smoothing, eps)
        assert same_bits(lb.kl_term, kl.value)
        assert same_bits(lb.penalty_term, pen.value)
        assert same_bits(lb.total, total.value)

    def test_latent_kl_estimate_matches_tape(self, dim, op, conditional):
        cs, _, eps = self.problem(dim, op, conditional)
        g = de.Graph()
        terms, _ = latent_kl_terms_node(ParamBinder(g), cs, g.constant(eps))
        assert same_bits(latent_kl_estimate(cs, eps), terms.mean().value)


class TestSviLoss:
    def test_identity_start_matching_observation_is_zero(self):
        base = perturbed_flow(2, "affine", seed=8)
        pre = make_flow(2, rng=np.random.default_rng(9))
        cs = ComposedSampler(pre, base)
        eps = np.random.default_rng(10).standard_normal((1, 2))
        x, _ = base.forward(pre.forward(eps)[0])
        op = MaskOp([0], 2)
        obs = Observation(y_star=op.apply(x[0]), op=op)
        lb = svi_loss(cs, obs, SmoothingSpec(0.1), eps)
        assert lb.total == 0.0

    def test_default_sigma_for_binary_image_tasks(self):
        from flowcond.training import TrainConfig
        assert TrainConfig().sigma == 0.1

    def test_nodes_read_the_bound_context(self):
        base = perturbed_flow(4, "affine", seed=16)
        cond = perturbed_flow(4, "additive", seed=17, context_width=8)
        obs = Observation(y_star=np.array([0.5, -0.3]), op=MaskOp([0, 2], 4))
        smoothing = SmoothingSpec(0.5)
        eps = np.random.default_rng(18).standard_normal((16, 4))
        totals = []
        for seed in (19, 20):
            context = np.random.default_rng(seed).standard_normal(8)
            cs = ComposedSampler(cond, base, context=context)
            _, _, total = svi_loss_nodes(ParamBinder(de.Graph()), cs, obs,
                                         smoothing, eps)
            assert float(total.value) == svi_loss(cs, obs, smoothing, eps).total
            totals.append(float(total.value))
        assert totals[0] != totals[1]

    def test_gradient_matches_finite_differences(self):
        base = perturbed_flow(4, "affine", seed=11, num_layers=2,
                              hidden_width=8)
        pre = make_flow(4, num_layers=2, hidden_width=6,
                        rng=np.random.default_rng(12))
        for p in pre.parameters():
            p += 0.1 * np.random.default_rng(13).standard_normal(p.shape)
        cs = ComposedSampler(pre, base)
        op = MaskOp([0, 2], 4)
        obs = Observation(y_star=np.array([0.5, -0.3]), op=op)
        smoothing = SmoothingSpec(0.5)
        eps = np.random.default_rng(14).standard_normal((8, 4))

        def loss_value():
            return svi_loss(cs, obs, smoothing, eps).total

        g = de.Graph()
        bind = ParamBinder(g)
        _, _, total = svi_loss_nodes(bind, cs, obs, smoothing, eps)
        grads = bind.gradients(de.backward(g, total), pre.parameters())
        step = 1e-5
        rng = np.random.default_rng(15)
        for p, grad in zip(pre.parameters(), grads):
            flat = p.reshape(-1)
            for idx in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + step
                hi = loss_value()
                flat[idx] = orig - step
                lo = loss_value()
                flat[idx] = orig
                fd = (hi - lo) / (2 * step)
                a = grad.reshape(-1)[idx]
                rel = abs(a - fd) / (abs(a) + abs(fd) + 1e-12)
                assert rel < 1e-4

    def test_sigma_scaling_is_exact_for_power_of_two(self):
        base = perturbed_flow(3, "affine", seed=16)
        pre = perturbed_flow(3, "affine", seed=17, scale=0.2)
        cs = ComposedSampler(pre, base)
        op = MaskOp([1], 3)
        obs = Observation(y_star=np.array([0.2]), op=op)
        eps = np.random.default_rng(18).standard_normal((32, 3))
        pen1 = svi_loss(cs, obs, SmoothingSpec(0.25), eps).penalty_term
        pen2 = svi_loss(cs, obs, SmoothingSpec(0.5), eps).penalty_term
        assert pen1 == 4.0 * pen2

    def test_penalty_invariant_under_orthogonal_reparametrization(self):
        from flowcond.measurement import _MatrixOp

        class PlainMatrixOp(_MatrixOp):
            kind = "matrix"

        rng = np.random.default_rng(19)
        a = rng.standard_normal((3, 4))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        base = perturbed_flow(4, "affine", seed=20)
        pre = perturbed_flow(4, "affine", seed=21, scale=0.2)
        cs = ComposedSampler(pre, base)
        y = rng.standard_normal(3)
        eps = rng.standard_normal((16, 4))
        smoothing = SmoothingSpec(0.3)
        pen = svi_loss(cs, Observation(y_star=y, op=PlainMatrixOp(a)),
                       smoothing, eps).penalty_term
        pen_rot = svi_loss(cs, Observation(y_star=q @ y, op=PlainMatrixOp(q @ a)),
                           smoothing, eps).penalty_term
        assert abs(pen - pen_rot) < 1e-9

    def test_same_batch_same_bits(self):
        base = perturbed_flow(2, "affine", seed=22)
        pre = perturbed_flow(2, "affine", seed=23, scale=0.2)
        cs = ComposedSampler(pre, base)
        obs = Observation(y_star=np.array([0.1]), op=MaskOp([0], 2))
        eps = np.random.default_rng(24).standard_normal((64, 2))
        a = svi_loss(cs, obs, SmoothingSpec(0.1), eps)
        b = svi_loss(cs, obs, SmoothingSpec(0.1), eps)
        assert a.total == b.total

    def test_dimension_mismatch(self):
        base = perturbed_flow(2, "affine", seed=25)
        pre = make_flow(2, rng=np.random.default_rng(26))
        cs = ComposedSampler(pre, base)
        obs = Observation(y_star=np.zeros(1), op=MaskOp([0], 3))
        with pytest.raises(ObjectiveError):
            svi_loss(cs, obs, SmoothingSpec(0.1),
                     np.random.default_rng(27).standard_normal((4, 2)))


def smoothed_posterior_sampler(y_star, sigma):
    """Composed sampler equal to the exact smoothed posterior of a standard
    Gaussian base observed at x1 = y_star: diagonal Gaussian with
    x1 ~ N(y*/(1+s^2), s^2/(1+s^2)), x2 ~ N(0, 1)."""
    var1 = sigma * sigma / (1.0 + sigma * sigma)
    mean1 = y_star / (1.0 + sigma * sigma)
    pre = FlowModel(2, [DiagonalAffine([math.sqrt(var1), 1.0], [mean1, 0.0])])
    return ComposedSampler(pre, gaussian_base(2))


class TestJointVsMarginal:
    GRID = GridSpec(-6.0, 6.0, 241)

    def test_gap_zero_for_true_posterior(self):
        sigma, y = 0.1, 0.7
        cs = smoothed_posterior_sampler(y, sigma)
        obs = Observation(y_star=np.array([y]), op=MaskOp([0], 2))
        joint, marginal = joint_vs_marginal_gap(cs, obs, SmoothingSpec(sigma),
                                                self.GRID)
        assert joint >= marginal - 1e-2
        assert abs(joint - marginal) < 1e-2
        assert abs(joint) < 1e-2

    def test_gap_positive_for_mismatched_conditional(self):
        sigma, y = 0.1, 0.7
        var1 = sigma * sigma / (1.0 + sigma * sigma)
        mean1 = y / (1.0 + sigma * sigma)
        # doubled std in x1 only: marginal over x2 still exact
        pre = FlowModel(2, [DiagonalAffine([2.0 * math.sqrt(var1), 1.0],
                                           [mean1, 0.0])])
        cs = ComposedSampler(pre, gaussian_base(2))
        obs = Observation(y_star=np.array([y]), op=MaskOp([0], 2))
        joint, marginal = joint_vs_marginal_gap(cs, obs, SmoothingSpec(sigma),
                                                self.GRID)
        # closed-form Gaussian KL for the x1 factor: scale-2 mismatch
        expected = (4.0 - 1.0 - math.log(4.0)) / 2.0
        assert joint - marginal == pytest.approx(expected, abs=2e-2)
        assert abs(marginal) < 1e-2

    def test_random_q_respects_bound(self):
        sigma, y = 0.2, 0.5
        pre = perturbed_flow(2, "affine", seed=34, scale=0.1)
        cs = ComposedSampler(pre, gaussian_base(2))
        obs = Observation(y_star=np.array([y]), op=MaskOp([0], 2))
        joint, marginal = joint_vs_marginal_gap(cs, obs, SmoothingSpec(sigma),
                                                GridSpec(-9.0, 9.0, 361))
        assert joint >= marginal - 1e-2

    def test_coarse_grid_rejected(self):
        cs = smoothed_posterior_sampler(0.7, 0.1)
        obs = Observation(y_star=np.array([0.7]), op=MaskOp([0], 2))
        with pytest.raises(GridError):
            joint_vs_marginal_gap(cs, obs, SmoothingSpec(0.1),
                                  GridSpec(-2.0, 2.0, 41))

    def test_requires_mask_on_first_coordinate(self):
        cs = smoothed_posterior_sampler(0.7, 0.1)
        obs = Observation(y_star=np.array([0.7]), op=MaskOp([1], 2))
        with pytest.raises(ObjectiveError):
            joint_vs_marginal_gap(cs, obs, SmoothingSpec(0.1), self.GRID)
