"""Flow model tests: bijectivity, log-determinants against a
finite-difference Jacobian oracle, densities against grid quadrature, and
the composed-sampler identities."""

import math
import tracemalloc

import numpy as np
import pytest

from flowcond import diffengine as de
from flowcond.flows import (ComposedSampler, CouplingLayer, DiagonalAffine,
                            FlowError, FlowModel, Mlp, ParamBinder,
                            Permutation, SingularScale, _index,
                            gaussian_logpdf, gaussian_logpdf_node, make_flow)
from flowcond.training import default_pre_generator


def perturbed_flow(dim, kind, seed, scale=0.3, **kw):
    """A flow with randomized conditioners (not identity)."""
    rng = np.random.default_rng(seed)
    flow = make_flow(dim, kind=kind, rng=rng, **kw)
    for p in flow.parameters():
        p += scale * rng.standard_normal(p.shape)
    return flow


def fd_jacobian(flow, z, step=1e-6):
    d = len(z)
    jac = np.zeros((d, d))
    for j in range(d):
        hi, lo = z.copy(), z.copy()
        hi[j] += step
        lo[j] -= step
        jac[:, j] = (flow.forward(hi)[0] - flow.forward(lo)[0]) / (2 * step)
    return jac


class TestIdentityStart:
    def test_fresh_flow_is_identity_with_zero_logdet(self):
        rng = np.random.default_rng(0)
        for kind in ("additive", "affine"):
            flow = make_flow(5, kind=kind, rng=np.random.default_rng(1))
            z = rng.standard_normal((7, 5))
            x, ld = flow.forward(z)
            np.testing.assert_array_equal(x, z)
            np.testing.assert_array_equal(ld, np.zeros(7))

    def test_identity_inverse_is_inverse_permutation(self):
        flow = make_flow(4, rng=np.random.default_rng(2))
        x = np.random.default_rng(3).standard_normal(4)
        z, ld = flow.inverse(x)
        np.testing.assert_array_equal(z, x)
        assert ld == 0.0


class TestBijectivity:
    @pytest.mark.parametrize("kind", ["additive", "affine"])
    def test_roundtrip_100_points(self, kind):
        flow = perturbed_flow(6, kind, seed=4)
        z = np.random.default_rng(5).standard_normal((100, 6))
        x, ld_f = flow.forward(z)
        z_back, ld_i = flow.inverse(x)
        assert np.max(np.abs(z_back - z)) < 1e-9
        x_back, _ = flow.forward(flow.inverse(x)[0])
        assert np.max(np.abs(x_back - x)) < 1e-9
        np.testing.assert_allclose(ld_f + ld_i, 0.0, atol=1e-9)

    def test_permutation_must_reorder_every_index(self):
        # its tape adjoint is the gather by the inverse, which needs a true
        # permutation
        for bad in ([0, 0, 2], [0, 1, 3], [1, 2]):
            with pytest.raises(FlowError, match="permutation"):
                Permutation(bad)
        assert Permutation([2, 0, 1]).inv.tolist() == [1, 2, 0]

    def test_additive_inverse_recovers_shifted_half(self):
        # single additive layer: y2 = x2 + g(x1)  <=>  x2 = y2 - g(y1)
        rng = np.random.default_rng(6)
        mlp = Mlp([1, 8, 1], rng)
        for p in mlp.parameters():
            p += 0.5 * rng.standard_normal(p.shape)
        layer = CouplingLayer("additive", [0], [1], mlp)
        flow = FlowModel(2, [layer])
        y = rng.standard_normal(2)
        x, _ = flow.inverse(y)
        shift = mlp.forward_array(y[None, :1])[0, 0]
        assert x[0] == y[0]
        np.testing.assert_allclose(x[1], y[1] - shift, atol=1e-12)


class TestSaturatedAffineScale:
    @pytest.mark.parametrize("raw", [1e3, -1e3])
    def test_inverse_at_scale_bounds(self, raw):
        # tanh(+-1e3) = +-1, so every scale of the layer sits at 4 or 1/4
        flow = perturbed_flow(4, "affine", seed=21)
        layer = flow.layers[0]
        k = len(layer.idx_out)
        layer.conditioner.weights[-1][:, k:] = 0.0
        layer.conditioner.biases[-1][0, k:] = raw
        y = np.random.default_rng(22).standard_normal((50, 4))
        x, ld = layer.inverse_array(y)
        assert np.all(np.isfinite(x))
        np.testing.assert_allclose(ld, -np.sign(raw) * k * math.log(4.0),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(layer.forward_array(x)[0], y,
                                   rtol=0, atol=1e-12)


class TestLogDet:
    def test_additive_stack_logdet_exactly_zero(self):
        flow = perturbed_flow(6, "additive", seed=7, num_layers=4)
        z = np.random.default_rng(8).standard_normal((50, 6))
        _, ld = flow.forward(z)
        assert np.all(ld == 0.0)

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_affine_logdet_matches_fd_jacobian(self, dim):
        # mild perturbation keeps the Jacobian well conditioned, which the
        # finite-difference determinant oracle needs to be meaningful
        flow = perturbed_flow(dim, "affine", seed=9, scale=0.15)
        rng = np.random.default_rng(10)
        for _ in range(5):
            z = rng.standard_normal(dim)
            _, ld = flow.forward(z)
            sign, fd_ld = np.linalg.slogdet(fd_jacobian(flow, z))
            assert sign > 0
            assert abs(ld - fd_ld) < 1e-5

    def test_diagonal_affine_logdet(self):
        layer = DiagonalAffine([2.0, 0.5], [1.0, -1.0])
        flow = FlowModel(2, [layer])
        z = np.array([0.3, -0.7])
        x, ld = flow.forward(z)
        np.testing.assert_allclose(x, [2.0 * 0.3 + 1.0, 0.5 * -0.7 - 1.0])
        assert ld == pytest.approx(math.log(2.0) + math.log(0.5), abs=1e-12)

    def test_singular_diagonal_scale_rejected(self):
        with pytest.raises(SingularScale):
            DiagonalAffine([1.0, 0.0])

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_nonfinite_diagonal_scale_rejected(self, scale):
        with pytest.raises(SingularScale):
            DiagonalAffine([1.0, scale])


class TestLogProb:
    def test_identity_model_at_origin(self):
        flow = make_flow(2, rng=np.random.default_rng(11))
        assert flow.log_prob(np.zeros(2)) == pytest.approx(
            -math.log(2 * math.pi), abs=1e-12)

    def test_density_integrates_to_one_on_grid(self):
        flow = perturbed_flow(2, "affine", seed=12, scale=0.1)
        axis = np.linspace(-8, 8, 321)
        cell = axis[1] - axis[0]
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        mass = np.exp(flow.log_prob(pts)).sum() * cell * cell
        assert abs(mass - 1.0) < 0.01

    def test_invariant_under_appended_zero_conditioner_layer(self):
        flow = perturbed_flow(4, "affine", seed=13)
        x = np.random.default_rng(14).standard_normal((10, 4))
        before = flow.log_prob(x)
        extra = CouplingLayer("additive", [0, 2], [1, 3],
                              Mlp([2, 16, 2], np.random.default_rng(15)))
        extended = FlowModel(4, flow.layers + [extra])
        np.testing.assert_array_equal(extended.log_prob(x), before)

    def test_sampled_covariance_matches_constructed_gaussian(self):
        # flow built to be exactly N(mu, diag(s^2))
        mu = np.array([1.0, -2.0])
        s = np.array([0.6, 1.7])
        flow = FlowModel(2, [DiagonalAffine(s, mu)])
        samples = flow.sample(20_000, np.random.default_rng(16))
        np.testing.assert_allclose(samples.std(axis=0), s, rtol=0.1)
        np.testing.assert_allclose(samples.mean(axis=0), mu, atol=0.05)


class TestSampling:
    def test_identity_model_sample_mean_clt_bound(self):
        flow = make_flow(3, rng=np.random.default_rng(17))
        n = 4000
        samples = flow.sample(n, np.random.default_rng(18))
        assert np.all(np.abs(samples.mean(axis=0)) < 3.0 / math.sqrt(n))

    def test_equal_seeds_bit_identical(self):
        flow = perturbed_flow(4, "affine", seed=19)
        a = flow.sample(10, np.random.default_rng(42))
        b = flow.sample(10, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_sample_requires_positive_n(self):
        flow = make_flow(2, rng=np.random.default_rng(20))
        with pytest.raises(Exception):
            flow.sample(0, np.random.default_rng(0))


class TestComposedSampler:
    def test_identity_pre_generator_reproduces_base(self):
        base = perturbed_flow(3, "affine", seed=21)
        pre = make_flow(3, rng=np.random.default_rng(22))
        cs = ComposedSampler(pre, base)
        np.testing.assert_array_equal(cs.sample(20, np.random.default_rng(1)),
                                      base.sample(20, np.random.default_rng(1)))

    def test_logq_decomposition_pointwise(self):
        base = perturbed_flow(3, "affine", seed=23)
        pre = perturbed_flow(3, "affine", seed=24, scale=0.2)
        cs = ComposedSampler(pre, base)
        x, logq_forward = cs.sample_with_logq(100, np.random.default_rng(2))
        np.testing.assert_allclose(cs.log_prob(x), logq_forward, atol=1e-9)

    def test_kl_invariance_under_shared_outer_bijection(self):
        # same-eps MC estimates of KL in x space and z space agree termwise
        base = perturbed_flow(3, "affine", seed=25)
        pre = perturbed_flow(3, "affine", seed=26, scale=0.2)
        eps = np.random.default_rng(3).standard_normal((200, 3))
        z, ld_pre = pre.forward(eps)
        latent_terms = gaussian_logpdf(eps) - ld_pre - gaussian_logpdf(z)
        x, ld_base = base.forward(z)
        log_qx = gaussian_logpdf(eps) - ld_pre - ld_base
        z_back, ld_inv = base.inverse(x)
        log_px = gaussian_logpdf(z_back) + ld_inv
        ambient_terms = log_qx - log_px
        np.testing.assert_allclose(latent_terms, ambient_terms, atol=1e-9)

    def test_sample_set_builds_no_graph(self):
        # a tape recorded for these draws would hold ~66 KB a draw (328 MB);
        # the plain-numpy passes hold a few (5000, 64) arrays at a time
        rng = np.random.default_rng(35)
        cs = ComposedSampler(default_pre_generator(2, 0),
                             make_flow(2, num_layers=10, rng=rng))
        for p in cs.pre.parameters() + cs.base.parameters():
            p += 0.1 * rng.standard_normal(p.shape)
        tracemalloc.start()
        try:
            cs.sample(5000, np.random.default_rng(36))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(Exception, match="dimension"):
            ComposedSampler(make_flow(2, rng=np.random.default_rng(0)),
                            make_flow(3, rng=np.random.default_rng(0)))


class TestConditionalFlow:
    def test_context_changes_output(self):
        flow = perturbed_flow(4, "affine", seed=27, context_width=8)
        z = np.random.default_rng(28).standard_normal((5, 4))
        a, _ = flow.forward(z, context=np.zeros(8))
        b, _ = flow.forward(z, context=np.ones(8))
        assert np.max(np.abs(a - b)) > 1e-6

    def test_context_required(self):
        flow = make_flow(4, context_width=8, rng=np.random.default_rng(29))
        with pytest.raises(Exception, match="context"):
            flow.forward(np.zeros(4))

    def test_conditional_roundtrip(self):
        flow = perturbed_flow(4, "affine", seed=30, context_width=3)
        ctx = np.array([0.5, -1.0, 2.0])
        z = np.random.default_rng(31).standard_normal((20, 4))
        x, _ = flow.forward(z, context=ctx)
        z_back, _ = flow.inverse(x, context=ctx)
        assert np.max(np.abs(z_back - z)) < 1e-9


class TestGraphConsistency:
    def test_node_and_array_paths_agree_bitwise(self):
        flow = perturbed_flow(4, "affine", seed=32)
        z = np.random.default_rng(33).standard_normal((6, 4))
        g = de.Graph()
        xn, ldn = flow.forward_node(ParamBinder(g), g.constant(z))
        x, ld = flow.forward(z)
        np.testing.assert_array_equal(xn.value, x)
        np.testing.assert_array_equal(ldn.value, ld)
        x, ld = flow.forward_as_tape(z)
        np.testing.assert_array_equal(xn.value, x)
        np.testing.assert_array_equal(ldn.value, ld)

    @pytest.mark.parametrize("d", [2, 5, 64])
    def test_permutation_adjoints_match_scatter_add(self, d):
        # a permutation's adjoint is the gather by its inverse, with the
        # bytes of the scatter-add into zeros, -0.0 in the adjoint included
        perm = Permutation(np.random.default_rng(d).permutation(d))
        x = np.random.default_rng(d + 1).standard_normal((7, d))
        g = np.random.default_rng(d + 2).standard_normal((7, d))
        g[::2, 0] = -0.0
        for index, step in ((perm.perm, perm.forward_node),
                            (perm.inv, perm.inverse_node)):
            y, ld, vjp = step(x)
            np.testing.assert_array_equal(y, x[:, index])
            adjoint, g_ctx = vjp(g, None, None)
            reference = np.zeros((7, d))
            np.add.at(reference, (slice(None), index), g)
            assert ld is None and g_ctx is None
            assert adjoint.tobytes() == reference.tobytes()

    def test_gaussian_logpdf_node_matches_array(self):
        x = np.random.default_rng(34).standard_normal((8, 3))
        g = de.Graph()
        node = gaussian_logpdf_node(g.constant(x))
        np.testing.assert_array_equal(node.value, gaussian_logpdf(x))


def takes_views(flow):
    """Whether every coupling and permutation of ``flow`` gathers by slices."""
    index_sets = [ix for layer in flow.layers for ix in (
        (layer._cond, layer._out) if isinstance(layer, CouplingLayer)
        else (layer._order, layer._undo) if isinstance(layer, Permutation)
        else ())]
    return bool(index_sets) and all(isinstance(ix, slice) for ix in index_sets)


class TestIndexViews:
    @pytest.mark.parametrize("values, view", [
        ([0, 1, 2, 3], slice(0, 4, 1)),
        ([0, 2, 4], slice(0, 6, 2)),
        ([0, 3], slice(0, 6, 3)),
        ([1, 3, 5], slice(1, 7, 2)),
        ([3], slice(3, 4, 1)),
        ([4, 3, 2, 1, 0], slice(4, None, -1)),
        ([5, 3, 1], slice(5, None, -2)),
        ([3, 2], slice(3, 1, -1)),
    ], ids=["step-1", "step-2", "pair", "step-2-odd", "single", "descending",
            "descending-step-2", "descending-inner"])
    def test_progressions_are_slices(self, values, view):
        assert _index(values) == view
        x = np.arange(8.0 * 6).reshape(8, 6)
        np.testing.assert_array_equal(x[:, view], x[:, values])

    @pytest.mark.parametrize("values", [[2, 0, 1], [0, 1, 3], [1, 2, 4], [0, 0], []],
                             ids=["unsorted", "uneven", "non-progression",
                                  "repeated", "empty"])
    def test_other_sets_are_index_arrays(self, values):
        index = _index(values)
        assert isinstance(index, np.ndarray) and index.dtype == np.intp
        assert index.tolist() == values

    @pytest.mark.parametrize("dim", [2, 3, 5, 64])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_make_flow_gathers_by_views(self, dim, num_layers):
        flow = make_flow(dim, num_layers=num_layers, rng=np.random.default_rng(0))
        assert takes_views(flow)


def reads_vector(model):
    """Whether every state array of ``model`` is a view of its vector, the
    arrays tiling it in order."""
    arrays = model.parameters()
    return (all(a.base is model.vector for a in arrays)
            and np.array_equal(np.concatenate([a.ravel() for a in arrays]),
                               model.vector))


class TestParameterVector:
    def test_layers_read_the_model_vector(self):
        flow = perturbed_flow(3, "affine", seed=35, context_width=2)
        assert reads_vector(flow)
        assert flow.vector.size == sum(p.size for p in flow.parameters())
        flow.vector[:] = 0.0          # zero conditioners: the identity map
        z = np.random.default_rng(36).standard_normal((5, 3))
        np.testing.assert_array_equal(flow.forward(z, np.ones(2))[0], z)

    def test_model_built_from_other_layers_reads_its_own_vector(self):
        flow = perturbed_flow(3, "affine", seed=37)
        head = DiagonalAffine([0.5, 2.0, 1.5], [0.1, -0.2, 0.0])
        values = [a.copy() for a in head.state_arrays() + flow.parameters()]
        stacked = FlowModel(3, [head] + flow.layers)
        assert reads_vector(stacked)
        np.testing.assert_array_equal(
            stacked.vector, np.concatenate([a.ravel() for a in values]))
        assert head.logdet == pytest.approx(math.log(1.5))
        with pytest.raises(FlowError, match="another model's vector"):
            flow.vector

    def test_vector_of_wrong_size_rejected(self):
        layers = perturbed_flow(2, "affine", seed=38).layers
        with pytest.raises(FlowError, match="must hold"):
            FlowModel(2, layers, vector=np.zeros(3))
