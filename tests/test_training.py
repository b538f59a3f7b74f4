"""Trainer tests: Adam semantics, stream reproducibility, frozen-base and
identity-start contracts, MLE against the Gaussian entropy rate, and the
amortization machinery."""

import copy
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from flowcond import diffengine as de
from flowcond.flows import (ComposedSampler, FlowModel, ParamBinder, flat_views,
                            make_flow)
from flowcond.measurement import MaskOp, Observation, make_observation
from flowcond.objective import svi_loss
from flowcond.training import (AdamState, TrainConfig, TrainingDiverged,
                               TrainingError, TrainTrace, clip_gradients,
                               observation_context, stream_rng,
                               train_amortized, train_base_mle, train_svi)
from tests import flow_reference as ref
from tests.test_flows import perturbed_flow, reads_vector


def params_snapshot(model):
    return [p.copy() for p in model.parameters()]


def params_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


class TestStreamRng:
    def test_reproducible(self):
        a = stream_rng(7, "x", 3).standard_normal(5)
        b = stream_rng(7, "x", 3).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_purpose_and_step_separate_streams(self):
        base = stream_rng(7, "x", 3).standard_normal(5)
        assert not np.array_equal(base, stream_rng(7, "y", 3).standard_normal(5))
        assert not np.array_equal(base, stream_rng(7, "x", 4).standard_normal(5))
        assert not np.array_equal(base, stream_rng(8, "x", 3).standard_normal(5))


class TestAdam:
    def test_zero_gradient_is_identity(self):
        p = np.arange(6.0).reshape(2, 3)
        state = AdamState([p], learning_rate=0.1)
        before = p.copy()
        for _ in range(3):
            state.update(p.reshape(-1), np.zeros(6))
        np.testing.assert_array_equal(p, before)

    def test_first_step_is_signed_lr(self):
        p = np.zeros(3)
        state = AdamState([p], learning_rate=0.01)
        state.update(p, np.array([5.0, -2.0, 0.0]))
        np.testing.assert_allclose(p[:2], [-0.01, 0.01], rtol=1e-6)
        assert p[2] == 0.0

    def test_defaults(self):
        # beta1 = 0.9, beta2 = 0.999, eps = 1e-8, read off the first step
        p, g = np.zeros(1), np.array([2.0])
        state = AdamState([p], learning_rate=1e-3)
        state.update(p, g)
        m, v = (1.0 - 0.9) * g, (1.0 - 0.999) * (g * g)
        np.testing.assert_array_equal(state.m, m)
        np.testing.assert_array_equal(state.v, v)
        np.testing.assert_array_equal(
            p, -1e-3 * (m / (1.0 - 0.9)) / (np.sqrt(v / (1.0 - 0.999)) + 1e-8))

    def test_matches_per_array_reference(self):
        rng = np.random.default_rng(3)
        shapes = [(40, 50), (1, 50), (300,), (7, 3)]
        size = sum(math.prod(s) for s in shapes)
        vector = rng.standard_normal(size)
        reference = vector.copy()
        params = flat_views(vector, [np.empty(s) for s in shapes])
        ref_params = flat_views(reference, params)
        state = AdamState(params, learning_rate=3e-3)
        ref_state = ref.AdamState(ref_params, learning_rate=3e-3)
        for _ in range(5):
            grad = rng.standard_normal(size)
            state.update(vector, grad)
            ref_state.update(reference, grad)
        assert vector.tobytes() == reference.tobytes()
        assert state.m.tobytes() == np.concatenate(
            [m.reshape(-1) for m in ref_state.m]).tobytes()
        assert state.v.tobytes() == np.concatenate(
            [v.reshape(-1) for v in ref_state.v]).tobytes()

    def test_update_allocates_no_vector_sized_temporaries(self):
        rng = np.random.default_rng(4)
        vector = rng.standard_normal(100_000)
        grads = rng.standard_normal((4, vector.size))
        state = AdamState([vector], learning_rate=1e-3)
        state.update(vector, grads[0])
        tracemalloc.start()
        try:
            for grad in grads[1:]:
                state.update(vector, grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < vector.nbytes / 4, f"peak {peak} B"


class TestClip:
    def test_scales_to_max_norm(self):
        grad = np.array([3.0, 4.0])
        norm = clip_gradients(grad, [grad], 1.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(grad, [0.6, 0.8])

    def test_work_vector_takes_the_squares(self):
        rng = np.random.default_rng(5)
        grad = 100.0 * rng.standard_normal(100_000)
        grads = flat_views(grad, [np.empty(60_000), np.empty((400, 100))])
        expected = grad.copy()
        norm = clip_gradients(expected, flat_views(expected, grads), 100.0)
        work = np.empty_like(grad)
        tracemalloc.start()
        try:
            assert clip_gradients(grad, grads, 100.0, work) == norm
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grad.tobytes() == expected.tobytes()
        assert peak < grad.nbytes / 4, f"peak {peak} B"

    def test_none_disables(self):
        grad = np.array([30.0, 40.0])
        assert clip_gradients(grad, [grad], None) == pytest.approx(50.0)
        np.testing.assert_array_equal(grad, [30.0, 40.0])


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(TrainingError):
            TrainConfig(num_steps=-1)
        with pytest.raises(TrainingError):
            TrainConfig(batch_size=0)
        with pytest.raises(TrainingError):
            TrainConfig(sigma=0.0)

    @pytest.mark.parametrize("field", ["learning_rate", "gradient_clip_norm"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
    def test_rate_and_clip_must_be_finite_and_positive(self, field, value):
        # clip_gradients scales by max_norm / norm, so a clip < 0 would turn
        # every step into ascent, as would a rate < 0
        with pytest.raises(TrainingError) as exc:
            TrainConfig(**{field: value})
        assert exc.value.field == field
        TrainConfig(**{field: 1e200})
        TrainConfig(gradient_clip_norm=None)


class TestTrainSvi:
    def obs(self, dim=2):
        return Observation(y_star=np.array([0.8]), op=MaskOp([0], dim))

    def test_zero_steps_returns_identity_start(self):
        base = perturbed_flow(2, "affine", seed=1)
        pre, trace = train_svi(base, self.obs(), TrainConfig(num_steps=0))
        assert len(trace) == 0
        z = np.random.default_rng(0).standard_normal((5, 2))
        np.testing.assert_array_equal(pre.forward(z)[0], z)

    def test_step0_kl_exactly_zero(self):
        base = perturbed_flow(2, "affine", seed=2)
        _, trace = train_svi(base, self.obs(),
                             TrainConfig(num_steps=3, batch_size=16))
        assert trace.rows[0][1] == 0.0

    def test_base_frozen_bitwise(self):
        base = perturbed_flow(2, "affine", seed=3)
        before = params_snapshot(base)
        train_svi(base, self.obs(), TrainConfig(num_steps=20, batch_size=16))
        assert params_equal(before, params_snapshot(base))

    def test_full_run_determinism(self):
        base = perturbed_flow(2, "affine", seed=4)
        cfg = TrainConfig(num_steps=25, batch_size=16, seed=5)
        pre1, trace1 = train_svi(base, self.obs(), cfg)
        pre2, trace2 = train_svi(base, self.obs(), cfg)
        assert params_equal(params_snapshot(pre1), params_snapshot(pre2))
        assert trace1.rows == trace2.rows

    def test_pass_writes_the_flat_gradient_in_place(self, monkeypatch):
        # the pre-generator's pass node writes its weight gradients straight
        # into the flat gradient that the clip and Adam step: the gradient
        # map holds that very array, and nothing is copied into it
        seen = []
        gradients = ParamBinder.gradients

        def spy(self, grad_map, params, out=None):
            seen.append(sum(g is out[0] for g in grad_map.values()))
            return gradients(self, grad_map, params, out)

        monkeypatch.setattr(ParamBinder, "gradients", spy)
        base = perturbed_flow(2, "affine", seed=7)
        train_svi(base, self.obs(), TrainConfig(num_steps=3, batch_size=8))
        assert seen == [1, 1, 1]

    def test_divergence_aborts_with_step_and_trace(self):
        base = perturbed_flow(2, "affine", seed=6)
        # an absurd learning rate blows the shift heads past float range
        cfg = TrainConfig(num_steps=10, batch_size=4, sigma=1e-3,
                          learning_rate=1e200, gradient_clip_norm=None)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as err:
                train_svi(base, self.obs(), cfg)
        assert err.value.step >= 1
        assert isinstance(err.value.trace, TrainTrace)
        assert all(np.isfinite(r[3]) for r in err.value.trace.rows)

    def test_gaussian_base_posterior_moments(self):
        # identity base = N(0, I); observed x1 = 1.0 with sigma = 0.1 gives
        # x1 | y ~ N(1/(1+s^2), s^2/(1+s^2)) and x2 ~ N(0, 1) exactly;
        # compare learned moments to the grid-computed smoothed posterior
        base = FlowModel(2, [])
        obs = Observation(y_star=np.array([1.0]), op=MaskOp([0], 2))
        cfg = TrainConfig(learning_rate=1e-3, num_steps=1000, batch_size=128,
                          sigma=0.1, seed=7)
        pre, _ = train_svi(base, obs, cfg)
        samples = ComposedSampler(pre, base).sample(20_000, stream_rng(8, "eval"))

        axis = np.linspace(-6, 6, 601)
        cell = axis[1] - axis[0]
        logp1 = -0.5 * axis ** 2 - (axis - 1.0) ** 2 / (2 * 0.1 ** 2)
        w = np.exp(logp1 - logp1.max())
        w /= w.sum() * cell
        grid_mean = float((w * axis).sum() * cell)
        grid_var = float((w * (axis - grid_mean) ** 2).sum() * cell)

        assert abs(samples[:, 0].mean() - grid_mean) < 0.05
        assert abs(samples[:, 0].var() - grid_var) < 0.05
        assert abs(samples[:, 1].mean() - 0.0) < 0.05
        assert abs(samples[:, 1].var() - 1.0) < 0.08


class TestTrainBaseMle:
    def test_standard_normal_entropy_rate(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((4000, 2))
        flow = make_flow(2, num_layers=4, hidden_width=24,
                         rng=np.random.default_rng(10))
        cfg = TrainConfig(learning_rate=2e-3, num_steps=400, batch_size=256,
                          seed=11)
        flow, trace = train_base_mle(flow, data, cfg)
        entropy_rate = 0.5 * math.log(2 * math.pi * math.e)   # 1.4189
        final = np.mean([r[3] for r in trace.rows[-20:]])
        assert abs(final - entropy_rate) < 0.05

    def test_two_moons_heldout_nll_improves(self):
        from flowcond.persist import synth_dataset
        train = synth_dataset("two-moons", 4000, seed=12).samples
        held = synth_dataset("two-moons", 2000, seed=13).samples
        init = make_flow(2, num_layers=6, hidden_width=32,
                         rng=np.random.default_rng(14))

        def heldout_nll(k):
            # every batch is keyed by (seed, step), so a k-step fit ends
            # where a longer fit from the same init passed step k
            cfg = TrainConfig(learning_rate=2e-3, num_steps=k, batch_size=256,
                              seed=15)
            flow, _ = train_base_mle(copy.deepcopy(init), train, cfg)
            return -float(np.mean(flow.log_prob(held)))

        first = np.mean([heldout_nll(k) for k in (40, 80, 120)])
        last = np.mean([heldout_nll(k) for k in (320, 360, 400)])
        assert last < first

    def test_zero_steps_leaves_parameters(self):
        flow = perturbed_flow(2, "affine", seed=16)
        before = params_snapshot(flow)
        train_base_mle(flow, np.zeros((10, 2)), TrainConfig(num_steps=0))
        assert params_equal(before, params_snapshot(flow))

    def test_deepcopy_trains_its_own_vector(self):
        base = perturbed_flow(3, "affine", seed=18, num_layers=3, hidden_width=8)
        before = params_snapshot(base)
        twin = copy.deepcopy(base)
        assert reads_vector(twin)
        data = np.random.default_rng(19).standard_normal((200, 3))
        cfg = TrainConfig(learning_rate=5e-3, num_steps=4, batch_size=16, seed=20)
        train_base_mle(twin, data, cfg)
        assert params_equal(before, params_snapshot(base))
        assert not params_equal(before, params_snapshot(twin))
        train_base_mle(base, data, cfg)
        assert params_equal(params_snapshot(base), params_snapshot(twin))

    def test_each_step_frees_its_tape_without_the_collector(self, monkeypatch):
        # a tape's nodes point at their graph; left to the cyclic collector,
        # many steps' tapes stayed alive at once (blobs64's train-base
        # peaked at 160 MB of traced memory, 16 MB with each tape freed)
        graphs = []

        class Graph(de.Graph):
            def __init__(self):
                super().__init__()
                graphs.append(weakref.ref(self))

        monkeypatch.setattr(de, "Graph", Graph)
        flow = perturbed_flow(3, "affine", seed=21, num_layers=3, hidden_width=8)
        data = np.random.default_rng(22).standard_normal((100, 3))
        gc.disable()
        try:
            train_base_mle(flow, data, TrainConfig(num_steps=5, batch_size=16))
            alive = [ref() for ref in graphs if ref() is not None]
        finally:
            gc.enable()
        assert len(graphs) == 5 and alive == []

    def test_trained_on_known_gaussian_covariance(self):
        # moment oracle from the generating distribution
        rng = np.random.default_rng(42)
        mean = np.array([0.5, -0.25])
        scale = np.array([0.9, 1.6])
        data = mean + scale * rng.standard_normal((6000, 2))
        flow = make_flow(2, num_layers=4, hidden_width=24,
                         rng=np.random.default_rng(43))
        cfg = TrainConfig(learning_rate=2e-3, num_steps=500, batch_size=256,
                          seed=44)
        flow, _ = train_base_mle(flow, data, cfg)
        samples = flow.sample(20_000, np.random.default_rng(45))
        target_cov = np.diag(scale ** 2)
        sample_cov = np.cov(samples.T)
        assert np.all(np.abs(np.diag(sample_cov) - np.diag(target_cov))
                      / np.diag(target_cov) < 0.1)
        assert np.all(np.abs(samples.mean(axis=0) - mean) < 0.1)

    def test_dataset_shape_validation(self):
        flow = make_flow(2, rng=np.random.default_rng(17))
        with pytest.raises(TrainingError):
            train_base_mle(flow, np.zeros((5, 3)), TrainConfig(num_steps=1))


class TestAmortization:
    def test_observation_context_embedding(self):
        op = MaskOp([1, 3], 4)
        obs = Observation(y_star=np.array([5.0, 7.0]), op=op)
        ctx = observation_context(obs)
        np.testing.assert_array_equal(ctx, [0, 5, 0, 7, 0, 1, 0, 1])

    def test_context_requires_mask(self):
        from flowcond.measurement import GaussianOp
        obs = Observation(y_star=np.zeros(2), op=GaussianOp(0, 2, 3))
        with pytest.raises(TrainingError):
            observation_context(obs)

    def test_zero_steps_identity(self):
        base = perturbed_flow(2, "affine", seed=18)
        cond = make_flow(2, context_width=4, rng=np.random.default_rng(19))
        out = train_amortized(base, cond, lambda rng: None,
                              TrainConfig(num_steps=0))
        z = np.random.default_rng(20).standard_normal((4, 2))
        np.testing.assert_array_equal(out.forward(z, context=np.ones(4))[0], z)

    def test_context_width_validated(self):
        base = perturbed_flow(2, "affine", seed=21)
        cond = make_flow(2, context_width=3, rng=np.random.default_rng(22))
        with pytest.raises(TrainingError):
            train_amortized(base, cond, lambda rng: None,
                            TrainConfig(num_steps=1))

    def test_degenerate_family_matches_svi(self):
        # a single repeated observation: the amortized loss should come out
        # close to what per-observation training reaches at equal budget
        base = perturbed_flow(2, "affine", seed=23, scale=0.2)
        op = MaskOp([0], 2)
        gt = np.array([0.6, -0.2])
        obs = make_observation(op, gt)
        cfg = TrainConfig(learning_rate=2e-3, num_steps=500, batch_size=64,
                          sigma=0.2, seed=24)
        pre, svi_trace = train_svi(base, obs, cfg)

        cond = make_flow(2, context_width=4,
                         rng=stream_rng(24, "pregen-init"))
        amort = train_amortized(base, cond, lambda rng: obs, cfg)

        from flowcond.objective import SmoothingSpec
        eps = stream_rng(25, "eval").standard_normal((4000, 2))
        svi_total = svi_loss(ComposedSampler(pre, base), obs,
                             SmoothingSpec(0.2), eps).total
        ctx = observation_context(obs)
        avi_total = svi_loss(ComposedSampler(amort, base, context=ctx), obs,
                             SmoothingSpec(0.2), eps).total
        assert avi_total <= 1.10 * max(svi_total, 1e-3) + 0.05

    def test_amortized_determinism(self):
        base = perturbed_flow(2, "affine", seed=26)
        op = MaskOp([0], 2)

        def sampler(rng):
            gt = rng.standard_normal(2)
            return make_observation(op, gt)

        def run():
            cond = make_flow(2, context_width=4,
                             rng=stream_rng(27, "cond-init"))
            out = train_amortized(base, cond, sampler,
                                  TrainConfig(num_steps=15, batch_size=8,
                                              seed=28))
            return params_snapshot(out)

        assert params_equal(run(), run())
