"""Baseline sampler/optimizer tests: Langevin chain mechanics against
stationary-law oracles, and the point-estimate contracts."""

import gc
import weakref

import numpy as np
import pytest

from flowcond import baselines
from flowcond import diffengine as de
from flowcond.baselines import (BaselineError, LmcConfig, csgm_estimate,
                                ivom_estimate, latent_objective, lmc_sample,
                                save_chain)
from flowcond.flows import DiagonalAffine, FlowModel
from flowcond.measurement import MaskOp, Observation
from flowcond.objective import SmoothingSpec
from flowcond.training import stream_rng
from tests.test_flows import perturbed_flow


def identity_base(dim=2):
    return FlowModel(dim, [])


def far_obs(dim=2):
    """Observation with negligible influence (huge smoothing sigma)."""
    return Observation(y_star=np.zeros(1), op=MaskOp([0], dim))


class TestLmcConfig:
    def test_burn_in_defaults_to_fifth(self):
        cfg = LmcConfig(chain_length=1000)
        assert cfg.burn_in == 200

    def test_validation(self):
        with pytest.raises(BaselineError):
            LmcConfig(step_size=-1.0)
        with pytest.raises(BaselineError):
            LmcConfig(chain_length=100, burn_in=100)
        with pytest.raises(BaselineError):
            LmcConfig(thinning=0)

    def test_rejects_empty_chain_and_nan_step(self):
        with pytest.raises(BaselineError, match="chain_length"):
            LmcConfig(chain_length=0)
        with pytest.raises(BaselineError, match="step_size"):
            LmcConfig(step_size=float("nan"))


class TestLmcChain:
    def test_zero_step_size_constant_chain(self):
        cfg = LmcConfig(step_size=0.0, chain_length=50, burn_in=0, seed=1)
        chain = lmc_sample(identity_base(), far_obs(), SmoothingSpec(1e9), cfg)[0]
        assert np.all(chain.states == chain.states[0])

    def test_retained_count_formula(self):
        cfg = LmcConfig(step_size=1e-3, chain_length=103, burn_in=20,
                        thinning=7, seed=2)
        chain = lmc_sample(identity_base(), far_obs(), SmoothingSpec(1.0), cfg)[0]
        assert len(chain) == -(-(103 - 20) // 7)   # ceil

    def test_determinism(self):
        cfg = LmcConfig(step_size=1e-2, chain_length=60, seed=3)
        a = lmc_sample(identity_base(), far_obs(), SmoothingSpec(1.0), cfg)[0]
        b = lmc_sample(identity_base(), far_obs(), SmoothingSpec(1.0), cfg)[0]
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.log_targets, b.log_targets)

    def test_each_step_frees_its_tape_without_the_collector(self, monkeypatch):
        # a tape's nodes point at their graph, so a step's tape left to the
        # cyclic collector stays alive until it runs
        graphs = []

        class Graph(de.Graph):
            def __init__(self):
                super().__init__()
                graphs.append(weakref.ref(self))

        monkeypatch.setattr(de, "Graph", Graph)
        base = perturbed_flow(2, "affine", seed=5, num_layers=2, hidden_width=8)
        obs = Observation(y_star=np.array([0.5]), op=MaskOp([0], 2))
        cfg = LmcConfig(step_size=1e-3, chain_length=6, burn_in=0, seed=6)
        gc.disable()
        try:
            lmc_sample(base, obs, SmoothingSpec(0.5), cfg, n_chains=2)
            alive = [ref() for ref in graphs if ref() is not None]
        finally:
            gc.enable()
        assert len(graphs) == 6 and alive == []

    def test_noise_increments_have_variance_eta(self):
        # reconstruct the injected noise by subtracting the known drift of
        # the prior-only target (grad = -z); its variance must be ~ eta
        eta = 0.05
        cfg = LmcConfig(step_size=eta, chain_length=10_000, burn_in=0, seed=4)
        chain = lmc_sample(identity_base(), far_obs(), SmoothingSpec(1e9), cfg)[0]
        z = chain.states
        drift = -0.5 * eta * z[:-1]
        noise = z[1:] - z[:-1] - drift
        var = noise.var()
        assert abs(var - eta) / eta < 0.1

    def test_prior_only_stationary_moments(self):
        # sigma -> infinity limit: the target is N(0, I); ULA's stationary
        # variance for this target is 1/(1 - eta/4), a small known bias
        eta = 0.1
        cfg = LmcConfig(step_size=eta, chain_length=60_000, burn_in=5000,
                        seed=5)
        chain = lmc_sample(identity_base(), far_obs(), SmoothingSpec(1e9), cfg)[0]
        z = chain.states
        assert z.shape[1] == 2
        assert np.all(np.abs(z.mean(axis=0)) < 0.05)
        assert np.all(np.abs(z.var(axis=0) - 1.0) < 0.05)

    def test_posterior_histogram_matches_grid_oracle(self):
        # identity base, observe x1 = 0.7 with sigma 0.3: exact posterior is
        # diagonal Gaussian; compare the x2 histogram against it
        sigma, y = 0.3, 0.7
        obs = Observation(y_star=np.array([y]), op=MaskOp([0], 2))
        cfg = LmcConfig(step_size=0.1, chain_length=30_000, burn_in=3000,
                        seed=6)
        chain = lmc_sample(identity_base(), obs, SmoothingSpec(sigma), cfg)[0]
        x = chain.states            # identity base: x = z
        # oracle: x2 ~ N(0, 1); 20-bin histogram TV
        bins = np.linspace(-4, 4, 21)
        hist, _ = np.histogram(x[:, 1], bins=bins)
        hist = hist / hist.sum()
        from math import erf, sqrt
        cdf = np.array([0.5 * (1 + erf(b / sqrt(2))) for b in bins])
        oracle = np.diff(cdf)
        oracle = oracle / oracle.sum()
        tv = 0.5 * np.abs(hist - oracle).sum()
        assert tv < 0.1
        # and x1 concentrates near its smoothed-posterior mean
        assert abs(x[:, 0].mean() - y / (1 + sigma ** 2)) < 0.05

    def test_nonfinite_abort_reports_step(self):
        base = perturbed_flow(2, "affine", seed=7)
        obs = Observation(y_star=np.array([0.0]), op=MaskOp([0], 2))
        cfg = LmcConfig(step_size=1e280, chain_length=50, burn_in=0, seed=8)
        with pytest.raises(BaselineError, match="step"):
            lmc_sample(base, obs, SmoothingSpec(1e-6), cfg)

    def test_export_format(self, tmp_path):
        cfg = LmcConfig(step_size=1e-2, chain_length=30, seed=9)
        chain = lmc_sample(identity_base(), far_obs(), SmoothingSpec(1.0), cfg)[0]
        path = tmp_path / "chain.csv"
        save_chain(chain, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# d=2")
        assert "drift=half-step" in lines[0]
        assert len(lines) == 1 + len(chain)
        row = np.array([float(tok) for tok in lines[1].split(",")])
        np.testing.assert_array_equal(row, chain.states[0])
        # the header's sigma is the smoothing the chain ran at
        assert " sigma=1.0 " in lines[0]


class TestLmcBatched:
    def test_rows_match_single_chains(self):
        # chain c of a batched run is the chain seed + c runs alone, up to
        # the rounding of a 4-row product against a 1-row one
        base = perturbed_flow(2, "affine", seed=21, scale=0.1)
        obs = Observation(y_star=np.array([0.4]), op=MaskOp([0], 2))
        cfg = LmcConfig(step_size=1e-3, chain_length=50, seed=22)
        batched = lmc_sample(base, obs, SmoothingSpec(0.3), cfg, n_chains=4)
        assert len(batched) == 4
        for c, chain in enumerate(batched):
            alone = lmc_sample(base, obs, SmoothingSpec(0.3),
                               LmcConfig(step_size=1e-3, chain_length=50,
                                         seed=22 + c))[0]
            assert chain.config.seed == 22 + c
            np.testing.assert_allclose(chain.states, alone.states,
                                       rtol=0, atol=1e-9)
            np.testing.assert_allclose(chain.log_targets, alone.log_targets,
                                       rtol=0, atol=1e-9)
            assert abs(chain.acceptance - alone.acceptance) < 1e-9

    def test_pooled_chains_follow_the_unadjusted_law(self):
        # one DiagonalAffine layer observed at x0: the latent target is
        # Gaussian with diagonal precision p, and the unadjusted chain
        # z' = a z + (1 - a) mu + sqrt(eta) xi, a = 1 - eta p / 2, has mean
        # mu and variance eta / (1 - a^2), not the target's 1/p
        scale, shift = np.array([0.5, 2.0]), np.array([0.3, -1.0])
        y, sigma, eta = 0.9, 0.5 * np.sqrt(2.0), 1.0
        base = FlowModel(2, [DiagonalAffine(scale, shift)])
        obs = Observation(y_star=np.array([y]), op=MaskOp([0], 2))
        chains = lmc_sample(base, obs, SmoothingSpec(sigma),
                            LmcConfig(step_size=eta, chain_length=600, seed=3),
                            n_chains=4)
        z = np.concatenate([chain.states for chain in chains])
        two_beta = 1.0 / sigma ** 2
        p = np.array([1.0 + two_beta * scale[0] ** 2, 1.0])
        mu = np.array([two_beta * scale[0] * (y - shift[0]) / p[0], 0.0])
        a = 1.0 - eta * p / 2.0
        var = eta / (1.0 - a * a)
        n = len(z)
        # standard errors from the AR(1) integrated autocorrelation times
        se_mean = np.sqrt(var * (1 + a) / (1 - a) / n)
        se_var = var * np.sqrt(2.0 * (1 + a * a) / (1 - a * a) / n)
        assert np.all(np.abs(z.mean(axis=0) - mu) / se_mean < 4.5)
        assert np.all(np.abs(z.var(axis=0) - var) / se_var < 4.5)

    def test_nonfinite_row_names_chain_and_step(self, monkeypatch):
        # an infinite noise draw for chain 1 at step 5 makes its state
        # non-finite at step 6, while the other rows stay finite
        class Infinite:
            def standard_normal(self, shape):
                return np.full(shape, np.inf)

        def stream(seed, purpose, step=0):
            if (seed, purpose, step) == (31, "lmc-noise", 5):
                return Infinite()
            return stream_rng(seed, purpose, step)

        monkeypatch.setattr(baselines, "stream_rng", stream)
        cfg = LmcConfig(step_size=1e-2, chain_length=20, seed=30)
        with pytest.raises(BaselineError, match=r"chain 1 \(seed 31\) at step 6"):
            lmc_sample(identity_base(), far_obs(), SmoothingSpec(1.0), cfg,
                       n_chains=3)

    def test_n_chains_validated(self):
        with pytest.raises(BaselineError):
            lmc_sample(identity_base(), far_obs(), SmoothingSpec(1.0),
                       LmcConfig(chain_length=10), n_chains=0)


def prior_log_acceptance(z, z_new, eta):
    """log Metropolis ratio of z -> z_new for the N(0, I) target, whose
    gradient is -z, under the proposal N(z + (eta/2) grad, eta I)."""
    forward = z_new - z + 0.5 * eta * z
    backward = z - z_new + 0.5 * eta * z_new
    return (-0.5 * np.sum(z_new ** 2, axis=-1) + 0.5 * np.sum(z ** 2, axis=-1)
            + (np.sum(forward ** 2, axis=-1) - np.sum(backward ** 2, axis=-1))
            / (2.0 * eta))


class TestLmcAcceptance:
    # identity base and a huge smoothing sigma: the target is N(0, I)

    def test_matches_recomputation_from_states(self):
        eta = 0.5
        cfg = LmcConfig(step_size=eta, chain_length=400, burn_in=0, seed=40)
        for chain in lmc_sample(identity_base(), far_obs(), SmoothingSpec(1e9),
                                cfg, n_chains=2):
            z = chain.states
            alpha = np.exp(np.minimum(prior_log_acceptance(z[:-1], z[1:], eta), 0))
            assert abs(chain.acceptance - alpha.mean()) < 1e-12

    def test_small_step_accepts_nearly_all(self):
        cfg = LmcConfig(step_size=1e-4, chain_length=500, seed=41)
        chain = lmc_sample(identity_base(), far_obs(), SmoothingSpec(1e9), cfg)[0]
        assert chain.acceptance > 0.999

    def test_zero_step_accepts_all(self):
        cfg = LmcConfig(step_size=0.0, chain_length=20, seed=42)
        chain = lmc_sample(identity_base(), far_obs(), SmoothingSpec(1e9), cfg)[0]
        assert chain.acceptance == 1.0

    def test_large_step_matches_monte_carlo_under_unadjusted_law(self):
        # eta = 3: a = 1 - eta/2 = -0.5, and the unadjusted chain's law is
        # N(0, eta / (1 - a^2)) = N(0, 4); draw (z, z') from it directly
        eta = 3.0
        a = 1.0 - eta / 2.0
        rng = np.random.default_rng(43)
        z = np.sqrt(eta / (1 - a * a)) * rng.standard_normal((200_000, 2))
        z_new = a * z + np.sqrt(eta) * rng.standard_normal(z.shape)
        expected = np.exp(np.minimum(prior_log_acceptance(z, z_new, eta), 0)).mean()
        cfg = LmcConfig(step_size=eta, chain_length=5000, seed=44)
        chains = lmc_sample(identity_base(), far_obs(), SmoothingSpec(1e9), cfg,
                            n_chains=2)
        assert abs(np.mean([c.acceptance for c in chains]) - expected) < 0.02

    def test_export_records_acceptance(self, tmp_path):
        cfg = LmcConfig(step_size=1e-2, chain_length=30, seed=45)
        chain = lmc_sample(identity_base(), far_obs(), SmoothingSpec(1.0), cfg)[0]
        path = tmp_path / "chain.csv"
        save_chain(chain, path)
        header = path.read_text().splitlines()[0]
        assert header.endswith(f" acceptance={chain.acceptance!r}")


class TestIvom:
    def test_full_mask_converges_on_toy(self):
        base = perturbed_flow(2, "affine", seed=10, scale=0.1)
        x_true = base.forward(np.array([0.4, -0.7]))[0]
        op = MaskOp([0, 1], 2)
        obs = Observation(y_star=op.apply(x_true), op=op)
        est = ivom_estimate(base, obs, lr=0.01, steps=3000, seed=11)
        assert est.objective < 1e-4
        assert np.sum((op.apply(est.x_hat) - obs.y_star) ** 2) < 1e-4

    def test_zero_steps_returns_pushed_init(self):
        base = perturbed_flow(2, "affine", seed=12)
        obs = far_obs()
        est = ivom_estimate(base, obs, steps=0, seed=13)
        z0 = stream_rng(13, "ivom-init").standard_normal((1, 2))
        np.testing.assert_array_equal(est.x_hat, base.forward(z0)[0][0])

    def test_signature_defaults_match_reference_settings(self):
        import inspect
        sig = inspect.signature(ivom_estimate)
        assert sig.parameters["lr"].default == 5e-4
        assert sig.parameters["steps"].default == 4000


class TestCsgm:
    def test_lambda_zero_objective_identity_with_ivom(self):
        base = perturbed_flow(2, "affine", seed=14)
        obs = Observation(y_star=np.array([0.3]), op=MaskOp([0], 2))
        z = np.random.default_rng(15).standard_normal((1, 2))
        assert latent_objective(base, obs, z, 0.0) == \
            latent_objective(base, obs, z, lam=0.0)
        # with lam the objective adds exactly lam*||z||^2
        with_reg = latent_objective(base, obs, z, 0.1)
        assert with_reg == pytest.approx(
            latent_objective(base, obs, z, 0.0) + 0.1 * float(np.sum(z * z)))

    def test_best_of_restarts(self):
        base = perturbed_flow(2, "affine", seed=16, scale=0.2)
        obs = Observation(y_star=np.array([0.5]), op=MaskOp([0], 2))
        est = csgm_estimate(base, obs, steps=200, restarts=3, seed=17)
        assert len(est.restart_objectives) == 3
        assert est.objective <= min(est.restart_objectives) + 1e-12

    def test_signature_defaults_match_reference_settings(self):
        import inspect
        sig = inspect.signature(csgm_estimate)
        assert sig.parameters["lr"].default == 0.02
        assert sig.parameters["lam"].default == 0.1
        assert sig.parameters["restarts"].default == 3

    def test_restarts_validated(self):
        base = perturbed_flow(2, "affine", seed=18)
        with pytest.raises(BaselineError):
            csgm_estimate(base, far_obs(), restarts=0)

    def test_determinism(self):
        base = perturbed_flow(2, "affine", seed=19)
        obs = Observation(y_star=np.array([0.1]), op=MaskOp([0], 2))
        a = csgm_estimate(base, obs, steps=50, seed=20)
        b = csgm_estimate(base, obs, steps=50, seed=20)
        np.testing.assert_array_equal(a.x_hat, b.x_hat)
