"""Competing inference procedures over the same frozen base flow.

* unadjusted Langevin Monte Carlo in the base model's latent space,
* latent optimization of the raw data-fit objective (point estimate),
* the same with l2 latent regularization and random restarts (point
  estimate, best of k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffengine as de
from .flows import FlowModel, gaussian_logpdf_node
from .measurement import Observation
from .objective import SmoothingSpec
from .training import TrainConfig, _fit, stream_rng


class BaselineError(ValueError):
    pass


@dataclass
class LmcConfig:
    step_size: float = 5e-4
    chain_length: int = 4000
    burn_in: int | None = None     # default: 20% of the chain
    thinning: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.step_size < 0.0:
            raise BaselineError("step_size must be >= 0")
        if self.burn_in is None:
            self.burn_in = self.chain_length // 5
        if not 0 <= self.burn_in < max(self.chain_length, 1):
            raise BaselineError("burn_in must be < chain_length")
        if self.thinning < 1:
            raise BaselineError("thinning must be >= 1")


@dataclass
class Chain:
    """Retained latent states (post burn-in, thinned), their unnormalized
    log-target values, the config and the smoothing width the chain ran
    at.  The drift convention is the half-step one:
    z' = z + (eta/2) grad + sqrt(eta) xi."""

    states: np.ndarray
    log_targets: np.ndarray
    config: LmcConfig
    sigma: float

    def __len__(self):
        return len(self.states)


def _target_nodes(base, obs, beta, z_node):
    x, _ = base.forward_node(None, z_node)
    y = obs.op.apply_node(x)
    target = z_node.graph.constant(obs.y_star[None, :].repeat(z_node.value.shape[0], axis=0))
    pen = (y - target).square().sum(axis=1)
    return gaussian_logpdf_node(z_node) - beta * pen


def lmc_sample(base: FlowModel, obs: Observation, smoothing: SmoothingSpec,
               config: LmcConfig) -> Chain:
    """Unadjusted Langevin chain targeting
    log p_z(z) - ||A(f(z)) - y*||^2 / (2 sigma^2); no Metropolis correction,
    so the stationary law carries the usual O(eta) discretization bias."""
    d = base.dim
    eta = config.step_size
    z = stream_rng(config.seed, "lmc-init").standard_normal((1, d))
    states, log_targets = [], []
    root_eta = math.sqrt(eta)
    for t in range(config.chain_length):
        g = de.Graph()
        zn = g.leaf(z)
        tgt = _target_nodes(base, obs, smoothing.beta, zn)
        scalar = tgt.sum()
        if not np.isfinite(scalar.value):
            raise BaselineError(f"non-finite chain state at step {t}")
        if t >= config.burn_in and (t - config.burn_in) % config.thinning == 0:
            states.append(z[0].copy())
            log_targets.append(float(scalar.value))
        grad = de.backward(g, scalar)[zn]
        noise = stream_rng(config.seed, "lmc-noise", t).standard_normal((1, d))
        z = z + 0.5 * eta * grad + root_eta * noise
    return Chain(states=np.asarray(states), log_targets=np.asarray(log_targets),
                 config=config, sigma=smoothing.sigma)


def save_chain(chain: Chain, path) -> None:
    cfg = chain.config
    header = (f"# d={chain.states.shape[1]} step_size={cfg.step_size!r} "
              f"chain_length={cfg.chain_length} burn_in={cfg.burn_in} "
              f"thinning={cfg.thinning} seed={cfg.seed} sigma={chain.sigma!r} "
              f"drift=half-step")
    with open(path, "w", encoding="ascii") as f:
        f.write(header + "\n")
        for row in chain.states:
            f.write(",".join(repr(float(v)) for v in row) + "\n")


@dataclass
class PointEstimate:
    """A single reconstruction plus the objective it achieved."""

    x_hat: np.ndarray
    objective: float
    restart_objectives: tuple[float, ...] = ()


def latent_objective(base, obs, z, lam: float = 0.0) -> float:
    """||A(f(z)) - y*||^2 + lam ||z||^2 for a (1, d) latent point."""
    x = base.forward(z)[0]
    r = obs.op.apply(x) - obs.y_star[None, :]
    val = float(np.sum(r * r))
    if lam != 0.0:
        val += lam * float(np.sum(z * z))
    return val


def _optimize_latent(base, obs, z0, lr, steps, lam):
    """Adam on z for ||A(f(z)) - y*||^2 + lam ||z||^2, without a gradient
    clip; returns (z, objective)."""
    z = z0.copy()
    target = obs.y_star[None, :]

    def step_loss(bind, step):
        zn = bind(z)
        x, _ = base.forward_node(None, zn)
        loss = (obs.op.apply_node(x) - bind.graph.constant(target)).square().sum()
        if lam != 0.0:
            loss = loss + lam * zn.square().sum()
        return loss, (0.0, 0.0, float(loss.value))

    _fit([z], TrainConfig(learning_rate=lr, num_steps=steps,
                          gradient_clip_norm=None), step_loss)
    return z, latent_objective(base, obs, z, lam)


def ivom_estimate(base: FlowModel, obs: Observation, lr: float = 5e-4,
                  steps: int = 4000, seed: int = 0) -> PointEstimate:
    """Latent optimization of ||A(f(z)) - y*||^2 from z0 ~ N(0, I)."""
    if steps < 0:
        raise BaselineError("steps must be >= 0")
    z0 = stream_rng(seed, "ivom-init").standard_normal((1, base.dim))
    z, obj = _optimize_latent(base, obs, z0, lr, steps, lam=0.0)
    x_hat = base.forward(z)[0][0]
    return PointEstimate(x_hat=x_hat, objective=obj, restart_objectives=(obj,))


def csgm_estimate(base: FlowModel, obs: Observation, lr: float = 0.02,
                  steps: int = 4000, lam: float = 0.1, restarts: int = 3,
                  seed: int = 0) -> PointEstimate:
    """Regularized latent projection, best of ``restarts`` runs, each
    initialized z0 ~ N(0, 0.1^2 I)."""
    if restarts < 1:
        raise BaselineError("restarts must be >= 1")
    if steps < 0:
        raise BaselineError("steps must be >= 0")
    best = None
    finals = []
    for r in range(restarts):
        z0 = 0.1 * stream_rng(seed, "csgm-init", r).standard_normal((1, base.dim))
        z, _ = _optimize_latent(base, obs, z0, lr, steps, lam)
        obj = latent_objective(base, obs, z, lam)
        finals.append(obj)
        if best is None or obj < best[1]:
            best = (z, obj)
    x_hat = base.forward(best[0])[0][0]
    return PointEstimate(x_hat=x_hat, objective=best[1],
                         restart_objectives=tuple(finals))
