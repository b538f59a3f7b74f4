"""Competing inference procedures over the same frozen base flow.

* unadjusted Langevin Monte Carlo in the base model's latent space,
* latent optimization of the raw data-fit objective (point estimate),
* the same with l2 latent regularization and random restarts (point
  estimate, best of k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import diffengine as de
from .flows import FlowModel, gaussian_logpdf_node
from .measurement import Observation
from .objective import SmoothingSpec
from .training import TrainConfig, _fit, stream_rng


class BaselineError(ValueError):
    """A baseline that cannot run; ``field`` names the setting at fault,
    when one is."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


@dataclass
class LmcConfig:
    step_size: float = 5e-4
    chain_length: int = 4000
    burn_in: int | None = None     # default: 20% of the chain
    thinning: int = 1
    seed: int = 0

    def __post_init__(self):
        if not self.step_size >= 0.0:
            raise BaselineError("step_size must be >= 0", "step_size")
        if self.chain_length < 1:
            raise BaselineError("chain_length must be >= 1", "chain_length")
        if self.burn_in is None:
            self.burn_in = self.chain_length // 5
        if not 0 <= self.burn_in < self.chain_length:
            raise BaselineError("burn_in must be < chain_length", "burn_in")
        if self.thinning < 1:
            raise BaselineError("thinning must be >= 1", "thinning")


@dataclass
class Chain:
    """Retained latent states (post burn-in, thinned), their unnormalized
    log-target values, the config and the smoothing width the chain ran
    at, and the mean Metropolis acceptance probability of its post-burn-in
    transitions.  The drift convention is the half-step one:
    z' = z + (eta/2) grad + sqrt(eta) xi."""

    states: np.ndarray
    log_targets: np.ndarray
    config: LmcConfig
    sigma: float
    acceptance: float

    def __len__(self):
        return len(self.states)


def _target_nodes(base, obs, beta, z_node):
    x, _ = base.forward_node(None, z_node)
    return gaussian_logpdf_node(z_node) - beta * obs.residual_node(x)


def _log_acceptance(z, log_p, grad, z_new, log_p_new, grad_new, eta):
    """Per-row log Metropolis ratio of the move z -> z_new under the
    Langevin proposal q(.|z) = N(z + (eta/2) grad, eta I)."""
    forward = z_new - z - 0.5 * eta * grad
    backward = z - z_new - 0.5 * eta * grad_new
    return (log_p_new - log_p
            + (np.sum(forward * forward, axis=1)
               - np.sum(backward * backward, axis=1)) / (2.0 * eta))


def lmc_sample(base: FlowModel, obs: Observation, smoothing: SmoothingSpec,
               config: LmcConfig, n_chains: int = 1) -> list[Chain]:
    """Unadjusted Langevin chains targeting
    log p_z(z) - ||A(f(z)) - y*||^2 / (2 sigma^2); no Metropolis correction,
    so the stationary law carries the usual O(eta) discretization bias.

    Chain c runs at seed ``config.seed + c``, and all chains advance
    together as the rows of one (n_chains, d) state: the target is a sum
    over rows, so each row's gradient is its own.  Each chain's
    ``acceptance`` is the mean probability min(1, ratio) with which a
    Metropolis correction would have kept its post-burn-in moves, from
    the target and gradient the next step computes anyway (1.0 at
    eta = 0; NaN when no move is followed by another step)."""
    if n_chains < 1:
        raise BaselineError("n_chains must be >= 1", "n_chains")
    d = base.dim
    eta = config.step_size
    seeds = [config.seed + c for c in range(n_chains)]
    z = np.concatenate([stream_rng(s, "lmc-init").standard_normal((1, d))
                        for s in seeds])
    states, log_targets = [], []
    accepted = np.zeros(n_chains)
    previous = None
    root_eta = math.sqrt(eta)
    for t in range(config.chain_length):
        g = de.Graph()
        zn = g.leaf(z)
        tgt = _target_nodes(base, obs, smoothing.beta, zn)
        log_p = tgt.value
        bad = np.flatnonzero(~np.isfinite(log_p))
        if len(bad):
            c = int(bad[0])
            raise BaselineError(f"non-finite chain state in chain {c} "
                                f"(seed {seeds[c]}) at step {t}")
        if t >= config.burn_in and (t - config.burn_in) % config.thinning == 0:
            states.append(z)
            log_targets.append(log_p)
        grad = de.backward(g, tgt.sum())[zn]
        if t > config.burn_in and eta > 0.0:
            log_alpha = _log_acceptance(*previous, z, log_p, grad, eta)
            accepted += np.exp(np.minimum(log_alpha, 0.0))
        previous = (z, log_p, grad)
        noise = np.concatenate([stream_rng(s, "lmc-noise", t).standard_normal((1, d))
                                for s in seeds])
        z = z + 0.5 * eta * grad + root_eta * noise
    states = np.asarray(states).reshape(-1, n_chains, d)
    log_targets = np.asarray(log_targets).reshape(-1, n_chains)
    moves = config.chain_length - 1 - config.burn_in
    if eta == 0.0:
        acceptance = np.ones(n_chains)
    else:
        acceptance = accepted / moves if moves > 0 else np.full(n_chains, np.nan)
    return [Chain(states=np.ascontiguousarray(states[:, c]),
                  log_targets=np.ascontiguousarray(log_targets[:, c]),
                  config=replace(config, seed=seeds[c]), sigma=smoothing.sigma,
                  acceptance=float(acceptance[c]))
            for c in range(n_chains)]


def save_chain(chain: Chain, path) -> None:
    cfg = chain.config
    header = (f"# d={chain.states.shape[1]} step_size={cfg.step_size!r} "
              f"chain_length={cfg.chain_length} burn_in={cfg.burn_in} "
              f"thinning={cfg.thinning} seed={cfg.seed} sigma={chain.sigma!r} "
              f"drift=half-step acceptance={chain.acceptance!r}")
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
    val = float(obs.residual(base.forward(z)[0])[0])
    if lam != 0.0:
        val += lam * float(np.sum(z * z))
    return val


def _optimize_latent(base, obs, z0, lr, steps, lam):
    """Adam on z for ||A(f(z)) - y*||^2 + lam ||z||^2, without a gradient
    clip; returns (z, objective)."""
    z = z0.copy()

    def step_loss(bind, step):
        zn = bind(z)
        x, _ = base.forward_node(None, zn)
        loss = obs.residual_node(x).sum()
        if lam != 0.0:
            loss = loss + lam * zn.square().sum()
        return loss, (0.0, 0.0, float(loss.value))

    _fit(z.reshape(-1), [z], TrainConfig(learning_rate=lr, num_steps=steps,
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
