"""Variational losses for conditional inference with a frozen base flow.

The per-observation loss is

    KL(q_z || p_z)  +  E_q[ ||A(f(z)) - y*||^2 / (2 sigma^2) ]

estimated over a reparametrized batch eps ~ N(0, I), z = pre(eps).  The
normalization constant of the smoothing kernel is dropped, so totals are
comparable only at fixed sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffengine as de
from .flows import (ComposedSampler, ParamBinder, gaussian_logpdf,
                    gaussian_logpdf_node)
from .measurement import Observation


class ObjectiveError(ValueError):
    pass


@dataclass(frozen=True)
class SmoothingSpec:
    """Gaussian observation-noise model p(y~|y) ~ exp(-beta ||y~ - y||^2);
    ``beta`` is always derived from ``sigma``, never set independently."""

    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0.0):
            raise ObjectiveError(f"sigma must be positive, got {self.sigma}")

    @property
    def beta(self) -> float:
        return 1.0 / (2.0 * self.sigma * self.sigma)


@dataclass(frozen=True)
class LossBreakdown:
    kl_term: float
    penalty_term: float
    total: float

    @classmethod
    def of(cls, kl: float, penalty: float) -> "LossBreakdown":
        return cls(kl_term=kl, penalty_term=penalty, total=kl + penalty)


def _eps_batch(eps, dim):
    arr = np.asarray(eps, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] != dim:
        raise ObjectiveError(f"eps batch must be (n, {dim}), got {arr.shape}")
    return arr


def latent_kl_terms_node(bind: ParamBinder, cs: ComposedSampler, eps_node: de.Node):
    """Per-sample KL integrand log q_z(z) - log p_z(z) and the z node.  A
    conditional pre-generator reads its context from ``cs.context``.

    With an identity-start pre-generator every term is exactly zero: z is a
    bitwise copy of eps and the log-determinant is the constant 0.
    """
    context = cs.pre.context_node(bind.graph, cs.context, eps_node.value.shape[0])
    z, ld_pre = cs.pre.forward_node(bind, eps_node, context)
    terms = gaussian_logpdf_node(eps_node) - ld_pre - gaussian_logpdf_node(z)
    return terms, z


def _latent_kl_terms(cs: ComposedSampler, eps: np.ndarray):
    """:func:`latent_kl_terms_node`'s values, bit for bit, without a tape."""
    z, ld_pre = cs.pre.forward_as_tape(eps, cs.context)
    return gaussian_logpdf(eps) - ld_pre - gaussian_logpdf(z), z


def latent_kl_estimate(cs: ComposedSampler, eps_batch) -> float:
    """Monte Carlo estimate of KL(q_z || p_z) on a fixed eps batch."""
    terms, _ = _latent_kl_terms(cs, _eps_batch(eps_batch, cs.dim))
    est = float(np.mean(terms))
    if not np.isfinite(est):
        raise ObjectiveError("non-finite KL estimate")
    return est


def _check_operator(cs: ComposedSampler, obs: Observation):
    if obs.op.input_dim != cs.dim:
        raise ObjectiveError(
            f"operator input dim {obs.op.input_dim} != flow dim {cs.dim}")


def svi_loss_nodes(bind: ParamBinder, cs: ComposedSampler, obs: Observation,
                   smoothing: SmoothingSpec, eps: np.ndarray):
    """Tape nodes (kl, penalty, total) for one reparametrized batch."""
    _check_operator(cs, obs)
    terms, z = latent_kl_terms_node(bind, cs, bind.graph.constant(eps))
    kl = terms.mean()
    x, _ = cs.base.forward_node(None, z)
    pen = smoothing.beta * obs.residual_node(x).mean()
    return kl, pen, kl + pen


def svi_loss(cs: ComposedSampler, obs: Observation, smoothing: SmoothingSpec,
             eps_batch) -> LossBreakdown:
    """:func:`svi_loss_nodes`'s values, bit for bit, without a tape."""
    eps = _eps_batch(eps_batch, cs.dim)
    _check_operator(cs, obs)
    terms, z = _latent_kl_terms(cs, eps)
    pen = smoothing.beta * np.mean(obs.residual(cs.base.forward_as_tape(z)[0]))
    out = LossBreakdown.of(float(np.mean(terms)), float(pen))
    if not math.isfinite(out.total):
        raise ObjectiveError("non-finite loss")
    return out


@dataclass(frozen=True)
class GridSpec:
    """Uniform 2-d quadrature grid on [lo, hi]^2 with n points per axis."""

    lo: float = -6.0
    hi: float = 6.0
    n: int = 200

    def axis(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)

    @property
    def cell(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)


class GridError(ValueError):
    pass


def _kl_discrete(p, q, weight):
    q = np.maximum(q, np.finfo(np.float64).tiny)
    mask = p > 0.0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))) * weight)


def _chunked_log_prob(log_prob, points, chunk=8192):
    """Evaluate a log-density over many points in slabs."""
    out = np.empty(len(points))
    for lo in range(0, len(points), chunk):
        out[lo:lo + chunk] = log_prob(points[lo:lo + chunk])
    return out


def joint_vs_marginal_gap(cs: ComposedSampler, obs: Observation,
                          smoothing: SmoothingSpec, grid: GridSpec):
    """Grid-quadrature KL of q against the smoothed posterior, jointly on
    (x1, x2) and marginally on the unobserved coordinate x2.

    Requires d = 2 with a mask observing x1.  Raises GridError when the grid
    fails to capture the base density (normalization off by more than 1%).
    """
    if cs.dim != 2:
        raise ObjectiveError("joint_vs_marginal_gap is defined for d = 2")
    if obs.op.kind != "mask" or obs.op.output_dim != 1 or obs.op.indices[0] != 0:
        raise ObjectiveError("needs a mask observing coordinate 0")
    axis = grid.axis()
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    points = np.column_stack([xx.ravel(), yy.ravel()])
    area = grid.cell ** 2

    log_p = _chunked_log_prob(cs.base.log_prob, points).reshape(grid.n, grid.n)
    p = np.exp(log_p)
    mass = float(p.sum() * area)
    if abs(mass - 1.0) > 0.01:
        raise GridError(f"base density mass {mass:.4f} on grid; refine or widen")

    residual = obs.residual(points).reshape(grid.n, grid.n)
    post = p * np.exp(-smoothing.beta * residual)
    post_mass = post.sum() * area
    if post_mass <= 0.0:
        raise GridError("smoothed posterior has no mass on grid")
    post /= post_mass

    q = np.exp(_chunked_log_prob(cs.log_prob, points)).reshape(grid.n, grid.n)
    q_mass = float(q.sum() * area)
    if abs(q_mass - 1.0) > 0.01:
        raise GridError(f"variational density mass {q_mass:.4f} on grid")
    q /= q_mass

    joint_kl = _kl_discrete(q.ravel(), post.ravel(), area)

    q2 = q.sum(axis=0) * grid.cell
    post2 = post.sum(axis=0) * grid.cell
    marginal_kl = _kl_discrete(q2, post2, grid.cell)
    return joint_kl, marginal_kl
