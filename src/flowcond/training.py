"""Optimization drivers: Adam, the per-observation variational loop,
amortized training over an observation family, and maximum-likelihood
training of base flows on toy data.  Every driver runs the same loop,
:func:`_fit`, and supplies only its per-step loss.

All randomness comes from :func:`stream_rng`: counter-based (Philox)
generators keyed by (seed, purpose, step), so every driver is bit-
reproducible regardless of call interleaving.
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import diffengine as de
from .flows import (ComposedSampler, FlowModel, ParamBinder, flat_views,
                    gaussian_logpdf_node, make_flow)
from .measurement import MaskOp, Observation
from .objective import SmoothingSpec, svi_loss_nodes


class TrainingError(ValueError):
    """A driver that cannot run; ``field`` names the setting at fault, when
    one is."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the failing step and the finite trace."""

    def __init__(self, step: int, trace: "TrainTrace"):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step
        self.trace = trace


def stream_rng(seed: int, purpose: str, step: int = 0) -> np.random.Generator:
    """Independent, reproducible stream keyed by (seed, purpose, step)."""
    tag = zlib.crc32(purpose.encode("utf-8"))
    ss = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF,
                                spawn_key=(tag, int(step)))
    return np.random.Generator(np.random.Philox(ss))


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    num_steps: int = 1000
    batch_size: int = 64
    sigma: float = 0.1
    seed: int = 0
    gradient_clip_norm: float | None = 100.0

    def __post_init__(self):
        # a rate or clip <= 0 would freeze or reverse every step
        if not 0.0 < self.learning_rate < math.inf:
            raise TrainingError("learning_rate must be a finite number > 0",
                                "learning_rate")
        clip = self.gradient_clip_norm
        if clip is not None and not 0.0 < clip < math.inf:
            raise TrainingError("gradient_clip_norm must be a finite number "
                                "> 0, or None", "gradient_clip_norm")
        if self.num_steps < 0:
            raise TrainingError("num_steps must be >= 0", "num_steps")
        if self.batch_size < 1:
            raise TrainingError("batch_size must be >= 1", "batch_size")
        if not (self.sigma > 0.0):
            raise TrainingError("sigma must be positive", "sigma")


@dataclass
class TrainTrace:
    """Per-step records (step, kl, penalty, total, grad_norm)."""

    rows: list[tuple[int, float, float, float, float]] = field(default_factory=list)

    def append(self, step, kl, penalty, total, grad_norm):
        self.rows.append((int(step), float(kl), float(penalty), float(total),
                          float(grad_norm)))

    def __len__(self):
        return len(self.rows)

    def to_csv(self) -> str:
        lines = ["step,kl,penalty,total,grad_norm"]
        for step, kl, pen, total, gn in self.rows:
            lines.append(f"{step},{kl!r},{pen!r},{total!r},{gn!r}")
        return "\n".join(lines) + "\n"


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class AdamState:
    """Adam moments for parameter arrays ``params`` that tile one flat
    vector in order; the moments are flat vectors too, and each update
    steps the whole vector with a few vector ops into two work vectors, so
    a step allocates nothing of the vector's size."""

    def __init__(self, params, learning_rate: float):
        self.lr = float(learning_rate)
        self.step = 0
        size = sum(p.size for p in params)
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._work = (np.empty(size), np.empty(size))

    def update(self, vector, grad) -> None:
        """One in-place Adam step of the flat ``vector`` with the flat
        ``grad``.  Zero gradients leave parameters unchanged."""
        self.step += 1
        t = self.step
        c1 = 1.0 - _BETA1 ** t
        c2 = 1.0 - _BETA2 ** t
        m, v = self.m, self.v
        a, b = self._work
        # vector -= lr * (m / c1) / (sqrt(v / c2) + eps), after the moment
        # updates, one operation at a time in that order
        m *= _BETA1
        m += np.multiply(grad, 1.0 - _BETA1, out=a)
        v *= _BETA2
        np.multiply(grad, grad, out=a)
        v += np.multiply(a, 1.0 - _BETA2, out=a)
        np.divide(m, c1, out=a)
        a *= self.lr
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += _EPS
        a /= b
        vector -= a


def clip_gradients(grad, grads, max_norm: float | None, work=None) -> float:
    """Scale the flat gradient ``grad`` in place to the given global norm;
    returns the pre-clip norm (what traces record).  ``grads`` are its
    per-array views in parameter order: the squares are summed view by
    view, so the norm has the bits of a sum over separate arrays.  The
    squares go into ``work`` when given, a vector shaped like ``grad``."""
    sq = np.multiply(grad, grad, out=work)
    ends = list(itertools.accumulate(g.size for g in grads))
    norm = float(np.sqrt(sum(float(np.add.reduce(sq[a:b]))
                             for a, b in zip([0] + ends, ends))))
    if max_norm is not None and norm > max_norm:
        grad *= max_norm / norm
    return norm


def default_pre_generator(dim: int, seed: int) -> FlowModel:
    """Identity-start pre-generator: 6 affine couplings, width-64 two-hidden
    conditioners."""
    return make_flow(dim, num_layers=6, kind="affine", hidden_width=64,
                     hidden_layers=2, rng=stream_rng(seed, "pregen-init"))


def _fit(vector, params, config: TrainConfig, step_loss) -> TrainTrace:
    """The optimizer loop every driver shares: Adam on ``vector`` for
    ``config.num_steps`` steps.  ``vector`` is the array the losses bind
    (a flow's :attr:`~flowcond.flows.FlowModel.vector`, or a latent
    point), and ``params`` are the arrays that tile it in order.  Each
    step's binder hands the backward pass one flat gradient shaped like
    ``vector``, which a flow pass writes straight into; a part that no
    pass differentiates (a diagonal layer's scale or shift) is zero, and
    leaves its values unchanged.

    ``step_loss(bind, step)`` builds step ``step``'s objective on a fresh
    graph through ``bind`` and returns ``(loss node, (kl, penalty, total))``;
    the triple is the trace row.  A non-finite total raises
    :class:`TrainingDiverged` with the rows so far.
    """
    adam = AdamState(params, config.learning_rate)
    grad = np.zeros_like(vector)
    flat, flat_grad = vector.reshape(-1), grad.reshape(-1)
    squares = np.empty_like(flat)
    grads = flat_views(flat_grad, params)
    trace = TrainTrace()
    for step in range(config.num_steps):
        bind = ParamBinder(de.Graph(), vector, grad)
        loss, (kl, pen, total) = step_loss(bind, step)
        if not np.isfinite(total):
            raise TrainingDiverged(step, trace)
        bind.gradients(de.backward(bind.graph, loss), [vector], [grad])
        norm = clip_gradients(flat_grad, grads, config.gradient_clip_norm,
                              squares)
        trace.append(step, kl, pen, total, norm)
        adam.update(flat, flat_grad)
        # nodes point at their graph: emptying it frees the step's tape now,
        # where the cyclic collector would keep many steps' tapes alive
        bind.graph.nodes.clear()
    return trace


def _loss_row(kl, pen, total):
    """A (kl, penalty, total) loss triple as the node to differentiate and
    the trace row."""
    return total, (kl.value, pen.value, total.value)


def train_svi(base: FlowModel, obs: Observation, config: TrainConfig):
    """Fit the default pre-generator to one observation (reparametrized
    batches, Adam).

    The base flow is frozen: only pre-generator parameters are updated.
    The trace row for step i is the loss *before* that step's update, so
    row 0 of a fresh run always shows a zero KL term.
    """
    d = base.dim
    pre = default_pre_generator(d, config.seed)
    cs = ComposedSampler(pre, base)
    smoothing = SmoothingSpec(config.sigma)

    def step_loss(bind, step):
        eps = stream_rng(config.seed, "svi-eps", step).standard_normal(
            (config.batch_size, d))
        return _loss_row(*svi_loss_nodes(bind, cs, obs, smoothing, eps))

    return pre, _fit(pre.vector, pre.parameters(), config, step_loss)


def observation_context(obs: Observation) -> np.ndarray:
    """Embed a masked observation for a conditional pre-generator: the
    observed values scattered into a length-d vector, concatenated with the
    0/1 mask indicator (total width 2d)."""
    if not isinstance(obs.op, MaskOp):
        raise TrainingError("amortization context is defined for mask operators")
    d = obs.op.input_dim
    values = np.zeros(d)
    values[obs.op.indices] = obs.y_star
    indicator = np.zeros(d)
    indicator[obs.op.indices] = 1.0
    return np.concatenate([values, indicator])


def train_amortized(base: FlowModel, conditional_pre_generator: FlowModel,
                    obs_sampler, config: TrainConfig) -> FlowModel:
    """Minimize the expected per-observation loss over a family of
    observations; ``obs_sampler(rng)`` yields a fresh Observation per step.

    The resulting conditional pre-generator does zero-shot inference:
    bind a new observation's context and sample, no optimization.
    """
    d = base.dim
    pre = conditional_pre_generator
    if pre.context_width != 2 * d:
        raise TrainingError(
            f"conditional flow context width {pre.context_width} != 2*d = {2 * d}")
    smoothing = SmoothingSpec(config.sigma)

    def step_loss(bind, step):
        obs = obs_sampler(stream_rng(config.seed, "avi-obs", step))
        cs = ComposedSampler(pre, base, context=observation_context(obs))
        eps = stream_rng(config.seed, "avi-eps", step).standard_normal(
            (config.batch_size, d))
        return _loss_row(*svi_loss_nodes(bind, cs, obs, smoothing, eps))

    _fit(pre.vector, pre.parameters(), config, step_loss)
    return pre


def train_base_mle(flow: FlowModel, dataset, config: TrainConfig):
    """Maximum-likelihood training on a (n, d) sample matrix.

    Trace rows carry the negative log-likelihood in nats per dimension in
    the ``total`` column (kl/penalty columns are zero for this driver).
    """
    data = np.asarray(getattr(dataset, "samples", dataset), dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != flow.dim:
        raise TrainingError(f"dataset must be (n, {flow.dim})")

    def step_loss(bind, step):
        idx = stream_rng(config.seed, "mle-batch", step).integers(
            0, data.shape[0], size=config.batch_size)
        z, ld_inv = flow.inverse_node(bind, bind.graph.constant(data[idx]))
        loss = -1.0 * (gaussian_logpdf_node(z) + ld_inv).mean()
        return loss, (0.0, 0.0, float(loss.value) / flow.dim)

    return flow, _fit(flow.vector, flow.parameters(), config, step_loss)
