"""The per-op tape path of the conditioner and the coupling layer, and
the per-array optimizer.

Each tape function records the pass one elementary tape operation at a
time, as the package did before its passes became fused tape nodes with
hand-written vector-Jacobian products.  The tests hold the fused ops and
the plain-numpy passes to these, bit for bit, and :func:`use_reference`
swaps them in for whole-driver comparisons.  :func:`clip_gradients` and
:class:`AdamState` loop over the parameter arrays one at a time, as the
optimizer did before it stepped one flat vector;
:func:`use_reference_optimizer` swaps them in.
"""

import math

import numpy as np

from flowcond import diffengine as de
from flowcond import training
from flowcond.flows import (SCALE_LIMIT, CouplingLayer, FlowError, Mlp,
                            flat_views)


def _param(bind, graph, arr):
    return graph.constant(arr) if bind is None else bind(arr)


def mlp_forward_node(mlp, bind, x, context=None):
    if context is not None:
        x = de.concat([x, context], axis=1)
    ones = x.graph.constant(np.ones((x.value.shape[0], 1)))
    h = x
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        h = (de.matmul(h, _param(bind, x.graph, w))
             + de.matmul(ones, _param(bind, x.graph, b)))
        if i < len(mlp.weights) - 1:
            h = h.tanh()
    return h


def _net(layer, bind, xc, context):
    if layer.context_width:
        if context is None:
            raise FlowError("conditional layer evaluated without context")
        xc = de.concat([xc, context], axis=1)
    return mlp_forward_node(layer.conditioner, bind, xc)


def _reassemble(layer, xc, yo):
    order = np.argsort(np.concatenate([layer.idx_cond, layer.idx_out]))
    return de.take(de.concat([xc, yo], axis=1), order, axis=1)


def coupling_forward_node(layer, bind, x, context=None):
    xc = de.take(x, layer.idx_cond, axis=1)
    xo = de.take(x, layer.idx_out, axis=1)
    h = _net(layer, bind, xc, context)
    if layer.kind == "additive":
        return _reassemble(layer, xc, xo + h), None
    k = len(layer.idx_out)
    shift, raw = de.split(h, [k, k], axis=1)
    log_scale = math.log(SCALE_LIMIT) * raw.tanh()
    yo = xo * log_scale.exp() + shift
    return _reassemble(layer, xc, yo), log_scale.sum(axis=1)


def coupling_inverse_node(layer, bind, y, context=None):
    yc = de.take(y, layer.idx_cond, axis=1)
    yo = de.take(y, layer.idx_out, axis=1)
    h = _net(layer, bind, yc, context)
    if layer.kind == "additive":
        return _reassemble(layer, yc, yo - h), None
    k = len(layer.idx_out)
    shift, raw = de.split(h, [k, k], axis=1)
    log_scale = math.log(SCALE_LIMIT) * raw.tanh()
    xo = (yo - shift) * (-1.0 * log_scale).exp()
    return _reassemble(layer, yc, xo), -1.0 * log_scale.sum(axis=1)


def use_reference(monkeypatch):
    """Route every tape pass through the per-op path above."""
    monkeypatch.setattr(Mlp, "forward_node", mlp_forward_node)
    monkeypatch.setattr(CouplingLayer, "forward_node", coupling_forward_node)
    monkeypatch.setattr(CouplingLayer, "inverse_node", coupling_inverse_node)


def clip_gradients(grad, grads, max_norm):
    """The global-norm clip over the separate arrays ``grads``."""
    norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if max_norm is not None and norm > max_norm:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


class AdamState:
    """Adam with one pair of moments per parameter array; ``update`` steps
    each array of ``params`` (the views that tile ``vector``) with its own
    part of ``grad``."""

    def __init__(self, params, learning_rate):
        self.lr = float(learning_rate)
        self.step = 0
        self.params = params
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def update(self, vector, grad):
        self.step += 1
        t = self.step
        c1 = 1.0 - training._BETA1 ** t
        c2 = 1.0 - training._BETA2 ** t
        grads = flat_views(grad, self.params)
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= training._BETA1
            m += (1.0 - training._BETA1) * g
            v *= training._BETA2
            v += (1.0 - training._BETA2) * (g * g)
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + training._EPS)


def use_reference_optimizer(monkeypatch):
    """Route every driver's clip and Adam step through the per-array loops
    above."""
    monkeypatch.setattr(training, "clip_gradients", clip_gradients)
    monkeypatch.setattr(training, "AdamState", AdamState)
