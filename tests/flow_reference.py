"""The per-op tape path of the conditioner and the coupling layer.

Each function records the pass one elementary tape operation at a time,
as the package did before its passes became fused tape nodes with
hand-written vector-Jacobian products.  The tests hold the fused ops and
the plain-numpy passes to these, bit for bit, and
:func:`use_reference` swaps them in for whole-driver comparisons.
"""

import math

import numpy as np

from flowcond import diffengine as de
from flowcond.flows import SCALE_LIMIT, CouplingLayer, FlowError, Mlp


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
