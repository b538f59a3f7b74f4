"""The per-op tape path of the flows, and the per-array optimizer.

Each tape function records a pass one elementary tape operation at a
time, as the package did before a flow's pass became one tape node with a
hand-written vector-Jacobian product: a coupling layer as gathers, the
conditioner's matmuls, the coupling arithmetic and a reassembly, each
weight array as a slice of the bound parameter vector.  The tests hold
the whole-flow tape node and the plain-numpy passes to these, bit for bit,
and :func:`use_reference` swaps them in for whole-driver comparisons.
:func:`clip_gradients` and :class:`AdamState` loop over the parameter
arrays one at a time, as the optimizer did before it stepped one flat
vector; :func:`use_reference_optimizer` swaps them in.
:func:`gadget_neurons` and :func:`dense_gadget_eval` evaluate the 3-SAT
gadget as the dense network it is defined as: all seven pattern neurons of
every clause, on every row.  :func:`blob_images_reference` renders the
blob dataset one image at a time with scalar draws, as the package did
before it rendered in blocks.
"""

import math

import numpy as np

from flowcond import diffengine as de
from flowcond import training
from flowcond.flows import (SCALE_LIMIT, CouplingLayer, FlowError, FlowModel,
                            Permutation, flat_views)
from flowcond.satgadget import delta_eps, transformed_var


def mlp_forward_node(mlp, params, x):
    """The conditioner on node ``x``; ``params`` are nodes of its weights
    then its biases."""
    n = len(mlp.weights)
    ones = x.graph.constant(np.ones((x.value.shape[0], 1)))
    h = x
    for i, (w, b) in enumerate(zip(params[:n], params[n:])):
        h = de.matmul(h, w) + de.matmul(ones, b)
        if i < n - 1:
            h = h.tanh()
    return h


def _net(layer, params, xc, context):
    if layer.context_width:
        if context is None:
            raise FlowError("conditional layer evaluated without context")
        xc = de.concat([xc, context], axis=1)
    return mlp_forward_node(layer.conditioner, params, xc)


def _reassemble(layer, xc, yo):
    order = np.argsort(np.concatenate([layer.idx_cond, layer.idx_out]))
    return de.take(de.concat([xc, yo], axis=1), order, axis=1)


def _halves(h, k):
    """The shift and raw-scale columns of a conditioner output."""
    return (de.take(h, np.arange(k), axis=1, distinct=True),
            de.take(h, np.arange(k, 2 * k), axis=1, distinct=True))


def coupling_forward_node(layer, params, x, context=None):
    xc = de.take(x, layer.idx_cond, axis=1)
    xo = de.take(x, layer.idx_out, axis=1)
    h = _net(layer, params, xc, context)
    if layer.kind == "additive":
        return _reassemble(layer, xc, xo + h), None
    k = len(layer.idx_out)
    shift, raw = _halves(h, k)
    log_scale = math.log(SCALE_LIMIT) * raw.tanh()
    yo = xo * log_scale.exp() + shift
    return _reassemble(layer, xc, yo), log_scale.sum(axis=1)


def coupling_inverse_node(layer, params, y, context=None):
    yc = de.take(y, layer.idx_cond, axis=1)
    yo = de.take(y, layer.idx_out, axis=1)
    h = _net(layer, params, yc, context)
    if layer.kind == "additive":
        return _reassemble(layer, yc, yo - h), None
    k = len(layer.idx_out)
    shift, raw = _halves(h, k)
    log_scale = math.log(SCALE_LIMIT) * raw.tanh()
    xo = (yo - shift) * (-1.0 * log_scale).exp()
    return _reassemble(layer, yc, xo), -1.0 * log_scale.sum(axis=1)


def diagonal_forward_node(layer, x):
    n = x.value.shape[0]
    s = x.graph.constant(np.tile(layer.scale, (n, 1)))
    t = x.graph.constant(np.tile(layer.shift, (n, 1)))
    return x * s + t, x.graph.constant(np.full(n, layer.logdet))


def diagonal_inverse_node(layer, y):
    n = y.value.shape[0]
    s = y.graph.constant(np.tile(1.0 / layer.scale, (n, 1)))
    t = y.graph.constant(np.tile(layer.shift, (n, 1)))
    return (y - t) * s, y.graph.constant(np.full(n, -layer.logdet))


def _slice(leaf, offset, shape):
    """A node reading one array's part of the flat vector ``leaf``."""
    size = math.prod(shape)

    def vjp(g):
        out = np.zeros(leaf.value.shape)
        out[offset:offset + size] = g.reshape(-1)
        return (out,)

    return de.Node(leaf.graph, leaf.value[offset:offset + size].reshape(shape),
                   (leaf,), vjp)


def _layer_params(flow, bind, graph):
    """Per layer, nodes of its state arrays: constants without a binder,
    slices of the bound vector's leaf with one."""
    arrays = flow.parameters()
    if bind is None:
        nodes = [graph.constant(a) for a in arrays]
    else:
        leaf = bind(flow.vector, arrays)
        offsets = np.cumsum([0] + [a.size for a in arrays])
        nodes = [_slice(leaf, int(o), a.shape) for o, a in zip(offsets, arrays)]
    out, i = [], 0
    for layer in flow.layers:
        k = len(layer.state_arrays())
        out.append(nodes[i:i + k])
        i += k
    return out


def flow_pass(flow, bind, x, context, inverse):
    out, ld = x, None
    layers = list(zip(flow.layers, _layer_params(flow, bind, x.graph)))
    for layer, params in (reversed(layers) if inverse else layers):
        if isinstance(layer, CouplingLayer):
            step = coupling_inverse_node if inverse else coupling_forward_node
            out, l = step(layer, params, out, context)
        elif isinstance(layer, Permutation):
            out, l = de.take(out, layer.inv if inverse else layer.perm, axis=1), None
        else:
            step = diagonal_inverse_node if inverse else diagonal_forward_node
            out, l = step(layer, out)
        if l is not None:
            ld = l if ld is None else ld + l
    if ld is None:
        ld = out.graph.constant(np.zeros(out.value.shape[0]))
    return out, ld


def flow_forward_node(flow, bind, z, context=None):
    return flow_pass(flow, bind, z, context, inverse=False)


def flow_inverse_node(flow, bind, x, context=None):
    return flow_pass(flow, bind, x, context, inverse=True)


def use_reference(monkeypatch):
    """Route every tape pass through the per-op path above."""
    monkeypatch.setattr(FlowModel, "forward_node", flow_forward_node)
    monkeypatch.setattr(FlowModel, "inverse_node", flow_inverse_node)


def clip_gradients(grad, grads, max_norm, work=None):
    """The global-norm clip over the separate arrays ``grads`` (``work``
    is not used)."""
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


def blob_images_reference(n, height=8, width=8, seed=0):
    """The (n, height * width) samples of ``make_blob_images``, one image
    and one scalar draw at a time."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width]
    samples = np.zeros((n, height * width))
    for i in range(n):
        img = np.full((height, width), 0.05)
        for _ in range(rng.integers(1, 3)):
            cy = rng.uniform(1.0, height - 2.0)
            cx = rng.uniform(1.0, width - 2.0)
            rad = rng.uniform(1.0, 2.5)
            amp = rng.uniform(0.5, 0.9)
            img += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * rad * rad))
        samples[i] = np.clip(img, 0.0, 1.0).reshape(-1)
    return samples


def gadget_neurons(gadget, x):
    """The (n, m, 7) pattern-neuron outputs of every clause: per clause, one
    neuron per sign pattern that satisfies the clause locally, scaling the
    three reshaped variables by pattern/3, summing and bumping."""
    xt = transformed_var(np.asarray(x, dtype=np.float64), gadget.eps)
    out = []
    for clause in gadget.formula.clauses:
        vars_ = np.asarray([var for var, _ in clause], dtype=np.intp)
        pols = np.asarray([pol for _, pol in clause], dtype=np.float64)
        patterns = []
        for bits in range(8):
            signs = np.asarray([1.0 if bits >> k & 1 else -1.0 for k in range(3)])
            if np.any(signs == pols):
                patterns.append(signs)
        pre = xt[:, vars_] @ (np.asarray(patterns).T / 3.0)
        out.append(delta_eps(pre, gadget.eps))
    return np.stack(out, axis=1)


def dense_gadget_eval(gadget, x):
    """M * relu(min(sum of clause scores, m) - (m - 1)), the clause scores
    summing all seven neurons of each clause."""
    m = gadget.formula.num_clauses
    total = np.zeros(len(x))
    for neurons in gadget_neurons(gadget, x).transpose(1, 0, 2):
        total += neurons.sum(axis=1)
    return gadget.big_m * np.maximum(np.minimum(total, m) - (m - 1.0), 0.0)
