"""Invertible flow models with exact log-densities.

Building blocks are additive/affine coupling layers with MLP conditioners,
fixed permutations, and a fixed diagonal-affine layer used to construct
reference distributions in closed form.  A :class:`FlowModel` stacks layers
into a bijection on R^d with a standard-normal prior; :class:`ComposedSampler`
pairs a trainable pre-generator with a frozen base flow, which is the
conditional sampler everything else revolves around.

A :class:`FlowModel` keeps every layer's state -- conditioner weights and
biases, diagonal scales and shifts -- in one contiguous float64 vector,
in checkpoint descriptor order, and each layer holds views of it.  That
vector is a checkpoint's blob, and the optimizer steps it as a whole.

Each layer kind has one pass body, ``_pass(x, context, params, inverse,
with_vjp)``, on arrays.  It returns the output, the log-det (None where
it is 0) and, with ``with_vjp``, a hand-written vector-Jacobian product
(the additive/affine coupling Jacobians of RealNVP, Dinh et al.,
arXiv:1605.08803); without it, the pass keeps no activations and builds
no closures.  :meth:`FlowModel.forward`, ``inverse``, ``log_prob``,
``sample`` and all of :class:`ComposedSampler` run the layers' bodies
without VJPs, so no graph is built where no gradient is taken.
:meth:`FlowModel.forward_node`/``inverse_node`` run the same bodies with
VJPs, through each layer's ``forward_node``/``inverse_node``, and put the
whole pass on the diffengine tape as one node, whose parents are the
input, the context and one leaf for the model's whole vector, and two
nodes that read its output and its log-det.  The node's adjoint walks the
VJPs in reverse and writes the weight gradients straight into views of
one flat gradient.  Passed ``bind=None``, a tape pass treats the weights
as constants, records no weight leaf and computes no weight gradients,
which is how the frozen base runs inside the losses.  Since both fronts
run one body, a value-only pass gives the tape's values bit for bit.

Index sets are views.  A coupling's conditioning and coupled sets and a
permutation's order are held as a ``slice`` when they step evenly, as
every set :func:`make_flow` builds does (even/odd splits, reversals), and
as an index array otherwise; every gather, scatter and adjoint indexes
with ``x[:, index]``, which takes both.  A conditioner's input and a
permutation's output are C-ordered copies of their gathers.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from . import diffengine as de

LOG_2PI = math.log(2.0 * math.pi)

# Affine coupling scale is exp(tanh(raw) * log(SCALE_LIMIT)): each layer's
# per-coordinate scale stays in [1/SCALE_LIMIT, SCALE_LIMIT].
SCALE_LIMIT = 4.0
_SCALE_FLOOR = 1e-12


class FlowError(ValueError):
    pass


class SingularScale(FlowError):
    """Diagonal-affine scale below the invertibility floor.  Coupling
    scales need no such check: they stay in [1/SCALE_LIMIT, SCALE_LIMIT]."""


def gaussian_logpdf(x: np.ndarray) -> np.ndarray:
    """Standard-normal log density per row; ``x`` is (n, d)."""
    x = np.asarray(x, dtype=np.float64)
    return -0.5 * np.sum(x * x, axis=1) + (-0.5 * x.shape[1] * LOG_2PI)


def gaussian_logpdf_node(x: de.Node) -> de.Node:
    """Tape version of :func:`gaussian_logpdf`; bit-identical arithmetic."""
    n, d = x.value.shape
    norm = x.graph.constant(np.full(n, -0.5 * d * LOG_2PI))
    return -0.5 * x.square().sum(axis=1) + norm


def flat_views(vector: np.ndarray, arrays) -> list[np.ndarray]:
    """Views of the flat ``vector`` shaped like ``arrays``, which it holds
    one after another."""
    views, off = [], 0
    for a in arrays:
        views.append(vector[off:off + a.size].reshape(a.shape))
        off += a.size
    return views


class ParamBinder:
    """The parameter leaves of one graph: one per array bound (a flow's
    :attr:`FlowModel.vector`, or a latent point), recorded on the first
    call and cached by identity.  A leaf is a read-only view of its array,
    not a copy.

    Made with ``vector`` and its flat gradient ``grad``, the binder hands
    ``grad`` to the first pass that differentiates ``vector`` (see
    :meth:`buffer`), which writes the gradient straight into it.
    """

    def __init__(self, graph: de.Graph, vector: np.ndarray | None = None,
                 grad: np.ndarray | None = None):
        self.graph = graph
        self._bound: dict[int, tuple] = {}
        self._out = (vector, grad)

    def __call__(self, arr: np.ndarray, views=None) -> de.Node:
        """The leaf of ``arr``; ``views`` are the arrays that tile it in
        order, whose gradients :meth:`gradients` then aligns."""
        entry = self._bound.get(id(arr))
        if entry is None:
            entry = (arr, self.graph.view(arr), views)
            self._bound[id(arr)] = entry
        return entry[1]

    def buffer(self, arr: np.ndarray) -> np.ndarray:
        """An array for a backward pass to write the gradient of the bound
        ``arr`` into: the binder's ``grad`` the first time ``arr`` is its
        ``vector``, a new array otherwise (backward then sums the two)."""
        vector, grad = self._out
        if arr is vector and grad is not None:
            self._out = (None, None)
            return grad
        return np.empty(arr.shape)

    def gradients(self, grad_map, params, out=None) -> list[np.ndarray]:
        """Align a backward() gradient map with a parameter list: each
        array's gradient (a bound array's own, or the part of a bound
        vector's that its view covers), zero where it has none, written
        into ``out`` (arrays shaped like ``params``; new ones when not
        given).  Nothing is copied where ``out`` already is the gradient."""
        found = {id(arr): grad_map[leaf] for arr, leaf, _ in self._bound.values()}
        if not all(id(p) in found for p in params):
            for _, leaf, views in self._bound.values():
                if views is not None:
                    found.update(zip(map(id, views),
                                     flat_views(grad_map[leaf], views)))
        if out is None:
            out = [np.empty_like(p) for p in params]
        for p, o in zip(params, out):
            g = found.get(id(p))
            if g is None:
                o.fill(0.0)
            elif g is not o:
                o[...] = g
        return out


class Mlp:
    """Fully connected tanh network, linear output, final layer zeroed.

    The zero final layer makes every freshly built coupling layer the
    identity map ("identity start").  Without ``rng`` every weight is zero:
    the shape of a network whose values a checkpoint then supplies.
    """

    def __init__(self, widths, rng: np.random.Generator | None = None):
        if len(widths) < 2:
            raise FlowError("Mlp needs at least input and output widths")
        self.widths = [int(w) for w in widths]
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for i, (a, b) in enumerate(zip(self.widths[:-1], self.widths[1:])):
            last = i == len(self.widths) - 2
            if last or rng is None:
                w = np.zeros((a, b))
            else:
                w = rng.normal(0.0, 1.0 / math.sqrt(a), size=(a, b))
            self.weights.append(w)
            self.biases.append(np.zeros((1, b)))

    def parameters(self) -> list[np.ndarray]:
        return self.weights + self.biases

    def set_parameters(self, arrays) -> None:
        """Hold ``arrays``, shaped like :meth:`parameters`, as the weights
        then the biases themselves (no copy)."""
        n = len(self.weights)
        self.weights, self.biases = list(arrays[:n]), list(arrays[n:])

    def _run(self, x, weights, biases, acts=None):
        """Output of the dense-tanh stack; appends the input of each layer
        to ``acts`` when given."""
        h = x
        last = len(weights) - 1
        for i, (w, b) in enumerate(zip(weights, biases)):
            if acts is not None:
                acts.append(h)
            # an inner dimension of 1 (the first layer at d = 2): the
            # broadcast product gives the matmul's bits without its call,
            # once the bias is added (the matmul writes 0.0 where the
            # product is -0.0; only a bias of -0.0 would keep the sign)
            h = h * w if w.shape[0] == 1 else h @ w
            h += b
            if i < last:
                np.tanh(h, out=h)
        return h

    def forward_node(self, x: np.ndarray, params=None):
        return self._pass(x, params, with_vjp=True)

    def _pass(self, x: np.ndarray, params, with_vjp: bool):
        """The network on the array ``x``: the output and, ``with_vjp``,
        its vector-Jacobian product (else None).  ``params`` are the
        weights then the biases (the network's own when None).
        ``vjp(g, grads)`` returns the adjoint of ``x`` and, given ``grads``
        (arrays shaped like :meth:`parameters`), writes the weight and
        bias gradients into them."""
        n = len(self.weights)
        weights, biases = ((self.weights, self.biases) if params is None
                           else (params[:n], params[n:]))
        acts = [] if with_vjp else None
        out = self._run(x, weights, biases, acts)
        if not with_vjp:
            return out, None

        def vjp(g, grads=None):
            ones = None if grads is None else np.ones((1, g.shape[0]))
            for i in reversed(range(n)):
                a = acts[i]
                if grads is not None:
                    np.matmul(a.T, g, out=grads[i])
                    np.matmul(ones, g, out=grads[n + i])
                g = g @ weights[i].T
                if i > 0:
                    g *= _one_minus_square(a)
            return g

        return out, vjp


def _one_minus_square(a):
    """1 - a * a, formed in one new array."""
    out = a * a
    return np.subtract(1.0, out, out=out)


def _index(values: list[int]):
    """``values`` as ``x[:, index]`` reads them: a slice, whose gathers
    are strided views, when they step evenly, else an index array."""
    step = values[1] - values[0] if len(values) > 1 else 1
    if values and step and values == list(range(values[0], values[-1] + step, step)):
        stop = values[-1] + step
        return slice(values[0], None if stop < 0 else stop, step)
    return np.asarray(values, dtype=np.intp)


class Permutation:
    """Fixed index permutation; unit Jacobian."""

    def __init__(self, perm):
        self.perm = np.asarray(perm, dtype=np.intp)
        order = self.perm.tolist()
        if sorted(order) != list(range(len(order))):
            raise FlowError("permutation must reorder 0..d-1")
        self.inv = np.argsort(self.perm)
        self._order, self._undo = _index(order), _index(self.inv.tolist())
        self.dim = len(order)

    def state_arrays(self):
        return []

    def set_state(self, arrays):
        pass

    def forward_node(self, x, context=None, params=None):
        return self._pass(x, context, params, inverse=False, with_vjp=True)

    def inverse_node(self, y, context=None, params=None):
        return self._pass(y, context, params, inverse=True, with_vjp=True)

    def _pass(self, x, context, params, inverse, with_vjp):
        """The gather by the order (its inverse going back), no log-det,
        and, ``with_vjp``, the gather that is its adjoint."""
        index, undo = (self._undo, self._order) if inverse else (self._order, self._undo)
        return x[:, index].copy(), None, (_gather_vjp(undo) if with_vjp else None)


def _gather_vjp(index):
    def vjp(g_y, g_ld, grads):
        # + 0.0 turns -0.0 to 0.0, as accumulating onto zeros does
        return np.add(g_y[:, index], 0.0, out=np.empty(g_y.shape)), None

    return vjp


def reversal(dim: int) -> Permutation:
    return Permutation(np.arange(dim)[::-1])


class DiagonalAffine:
    """Fixed elementwise map y = scale * x + shift (not trainable).

    Used to build flows with known densities: e.g. mapping N(0, I) onto an
    arbitrary diagonal Gaussian.
    """

    def __init__(self, scale, shift=None):
        scale = np.asarray(scale, dtype=np.float64).copy()
        shift = (np.zeros_like(scale) if shift is None
                 else np.asarray(shift, dtype=np.float64).copy())
        if shift.shape != scale.shape:
            raise FlowError("scale and shift must share a shape")
        if scale.ndim != 1:
            raise FlowError("scale and shift must be vectors")
        self.dim = scale.shape[0]
        self.set_state([scale, shift])

    def state_arrays(self):
        return [self.scale, self.shift]

    def set_state(self, arrays):
        """Hold ``arrays`` as the scale and the shift themselves (no copy),
        checking the scale and caching the log-determinant."""
        scale, shift = arrays
        if not np.all(np.isfinite(scale) & (np.abs(scale) >= _SCALE_FLOOR)):
            raise SingularScale("diagonal scale non-finite or below the "
                                "invertibility floor")
        self.scale, self.shift = scale, shift
        self.logdet = float(np.sum(np.log(np.abs(scale))))

    def forward_node(self, x, context=None, params=None):
        return self._pass(x, context, params, inverse=False, with_vjp=True)

    def inverse_node(self, y, context=None, params=None):
        return self._pass(y, context, params, inverse=True, with_vjp=True)

    def _pass(self, x, context, params, inverse, with_vjp):
        """The map or its inverse, its constant log-det and, ``with_vjp``,
        its adjoint; the state is a constant, its gradient 0."""
        n = x.shape[0]
        if inverse:
            factor = 1.0 / self.scale
            y, ld = (x - self.shift) * factor, np.full(n, -self.logdet)
        else:
            factor = self.scale
            y, ld = x * factor + self.shift, np.full(n, self.logdet)
        if not with_vjp:
            return y, ld, None

        def vjp(g_y, g_ld, grads):
            for g in grads or ():
                g.fill(0.0)
            return g_y * factor, None

        return y, ld, vjp


class CouplingLayer:
    """Coupling layer: coordinates ``idx_out`` are shifted (additive) or
    scaled-and-shifted (affine) conditioned on coordinates ``idx_cond``.

    The conditioner sees ``x[idx_cond]`` plus an optional context vector of
    width ``context_width``.
    """

    def __init__(self, kind, idx_cond, idx_out, conditioner: Mlp, context_width: int = 0):
        if kind not in ("additive", "affine"):
            raise FlowError(f"unknown coupling kind {kind!r}")
        self.kind = kind
        self.idx_cond = np.asarray(idx_cond, dtype=np.intp)
        self.idx_out = np.asarray(idx_out, dtype=np.intp)
        cond, out = self.idx_cond.tolist(), self.idx_out.tolist()
        if sorted(cond + out) != list(range(len(cond) + len(out))):
            raise FlowError("partition must split 0..d-1 into disjoint sets")
        self._cond, self._out = _index(cond), _index(out)
        self.dim = len(cond) + len(out)
        self.conditioner = conditioner
        self.context_width = int(context_width)
        k = len(self.idx_out)
        expected_out = k if kind == "additive" else 2 * k
        expected_in = len(self.idx_cond) + self.context_width
        if conditioner.widths[0] != expected_in or conditioner.widths[-1] != expected_out:
            raise FlowError(
                f"conditioner widths {conditioner.widths} do not fit partition "
                f"(need {expected_in} -> {expected_out})")

    def state_arrays(self):
        return self.conditioner.parameters()

    def set_state(self, arrays):
        self.conditioner.set_parameters(arrays)

    def _net_input(self, xc, context):
        if not self.context_width:
            return xc
        if context is None:
            raise FlowError("conditional layer evaluated without context")
        return np.concatenate([xc, context], axis=1)

    def _assemble(self, xc, yo):
        y = np.empty((xc.shape[0], self.dim))
        y[:, self._cond] = xc
        y[:, self._out] = yo
        return y

    def _couple(self, xo, h, inverse):
        """The coupled half and the log-det (None when additive) of one
        pass, and for affine layers what its adjoint reuses: tanh of the
        raw scale, the factor applied (the scale, or its reciprocal going
        back) and the operand it multiplied."""
        if self.kind == "additive":
            return (xo - h if inverse else xo + h), None, None
        k = len(self.idx_out)
        shift = h[:, :k]
        t = np.tanh(h[:, k:])
        log_scale = math.log(SCALE_LIMIT) * t
        if not inverse:
            scale = np.exp(log_scale)
            return xo * scale + shift, np.sum(log_scale, axis=1), (t, scale, xo)
        centred = xo - shift
        inv_scale = np.exp(-1.0 * log_scale)
        return (centred * inv_scale, -1.0 * np.sum(log_scale, axis=1),
                (t, inv_scale, centred))

    def forward_node(self, x, context=None, params=None):
        return self._pass(x, context, params, inverse=False, with_vjp=True)

    def inverse_node(self, y, context=None, params=None):
        return self._pass(y, context, params, inverse=True, with_vjp=True)

    def _pass(self, x, context, params, inverse, with_vjp):
        """One pass on arrays: the output, the log-det (None when additive)
        and, ``with_vjp``, ``vjp(g_y, g_ld, grads)``, which returns the
        adjoints of ``x`` and of the context (None without one) and writes
        the conditioner's gradients into ``grads`` when given.  The
        products, sums and memory layouts are those of the per-op path
        (tests/flow_reference.py), in its order: the index sets are views,
        and the conditioner's input is a C-ordered copy, as ``np.take``
        gathers it there."""
        cond, out = self._cond, self._out
        xc = x[:, cond].copy()
        net_in = self._net_input(xc, context)
        # a value-only pass keeps the conditioner off its traced entry point
        h, net_vjp = (self.conditioner.forward_node(net_in, params) if with_vjp
                      else self.conditioner._pass(net_in, params, with_vjp=False))
        yo, ld, saved = self._couple(x[:, out], h, inverse)
        y = self._assemble(xc, yo)
        if not with_vjp:
            return y, ld, None
        n, d = y.shape
        kc = xc.shape[1]

        def adjoints(g_y, g_xo, g_h, grads):
            g_in = net_vjp(g_h, grads)
            g_x = np.empty((n, d))
            g_x[:, out] = g_xo
            g_x[:, cond] = g_y[:, cond]
            g_x[:, cond] += g_in[:, :kc]
            g_x += 0.0    # -0.0 to 0.0, as accumulating onto zeros does
            return g_x, (g_in[:, kc:] if self.context_width else None)

        if saved is None:
            def vjp(g_y, g_ld, grads):
                # the conditioner's adjoint keeps the memory layout of the
                # per-op path, a column block of an (n, d) array: the
                # matmuls of its backward pass round differently on a
                # contiguous copy
                g_o = np.empty((n, d))[:, kc:]
                g_o[...] = g_y[:, out]
                return adjoints(g_y, g_o, (-g_o if inverse else g_o), grads)

            return y, None, vjp

        t, factor, operand = saved
        log_limit = math.log(SCALE_LIMIT)
        k = d - kc

        def vjp(g_y, g_ld, grads):
            # the shift's and the raw scale's adjoints, side by side
            g_h = np.empty((n, 2 * k))
            g_o = g_y[:, out]
            g_xo = g_o * factor
            g_ls = g_o * operand
            g_ls *= factor
            if inverse:
                np.negative(g_xo, out=g_h[:, :k])
                g_ls *= -1.0
                g_ls += (-1.0 * g_ld)[:, None]
            else:
                g_h[:, :k] = g_o
                g_ls += g_ld[:, None]
            g_ls *= log_limit
            np.multiply(g_ls, _one_minus_square(t), out=g_h[:, k:])
            return adjoints(g_y, g_xo, g_h, grads)

        return y, ld, vjp


def _read_columns(node, value, columns):
    """A tape node reading ``node.value[:, columns]``; ``value`` is that
    slice, computed by the caller."""
    def vjp(g):
        out = np.zeros(node.value.shape)
        out[:, columns] = g
        return (out,)

    return de.Node(node.graph, value, (node,), vjp)


def _as_batch(x, dim, what):
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise FlowError(f"{what}: expected length {dim}, got {arr.shape[0]}")
        return arr[None, :], True
    if arr.ndim == 2:
        if arr.shape[1] != dim:
            raise FlowError(f"{what}: expected width {dim}, got {arr.shape[1]}")
        return arr, False
    raise FlowError(f"{what}: expected 1-d or 2-d array")


class FlowModel:
    """A stack of invertible layers with a standard-normal prior on R^d.

    The model owns one float64 vector, :attr:`vector`, that holds the
    state arrays of all its layers one after another; every layer reads
    views of it.  Built from ``layers`` alone, the vector takes the layers'
    current values; built with ``vector`` (a checkpoint's blob), the layers'
    arrays become views of it and take its values.  A layer reads the
    vector of the last model built from it.
    """

    def __init__(self, dim: int, layers, context_width: int = 0,
                 vector: np.ndarray | None = None):
        self.dim = int(dim)
        self.layers = list(layers)
        self.context_width = int(context_width)
        for layer in self.layers:
            if layer.dim != self.dim:
                raise FlowError(f"a layer of width {layer.dim} in a flow on "
                                f"R^{self.dim}")
            width = layer.context_width if isinstance(layer, CouplingLayer) else 0
            if width not in (0, self.context_width):
                raise FlowError(f"a coupling of context width {width} in a "
                                f"flow of context width {self.context_width}")
        arrays = self.parameters()
        size = sum(a.size for a in arrays)
        if vector is None:
            vector = np.empty(size)
            views = flat_views(vector, arrays)
            for v, a in zip(views, arrays):
                v[...] = a
        elif vector.shape != (size,):
            raise FlowError(f"parameter vector must hold {size} values")
        else:
            views = flat_views(vector, arrays)
        self._spans, i = [], 0
        for layer in self.layers:
            k = len(layer.state_arrays())
            layer.set_state(views[i:i + k])
            self._spans.append(slice(i, i + k))
            i += k
        self._vector = vector
        self._views = views
        self._grad_views = (None, None)

    @property
    def vector(self) -> np.ndarray:
        """The one vector of the layers' state, in checkpoint descriptor
        order.  Raises FlowError once another model has taken the layers."""
        if any(a is not v for a, v in zip(self.parameters(), self._views)):
            raise FlowError("the layers of this model now read another "
                            "model's vector")
        return self._vector

    def __deepcopy__(self, memo):
        # NumPy's deepcopy does not keep views: the copy builds a vector of
        # its own that its copied layers read
        return FlowModel(self.dim, copy.deepcopy(self.layers, memo),
                         self.context_width)

    def parameters(self) -> list[np.ndarray]:
        """Every layer's state arrays in descriptor order: the views that
        tile :attr:`vector`, which the optimizer steps."""
        return [a for layer in self.layers for a in layer.state_arrays()]

    # ---- tape passes; bind=None treats the weights as constants ----

    def _layer_views(self, flat):
        """Views of a flat array laid out like :attr:`vector`, shaped like
        the layers' state arrays and grouped by layer."""
        views = flat_views(flat, self._views)
        return [views[span] for span in self._spans]

    def _gradient_views(self, flat):
        # a training step hands the same flat gradient every step
        held, views = self._grad_views
        if held is not flat:
            views = self._layer_views(flat)
            self._grad_views = (flat, views)
        return views

    def _pass(self, x, ctx, states, inverse, with_vjp):
        """A pass on arrays: the output, the log-det and, ``with_vjp``, each
        layer's vector-Jacobian product in the order run (else empty).
        ``states`` are the layers' weights (their own where None).  With
        VJPs the layers run through their ``forward_node``/``inverse_node``;
        a value-only pass calls their bodies directly, so those entry
        points see tape work only."""
        order = range(len(self.layers))
        out, ld, vjps = x, None, []
        for i in (reversed(order) if inverse else order):
            layer, params = self.layers[i], None if states is None else states[i]
            if with_vjp:
                out, l, vjp = (layer.inverse_node if inverse
                               else layer.forward_node)(out, ctx, params)
                vjps.append((i, vjp))
            else:
                out, l, _ = layer._pass(out, ctx, params, inverse, with_vjp=False)
            if l is not None:
                ld = l if ld is None else ld + l
        return out, (np.zeros(out.shape[0]) if ld is None else ld), vjps

    def _node_pass(self, bind, node, context, inverse):
        """One tape node for the whole pass, and the nodes that read its
        output and its log-det.  The weights are the layers' own arrays,
        or, where the bound leaf is not a view of :attr:`vector` (a
        gradient check's perturbed copy), views of the leaf's value."""
        leaf = None if bind is None else bind(self._vector, self._views)
        states = (None if leaf is None or leaf.value.base is self._vector
                  else self._layer_views(leaf.value))
        ctx = None if context is None else context.value
        out, ld, vjps = self._pass(node.value, ctx, states, inverse, with_vjp=True)
        d = out.shape[1]

        def flow_vjp(g):
            g_y, g_ld = g[:, :d], g[:, d]
            if leaf is not None:
                flat = bind.buffer(self._vector)
                grads = self._gradient_views(flat)
            g_ctx = None
            for i, vjp in reversed(vjps):
                g_y, g_c = vjp(g_y, g_ld, None if leaf is None else grads[i])
                if g_c is not None:
                    # summed over the layers in the order of the per-op tape
                    g_ctx = g_c if g_ctx is None else g_ctx + g_c
            adjoints = (g_y,)
            if context is not None:
                adjoints += (np.zeros(ctx.shape) if g_ctx is None else g_ctx,)
            return adjoints if leaf is None else adjoints + (flat,)

        parents = ((node,) + (() if context is None else (context,))
                   + (() if leaf is None else (leaf,)))
        flow = de.Node(node.graph, np.concatenate([out, ld[:, None]], axis=1),
                       parents, flow_vjp)
        return _read_columns(flow, out, slice(0, d)), _read_columns(flow, ld, d)

    def forward_node(self, bind, z: de.Node, context: de.Node | None = None):
        return self._node_pass(bind, z, context, inverse=False)

    def inverse_node(self, bind, x: de.Node, context: de.Node | None = None):
        return self._node_pass(bind, x, context, inverse=True)

    def _context(self, context, n):
        if self.context_width == 0:
            return None
        if context is None:
            raise FlowError("conditional flow evaluated without context")
        ctx = np.asarray(context, dtype=np.float64)
        if ctx.ndim == 1:
            ctx = np.tile(ctx, (n, 1))
        if ctx.shape != (n, self.context_width):
            raise FlowError(f"context shape {ctx.shape} != ({n}, {self.context_width})")
        return ctx

    def context_node(self, graph, context, n):
        ctx = self._context(context, n)
        return None if ctx is None else graph.constant(ctx)

    # ---- array front (the tape passes' values, no tape) ----

    def _values(self, x, context, inverse, what):
        arr, single = _as_batch(x, self.dim, what)
        out, ld, _ = self._pass(arr, self._context(context, arr.shape[0]), None,
                                inverse, with_vjp=False)
        if single:
            return out[0].copy(), float(ld[0])
        return (arr.copy() if out is arr else out), ld

    def forward(self, z, context=None):
        return self._values(z, context, False, "forward")

    def inverse(self, x, context=None):
        return self._values(x, context, True, "inverse")

    def log_prob(self, x, context=None):
        arr, single = _as_batch(x, self.dim, "log_prob")
        z, ld = self.inverse(arr, context)
        out = gaussian_logpdf(z) + ld
        return float(out[0]) if single else out

    def sample(self, n: int, rng: np.random.Generator, context=None) -> np.ndarray:
        if n < 1:
            raise FlowError("sample: n must be >= 1")
        z = rng.standard_normal((n, self.dim))
        return self.forward(z, context)[0]


class ComposedSampler:
    """Pre-generator composed with a frozen base flow.

    Samples are ``x = base(pre(eps))`` with ``eps ~ N(0, I)``; the density of
    the composition is exact via the two change-of-variables corrections.
    ``context`` (for a conditional pre-generator) is bound at construction.
    """

    def __init__(self, pre: FlowModel, base: FlowModel, context=None):
        if pre.dim != base.dim:
            raise FlowError(f"pre/base dimension mismatch: {pre.dim} vs {base.dim}")
        self.pre = pre
        self.base = base
        self.context = None if context is None else np.asarray(context, dtype=np.float64)

    @property
    def dim(self) -> int:
        return self.base.dim

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        z = self.pre.forward(rng.standard_normal((n, self.dim)), self.context)[0]
        return self.base.forward(z)[0]

    def sample_with_logq(self, n: int, rng: np.random.Generator):
        eps = rng.standard_normal((n, self.dim))
        z, ld_pre = self.pre.forward(eps, self.context)
        x, ld_base = self.base.forward(z)
        return x, gaussian_logpdf(eps) - ld_pre - ld_base

    def log_prob(self, x):
        arr, single = _as_batch(x, self.dim, "log_prob")
        z, ld_base = self.base.inverse(arr)
        eps, ld_pre = self.pre.inverse(z, self.context)
        out = gaussian_logpdf(eps) + ld_pre + ld_base
        return float(out[0]) if single else out


def make_flow(dim: int, *, num_layers: int = 6, kind: str = "affine",
              hidden_width: int = 64, hidden_layers: int = 2,
              context_width: int = 0, rng: np.random.Generator) -> FlowModel:
    """Standard stack: even/odd coupling splits with a reversal between layers.

    A trailing reversal is appended when needed so the permutations compose
    to the identity; a freshly built flow is then exactly the identity map,
    which keeps the KL term of a new pre-generator at exactly zero.
    """
    if dim < 2:
        raise FlowError("make_flow needs dim >= 2 (coupling requires a split)")
    idx_cond = np.arange(0, dim, 2)
    idx_out = np.arange(1, dim, 2)
    layers = []
    n_perms = 0
    for i in range(num_layers):
        if i > 0:
            layers.append(reversal(dim))
            n_perms += 1
        widths = ([len(idx_cond) + context_width]
                  + [hidden_width] * hidden_layers
                  + [len(idx_out) if kind == "additive" else 2 * len(idx_out)])
        layers.append(CouplingLayer(kind, idx_cond, idx_out, Mlp(widths, rng),
                                    context_width))
    if n_perms % 2 == 1:
        layers.append(reversal(dim))
    return FlowModel(dim, layers, context_width)
