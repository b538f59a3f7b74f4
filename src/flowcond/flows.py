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

Every layer has two forms of each pass.  ``forward_array``/``inverse_array``
are plain numpy: :meth:`FlowModel.forward`, ``inverse``, ``log_prob``,
``sample`` and all of :class:`ComposedSampler` use them, so no graph is
built where no gradient is taken.  ``forward_node``/``inverse_node`` put
the same arithmetic on the diffengine tape for the losses: a coupling
layer records one gather, one conditioner node and one coupling node, each
with a hand-written vector-Jacobian product (the additive/affine coupling
Jacobians of RealNVP, Dinh et al., arXiv:1605.08803).  Both forms give the
same values bit for bit.  Passed ``bind=None``, a tape pass treats the
weights as constants and computes no weight gradients, which is how the
frozen base runs inside the losses.
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
    """One graph leaf per distinct parameter array, cached by identity."""

    def __init__(self, graph: de.Graph):
        self.graph = graph
        self._leaves: dict[int, de.Node] = {}
        self._keep: list[np.ndarray] = []

    def __call__(self, arr: np.ndarray) -> de.Node:
        node = self._leaves.get(id(arr))
        if node is None:
            node = self.graph.leaf(arr)
            self._leaves[id(arr)] = node
            self._keep.append(arr)
        return node

    def gradients(self, grad_map, params, out=None) -> list[np.ndarray]:
        """Align a backward() gradient map with a parameter list: each
        array's gradient, zero where it has none, written into ``out``
        (arrays shaped like ``params``; new ones when not given)."""
        if out is None:
            out = [np.empty_like(p) for p in params]
        for p, g in zip(params, out):
            node = self._leaves.get(id(p))
            if node is None or node not in grad_map:
                g.fill(0.0)
            else:
                g[...] = grad_map[node]
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
            h = h @ w
            h += b
            if i < last:
                np.tanh(h, out=h)
        return h

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        return self._run(x, self.weights, self.biases)

    def forward_node(self, bind: ParamBinder | None, x: de.Node,
                     context: de.Node | None = None) -> de.Node:
        """The whole network as one tape node on the input ``[x, context]``.

        With a binder the node's parents include the bound weights and its
        vector-Jacobian product returns their gradients; with ``bind=None``
        the weights are constants and only the inputs get adjoints.
        """
        inputs = (x,) if context is None else (x, context)
        inp = x.value if context is None else \
            np.concatenate([x.value, context.value], axis=1)
        if bind is None:
            leaves = ()
            weights, biases = self.weights, self.biases
        else:
            leaves = tuple(bind(p) for p in self.weights + self.biases)
            values = [leaf.value for leaf in leaves]
            weights, biases = values[:len(self.weights)], values[len(self.weights):]
        acts = []
        out = self._run(inp, weights, biases, acts)
        ones = np.ones((inp.shape[0], 1))
        width = x.value.shape[1]

        def vjp(g):
            grad_w, grad_b = [], []
            for i in reversed(range(len(weights))):
                a = acts[i]
                if leaves:
                    grad_w.append(a.T @ g)
                    grad_b.append(ones.T @ g)
                g = g @ weights[i].T
                if i > 0:
                    g = g * (1.0 - a * a)
            g_in = (g,) if context is None else (g[:, :width], g[:, width:])
            return g_in + tuple(reversed(grad_w)) + tuple(reversed(grad_b))

        return de.Node(x.graph, out, inputs + leaves, vjp)


class Permutation:
    """Fixed index permutation; unit Jacobian."""

    def __init__(self, perm):
        self.perm = np.asarray(perm, dtype=np.intp)
        self.inv = np.argsort(self.perm)

    def parameters(self):
        return []

    def state_arrays(self):
        return []

    def set_state(self, arrays):
        pass

    def forward_array(self, x, context=None):
        return x[:, self.perm], None

    def inverse_array(self, y, context=None):
        return y[:, self.inv], None

    def forward_node(self, bind, x, context=None):
        return de.take(x, self.perm, axis=1), None

    def inverse_node(self, bind, y, context=None):
        return de.take(y, self.inv, axis=1), None


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
        self.set_state([scale, shift])

    def parameters(self):
        return []

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

    def forward_array(self, x, context=None):
        return x * self.scale + self.shift, np.full(x.shape[0], self.logdet)

    def inverse_array(self, y, context=None):
        return (y - self.shift) * (1.0 / self.scale), np.full(y.shape[0], -self.logdet)

    def forward_node(self, bind, x, context=None):
        n = x.value.shape[0]
        s = x.graph.constant(np.tile(self.scale, (n, 1)))
        t = x.graph.constant(np.tile(self.shift, (n, 1)))
        ld = x.graph.constant(np.full(n, self.logdet))
        return x * s + t, ld

    def inverse_node(self, bind, y, context=None):
        n = y.value.shape[0]
        s = y.graph.constant(np.tile(1.0 / self.scale, (n, 1)))
        t = y.graph.constant(np.tile(self.shift, (n, 1)))
        ld = y.graph.constant(np.full(n, -self.logdet))
        return (y - t) * s, ld


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
        both = np.concatenate([self.idx_cond, self.idx_out])
        if sorted(both.tolist()) != list(range(len(both))):
            raise FlowError("partition must split 0..d-1 into disjoint sets")
        self.conditioner = conditioner
        self.context_width = int(context_width)
        k = len(self.idx_out)
        expected_out = k if kind == "additive" else 2 * k
        expected_in = len(self.idx_cond) + self.context_width
        if conditioner.widths[0] != expected_in or conditioner.widths[-1] != expected_out:
            raise FlowError(
                f"conditioner widths {conditioner.widths} do not fit partition "
                f"(need {expected_in} -> {expected_out})")

    def parameters(self):
        return self.conditioner.parameters()

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
        y = np.empty((xc.shape[0], len(self.idx_cond) + len(self.idx_out)))
        y[:, self.idx_cond] = xc
        y[:, self.idx_out] = yo
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

    def forward_array(self, x, context=None):
        xc = x[:, self.idx_cond]
        h = self.conditioner.forward_array(self._net_input(xc, context))
        yo, ld, _ = self._couple(x[:, self.idx_out], h, inverse=False)
        return self._assemble(xc, yo), ld

    def inverse_array(self, y, context=None):
        yc = y[:, self.idx_cond]
        h = self.conditioner.forward_array(self._net_input(yc, context))
        xo, ld, _ = self._couple(y[:, self.idx_out], h, inverse=True)
        return self._assemble(yc, xo), ld

    def forward_node(self, bind, x, context=None):
        return self._coupling_node(bind, x, context, inverse=False)

    def inverse_node(self, bind, y, context=None):
        return self._coupling_node(bind, y, context, inverse=True)

    def _coupling_node(self, bind, x, context, inverse):
        """One pass on the tape: the gather of the conditioning half, the
        conditioner node and one coupling node.  For affine layers the
        coupling node's value is the output with the log-det appended as a
        last column, and the pass returns two nodes that read it."""
        if self.context_width and context is None:
            raise FlowError("conditional layer evaluated without context")
        xc = de.take(x, self.idx_cond, axis=1)
        h = self.conditioner.forward_node(
            bind, xc, context if self.context_width else None)
        yo, ld, saved = self._couple(x.value[:, self.idx_out], h.value, inverse)
        y = self._assemble(xc.value, yo)
        idx_cond, idx_out = self.idx_cond, self.idx_out
        n, d = y.shape

        def input_adjoints(g_y, g_xo):
            g_x = np.zeros((n, d))
            g_x[:, idx_out] += g_xo
            return g_x, g_y[:, idx_cond]

        if saved is None:
            kc = len(idx_cond)

            def vjp(g):
                # The conditioner's adjoint keeps the memory layout of the
                # per-op path (tests/flow_reference.py), a column block of an
                # (n, d) array: the matmuls of its backward pass round
                # differently on a contiguous copy.
                g_o = np.empty((n, d))[:, kc:]
                g_o[...] = g[:, idx_out]
                return input_adjoints(g, g_o) + ((-g_o if inverse else g_o),)

            return de.Node(x.graph, y, (x, xc, h), vjp), None

        t, factor, operand = saved
        log_limit = math.log(SCALE_LIMIT)

        def vjp(g):
            # products and sums in the order of the per-op path
            g_y, g_ld = g[:, :d], g[:, d]
            g_o = g_y[:, idx_out]
            g_xo = g_o * factor
            if inverse:
                g_shift = -g_xo
                g_ls = -1.0 * ((g_o * operand) * factor) + (-1.0 * g_ld)[:, None]
            else:
                g_shift = g_o
                g_ls = (g_o * operand) * factor + g_ld[:, None]
            g_raw = (log_limit * g_ls) * (1.0 - t * t)
            return input_adjoints(g_y, g_xo) + \
                (np.concatenate([g_shift, g_raw], axis=1),)

        node = de.Node(x.graph, np.concatenate([y, ld[:, None]], axis=1),
                       (x, xc, h), vjp)
        return _column_node(node, y, slice(0, d)), _column_node(node, ld, d)


def _column_node(node, value, columns):
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
        arrays = self.state_arrays()
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
        i = 0
        for layer in self.layers:
            k = len(layer.state_arrays())
            layer.set_state(views[i:i + k])
            i += k
        self._vector = vector
        self._views = views

    @property
    def vector(self) -> np.ndarray:
        """The one vector of the layers' state, in checkpoint descriptor
        order.  Raises FlowError once another model has taken the layers."""
        if any(a is not v for a, v in zip(self.state_arrays(), self._views)):
            raise FlowError("the layers of this model now read another "
                            "model's vector")
        return self._vector

    def __deepcopy__(self, memo):
        # NumPy's deepcopy does not keep views: the copy builds a vector of
        # its own that its copied layers read
        return FlowModel(self.dim, copy.deepcopy(self.layers, memo),
                         self.context_width)

    def parameters(self) -> list[np.ndarray]:
        """The trainable arrays, views of :attr:`vector`."""
        return [p for layer in self.layers for p in layer.parameters()]

    def state_arrays(self) -> list[np.ndarray]:
        """Every layer's state arrays in descriptor order; they tile
        :attr:`vector`."""
        return [a for layer in self.layers for a in layer.state_arrays()]

    # ---- tape passes; bind=None treats the weights as constants ----

    def _node_pass(self, bind, node, context, inverse):
        out, ld = node, None
        for layer in (reversed(self.layers) if inverse else self.layers):
            out, l = (layer.inverse_node if inverse else layer.forward_node)(
                bind, out, context)
            if l is not None:
                ld = l if ld is None else ld + l
        if ld is None:
            ld = out.graph.constant(np.zeros(out.value.shape[0]))
        return out, ld

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

    # ---- array front (plain numpy, no tape) ----

    def _array_pass(self, arr, context, inverse):
        ctx = self._context(context, arr.shape[0])
        out, ld = arr, None
        for layer in (reversed(self.layers) if inverse else self.layers):
            out, l = (layer.inverse_array if inverse else layer.forward_array)(out, ctx)
            if l is not None:
                ld = l if ld is None else ld + l
        if ld is None:
            ld = np.zeros(arr.shape[0])
        return (arr.copy() if out is arr else out), ld

    def forward(self, z, context=None):
        arr, single = _as_batch(z, self.dim, "forward")
        x, ld = self._array_pass(arr, context, inverse=False)
        if single:
            return x[0].copy(), float(ld[0])
        return x, ld

    def inverse(self, x, context=None):
        arr, single = _as_batch(x, self.dim, "inverse")
        z, ld = self._array_pass(arr, context, inverse=True)
        if single:
            return z[0].copy(), float(ld[0])
        return z, ld

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
