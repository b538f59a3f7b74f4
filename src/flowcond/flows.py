"""Invertible flow models with exact log-densities.

Building blocks are additive/affine coupling layers with MLP conditioners,
fixed permutations, and a fixed diagonal-affine layer used to construct
reference distributions in closed form.  A :class:`FlowModel` stacks layers
into a bijection on R^d with a standard-normal prior; :class:`ComposedSampler`
pairs a trainable pre-generator with a frozen base flow, which is the
conditional sampler everything else revolves around.

All forward/inverse passes run on the diffengine tape so that losses built
on top of them get exact gradients.  The array-facing methods build a
throwaway graph internally.
"""

from __future__ import annotations

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
    """Affine scale underflowed the invertibility floor."""


def gaussian_logpdf(x: np.ndarray) -> np.ndarray:
    """Standard-normal log density per row; ``x`` is (n, d)."""
    x = np.asarray(x, dtype=np.float64)
    return -0.5 * np.sum(x * x, axis=1) + (-0.5 * x.shape[1] * LOG_2PI)


def gaussian_logpdf_node(x: de.Node) -> de.Node:
    """Tape version of :func:`gaussian_logpdf`; bit-identical arithmetic."""
    n, d = x.value.shape
    norm = x.graph.constant(np.full(n, -0.5 * d * LOG_2PI))
    return -0.5 * x.square().sum(axis=1) + norm


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

    def gradients(self, grad_map, params) -> list[np.ndarray]:
        """Align a backward() gradient map with a parameter list."""
        out = []
        for p in params:
            node = self._leaves.get(id(p))
            if node is None or node not in grad_map:
                out.append(np.zeros_like(p))
            else:
                out.append(grad_map[node])
        return out


class Mlp:
    """Fully connected tanh network, linear output, final layer zeroed.

    The zero final layer makes every freshly built coupling layer the
    identity map ("identity start").
    """

    def __init__(self, widths, rng: np.random.Generator):
        if len(widths) < 2:
            raise FlowError("Mlp needs at least input and output widths")
        self.widths = [int(w) for w in widths]
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for i, (a, b) in enumerate(zip(self.widths[:-1], self.widths[1:])):
            last = i == len(self.widths) - 2
            if last:
                w = np.zeros((a, b))
            else:
                w = rng.normal(0.0, 1.0 / math.sqrt(a), size=(a, b))
            self.weights.append(w)
            self.biases.append(np.zeros((1, b)))

    def parameters(self) -> list[np.ndarray]:
        return self.weights + self.biases

    def forward_node(self, bind: ParamBinder, x: de.Node) -> de.Node:
        ones = x.graph.constant(np.ones((x.value.shape[0], 1)))
        h = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = de.matmul(h, bind(w)) + de.matmul(ones, bind(b))
            if i < len(self.weights) - 1:
                h = h.tanh()
        return h

    def copy(self) -> "Mlp":
        out = object.__new__(Mlp)
        out.widths = list(self.widths)
        out.weights = [w.copy() for w in self.weights]
        out.biases = [b.copy() for b in self.biases]
        return out


class Permutation:
    """Fixed index permutation; unit Jacobian."""

    def __init__(self, perm):
        self.perm = np.asarray(perm, dtype=np.intp)
        self.inv = np.argsort(self.perm)

    def parameters(self):
        return []

    def state_arrays(self):
        return []

    def forward_node(self, bind, x, context=None):
        return de.take(x, self.perm, axis=1), None

    def inverse_node(self, bind, y, context=None):
        return de.take(y, self.inv, axis=1), None

    def copy(self):
        return Permutation(self.perm.copy())


def reversal(dim: int) -> Permutation:
    return Permutation(np.arange(dim)[::-1])


class DiagonalAffine:
    """Fixed elementwise map y = scale * x + shift (not trainable).

    Used to build flows with known densities: e.g. mapping N(0, I) onto an
    arbitrary diagonal Gaussian.
    """

    def __init__(self, scale, shift=None):
        self.scale = np.asarray(scale, dtype=np.float64).copy()
        if np.any(np.abs(self.scale) < _SCALE_FLOOR):
            raise SingularScale("diagonal scale below invertibility floor")
        self.shift = (np.zeros_like(self.scale) if shift is None
                      else np.asarray(shift, dtype=np.float64).copy())
        if self.shift.shape != self.scale.shape:
            raise FlowError("scale and shift must share a shape")
        self.logdet = float(np.sum(np.log(np.abs(self.scale))))

    def parameters(self):
        return []

    def state_arrays(self):
        return [self.scale, self.shift]

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

    def copy(self):
        return DiagonalAffine(self.scale, self.shift)


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
        self._order = np.argsort(both)
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

    def _net(self, bind, xc, context):
        if self.context_width:
            if context is None:
                raise FlowError("conditional layer evaluated without context")
            xc = de.concat([xc, context], axis=1)
        return self.conditioner.forward_node(bind, xc)

    def _reassemble(self, xc, yo):
        return de.take(de.concat([xc, yo], axis=1), self._order, axis=1)

    def forward_node(self, bind, x, context=None):
        xc = de.take(x, self.idx_cond, axis=1)
        xo = de.take(x, self.idx_out, axis=1)
        h = self._net(bind, xc, context)
        if self.kind == "additive":
            return self._reassemble(xc, xo + h), None
        k = len(self.idx_out)
        shift, raw = de.split(h, [k, k], axis=1)
        log_scale = math.log(SCALE_LIMIT) * raw.tanh()
        yo = xo * log_scale.exp() + shift
        return self._reassemble(xc, yo), log_scale.sum(axis=1)

    def inverse_node(self, bind, y, context=None):
        yc = de.take(y, self.idx_cond, axis=1)
        yo = de.take(y, self.idx_out, axis=1)
        h = self._net(bind, yc, context)
        if self.kind == "additive":
            return self._reassemble(yc, yo - h), None
        k = len(self.idx_out)
        shift, raw = de.split(h, [k, k], axis=1)
        log_scale = math.log(SCALE_LIMIT) * raw.tanh()
        scale = log_scale.exp()
        if np.min(np.abs(scale.value)) < _SCALE_FLOOR:
            raise SingularScale("affine scale below invertibility floor")
        xo = (yo - shift) * (-1.0 * log_scale).exp()
        return self._reassemble(yc, xo), -1.0 * log_scale.sum(axis=1)

    def copy(self):
        out = object.__new__(CouplingLayer)
        out.kind = self.kind
        out.idx_cond = self.idx_cond.copy()
        out.idx_out = self.idx_out.copy()
        out.conditioner = self.conditioner.copy()
        out.context_width = self.context_width
        out._order = self._order.copy()
        return out


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
    """A stack of invertible layers with a standard-normal prior on R^d."""

    def __init__(self, dim: int, layers, context_width: int = 0):
        self.dim = int(dim)
        self.layers = list(layers)
        self.context_width = int(context_width)

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.parameters()]

    # ---- tape-level passes ----

    def forward_node(self, bind, z: de.Node, context: de.Node | None = None):
        x, ld = z, None
        for layer in self.layers:
            x, l = layer.forward_node(bind, x, context)
            if l is not None:
                ld = l if ld is None else ld + l
        if ld is None:
            ld = x.graph.constant(np.zeros(x.value.shape[0]))
        return x, ld

    def inverse_node(self, bind, x: de.Node, context: de.Node | None = None):
        z, ld = x, None
        for layer in reversed(self.layers):
            z, l = layer.inverse_node(bind, z, context)
            if l is not None:
                ld = l if ld is None else ld + l
        if ld is None:
            ld = z.graph.constant(np.zeros(z.value.shape[0]))
        return z, ld

    def context_node(self, graph, context, n):
        if self.context_width == 0:
            return None
        if context is None:
            raise FlowError("conditional flow evaluated without context")
        ctx = np.asarray(context, dtype=np.float64)
        if ctx.ndim == 1:
            ctx = np.tile(ctx, (n, 1))
        if ctx.shape != (n, self.context_width):
            raise FlowError(f"context shape {ctx.shape} != ({n}, {self.context_width})")
        return graph.constant(ctx)

    # ---- array front ----

    def forward(self, z, context=None):
        arr, single = _as_batch(z, self.dim, "forward")
        g = de.Graph()
        zn = g.constant(arr)
        xn, ld = self.forward_node(ParamBinder(g), zn,
                                   self.context_node(g, context, arr.shape[0]))
        if single:
            return xn.value[0].copy(), float(ld.value[0])
        return xn.value.copy(), ld.value.copy()

    def inverse(self, x, context=None):
        arr, single = _as_batch(x, self.dim, "inverse")
        g = de.Graph()
        xn = g.constant(arr)
        zn, ld = self.inverse_node(ParamBinder(g), xn,
                                   self.context_node(g, context, arr.shape[0]))
        if single:
            return zn.value[0].copy(), float(ld.value[0])
        return zn.value.copy(), ld.value.copy()

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

    def copy(self) -> "FlowModel":
        return FlowModel(self.dim, [l.copy() for l in self.layers], self.context_width)


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
