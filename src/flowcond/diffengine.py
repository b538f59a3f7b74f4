"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Graph` is a define-by-run tape.  Every operation appends one
:class:`Node` holding the forward value and a closure that turns the node's
adjoint into adjoints of its parents.  Graphs are cheap, built fresh per
evaluation, and walked in a fixed order, so replaying the same computation
with the same inputs is bit-identical.

Shapes are explicit.  The only implicit broadcast is scalar * tensor (and
the float shorthand ``2.0 * node``); everything else must conform exactly
and raises :class:`ShapeMismatch` otherwise.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DomainError",
    "Graph",
    "Node",
    "ShapeMismatch",
    "backward",
    "check_gradients",
    "concat",
    "matmul",
    "take",
]


class ShapeMismatch(ValueError):
    """Operand shapes do not conform for the attempted operation."""

    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: shapes {' vs '.join(map(str, shapes))} do not conform")
        self.op = op
        self.shapes = shapes


class DomainError(ValueError):
    """Operand lies outside the mathematical domain of the operation."""


class Graph:
    """Operation tape.  Confined to one thread; values are immutable once recorded."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.adjoints: list[np.ndarray] | None = None

    def leaf(self, value, param: bool = True) -> "Node":
        """Record an input tensor; ``param`` marks it for the gradient map."""
        arr = np.array(value, dtype=np.float64)
        return Node(self, arr, (), None, is_param=param)

    def constant(self, value) -> "Node":
        return self.leaf(value, param=False)

    def view(self, array: np.ndarray) -> "Node":
        """Record the float64 ``array`` as a parameter leaf without copying
        it: the leaf holds a read-only view, so the array's owner may still
        update it once the graph is done with."""
        return Node(self, array.view(), (), None, is_param=True)


class Node:
    """One tape entry: a value plus the local backward rule."""

    __slots__ = ("graph", "index", "value", "parents", "vjp", "is_param")

    def __init__(self, graph, value, parents=(), vjp=None, is_param=False):
        self.graph = graph
        self.index = len(graph.nodes)
        self.value = np.asarray(value, dtype=np.float64)
        self.value.flags.writeable = False
        self.parents = parents
        self.vjp = vjp
        self.is_param = is_param
        graph.nodes.append(self)

    @property
    def shape(self):
        return self.value.shape

    # ---- binary ----

    def _binary(self, other, op):
        if not isinstance(other, Node):
            raise TypeError(f"{op}: expected Node, got {type(other).__name__} "
                            "(wrap constants with graph.constant)")
        if other.graph is not self.graph:
            raise ValueError(f"{op}: operands belong to different graphs")
        if self.value.shape != other.value.shape:
            raise ShapeMismatch(op, self.value.shape, other.value.shape)
        return other

    def __add__(self, other):
        other = self._binary(other, "add")
        return Node(self.graph, self.value + other.value, (self, other),
                    lambda g: (g, g))

    def __sub__(self, other):
        other = self._binary(other, "subtract")
        return Node(self.graph, self.value - other.value, (self, other),
                    lambda g: (g, -g))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            c = float(other)
            return Node(self.graph, c * self.value, (self,), lambda g: (c * g,))
        other = self._binary(other, "multiply")
        a, b = self.value, other.value
        return Node(self.graph, a * b, (self, other), lambda g: (g * b, g * a))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __matmul__(self, other):
        return matmul(self, other)

    # ---- unary ----

    def exp(self):
        out = np.exp(self.value)
        return Node(self.graph, out, (self,), lambda g: (g * out,))

    def tanh(self):
        out = np.tanh(self.value)
        return Node(self.graph, out, (self,), lambda g: (g * (1.0 - out * out),))

    def relu(self):
        # adjoint at exactly 0 is 0 (strict-inequality mask)
        mask = self.value > 0.0
        return Node(self.graph, np.where(mask, self.value, 0.0), (self,),
                    lambda g: (g * mask,))

    def square(self):
        return Node(self.graph, self.value * self.value, (self,),
                    lambda g, v=self.value: (2.0 * v * g,))

    # ---- reductions ----

    def sum(self, axis=None):
        shape = self.value.shape
        out = np.sum(self.value, axis=axis)

        def vjp(g):
            return (_spread(g, shape, axis),)

        return Node(self.graph, out, (self,), vjp)

    def mean(self, axis=None):
        shape = self.value.shape
        count = self.value.size if axis is None else shape[axis]
        out = np.mean(self.value, axis=axis)

        def vjp(g):
            return (_spread(g, shape, axis) / count,)

        return Node(self.graph, out, (self,), vjp)


def _spread(g, shape, axis):
    if axis is None:
        return np.broadcast_to(g, shape)
    return np.broadcast_to(np.expand_dims(g, axis), shape)


def matmul(a: Node, b: Node) -> Node:
    if not isinstance(b, Node):
        raise TypeError("matmul: expected Node")
    if b.graph is not a.graph:
        raise ValueError("matmul: operands belong to different graphs")
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ShapeMismatch("matmul", a.value.shape, b.value.shape)
    av, bv = a.value, b.value
    return Node(a.graph, av @ bv, (a, b),
                lambda g: (g @ bv.T, av.T @ g))


def concat(nodes, axis: int = 0) -> Node:
    nodes = list(nodes)
    if not nodes:
        raise ValueError("concat: empty input")
    graph = nodes[0].graph
    for n in nodes[1:]:
        if n.graph is not graph:
            raise ValueError("concat: operands belong to different graphs")
    try:
        out = np.concatenate([n.value for n in nodes], axis=axis)
    except ValueError as e:
        raise ShapeMismatch("concatenate", *[n.value.shape for n in nodes]) from e
    sizes = [n.value.shape[axis] for n in nodes]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        parts = []
        for i in range(len(sizes)):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            parts.append(g[tuple(sl)])
        return tuple(parts)

    return Node(graph, out, tuple(nodes), vjp)


def take(a: Node, indices, axis: int = 0, *, distinct: bool = False) -> Node:
    """Select along ``axis`` by an index set; the adjoint scatter-adds back.

    A caller whose indices are distinct by construction says so, and
    nothing is checked per call: the adjoint is then an assignment into
    zeros, with the bits of the scatter-add, ``0.0 + g`` (which turns -0.0
    into 0.0).
    """
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeMismatch("take", idx.shape, ("1-d index set",))
    out = np.take(a.value, idx, axis=axis)
    shape = a.value.shape

    def vjp(g):
        z = np.zeros(shape)
        sl = [slice(None)] * len(shape)
        sl[axis] = idx
        if distinct:
            z[tuple(sl)] = g
            z += 0.0
        else:
            np.add.at(z, tuple(sl), g)
        return (z,)

    return Node(a.graph, out, (a,), vjp)


def backward(graph: Graph, loss: Node) -> dict[Node, np.ndarray]:
    """Populate adjoints for every node and return the parameter gradient map.

    ``loss`` must be scalar.  Nodes unreachable from ``loss`` get zero
    adjoints.  Accumulation order is fixed by node index, so repeated calls
    on the same graph are bit-identical.
    """
    if loss.graph is not graph:
        raise ValueError("backward: loss node belongs to a different graph")
    if loss.value.shape != ():
        raise ShapeMismatch("backward", loss.value.shape, ())
    adj: list[np.ndarray | None] = [None] * len(graph.nodes)
    adj[loss.index] = np.ones(())
    for node in reversed(graph.nodes[: loss.index + 1]):
        g = adj[node.index]
        if g is None or not node.parents:
            continue
        for parent, contribution in zip(node.parents, node.vjp(g)):
            if adj[parent.index] is None:
                adj[parent.index] = np.asarray(contribution, dtype=np.float64)
            else:
                adj[parent.index] = adj[parent.index] + contribution
    graph.adjoints = [
        a if a is not None else np.zeros(n.value.shape)
        for a, n in zip(adj, graph.nodes)
    ]
    return {n: graph.adjoints[n.index] for n in graph.nodes if n.is_param}


def check_gradients(scalar_function, point, step: float = 1e-5) -> float:
    """Max relative disagreement between backward() and central differences.

    ``scalar_function`` receives a fresh leaf Node per evaluation and must
    return a scalar Node.  The relative error per coordinate is
    ``|analytic - numeric| / (|analytic| + |numeric| + 1e-12)``.
    """
    point = np.asarray(point, dtype=np.float64)
    g = Graph()
    x = g.leaf(point)
    out = scalar_function(x)
    if out.value.shape != ():
        raise ShapeMismatch("check_gradients", out.value.shape, ())
    if not np.isfinite(out.value):
        raise DomainError("check_gradients: non-finite function value")
    analytic = backward(g, out)[x]

    def value_at(p):
        h = Graph()
        v = scalar_function(h.leaf(p)).value
        if not np.isfinite(v):
            raise DomainError("check_gradients: non-finite function value")
        return float(v)

    numeric = np.zeros_like(point)
    for idx in np.ndindex(point.shape):
        hi = point.copy()
        hi[idx] += step
        lo = point.copy()
        lo[idx] -= step
        numeric[idx] = (value_at(hi) - value_at(lo)) / (2.0 * step)
    rel = np.abs(analytic - numeric) / (np.abs(analytic) + np.abs(numeric) + 1e-12)
    return float(np.max(rel)) if rel.size else 0.0
