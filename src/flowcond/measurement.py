"""Differentiable linear forward operators.

Every operator provides ``apply`` (arrays) and ``apply_node`` (tape); the
adjoint A^T u is the tape's backward pass through ``apply_node``, the one
that every loss and baseline gradient uses.  Each kind routes arrays
through the same operation as its tape path (a gather by ``np.take``, or
the row-batch matmul), so both paths agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffengine as de


class MeasurementError(ValueError):
    """An operator or observation that cannot be built; ``field`` names the
    argument at fault, when one is."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def _as_rows(x, dim, what):
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise MeasurementError(f"{what}: expected length {dim}, got {arr.shape[0]}")
        return arr[None, :], True
    if arr.ndim == 2 and arr.shape[1] == dim:
        return arr, False
    raise MeasurementError(f"{what}: expected ({dim},) or (n, {dim}), got {arr.shape}")


class MeasurementOp:
    """Base class; concrete kinds fill in the linear map."""

    kind: str
    input_dim: int
    output_dim: int

    def apply(self, x):
        raise NotImplementedError

    def apply_node(self, x: de.Node) -> de.Node:
        raise NotImplementedError


class MaskOp(MeasurementOp):
    """Observe a fixed index set of the flattened signal."""

    kind = "mask"

    def __init__(self, indices, input_dim: int):
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim != 1 or len(idx) == 0:
            raise MeasurementError("mask: need a non-empty 1-d index set",
                                   "indices")
        if len(np.unique(idx)) != len(idx):
            raise MeasurementError("mask: duplicate indices", "indices")
        if idx.min() < 0 or idx.max() >= input_dim:
            raise MeasurementError(
                f"mask: indices must lie in 0..{input_dim - 1}", "indices")
        self.indices = idx
        self.input_dim = int(input_dim)
        self.output_dim = len(idx)

    def apply(self, x):
        rows, single = _as_rows(x, self.input_dim, "apply")
        # np.take, as apply_node: its C-ordered rows are summed in the
        # order the tape sums them, where x[:, indices]'s are not
        out = np.take(rows, self.indices, axis=1)
        return out[0] if single else out

    def apply_node(self, x):
        return de.take(x, self.indices, axis=1, distinct=True)


class _MatrixOp(MeasurementOp):
    """Shared machinery for kinds realized as a dense m x d matrix."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.output_dim, self.input_dim = matrix.shape

    def apply(self, x):
        rows, single = _as_rows(x, self.input_dim, "apply")
        out = rows @ self.matrix.T
        return out[0] if single else out

    def apply_node(self, x):
        return de.matmul(x, x.graph.constant(self.matrix.T))


class GaussianOp(_MatrixOp):
    """Random projection with N(0, 1/m) entries, reconstructible from its seed."""

    kind = "gaussian"

    def __init__(self, seed: int, m: int, d: int):
        if m < 1:
            raise MeasurementError("gaussian: need m >= 1", "m")
        if d < 1:
            raise MeasurementError("gaussian: need d >= 1")
        rng = np.random.default_rng(seed)
        super().__init__(rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, d)))
        self.seed = int(seed)


class Downsample2xOp(_MatrixOp):
    """Average non-overlapping 2x2 pixel blocks per channel (channel-last)."""

    kind = "downsample2x"

    def __init__(self, height: int, width: int, channels: int = 1):
        if height % 2 or width % 2:
            raise MeasurementError("downsample2x: height and width must be even")
        self.height, self.width, self.channels = height, width, channels
        d = height * width * channels
        m = (height // 2) * (width // 2) * channels
        mat = np.zeros((m, d))
        idx = np.arange(d).reshape(height, width, channels)
        out = 0
        for i in range(0, height, 2):
            for j in range(0, width, 2):
                for c in range(channels):
                    mat[out, idx[i:i + 2, j:j + 2, c].ravel()] = 0.25
                    out += 1
        super().__init__(mat)


class GrayscaleOp(_MatrixOp):
    """Average the channels of every pixel (channel-last)."""

    kind = "grayscale"

    def __init__(self, height: int, width: int, channels: int):
        if channels < 2:
            raise MeasurementError("grayscale: needs >= 2 channels")
        self.height, self.width, self.channels = height, width, channels
        d = height * width * channels
        m = height * width
        mat = np.zeros((m, d))
        idx = np.arange(d).reshape(height, width, channels)
        for p, (i, j) in enumerate(np.ndindex(height, width)):
            mat[p, idx[i, j, :]] = 1.0 / channels
        super().__init__(mat)


@dataclass
class Observation:
    """A measured vector y* = A(x) (+ noise), and the truth when known."""

    y_star: np.ndarray
    op: MeasurementOp
    ground_truth: np.ndarray | None = None

    def __post_init__(self):
        self.y_star = np.asarray(self.y_star, dtype=np.float64)
        if self.y_star.shape != (self.op.output_dim,):
            raise MeasurementError(
                f"observation length {self.y_star.shape} != ({self.op.output_dim},)")
        if self.ground_truth is not None:
            self.ground_truth = np.asarray(self.ground_truth, dtype=np.float64)
            if self.ground_truth.shape != (self.op.input_dim,):
                raise MeasurementError("ground truth length mismatch")

    def residual(self, x) -> np.ndarray:
        """Per-row ||A x - y*||^2 of a (d,) or (n, d) array, shape (n,)."""
        r = self.op.apply(np.atleast_2d(x)) - self.y_star
        return np.sum(r * r, axis=1)

    def residual_node(self, x: de.Node) -> de.Node:
        """:meth:`residual` on the tape, for an (n, d) node."""
        target = x.graph.constant(np.tile(self.y_star, (x.value.shape[0], 1)))
        return (self.op.apply_node(x) - target).square().sum(axis=1)


def make_observation(op: MeasurementOp, x_true, noise_sigma: float = 0.0,
                     rng: np.random.Generator | None = None) -> Observation:
    x_true = np.asarray(x_true, dtype=np.float64)
    y = op.apply(x_true)
    if noise_sigma > 0.0:
        if rng is None:
            raise MeasurementError("noise requested without an rng")
        y = y + noise_sigma * rng.standard_normal(op.output_dim)
    return Observation(y_star=y, op=op, ground_truth=x_true)


def save_mask_file(path, indices) -> None:
    with open(path, "w", encoding="ascii") as f:
        for i in np.asarray(indices, dtype=np.intp):
            f.write(f"{int(i)}\n")


def load_mask_file(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    try:
        return np.asarray([int(ln) for ln in lines], dtype=np.intp)
    except ValueError as e:
        raise MeasurementError(f"mask file {path}: {e}") from e
