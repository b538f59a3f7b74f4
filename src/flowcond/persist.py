"""Persistence and run plumbing: binary checkpoints, sample-set array files,
toy datasets, run configuration files, manifests, and the output-directory
lock.

Every binary file has one frame (little-endian):

    magic | u32 version=1 | head | f64 blob | u32 crc32 of the blob

and ends at its checksum.  Checkpoints have magic "FLWC" and the head

    u8 kind | u32 dim | u32 context_width | u32 n_layers
    per-layer descriptor | u64 count

Layer descriptors: 0 = permutation (u32 n, n*u32), 1/2 = additive/affine
coupling (u32 n_cond + idx, u32 n_out + idx, u32 context_width, u32 n_widths
+ widths), 3 = diagonal affine (u32 d; scale then shift live in the blob).
The blob is the model's parameter vector (:attr:`FlowModel.vector`): every
layer's state arrays in order.  A load reads the blob in place, straight
from the file into the array that becomes the new model's vector, and draws
no random numbers.  Sample sets have magic
"FLWA" and the head u32 rows, u32 cols; image datasets have magic "FLWI"
and the head u32 height, width, channels, count.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .flows import (CouplingLayer, DiagonalAffine, FlowError, FlowModel, Mlp,
                    Permutation)
from .training import TrainConfig, TrainingError

CHECKPOINT_MAGIC = b"FLWC"
ARRAY_MAGIC = b"FLWA"
IMAGE_MAGIC = b"FLWI"
FORMAT_VERSION = 1

_KIND_CODES = {"base": 0, "pregen": 1, "conditional": 2}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


class PersistError(ValueError):
    pass


class TruncatedFile(PersistError):
    pass


class ChecksumMismatch(PersistError):
    pass


class VersionMismatch(PersistError):
    pass


class KindMismatch(PersistError):
    pass


class LockError(RuntimeError):
    pass


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


# ---------------------------------------------------------------------------
# binary helpers
# ---------------------------------------------------------------------------

# the fixed-size fields of the heads, little-endian
_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_CHECKPOINT_HEAD = struct.Struct("<BII")
_ARRAY_HEAD = struct.Struct("<II")
_IMAGE_HEAD = struct.Struct("<IIII")


class _Reader:
    """Fields read in order from an open file: the head through precompiled
    structs, then the blob in place, into the array it becomes.  Every size
    is checked against the bytes left in the file before it is read, so a
    corrupt count cannot become a huge allocation."""

    def __init__(self, f, what: str):
        self._f = f
        self._left = os.fstat(f.fileno()).st_size
        self._what = what

    def holds(self, n: int) -> None:
        """Raise TruncatedFile unless ``n`` more bytes are left."""
        if n > self._left:
            raise TruncatedFile(f"{self._what}: truncated (wanted {n} bytes, "
                                f"{self._left} left)")

    def _take(self, n: int) -> None:
        self.holds(n)
        self._left -= n

    def read(self, n: int) -> bytes:
        self._take(n)
        out = self._f.read(n)
        if len(out) != n:
            raise TruncatedFile(f"{self._what}: truncated (file shrank)")
        return out

    def unpack(self, fields: struct.Struct) -> tuple:
        return fields.unpack(self.read(fields.size))

    def ints(self, n: int) -> np.ndarray:
        return np.frombuffer(self.read(4 * n), dtype="<u4").astype(np.intp)

    def payload(self, count: int) -> np.ndarray:
        """The blob of ``count`` f64 values, read into a new array and
        checked against the crc32 that must end the file."""
        if 8 * count + 4 < self._left:
            raise PersistError(f"{self._what}: trailing bytes after checksum")
        self._take(8 * count)
        blob = np.empty(count, dtype="<f8")
        if self._f.readinto(blob) != blob.nbytes:
            raise TruncatedFile(f"{self._what}: truncated (file shrank)")
        (crc,) = self.unpack(_U32)
        if zlib.crc32(blob) & 0xFFFFFFFF != crc:
            raise ChecksumMismatch(f"{self._what}: checksum mismatch")
        return blob


def _write_file(path, magic: bytes, head: bytes, arrays) -> None:
    """Write magic | u32 version | head | f64 blob of ``arrays`` | crc32."""
    blob = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    with open(path, "wb") as f:
        f.write(magic + _U32.pack(FORMAT_VERSION) + head)
        f.write(blob)
        f.write(_U32.pack(zlib.crc32(blob) & 0xFFFFFFFF))


@contextlib.contextmanager
def _open_file(path, magic: bytes, what: str):
    """A reader of the open file, positioned after the magic and the
    version, both checked."""
    with open(path, "rb") as f:
        r = _Reader(f, str(path))
        found = r.read(4)
        if found != magic:
            raise PersistError(f"{path}: not {what} (magic {found!r})")
        (version,) = r.unpack(_U32)
        if version != FORMAT_VERSION:
            raise VersionMismatch(f"{path}: format version {version}, "
                                  f"expected {FORMAT_VERSION}")
        yield r


def _pack_ints(values) -> bytes:
    return np.asarray(values, dtype="<u4").tobytes()


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _layer_descriptor(layer) -> bytes:
    if isinstance(layer, Permutation):
        return struct.pack("<BI", 0, len(layer.perm)) + _pack_ints(layer.perm)
    if isinstance(layer, CouplingLayer):
        code = 1 if layer.kind == "additive" else 2
        out = struct.pack("<BI", code, len(layer.idx_cond)) + _pack_ints(layer.idx_cond)
        out += struct.pack("<I", len(layer.idx_out)) + _pack_ints(layer.idx_out)
        out += struct.pack("<I", layer.context_width)
        widths = layer.conditioner.widths
        out += struct.pack("<I", len(widths)) + _pack_ints(widths)
        return out
    if isinstance(layer, DiagonalAffine):
        return struct.pack("<BI", 3, len(layer.scale))
    raise PersistError(f"cannot serialize layer type {type(layer).__name__}")


def _read_layer(r: _Reader):
    """The layer a descriptor names; its state arrays are placeholders of
    the right shapes, which the model's vector then replaces.  The blob
    must be able to hold them before they are allocated."""
    (code,) = r.unpack(_U8)
    if code == 0:
        (n,) = r.unpack(_U32)
        return Permutation(r.ints(n))
    if code in (1, 2):
        (n_cond,) = r.unpack(_U32)
        idx_cond = r.ints(n_cond)
        (n_out,) = r.unpack(_U32)
        idx_out = r.ints(n_out)
        (ctx,) = r.unpack(_U32)
        (n_widths,) = r.unpack(_U32)
        widths = r.ints(n_widths).tolist()
        r.holds(8 * sum(a * b + b for a, b in zip(widths, widths[1:])))
        return CouplingLayer("additive" if code == 1 else "affine",
                             idx_cond, idx_out, Mlp(widths), ctx)
    if code == 3:
        (d,) = r.unpack(_U32)
        r.holds(16 * d)
        return DiagonalAffine(np.ones(d))
    raise PersistError(f"unknown layer code {code}")


def save_checkpoint(model: FlowModel, path, kind: str) -> None:
    if kind not in _KIND_CODES:
        raise PersistError(f"unknown checkpoint kind {kind!r}")
    head = _CHECKPOINT_HEAD.pack(_KIND_CODES[kind], model.dim,
                                 model.context_width)
    head += _U32.pack(len(model.layers))
    head += b"".join(_layer_descriptor(layer) for layer in model.layers)
    vector = model.vector
    head += _U64.pack(vector.size)
    _write_file(path, CHECKPOINT_MAGIC, head, [vector])


def load_checkpoint(path, expected_kind: str | None = None) -> FlowModel:
    with _open_file(path, CHECKPOINT_MAGIC, "a checkpoint") as r:
        kind_code, dim, context_width = r.unpack(_CHECKPOINT_HEAD)
        kind = _KIND_NAMES.get(kind_code)
        if kind is None:
            raise PersistError(f"{path}: unknown model kind code {kind_code}")
        if expected_kind is not None and kind != expected_kind:
            raise KindMismatch(f"{path}: checkpoint kind {kind!r}, expected "
                               f"{expected_kind!r}")
        (n_layers,) = r.unpack(_U32)
        # layers check the partition or permutation they are handed, and a
        # diagonal layer its scale (caching its log-determinant), so a bad
        # descriptor or stored scale fails here
        try:
            layers = [_read_layer(r) for _ in range(n_layers)]
            (count,) = r.unpack(_U64)
            expected = sum(a.size for layer in layers
                           for a in layer.state_arrays())
            if count != expected:
                raise PersistError(f"{path}: descriptor implies {expected} "
                                   f"parameters, blob declares {count}")
            return FlowModel(dim, layers, context_width, r.payload(count))
        except FlowError as e:
            raise PersistError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# array and image files
# ---------------------------------------------------------------------------

def save_array(path, arr) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise PersistError("array files hold 2-d data")
    _write_file(path, ARRAY_MAGIC, _ARRAY_HEAD.pack(*arr.shape), [arr])


def load_array(path) -> np.ndarray:
    with _open_file(path, ARRAY_MAGIC, "an array file") as r:
        rows, cols = r.unpack(_ARRAY_HEAD)
        return r.payload(rows * cols).reshape(rows, cols)


@dataclass
class Dataset:
    """Toy training data: flattened samples plus the image shape when the
    rows are images (values in [0, 1], channel-last)."""

    kind: str
    samples: np.ndarray
    image_shape: tuple[int, int, int] | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if not np.all(np.isfinite(self.samples)):
            raise PersistError("dataset contains non-finite values")
        if self.image_shape is not None:
            h, w, c = self.image_shape
            if self.samples.ndim != 2 or self.samples.shape[1] != h * w * c:
                raise PersistError("sample width does not match image shape")
            if self.samples.size and (self.samples.min() < 0.0
                                      or self.samples.max() > 1.0):
                raise PersistError("image values must lie in [0, 1]")

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


def save_image_dataset(path, dataset: Dataset) -> None:
    if dataset.image_shape is None:
        raise PersistError("dataset has no image shape")
    head = _IMAGE_HEAD.pack(*dataset.image_shape, dataset.samples.shape[0])
    _write_file(path, IMAGE_MAGIC, head, [dataset.samples])


def load_image_dataset(path) -> Dataset:
    with _open_file(path, IMAGE_MAGIC, "an image dataset") as r:
        h, w, c, count = r.unpack(_IMAGE_HEAD)
        samples = r.payload(h * w * c * count).reshape(count, h * w * c)
    return Dataset(kind="image-grid", samples=samples, image_shape=(h, w, c))


def convert_npy_images(npy_paths, out_path) -> Dataset:
    """Pack .npy images (h, w) or (h, w, c), values in [0, 1], into a
    dataset file."""
    arrays = [np.load(p) for p in npy_paths]
    if not arrays:
        raise PersistError("no input images")
    shaped = []
    for a in arrays:
        a = np.asarray(a, dtype=np.float64)
        if a.ndim not in (2, 3):
            raise PersistError(f"images must be 2-d or 3-d, got shape {a.shape}")
        shaped.append(a[:, :, None] if a.ndim == 2 else a)
    if any(a.shape != shaped[0].shape for a in shaped):
        raise PersistError("images must share a shape")
    h, w, c = shaped[0].shape
    samples = np.stack([a.reshape(h * w * c) for a in shaped])
    ds = Dataset(kind="image-grid", samples=samples, image_shape=(h, w, c))
    save_image_dataset(out_path, ds)
    return ds


# ---------------------------------------------------------------------------
# synthetic datasets
# ---------------------------------------------------------------------------

_MIXTURE_CENTERS = np.array([[2.0, 2.0], [2.0, -2.0], [-2.0, 2.0], [-2.0, -2.0]])
_BOARD_CELLS = [(i, j) for i in range(4) for j in range(4) if (i + j) % 2 == 0]


def synth_dataset(kind: str, n: int, seed: int) -> Dataset:
    """Deterministic 2-d toy distributions.

    two-moons: two radius-1 half-circles (the second flipped and shifted to
    interlock) with N(0, 0.05^2) noise.  gaussian-mixture: four equal
    components at (+-2, +-2) with covariance 0.25 I.  checkerboard: uniform
    on the 8 alternating unit cells of [-2, 2]^2.
    """
    rng = np.random.default_rng(seed)
    if kind == "two-moons":
        n_outer = n // 2
        t_outer = rng.uniform(0.0, np.pi, n_outer)
        t_inner = rng.uniform(0.0, np.pi, n - n_outer)
        pts = np.concatenate([
            np.column_stack([np.cos(t_outer), np.sin(t_outer)]),
            np.column_stack([1.0 - np.cos(t_inner), 0.5 - np.sin(t_inner)]),
        ]) if n else np.zeros((0, 2))
        pts = pts + 0.05 * rng.standard_normal((n, 2))
    elif kind == "gaussian-mixture":
        comp = rng.integers(0, 4, size=n)
        pts = _MIXTURE_CENTERS[comp] + 0.5 * rng.standard_normal((n, 2))
    elif kind == "checkerboard":
        cell = rng.integers(0, len(_BOARD_CELLS), size=n)
        ij = np.array(_BOARD_CELLS, dtype=np.float64)[cell]
        pts = -2.0 + ij + rng.uniform(0.0, 1.0, size=(n, 2))
    else:
        raise PersistError(f"unknown synthetic dataset kind {kind!r}")
    return Dataset(kind=kind, samples=pts.reshape(n, 2))


# images rendered per block: bounds the temporaries of the broadcast exp
_BLOB_BLOCK = 256


def make_blob_images(n: int, height: int = 8, width: int = 8,
                     seed: int = 0) -> Dataset:
    """Smooth toy images: one or two Gaussian bumps on a dark background.

    Per image the generator draws the bump count k, then 4k uniforms: the
    centre row and column, the radius and the amplitude of each bump.
    """
    rng = np.random.default_rng(seed)
    counts = np.empty(n, dtype=np.intp)
    draws = np.zeros((n, 2, 4))
    for i in range(n):
        counts[i] = k = rng.integers(1, 3)
        rng.random(out=draws[i, :k])
    # a scalar uniform(lo, hi) is lo + (hi - lo) * random(), bit for bit
    lo = np.array([1.0, 1.0, 1.0, 0.5])
    span = np.array([height - 2.0, width - 2.0, 2.5, 0.9]) - lo
    yy, xx = np.mgrid[0:height, 0:width]
    samples = np.empty((n, height * width))
    for start in range(0, n, _BLOB_BLOCK):
        rows = slice(start, start + _BLOB_BLOCK)
        bumps = lo + span * draws[rows]
        # (0.05 + first bump) + second bump, then the clip
        img = _render_bumps(bumps[:, 0], yy, xx)
        img += 0.05
        two = counts[rows] == 2
        img[two] += _render_bumps(bumps[two, 1], yy, xx)
        np.clip(img, 0.0, 1.0, out=img)
        samples[rows] = img.reshape(len(img), -1)
    return Dataset(kind="blobs", samples=samples, image_shape=(height, width, 1))


def _render_bumps(bumps, yy, xx):
    """amp * exp(-((yy - cy)^2 + (xx - cx)^2) / (2 rad^2)) for each row
    (cy, cx, rad, amp) of ``bumps``, as an (n, height, width) array."""
    cy, cx, rad, amp = (c[:, None, None] for c in bumps.T)
    out = np.square(yy - cy)
    out += np.square(xx - cx)
    np.negative(out, out=out)
    out /= 2 * rad * rad
    np.exp(out, out=out)
    out *= amp
    return out


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Key:
    """One run-config key.  ``type`` names how its text parses, or lists the
    values it may take; ``default`` is config text, and a key without one is
    required where a command reads it.  A key that feeds a library argument
    names it in ``arg``; commands pass the argument only when the key is
    set, so the library's default and check are the only ones.  ``least``
    is the bound the CLI checks, where no library checks the value."""

    type: str | tuple[str, ...]
    default: str | None = None
    least: int | None = None
    arg: str | None = None


def _items(parse):
    return lambda raw: [parse(tok) for tok in raw.split(",") if tok.strip()]


# the parser of each type's text
_TYPES = {"int": int, "float": float, "ints": _items(int),
          "floats": _items(float), "str": str, "path": str,
          "float|none": lambda raw: None if raw.lower() == "none" else float(raw)}

# every key a run file may set; README's "Config keys" list documents each
KEYS = {
    ("run", "output_dir"): Key("str"),
    ("run", "seed"): Key("int", "0"),
    # accepted and never read; perfbench/plan.py and checks.py still write it
    ("run", "task"): Key("str"),
    ("data", "kind"): Key(("two-moons", "gaussian-mixture", "checkerboard",
                           "blobs", "image-grid"), "gaussian-mixture"),
    ("data", "n"): Key("int", "4000", least=1),
    ("data", "seed"): Key("int"),           # default: the run seed
    ("data", "height"): Key("int", arg="height"),
    ("data", "width"): Key("int", arg="width"),
    ("data", "path"): Key("path"),
    ("model", "num_layers"): Key("int", least=1, arg="num_layers"),
    ("model", "hidden_width"): Key("int", least=1, arg="hidden_width"),
    ("model", "hidden_layers"): Key("int", least=0, arg="hidden_layers"),
    ("model", "kind"): Key(("additive", "affine"), arg="kind"),
    ("model", "base_checkpoint"): Key("path"),
    ("model", "conditional_checkpoint"): Key("path"),
    ("measure", "kind"): Key(("mask", "gaussian", "downsample2x",
                              "grayscale")),
    ("measure", "indices"): Key("ints", arg="indices"),
    ("measure", "mask_path"): Key("path", arg="indices"),
    ("measure", "m"): Key("int", arg="m"),
    ("measure", "gauss_seed"): Key("int", "1"),
    ("observe", "source"): Key(("synthetic", "file"), "synthetic"),
    ("observe", "index"): Key("int", "0", least=0),
    ("observe", "seed"): Key("int"),        # default: the run seed + 1000
    ("observe", "noise_sigma"): Key("float", least=0, arg="noise_sigma"),
    ("observe", "y_path"): Key("path"),
    ("observe", "gt_path"): Key("path"),
    ("train", "learning_rate"): Key("float", arg="learning_rate"),
    ("train", "num_steps"): Key("int", arg="num_steps"),
    ("train", "batch_size"): Key("int", arg="batch_size"),
    ("train", "sigma"): Key("float", arg="sigma"),
    ("train", "gradient_clip_norm"): Key("float|none",
                                         arg="gradient_clip_norm"),
    ("lmc", "step_size"): Key("float", arg="step_size"),
    ("lmc", "chain_length"): Key("int", arg="chain_length"),
    ("lmc", "burn_in"): Key("int", arg="burn_in"),
    ("lmc", "thinning"): Key("int", arg="thinning"),
    ("lmc", "n_chains"): Key("int", arg="n_chains"),
    ("point", "lr"): Key("float", arg="lr"),
    ("point", "steps"): Key("int", arg="steps"),
    ("point", "lambda"): Key("float", arg="lam"),
    ("point", "restarts"): Key("int", arg="restarts"),
    ("sample", "n"): Key("int", "1000", least=1),
    ("sweep", "sigmas"): Key("floats", "1,0.1,0.01,1e-3,1e-4", arg="sigma"),
    ("sweep", "eval_samples"): Key("int", "2000", least=1),
    ("eval", "samples_path"): Key("path"),
    ("eval", "gt_path"): Key("path"),
    ("eval", "y_path"): Key("path"),
    ("eval", "marginals"): Key("ints", ""),
    ("sat", "cnf_path"): Key("path", arg="formula"),
    ("sat", "eps"): Key("float", arg="eps"),
    ("sat", "tau"): Key("float", arg="tau"),
    ("sat", "m_scale"): Key("float", arg="big_m"),
    ("sat", "budget"): Key("int", least=1, arg="sampler_budget"),
}


class RunConfig:
    """Typed reads of a flat sections-of-key=value run file, each key
    parsed and checked as :data:`KEYS` declares it."""

    def __init__(self, parser: configparser.ConfigParser, path: str,
                 overrides: tuple[str, ...] = ()):
        self._cp = parser
        self.path = path
        self.overrides = overrides
        self.output_dir = self.read("run", "output_dir")
        self.seed = self.read("run", "seed")

    def has(self, section: str, key: str) -> bool:
        """Whether the file sets ``section.key``, a key the table lists."""
        if (section, key) not in KEYS:
            raise KeyError(f"{section}.{key} is not in the config table")
        return self._cp.has_option(section, key)

    def read(self, section: str, key: str):
        """``section.key`` parsed as its type (its default when unset),
        within the bound the table gives it."""
        name, spec = f"{section}.{key}", KEYS[section, key]
        if self._cp.has_option(section, key):
            raw = self._cp.get(section, key).strip()
        elif spec.default is None:
            raise ConfigError(name, "is required")
        else:
            raw = spec.default
        if isinstance(spec.type, tuple):
            if raw not in spec.type:
                raise ConfigError(name, f"expected one of "
                                  f"{' | '.join(spec.type)}, got {raw!r}")
            return raw
        try:
            value = _TYPES[spec.type](raw)
        except ValueError:
            raise ConfigError(name, f"expected {spec.type}, got {raw!r}") from None
        if spec.least is not None and not spec.least <= value < np.inf:
            finite = "" if spec.type == "int" else "a finite number "
            raise ConfigError(name, f"must be {finite}>= {spec.least}")
        return value

    def args(self, section: str, *keys: str) -> dict:
        """The library arguments that ``keys`` of ``section`` feed (all of
        its keys that feed one, when none are named), for the keys set."""
        keys = keys or [k for s, k in KEYS if s == section and KEYS[s, k].arg]
        return {KEYS[section, k].arg: self.read(section, k)
                for k in keys if self.has(section, k)}

    def canonical_text(self) -> str:
        buf = io.StringIO()
        self._cp.write(buf)
        if self.overrides:
            buf.write("\n# overrides\n")
            for ov in self.overrides:
                buf.write(f"# {ov}\n")
        return buf.getvalue()

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()


def load_run_config(path, overrides=()) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as f:
            parser.read_file(f)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}")
    except configparser.Error as e:
        raise ConfigError("config", f"parse failure: {e}")
    for ov in overrides:
        target, eq, value = ov.partition("=")
        section, _, key = target.partition(".")
        section, key = section.strip(), key.strip()
        if not (eq and section and key) or section == parser.default_section:
            raise ConfigError("override", f"expected section.key=value, got {ov!r}")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value.strip())
    # a misspelled key would run with its default; a key is left out, not
    # left empty, to take its default; referenced paths must exist up front
    for section in parser.sections():
        for key, raw in parser.items(section):
            name, raw = f"{section}.{key}", raw.strip()
            if (section, key) not in KEYS:
                raise ConfigError(name, "unknown key")
            if not raw:
                raise ConfigError(name, "empty value (leave the key out to "
                                  "take its default)")
            if KEYS[section, key].type == "path" and not os.path.exists(raw):
                raise ConfigError(name, f"path does not exist: {raw}")
    cfg = RunConfig(parser, str(path), tuple(overrides))
    # every command's config is checked for the smoothing width it may use
    try:
        TrainConfig(**cfg.args("train", "sigma"))
    except TrainingError as e:
        raise ConfigError("train.sigma", str(e)) from None
    return cfg


# ---------------------------------------------------------------------------
# manifests and the output lock
# ---------------------------------------------------------------------------

def write_manifest(output_dir, cfg: RunConfig, command: str) -> Path:
    path = Path(output_dir) / "manifest.txt"
    lines = [
        f"command={command}",
        f"config={cfg.path}",
        f"config_sha256={cfg.config_hash()}",
        f"seed={cfg.seed}",
        f"flowcond_version={__version__}",
        f"numpy_version={np.__version__}",
    ]
    for ov in cfg.overrides:
        lines.append(f"override={ov}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _lock_is_stale(lock: Path) -> bool:
    """Whether ``lock`` names a process that no longer exists.  A lock that
    cannot be read, or whose process belongs to another user, is held."""
    try:
        pid = int(lock.read_text(encoding="ascii"))
    except (OSError, ValueError):
        return False
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (PermissionError, OverflowError):
        return False
    return False


@contextlib.contextmanager
def output_lock(output_dir):
    """Guard an output directory against concurrent runs.  The lock file
    holds the pid of its run; a lock whose process is gone is removed and
    taken once more."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    lock = out / ".lock"
    busy = LockError(f"output directory {out} is locked by another run "
                     f"(remove {lock} if stale)")
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        if not _lock_is_stale(lock):
            raise busy from None
        with contextlib.suppress(FileNotFoundError):
            lock.unlink()
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise busy from None
    try:
        os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        os.close(fd)
        yield out
    finally:
        with contextlib.suppress(FileNotFoundError):
            lock.unlink()
