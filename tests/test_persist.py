"""Persistence tests: bit-exact checkpoint round-trips, corruption
detection, dataset generators, config parsing/validation, and the
output-directory lock."""

import os
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

import flowcond
from flowcond.flows import (CouplingLayer, DiagonalAffine, FlowModel,
                            Permutation)
from flowcond.persist import (ChecksumMismatch, ConfigError, Dataset,
                              KindMismatch, LockError, PersistError,
                              TruncatedFile, VersionMismatch, load_array,
                              load_checkpoint, load_image_dataset,
                              load_run_config, make_blob_images, output_lock,
                              save_array, save_checkpoint, save_image_dataset,
                              synth_dataset, write_manifest)
from tests.flow_reference import blob_images_reference
from tests.test_flows import perturbed_flow, reads_vector, takes_views


class TestCheckpoint:
    def test_roundtrip_preserves_log_prob_bitwise(self, tmp_path):
        model = perturbed_flow(4, "affine", seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, "base")
        loaded = load_checkpoint(path, "base")
        x = np.random.default_rng(1).standard_normal((100, 4))
        np.testing.assert_array_equal(loaded.log_prob(x), model.log_prob(x))

    def test_additive_and_diagonal_layers_roundtrip(self, tmp_path):
        extra = DiagonalAffine([0.5, 2.0, 1.5], [0.1, -0.2, 0.0])
        inner = perturbed_flow(3, "additive", seed=2)
        model = FlowModel(3, inner.layers + [extra])
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, "pregen")
        loaded = load_checkpoint(path, "pregen")
        z = np.random.default_rng(3).standard_normal((20, 3))
        np.testing.assert_array_equal(loaded.forward(z)[0], model.forward(z)[0])
        np.testing.assert_array_equal(loaded.forward(z)[1], model.forward(z)[1])

    def test_conditional_roundtrip(self, tmp_path):
        model = perturbed_flow(4, "affine", seed=4, context_width=8)
        path = tmp_path / "c.ckpt"
        save_checkpoint(model, path, "conditional")
        loaded = load_checkpoint(path, "conditional")
        assert loaded.context_width == 8
        assert takes_views(model) and takes_views(loaded)
        z = np.random.default_rng(5).standard_normal((6, 4))
        ctx = np.random.default_rng(6).standard_normal(8)
        np.testing.assert_array_equal(loaded.forward(z, context=ctx)[0],
                                      model.forward(z, context=ctx)[0])

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        path = tmp_path / "c.ckpt"
        save_checkpoint(perturbed_flow(4, "affine", seed=5, context_width=8),
                        path, "conditional")

        def refuse(*args, **kwargs):
            raise AssertionError("a load drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        load_checkpoint(path, "conditional")

    def test_loaded_arrays_are_views_of_one_vector(self, tmp_path):
        model = FlowModel(3, [DiagonalAffine([0.5, 2.0, 1.5])]
                          + perturbed_flow(3, "additive", seed=6).layers)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, "base")
        loaded = load_checkpoint(path, "base")
        assert reads_vector(loaded)
        np.testing.assert_array_equal(loaded.vector, model.vector)

    def test_corrupted_blob_byte_detected(self, tmp_path):
        model = perturbed_flow(3, "affine", seed=7)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, "base")
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumMismatch):
            load_checkpoint(path)

    def test_truncated_file_detected(self, tmp_path):
        model = perturbed_flow(3, "affine", seed=8)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, "base")
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(TruncatedFile):
            load_checkpoint(path)

    def test_version_mismatch_detected(self, tmp_path):
        model = perturbed_flow(3, "affine", seed=9)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, "base")
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatch):
            load_checkpoint(path)

    def test_kind_mismatch(self, tmp_path):
        model = perturbed_flow(3, "affine", seed=10)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, "base")
        with pytest.raises(KindMismatch):
            load_checkpoint(path, "pregen")

    def test_unknown_kind_code(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(perturbed_flow(3, "affine", seed=10), path, "base")
        raw = bytearray(path.read_bytes())
        raw[8] = 9                      # the u8 kind after magic and version
        path.write_bytes(bytes(raw))
        with pytest.raises(PersistError, match="kind code 9"):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(PersistError):
            load_checkpoint(path)


class TestArrayFiles:
    def test_roundtrip_bitwise(self, tmp_path):
        arr = np.random.default_rng(11).standard_normal((17, 5))
        path = tmp_path / "a.flwa"
        save_array(path, arr)
        np.testing.assert_array_equal(load_array(path), arr)

    def test_vector_promoted_to_row(self, tmp_path):
        path = tmp_path / "v.flwa"
        save_array(path, np.arange(4.0))
        out = load_array(path)
        assert out.shape == (1, 4)

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "a.flwa"
        save_array(path, np.ones((3, 3)))
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumMismatch):
            load_array(path)

    def test_load_holds_one_copy_of_the_blob(self, tmp_path):
        # the blob is read in place into the array it becomes: no whole-file
        # bytes object next to it, and no copy after the read
        path = tmp_path / "a.flwa"
        save_array(path, np.random.default_rng(13).standard_normal((2000, 64)))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            out = load_array(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.nbytes == size - 20        # magic, version, head, crc32
        assert peak <= 1.1 * size


def assert_plain_array(loaded, saved):
    """``loaded`` is a writable, aligned, C-contiguous float64 array with
    ``saved``'s bits."""
    assert loaded.dtype == np.float64
    assert loaded.flags.writeable and loaded.flags.aligned
    assert loaded.flags.c_contiguous
    assert loaded.tobytes() == np.asarray(saved, dtype=np.float64).tobytes()


class TestLoadedArrays:
    """Loaded blobs are ordinary arrays that callers may write to."""

    def test_array_file(self, tmp_path):
        arr = np.random.default_rng(14).standard_normal((7, 3))
        arr[0, 0] = -0.0
        save_array(tmp_path / "a.flwa", arr)
        assert_plain_array(load_array(tmp_path / "a.flwa"), arr)

    def test_empty_array_file(self, tmp_path):
        save_array(tmp_path / "a.flwa", np.zeros((0, 3)))
        out = load_array(tmp_path / "a.flwa")
        assert out.shape == (0, 3)
        assert_plain_array(out, np.zeros((0, 3)))

    def test_image_dataset(self, tmp_path):
        ds = make_blob_images(5, 4, 4, seed=15)
        save_image_dataset(tmp_path / "i.flwi", ds)
        assert_plain_array(load_image_dataset(tmp_path / "i.flwi").samples,
                           ds.samples)

    def test_checkpoint_vector(self, tmp_path):
        model = perturbed_flow(3, "affine", seed=16)
        save_checkpoint(model, tmp_path / "m.ckpt", "base")
        loaded = load_checkpoint(tmp_path / "m.ckpt", "base")
        assert_plain_array(loaded.vector, model.vector)


class TestImageDataset:
    def test_roundtrip(self, tmp_path):
        ds = make_blob_images(6, 8, 8, seed=12)
        path = tmp_path / "imgs.flwi"
        save_image_dataset(path, ds)
        loaded = load_image_dataset(path)
        assert loaded.image_shape == (8, 8, 1)
        np.testing.assert_array_equal(loaded.samples, ds.samples)

    def test_blob_values_in_unit_range(self):
        ds = make_blob_images(20, 8, 8, seed=13)
        assert ds.samples.min() >= 0.0 and ds.samples.max() <= 1.0
        assert ds.dim == 64

    @pytest.mark.parametrize("n, height, width, seed", [
        (4000, 8, 8, 5), (4000, 8, 8, 42), (50, 8, 8, 123), (6, 4, 4, 22),
        (20, 8, 8, 13), (1, 8, 8, 3), (0, 8, 8, 3)])
    def test_blobs_match_per_image_reference(self, n, height, width, seed):
        ds = make_blob_images(n, height, width, seed=seed)
        assert ds.samples.shape == (n, height * width)
        assert np.array_equal(ds.samples,
                              blob_images_reference(n, height, width, seed))

    def test_blob_rendering_peak_memory(self):
        # blocks of images keep the temporaries small: rendering all 4000
        # at once peaked at ~8.8 MB against the output's 2 MB
        tracemalloc.start()
        try:
            ds = make_blob_images(4000, 8, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ds.samples.nbytes + 2 ** 20, f"peak {peak} B"

    def test_image_shape_validated(self):
        with pytest.raises(PersistError):
            Dataset(kind="image-grid", samples=np.zeros((2, 5)),
                    image_shape=(2, 2, 1))

    def test_npy_converter(self, tmp_path):
        rng = np.random.default_rng(14)
        paths = []
        for i in range(3):
            p = tmp_path / f"img{i}.npy"
            np.save(p, rng.uniform(0, 1, (4, 4)))
            paths.append(p)
        from flowcond.persist import convert_npy_images
        out = tmp_path / "out.flwi"
        ds = convert_npy_images(paths, out)
        assert ds.samples.shape == (3, 16)
        assert load_image_dataset(out).image_shape == (4, 4, 1)

    @pytest.mark.parametrize("shapes", [[(4, 4), (5, 5)],
                                        [(4, 4, 1), (5, 5, 1)],
                                        [(4, 4), (4, 4, 2)],
                                        [(4,)], [(2, 2, 1, 1)]])
    def test_npy_converter_rejects_bad_shapes(self, tmp_path, shapes):
        from flowcond.persist import convert_npy_images
        paths = []
        for i, shape in enumerate(shapes):
            p = tmp_path / f"img{i}.npy"
            np.save(p, np.full(shape, 0.5))
            paths.append(p)
        out = tmp_path / "out.flwi"
        with pytest.raises(PersistError):
            convert_npy_images(paths, out)
        assert not out.exists()


# magic -> (write a small file of that format to a path, its loader)
FORMATS = {
    "FLWC": (lambda path: save_checkpoint(perturbed_flow(3, "affine", seed=30),
                                          path, "base"), load_checkpoint),
    "FLWA": (lambda path: save_array(path, np.arange(12.0).reshape(3, 4)),
             load_array),
    "FLWI": (lambda path: save_image_dataset(path, make_blob_images(2, 4, 4, seed=31)),
             load_image_dataset),
}


def huge_count(raw):
    """``raw`` with the first count of its head set to 2**32 - 1: an
    array file's rows and cols, an image dataset's image count, or the
    first index count of a checkpoint's first layer descriptor."""
    huge = struct.pack("<I", 2**32 - 1)
    magic = raw[:4]
    if magic == b"FLWA":                # head: rows, cols
        return raw[:8] + 2 * huge + raw[16:]
    if magic == b"FLWI":                # head: height, width, channels, count
        return raw[:20] + huge + raw[24:]
    # checkpoint head: u8 kind, u32 dim, u32 context, u32 n_layers, then
    # the first descriptor's u8 code and its first u32 count
    return raw[:22] + huge + raw[26:]


# name -> (edit of the file's bytes, error the loader raises, message)
CORRUPTIONS = {
    "wrong-magic": (lambda raw: b"NOPE" + raw[4:], PersistError, "not a"),
    "wrong-version": (lambda raw: raw[:4] + struct.pack("<I", 2) + raw[8:],
                      VersionMismatch, "format version 2, expected 1"),
    "truncated": (lambda raw: raw[:-1], TruncatedFile, "truncated"),
    # byte -12 lies in the last f64 of the blob, before the 4-byte crc32
    "flipped-payload-byte": (lambda raw: raw[:-12] + bytes([raw[-12] ^ 1]) + raw[-11:],
                             ChecksumMismatch, "checksum mismatch"),
    "bytes-after-checksum": (lambda raw: raw + b"\x00", PersistError,
                             "trailing bytes after checksum"),
    "huge-count": (huge_count, TruncatedFile, "truncated"),
}


class TestBinaryFrame:
    """Checkpoints, array files and image datasets share one frame:
    magic | u32 version | head | f64 blob | u32 crc32, ending at the crc."""

    @pytest.mark.parametrize("corruption", CORRUPTIONS)
    @pytest.mark.parametrize("magic", FORMATS)
    def test_corruption_rejected(self, tmp_path, magic, corruption):
        write, load = FORMATS[magic]
        edit, error, message = CORRUPTIONS[corruption]
        path = tmp_path / "f.bin"
        write(path)
        raw = path.read_bytes()
        assert raw[:4] == magic.encode("ascii")
        load(path)
        path.write_bytes(edit(raw))
        with pytest.raises(error, match=message):
            load(path)

    def test_array_file_layout(self, tmp_path):
        arr = np.array([[1.5, -2.0, 0.25], [3.0, 4.0, -0.5]])
        blob = struct.pack("<6d", 1.5, -2.0, 0.25, 3.0, 4.0, -0.5)
        expected = (b"FLWA" + struct.pack("<III", 1, 2, 3)    # version, rows, cols
                    + blob + struct.pack("<I", zlib.crc32(blob)))
        save_array(tmp_path / "a.flwa", arr)
        assert (tmp_path / "a.flwa").read_bytes() == expected

    def test_checkpoint_layout(self, tmp_path):
        model = FlowModel(2, [DiagonalAffine([0.5, 2.0], [0.1, -0.2])])
        blob = struct.pack("<4d", 0.5, 2.0, 0.1, -0.2)    # scale, then shift
        expected = (b"FLWC" + struct.pack("<I", 1)        # version
                    + struct.pack("<BII", 0, 2, 0)        # kind base, dim, context
                    + struct.pack("<I", 1)                # one layer:
                    + struct.pack("<BI", 3, 2)            # diagonal affine, d = 2
                    + struct.pack("<Q", 4)                # blob count
                    + blob + struct.pack("<I", zlib.crc32(blob)))
        save_checkpoint(model, tmp_path / "m.ckpt", "base")
        assert (tmp_path / "m.ckpt").read_bytes() == expected


    @pytest.mark.parametrize("scale", [(0.0, 2.0), (1e-13, 1.0),
                                       (float("nan"), 1.0), (1.0, float("inf"))])
    def test_diagonal_scale_checked_on_load(self, tmp_path, scale):
        # a hand-built file: the writer cannot produce such a layer
        blob = struct.pack("<4d", *scale, 0.0, 0.0)
        (tmp_path / "m.ckpt").write_bytes(
            b"FLWC" + struct.pack("<I", 1) + struct.pack("<BII", 0, 2, 0)
            + struct.pack("<I", 1) + struct.pack("<BI", 3, 2)
            + struct.pack("<Q", 4) + blob + struct.pack("<I", zlib.crc32(blob)))
        with pytest.raises(PersistError, match="diagonal scale"):
            load_checkpoint(tmp_path / "m.ckpt")

    @pytest.mark.parametrize("descriptor", [
        struct.pack("<BI", 3, 2**32 - 1),                 # diagonal, d
        struct.pack("<BIIIIII3I", 2, 1, 0, 1, 1, 0,       # coupling widths
                    3, 1, 2**31, 1)],
        ids=["diagonal", "coupling"])
    def test_huge_layer_is_truncated_before_it_is_built(self, tmp_path,
                                                        descriptor):
        # a hand-built file whose one layer needs more values than the
        # file holds: the placeholders are never allocated
        (tmp_path / "m.ckpt").write_bytes(
            b"FLWC" + struct.pack("<I", 1) + struct.pack("<BII", 0, 2, 0)
            + struct.pack("<I", 1) + descriptor
            + struct.pack("<Q", 0) + struct.pack("<I", zlib.crc32(b"")))
        with pytest.raises(TruncatedFile, match="truncated"):
            load_checkpoint(tmp_path / "m.ckpt")

    @pytest.mark.parametrize("perm", [(0, 0), (1, 2)])
    def test_permutation_checked_on_load(self, tmp_path, perm):
        # a hand-built file: a permutation layer's tape adjoint is the
        # gather by its inverse, which a repeated index would make wrong
        (tmp_path / "m.ckpt").write_bytes(
            b"FLWC" + struct.pack("<I", 1) + struct.pack("<BII", 0, 2, 0)
            + struct.pack("<I", 1) + struct.pack("<BI2I", 0, 2, *perm)
            + struct.pack("<Q", 0) + struct.pack("<I", zlib.crc32(b"")))
        with pytest.raises(PersistError, match="permutation"):
            load_checkpoint(tmp_path / "m.ckpt")


def framed_checkpoint(model, kind_code):
    """``model``'s checkpoint, framed here from the format's description:
    magic | version | head | blob of its layers' state arrays in
    descriptor order | crc32 of the blob."""
    def ints(values):
        return np.asarray(values, dtype="<u4").tobytes()

    head = struct.pack("<BIII", kind_code, model.dim, model.context_width,
                       len(model.layers))
    arrays = []
    for layer in model.layers:
        if isinstance(layer, Permutation):
            head += struct.pack("<BI", 0, len(layer.perm)) + ints(layer.perm)
        elif isinstance(layer, CouplingLayer):
            widths = layer.conditioner.widths
            head += (struct.pack("<BI", 1 if layer.kind == "additive" else 2,
                                 len(layer.idx_cond)) + ints(layer.idx_cond)
                     + struct.pack("<I", len(layer.idx_out)) + ints(layer.idx_out)
                     + struct.pack("<II", layer.context_width, len(widths))
                     + ints(widths))
        else:
            head += struct.pack("<BI", 3, len(layer.scale))
        arrays += layer.state_arrays()
    blob = b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays)
    head += struct.pack("<Q", len(blob) // 8)
    return (b"FLWC" + struct.pack("<I", 1) + head + blob
            + struct.pack("<I", zlib.crc32(blob)))


class TestCheckpointBytes:
    """A file framed independently of the writer, with coupling,
    permutation and diagonal layers."""

    def model(self):
        flow = perturbed_flow(3, "affine", seed=32, num_layers=2,
                              hidden_width=8, context_width=2)
        return FlowModel(3, [DiagonalAffine([0.5, 2.0, 1.5], [0.1, -0.2, 0.0])]
                         + flow.layers + [DiagonalAffine([1.5, 0.75, 1.0])], 2)

    def test_loads_and_saves_back_the_same_bytes(self, tmp_path):
        model = self.model()
        raw = framed_checkpoint(model, 2)
        (tmp_path / "m.ckpt").write_bytes(raw)
        loaded = load_checkpoint(tmp_path / "m.ckpt", "conditional")
        assert len(loaded.parameters()) == len(model.parameters())
        for a, b in zip(loaded.parameters(), model.parameters()):
            np.testing.assert_array_equal(a, b)
        save_checkpoint(loaded, tmp_path / "again.ckpt", "conditional")
        assert (tmp_path / "again.ckpt").read_bytes() == raw

    @pytest.mark.parametrize("corruption", ["truncated", "flipped-payload-byte",
                                            "bytes-after-checksum"])
    def test_corruption_rejected(self, tmp_path, corruption):
        edit, error, message = CORRUPTIONS[corruption]
        (tmp_path / "m.ckpt").write_bytes(edit(framed_checkpoint(self.model(), 2)))
        with pytest.raises(error, match=message):
            load_checkpoint(tmp_path / "m.ckpt")


class TestSyntheticDatasets:
    def test_deterministic(self):
        a = synth_dataset("two-moons", 100, seed=15)
        b = synth_dataset("two-moons", 100, seed=15)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_empty(self):
        assert synth_dataset("checkerboard", 0, seed=16).samples.shape == (0, 2)

    def test_mixture_symmetry(self):
        ds = synth_dataset("gaussian-mixture", 40_000, seed=17)
        spread = ds.samples.std()
        np.testing.assert_allclose(ds.samples.mean(axis=0), 0.0,
                                   atol=3 * spread / np.sqrt(40_000) + 0.05)
        # components sit at (+-2, +-2) with std 0.5
        near = np.min(np.linalg.norm(
            ds.samples[:, None, :] -
            np.array([[2, 2], [2, -2], [-2, 2], [-2, -2]])[None], axis=2), axis=1)
        assert np.quantile(near, 0.99) < 2.0

    def test_checkerboard_support(self):
        ds = synth_dataset("checkerboard", 5000, seed=18)
        s = ds.samples
        assert s.min() >= -2.0 and s.max() <= 2.0
        i = np.floor(s[:, 0] + 2.0).astype(int)
        j = np.floor(s[:, 1] + 2.0).astype(int)
        assert np.all((i + j) % 2 == 0)

    def test_two_moons_radius(self):
        ds = synth_dataset("two-moons", 2000, seed=19)
        upper = ds.samples[ds.samples[:, 1] > 0.6]
        radii = np.linalg.norm(upper, axis=1)
        assert abs(np.median(radii) - 1.0) < 0.1

    def test_unknown_kind(self):
        with pytest.raises(PersistError):
            synth_dataset("spiral", 10, seed=0)


CONFIG = """
[run]
output_dir = {out}
seed = 3

[data]
kind = gaussian-mixture
n = 100

[measure]
kind = mask
indices = 0

[train]
num_steps = 2
batch_size = 4
sigma = 0.1
"""


class TestRunConfig:
    def test_load_and_types(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(CONFIG.format(out=tmp_path / "out"))
        cfg = load_run_config(cfg_path)
        assert cfg.seed == 3
        assert cfg.read("train", "num_steps") == 2
        assert cfg.read("train", "sigma") == 0.1
        assert cfg.read("measure", "indices") == [0]

    def test_overrides(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(CONFIG.format(out=tmp_path / "out"))
        cfg = load_run_config(cfg_path, ("train.num_steps=9", "run.seed=4"))
        assert cfg.read("train", "num_steps") == 9
        assert cfg.seed == 4

    def test_read_of_a_key_outside_the_table_fails_loudly(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(CONFIG.format(out=tmp_path / "out"))
        cfg = load_run_config(cfg_path)
        for read in (cfg.read, cfg.has, cfg.args):
            with pytest.raises(KeyError):
                read("train", "sigmaa")

    def test_field_level_errors(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(CONFIG.format(out=tmp_path / "out")
                            .replace("seed = 3", "seed = nope"))
        with pytest.raises(ConfigError, match="run.seed"):
            load_run_config(cfg_path)

    def test_missing_path_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        text = CONFIG.format(out=tmp_path / "out") + \
            "\n[model]\nbase_checkpoint = /nonexistent/base.ckpt\n"
        cfg_path.write_text(text)
        with pytest.raises(ConfigError, match="base_checkpoint"):
            load_run_config(cfg_path)

    def test_bad_sigma_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(CONFIG.format(out=tmp_path / "out")
                            .replace("sigma = 0.1", "sigma = 0"))
        with pytest.raises(ConfigError, match="sigma"):
            load_run_config(cfg_path)

    def test_config_hash_stable(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(CONFIG.format(out=tmp_path / "out"))
        a = load_run_config(cfg_path).config_hash()
        b = load_run_config(cfg_path).config_hash()
        assert a == b

    def test_manifest_contents(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        out = tmp_path / "out"
        out.mkdir()
        cfg_path.write_text(CONFIG.format(out=out))
        cfg = load_run_config(cfg_path, ("train.num_steps=5",))
        path = write_manifest(out, cfg, "infer")
        text = path.read_text()
        assert "config_sha256=" in text
        assert "seed=3" in text
        assert "override=train.num_steps=5" in text
        assert "numpy_version=" in text

    def test_manifest_records_package_version(self, tmp_path):
        # from a source tree with nothing installed, as the suite runs
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(CONFIG.format(out=tmp_path))
        text = write_manifest(tmp_path, load_run_config(cfg_path), "infer").read_text()
        assert "flowcond_version=0.1.0\n" in text

    def test_package_version_is_pyproject_version(self):
        tomllib = pytest.importorskip("tomllib")     # Python 3.11 on
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as f:
            declared = tomllib.load(f)["project"]["version"]
        assert flowcond.__version__ == declared


class TestOutputLock:
    def test_exclusive(self, tmp_path):
        out = tmp_path / "out"
        with output_lock(out):
            assert (out / ".lock").exists()
            with pytest.raises(LockError):
                with output_lock(out):
                    pass
        assert not (out / ".lock").exists()

    def test_dead_pid_lock_is_reclaimed(self, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        out = tmp_path / "out"
        out.mkdir()
        (out / ".lock").write_text(f"{child.pid}\n")
        with output_lock(out):
            assert (out / ".lock").read_text() == f"{os.getpid()}\n"
        assert not (out / ".lock").exists()

    @pytest.mark.parametrize("content", [f"{os.getpid()}\n", "", "not a pid"],
                             ids=["live-pid", "empty", "garbage"])
    def test_held_or_unreadable_lock_is_kept(self, tmp_path, content):
        out = tmp_path / "out"
        out.mkdir()
        (out / ".lock").write_text(content)
        with pytest.raises(LockError):
            with output_lock(out):
                pass
        assert (out / ".lock").read_text() == content

    def test_released_on_error(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="boom"):
            with output_lock(out):
                raise RuntimeError("boom")
        assert not (out / ".lock").exists()
