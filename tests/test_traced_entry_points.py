"""Guard for the traced benchmark: ``perfbench/tracing.py`` reads its
per-layer spans from the flows' tape passes and the optimizer step, which
it wraps from outside the package.  A refactor that stops calling one of
these entry points leaves its layer without spans, and the traced run
then fails (``statistics.median([])``).  These tests wrap the same entry
points the same way and require that one SVI step and one MLE step reach
each of them."""

import importlib.util
from pathlib import Path

import numpy as np

from flowcond import flows, training
from flowcond.measurement import MaskOp, Observation
from flowcond.training import TrainConfig, train_base_mle, train_svi
from tests.test_flows import perturbed_flow

# entry points every step calls: (module, class or None, attribute)
COMMON = [
    ("flows", "Mlp", "forward_node"),
    ("flows", "ParamBinder", "gradients"),
    ("training", None, "clip_gradients"),
    ("training", "AdamState", "update"),
]
SVI = COMMON + [
    ("flows", "CouplingLayer", "forward_node"),
    ("flows", "Permutation", "forward_node"),
    ("flows", "FlowModel", "forward_node"),
]
MLE = COMMON + [
    ("flows", "CouplingLayer", "inverse_node"),
    ("flows", "Permutation", "inverse_node"),
    ("flows", "FlowModel", "inverse_node"),
]
MODULES = {"flows": flows, "training": training}


def wrap_entry_points(monkeypatch, entries):
    """Replace each entry point with a wrapper that counts its calls, as the
    benchmark's tracer replaces it with one that records spans."""
    calls = dict.fromkeys(entries, 0)

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key in entries:
        mod, cls, attr = key
        holder = MODULES[mod] if cls is None else getattr(MODULES[mod], cls)
        original = vars(holder)[attr]
        monkeypatch.setattr(holder, attr, counting(key, original))
    return calls


def config():
    return TrainConfig(num_steps=1, batch_size=8, seed=3)


def test_svi_step_reaches_every_entry_point(monkeypatch):
    base = perturbed_flow(3, "affine", seed=1, num_layers=3, hidden_width=8)
    obs = Observation(y_star=np.array([0.5]), op=MaskOp([0], 3))
    calls = wrap_entry_points(monkeypatch, SVI)
    train_svi(base, obs, config())
    assert [key for key, n in calls.items() if n == 0] == []


def test_mle_step_reaches_every_entry_point(monkeypatch):
    flow = perturbed_flow(3, "affine", seed=2, num_layers=3, hidden_width=8)
    data = np.random.default_rng(4).standard_normal((50, 3))
    calls = wrap_entry_points(monkeypatch, MLE)
    train_base_mle(flow, data, config())
    assert [key for key, n in calls.items() if n == 0] == []


def test_benchmark_wraps_these_entry_points():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod, cls, attr in set(SVI + MLE):
        if cls is None:
            assert (mod, attr) in tracing.FUNCTIONS
        else:
            assert (mod, cls, attr) in tracing.METHODS
