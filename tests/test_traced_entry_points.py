"""Guard for the traced benchmark: ``perfbench/tracing.py`` reads its
per-layer spans from the flows' tape passes, the losses and the optimizer
step, which it wraps from outside the package.  A refactor that stops
calling one of these entry points leaves its layer without spans, and the
traced run then fails (``statistics.median([])``); one that removes or
renames one makes the tracer's install fail.  These tests look the entry
points up as the tracer does, wrap them the same way, and require that
SVI, MLE and Langevin steps reach each of them.  They also hold the tape
each step records to a size that does not grow with the flow's depth."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from flowcond import (baselines, cli, diffengine, estimators, flows,
                      measurement, objective, persist, satgadget, training)
from flowcond.baselines import LmcConfig, lmc_sample
from flowcond.measurement import GaussianOp, MaskOp, Observation
from flowcond.objective import SmoothingSpec
from flowcond.training import TrainConfig, train_base_mle, train_svi
from tests.test_flows import perturbed_flow

# entry points every training step calls: (module, class or None, attribute)
COMMON = [
    ("flows", "Mlp", "forward_node"),
    ("flows", "ParamBinder", "gradients"),
    ("diffengine", None, "backward"),
    ("training", None, "clip_gradients"),
    ("training", "AdamState", "update"),
]
SVI = COMMON + [
    ("flows", "CouplingLayer", "forward_node"),
    ("flows", "Permutation", "forward_node"),
    ("flows", "FlowModel", "forward_node"),
    ("objective", None, "svi_loss_nodes"),
]
MLE = COMMON + [
    ("flows", "CouplingLayer", "inverse_node"),
    ("flows", "Permutation", "inverse_node"),
    ("flows", "FlowModel", "inverse_node"),
]
# the Langevin loop's spans: baselines.lmc_step_ms divides by the
# backward calls, and lmc_self_ms subtracts these three children
LMC = [
    ("flows", "FlowModel", "forward_node"),
    ("diffengine", None, "backward"),
    ("training", None, "stream_rng"),
]
MODULES = {m.__name__.split(".")[-1]: m for m in
           (baselines, cli, diffengine, estimators, flows, measurement,
            objective, persist, satgadget, training)}


def tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrap_entry_points(monkeypatch, entries):
    """Replace each entry point with a wrapper that counts its calls, as the
    benchmark's tracer replaces it with one that records spans: a method
    in its class, a function in every module that holds it by name."""
    calls = dict.fromkeys(entries, 0)

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key in entries:
        mod, cls, attr = key
        if cls is not None:
            holder = getattr(MODULES[mod], cls)
            monkeypatch.setattr(holder, attr, counting(key, vars(holder)[attr]))
            continue
        original = getattr(MODULES[mod], attr)
        wrapper = counting(key, original)
        for module in MODULES.values():
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, wrapper)
    return calls


def config(steps=1):
    return TrainConfig(num_steps=steps, batch_size=8, seed=3)


def svi_problem(num_layers=3, op="mask"):
    base = perturbed_flow(3, "affine", seed=1, num_layers=num_layers,
                          hidden_width=8)
    measure = MaskOp([0], 3) if op == "mask" else GaussianOp(2, 1, 3)
    return base, Observation(y_star=np.array([0.5]), op=measure)


def test_svi_step_reaches_every_entry_point(monkeypatch):
    for op, cls in (("mask", "MaskOp"), ("gaussian", "_MatrixOp")):
        base, obs = svi_problem(op=op)
        with monkeypatch.context() as m:
            calls = wrap_entry_points(m, SVI + [("measurement", cls, "apply_node")])
            train_svi(base, obs, config(steps=2))
        assert [key for key, n in calls.items() if n == 0] == [], op
        # the tracer counts a loop's steps by its backward calls
        assert calls[("diffengine", None, "backward")] == 2, op


def test_mle_step_reaches_every_entry_point(monkeypatch):
    flow = perturbed_flow(3, "affine", seed=2, num_layers=3, hidden_width=8)
    data = np.random.default_rng(4).standard_normal((50, 3))
    calls = wrap_entry_points(monkeypatch, MLE)
    train_base_mle(flow, data, config(steps=2))
    assert [key for key, n in calls.items() if n == 0] == []
    assert calls[("diffengine", None, "backward")] == 2


def test_lmc_step_reaches_every_entry_point(monkeypatch):
    base, obs = svi_problem()
    calls = wrap_entry_points(monkeypatch, LMC)
    lmc_sample(base, obs, SmoothingSpec(0.5),
               LmcConfig(step_size=1e-3, chain_length=3, seed=5), n_chains=2)
    assert calls[("flows", "FlowModel", "forward_node")] == 3
    assert calls[("diffengine", None, "backward")] == 3
    assert calls[("training", None, "stream_rng")] >= 3


def test_benchmark_wraps_these_entry_points():
    tracer = tracing()
    for mod, cls, attr in set(SVI + MLE + LMC):
        if cls is None:
            assert (mod, attr) in tracer.FUNCTIONS
        else:
            assert (mod, cls, attr) in tracer.METHODS


def test_every_traced_entry_point_resolves():
    # Tracer.install() looks functions up with getattr on the module and
    # methods in the class's own __dict__, which raises KeyError on a
    # method that is missing or only inherited
    tracer = tracing()
    for mod, attr in tracer.FUNCTIONS:
        assert callable(getattr(MODULES[mod], attr)), (mod, attr)
    for mod, cls, attr in tracer.METHODS:
        assert callable(getattr(MODULES[mod], cls).__dict__[attr]), (mod, cls, attr)


# ---------------------------------------------------------------------------
# tape size per step
# ---------------------------------------------------------------------------

def nodes_per_step(monkeypatch, run):
    """The nodes on each step's tape when backward is called, as the
    benchmark's diffengine.nodes_per_*_step reads them."""
    counts = []
    backward = diffengine.backward

    def counting(graph, loss):
        counts.append(len(graph.nodes))
        return backward(graph, loss)

    with monkeypatch.context() as m:
        m.setattr(diffengine, "backward", counting)
        run()
    assert counts and len(set(counts)) == 1
    return counts[0]


@pytest.mark.parametrize("op", ["mask", "gaussian"])
def test_svi_tape_does_not_grow_with_depth(monkeypatch, op):
    sizes = []
    for layers in (3, 10):
        base, obs = svi_problem(layers, op)
        sizes.append(nodes_per_step(monkeypatch,
                                    lambda: train_svi(base, obs, config(steps=2))))
    assert sizes[0] == sizes[1]


def test_mle_tape_does_not_grow_with_depth(monkeypatch):
    data = np.random.default_rng(4).standard_normal((50, 3))
    sizes = []
    for layers in (3, 10):
        flow = perturbed_flow(3, "affine", seed=2, num_layers=layers,
                              hidden_width=8)
        sizes.append(nodes_per_step(
            monkeypatch, lambda: train_base_mle(flow, data, config(steps=2))))
    assert sizes[0] == sizes[1]


def test_lmc_tape_does_not_grow_with_depth(monkeypatch):
    sizes = []
    for layers in (3, 10):
        base, obs = svi_problem(layers)
        sizes.append(nodes_per_step(monkeypatch, lambda: lmc_sample(
            base, obs, SmoothingSpec(0.5),
            LmcConfig(step_size=1e-3, chain_length=3, seed=5))))
    assert sizes[0] == sizes[1]
