"""The fused tape ops and plain-numpy passes of the flows, held to the
per-op reference path in ``tests/flow_reference.py``: adjoints against
central differences, values and adjoints bit for bit against the
reference, and every driver's trace rows, parameters and outputs unchanged
when the reference tape path, or the per-array optimizer, is swapped in."""

import copy

import numpy as np
import pytest

from flowcond import diffengine as de
from flowcond import training
from flowcond.baselines import (LmcConfig, csgm_estimate, ivom_estimate,
                                lmc_sample)
from flowcond.flows import (ComposedSampler, CouplingLayer, DiagonalAffine,
                            FlowModel, Mlp, ParamBinder, gaussian_logpdf)
from flowcond.measurement import GaussianOp, MaskOp, Observation
from flowcond.objective import SmoothingSpec
from flowcond.training import (TrainConfig, observation_context,
                               train_ambient_vi, train_amortized,
                               train_base_mle, train_svi)
from tests import flow_reference as ref
from tests.test_flows import perturbed_flow

KINDS = ["additive", "affine"]
DIRECTIONS = pytest.mark.parametrize("inverse", [False, True],
                                     ids=["forward", "inverse"])


def coupling(kind, context_width=0, seed=0):
    """A coupling layer on R^5 with an uneven split and random weights."""
    rng = np.random.default_rng(seed)
    out = 3 if kind == "additive" else 6
    mlp = Mlp([2 + context_width, 8, 8, out], rng)
    for p in mlp.parameters():
        p += 0.4 * rng.standard_normal(p.shape)
    return CouplingLayer(kind, [0, 3], [1, 2, 4], mlp, context_width)


def scalar(layer, inverse, bind, x, context):
    """A scalar that reads every output and the log-det nonlinearly."""
    g = x.graph
    y, ld = (layer.inverse_node if inverse else layer.forward_node)(bind, x, context)
    w = np.random.default_rng(1).standard_normal(y.value.shape)
    out = (y * g.constant(w)).sum() + (y.square() * g.constant(w)).sum()
    return out if ld is None else out + ld.square().sum()


POINT = np.random.default_rng(2).standard_normal((6, 5))
CONTEXT = np.random.default_rng(3).standard_normal((6, 3))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("context_width", [0, 3], ids=["plain", "context"])
@DIRECTIONS
class TestFusedGradients:
    def context(self, graph, context_width):
        return graph.constant(CONTEXT) if context_width else None

    @pytest.mark.parametrize("binder", [True, False], ids=["binder", "no-binder"])
    def test_input(self, kind, context_width, inverse, binder):
        layer = coupling(kind, context_width)

        def fn(x):
            bind = ParamBinder(x.graph) if binder else None
            return scalar(layer, inverse, bind, x, self.context(x.graph, context_width))

        assert de.check_gradients(fn, POINT) < 1e-6

    @pytest.mark.parametrize("which", [0, 2, 3, 5], ids=["w0", "w2", "b0", "b2"])
    def test_weights(self, kind, context_width, inverse, which):
        layer = coupling(kind, context_width)
        target = layer.parameters()[which]

        def fn(p):
            g = p.graph
            bind = lambda arr: p if arr is target else g.constant(arr)
            return scalar(layer, inverse, bind, g.constant(POINT),
                          self.context(g, context_width))

        assert de.check_gradients(fn, target) < 1e-6

    def test_no_binder_records_no_weights(self, kind, context_width, inverse):
        layer = coupling(kind, context_width)
        g = de.Graph()
        x = g.leaf(POINT)
        scalar(layer, inverse, None, x, self.context(g, context_width))
        assert [n for n in g.nodes if n.is_param] == [x]


@pytest.mark.parametrize("kind", KINDS)
@DIRECTIONS
def test_context_gradient(kind, inverse):
    layer = coupling(kind, context_width=3)
    err = de.check_gradients(
        lambda c: scalar(layer, inverse, None, c.graph.constant(POINT), c), CONTEXT)
    assert err < 1e-6


def stacked(kind, context_width):
    """make_flow's stack behind a diagonal affine layer."""
    flow = perturbed_flow(5, kind, seed=4, num_layers=3, hidden_width=8,
                          context_width=context_width)
    head = DiagonalAffine(np.linspace(0.5, 2.0, 5), np.linspace(-1.0, 1.0, 5))
    return FlowModel(5, [head] + flow.layers, context_width)


def tape_pass(flow, inverse, binder, context_width):
    """Values and every adjoint of one tape pass: input, context and weights."""
    g = de.Graph()
    bind = ParamBinder(g) if binder else None
    x = g.leaf(POINT)
    ctx = g.leaf(CONTEXT) if context_width else None
    y, ld = (flow.inverse_node if inverse else flow.forward_node)(bind, x, ctx)
    w = np.random.default_rng(5).standard_normal(y.value.shape)
    loss = (y.square() * g.constant(w)).sum() + (ld * ld).sum()
    grads = de.backward(g, loss)
    out = [y.value, ld.value, g.adjoints[x.index]]
    if ctx is not None:
        out.append(g.adjoints[ctx.index])
    if binder:
        out += bind.gradients(grads, flow.parameters())
    return out


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("context_width", [0, 3], ids=["plain", "context"])
@DIRECTIONS
class TestBitIdentity:
    @pytest.mark.parametrize("binder", [True, False], ids=["binder", "no-binder"])
    def test_tape_pass_matches_reference(self, kind, context_width, inverse,
                                         binder, monkeypatch):
        flow = stacked(kind, context_width)
        fused = tape_pass(flow, inverse, binder, context_width)
        ref.use_reference(monkeypatch)
        reference = tape_pass(flow, inverse, binder, context_width)
        assert len(fused) == len(reference)
        for a, b in zip(fused, reference):
            np.testing.assert_array_equal(a, b)

    def test_array_pass_matches_reference(self, kind, context_width, inverse,
                                          monkeypatch):
        flow = stacked(kind, context_width)
        ctx = CONTEXT if context_width else None
        out, ld = (flow.inverse if inverse else flow.forward)(POINT, ctx)
        log_prob = flow.log_prob(POINT, ctx)
        ref.use_reference(monkeypatch)
        y, ld_ref = tape_pass(flow, inverse, False, context_width)[:2]
        np.testing.assert_array_equal(out, y)
        np.testing.assert_array_equal(ld, ld_ref)
        z, ld_inv = tape_pass(flow, True, False, context_width)[:2]
        np.testing.assert_array_equal(log_prob, gaussian_logpdf(z) + ld_inv)


# ---------------------------------------------------------------------------
# whole drivers, fused against reference
# ---------------------------------------------------------------------------

def run_drivers(monkeypatch, base_kind):
    """Trace rows, parameters and outputs of every driver on one base."""
    rows = []
    append = training.TrainTrace.append

    def record(self, *row):
        rows.append(row)
        append(self, *row)

    monkeypatch.setattr(training.TrainTrace, "append", record)
    base = perturbed_flow(3, base_kind, seed=6, num_layers=3, hidden_width=8)
    data = 1.5 * np.random.default_rng(7).standard_normal((200, 3))
    mask = MaskOp([0, 2], 3)
    problems = {
        "mask": Observation(y_star=np.array([0.7, -0.3]), op=mask),
        "gaussian": Observation(y_star=np.array([0.5, -1.0]), op=GaussianOp(8, 2, 3)),
    }
    cfg = TrainConfig(learning_rate=5e-3, num_steps=4, batch_size=16, sigma=0.2, seed=9)
    out = {}
    flow, _ = train_base_mle(copy.deepcopy(base), data, cfg)
    out["mle"] = (list(rows), flow.parameters())
    for name, obs in problems.items():
        rows.clear()
        pre, _ = train_svi(base, obs, cfg)
        out[f"svi-{name}"] = (list(rows), pre.parameters())
        rows.clear()
        q, _ = train_ambient_vi(base, obs, cfg)
        out[f"ambient-{name}"] = (list(rows), q.parameters())
        chain = lmc_sample(base, obs, SmoothingSpec(0.2),
                           LmcConfig(step_size=1e-3, chain_length=12, seed=10))[0]
        out[f"lmc-{name}"] = (chain.states, chain.log_targets)
        est = ivom_estimate(base, obs, lr=1e-2, steps=5, seed=11)
        out[f"ivom-{name}"] = (est.x_hat, est.objective)
        est = csgm_estimate(base, obs, lr=1e-2, steps=5, restarts=2, seed=11)
        out[f"csgm-{name}"] = (est.x_hat, est.restart_objectives)
    cond = perturbed_flow(3, "affine", seed=12, num_layers=2, hidden_width=8,
                          context_width=6)
    rows.clear()
    train_amortized(base, cond, lambda rng: Observation(
        y_star=rng.standard_normal(2), op=mask), cfg)
    cs = ComposedSampler(cond, base, observation_context(problems["mask"]))
    x, log_q = cs.sample_with_logq(30, np.random.default_rng(13))
    out["amortized"] = (list(rows), cond.parameters(), x, log_q, cs.log_prob(x))
    return out


def assert_same(a, b, where):
    if isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (u, v) in enumerate(zip(a, b)):
            assert_same(u, v, f"{where}[{i}]")
    else:
        np.testing.assert_array_equal(a, b, err_msg=where)


def assert_drivers_match(base_kind, swap, monkeypatch):
    with monkeypatch.context() as m:
        fused = run_drivers(m, base_kind)
    with monkeypatch.context() as m:
        swap(m)
        reference = run_drivers(m, base_kind)
    assert fused.keys() == reference.keys()
    for key in fused:
        assert_same(fused[key], reference[key], key)


@pytest.mark.parametrize("base_kind", KINDS)
def test_drivers_match_reference(base_kind, monkeypatch):
    assert_drivers_match(base_kind, ref.use_reference, monkeypatch)


@pytest.mark.parametrize("base_kind", KINDS)
def test_drivers_match_reference_optimizer(base_kind, monkeypatch):
    # the fits clip: their grad norms reach the thousands against the bound 100
    assert_drivers_match(base_kind, ref.use_reference_optimizer, monkeypatch)
