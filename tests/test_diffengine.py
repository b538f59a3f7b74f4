"""Tests for the reverse-mode tape: forward values, adjoints against
analytic and central-difference oracles, and the structural guarantees
(determinism, linearity, zero adjoints for unreachable nodes)."""

import numpy as np
import pytest

from flowcond import diffengine as de


def scalar(node):
    return float(node.value)


class TestForwardValues:
    def test_relu_definition(self):
        g = de.Graph()
        out = g.leaf([-1.0, 0.0, 2.0]).relu()
        np.testing.assert_array_equal(out.value, [0.0, 0.0, 2.0])

    def test_matmul_identity(self):
        g = de.Graph()
        v = np.arange(3.0).reshape(1, 3)
        out = de.matmul(g.leaf(v), g.constant(np.eye(3)))
        np.testing.assert_array_equal(out.value, v)

    def test_sum_tanh_odd_symmetry(self):
        g = de.Graph()
        assert scalar(g.leaf([0.5, -0.5]).tanh().sum()) == 0.0

    def test_take_selects_index_set(self):
        g = de.Graph()
        out = de.take(g.leaf([5.0, 7.0, 9.0]), [0, 2])
        np.testing.assert_array_equal(out.value, [5.0, 9.0])

    def test_mean_axis(self):
        g = de.Graph()
        out = g.leaf([[1.0, 3.0], [2.0, 4.0]]).mean(axis=0)
        np.testing.assert_array_equal(out.value, [1.5, 3.5])


class TestErrors:
    def test_shape_mismatch_names_op_and_shapes(self):
        g = de.Graph()
        with pytest.raises(de.ShapeMismatch, match=r"add.*\(2,\).*\(3,\)"):
            g.leaf([1.0, 2.0]) + g.leaf([1.0, 2.0, 3.0])

    def test_matmul_shape_mismatch(self):
        g = de.Graph()
        with pytest.raises(de.ShapeMismatch, match="matmul"):
            de.matmul(g.leaf(np.ones((2, 3))), g.leaf(np.ones((2, 3))))

    def test_backward_requires_scalar(self):
        g = de.Graph()
        x = g.leaf([1.0, 2.0])
        with pytest.raises(de.ShapeMismatch):
            de.backward(g, x)

    def test_cross_graph_rejected(self):
        a = de.Graph().leaf([1.0])
        b = de.Graph().leaf([1.0])
        with pytest.raises(ValueError, match="different graphs"):
            a + b


class TestBackward:
    def test_square_derivative(self):
        g = de.Graph()
        x = g.leaf(3.0)
        grads = de.backward(g, x.square())
        assert float(grads[x]) == 6.0

    def test_relu_adjoint_at_zero_is_zero(self):
        g = de.Graph()
        x = g.leaf([0.0, -1.0, 2.0])
        grads = de.backward(g, x.relu().sum())
        np.testing.assert_array_equal(grads[x], [0.0, 0.0, 1.0])

    def test_loss_adjoint_is_one_and_unreachable_zero(self):
        g = de.Graph()
        x = g.leaf([1.0, 2.0])
        unused = g.leaf([4.0])
        loss = x.square().sum()
        de.backward(g, loss)
        assert float(g.adjoints[loss.index]) == 1.0
        np.testing.assert_array_equal(g.adjoints[unused.index], [0.0])

    def test_take_adjoint_scatter_adds_repeats(self):
        g = de.Graph()
        x = g.leaf([1.0, 2.0, 3.0])
        grads = de.backward(g, de.take(x, [0, 0, 2]).sum())
        np.testing.assert_array_equal(grads[x], [2.0, 0.0, 1.0])

    @pytest.mark.parametrize("d", [2, 5, 64])
    def test_take_distinct_adjoints_match_scatter_add(self, d):
        # the adjoints of gathers over distinct indices (a permutation, a
        # coupling partition) have the bytes of the scatter-add into zeros,
        # -0.0 in the incoming adjoint included
        gathers = {
            "permutation": np.random.default_rng(d).permutation(d),
            "partition": np.arange(0, d, 2),
            "partition-odd": np.arange(1, d, 2),
        }
        rng = np.random.default_rng(d + 1)
        for name, idx in gathers.items():
            x = de.Graph().leaf(rng.standard_normal((7, d)))
            g = rng.standard_normal((7, len(idx)))
            g[::2, 0] = -0.0
            (adjoint,) = de.take(x, idx, axis=1, distinct=True).vjp(g)
            reference = np.zeros((7, d))
            np.add.at(reference, (slice(None), idx), g)
            assert adjoint.shape == reference.shape, name
            assert adjoint.tobytes() == reference.tobytes(), name

    def test_view_leaf_holds_the_array_read_only(self):
        arr = np.arange(4.0)
        g = de.Graph()
        leaf = g.view(arr)
        assert leaf.is_param and leaf.value.base is arr
        assert not leaf.value.flags.writeable and arr.flags.writeable
        arr += 1.0      # the owner still updates it, and the leaf sees it
        np.testing.assert_array_equal(leaf.value, [1.0, 2.0, 3.0, 4.0])
        grads = de.backward(g, leaf.square().sum())
        np.testing.assert_array_equal(grads[leaf], 2.0 * arr)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        point = rng.standard_normal(5)

        def losses(x):
            l1 = x.tanh().sum()
            l2 = x.square().mean()
            return l1, l2

        g = de.Graph()
        x = g.leaf(point)
        l1, _ = losses(x)
        g1 = de.backward(g, l1)[x]
        g = de.Graph()
        x = g.leaf(point)
        _, l2 = losses(x)
        g2 = de.backward(g, l2)[x]
        a, b = 0.7, -1.3
        g = de.Graph()
        x = g.leaf(point)
        l1, l2 = losses(x)
        combo = de.backward(g, a * l1 + b * l2)[x]
        np.testing.assert_allclose(combo, a * g1 + b * g2, atol=1e-12)

    def test_replay_bit_identical(self):
        rng = np.random.default_rng(1)
        point = rng.standard_normal((3, 4))

        def run():
            g = de.Graph()
            x = g.leaf(point)
            w = g.leaf(rng2.standard_normal((4, 2)))
            loss = de.matmul(x, w).tanh().square().sum()
            return loss.value.copy(), de.backward(g, loss)[x].copy()

        rng2 = np.random.default_rng(2)
        v1, g1 = run()
        rng2 = np.random.default_rng(2)
        v2, g2 = run()
        assert v1 == v2
        np.testing.assert_array_equal(g1, g2)


class TestGradientChecks:
    """Every registered op against central differences (step 1e-5),
    evaluated away from non-differentiable points."""

    def test_all_ops(self):
        rng = np.random.default_rng(3)
        point = rng.standard_normal((3, 4)) + 0.1
        w = rng.standard_normal((4, 3))

        cases = {
            "add": lambda x: (x + x.graph.constant(point)).sum(),
            "subtract": lambda x: (x - x.graph.constant(0.5 * point)).square().sum(),
            "multiply": lambda x: (x * x.graph.constant(point + 1.0)).sum(),
            "scalar_multiply": lambda x: (2.5 * x).square().sum(),
            "matmul": lambda x: de.matmul(x, x.graph.constant(w)).square().sum(),
            "sum_axis": lambda x: x.sum(axis=1).square().sum(),
            "mean": lambda x: x.mean(),
            "mean_axis": lambda x: x.mean(axis=0).square().sum(),
            "exp": lambda x: x.exp().sum(),
            "tanh": lambda x: x.tanh().sum(),
            "relu": lambda x: x.relu().sum(),
            "square": lambda x: x.square().sum(),
            "concat": lambda x: de.concat([x, x.square()], axis=1).tanh().sum(),
            "take": lambda x: de.take(x, [2, 0], axis=1).square().sum(),
        }
        for name, fn in cases.items():
            err = de.check_gradients(fn, point, step=1e-5)
            assert err < 1e-4, f"{name}: rel error {err}"

    def test_two_layer_tanh_network(self):
        rng = np.random.default_rng(4)
        w1 = rng.standard_normal((5, 8))
        w2 = rng.standard_normal((8, 1))

        def net(x):
            g = x.graph
            h = de.matmul(x, g.constant(w1)).tanh()
            return de.matmul(h, g.constant(w2)).sum()

        err = de.check_gradients(net, rng.standard_normal((2, 5)), step=1e-5)
        assert err < 1e-4

    def test_quadratic_form_tight(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        q = a + a.T

        def form(x):
            g = x.graph
            return (de.matmul(de.matmul(x, g.constant(q)), x.graph.constant(np.eye(4))) * x).sum()

        point = rng.standard_normal((1, 4))
        err = de.check_gradients(form, point, step=1e-5)
        assert err < 1e-7
        # closed-form oracle: grad of x Q x^T is x (Q + Q^T)
        g = de.Graph()
        x = g.leaf(point)
        loss = (de.matmul(x, g.constant(q)) * x).sum()
        analytic = de.backward(g, loss)[x]
        np.testing.assert_allclose(analytic, point @ (q + q.T), atol=1e-12)

    def test_constant_function_zero_error(self):
        err = de.check_gradients(lambda x: x.graph.constant(3.0) * 1.0,
                                 np.zeros(3))
        assert err == 0.0

    def test_relu_chain_away_from_kinks(self):
        rng = np.random.default_rng(6)
        point = rng.standard_normal(6)
        point[np.abs(point) < 0.01] = 0.5  # stay off the kink by >> step

        def chain(x):
            return (2.0 * x.relu() + x.graph.constant(np.ones(6))).relu().sum()

        assert de.check_gradients(chain, point, step=1e-5) < 1e-4

    def test_nonfinite_function_value_raises(self):
        with pytest.raises(de.DomainError):
            de.check_gradients(lambda x: (1000.0 * x.square().sum()).exp(),
                               np.full(2, 50.0))
