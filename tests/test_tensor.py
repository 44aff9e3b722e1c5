"""Autodiff core: graph mechanics, broadcasting, diagnostics."""

import numpy as np
import pytest

from stdac.errors import GradientNaN, GraphReleased, ShapeError
from stdac.gradcheck import gradcheck
from stdac.tensor import Tensor, no_grad


class TestBackward:
    def test_chain(self):
        x = Tensor(2.0, requires_grad=True)
        y = (x * x + 1.0) * 3.0
        y.backward()
        assert y.item() == 15.0
        assert x.grad == pytest.approx(12.0)

    def test_diamond_accumulates_both_paths(self):
        # z = x*x + x*x: grad must be 4x, not 2x
        x = Tensor(3.0, requires_grad=True)
        a = x * x
        (a + a).backward()
        assert x.grad == pytest.approx(12.0)

    def test_reused_node_many_consumers(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        s = x.sum()
        total = s * s + s * 2.0
        total.backward()
        # d/ds (s^2 + 2s) = 2s + 2 = 8 at s=3
        np.testing.assert_allclose(x.grad, [8.0, 8.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (x * 2.0).backward()

    def test_nan_gradient_names_node(self):
        # forward stays finite (sqrt(0) * 0 = 0) but the sqrt backward
        # produces 0 * inf = nan
        x = Tensor(0.0, requires_grad=True)
        loss = x.sqrt() * 0.0 + 1.0
        with np.errstate(invalid="ignore"), pytest.raises(GradientNaN, match="op="):
            loss.backward()

    def test_new_graph_over_released_node_raises(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        h = x * 3.0
        h.sum().backward()
        with pytest.raises(GraphReleased, match="op='mul'"):
            (h * 2.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_leaf_grads_sum_across_graphs(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (x * 3.0).sum().backward()
        (x * x).sum().backward()
        np.testing.assert_array_equal(x.grad, [5.0, 7.0])

    def test_nonfinite_loss_rejected(self):
        x = Tensor(0.0, requires_grad=True)
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match="finite"):
            x.log().backward()


class TestBroadcasting:
    def test_add_bias_unbroadcast(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (x + b).sum().backward()
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(b.grad, [4.0, 4.0, 4.0])

    def test_scalar_broadcast(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        c = Tensor(2.0, requires_grad=True)
        (x * c).sum().backward()
        assert c.grad == pytest.approx(4.0)
        np.testing.assert_allclose(x.grad, 2.0 * np.ones((2, 2)))

    def test_keepdims_axis_broadcast(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        m = x.sum(axis=1, keepdims=True)
        (x / m).sum().backward()
        assert x.grad.shape == (2, 3)

    @pytest.mark.parametrize("shapes", [((3, 1), (1, 4)), ((2, 3), (3,)), ((5,), ())])
    def test_grad_matches_fd_for_broadcast_ops(self, shapes, rng):
        a = Tensor(rng.normal(size=shapes[0]), requires_grad=True)
        b = Tensor(rng.normal(size=shapes[1]) + 3.0, requires_grad=True)
        gradcheck(lambda u, v: ((u * v + u) / v).sum(), (a, b))


class TestOps:
    def test_matmul_shape_error_names_axes(self):
        with pytest.raises(ShapeError, match="axis"):
            Tensor(np.ones((2, 3))).matmul(Tensor(np.ones((4, 2))))

    def test_matmul_grads(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        gradcheck(lambda u, v: (u.matmul(v) * u.matmul(v)).sum(), (a, b))

    def test_clamp_passthrough_mask(self):
        x = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
        x.clamp(0.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_relu_zero_subgradient(self):
        x = Tensor(np.array([-2.0, 0.0, 3.0]), requires_grad=True)
        x.relu().sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 0.0, 1.0])

    def test_tanh_value(self):
        assert Tensor(1.0).tanh().item() == pytest.approx(0.761594156, abs=1e-9)

    def test_transpose_reshape_roundtrip(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        y = x.T.reshape((2, 6)).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))


class TestNoGrad:
    def test_no_graph_inside_context(self):
        x = Tensor(1.0, requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y._backward is None

    def test_graph_resumes_after(self):
        x = Tensor(1.0, requires_grad=True)
        with no_grad():
            pass
        y = x * 2.0
        assert y.requires_grad
