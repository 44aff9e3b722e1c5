"""Network ops against hand oracles and finite differences."""

import tracemalloc

import numpy as np
import pytest

import reference_ops as ref
from gradcheck import gradcheck
from stdac import nn
from stdac.errors import ConfigurationError, ShapeError
from stdac.optim import Adam
from stdac.tensor import Tensor, no_grad


def conv2d_loops(x, k, b, padding):
    """Reference convolution: explicit sliding window, no vectorization."""
    n, h, w, cin = x.shape
    kh, kw, _, cout = k.shape
    if padding == "same":
        pt, pl = (kh - 1) // 2, (kw - 1) // 2
        pb, pr = kh - 1 - pt, kw - 1 - pl
        x = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    ho, wo = x.shape[1] - kh + 1, x.shape[2] - kw + 1
    out = np.zeros((n, ho, wo, cout))
    for ni in range(n):
        for i in range(ho):
            for j in range(wo):
                for co in range(cout):
                    out[ni, i, j, co] = (
                        x[ni, i:i + kh, j:j + kw, :] * k[:, :, :, co]).sum() + b[co]
    return out


class TestConv:
    def test_valid_window_sums(self):
        # 3x3 ramp under a 2x2 ones kernel: each output is a 4-cell sum
        x = Tensor(np.arange(1.0, 10.0).reshape(1, 3, 3, 1))
        y = nn.conv2d(x, Tensor(np.ones((2, 2, 1, 1))), Tensor(np.zeros(1)), "valid")
        np.testing.assert_array_equal(y.data.reshape(2, 2), [[12, 16], [24, 28]])

    def test_same_preserves_spatial_size(self, rng):
        x = Tensor(rng.random((2, 7, 7, 3)))
        y = nn.conv2d(x, Tensor(rng.random((3, 3, 3, 5))), Tensor(np.zeros(5)), "same")
        assert y.shape == (2, 7, 7, 5)

    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("kh,kw", [(1, 1), (2, 2), (3, 3), (3, 2)])
    def test_matches_loop_reference(self, padding, kh, kw, rng):
        x = rng.normal(size=(2, 6, 5, 3))
        k = rng.normal(size=(kh, kw, 3, 4))
        b = rng.normal(size=4)
        got = nn.conv2d(Tensor(x), Tensor(k), Tensor(b), padding).data
        np.testing.assert_allclose(got, conv2d_loops(x, k, b, padding), atol=1e-12)

    def test_channel_mismatch_names_axis(self):
        with pytest.raises(ShapeError, match="channel"):
            nn.conv2d(Tensor(np.zeros((1, 5, 5, 3))),
                      Tensor(np.zeros((3, 3, 2, 4))), Tensor(np.zeros(4)))

    def test_valid_too_small(self):
        with pytest.raises(ShapeError, match="valid"):
            nn.conv2d(Tensor(np.zeros((1, 2, 2, 1))),
                      Tensor(np.zeros((3, 3, 1, 1))), Tensor(np.zeros(1)), "valid")

    def test_unknown_padding(self):
        with pytest.raises(ConfigurationError, match="padding"):
            nn.conv2d(Tensor(np.zeros((1, 4, 4, 1))),
                      Tensor(np.zeros((3, 3, 1, 1))), Tensor(np.zeros(1)), "reflect")

    def test_grads(self, rng):
        x = Tensor(rng.normal(size=(2, 5, 5, 2)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 3, 2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        gradcheck(lambda *t: (nn.conv2d(*t, "same") * nn.conv2d(*t, "same")).sum(),
                  (x, k, b))

    def test_graph_holds_no_im2col_columns(self, rng):
        # backward rebuilds the columns from x, so forward leaves only y alive;
        # the columns here are 9x the size of y
        x = Tensor(rng.normal(size=(4, 16, 16, 8)))
        k = Tensor(rng.normal(size=(3, 3, 8, 8)), requires_grad=True)
        b = Tensor(np.zeros(8), requires_grad=True)
        tracemalloc.start()
        try:
            y = nn.conv2d(x, k, b)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2 * y.data.nbytes, (held, y.data.nbytes)

    def test_forward_holds_a_few_blocks_of_columns(self, rng):
        # block2/conv at evaluation batch 256: each thread builds the columns
        # of one block of 9 or 10 images at a time, about 8 MiB, not all of
        # its half's 110 MiB at once
        x = Tensor(rng.normal(size=(256, 14, 14, 64)))
        k, b = Tensor(rng.normal(size=(3, 3, 64, 128))), Tensor(np.zeros(128))
        tracemalloc.start()
        try:
            y = nn.conv2d(x, k, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output plus four blocks' columns; the halves' columns were 231 MB
        assert peak < y.data.nbytes + 4 * (8 << 20), (peak, y.data.nbytes)

    def test_backward_holds_no_whole_batch_of_columns(self, rng):
        # block2/conv at training batch 128: the kernel gradient copies one
        # shifted window of the padded input at a time, and the input
        # gradient builds its columns in blocks; the whole batch's columns
        # alone would be 9x the input (110 MiB)
        x = Tensor(rng.normal(size=(128, 14, 14, 64)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 3, 64, 128)), requires_grad=True)
        y = nn.conv2d(x, k, Tensor(np.zeros(128), requires_grad=True))
        g = rng.normal(size=y.shape)
        tracemalloc.start()
        try:
            y._backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # dx, the padded input, one window and the input gradient's blocks
        assert peak < 6 * x.data.nbytes, (peak, x.data.nbytes)


class TestKernelGradPerOffset:
    """conv2d's kernel gradient against the one GEMM over the whole columns
    in `reference_ops.conv2d`, byte for byte, and which of the two it runs:
    one GEMM per kernel offset where c_in > 1 and each offset's product has
    `SPLIT_MIN_WORK` multiply-adds or more, else the whole columns, which
    only that path builds in backward."""

    @staticmethod
    def kernel_grad(conv, batch, x_shape, k_shape, padding, monkeypatch):
        """The kernel's gradient under a seeded upstream gradient, and the
        images of each window view that backward built."""
        rng = np.random.default_rng(batch)
        k = Tensor(rng.normal(size=k_shape), requires_grad=True)
        out = conv(Tensor(rng.normal(size=(batch,) + x_shape)), k,
                   Tensor(rng.normal(size=k_shape[-1])), padding)
        # the output's buffer becomes the upstream gradient: one array the
        # size of block1's output at batch 512 (0.2 GB), not two
        g = rng.standard_normal(out=out.data)
        windows = []
        view = np.lib.stride_tricks.sliding_window_view
        with monkeypatch.context() as patch:
            patch.setattr(np.lib.stride_tricks, "sliding_window_view",
                          lambda a, *args, **kwargs: windows.append(len(a))
                          or view(a, *args, **kwargs))
            out._backward(g)
        return k.grad, windows

    @pytest.mark.parametrize("batch, x_shape, k_shape, padding, per_offset", [
        *[pytest.param(batch, (14, 14, 64), (3, 3, 64, 128), "same", batch > 2,
                       id=f"block2-{batch}") for batch in (2, 64, 128, 129, 256)],
        *[pytest.param(batch, (7, 7, 128), (3, 3, 128, 256), "same", batch > 2,
                       id=f"block3-{batch}") for batch in (2, 64, 128, 129, 256)],
        # c_in = 1: each offset's product would be a GEMV, which rounds
        # otherwise, even where it has SPLIT_MIN_WORK multiply-adds (512)
        *[pytest.param(batch, (28, 28, 1), (3, 3, 1, 64), "same", False,
                       id=f"block1-{batch}") for batch in (128, 512)],
        pytest.param(128, (14, 14, 1), (5, 5, 1, 20), "valid", False, id="st1-loc-conv1"),
        pytest.param(128, (5, 5, 20), (5, 5, 20, 20), "valid", False, id="st1-loc-conv2"),
    ])
    def test_matches_whole_columns(self, batch, x_shape, k_shape, padding, per_offset,
                                   monkeypatch):
        got, windows = self.kernel_grad(nn.conv2d, batch, x_shape, k_shape, padding,
                                        monkeypatch)
        assert windows == ([] if per_offset else [batch])
        want, _ = self.kernel_grad(ref.conv2d, batch, x_shape, k_shape, padding,
                                   monkeypatch)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestMaxPool:
    def test_values(self):
        x = np.array([[1.0, 2.0, 5.0, 3.0],
                      [4.0, 0.0, 1.0, 1.0],
                      [7.0, 2.0, 9.0, 2.0],
                      [1.0, 8.0, 3.0, 6.0]]).reshape(1, 4, 4, 1)
        y = nn.maxpool2d(Tensor(x))
        np.testing.assert_array_equal(y.data.reshape(2, 2), [[4, 5], [8, 9]])

    def test_odd_trailing_dropped(self, rng):
        y = nn.maxpool2d(Tensor(rng.random((1, 5, 7, 2))))
        assert y.shape == (1, 2, 3, 2)

    def test_tie_routes_to_first_index_row_major(self):
        x = np.full((1, 2, 2, 1), 3.0)
        xt = Tensor(x, requires_grad=True)
        nn.maxpool2d(xt).sum().backward()
        np.testing.assert_array_equal(xt.grad.reshape(2, 2), [[1, 0], [0, 0]])

    def test_too_small(self):
        with pytest.raises(ShapeError):
            nn.maxpool2d(Tensor(np.zeros((1, 1, 4, 1))))

    def test_grads_away_from_ties(self, rng):
        x = rng.normal(size=(2, 4, 4, 2))
        xt = Tensor(x, requires_grad=True)
        gradcheck(lambda t: (nn.maxpool2d(t) * nn.maxpool2d(t)).sum(), (xt,))


class TestDense:
    def test_values(self):
        y = nn.dense(Tensor(np.array([[1.0, 2.0]])),
                     Tensor(np.array([[3.0], [4.0]])), Tensor(np.array([0.5])))
        np.testing.assert_allclose(y.data, [[11.5]])

    def test_shape_error(self):
        with pytest.raises(ShapeError, match="dense"):
            nn.dense(Tensor(np.ones((1, 3))), Tensor(np.ones((4, 2))),
                     Tensor(np.zeros(2)))


class TestSoftmax:
    def test_frozen_example(self):
        # logits [0, ln 3] -> probabilities [0.25, 0.75]
        y = nn.softmax_rows(Tensor(np.array([[0.0, np.log(3.0)]])))
        np.testing.assert_allclose(y.data, [[0.25, 0.75]], atol=1e-12)

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(3, 5))
        a = nn.softmax_rows(Tensor(x)).data
        b = nn.softmax_rows(Tensor(x + 1000.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        y = nn.softmax_rows(Tensor(rng.normal(size=(4, 7)) * 10))
        np.testing.assert_allclose(y.data.sum(axis=1), 1.0, atol=1e-12)

    def test_grads(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = rng.random((3, 4))
        gradcheck(lambda t: (nn.softmax_rows(t) * w).sum(), (x,))


class TestL2Normalize:
    def test_unit_rows(self, rng):
        y = nn.l2_normalize_rows(Tensor(rng.random((5, 3)) + 0.1))
        np.testing.assert_allclose(np.linalg.norm(y.data, axis=1), 1.0, atol=1e-12)

    def test_grads(self, rng):
        x = Tensor(rng.random((3, 4)) + 0.5, requires_grad=True)
        w = rng.random((3, 4))
        gradcheck(lambda t: (nn.l2_normalize_rows(t) * w).sum(), (x,))


class TestBatchNorm:
    def test_train_normalizes_by_population_stats(self):
        # batch [1, 3]: mean 2, population var 1; gamma 2, beta 1
        x = Tensor(np.array([[1.0], [3.0]]))
        g, b = Tensor(np.array([2.0])), Tensor(np.array([1.0]))
        rm, rv = np.zeros(1), np.ones(1)
        y = nn.batch_norm(x, g, b, rm, rv, train=True)
        inv = 1.0 / np.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(y.data, [[1 - 2 * inv], [1 + 2 * inv]], atol=1e-12)

    def test_running_buffers_momentum(self):
        x = Tensor(np.array([[1.0], [3.0]]))
        g, b = Tensor(np.ones(1)), Tensor(np.zeros(1))
        rm, rv = np.zeros(1), np.ones(1)
        nn.batch_norm(x, g, b, rm, rv, train=True)
        assert rm[0] == pytest.approx(0.9 * 0.0 + 0.1 * 2.0)
        assert rv[0] == pytest.approx(0.9 * 1.0 + 0.1 * 1.0)

    def test_eval_uses_buffers_not_batch(self):
        x = Tensor(np.array([[10.0], [20.0]]))
        g, b = Tensor(np.ones(1)), Tensor(np.zeros(1))
        rm, rv = np.array([2.0]), np.array([4.0])
        y = nn.batch_norm(x, g, b, rm, rv, train=False)
        np.testing.assert_allclose(
            y.data, (x.data - 2.0) / np.sqrt(4.0 + 1e-5), atol=1e-12)
        np.testing.assert_array_equal(rm, [2.0])  # eval must not touch buffers

    def test_batch_of_one_rejected_in_train(self):
        with pytest.raises(ShapeError, match="batch"):
            nn.batch_norm(Tensor(np.ones((1, 3))), Tensor(np.ones(3)),
                          Tensor(np.zeros(3)), np.zeros(3), np.ones(3), train=True)

    def test_nhwc_reduces_over_all_but_channels(self, rng):
        x = rng.normal(size=(2, 3, 3, 4))
        y = nn.batch_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)),
                          np.zeros(4), np.ones(4), train=True)
        np.testing.assert_allclose(y.data.mean(axis=(0, 1, 2)), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.data.var(axis=(0, 1, 2)), 1.0, atol=1e-4)

    def test_grads_train_mode(self, rng):
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        g = Tensor(rng.random(3) + 0.5, requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        w = rng.random((4, 3))

        def f(xx, gg, bb):
            y = nn.batch_norm(xx, gg, bb, np.zeros(3), np.ones(3), train=True)
            return (y * w).sum()
        gradcheck(f, (x, g, b))

    def test_grads_eval_mode(self, rng):
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        g = Tensor(rng.random(2) + 0.5, requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        rm, rv = rng.normal(size=2), rng.random(2) + 0.5
        w = rng.random((3, 2))
        gradcheck(lambda *t: (nn.batch_norm(*t, rm, rv, train=False) * w).sum(),
                  (x, g, b))

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("wanted", [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)],
                             ids=["x", "gamma", "beta", "x-gamma", "x-beta", "gamma-beta",
                                  "all"])
    def test_each_input_gets_the_gradient_it_gets_with_all_three(self, wanted, train, rng):
        arrays = [rng.normal(1.5, 2.0, size=(6, 4, 4, 8)), rng.normal(size=8),
                  rng.normal(size=8)]
        buffers = [rng.normal(size=8), rng.random(8) + 0.5]
        g = rng.normal(size=arrays[0].shape)

        def grads(requires):
            leaves = [Tensor(a, requires_grad=i in requires) for i, a in enumerate(arrays)]
            nn.batch_norm(*leaves, *[b.copy() for b in buffers], train)._backward(g)
            return [t.grad for t in leaves]

        want, got = grads((0, 1, 2)), grads(wanted)
        for i in range(3):
            if i in wanted:
                assert got[i].tobytes() == want[i].tobytes()
            else:
                assert got[i] is None

    @pytest.mark.parametrize("train", [True, False])
    def test_graph_holds_no_normalized_copy(self, train, rng):
        # backward recomputes xhat from x, mu and inv_std, so forward leaves
        # only y and C-float vectors alive
        x = Tensor(rng.normal(size=(8, 16, 16, 32)), requires_grad=True)
        g, b = Tensor(np.ones(32), requires_grad=True), Tensor(np.zeros(32), requires_grad=True)
        rm, rv = np.zeros(32), np.ones(32)
        tracemalloc.start()
        try:
            y = nn.batch_norm(x, g, b, rm, rv, train=train)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1.5 * y.data.nbytes, (held, y.data.nbytes)


def mixed_bn(rng, c):
    """A BatchNorm with mixed-sign gamma, some gamma == 0 and nonzero running
    statistics."""
    bn = nn.BatchNorm(c, "bn")
    bn.gamma.data[:] = rng.normal(size=c)
    bn.gamma.data[::3] = 0.0
    bn.beta.data[:] = rng.normal(size=c)
    bn.running_mean[:] = rng.normal(size=c)
    bn.running_var[:] = rng.random(c) + 0.5
    assert (bn.gamma.data < 0).any() and (bn.gamma.data > 0).any()
    return bn


class TestBnReluPool:
    """Eval without a graph pools first; every other call is one node with
    the bytes of BN -> ReLU -> pool, whose gradients route to the first
    maximum after the ReLU, and of the three nodes BN -> pool -> ReLU."""

    @staticmethod
    def graph_order(x, bn, train):
        return nn.maxpool2d(bn(x, train).relu())

    @pytest.mark.parametrize("shape", [(3, 6, 6, 7), (2, 7, 5, 7)])
    def test_eval_without_graph_same_bytes(self, shape, rng):
        bn = mixed_bn(rng, shape[-1])
        # integer values: many windows tie, and many pixels rectify to zero
        inputs = (rng.normal(size=shape), rng.integers(-2, 3, size=shape) * 1.0)
        # mixed-sign gamma keeps the graph order; |gamma| pools first
        for gamma in (bn.gamma.data.copy(), np.abs(bn.gamma.data)):
            bn.gamma.data[:] = gamma
            for x in inputs:
                want = self.graph_order(Tensor(x), bn, False).data
                with no_grad():
                    got = nn.bn_relu_pool(Tensor(x), bn, False).data
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("train", [True, False])
    def test_graph_recording_keeps_the_order(self, train, rng):
        bn = mixed_bn(rng, 5)
        x = rng.integers(-2, 3, size=(4, 6, 6, 5)) * 1.0
        g = rng.normal(size=(4, 3, 3, 5))
        results = []
        for op in (nn.bn_relu_pool, self.graph_order):
            for p in bn.params():
                p.grad = None
            xt = Tensor(x, requires_grad=True)
            y = op(xt, bn, train)
            (y * g).sum().backward()
            results.append([y.data, xt.grad, bn.gamma.grad, bn.beta.grad])
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("train", [True, False])
    def test_ties_and_windows_at_or_below_zero(self, train, rng):
        # a pooled value <= 0 rectifies to +0.0 in either order, and its
        # gradient, negative here in places, must reach x as +0.0 everywhere
        bn = mixed_bn(rng, 6)
        bn.beta.data[0] = -abs(bn.beta.data[0])     # gamma 0: every window < 0
        bn.beta.data[3] = 0.0                        # gamma 0: every window ties at 0
        x = rng.integers(-1, 1, size=(4, 6, 6, 6)) * 1.0
        g = rng.normal(size=(4, 3, 3, 6))
        results = []
        for op in (nn.bn_relu_pool, self.graph_order):
            for p in bn.params():
                p.grad = None
            xt = Tensor(x, requires_grad=True)
            y = op(xt, bn, train)
            (y * g).sum().backward()
            results.append([y.data, xt.grad, bn.gamma.grad, bn.beta.grad])
        pooled = nn.maxpool2d(bn(Tensor(x), train)).data
        assert ((pooled <= 0) & (g < 0)).any() and (pooled > 0).any()
        assert not np.signbit(results[0][0]).any()
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()

    @staticmethod
    def node(x, bn, train, g):
        y = nn.bn_relu_pool(x, bn, train)
        assert y.op == "bn_relu_pool"
        y._backward(g)
        return y

    @staticmethod
    def three_nodes(x, bn, train, g):
        # each closure by hand in the sweep's order: the sweep itself stops
        # at a NaN gradient
        bn_out = bn(x, train)
        pooled = nn.maxpool2d(bn_out)
        y = pooled.relu()
        y._backward(g)
        pooled._backward(pooled.grad)
        bn_out._backward(bn_out.grad)
        return y

    def assert_node_matches_three_nodes(self, x, make_bn, train):
        """The output, the running buffers and the gradients of x, gamma and
        beta, each run on its own leaf and BatchNorm."""
        n, h, w, c = x.shape
        g = np.random.default_rng(2).normal(size=(n, h // 2, w // 2, c))
        results = []
        for op in (self.node, self.three_nodes):
            bn, xt = make_bn(), Tensor(x, requires_grad=True)
            y = op(xt, bn, train, g)
            results.append([y.data, bn.running_mean, bn.running_var, xt.grad,
                            bn.gamma.grad, bn.beta.grad])
        for got, want in zip(*results):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        return results[0][0]

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("shape", [(128, 28, 28, 64), (128, 14, 14, 128),
                                       (128, 7, 7, 256)], ids=["block1", "block2", "block3"])
    def test_block_shapes_at_batch_128(self, shape, train, rng):
        x = rng.normal(size=shape)
        self.assert_node_matches_three_nodes(
            x, lambda: mixed_bn(np.random.default_rng(1), shape[-1]), train)

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("shape", [(4, 6, 6, 6), (3, 7, 7, 6)], ids=["even", "crop"])
    def test_ties_zero_gammas_and_the_crop(self, shape, train, rng):
        def make_bn():
            bn = mixed_bn(np.random.default_rng(3), shape[-1])
            bn.beta.data[0] = -abs(bn.beta.data[0])     # gamma 0: every window < 0
            bn.beta.data[3] = 0.0                        # gamma 0: every window ties at 0
            return bn
        y = self.assert_node_matches_three_nodes(
            rng.integers(-1, 2, size=shape) * 1.0, make_bn, train)
        assert not np.signbit(y).any()

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_a_nan_window(self, train, rng):
        x = rng.normal(size=(3, 7, 7, 5))
        x[1, 2, 5, 4] = np.nan
        y = self.assert_node_matches_three_nodes(
            x, lambda: mixed_bn(np.random.default_rng(2), 5), train)
        assert np.isnan(y[1, 1, 2, 4])

    def test_batch_of_one_rejected_in_train(self):
        bn = nn.BatchNorm(3, "bn")
        with pytest.raises(ShapeError, match="batch"):
            nn.bn_relu_pool(Tensor(np.ones((1, 4, 4, 3)), requires_grad=True), bn, True)
        assert not bn.running_mean.any() and (bn.running_var == 1.0).all()

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_grads(self, train, rng):
        bn = mixed_bn(rng, 3)
        bn.gamma.data[0] = 0.7
        x = Tensor(rng.normal(size=(3, 4, 5, 3)), requires_grad=True)
        w = rng.random((3, 2, 2, 3))

        # gradcheck perturbs gamma and beta in place, where bn reads them
        gradcheck(lambda xt, *_: (nn.bn_relu_pool(xt, bn, train) * w).sum(),
                  (x, bn.gamma, bn.beta))

    def test_graph_holds_no_full_resolution_map(self, rng):
        # block1 at training batch 128: the node keeps its output (12.25
        # MiB), a byte per pooled element and C-float vectors; the three
        # nodes it replaces kept the BN output (49 MiB) and the pooled map
        # before the ReLU as well, 73.5 MiB with the output
        x = Tensor(rng.normal(size=(128, 28, 28, 64)), requires_grad=True)
        bn = nn.BatchNorm(64, "bn")
        tracemalloc.start()
        try:
            y = nn.bn_relu_pool(x, bn, True)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert y.op == "bn_relu_pool"
        assert held < 20 << 20, held / 2**20


class TestInit:
    def test_same_name_same_seed_identical(self):
        a = nn.Conv2d(3, 3, 1, 8, "layer", seed=7)
        b = nn.Conv2d(3, 3, 1, 8, "layer", seed=7)
        np.testing.assert_array_equal(a.kernel.data, b.kernel.data)

    def test_different_names_differ(self):
        a = nn.Conv2d(3, 3, 1, 8, "one", seed=7)
        b = nn.Conv2d(3, 3, 1, 8, "two", seed=7)
        assert not np.array_equal(a.kernel.data, b.kernel.data)

    def test_name_keyed_rng_independent_of_creation_order(self):
        first = nn.Dense(4, 4, "shared", seed=1)
        nn.Dense(9, 9, "other", seed=1)
        again = nn.Dense(4, 4, "shared", seed=1)
        np.testing.assert_array_equal(first.weight.data, again.weight.data)

    def test_parameter_names(self):
        layer = nn.Dense(2, 3, "fc", seed=0)
        assert [p.name for p in layer.params()] == ["fc/weight", "fc/bias"]


class TestAdam:
    def test_first_step_frozen_value(self):
        # bias correction makes step 1 exactly -lr * g / (|g| + eps):
        # -1e-4 * 0.5 / (0.5 + 1e-8) = -9.9999998e-5
        p = nn.Parameter(np.array([0.0]), "p")
        opt = Adam([p], lr=1e-4)
        p.grad = np.array([0.5])
        opt.step()
        assert p.data[0] == pytest.approx(-1e-4 * 0.5 / (0.5 + 1e-8), abs=1e-16)
        assert p.data[0] == pytest.approx(-9.9999998e-5, abs=1e-12)

    def test_matches_reference_trajectory(self, rng):
        data = rng.normal(size=(3, 2))
        p = nn.Parameter(data.copy(), "p")
        opt = Adam([p], lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)

        ref = data.copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        for t in range(1, 6):
            g = np.sin(ref) + 0.1 * t
            p.grad = g.copy()
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9 ** t)
            vhat = v / (1 - 0.999 ** t)
            ref -= 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
            np.testing.assert_allclose(p.data, ref, atol=1e-15)

    def test_zero_grad_clears(self):
        p = nn.Parameter(np.zeros(2), "p")
        p.grad = np.ones(2)
        Adam([p]).zero_grad()
        assert p.grad is None

    def test_none_grad_skipped(self):
        p = nn.Parameter(np.array([1.0]), "p")
        Adam([p]).step()
        assert p.data[0] == 1.0
