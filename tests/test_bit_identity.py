"""The in-place hot-path ops against the reference implementations in
`reference_ops`: every output, gradient and buffer must carry the same bits."""

import numpy as np
import pytest

import reference_ops as ref
from stdac import nn
from stdac.dac import Backbone, BackboneConfig, ThresholdSchedule, train_epoch
from stdac.dataio import AugmentConfig, make_synthetic_glyphs
from stdac.optim import BLOCK, Adam
from stdac.tensor import Tensor, no_grad


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def run_op(op, arrays, g_seed, *args, **kwargs):
    """Forward `op` on fresh leaves, push a fixed upstream gradient back.
    Returns the output and the leaves' gradients."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*leaves, *args, **kwargs)
    g = np.random.default_rng(g_seed).normal(size=out.shape)
    out._backward(g)
    return out.data, [t.grad for t in leaves]


class TestConv2d:
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("kh,kw", [(5, 5), (3, 3), (2, 3)])
    def test_matches_reference(self, padding, kh, kw, rng):
        arrays = [rng.normal(size=(3, 9, 8, 4)), rng.normal(size=(kh, kw, 4, 5)),
                  rng.normal(size=5)]
        y, grads = run_op(nn.conv2d, arrays, 1, padding)
        y_ref, grads_ref = run_op(ref.conv2d, arrays, 1, padding)
        assert_same_bits(y, y_ref)
        for got, want in zip(grads, grads_ref):
            assert_same_bits(got, want)


class TestMaxPool:
    @pytest.mark.parametrize("shape,size", [((2, 7, 7, 3), 2), ((2, 3, 3, 3), 2),
                                            ((2, 8, 6, 3), 2), ((1, 7, 8, 2), 3)])
    def test_matches_reference(self, shape, size, rng):
        x = rng.normal(size=shape)
        y, (dx,) = run_op(nn.maxpool2d, [x], 2, size)
        y_ref, (dx_ref,) = run_op(ref.maxpool2d, [x], 2, size)
        assert y.shape == (shape[0], shape[1] // size, shape[2] // size, shape[3])
        assert_same_bits(y, y_ref)
        assert_same_bits(dx, dx_ref)

    def test_ties_route_like_reference(self, rng):
        # few distinct values, so most windows hold their maximum twice or more
        x = rng.integers(0, 3, size=(3, 7, 9, 4)).astype(np.float64)
        y, (dx,) = run_op(nn.maxpool2d, [x], 3)
        y_ref, (dx_ref,) = run_op(ref.maxpool2d, [x], 3)
        assert_same_bits(y, y_ref)
        assert_same_bits(dx, dx_ref)
        assert np.count_nonzero(dx) == y.size


class TestBatchNorm:
    @pytest.mark.parametrize("train", [True, False])
    @pytest.mark.parametrize("shape", [(6, 5, 4, 3), (7, 6)])
    def test_matches_reference(self, train, shape, rng):
        c = shape[-1]
        arrays = [rng.normal(1.5, 2.0, size=shape), rng.normal(size=c), rng.normal(size=c)]
        buffers = [rng.normal(size=c), rng.random(c) + 0.5]
        bufs, bufs_ref = [b.copy() for b in buffers], [b.copy() for b in buffers]
        y, grads = run_op(nn.batch_norm, arrays, 3, *bufs, train)
        y_ref, grads_ref = run_op(ref.batch_norm, arrays, 3, *bufs_ref, train)
        assert_same_bits(y, y_ref)
        for got, want in zip(grads + bufs, grads_ref + bufs_ref):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("gamma_grad", [True, False])
    def test_eval_without_graph_matches_reference(self, gamma_grad, rng):
        x, gamma, beta = rng.normal(size=(6, 5, 4, 3)), rng.normal(size=3), rng.normal(size=3)
        buffers = (rng.normal(size=3), rng.random(3) + 0.5)
        with no_grad():
            ys = [op(Tensor(x), Tensor(gamma, requires_grad=gamma_grad), Tensor(beta),
                     *buffers, False).data
                  for op in (nn.batch_norm, ref.batch_norm)]
        assert_same_bits(*ys)

    def test_frozen_input_and_beta(self, rng):
        arrays = [rng.normal(size=(4, 3)), rng.normal(size=3), rng.normal(size=3)]
        grads = []
        for op in (nn.batch_norm, ref.batch_norm):
            x, beta = Tensor(arrays[0]), Tensor(arrays[2])
            gamma = Tensor(arrays[1], requires_grad=True)
            out = op(x, gamma, beta, np.zeros(3), np.ones(3), True)
            out._backward(np.random.default_rng(4).normal(size=out.shape))
            assert x.grad is None and beta.grad is None
            grads.append(gamma.grad)
        assert_same_bits(*grads)


class TestAdam:
    def test_matches_reference_across_blocks(self, rng):
        # one parameter spans several blocks and ends in a partial one; one
        # has no gradient on odd steps
        shapes = [(5, BLOCK // 2 + 7), (5,), (2, 3)]
        data = [rng.normal(size=s) for s in shapes]
        params = [nn.Parameter(d.copy(), f"p{i}") for i, d in enumerate(data)]
        params_ref = [nn.Parameter(d.copy(), f"p{i}") for i, d in enumerate(data)]
        opt = Adam(params, lr=0.01)
        opt_ref = Adam(params_ref, lr=0.01)
        for t in range(1, 6):
            for i, (p, q) in enumerate(zip(params, params_ref)):
                g = None if i == 2 and t % 2 else rng.normal(size=p.shape)
                p.grad, q.grad = g, g
            opt.step()
            ref.adam_step(opt_ref)
            got = [p.data for p in params] + opt.m + opt.v
            want = [p.data for p in params_ref] + opt_ref.m + opt_ref.v
            for a, b in zip(got, want):
                assert_same_bits(a, b)
        assert params[0].size > 2 * BLOCK and params[0].size % BLOCK


class TestAccumulateGrad:
    def test_matches_reference(self, rng):
        data = rng.normal(size=(4, 3))
        # a -0.0 first write, a transposed (F-ordered) one, and a broadcast one
        writes = [np.where(data > 0, -0.0, data), rng.normal(size=(3, 4)).T,
                  rng.normal(size=3)]
        for first in writes:
            t, t_ref = Tensor(data), Tensor(data)
            for g in (first, rng.normal(size=(4, 3))):
                t.accumulate_grad(g)
                ref.accumulate_grad(t_ref, g)
                assert_same_bits(t.grad, t_ref.grad)
                assert t.grad.strides == t_ref.grad.strides

    def test_fresh_first_write_is_adopted(self, rng):
        data = rng.normal(size=(4, 3))
        # a -0.0 becomes +0.0, in the adopted array itself
        g = np.where(data > 0, -0.0, data)
        t, t_ref = Tensor(data), Tensor(data)
        ref.accumulate_grad(t_ref, g.copy())
        t.accumulate_grad(g)
        assert t.grad is g
        assert_same_bits(t.grad, t_ref.grad)
        assert t.grad.strides == t_ref.grad.strides
        assert not np.signbit(t.grad[data > 0]).any()

    @pytest.mark.parametrize("kind", ["view", "transposed", "read-only"])
    def test_other_first_writes_are_copied(self, kind, rng):
        data = rng.normal(size=(4, 3))
        g = {"view": lambda: rng.normal(size=(6, 3))[1:5],
             "transposed": lambda: rng.normal(size=(3, 4)).T,
             "read-only": lambda: np.broadcast_to(rng.normal(size=3), (4, 3))}[kind]()
        t = Tensor(data)
        t.accumulate_grad(g)
        assert not np.shares_memory(t.grad, g)
        assert t.grad.strides == data.strides
        np.testing.assert_array_equal(t.grad, g)

    @pytest.mark.parametrize("expr,want", [
        (lambda a, b, c: a - b, (1.0, -1.0, 0.0)),
        (lambda a, b, c: a + a, (2.0, 0.0, 0.0)),
        (lambda a, b, c: a + c, (1.0, 0.0, 4.0)),
        # b takes a pass-through gradient from two adds; a through an interior node
        (lambda a, b, c: (a * 1.0 + b) + b, (1.0, 2.0, 0.0)),
    ], ids=["sub", "self-add", "broadcast-add", "chained-add"])
    def test_no_two_tensors_share_a_grad(self, expr, want):
        a, b, c = (Tensor(np.ones(s), requires_grad=True) for s in [(4, 3), (4, 3), (3,)])
        expr(a, b, c).sum().backward()
        grads = [t.grad for t in (a, b, c) if t.grad is not None]
        for i, gi in enumerate(grads):
            for gj in grads[i + 1:]:
                assert not np.shares_memory(gi, gj)
        for t, w in zip((a, b, c), want):
            if w:
                np.testing.assert_array_equal(t.grad, np.full(t.shape, w))

    def test_first_write_is_a_copy(self):
        # add and sub hand one gradient array to both parents
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        (a + b).sum().backward()
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])


def test_training_steps_match_reference_ops(monkeypatch):
    """Three optimizer steps of a 3-ST model with augmentation, once on the
    optimized ops and once on the reference ones."""
    images = make_synthetic_glyphs(24, seed=5, classes=4).images

    def train():
        model = Backbone(BackboneConfig(st_layer_count=3, cluster_count=4), seed=2)
        opt = Adam(model.params(), lr=1e-3)
        stats = train_epoch(model, images, ThresholdSchedule(u0=0.95, l0=0.6), opt,
                            batch_size=8, seed=3, epoch=1, augment=AugmentConfig())
        return stats, model.state_dict(), opt

    stats, state, opt = train()
    with monkeypatch.context() as patch:
        ref.install(patch)
        stats_ref, state_ref, opt_ref = train()
    assert opt.t == opt_ref.t == 3
    assert stats == stats_ref
    assert state.keys() == state_ref.keys()
    for name in state:
        assert_same_bits(state[name], state_ref[name])
    for got, want in zip(opt.m + opt.v, opt_ref.m + opt_ref.v):
        assert_same_bits(got, want)
