"""The in-place hot-path ops against the reference implementations in
`reference_ops`: every output, gradient and buffer must carry the same bits."""

import threading
from concurrent.futures import Future

import numpy as np
import pytest

import reference_ops as ref
import test_dac
from stdac import nn, stn, tensor
from stdac.dac import (Backbone, BackboneConfig, ThresholdSchedule, predict_features,
                       train_epoch)
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
    # nn.maxpool2d pools 2x2 windows only; the reference takes the size
    @pytest.mark.parametrize("shape,size", [((2, 7, 7, 3), 2), ((2, 3, 3, 3), 2),
                                            ((2, 8, 6, 3), 2)])
    def test_matches_reference(self, shape, size, rng):
        x = rng.normal(size=shape)
        y, (dx,) = run_op(nn.maxpool2d, [x], 2)
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


class TestBilinearSample:
    """The zero-row sampler against the masked, clipped one. `dx` and `dgrid`
    keep every bit; `y` may differ only in the sign of a zero, where all four
    corners fall outside the image and the reference's clipped neighbour is
    negative (-0.0 there, +0.0 here)."""

    @pytest.mark.parametrize("size,c", [(28, 1), (7, 128), (3, 256)])
    def test_matches_reference(self, size, c, rng):
        n = 8
        x = rng.normal(size=(n, size, size, c))
        # scales up to 2 and shifts up to 1.2 send some samples off the image
        theta = np.concatenate([rng.uniform(-2.0, 2.0, size=(n, 2, 2)),
                                rng.uniform(-1.2, 1.2, size=(n, 2, 1))], axis=2)
        grid = stn.affine_grid(Tensor(theta), size, size).data
        corner = np.floor((grid + 1.0) * 0.5 * (size - 1))
        outside = ((corner < -1) | (corner >= size)).any(axis=-1)
        assert outside.any() and not outside.all()
        assert (x < 0).any()

        y, grads = run_op(stn.bilinear_sample, [x, grid], 6)
        y_ref, grads_ref = run_op(ref.bilinear_sample, [x, grid], 6)
        for got, want in zip(grads, grads_ref):
            assert_same_bits(got, want)
        assert np.array_equal(y, y_ref)
        differ = y.view(np.int64) != y_ref.view(np.int64)
        assert np.all(y[differ] == 0.0)
        assert np.signbit(y_ref[differ]).all() and not np.signbit(y[differ]).any()
        assert not np.signbit(y[outside]).any()


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


class Inline:
    """Its `submit` stands in for `tensor._side`: runs each call at once, on
    the caller."""

    def submit(self, fn):
        done = Future()
        try:
            done.set_result(fn())
        except Exception as exc:
            done.set_exception(exc)
        return done


class TestSideThreadAtRealShapes:
    """The side thread runs the same NumPy calls as an inline run, so at the
    batch-128 shapes of block2, block3 and fc every gradient keeps its bits."""

    @pytest.mark.parametrize("x_shape, k_shape", [((128, 14, 14, 64), (3, 3, 64, 128)),
                                                  ((128, 7, 7, 128), (3, 3, 128, 256))])
    def test_conv2d(self, x_shape, k_shape, monkeypatch, rng):
        arrays = [rng.normal(size=x_shape), rng.normal(size=k_shape),
                  rng.normal(size=k_shape[-1])]
        y, grads = run_op(nn.conv2d, arrays, 7)
        monkeypatch.setattr(tensor, "_side", Inline().submit)
        y_inline, grads_inline = run_op(nn.conv2d, arrays, 7)
        assert_same_bits(y, y_inline)
        for got, want in zip(grads, grads_inline):
            assert_same_bits(got, want)

    def test_matmul(self, monkeypatch, rng):
        arrays = [rng.normal(size=(128, 2304)), rng.normal(size=(2304, 3096))]
        y, grads = run_op(Tensor.matmul, arrays, 8)
        monkeypatch.setattr(tensor, "_side", Inline().submit)
        y_inline, grads_inline = run_op(Tensor.matmul, arrays, 8)
        assert_same_bits(y, y_inline)
        for got, want in zip(grads, grads_inline):
            assert_same_bits(got, want)


def test_batch_128_steps_match_inline_reference_ops(monkeypatch):
    """Two augmented 3-ST steps at batch 128, once on the optimized ops with
    the side thread and once on the reference ops with every side call run
    inline: losses, parameters, BN buffers and Adam moments keep their bits."""
    images = make_synthetic_glyphs(256, seed=5).images

    def train():
        model = Backbone(BackboneConfig(st_layer_count=3), seed=2)
        opt = Adam(model.params())
        stats = [train_epoch(model, images[i * 128:(i + 1) * 128], ThresholdSchedule(), opt,
                             batch_size=128, seed=3, epoch=i + 1, augment=AugmentConfig())
                 for i in range(2)]
        return stats, model.state_dict(), opt

    stats, state, opt = train()
    with monkeypatch.context() as patch:
        ref.install(patch)
        patch.setattr(tensor, "_side", Inline().submit)
        stats_ref, state_ref, opt_ref = train()
    assert opt.t == opt_ref.t == 2
    assert stats == stats_ref
    assert state.keys() == state_ref.keys()
    for name in state:
        assert_same_bits(state[name], state_ref[name])
    for got, want in zip(opt.m + opt.v, opt_ref.m + opt_ref.v):
        assert_same_bits(got, want)


@pytest.fixture
def side_calls(monkeypatch):
    """The side work of every `tensor.both` call, in call order."""
    calls = []
    both = tensor.both

    def counting(f, g):
        calls.append(f)
        return both(f, g)
    monkeypatch.setattr(tensor, "both", counting)
    return calls


def split_and_whole(monkeypatch, side_calls, run):
    """run() as split, then with both split thresholds at infinity; the count
    of side calls of each."""
    got = run()
    n_split = len(side_calls)
    with monkeypatch.context() as patch:
        patch.setattr(tensor, "SPLIT_MIN_WORK", float("inf"))
        patch.setattr(tensor, "SPLIT_MIN_FLOATS", float("inf"))
        want = run()
    return got, want, n_split, len(side_calls) - n_split


class TestForwardSplit:
    """The forward GEMMs split by batch rows against the same GEMMs unsplit
    (both thresholds at infinity): the same bytes, and a split only where
    both halves stay far above OpenBLAS's small-matrix bound."""

    def conv2d(self, batch, x_shape, k_shape, padding, monkeypatch, side_calls, rng):
        args = [Tensor(rng.normal(size=(batch,) + x_shape)), Tensor(rng.normal(size=k_shape)),
                Tensor(rng.normal(size=k_shape[-1]))]
        return split_and_whole(monkeypatch, side_calls,
                                    lambda: nn.conv2d(*args, padding).data)

    @pytest.mark.parametrize("batch", [128, 256])
    @pytest.mark.parametrize("x_shape, k_shape", [((28, 28, 1), (3, 3, 1, 64)),
                                                  ((14, 14, 64), (3, 3, 64, 128)),
                                                  ((7, 7, 128), (3, 3, 128, 256))],
                             ids=["block1", "block2", "block3"])
    def test_conv2d(self, batch, x_shape, k_shape, monkeypatch, side_calls, rng):
        got, want, n_split, n_whole = self.conv2d(batch, x_shape, k_shape, "same",
                                                  monkeypatch, side_calls, rng)
        assert (n_split, n_whole) == (1, 0)
        assert_same_bits(got, want)

    def test_st1_localization_conv_stays_whole(self, monkeypatch, side_calls, rng):
        # M=128, K=500, N=20: halves of 0.64M multiply-adds would fall below
        # the small-matrix bound, and halving there did change the bytes
        got, want, n_split, n_whole = self.conv2d(128, (5, 5, 20), (5, 5, 20, 20), "valid",
                                                  monkeypatch, side_calls, rng)
        assert (n_split, n_whole) == (0, 0)
        assert_same_bits(got, want)

    @pytest.mark.parametrize("batch", [128, 256])
    @pytest.mark.parametrize("d_in, d_out", [(2304, 3096), (6272, 50)],
                             ids=["fc", "st2-loc-dense1"])
    def test_matmul(self, batch, d_in, d_out, monkeypatch, side_calls, rng):
        a, b = Tensor(rng.normal(size=(batch, d_in))), Tensor(rng.normal(size=(d_in, d_out)))
        got, want, n_split, n_whole = split_and_whole(
            monkeypatch, side_calls, lambda: a.matmul(b).data)
        assert (n_split, n_whole) == (1, 0)
        assert_same_bits(got, want)

    @pytest.mark.parametrize("count", [1, 3])
    def test_predict_features(self, count, monkeypatch, side_calls):
        # 385 images: a last batch of 129, whose trunk convs split while st1's
        # loc/conv2 (M=129) does not
        images = make_synthetic_glyphs(385, seed=count).images
        model = Backbone(BackboneConfig(st_layer_count=count), seed=4)
        test_dac.TestEvalPoolsFirst.perturbed(model, count)
        got, want, n_split, n_whole = split_and_whole(
            monkeypatch, side_calls, lambda: predict_features(model, images))
        # per batch, the GEMMs: three trunk convs and fc, plus st2's
        # loc/dense1. The per-image passes: in each conv block (a gamma < 0
        # keeps the graph order) its BN, pool, ReLU and pool BN, then fc's
        # BN and ReLU, 14 in all; and st1's second localization pool
        # (10x10x20) in the batch of 256 only, since a half of 64 images holds
        # 128000 floats, below SPLIT_MIN_FLOATS
        assert n_split == 2 * (4 + (count >= 2)) + 2 * 14 + 1 and n_whole == 0
        assert_same_bits(got, want)


class TestConvBlocks:
    """conv2d's forward and input gradient built in blocks of images against
    one block per call (`COLS_BLOCK_FLOATS` far above any batch's columns):
    the same bytes for the output and every gradient, with the blocks the
    rule gives. Batch 129's halves of 64 and 65 images cut into unequal
    blocks."""

    @pytest.fixture
    def gemms(self, monkeypatch):
        """The images of each np.matmul call, by the thread that made it."""
        seen = []
        matmul = np.matmul

        def recording(a, b, **kwargs):
            seen.append((len(a), threading.get_ident()))
            return matmul(a, b, **kwargs)
        monkeypatch.setattr(np, "matmul", recording)
        return seen

    @pytest.mark.parametrize("batch", [2, 129, 256])
    @pytest.mark.parametrize("x_shape, k_shape, per_block",
                             [((14, 14, 64), (3, 3, 64, 128), 9),
                              ((7, 7, 128), (3, 3, 128, 256), 18)],
                             ids=["block2", "block3"])
    def test_matches_one_block(self, batch, x_shape, k_shape, per_block, gemms,
                               monkeypatch, rng):
        arrays = [rng.normal(size=(batch,) + x_shape), rng.normal(size=k_shape),
                  rng.normal(size=k_shape[-1])]
        y, grads = run_op(nn.conv2d, arrays, 7)
        pixels = x_shape[0] * x_shape[1]
        blocks = [(rows // pixels, ident) for rows, ident in gemms]
        with monkeypatch.context() as patch:
            patch.setattr(nn, "COLS_BLOCK_FLOATS", 1 << 62)
            y_one, grads_one = run_op(nn.conv2d, arrays, 7)
        assert_same_bits(y, y_one)
        for got, want in zip(grads, grads_one, strict=True):
            assert_same_bits(got, want)

        # forward's blocks cover each thread's half, then backward's cover
        # the batch on the caller; every block holds per_block images or more
        # (or the whole range) and fewer than 2 * per_block
        split = batch // 2 * pixels * int(np.prod(k_shape)) >= tensor.SPLIT_MIN_WORK
        halves = [batch // 2, batch - batch // 2] if split else [batch]
        count = sum(max(h // per_block, 1) for h in halves)
        forward, backward = blocks[:count], blocks[count:]
        assert sorted(sum(n for n, t in forward if t == ident)
                      for ident in {t for _, t in forward}) == halves
        assert backward == [(n, threading.get_ident()) for n, _ in backward]
        assert sum(n for n, _ in backward) == batch
        assert len(backward) == max(batch // per_block, 1)
        assert all(min(per_block, batch) <= n < 2 * per_block for n, _ in blocks)

    def test_block1_is_one_block_per_half(self, gemms, rng):
        x = Tensor(rng.normal(size=(128, 28, 28, 1)), requires_grad=True)
        nn.conv2d(x, Tensor(rng.normal(size=(3, 3, 1, 64))),
                  Tensor(rng.normal(size=64)))._backward(rng.normal(size=(128, 28, 28, 64)))
        # two forward halves of 64 images, then one input gradient of 128
        assert sorted(rows // 784 for rows, _ in gemms[:2]) == [64, 64]
        assert [(rows // 784, t) for rows, t in gemms[2:]] == [(128, threading.get_ident())]


def splits(batch, row):
    """Whether a per-image pass over `batch` rows of `row` floats splits: when
    the smaller half holds 2^17 floats (`tensor.SPLIT_MIN_FLOATS`) or more."""
    return batch // 2 * row >= 1 << 17


BATCHES = [2, 128, 129, 256]
# block1's full map at batch 256 (0.1 GB an array) is left out: batches
# 128 and 129 cover its shape
BN_CASES = [pytest.param(batch, shape, id=f"{name}-{batch}")
            for name, shape in [("block1", (28, 28, 64)), ("block1-pooled", (14, 14, 64)),
                                ("block2", (14, 14, 128)), ("block2-pooled", (7, 7, 128)),
                                ("block3", (7, 7, 256)), ("block3-pooled", (3, 3, 256)),
                                ("fc", (3096,)), ("head", (10,))]
            for batch in BATCHES if (batch, name) != (256, "block1")]


class TestPerImageSplit:
    """Batch norm's per-image passes, 2x2 pooling and ReLU split by images
    against the same ops whole (both thresholds at infinity), at the shapes
    the backbone runs them: the same bytes, and a split wherever a half holds
    `SPLIT_MIN_FLOATS` floats or more. Batch 129 is `predict_features`' last
    batch, with halves of 64 and 65 images."""

    @staticmethod
    def run_op(op, arrays, g, *args):
        """Forward `op` on fresh leaves and push `g` back: the output, the
        leaves' gradients and the buffers in `args`, copied."""
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        args = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
        out = op(*leaves, *args)
        out._backward(g)
        return [out.data] + [t.grad for t in leaves] + [a for a in args
                                                        if isinstance(a, np.ndarray)]

    def check(self, monkeypatch, side_calls, run, passes, split):
        got, want, n_split, n_whole = split_and_whole(monkeypatch, side_calls, run)
        assert n_split - n_whole == (passes if split else 0)
        for a, b in zip(got, want, strict=True):
            assert_same_bits(a, b)

    @pytest.mark.parametrize("batch, shape", BN_CASES)
    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_batch_norm(self, train, batch, shape, monkeypatch, side_calls, rng):
        c = shape[-1]
        arrays = [rng.normal(1.5, 2.0, size=(batch,) + shape), rng.normal(size=c),
                  rng.normal(size=c)]
        buffers = [rng.normal(size=c), rng.random(c) + 0.5]
        g = rng.normal(size=arrays[0].shape)
        # train: centre and square, scale and shift, then backward's
        # recompute and dx tail; eval: one forward pass and the recompute
        self.check(monkeypatch, side_calls,
                   lambda: self.run_op(nn.batch_norm, arrays, g, *buffers, train),
                   4 if train else 2, splits(batch, int(np.prod(shape))))

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("shape", [(28, 28, 1), (28, 28, 64), (10, 10, 20), (14, 14, 128),
                                       (7, 7, 256)],
                             ids=["st1-loc-pool1", "block1", "st1-loc-pool2", "block2",
                                  "block3"])
    def test_maxpool2d(self, shape, batch, monkeypatch, side_calls, rng):
        # few distinct values, so most windows hold their maximum twice or more
        x = rng.integers(0, 3, size=(batch,) + shape).astype(np.float64)
        g = rng.normal(size=(batch, shape[0] // 2, shape[1] // 2, shape[2]))
        self.check(monkeypatch, side_calls, lambda: self.run_op(nn.maxpool2d, [x], g),
                   2, splits(batch, int(np.prod(shape))))

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("shape", [(14, 14, 64), (7, 7, 128), (3, 3, 256), (3096,)],
                             ids=["block1", "block2", "block3", "fc"])
    def test_relu(self, shape, batch, monkeypatch, side_calls, rng):
        # zeros of both signs, where the mask and max(x, 0) must keep their bits
        x = rng.integers(-2, 3, size=(batch,) + shape) * rng.normal(size=(batch,) + shape)
        x[rng.random(x.shape) < 0.1] = -0.0
        g = rng.normal(size=x.shape)
        self.check(monkeypatch, side_calls, lambda: self.run_op(Tensor.relu, [x], g),
                   1, splits(batch, int(np.prod(shape))))
