"""Pairwise-clustering engine tests: backbone, labels, loss, schedule, fit."""

import contextlib
import ctypes
import dataclasses
import resource
import tracemalloc

import numpy as np
import pytest

from stdac.dac import (
    Backbone,
    BackboneConfig,
    ThresholdSchedule,
    TrainSettings,
    cluster_assign,
    dac_loss,
    evaluate,
    fit,
    generate_pair_labels,
    pairwise_similarity,
    predict_features,
    train_epoch,
)
from stdac.dataio import AugmentConfig, make_synthetic_glyphs
from stdac.errors import ConfigurationError, GraphReleased, NoSelectedPairs
from stdac.nn import Parameter
from stdac.optim import Adam
from stdac.tensor import Tensor, no_grad


class TestBackbone:
    @pytest.mark.parametrize("count", [-1, 4, 7])
    def test_invalid_st_count_rejected(self, count):
        with pytest.raises(ConfigurationError):
            Backbone(BackboneConfig(st_layer_count=count))

    @pytest.mark.parametrize("count", [1, 0])
    def test_single_cluster_rejected_at_config(self, count):
        with pytest.raises(ConfigurationError, match="cluster_count"):
            BackboneConfig(cluster_count=count)

    def test_forward_rows_are_unit_norm_probabilities(self, rng):
        model = Backbone(BackboneConfig(st_layer_count=0, cluster_count=10))
        out = model(Tensor(rng.uniform(size=(4, 28, 28, 1))), train=True).data
        assert out.shape == (4, 10)
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)

    def test_st_placements_sizes_and_channels(self):
        model = Backbone(BackboneConfig(st_layer_count=3))
        assert (model.st1.size, model.st2.size, model.st3.size) == (28, 7, 3)
        # each localization net reads its map's channels: 1, 128 and 256
        assert model.st1.locnet.conv1.kernel.shape[2] == 1
        assert model.st2.locnet.dense1.weight.shape[0] == 7 * 7 * 128
        assert model.st3.locnet.dense1.weight.shape[0] == 3 * 3 * 256
        # only the 28x28 placement fits the conv stack; the 7x7 and 3x3
        # localization nets are dense only
        assert model.st1.locnet.conv1 is not None
        assert model.st2.locnet.conv1 is None
        assert model.st3.locnet.conv1 is None

    def test_st_count_prefix_order(self):
        m1 = Backbone(BackboneConfig(st_layer_count=1))
        assert m1.st1 is not None and m1.st2 is None and m1.st3 is None
        m2 = Backbone(BackboneConfig(st_layer_count=2))
        assert m2.st1 is not None and m2.st2 is not None and m2.st3 is None

    def test_shared_layers_init_identically_across_variants(self):
        a = Backbone(BackboneConfig(st_layer_count=0), seed=5)
        b = Backbone(BackboneConfig(st_layer_count=3), seed=5)
        np.testing.assert_array_equal(a.conv1.kernel.data, b.conv1.kernel.data)
        np.testing.assert_array_equal(a.fc.weight.data, b.fc.weight.data)
        np.testing.assert_array_equal(a.head.weight.data, b.head.weight.data)

    def test_param_names_unique(self):
        model = Backbone(BackboneConfig(st_layer_count=3))
        names = [p.name for p in model.params()]
        assert len(names) == len(set(names))

    def test_predict_features_matches_eval_forward(self, rng):
        model = Backbone(BackboneConfig(st_layer_count=0, cluster_count=4,
                                        input_size=8))
        x = rng.uniform(size=(5, 8, 8, 1))
        with no_grad():
            direct = model(Tensor(x), train=False).data
        # chunk size changes BLAS blocking, so only near-exact, not bitwise
        chunked = predict_features(model, x, batch_size=2)
        np.testing.assert_allclose(chunked, direct, rtol=0, atol=1e-12)


class TestEvalPoolsFirst:
    """`predict_features` pools each conv block before its BN and ReLU; the
    features must carry the bytes of the BN -> ReLU -> pool order, which an
    eval forward that records a graph still runs."""

    @staticmethod
    def perturbed(model, seed):
        """Mixed-sign gamma with some zeros in the conv blocks, nonzero
        running statistics in every BN."""
        rng = np.random.default_rng(seed)
        for name, bn in vars(model).items():
            if not name.startswith(("bn", "fc_bn", "head_bn")):
                continue
            c = bn.gamma.size
            if name in ("bn1", "bn2", "bn3"):
                bn.gamma.data[:] = rng.normal(size=c)
                bn.gamma.data[::5] = 0.0
                bn.beta.data[:] = rng.normal(scale=0.1, size=c)
            bn.running_mean[:] = rng.normal(scale=0.1, size=c)
            bn.running_var[:] = rng.random(c) + 0.5

    @pytest.mark.parametrize("perturb", [False, True], ids=["init", "mixed-gamma"])
    @pytest.mark.parametrize("count", [0, 1, 2, 3])
    def test_same_bytes_as_the_graph_order(self, count, perturb):
        images = make_synthetic_glyphs(13, seed=count, classes=4).images
        model = Backbone(BackboneConfig(st_layer_count=count, cluster_count=4), seed=4)
        if perturb:
            self.perturbed(model, count)
            assert (model.bn2.gamma.data < 0).any() and (model.bn2.gamma.data == 0).any()
        want = model(Tensor(images), train=False).data
        got = predict_features(model, images)
        assert np.isfinite(got).all()
        assert got.tobytes() == want.tobytes()


class TestPairwiseSimilarity:
    def test_one_hot_rows(self):
        f = Tensor(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        s = pairwise_similarity(f).data
        assert s[0, 1] == 1.0
        assert s[0, 2] == 0.0

    def test_frozen_dot_product(self):
        f = Tensor(np.array([[0.6, 0.8], [0.8, 0.6]]))
        s = pairwise_similarity(f).data
        assert s[0, 1] == pytest.approx(0.96)
        assert s[1, 0] == pytest.approx(0.96)

    def test_symmetric_unit_interval_for_unit_rows(self, rng):
        f = np.abs(rng.normal(size=(6, 4)))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        s = pairwise_similarity(Tensor(f)).data
        np.testing.assert_allclose(s, s.T)
        assert np.all(s >= 0.0) and np.all(s <= 1.0 + 1e-12)
        np.testing.assert_allclose(np.diag(s), 1.0)


class TestGeneratePairLabels:
    def test_trichotomy_frozen_examples(self):
        sched = ThresholdSchedule(u0=0.99, l0=0.9, rate=0.0045)
        s = np.array([[0.995, 0.5], [0.95, 0.995]])
        r, v = generate_pair_labels(s, sched)
        assert (r[0, 0], v[0, 0]) == (1.0, 1.0)   # >= u: positive
        assert (r[0, 1], v[0, 1]) == (0.0, 1.0)   # < l: negative
        assert (r[1, 0], v[1, 0]) == (0.0, 0.0)   # in the band: excluded

    def test_counts_cover_all_pairs(self, rng):
        s = rng.uniform(size=(9, 9))
        r, v = generate_pair_labels(s, ThresholdSchedule())
        positives = int((r * v).sum())
        negatives = int(((1 - r) * v).sum())
        excluded = int((1 - v).sum())
        assert positives + negatives + excluded == 81

    def test_symmetric_for_symmetric_similarity(self, rng):
        s = rng.uniform(size=(7, 7))
        s = (s + s.T) / 2
        r, v = generate_pair_labels(s, ThresholdSchedule())
        np.testing.assert_array_equal(r, r.T)
        np.testing.assert_array_equal(v, v.T)

    def test_diagonal_exclusion_flag(self):
        s = np.eye(3)
        _, v = generate_pair_labels(s, ThresholdSchedule(), include_diagonal=False)
        np.testing.assert_array_equal(np.diag(v), 0.0)

    def test_selection_monotone_in_lambda(self, rng):
        s = rng.uniform(size=(12, 12))
        sched = ThresholdSchedule(u0=0.99, l0=0.3, rate=0.02)
        prev = np.zeros_like(s)
        for _ in range(20):
            _, v = generate_pair_labels(s, sched)
            assert np.all(v >= prev), "a selected pair was deselected by raising lambda"
            prev = v
            sched = sched.advanced()
            if sched.stop:
                break


class TestDacLoss:
    def test_perfect_positive_pair_is_free(self):
        s = Tensor(np.array([[1.0]]))
        loss = dac_loss(s, np.ones((1, 1)), np.ones((1, 1)))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-6)

    def test_frozen_value_positive_pair(self):
        s = Tensor(np.array([[0.9]]))
        loss = dac_loss(s, np.ones((1, 1)), np.ones((1, 1)))
        assert float(loss.data) == pytest.approx(0.105360516, abs=1e-9)

    def test_frozen_value_negative_pair(self):
        s = Tensor(np.array([[0.1]]))
        loss = dac_loss(s, np.zeros((1, 1)), np.ones((1, 1)))
        assert float(loss.data) == pytest.approx(0.105360516, abs=1e-9)

    def test_mean_over_selected_pairs_only(self):
        s = Tensor(np.array([[0.9, 0.5], [0.1, 0.2]]))
        r = np.array([[1.0, 1.0], [0.0, 0.0]])
        v = np.array([[1.0, 0.0], [1.0, 1.0]])
        got = float(dac_loss(s, r, v).data)
        want = (-np.log(0.9) - np.log(1 - 0.1) - np.log(1 - 0.2)) / 3
        assert got == pytest.approx(want, rel=1e-12)

    def test_no_selected_pairs_raises(self):
        s = Tensor(np.array([[0.95]]))
        with pytest.raises(NoSelectedPairs):
            dac_loss(s, np.zeros((1, 1)), np.zeros((1, 1)))

    def test_degenerate_thresholds_reduce_to_mean_log_loss(self, rng):
        f = np.abs(rng.normal(size=(5, 3))) + 0.1
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        s = pairwise_similarity(Tensor(f))
        sched = ThresholdSchedule(u0=0.0, l0=0.0, rate=0.0)
        r, v = generate_pair_labels(s.data, sched)
        np.testing.assert_array_equal(r, np.ones_like(s.data))
        np.testing.assert_array_equal(v, np.ones_like(s.data))
        got = float(dac_loss(s, r, v).data)
        want = float(np.mean(-np.log(np.clip(s.data, 1e-7, 1 - 1e-7))))
        assert got == pytest.approx(want, rel=1e-12)

    def test_gradient_through_backbone_matches_finite_differences(self, rng):
        # constant pair labels, margins kept clear of the clamp boundaries so
        # central differences see a smooth function
        model = Backbone(BackboneConfig(st_layer_count=1, cluster_count=4,
                                        input_size=8), seed=3)
        model.st1.locnet.head.weight.data[:] = rng.normal(size=(50, 6)) * 0.001
        model.head.weight.data *= 30.0
        x = Tensor(rng.uniform(size=(4, 8, 8, 1)))

        with no_grad():
            s0 = pairwise_similarity(model(x, train=True)).data
        med = np.median(s0)
        r = (s0 >= med).astype(np.float64)
        v = ((s0 > 1e-3) & (s0 < 1 - 1e-3)).astype(np.float64)
        np.fill_diagonal(v, 0.0)
        assert v.sum() >= 4, "toy batch produced too few usable pairs"

        def loss():
            return dac_loss(pairwise_similarity(model(x, train=True)), r, v)

        out = loss()
        out.backward()
        # check each layer at its best-conditioned coordinate; the theta bias
        # moves every downstream activation, so its FD step must stay small
        # enough not to cross a relu kink
        checks = [
            (model.conv1.kernel, 1e-5),
            (model.fc.weight, 1e-5),
            (model.head.weight, 1e-5),
            (model.bn2.gamma, 1e-5),
            (model.st1.locnet.head.bias, 1e-6),
        ]
        for param, eps in checks:
            idx = np.unravel_index(np.argmax(np.abs(param.grad)), param.grad.shape)
            analytic = param.grad[idx]
            orig = param.data[idx]
            with no_grad():
                param.data[idx] = orig + eps
                fp = float(loss().data)
                param.data[idx] = orig - eps
                fm = float(loss().data)
                param.data[idx] = orig
            numeric = (fp - fm) / (2 * eps)
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            assert rel <= 1e-4, f"{param.name}{idx}: rel err {rel:.2e}"


class TestThresholdSchedule:
    def test_default_schedule_stops_after_ten_epochs(self):
        sched = ThresholdSchedule(u0=0.99, l0=0.9, rate=0.0045)
        epochs = 0
        while True:
            epochs += 1
            sched = sched.advanced()
            if sched.stop:
                break
        assert epochs == 10

    def test_faster_rate_stops_after_eight(self):
        sched = ThresholdSchedule(u0=0.99, l0=0.9, rate=0.006)
        epochs = 0
        while not sched.advanced().stop:
            sched = sched.advanced()
            epochs += 1
        assert epochs + 1 == 8

    def test_zero_rate_never_stops(self):
        sched = ThresholdSchedule(rate=0.0)
        for _ in range(100):
            sched = sched.advanced()
            assert not sched.stop

    def test_inverted_band_rejected(self):
        with pytest.raises(ConfigurationError, match="u0"):
            ThresholdSchedule(u0=0.5, l0=0.9)

    def test_threshold_algebra(self):
        sched = ThresholdSchedule(u0=0.99, l0=0.9, rate=0.0045)
        for _ in range(3):
            sched = sched.advanced()
        assert sched.lam == pytest.approx(0.0135)
        assert sched.u == pytest.approx(0.99 - 0.0135)
        assert sched.l == pytest.approx(0.9 + 0.0135)


class TestClusterAssign:
    def test_one_hot_row(self):
        assert cluster_assign(np.eye(5)[[3]])[0] == 3

    def test_tie_breaks_to_smallest_index(self):
        assert cluster_assign(np.array([[0.4, 0.4, 0.2]]))[0] == 0

    def test_matches_row_scan_oracle(self, rng):
        f = rng.uniform(size=(40, 6))
        got = cluster_assign(f)
        for i in range(40):
            best = 0
            for c in range(1, 6):
                if f[i, c] > f[i, best]:
                    best = c
            assert got[i] == best


def tiny_settings(**overrides):
    base = dict(
        backbone=BackboneConfig(st_layer_count=0, cluster_count=4),
        schedule=ThresholdSchedule(u0=0.95, l0=0.6, rate=0.02),
        max_epochs=2,
        batch_size=16,
        seed=11,
        augment=AugmentConfig(rotation_degrees=8.0, translate_fraction=0.05,
                              scale_range=(0.95, 1.05)),
    )
    base.update(overrides)
    return TrainSettings(**base)


class TestTrainingLoop:
    def test_fixed_seed_reproduces_trajectory_bitwise(self):
        data = make_synthetic_glyphs(48, seed=2, classes=4)
        runs = []
        for _ in range(2):
            result = fit(tiny_settings(), data.images, data.labels)
            runs.append(result)
        assert [dataclasses.astuple(r) for r in runs[0].records] == \
               [dataclasses.astuple(r) for r in runs[1].records]
        for a, b in zip(runs[0].model.params(), runs[1].model.params()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_ground_truth_labels_never_touch_training(self):
        data = make_synthetic_glyphs(48, seed=2, classes=4)
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(data.labels)
        a = fit(tiny_settings(max_epochs=1), data.images, data.labels)
        b = fit(tiny_settings(max_epochs=1), data.images, shuffled)
        for pa, pb in zip(a.model.params(), b.model.params()):
            np.testing.assert_array_equal(pa.data, pb.data)
        for (na, ba), (nb, bb) in zip(a.model.buffers(), b.model.buffers()):
            assert na == nb
            np.testing.assert_array_equal(ba, bb)

    def test_impossible_thresholds_raise(self):
        data = make_synthetic_glyphs(24, seed=2, classes=4)
        settings = tiny_settings(schedule=ThresholdSchedule(u0=2.0, l0=-1.0, rate=0.0))
        with pytest.raises(NoSelectedPairs):
            fit(settings, data.images, data.labels)

    def test_max_epochs_zero_reports_initialization(self):
        data = make_synthetic_glyphs(24, seed=2, classes=4)
        result = fit(tiny_settings(max_epochs=0), data.images, data.labels)
        assert len(result.records) == 1
        rec = result.records[0]
        assert rec.epoch == 0
        assert np.isnan(rec.loss)
        assert 0.0 <= rec.acc <= 1.0
        assert result.best_epoch == 0

    def test_schedule_stop_preempts_max_epochs(self):
        data = make_synthetic_glyphs(24, seed=2, classes=4)
        settings = tiny_settings(max_epochs=50,
                                 schedule=ThresholdSchedule(u0=0.95, l0=0.6, rate=0.2))
        result = fit(settings, data.images, data.labels)
        assert len(result.records) == 1

    def test_one_record_per_epoch_with_schedule_columns(self):
        data = make_synthetic_glyphs(24, seed=2, classes=4)
        result = fit(tiny_settings(), data.images, data.labels)
        assert [r.epoch for r in result.records] == [1, 2]
        for i, rec in enumerate(result.records):
            assert rec.lam == pytest.approx(0.02 * i)
            assert rec.u == pytest.approx(0.95 - 0.02 * i)
            assert rec.l == pytest.approx(0.6 + 0.02 * i)

    def test_evaluate_without_labels_is_nan(self):
        data = make_synthetic_glyphs(8, seed=2, classes=4)
        model = Backbone(BackboneConfig(st_layer_count=0, cluster_count=4))
        acc, nmi_v, ari_v = evaluate(model, data.images, None)
        assert np.isnan(acc) and np.isnan(nmi_v) and np.isnan(ari_v)

    def test_train_epoch_reports_selected_fraction(self):
        data = make_synthetic_glyphs(16, seed=2, classes=4)
        model = Backbone(BackboneConfig(st_layer_count=0, cluster_count=4), seed=1)
        opt = Adam(model.params(), 1e-4)
        stats = train_epoch(model, data.images, ThresholdSchedule(u0=0.0, l0=0.0),
                            opt, batch_size=8, seed=1, epoch=1, augment=None)
        assert stats.selected_fraction == 1.0
        assert stats.skipped_batches == 0
        assert np.isfinite(stats.loss)


def graph_nodes(root):
    """Every node a backward sweep from `root` visits."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(p for p in node._parents if p.requires_grad)
    return list(seen.values())


class TestGraphRelease:
    def st3_loss(self):
        images = make_synthetic_glyphs(4, seed=2, classes=4).images
        model = Backbone(BackboneConfig(st_layer_count=3, cluster_count=4), seed=1)
        sim = pairwise_similarity(model(Tensor(images), train=True))
        r, v = generate_pair_labels(sim.data, ThresholdSchedule(u0=0.5, l0=0.5))
        return model, dac_loss(sim, r, v)

    def test_backward_releases_every_interior_node(self):
        model, loss = self.st3_loss()
        nodes = graph_nodes(loss)
        params = model.params()
        loss.backward()
        interior = [n for n in nodes if not isinstance(n, Parameter)]
        assert len(interior) > len(params)
        for node in interior:
            assert node.grad is None and node._backward is None and not node._parents, node
        assert all(p.grad is not None for p in params)

    def test_second_backward_raises(self):
        _, loss = self.st3_loss()
        loss.backward()
        with pytest.raises(GraphReleased, match="already swept"):
            loss.backward()


class TestTrainEpochMemory:
    """A batch's graph is gone before the next batch's forward, so a second
    batch does not raise an epoch's peak."""

    @pytest.mark.parametrize("skip", [False, True], ids=["trained", "skipped"])
    def test_two_batches_peak_like_one(self, skip):
        images = make_synthetic_glyphs(64, seed=3).images
        # u0 == l0 selects every pair; u0 = 2 and l0 = -1 select none
        schedule = ThresholdSchedule(u0=2.0, l0=-1.0) if skip else \
            ThresholdSchedule(u0=0.5, l0=0.5)

        def peak(batches):
            model = Backbone(BackboneConfig(st_layer_count=3), seed=1)
            opt = Adam(model.params())
            tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                with pytest.raises(NoSelectedPairs) if skip else contextlib.nullcontext():
                    train_epoch(model, images[:32 * batches], schedule, opt,
                                batch_size=32, seed=0, epoch=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, two = peak(1), peak(2)
        assert two <= 1.1 * one, (one, two)


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


class TestTrainStepFaults:
    """A training step reuses the memory the previous step freed rather than
    mapping it from the OS again (the allocator policy in stdac.tensor)."""

    @pytest.mark.skipif(not _has_mallopt(), reason="the allocator policy needs glibc mallopt")
    def test_third_step_takes_few_page_faults(self):
        images = make_synthetic_glyphs(64, seed=3).images
        model = Backbone(BackboneConfig(st_layer_count=3), seed=1)
        opt = Adam(model.params())
        schedule = ThresholdSchedule(u0=0.5, l0=0.5)

        def step():
            train_epoch(model, images, schedule, opt, batch_size=64, seed=0, epoch=1)

        step()
        step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        step()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        # batch 64 maps 11-13k pages per step when freed arrays go back to the OS
        assert faults <= 1000, faults
