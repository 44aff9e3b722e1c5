"""Acceptance gate: one test per numbered release criterion.

Each test wraps its body in `criterion(...)`, which records a PASS, FAIL, or
SKIP verdict that conftest prints as one line per criterion at the end of the
run. Tolerances, case counts, and time budgets are asserted inline, at the
values the criteria state. Tests that need the official IDX digit corpus skip
honestly when the files are not present rather than substituting weaker data.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import mnist_dir, record_criterion
from gradcheck import gradcheck
from oracles import brute_force_accuracy, direct_entropy_nmi, pair_counting_ari
from stdac.dac import (
    Backbone,
    BackboneConfig,
    ThresholdSchedule,
    TrainSettings,
    dac_loss,
    fit,
    generate_pair_labels,
    pairwise_similarity,
)
from stdac.dataio import AugmentConfig, load_idx, make_synthetic_glyphs, read_idx, write_idx
from stdac.harness import ExperimentConfig, config_from_text, find_idx_pair, run_experiment
from stdac.metrics import ari, clustering_accuracy, nmi
from stdac.nn import batch_norm, conv2d, dense, softmax_rows
from stdac.stn import affine_grid, bilinear_sample
from stdac.tensor import Tensor


@contextmanager
def criterion(n: int, desc: str):
    try:
        yield
    except pytest.skip.Exception as exc:
        record_criterion(n, desc, f"SKIP ({exc})")
        raise
    except AssertionError:
        record_criterion(n, desc, "FAIL")
        raise
    except Exception:
        record_criterion(n, desc, "ERROR")
        raise
    record_criterion(n, desc, "PASS")


# ---------------------------------------------------------------------------
# 1: finite-difference gradient audit of every differentiable building block


def test_criterion_1_gradient_suite():
    with criterion(1, "gradients of all core ops match central differences "
                      "(rel err <= 1e-4, 100 random cases per op, < 5 min)"):
        start = time.perf_counter()
        rng = np.random.default_rng(20260115)
        cases = 100
        worst: dict[str, float] = {}

        def run(name, build):
            w = 0.0
            for i in range(cases):
                func, inputs = build(i)
                w = max(w, gradcheck(func, inputs))
            worst[name] = w

        def conv_case(i):
            x = Tensor(rng.normal(size=(2, 4, 4, 2)), requires_grad=True)
            k = Tensor(rng.normal(size=(3, 3, 2, 2)) * 0.5, requires_grad=True)
            b = Tensor(rng.normal(size=(2,)), requires_grad=True)
            pad = "same" if i % 2 == 0 else "valid"
            out = 4 if pad == "same" else 2
            w = rng.normal(size=(2, out, out, 2))
            return (lambda x_, k_, b_:
                    (conv2d(x_, k_, b_, pad) * Tensor(w)).sum()), (x, k, b)

        def dense_case(_):
            x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            wt = Tensor(rng.normal(size=(4, 5)) * 0.5, requires_grad=True)
            b = Tensor(rng.normal(size=(5,)), requires_grad=True)
            w = rng.normal(size=(3, 5))
            return (lambda x_, w_, b_:
                    (dense(x_, w_, b_) * Tensor(w)).sum()), (x, wt, b)

        def bn_case(i):
            shape = (4, 3) if i % 2 == 0 else (2, 3, 3, 2)
            c = shape[-1]
            x = Tensor(rng.normal(size=shape), requires_grad=True)
            g = Tensor(rng.uniform(0.5, 1.5, size=(c,)), requires_grad=True)
            b = Tensor(rng.normal(size=(c,)), requires_grad=True)
            w = rng.normal(size=shape)
            rm, rv = np.zeros(c), np.ones(c)
            return (lambda x_, g_, b_:
                    (batch_norm(x_, g_, b_, rm, rv, train=True)
                     * Tensor(w)).sum()), (x, g, b)

        def relu_case(_):
            raw = rng.normal(size=(4, 6))
            # keep every activation at least 0.05 from the kink; FD step is 1e-5
            x = Tensor(np.where(raw >= 0, raw + 0.05, raw - 0.05),
                       requires_grad=True)
            w = rng.normal(size=(4, 6))
            return (lambda x_: (x_.relu() * Tensor(w)).sum()), (x,)

        def tanh_case(_):
            x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
            w = rng.normal(size=(4, 6))
            return (lambda x_: (x_.tanh() * Tensor(w)).sum()), (x,)

        def softmax_case(_):
            x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
            w = rng.normal(size=(3, 5))
            return (lambda x_: (softmax_rows(x_) * Tensor(w)).sum()), (x,)

        def grid_case(_):
            theta = Tensor(rng.normal(size=(2, 2, 3)) * 0.3, requires_grad=True)
            w = rng.normal(size=(2, 3, 4, 2))
            return (lambda t_: (affine_grid(t_, 3, 4) * Tensor(w)).sum()), (theta,)

        def bilinear_case(_):
            x = Tensor(rng.normal(size=(1, 4, 4, 2)), requires_grad=True)
            # sample points with fractional parts in [0.1, 0.9] so the FD step
            # never crosses an interpolation cell boundary
            px = np.arange(3) + rng.uniform(0.1, 0.9, size=3)
            py = np.arange(3) + rng.uniform(0.1, 0.9, size=3)
            gx, gy = px / 1.5 - 1.0, py / 1.5 - 1.0
            grid_data = np.stack(
                np.broadcast_arrays(gx[None, None, :], gy[None, :, None]),
                axis=-1)
            grid = Tensor(grid_data.copy(), requires_grad=True)
            w = rng.normal(size=(1, 3, 3, 2))
            return (lambda x_, g_:
                    (bilinear_sample(x_, g_) * Tensor(w)).sum()), (x, grid)

        def pair_loss_case(_):
            # positive entries bounded away from the [eps, 1-eps] clamp
            f = Tensor(rng.uniform(0.2, 0.9, size=(5, 3)) * 0.55,
                       requires_grad=True)
            s0 = f.data @ f.data.T
            r = (s0 >= np.median(s0)).astype(float)
            v = np.ones_like(r)
            return (lambda f_:
                    dac_loss(pairwise_similarity(f_), r, v)), (f,)

        run("conv2d", conv_case)
        run("dense", dense_case)
        run("batch_norm", bn_case)
        run("relu", relu_case)
        run("tanh", tanh_case)
        run("softmax", softmax_case)
        run("affine_grid", grid_case)
        run("bilinear_sample", bilinear_case)
        run("pair_loss", pair_loss_case)

        elapsed = time.perf_counter() - start
        assert all(v <= 1e-4 for v in worst.values()), worst
        assert elapsed < 300.0, f"gradient suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2: transformers pinned to the identity reproduce the transformer-free net


def test_criterion_2_identity_transformer_equivalence(rng):
    with criterion(2, "backbone with transformers forced to identity matches "
                      "the transformer-free backbone within 1e-9"):
        x = rng.random((4, 28, 28, 1))
        for count in (1, 2, 3):
            # fresh pair per variant so running-stat updates stay in step
            base = Backbone(BackboneConfig(st_layer_count=0), seed=7)
            model = Backbone(BackboneConfig(st_layer_count=count), seed=7)
            for train in (True, False):
                want = base(Tensor(x), train=train).data
                got = model(Tensor(x), train=train,
                            force_identity_theta=True).data
                assert np.max(np.abs(got - want)) <= 1e-9, (count, train)


# ---------------------------------------------------------------------------
# 3: clustering metrics agree with independent oracle implementations


def test_criterion_3_metric_oracles(rng):
    with criterion(3, "ACC matches brute force on 200 random cases exactly; "
                      "NMI/ARI match oracles within 1e-12; degenerate cases"):
        for _ in range(200):
            n = int(rng.integers(2, 41))
            pred = rng.integers(0, rng.integers(1, 6), size=n)
            truth = rng.integers(0, rng.integers(1, 6), size=n)
            assert clustering_accuracy(pred, truth) == \
                brute_force_accuracy(pred, truth)

        for _ in range(100):
            n = int(rng.integers(2, 41))
            pred = rng.integers(0, rng.integers(1, 6), size=n)
            truth = rng.integers(0, rng.integers(1, 6), size=n)
            assert abs(ari(pred, truth) - pair_counting_ari(pred, truth)) <= 1e-12
            assert abs(nmi(pred, truth) - direct_entropy_nmi(pred, truth)) <= 1e-12

        for _ in range(20):
            truth = rng.integers(0, 4, size=30)
            relabeled = rng.permutation(5)[truth]
            assert clustering_accuracy(relabeled, truth) == 1.0
            assert nmi(relabeled, truth) == 1.0
            assert ari(relabeled, truth) == 1.0
            assert abs(ari(np.zeros(30, dtype=int), truth)) <= 1e-12


# ---------------------------------------------------------------------------
# 4: pair labeling trichotomy and the pair-loss unit values


def test_criterion_4_pair_labels_and_loss_values():
    with criterion(4, "similarity trichotomy at u=0.99/l=0.9 and pair loss "
                      "single-pair values match hand-computed numbers"):
        sched = ThresholdSchedule(u0=0.99, l0=0.9, rate=0.0045, lam=0.0)
        s = np.array([[1.0, 0.995, 0.5],
                      [0.995, 1.0, 0.95],
                      [0.5, 0.95, 1.0]])
        r, v = generate_pair_labels(s, sched)
        assert (r[0, 1], v[0, 1]) == (1.0, 1.0)   # 0.995 >= u: positive
        assert (r[0, 2], v[0, 2]) == (0.0, 1.0)   # 0.5 < l: negative
        assert v[1, 2] == 0.0                     # 0.95 inside the band

        one = np.ones((1, 1))
        pos = dac_loss(Tensor(np.array([[0.9]])), one, one)
        neg = dac_loss(Tensor(np.array([[0.1]])), np.zeros((1, 1)), one)
        assert abs(float(pos.data) - 0.105360516) <= 1e-9
        assert abs(float(neg.data) - 0.105360516) <= 1e-9


# ---------------------------------------------------------------------------
# 5: threshold schedule is monotone and stops exactly when the band closes


def test_criterion_5_schedule_monotone_and_stop():
    with criterion(5, "thresholds move monotonically, selection only grows, "
                      "and training stops exactly when l >= u"):
        rng = np.random.default_rng(5)
        s = rng.uniform(0.0, 1.0, size=(12, 12))
        s = (s + s.T) / 2

        sched = ThresholdSchedule()
        steps = 0
        prev_selected = -1.0
        while True:
            nxt = sched.advanced()
            assert nxt.u <= sched.u and nxt.l >= sched.l
            _, v = generate_pair_labels(s, sched)
            assert v.sum() >= prev_selected
            prev_selected = v.sum()
            sched = nxt
            steps += 1
            if sched.stop:
                break
            assert steps < 1000
        # defaults: u0=0.99, l0=0.9, rate=0.0045 close the band on step 10
        assert steps == 10

        # the stop test is exactly l >= u, including equality
        open_band = ThresholdSchedule(u0=1.0, l0=0.0, rate=0.5, lam=0.0)
        assert not open_band.stop
        closed = open_band.advanced()
        assert closed.u == closed.l == 0.5
        assert closed.stop


# ---------------------------------------------------------------------------
# 6: ground-truth labels are measurement-only; shuffling them changes nothing
# about the trained model


def tiny_settings(**overrides):
    base = dict(
        backbone=BackboneConfig(st_layer_count=0, cluster_count=4),
        schedule=ThresholdSchedule(u0=0.95, l0=0.6, rate=0.02),
        max_epochs=2, batch_size=16, seed=11,
        augment=AugmentConfig(rotation_degrees=8.0, translate_fraction=0.05,
                              scale_range=(0.95, 1.05)),
    )
    base.update(overrides)
    return TrainSettings(**base)


def test_criterion_6_labels_do_not_leak():
    with criterion(6, "label shuffling leaves trained parameters bit-identical;"
                      " only the reported metrics change"):
        data = make_synthetic_glyphs(48, seed=2, classes=4)
        rng = np.random.default_rng(9)
        shuffled = rng.permutation(data.labels)
        assert not np.array_equal(shuffled, data.labels)

        a = fit(tiny_settings(), data.images, data.labels)
        b = fit(tiny_settings(), data.images, shuffled)

        sa, sb = a.model.state_dict(), b.model.state_dict()
        assert sorted(sa) == sorted(sb)
        for name in sa:
            assert np.array_equal(sa[name], sb[name]), name
        for ra, rb in zip(a.records, b.records, strict=True):
            assert (ra.epoch, ra.loss, ra.selected_fraction) == \
                (rb.epoch, rb.loss, rb.selected_fraction)
            assert (ra.lam, ra.u, ra.l) == (rb.lam, rb.u, rb.l)


# ---------------------------------------------------------------------------
# 7: a config file fully determines the run, down to the output bytes


def test_criterion_7_byte_identical_reruns(tmp_path):
    with criterion(7, "re-running an experiment from its saved config "
                      "reproduces the run and summary CSVs byte for byte"):
        cfg = ExperimentConfig(
            name="determinism", dataset="synthetic", synthetic_count=32,
            cluster_count=4, st_layer_count=0, batch_size=16, max_epochs=2,
            repeats=2, seed=0, out_dir=str(tmp_path),
            u0=0.95, l0=0.6, rate=0.02)
        run_experiment(cfg)
        out = tmp_path / "determinism"
        files = ["run1.csv", "run2.csv", "summary.csv"]
        first = {f: (out / f).read_bytes() for f in files}

        run_experiment(config_from_text((out / "config.txt").read_text()))
        for f in files:
            assert (out / f).read_bytes() == first[f], f


# ---------------------------------------------------------------------------
# 8: smoke training run on the official digit corpus


def test_criterion_8_digit_smoke_training():
    with criterion(8, "10k-digit smoke run: 1-transformer net ends at "
                      "ACC >= 0.70 in <= 20 epochs and is not worse than the "
                      "transformer-free net by more than 0.02"):
        data_dir = mnist_dir()
        if data_dir is None:
            pytest.skip("official IDX digit files not present (looked for "
                        "train/t10k images+labels under $STDAC_DATA and the "
                        "default data dir); no network access to fetch them")
        start = time.perf_counter()
        from stdac.harness import load_dataset, train_settings
        accs = {}
        for count in (1, 0):
            cfg = ExperimentConfig(name="smoke", dataset="mnist",
                                   data_dir=str(data_dir), subset=10000,
                                   st_layer_count=count, max_epochs=20, seed=0)
            data = load_dataset(cfg)
            result = fit(train_settings(cfg, cfg.seed), data.images, data.labels)
            accs[count] = result.records[-1].acc
        assert accs[1] >= 0.70, accs
        assert accs[1] >= accs[0] - 0.02, accs
        assert time.perf_counter() - start <= 3600.0


def test_synthetic_end_to_end_training_standin():
    """Not a numbered criterion: proves the full training loop clusters in
    this sandbox even when the official corpus is unavailable. The glyph
    corpus is harder than digits per pixel budget, so the bar is lower."""
    data = make_synthetic_glyphs(256, seed=0)
    settings = TrainSettings(
        backbone=BackboneConfig(st_layer_count=1),
        schedule=ThresholdSchedule(rate=0.006),
        max_epochs=10, batch_size=64, seed=0)
    result = fit(settings, data.images, data.labels)
    best_acc = max(r.acc for r in result.records)
    assert best_acc >= 0.5
    assert best_acc >= result.records[0].acc


# ---------------------------------------------------------------------------
# 9: official IDX files load with the documented counts and round-trip


def test_criterion_9_idx_ingestion(tmp_path):
    with criterion(9, "official IDX files parse to 60000/10000 examples and "
                      "survive a byte-lossless round trip"):
        data_dir = mnist_dir()
        if data_dir is None:
            pytest.skip("official IDX digit files not present (looked for "
                        "train/t10k images+labels under $STDAC_DATA and the "
                        "default data dir); no network access to fetch them")
        train = find_idx_pair(str(data_dir), "mnist", "train")
        test = find_idx_pair(str(data_dir), "mnist", "t10k")
        assert train is not None and test is not None

        tr = load_idx(*train)
        te = load_idx(*test)
        assert tr.images.shape == (60000, 28, 28, 1)
        assert tr.labels.shape == (60000,)
        assert te.images.shape == (10000, 28, 28, 1)
        assert te.labels.shape == (10000,)

        for src in (*train, *test):
            arr = read_idx(src)
            copy = tmp_path / "copy.idx"
            write_idx(copy, arr)
            np.testing.assert_array_equal(read_idx(copy), arr)
            again = tmp_path / "again.idx"
            write_idx(again, arr)
            assert copy.read_bytes() == again.read_bytes()
