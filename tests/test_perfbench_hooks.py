"""The benchmark's tracer hooks stdac functions and methods by name; this
builds it and installs its wrappers, so a rename that breaks a hook fails
here rather than in a benchmark run. It also runs a step under the tracer, so
a change to the backward sweep that empties the per-layer metrics fails here."""

import importlib
from pathlib import Path

from stdac import dac, nn, stn
from stdac.dataio import make_synthetic_glyphs
from stdac.tensor import Tensor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    hooked = [(nn, "conv2d"), (dac, "softmax_rows"), (dac.Backbone, "__call__"),
              (stn.SpatialTransformer, "theta")]
    originals = [getattr(owner, attr) for owner, attr in hooked]
    with tracer.Tracer():
        for (owner, attr), fn in zip(hooked, originals):
            assert getattr(owner, attr) is not fn, attr
    for (owner, attr), fn in zip(hooked, originals):
        assert getattr(owner, attr) is fn, attr


def test_tracer_counts_and_times_backward(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    images = make_synthetic_glyphs(4, seed=2, classes=4).images
    model = dac.Backbone(dac.BackboneConfig(st_layer_count=1, cluster_count=4), seed=1)
    with tracer.Tracer() as t:
        sim = dac.pairwise_similarity(model(Tensor(images)))
        r, v = dac.generate_pair_labels(sim.data, dac.ThresholdSchedule(u0=0.5, l0=0.5))
        dac.dac_loss(sim, r, v).backward()
    # this model's graph has 85 nodes, counted before the sweep releases
    # them, and every op closure runs once under its timer (the locnet's
    # first pool reads the raw input, so it records no backward); each conv
    # block's batch norm, pool and ReLU are one `nn.bn_relu_pool` node,
    # which has no span, so the conv blocks add no batch_norm or maxpool2d
    # backward
    assert t.counts["tensor.backward.nodes"] == 85
    assert {k: n for k, n in t.calls.items() if k.endswith(".bwd")} == {
        "nn.conv2d.bwd": 5, "nn.batch_norm.bwd": 5, "nn.maxpool2d.bwd": 1,
        "nn.softmax_rows.bwd": 1, "tensor.matmul.bwd": 5,
        "stn.affine_grid.bwd": 1, "stn.bilinear_sample.bwd": 1}
    # two fewer per conv block: the pool's and the batch norm's outputs
    assert t.calls["tensor.accumulate_grad"] == 89
    assert t.self_s["nn.conv2d.bwd"] > 0.0


def test_tracer_sees_the_eval_ops(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    data = make_synthetic_glyphs(6, seed=3, classes=4)
    model = dac.Backbone(dac.BackboneConfig(st_layer_count=1, cluster_count=4), seed=1)
    with tracer.Tracer() as t:
        dac.evaluate(model, data.images, data.labels)
    # the three pool BNs and the two dense BNs, and the locnet's two convs
    # and two pools: each conv block's conv, BN, pool and ReLU run inside
    # `nn.eval_conv_block`, which has no span
    assert t.calls["nn.batch_norm.fwd"] == 5
    assert t.calls["nn.conv2d.fwd"] == 2 and t.calls["nn.maxpool2d.fwd"] == 2
    assert t.self_s["nn.batch_norm.fwd"] > 0.0 and t.self_s["nn.maxpool2d.fwd"] > 0.0
    pooled = 14 * 14 * 64 + 7 * 7 * 128 + 3 * 3 * 256 + 3096 + 4
    assert t.counts["nn.batch_norm.bytes"] == 16 * 6 * pooled
