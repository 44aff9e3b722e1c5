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
    # this model's graph has 91 nodes, counted before the sweep releases
    # them, and every op closure runs once under its timer (the locnet's
    # first pool reads the raw input, so it records no backward)
    assert t.counts["tensor.backward.nodes"] == 91
    assert {k: n for k, n in t.calls.items() if k.endswith(".bwd")} == {
        "nn.conv2d.bwd": 5, "nn.batch_norm.bwd": 8, "nn.maxpool2d.bwd": 4,
        "nn.softmax_rows.bwd": 1, "tensor.matmul.bwd": 5,
        "stn.affine_grid.bwd": 1, "stn.bilinear_sample.bwd": 1}
    assert t.calls["tensor.accumulate_grad"] == 95
    assert t.self_s["nn.conv2d.bwd"] > 0.0


def test_tracer_sees_the_eval_ops(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    data = make_synthetic_glyphs(6, seed=3, classes=4)
    model = dac.Backbone(dac.BackboneConfig(st_layer_count=1, cluster_count=4), seed=1)
    with tracer.Tracer() as t:
        dac.evaluate(model, data.images, data.labels)
    # eight BNs; three backbone pools plus the locnet's two
    assert t.calls["nn.batch_norm.fwd"] == 8
    assert t.calls["nn.maxpool2d.fwd"] == 5
    assert t.self_s["nn.batch_norm.fwd"] > 0.0 and t.self_s["nn.maxpool2d.fwd"] > 0.0
    # each conv block's BN reads the pooled map, as its pool BN does
    pooled = 2 * (14 * 14 * 64 + 7 * 7 * 128 + 3 * 3 * 256) + 3096 + 4
    assert t.counts["nn.batch_norm.bytes"] == 16 * 6 * pooled
