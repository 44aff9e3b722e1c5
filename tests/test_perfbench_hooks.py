"""The benchmark's tracer hooks stdac functions and methods by name; this
builds it and installs its wrappers, so a rename that breaks a hook fails
here rather than in a benchmark run."""

import importlib
from pathlib import Path

from stdac import dac, nn, stn

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
