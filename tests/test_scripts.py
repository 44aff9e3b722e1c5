"""The full-scale script builds its config from `stdac.cli` and
`stdac.harness` names; this runs its main with the experiment stubbed out,
so a rename that breaks the script fails here rather than hours into a run."""

import importlib
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("dataset, l0", [("mnist", 0.9), ("fashion", 0.8)])
def test_fullscale_config(monkeypatch, tmp_path, capsys, dataset, l0):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    script = importlib.import_module("run_fullscale")
    seen = []

    def fake_run(cfg, progress=None):
        seen.append(cfg)
        return SimpleNamespace(run_records=[[SimpleNamespace(acc=0.5)]])

    monkeypatch.setattr(script, "run_experiment", fake_run)
    assert script.main(["--dataset", dataset, "--out", str(tmp_path)]) == 0
    (cfg,) = seen
    assert cfg.use_test_split and cfg.st_layer_count == 2 and cfg.l0 == l0
    assert "target not met" in capsys.readouterr().out
