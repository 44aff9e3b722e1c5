"""End-to-end command-line tests driving main() in process."""

import re
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stdac import harness
from stdac.checkpoint import load_checkpoint, save_checkpoint
from stdac.cli import backbone_from_state, build_parser, main, _build_config
from stdac.dac import Backbone, BackboneConfig
from stdac.dataio import ImageSet, load_idx, make_synthetic_glyphs, save_idx
from stdac.errors import ConfigurationError
from stdac.harness import (ExperimentConfig, config_to_text, find_idx_pair, read_config,
                           write_config)

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture
def tiny_config(tmp_path):
    cfg = ExperimentConfig(name="cli", dataset="synthetic", synthetic_count=24,
                           cluster_count=4, st_layer_count=0, batch_size=12,
                           max_epochs=1, repeats=1, seed=0,
                           out_dir=str(tmp_path / "runs"),
                           u0=0.95, l0=0.6, rate=0.02)
    path = tmp_path / "config.txt"
    write_config(path, cfg)
    return cfg, path


def train(tiny_config, capsys):
    cfg, path = tiny_config
    rc = main(["train", "--config", str(path)])
    assert rc == 0
    return cfg, capsys.readouterr().out


class TestTrain:
    def test_writes_run_tree_and_prints_summary(self, tiny_config, capsys):
        cfg, out = train(tiny_config, capsys)
        base = Path(cfg.out_dir) / "cli"
        assert (base / "run1.csv").exists()
        assert (base / "summary.csv").exists()
        assert (base / "checkpoints" / "run1.stdac").exists()
        assert "metric,mean,std,runs" in out

    def test_verbose_prints_epoch_lines(self, tiny_config, capsys):
        cfg, path = tiny_config
        assert main(["train", "--config", str(path), "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "epoch 1:" in out and "loss" in out

    def test_missing_data_reports_error_code(self, tmp_path, capsys):
        rc = main(["train", "--dataset", "mnist",
                   "--data-dir", str(tmp_path / "empty"),
                   "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["st_layer_count=7", "cluster_count=1", "u0=0.5",
                                     "scale_min=2.0", "dataset=bogus", "batch_size=abc"])
    def test_bad_config_fails_before_the_run_tree(self, tiny_config, bad, capsys):
        cfg, path = tiny_config
        path.write_text(path.read_text() + bad + "\n")
        assert main(["train", "--config", str(path)]) == 2
        assert bad.partition("=")[0] in capsys.readouterr().err
        assert not (Path(cfg.out_dir) / cfg.name).exists()

    def test_unknown_flag_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["train", "--nonsense"])


class TestSweep:
    def test_each_count_matches_a_single_run(self, tiny_config, capsys):
        cfg, path = tiny_config
        assert main(["train", "--config", str(path), "--st-layers", "0,1"]) == 0
        out = capsys.readouterr().out
        runs = Path(cfg.out_dir)
        assert f"wrote combined curves to {runs / 'cli-ablation' / 'curves'}" in out
        acc = (runs / "cli-ablation" / "curves" / "acc.svg").read_text()
        assert 'data-label="0 ST"' in acc and 'data-label="1 ST"' in acc
        for count in (0, 1):
            name = f"cli-st{count}"
            swept = {f: (runs / name / f).read_bytes()
                     for f in ("run1.csv", "summary.csv", "checkpoints/run1.stdac")}
            path.write_text(config_to_text(replace(cfg, name=name)))
            assert main(["train", "--config", str(path), "--st-layers", str(count)]) == 0
            for f, blob in swept.items():
                assert (runs / name / f).read_bytes() == blob, (name, f)
        capsys.readouterr()

    @pytest.mark.parametrize("bad", ["0,4", "1,1", "0,", "x"])
    def test_bad_counts_exit_before_the_run_tree(self, tiny_config, bad, capsys):
        cfg, path = tiny_config
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--config", str(path), "--st-layers", bad])
        assert exit_info.value.code == 2
        assert "--st-layers" in capsys.readouterr().err
        assert not Path(cfg.out_dir).exists()

    def test_fashion_sweep_gets_the_fashion_l0(self, tmp_path, monkeypatch, capsys):
        seen = []

        def fake_run(cfg, data, progress):
            seen.append(cfg)
            summary = tmp_path / f"{cfg.name}.csv"
            summary.write_text("metric,mean,std,runs\n")
            return harness.ExperimentResult(cfg, [], [], summary, [], tmp_path)

        monkeypatch.setattr(harness, "load_dataset", lambda cfg: None)
        monkeypatch.setattr(harness, "_run_experiment", fake_run)
        assert main(["train", "--dataset", "fashion", "--st-layers", "0,1",
                     "--out", str(tmp_path / "runs")]) == 0
        assert [(c.name, c.st_layer_count, c.l0) for c in seen] == [
            ("experiment-st0", 0, 0.8), ("experiment-st1", 1, 0.8)]
        capsys.readouterr()

    def test_the_corpus_loads_once(self, tiny_config, monkeypatch, capsys):
        _, path = tiny_config
        loaded, real_load = [], harness.load_dataset

        def counting_load(cfg):
            loaded.append(cfg.name)
            return real_load(cfg)

        monkeypatch.setattr(harness, "load_dataset", counting_load)
        assert main(["train", "--config", str(path), "--st-layers", "0,1"]) == 0
        assert loaded == ["cli"]
        capsys.readouterr()

    def test_epoch_lines_name_their_variant(self, tiny_config, capsys):
        _, path = tiny_config

        def epoch_lines(argv):
            assert main(["train", "--config", str(path), "--verbose", *argv]) == 0
            return [l for l in capsys.readouterr().out.splitlines() if "epoch 1:" in l]

        (single,) = epoch_lines([])
        assert single.startswith("epoch 1: loss ")
        assert epoch_lines(["--st-layers", "0,1"])[0] == f"cli-st0 {single}"
        assert [l.split()[0] for l in epoch_lines(["--st-layers", "1,0"])] == [
            "cli-st1", "cli-st0"]

    def test_epoch_lines_name_their_repeat(self, tiny_config, capsys):
        _, path = tiny_config

        def epoch_lines(argv):
            assert main(["train", "--config", str(path), "--verbose", *argv]) == 0
            return [l for l in capsys.readouterr().out.splitlines() if "epoch 1:" in l]

        (single,) = epoch_lines([])
        assert single.startswith("epoch 1: loss ")
        path.write_text(path.read_text() + "repeats=2\n")
        first, second = epoch_lines([])
        assert first == f"run1 {single}"
        assert second.startswith("run2 epoch 1: loss ")
        assert [l.split()[:2] for l in epoch_lines(["--st-layers", "0,1"])] == [
            ["cli-st0", "run1"], ["cli-st0", "run2"], ["cli-st1", "run1"], ["cli-st1", "run2"]]


class TestTestSplit:
    @pytest.fixture
    def split_config(self, tiny_config, tmp_path):
        cfg, path = tiny_config
        data_dir = tmp_path / "data"
        (data_dir / "mnist").mkdir(parents=True)
        for seed, prefix in enumerate(("train", "t10k")):
            save_idx(make_synthetic_glyphs(12, seed=seed, classes=4),
                     data_dir / "mnist" / f"{prefix}-images-idx3-ubyte",
                     data_dir / "mnist" / f"{prefix}-labels-idx1-ubyte")
        cfg = replace(cfg, dataset="mnist", data_dir=str(data_dir), use_test_split=True,
                      st_layer_count=2)
        write_config(path, cfg)
        return cfg, path

    def test_trains_on_the_train_then_the_test_images(self, split_config, capsys):
        cfg, path = split_config
        assert main(["train", "--config", str(path)]) == 0
        base = Path(cfg.out_dir) / cfg.name
        for f in ("config.txt", "run1.csv", "summary.csv", "curves/acc.svg"):
            assert (base / f).exists(), f
        model = backbone_from_state(load_checkpoint(base / "checkpoints" / "run1.stdac"))
        assert model.config.st_layer_count == 2
        train, test = (load_idx(*find_idx_pair(cfg.data_dir, "mnist", prefix))
                       for prefix in ("train", "t10k"))
        data = harness.load_dataset(read_config(path))
        np.testing.assert_array_equal(data.images,
                                      np.concatenate([train.images, test.images]))
        np.testing.assert_array_equal(data.labels,
                                      np.concatenate([train.labels, test.labels]))
        capsys.readouterr()

    def test_missing_test_pair_exits_before_the_run_tree(self, split_config, capsys):
        cfg, path = split_config
        (Path(cfg.data_dir) / "mnist" / "t10k-labels-idx1-ubyte").unlink()
        assert main(["train", "--config", str(path)]) == 2
        assert "use_test_split" in capsys.readouterr().err
        assert not (Path(cfg.out_dir) / cfg.name).exists()


class TestFullScaleRecipe:
    """README's full-scale recipe goes through the real parser and config
    reader, so a renamed flag or key breaks it here, not hours into a run."""

    @pytest.mark.parametrize("dataset, l0", [("mnist", 0.9), ("fashion", 0.8)])
    def test_recipe_config(self, tmp_path, dataset, l0):
        section = README.read_text().split("\n## Full-scale runs\n")[1].split("\n## ")[0]
        blocks = re.findall(r"```[a-z]*\n(.*?)```", section, re.S)
        config_files = {b.split()[1]: b for b in blocks if b.startswith("# ")}
        commands = [build_parser().parse_args(shlex.split(line)[1:])
                    for b in blocks for line in b.splitlines() if line.startswith("stdac ")]
        (args,) = [a for a in commands if a.dataset == dataset]
        assert args.command == "train"
        path = tmp_path / args.config
        path.write_text(config_files[args.config])
        args.config = str(path)
        cfg = _build_config(args)
        assert cfg.use_test_split and cfg.repeats == 10
        assert cfg.st_layer_count == 2 and cfg.l0 == l0


class TestEval:
    def test_prints_metrics_for_checkpoint(self, tiny_config, capsys):
        cfg, path = tiny_config
        assert main(["train", "--config", str(path)]) == 0
        ckpt = f"{cfg.out_dir}/cli/checkpoints/run1.stdac"
        rc = main(["eval", "--checkpoint", ckpt, "--config", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "acc " in out and "nmi " in out and "ari " in out

    def test_missing_checkpoint_is_error_code(self, tmp_path, capsys):
        rc = main(["eval", "--checkpoint", str(tmp_path / "none.stdac"),
                   "--dataset", "synthetic"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_checkpoint_is_error_code(self, tmp_path, capsys):
        ckpt = tmp_path / "garbage.stdac"
        ckpt.write_bytes(b"not a checkpoint at all")
        rc = main(["eval", "--checkpoint", str(ckpt), "--dataset", "synthetic"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_corrupt_idx_is_error_code(self, tmp_path, capsys):
        ckpt = tmp_path / "model.stdac"
        save_checkpoint(ckpt, Backbone(BackboneConfig(cluster_count=4)).state_dict())
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / "train-images-idx3-ubyte").write_bytes(b"\x00\x00\x08\x03junk")
        (data_dir / "train-labels-idx1-ubyte").write_bytes(b"\x00\x00\x08\x01junk")
        rc = main(["eval", "--checkpoint", str(ckpt), "--dataset", "mnist",
                   "--data-dir", str(data_dir)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_empty_idx_is_error_code(self, tmp_path, capsys):
        ckpt = tmp_path / "model.stdac"
        save_checkpoint(ckpt, Backbone(BackboneConfig(cluster_count=4)).state_dict())
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        save_idx(ImageSet(np.zeros((0, 28, 28, 1)), np.zeros(0, dtype=np.int64)),
                 data_dir / "train-images-idx3-ubyte", data_dir / "train-labels-idx1-ubyte")
        rc = main(["eval", "--checkpoint", str(ckpt), "--dataset", "mnist",
                   "--data-dir", str(data_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "train-images-idx3-ubyte" in err


class TestViz:
    def test_st_grid_and_stats(self, tiny_config, tmp_path, capsys):
        cfg, path = tiny_config
        # an ST-bearing checkpoint, saved directly to keep the test quick
        model = Backbone(BackboneConfig(st_layer_count=1, cluster_count=4), seed=1)
        ckpt = tmp_path / "st.stdac"
        save_checkpoint(ckpt, model.state_dict())

        viz_dir = tmp_path / "viz"
        rc = main(["viz", "--checkpoint", str(ckpt), "--kind", "st",
                   "--config", str(path), "--samples", "3", "--out", str(viz_dir)])
        assert rc == 0
        assert (viz_dir / "st_grid.pgm").exists()

        rc = main(["viz", "--checkpoint", str(ckpt), "--kind", "stats",
                   "--config", str(path), "--out", str(viz_dir)])
        assert rc == 0
        assert (viz_dir / "stats_mean.pgm").exists()
        assert (viz_dir / "stats_var_st.pgm").exists()
        capsys.readouterr()

    def test_st_visuals_need_an_st_model(self, tiny_config, tmp_path, capsys):
        cfg, path = tiny_config
        model = Backbone(BackboneConfig(st_layer_count=0, cluster_count=4))
        ckpt = tmp_path / "flat.stdac"
        save_checkpoint(ckpt, model.state_dict())
        rc = main(["viz", "--checkpoint", str(ckpt), "--kind", "st",
                   "--config", str(path), "--out", str(tmp_path / "viz")])
        assert rc == 2
        assert "no spatial transformer" in capsys.readouterr().err

    def test_stats_without_st_layers(self, tiny_config, tmp_path, capsys):
        cfg, path = tiny_config
        ckpt = tmp_path / "flat.stdac"
        save_checkpoint(ckpt, Backbone(BackboneConfig(cluster_count=4)).state_dict())
        viz_dir = tmp_path / "viz"
        rc = main(["viz", "--checkpoint", str(ckpt), "--kind", "stats",
                   "--config", str(path), "--out", str(viz_dir)])
        assert rc == 0
        assert sorted(p.name for p in viz_dir.iterdir()) == [
            "stats_mean.pgm", "stats_std.pgm", "stats_var.pgm"]
        capsys.readouterr()

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_samples_below_one_rejected(self, tiny_config, tmp_path, samples, capsys):
        cfg, path = tiny_config
        ckpt = tmp_path / "st.stdac"
        save_checkpoint(ckpt, Backbone(BackboneConfig(st_layer_count=1,
                                                      cluster_count=4)).state_dict())
        viz_dir = tmp_path / "viz"
        rc = main(["viz", "--checkpoint", str(ckpt), "--kind", "st", "--config", str(path),
                   "--samples", samples, "--out", str(viz_dir)])
        assert rc == 2
        assert "--samples" in capsys.readouterr().err
        assert not viz_dir.exists()

    @pytest.mark.parametrize("argv", [["--kind", "curves"],
                                      ["--kind", "st", "--runs", "runs/cli"]])
    def test_curves_are_drawn_by_train_only(self, tmp_path, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["viz", "--checkpoint", str(tmp_path / "m.stdac"), *argv])
        assert exit_info.value.code == 2
        capsys.readouterr()


class TestCheckpointInference:
    def test_st_count_and_clusters_recovered(self):
        model = Backbone(BackboneConfig(st_layer_count=2, cluster_count=7), seed=4)
        twin = backbone_from_state(model.state_dict())
        assert twin.config.st_layer_count == 2
        assert twin.config.cluster_count == 7
        np.testing.assert_array_equal(twin.head.bias.data, model.head.bias.data)

    def test_non_backbone_state_rejected(self):
        with pytest.raises(ConfigurationError, match="head/dense/bias"):
            backbone_from_state({"something": np.zeros(3)})

    def test_non_prefix_st_layers_rejected(self):
        model = Backbone(BackboneConfig(st_layer_count=2, cluster_count=4), seed=0)
        state = {k: v for k, v in model.state_dict().items()
                 if not k.startswith("st1/")}
        with pytest.raises(ConfigurationError, match="prefix"):
            backbone_from_state(state)


class TestConfigOverrides:
    def parse(self, argv):
        return build_parser().parse_args(argv)

    def test_cli_flags_override_file(self, tmp_path):
        path = tmp_path / "c.txt"
        write_config(path, ExperimentConfig(seed=1, st_layer_count=0))
        args = self.parse(["train", "--config", str(path), "--seed", "9",
                           "--st-layers", "3", "--out", "elsewhere"])
        cfg = _build_config(args)
        assert cfg.seed == 9
        assert cfg.st_layer_count == 3
        assert cfg.out_dir == "elsewhere"

    def test_fashion_default_lower_threshold(self):
        cfg = _build_config(self.parse(["train", "--dataset", "fashion"]))
        assert cfg.l0 == 0.8
        # an explicit config file wins over the dataset default
        mnist_like = _build_config(self.parse(["train", "--dataset", "mnist"]))
        assert mnist_like.l0 == 0.9

    def test_config_file_l0_not_clobbered(self, tmp_path):
        path = tmp_path / "c.txt"
        write_config(path, ExperimentConfig(l0=0.77))
        args = self.parse(["train", "--config", str(path), "--dataset", "fashion"])
        assert _build_config(args).l0 == 0.77
