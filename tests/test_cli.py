"""End-to-end command-line tests driving main() in process."""

from pathlib import Path

import numpy as np
import pytest

from stdac.checkpoint import load_checkpoint, save_checkpoint
from stdac.cli import backbone_from_state, build_parser, main, _build_config
from stdac.dac import Backbone, BackboneConfig
from stdac.errors import ConfigurationError
from stdac.harness import ExperimentConfig, config_to_text, write_config


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
                                     "scale_min=2.0", "dataset=bogus"])
    def test_bad_config_fails_before_the_run_tree(self, tiny_config, bad, capsys):
        cfg, path = tiny_config
        path.write_text(path.read_text() + bad + "\n")
        assert main(["train", "--config", str(path)]) == 2
        assert bad.partition("=")[0] in capsys.readouterr().err
        assert not (Path(cfg.out_dir) / cfg.name).exists()

    def test_unknown_flag_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["train", "--nonsense"])


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


class TestViz:
    def test_st_grid_and_stats_and_curves(self, tiny_config, tmp_path, capsys):
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

        assert main(["train", "--config", str(path)]) == 0
        rc = main(["viz", "--checkpoint", str(ckpt), "--kind", "curves",
                   "--runs", f"{cfg.out_dir}/cli", "--out", str(viz_dir)])
        assert rc == 0
        assert (viz_dir / "acc.svg").exists()
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

    def test_curves_without_csvs_is_error_code(self, tmp_path, capsys):
        model = Backbone(BackboneConfig(st_layer_count=0, cluster_count=4))
        ckpt = tmp_path / "m.stdac"
        save_checkpoint(ckpt, model.state_dict())
        rc = main(["viz", "--checkpoint", str(ckpt), "--kind", "curves",
                   "--runs", str(tmp_path / "nothing"),
                   "--out", str(tmp_path / "viz")])
        assert rc == 2
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
