"""Experiment harness tests: config text, CSVs, SVG curves, PGM visuals."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stdac.checkpoint import load_checkpoint
from stdac.cli import backbone_from_state
from stdac.dac import Backbone, BackboneConfig, EpochRecord, evaluate
from stdac.dataio import ImageSet, make_synthetic_glyphs, save_idx
from stdac.errors import ConfigurationError, NoSelectedPairs
from stdac.harness import (
    ExperimentConfig,
    METRIC_COLUMNS,
    VERSION_LINE,
    _run_experiment,
    class_statistics,
    config_from_text,
    config_to_text,
    emit_curves,
    emit_st_visuals,
    find_idx_pair,
    first_st_outputs,
    fmt,
    load_dataset,
    run_ablation,
    run_experiment,
    write_pgm,
    write_run_csv,
    write_summary_csv,
)
from readers import parse_svg_series, read_pgm, read_run_csv


def record(epoch, **overrides):
    base = dict(epoch=epoch, loss=0.5 / epoch, selected_fraction=0.25 * epoch,
                acc=1 / 3 + epoch / 100, nmi=0.1 * epoch, ari=0.05 * epoch,
                lam=0.0045 * (epoch - 1), u=0.99, l=0.9)
    base.update(overrides)
    return EpochRecord(**base)


class TestFormatting:
    def test_fmt_round_trips_floats(self):
        for x in (1 / 3, 0.1, math.pi, 1e-17, -2.5e300, 0.105360516):
            assert float(fmt(x)) == x
        assert fmt(7) == "7"
        assert math.isnan(float(fmt(float("nan"))))


class TestConfigText:
    def test_round_trip_all_field_kinds(self):
        cfg = ExperimentConfig(name="abl", dataset="synthetic", st_layer_count=2,
                               u0=0.97, rate=1e-3, batch_size=32, augment=False,
                               scale_min=0.85, subset=500, use_test_split=True)
        assert config_from_text(config_to_text(cfg)) == cfg

    @pytest.mark.parametrize("bad", [
        pytest.param({"repeats": 0}, id="0"),
        pytest.param({"repeats": -1}, id="-1"),
        pytest.param({"max_epochs": -1}, id="max_epochs"),
        pytest.param({"subset": -1}, id="subset"),
        pytest.param({"batch_size": 1}, id="batch_size"),
        pytest.param({"dataset": "synthetic", "synthetic_count": 1}, id="synthetic_count"),
        pytest.param({"st_layer_count": 7}, id="st_layer_count"),
        pytest.param({"cluster_count": 1}, id="cluster_count"),
        pytest.param({"u0": 0.5}, id="u0"),
        pytest.param({"scale_min": 2.0}, id="scale_min"),
        pytest.param({"dataset": "bogus"}, id="dataset"),
    ])
    def test_no_repeats_rejected(self, bad):
        # each value fails at construction, before any data loads or file is written
        key = list(bad)[-1]
        with pytest.raises(ConfigurationError, match=key):
            ExperimentConfig(**bad)
        with pytest.raises(ConfigurationError, match=key):
            config_from_text("".join(f"{k}={v}\n" for k, v in bad.items()))

    def test_comments_and_blanks_ignored(self):
        cfg = config_from_text("# a comment\n\nseed=9\n  \nname=x\n")
        assert cfg.seed == 9 and cfg.name == "x"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="momentum"):
            config_from_text("momentum=0.9\n")

    def test_non_assignment_line_rejected(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            config_from_text("seed=1\nnot a setting\n")

    def test_bad_boolean_rejected(self):
        with pytest.raises(ConfigurationError, match="maybe"):
            config_from_text("augment=maybe\n")

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ConfigurationError, match=r"'seed' on line 3 repeats line 1"):
            config_from_text("seed=1\nname=x\nseed=2\n")

    @pytest.mark.parametrize("name", ["", ".", "..", "../elsewhere", "a/b", "/abs", "x/"])
    def test_name_must_be_one_path_component(self, name):
        with pytest.raises(ConfigurationError, match="one plain path component"):
            ExperimentConfig(name=name)
        with pytest.raises(ConfigurationError, match="one plain path component"):
            config_from_text(f"name={name}\n")


class TestRunCsv:
    def test_values_round_trip_exactly(self, tmp_path):
        records = [record(1), record(2, loss=math.pi), record(3, acc=1 / 7)]
        path = tmp_path / "run1.csv"
        write_run_csv(path, ExperimentConfig(), records)
        _, rows = read_run_csv(path)
        assert [r["epoch"] for r in rows] == [1.0, 2.0, 3.0]
        assert rows[1]["loss"] == math.pi
        assert rows[2]["acc"] == 1 / 7
        assert rows[0]["lam"] == 0.0

    def test_comments_embed_version_and_config(self, tmp_path):
        cfg = ExperimentConfig(name="embedded", seed=3)
        path = tmp_path / "run1.csv"
        write_run_csv(path, cfg, [record(1)])
        comments, _ = read_run_csv(path)
        assert comments[0] == f"# {VERSION_LINE}"
        embedded = "\n".join(c[len("# cfg "):] for c in comments
                             if c.startswith("# cfg "))
        assert config_from_text(embedded) == cfg

    def test_nan_columns_survive(self, tmp_path):
        path = tmp_path / "run1.csv"
        write_run_csv(path, ExperimentConfig(),
                      [record(1, acc=float("nan"), nmi=float("nan"))])
        _, rows = read_run_csv(path)
        assert math.isnan(rows[0]["acc"])
        assert rows[0]["loss"] == 0.5


class TestSummaryCsv:
    def test_mean_std_recomputable(self, tmp_path):
        finals = [{c: v for c in METRIC_COLUMNS} for v in (0.7, 0.75, 0.8)]
        path = tmp_path / "summary.csv"
        write_summary_csv(path, ExperimentConfig(), finals)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "metric,mean,std,runs"
        vals = np.array([0.7, 0.75, 0.8])
        for line in lines[1:]:
            metric, mean, std, runs = line.split(",")
            assert float(mean) == pytest.approx(vals.mean(), abs=1e-12)
            assert float(std) == pytest.approx(vals.std(), abs=1e-12)
            assert runs == "3"


class TestCurves:
    def test_plotted_values_equal_record_values_exactly(self, tmp_path):
        records = [record(e) for e in (1, 2, 3)]
        emit_curves({"baseline": records}, tmp_path)
        series = parse_svg_series(tmp_path / "acc.svg")
        xs, ys = series["baseline"]
        assert xs == [1.0, 2.0, 3.0]
        assert ys == [r.acc for r in records]

    def test_one_svg_per_metric(self, tmp_path):
        emit_curves({"a": [record(1)]}, tmp_path)
        for metric in METRIC_COLUMNS:
            assert (tmp_path / f"{metric}.svg").exists()

    def test_multiple_labeled_series(self, tmp_path):
        emit_curves({f"{k} ST": [record(1), record(2, acc=0.1 * k)]
                     for k in range(4)}, tmp_path)
        series = parse_svg_series(tmp_path / "acc.svg")
        assert sorted(series) == ["0 ST", "1 ST", "2 ST", "3 ST"]

    def test_all_nan_series_omitted_with_manifest_warning(self, tmp_path):
        records_nan = [record(1, acc=float("nan")), record(2, acc=float("nan"))]
        warnings = emit_curves({"good": [record(1)], "bad": records_nan}, tmp_path)
        assert any("bad" in w and "acc" in w for w in warnings)
        series = parse_svg_series(tmp_path / "acc.svg")
        assert "bad" not in series and "good" in series
        loss_series = parse_svg_series(tmp_path / "loss.svg")
        assert "bad" in loss_series
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "omitted" in manifest


class TestPgm:
    def test_round_trip_hits_quantized_values(self, rng, tmp_path):
        img = rng.integers(0, 256, size=(5, 7)) / 255.0
        path = tmp_path / "x.pgm"
        write_pgm(path, img, comment="two\nlines")
        back = read_pgm(path)
        np.testing.assert_allclose(back, img, atol=1e-15)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n# two\n# lines\n7 5\n255\n")

    def test_quantization_error_bounded(self, rng, tmp_path):
        img = rng.uniform(size=(4, 4))
        path = tmp_path / "x.pgm"
        write_pgm(path, img)
        assert np.max(np.abs(read_pgm(path) - img)) <= 0.5 / 255 + 1e-12

    def test_rejects_non_grayscale(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 3)))

    def test_read_rejects_other_formats(self, tmp_path):
        (tmp_path / "x.pgm").write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(ConfigurationError):
            read_pgm(tmp_path / "x.pgm")


class TestStVisuals:
    def test_identity_theta_matches_input_columns(self, rng, tmp_path):
        model = Backbone(BackboneConfig(st_layer_count=1, cluster_count=4), seed=0)
        images = rng.uniform(size=(3, 28, 28, 1))
        grid = emit_st_visuals(model, images, tmp_path / "grid.pgm")
        assert grid.shape == (3 * 28 + 2 * 2, 2 * 28 + 2)
        warped = np.clip(first_st_outputs(model, images)[..., 0], 0, 1)
        for i in range(3):
            rows = slice(i * 30, i * 30 + 28)
            np.testing.assert_array_equal(grid[rows, :28], images[i, ..., 0])
            np.testing.assert_array_equal(grid[rows, 30:], warped[i])
        on_disk = read_pgm(tmp_path / "grid.pgm")
        assert on_disk.shape == grid.shape

    def test_row_per_sample(self, rng, tmp_path):
        model = Backbone(BackboneConfig(st_layer_count=1, cluster_count=4), seed=0)
        images = rng.uniform(size=(8, 28, 28, 1))
        grid = emit_st_visuals(model, images, tmp_path / "grid.pgm")
        assert grid.shape[0] == 8 * 28 + 7 * 2

    def test_peak_memory_does_not_grow_with_the_corpus(self):
        # the first ST layer runs in chunks, so only the output grows with n
        model = Backbone(BackboneConfig(st_layer_count=1, cluster_count=4), seed=0)

        def peak(n):
            images = np.random.default_rng(0).uniform(size=(n, 28, 28, 1))
            tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                assert first_st_outputs(model, images).shape == images.shape
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(512), peak(1024)
        assert large <= 1.1 * small, (small, large)

    def test_model_without_st_rejected(self, rng, tmp_path):
        model = Backbone(BackboneConfig(st_layer_count=0, cluster_count=4))
        with pytest.raises(ConfigurationError, match="no spatial transformer"):
            emit_st_visuals(model, rng.uniform(size=(2, 28, 28, 1)),
                            tmp_path / "grid.pgm")


class TestClassStatistics:
    def test_two_image_class_mean_half_variance_quarter(self, tmp_path):
        images = np.stack([np.zeros((4, 4, 1)), np.ones((4, 4, 1))])
        grids = class_statistics(images, np.array([0, 0]), tmp_path)
        np.testing.assert_allclose(grids["mean"], 0.5)
        np.testing.assert_allclose(grids["var"], 0.25)
        np.testing.assert_allclose(grids["std"], 0.5)

    def test_constant_class_has_zero_std(self, rng, tmp_path):
        one = rng.uniform(size=(4, 4, 1))
        images = np.stack([one, one, one])
        grids = class_statistics(images, np.array([1, 1, 1]), tmp_path)
        # mean of three identical doubles can be off by an ulp
        np.testing.assert_allclose(grids["std"], np.zeros((4, 4)), atol=1e-12)
        np.testing.assert_array_equal(read_pgm(tmp_path / "stats_std.pgm"), 0.0)

    def test_one_column_per_class(self, rng, tmp_path):
        images = rng.uniform(size=(10, 6, 6, 1))
        truth = np.arange(10) % 5
        grids = class_statistics(images, truth, tmp_path)
        assert grids["mean"].shape == (6, 6 * 5 + 2 * 4)
        for stat in ("mean", "std", "var"):
            assert (tmp_path / f"stats_{stat}.pgm").exists()

    def test_population_convention_documented_in_file(self, rng, tmp_path):
        images = rng.uniform(size=(4, 4, 4, 1))
        class_statistics(images, np.zeros(4, dtype=int), tmp_path)
        blob = (tmp_path / "stats_var.pgm").read_bytes()
        assert b"population" in blob

    def test_missing_labels_rejected(self, rng, tmp_path):
        with pytest.raises(ConfigurationError, match="labels"):
            class_statistics(rng.uniform(size=(2, 4, 4, 1)), None, tmp_path)

    def test_model_adds_st_grids(self, rng, tmp_path):
        model = Backbone(BackboneConfig(st_layer_count=1, cluster_count=4), seed=0)
        images = rng.uniform(size=(4, 28, 28, 1))
        grids = class_statistics(images, np.array([0, 0, 1, 1]), tmp_path,
                                 model=model)
        assert "mean_st" in grids and "var_st" in grids
        assert (tmp_path / "stats_mean_st.pgm").exists()


def synthetic_config(tmp_path, **overrides):
    base = dict(name="tiny", dataset="synthetic", synthetic_count=32,
                cluster_count=4, st_layer_count=0, batch_size=16, max_epochs=2,
                repeats=1, seed=0, out_dir=str(tmp_path),
                u0=0.95, l0=0.6, rate=0.02)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestDatasetResolution:
    def test_synthetic_dataset_loads(self, tmp_path):
        data = load_dataset(synthetic_config(tmp_path))
        assert data.images.shape == (32, 28, 28, 1)
        assert data.labels is not None

    def test_subset_is_seeded_and_sorted(self, tmp_path):
        cfg = synthetic_config(tmp_path, synthetic_count=50, subset=20)
        a = load_dataset(cfg)
        b = load_dataset(cfg)
        assert len(a) == 20
        np.testing.assert_array_equal(a.images, b.images)

    def test_missing_idx_files_name_expectations(self, tmp_path):
        cfg = synthetic_config(tmp_path, dataset="mnist",
                               data_dir=str(tmp_path / "nowhere"))
        with pytest.raises(ConfigurationError, match="train-images-idx3-ubyte"):
            load_dataset(cfg)

    def test_find_idx_pair_checks_subdir_then_flat_then_gz(self, tmp_path):
        assert find_idx_pair(tmp_path, "mnist", "train") is None
        sub = tmp_path / "mnist"
        sub.mkdir()
        (sub / "train-images-idx3-ubyte.gz").write_bytes(b"x")
        (sub / "train-labels-idx1-ubyte.gz").write_bytes(b"x")
        pair = find_idx_pair(tmp_path, "mnist", "train")
        assert pair is not None and pair[0].name.endswith(".gz")

    def test_find_idx_pair_finds_the_t10k_split(self, tmp_path):
        sub = tmp_path / "mnist"
        sub.mkdir()
        images, labels = sub / "t10k-images-idx3-ubyte", sub / "t10k-labels-idx1-ubyte"
        save_idx(make_synthetic_glyphs(3, seed=0), images, labels)
        assert find_idx_pair(tmp_path, "mnist", "t10k") == (images, labels)


class TestRunExperiment:
    def test_layout_and_reproducibility(self, tmp_path):
        cfg = synthetic_config(tmp_path / "a", repeats=2)
        result = run_experiment(cfg)
        base = result.out_dir
        assert (base / "config.txt").exists()
        assert config_from_text((base / "config.txt").read_text()) == cfg
        assert [p.name for p in result.run_csvs] == ["run1.csv", "run2.csv"]
        assert result.summary_csv.name == "summary.csv"
        for metric in METRIC_COLUMNS:
            assert (base / "curves" / f"{metric}.svg").exists()
        assert (base / "timing.txt").exists()

        state = load_checkpoint(result.checkpoints[0])
        model = Backbone(BackboneConfig(st_layer_count=0, cluster_count=4))
        model.load_state(state)

        # rerunning the embedded config overwrites with byte-identical CSVs
        # (out_dir is part of the config text, so the tree must match too)
        first_bytes = [p.read_bytes() for p in result.run_csvs]
        summary_bytes = result.summary_csv.read_bytes()
        rerun = run_experiment(config_from_text((base / "config.txt").read_text()))
        for p, blob in zip(rerun.run_csvs, first_bytes):
            assert p.read_bytes() == blob
        assert rerun.summary_csv.read_bytes() == summary_bytes

    def test_summary_matches_final_rows(self, tmp_path):
        result = run_experiment(synthetic_config(tmp_path, repeats=2))
        finals = []
        for csv_path in result.run_csvs:
            _, rows = read_run_csv(csv_path)
            finals.append(rows[-1])
        text = result.summary_csv.read_text().splitlines()
        data_lines = [l for l in text if l and not l.startswith("#")][1:]
        for line in data_lines:
            metric, mean, std, runs = line.split(",")
            vals = np.array([f[metric] for f in finals])
            assert float(mean) == pytest.approx(vals.mean(), abs=1e-12)
            assert float(std) == pytest.approx(vals.std(), abs=1e-12)
            assert runs == "2"

    def test_failure_leaves_incomplete_manifest(self, tmp_path):
        cfg = synthetic_config(tmp_path, u0=2.0, l0=-1.0, rate=0.0)
        with pytest.raises(NoSelectedPairs):
            run_experiment(cfg)
        manifest = (tmp_path / "tiny" / "manifest.txt").read_text()
        assert "INCOMPLETE" in manifest

    def test_a_good_rerun_removes_the_incomplete_manifest(self, tmp_path):
        with pytest.raises(NoSelectedPairs):
            run_experiment(synthetic_config(tmp_path, u0=2.0, l0=-1.0, rate=0.0))
        run_experiment(synthetic_config(tmp_path, max_epochs=1))
        assert not (tmp_path / "tiny" / "manifest.txt").exists()

    def test_fewer_repeats_remove_the_earlier_runs_past_them(self, tmp_path):
        run_experiment(synthetic_config(tmp_path, repeats=2, max_epochs=1))
        base = tmp_path / "tiny"
        (base / "notes.csv").write_text("kept\n")
        run_experiment(synthetic_config(tmp_path, repeats=1, max_epochs=1))
        assert sorted(p.name for p in base.glob("*.csv")) == ["notes.csv", "run1.csv",
                                                              "summary.csv"]
        assert [p.name for p in (base / "checkpoints").iterdir()] == ["run1.stdac"]

    def test_a_failed_rerun_leaves_no_file_of_the_earlier_run(self, tmp_path):
        run_experiment(synthetic_config(tmp_path, max_epochs=1))
        base = tmp_path / "tiny"
        written = sorted(str(p.relative_to(base)) for p in base.rglob("*") if p.is_file())
        assert "summary.csv" in written and "curves/acc.svg" in written
        with pytest.raises(NoSelectedPairs):
            run_experiment(synthetic_config(tmp_path, u0=2.0, l0=-1.0, rate=0.0))
        # only the failed run's own config and INCOMPLETE note
        assert sorted(str(p.relative_to(base)) for p in base.rglob("*")
                      if p.is_file()) == ["config.txt", "manifest.txt"]
        assert config_from_text((base / "config.txt").read_text()).u0 == 2.0

    def test_the_checkpoint_is_the_final_model_whatever_the_labels(self, tmp_path):
        cfg = synthetic_config(tmp_path, synthetic_count=64, st_layer_count=1,
                               max_epochs=3, seed=3, batch_size=32)
        data = load_dataset(cfg)
        shuffled = ImageSet(data.images, np.random.default_rng(0).permutation(data.labels))
        truth = _run_experiment(replace(cfg, name="truth"), data, None)
        result = _run_experiment(replace(cfg, name="shuffled"), shuffled, None)
        ckpt = result.checkpoints[0]
        assert ckpt.read_bytes() == truth.checkpoints[0].read_bytes()
        final = result.run_records[0][-1]
        model = backbone_from_state(load_checkpoint(ckpt))
        assert evaluate(model, data.images, shuffled.labels) == (final.acc, final.nmi,
                                                                 final.ari)

    def test_curve_points_equal_csv_rows(self, tmp_path):
        result = run_experiment(synthetic_config(tmp_path))
        _, rows = read_run_csv(result.run_csvs[0])
        series = parse_svg_series(result.out_dir / "curves" / "acc.svg")
        xs, ys = series["run1"]
        assert xs == [r["epoch"] for r in rows]
        assert ys == [r["acc"] for r in rows]


class TestRunAblation:
    def test_combined_curves_label_variants(self, tmp_path):
        cfg = synthetic_config(tmp_path, name="sweep", max_epochs=1,
                               synthetic_count=24, batch_size=12)
        results = run_ablation(cfg, st_counts=(0, 1))
        assert sorted(results) == [0, 1]
        for count in (0, 1):
            assert results[count].config.st_layer_count == count
            assert results[count].out_dir.name == f"sweep-st{count}"
        combined = parse_svg_series(tmp_path / "sweep-ablation" / "curves" / "acc.svg")
        assert sorted(combined) == ["0 ST", "1 ST"]
