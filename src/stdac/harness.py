"""Experiment driver: config files, dataset resolution, per-run CSV records,
aggregate summaries, SVG training curves, PGM visualizations.

Determinism contract: rerunning an experiment from the same config produces
byte-identical CSVs. Everything nondeterministic (wall time) is quarantined
in a separate timing file, and all floats print with 17 significant digits so
values survive a round trip exactly.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .dac import (BackboneConfig, EpochRecord, ThresholdSchedule,
                  TrainSettings, fit)
from .dataio import AugmentConfig, ImageSet, load_idx, make_synthetic_glyphs
from .checkpoint import save_checkpoint
from .errors import ConfigurationError
from .tensor import Tensor, no_grad

VERSION_LINE = f"stdac {__version__}"

METRIC_COLUMNS = ("loss", "selected_fraction", "acc", "nmi", "ari")
CSV_COLUMNS = tuple(f.name for f in fields(EpochRecord))
DATASETS = ("mnist", "fashion", "synthetic")


def fmt(x) -> str:
    """17-significant-digit float formatting (lossless round trip)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, text-serializable description of one experiment."""
    name: str = "experiment"
    dataset: str = "mnist"          # one of DATASETS
    data_dir: str = ""              # empty: $STDAC_DATA or ./data
    st_layer_count: int = 1
    cluster_count: int = 10
    u0: float = 0.99
    l0: float = 0.9
    rate: float = 0.0045
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 128
    max_epochs: int = 50
    repeats: int = 1
    seed: int = 0
    out_dir: str = "runs"
    subset: int = 0                 # 0: full split; n>0: seeded n-image subset
    use_test_split: bool = False    # train split only by default
    augment: bool = True
    rotation_degrees: float = 10.0
    translate_fraction: float = 0.1
    scale_min: float = 0.9
    scale_max: float = 1.1
    include_diagonal: bool = True
    synthetic_count: int = 1000     # dataset size when dataset=synthetic

    def __post_init__(self):
        # train-mode batch norm needs a batch of two, and pairs need two images
        minimums = {"repeats": 1, "max_epochs": 0, "subset": 0, "batch_size": 2}
        if self.dataset == "synthetic":
            minimums["synthetic_count"] = 2
        for key, low in minimums.items():
            if getattr(self, key) < low:
                raise ConfigurationError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if self.dataset not in DATASETS:
            raise ConfigurationError(f"dataset must be one of {DATASETS}, got {self.dataset!r}")
        # the sub-configs check their own values, before any data loads
        train_settings(self, self.seed)


_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False,
               "yes": True, "no": False}


def config_to_text(cfg: ExperimentConfig) -> str:
    return "".join(f"{f.name}={getattr(cfg, f.name)}\n" for f in fields(cfg))


def config_from_text(text: str) -> ExperimentConfig:
    """Parse `key=value` lines (# comments and blanks ignored) into a config."""
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {lineno} is not key=value: {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in types:
            raise ConfigurationError(f"unknown config key {key!r} on line {lineno}")
        t = types[key]
        if t == "int":
            values[key] = int(val)
        elif t == "float":
            values[key] = float(val)
        elif t == "bool":
            if val.lower() not in _BOOL_WORDS:
                raise ConfigurationError(f"bad boolean {val!r} for {key!r}")
            values[key] = _BOOL_WORDS[val.lower()]
        else:
            values[key] = val
    return ExperimentConfig(**values)


def read_config(path) -> ExperimentConfig:
    return config_from_text(Path(path).read_text())


def write_config(path, cfg: ExperimentConfig) -> None:
    Path(path).write_text(config_to_text(cfg))


# ---------------------------------------------------------------------------
# dataset resolution


IDX_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def default_data_dir() -> str:
    return os.environ.get("STDAC_DATA", "data")


def find_idx_pair(data_dir, dataset: str, split: str):
    """Locate (images, labels) files under data_dir/dataset/ or data_dir/,
    plain or gzipped; None if absent."""
    img_name, lab_name = IDX_FILES[split]
    for base in (Path(data_dir) / dataset, Path(data_dir)):
        for suffix in ("", ".gz"):
            img, lab = base / (img_name + suffix), base / (lab_name + suffix)
            if img.exists() and lab.exists():
                return img, lab
    return None


def load_dataset(cfg: ExperimentConfig) -> ImageSet:
    if cfg.dataset == "synthetic":
        data = make_synthetic_glyphs(cfg.synthetic_count, seed=cfg.seed,
                                     classes=cfg.cluster_count)
    else:
        data_dir = cfg.data_dir or default_data_dir()
        pair = find_idx_pair(data_dir, cfg.dataset, "train")
        if pair is None:
            raise ConfigurationError(
                f"no {cfg.dataset} IDX files under {data_dir!r} (expected "
                f"{IDX_FILES['train'][0]}[.gz] beside its labels file, in a "
                f"{cfg.dataset}/ subdirectory or directly)")
        data = load_idx(*pair)
        if cfg.use_test_split:
            test_pair = find_idx_pair(data_dir, cfg.dataset, "test")
            if test_pair is None:
                raise ConfigurationError(f"use_test_split set but no test files "
                                         f"under {data_dir!r}")
            test = load_idx(*test_pair)
            data = ImageSet(np.concatenate([data.images, test.images]),
                            np.concatenate([data.labels, test.labels]))

    if cfg.subset and cfg.subset < len(data):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 3)))
        idx = rng.choice(len(data), size=cfg.subset, replace=False)
        idx.sort()
        labels = data.labels[idx] if data.labels is not None else None
        data = ImageSet(data.images[idx], labels)
    return data


def train_settings(cfg: ExperimentConfig, seed: int) -> TrainSettings:
    augment = None
    if cfg.augment:
        augment = AugmentConfig(rotation_degrees=cfg.rotation_degrees,
                                translate_fraction=cfg.translate_fraction,
                                scale_range=(cfg.scale_min, cfg.scale_max))
    return TrainSettings(
        backbone=BackboneConfig(st_layer_count=cfg.st_layer_count,
                                cluster_count=cfg.cluster_count),
        schedule=ThresholdSchedule(u0=cfg.u0, l0=cfg.l0, rate=cfg.rate),
        max_epochs=cfg.max_epochs, batch_size=cfg.batch_size, seed=seed,
        lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, adam_eps=cfg.adam_eps,
        augment=augment, include_diagonal=cfg.include_diagonal)


# ---------------------------------------------------------------------------
# CSV records


def write_run_csv(path, cfg: ExperimentConfig, records: list[EpochRecord]) -> None:
    lines = [f"# {VERSION_LINE}"]
    lines += [f"# cfg {line}" for line in config_to_text(cfg).splitlines()]
    lines.append(",".join(CSV_COLUMNS))
    for r in records:
        lines.append(",".join([str(r.epoch)] + [fmt(getattr(r, c))
                                                for c in CSV_COLUMNS[1:]]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_run_csv(path) -> tuple[list[str], list[dict[str, float]]]:
    """Comment lines (config echo) and data rows as column->float dicts."""
    comments, rows, header = [], [], None
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append({k: float(v) for k, v in zip(header, line.split(","))})
    return comments, rows


def write_summary_csv(path, cfg: ExperimentConfig,
                      per_run_finals: list[dict[str, float]]) -> None:
    """Mean/std (population) across runs of each final-epoch metric."""
    lines = [f"# {VERSION_LINE}"]
    lines += [f"# cfg {line}" for line in config_to_text(cfg).splitlines()]
    lines.append("metric,mean,std,runs")
    for col in METRIC_COLUMNS:
        vals = np.array([f[col] for f in per_run_finals])
        lines.append(f"{col},{fmt(vals.mean())},{fmt(vals.std())},{len(vals)}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# SVG curves

_PALETTE = ("#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#d68910", "#16a085",
            "#7f8c8d", "#2c3e50")


def _svg_line_plot(series: list[tuple[str, list[float], list[float]]],
                   title: str, xlabel: str, ylabel: str) -> str:
    """Hand-rolled deterministic SVG: one polyline per (label, xs, ys) series.

    Raw values ride along in data-x / data-y attributes at full precision, so
    the file is re-parseable as data; screen coordinates are a scaled view.
    """
    width, height = 640, 420
    ml, mr, mt, mb = 60, 150, 36, 46
    pw, ph = width - ml - mr, height - mt - mb

    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = (min(all_x), max(all_x)) if all_x else (0.0, 1.0)
    y_lo, y_hi = (min(all_y), max(all_y)) if all_y else (0.0, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y):
        return mt + ph - (y - y_lo) / (y_hi - y_lo) * ph

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<!-- {VERSION_LINE} -->',
             '<rect width="100%" height="100%" fill="white"/>',
             f'<text x="{ml}" y="20" font-family="sans-serif" font-size="14">'
             f'{title}</text>']
    # axes and ticks
    parts.append(f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" '
                 'stroke="black"/>')
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>')
    for i in range(6):
        tx = x_lo + (x_hi - x_lo) * i / 5
        ty = y_lo + (y_hi - y_lo) * i / 5
        parts.append(f'<text x="{sx(tx):.1f}" y="{mt + ph + 18}" font-size="10" '
                     f'font-family="sans-serif" text-anchor="middle">{tx:.4g}</text>')
        parts.append(f'<text x="{ml - 6}" y="{sy(ty):.1f}" font-size="10" '
                     f'font-family="sans-serif" text-anchor="end">{ty:.4g}</text>')
    parts.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 8}" font-size="12" '
                 f'font-family="sans-serif" text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="14" y="{mt + ph / 2:.1f}" font-size="12" '
                 f'font-family="sans-serif" text-anchor="middle" '
                 f'transform="rotate(-90 14 {mt + ph / 2:.1f})">{ylabel}</text>')

    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        data_x = " ".join(fmt(x) for x in xs)
        data_y = " ".join(fmt(y) for y in ys)
        parts.append(f'<polyline class="series" data-label="{label}" '
                     f'data-x="{data_x}" data-y="{data_y}" points="{pts}" '
                     f'fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 14 + 16 * i
        parts.append(f'<line x1="{ml + pw + 8}" y1="{ly - 4}" x2="{ml + pw + 28}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{ml + pw + 32}" y="{ly}" font-size="11" '
                     f'font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def emit_curves(records_by_label: dict[str, list[EpochRecord]], out_dir) -> list[str]:
    """One SVG per metric, one line per label. Labels whose column is all-NaN
    are omitted from that plot; each omission is noted in curves/manifest.txt.
    Returns the warning lines."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    warnings: list[str] = []
    for metric in METRIC_COLUMNS:
        series = []
        for label, records in records_by_label.items():
            xs = [float(r.epoch) for r in records]
            ys = [float(getattr(r, metric)) for r in records]
            finite = [(x, y) for x, y in zip(xs, ys) if np.isfinite(y)]
            if not finite:
                warnings.append(f"{metric}: series {label!r} omitted (no finite values)")
                continue
            series.append((label, [x for x, _ in finite], [y for _, y in finite]))
        svg = _svg_line_plot(series, f"{metric} by epoch", "epoch", metric)
        (out_dir / f"{metric}.svg").write_text(svg + "\n")
    (out_dir / "manifest.txt").write_text(
        "\n".join([VERSION_LINE] + warnings) + "\n")
    return warnings


# ---------------------------------------------------------------------------
# PGM output


def write_pgm(path, image: np.ndarray, comment: str = "") -> None:
    """Binary P5 graymap from floats in [0,1]; 8-bit quantization happens
    only here, at the file boundary."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 3 and img.shape[-1] == 1:
        img = img[..., 0]
    if img.ndim != 2:
        raise ConfigurationError(f"PGM needs a 2-d grayscale array, got {img.shape}")
    data = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    header = f"P5\n"
    if comment:
        header += "".join(f"# {line}\n" for line in comment.splitlines())
    header += f"{data.shape[1]} {data.shape[0]}\n255\n"
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(data.tobytes())


def _grid(images: list[np.ndarray], rows: int, cols: int) -> np.ndarray:
    """Tile equally-sized grayscale images row-major with 2-pixel white
    separators."""
    pad = 2
    h, w = images[0].shape
    out = np.ones((rows * h + (rows - 1) * pad, cols * w + (cols - 1) * pad))
    for i, img in enumerate(images):
        r, c = divmod(i, cols)
        out[r * (h + pad):r * (h + pad) + h, c * (w + pad):c * (w + pad) + w] = img
    return out


def first_st_outputs(model, images: np.ndarray) -> np.ndarray:
    """Eval-mode output of the model's first spatial transformer, 256 images at a time."""
    if getattr(model, "st1", None) is None:
        raise ConfigurationError("model has no spatial transformer layers; "
                                 "nothing to visualize")
    with no_grad():
        return np.concatenate([model.st1(Tensor(images[i:i + 256]), train=False).data
                               for i in range(0, len(images), 256)])


def emit_st_visuals(model, images: np.ndarray, path) -> np.ndarray:
    """Side-by-side grid (one row per image): original | first-ST output.
    Returns the pre-quantization grid."""
    warped = first_st_outputs(model, images)
    tiles = []
    for orig, st in zip(images, warped):
        tiles += [orig[..., 0], np.clip(st[..., 0], 0.0, 1.0)]
    grid = _grid(tiles, rows=len(images), cols=2)
    write_pgm(path, grid, comment="left: input, right: first ST layer output")
    return grid


def class_statistics(images: np.ndarray, truth: np.ndarray, out_dir,
                     model=None) -> dict[str, np.ndarray]:
    """Per-class pixelwise mean / std / variance images, one column per class
    (population convention), for the originals and, if the model has an ST
    layer, its first-ST outputs. Writes stats_<stat>[_st].pgm; returns the grids."""
    if truth is None:
        raise ConfigurationError("class statistics need ground-truth labels")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    truth = np.asarray(truth)
    classes = np.unique(truth)

    def stat_grids(stack: np.ndarray, tag: str) -> dict[str, np.ndarray]:
        means, stds, variances = [], [], []
        for c in classes:
            members = stack[truth == c][..., 0]
            means.append(members.mean(axis=0))
            variances.append(members.var(axis=0))     # population variance
            stds.append(np.sqrt(members.var(axis=0)))
        grids = {}
        for stat, tiles in (("mean", means), ("std", stds), ("var", variances)):
            grid = _grid(tiles, rows=1, cols=len(classes))
            name = f"stats_{stat}{tag}.pgm"
            write_pgm(out_dir / name, grid,
                      comment=f"per-class pixelwise {stat} (population convention); "
                              f"one column per class, {len(classes)} classes")
            grids[f"{stat}{tag}"] = grid
        return grids

    grids = stat_grids(images, "")
    if getattr(model, "st1", None) is not None:
        grids.update(stat_grids(np.clip(first_st_outputs(model, images), 0, 1), "_st"))
    return grids


# ---------------------------------------------------------------------------
# experiment driver


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    run_records: list[list[EpochRecord]]
    run_csvs: list[Path]
    summary_csv: Path
    checkpoints: list[Path]
    out_dir: Path


def run_experiment(cfg: ExperimentConfig, progress=None) -> ExperimentResult:
    """Train `repeats` times with seeds seed..seed+repeats-1; write one CSV
    and one best-parameters checkpoint per run, then the aggregate summary
    and the per-metric curves. Failures leave completed runs on disk and a
    manifest note before propagating."""
    data = load_dataset(cfg)
    base = Path(cfg.out_dir) / cfg.name
    (base / "curves").mkdir(parents=True, exist_ok=True)
    (base / "checkpoints").mkdir(parents=True, exist_ok=True)
    write_config(base / "config.txt", cfg)

    run_records: list[list[EpochRecord]] = []
    run_csvs: list[Path] = []
    checkpoints: list[Path] = []
    timings: list[float] = []
    try:
        for i in range(cfg.repeats):
            t0 = time.perf_counter()
            result = fit(train_settings(cfg, cfg.seed + i), data.images,
                         data.labels, progress=progress)
            timings.append(time.perf_counter() - t0)
            csv_path = base / f"run{i + 1}.csv"
            write_run_csv(csv_path, cfg, result.records)
            ckpt_path = base / "checkpoints" / f"run{i + 1}.stdac"
            save_checkpoint(ckpt_path, result.best_state)
            run_records.append(result.records)
            run_csvs.append(csv_path)
            checkpoints.append(ckpt_path)
    except Exception as err:
        (base / "manifest.txt").write_text(
            f"{VERSION_LINE}\nINCOMPLETE: run {len(run_records) + 1} of "
            f"{cfg.repeats} failed: {err}\n")
        raise

    finals = [{c: float(getattr(records[-1], c)) for c in METRIC_COLUMNS}
              for records in run_records]
    summary_csv = base / "summary.csv"
    write_summary_csv(summary_csv, cfg, finals)
    emit_curves({f"run{i + 1}": recs for i, recs in enumerate(run_records)},
                base / "curves")
    # wall time is deliberately outside the CSVs: they must be byte-identical
    # across reruns, and timing never is
    (base / "timing.txt").write_text(
        "".join(f"run{i + 1} {t:.3f}s\n" for i, t in enumerate(timings)))
    return ExperimentResult(cfg, run_records, run_csvs, summary_csv,
                            checkpoints, base)


def run_ablation(cfg: ExperimentConfig, st_counts=(0, 1, 2, 3),
                 progress=None) -> dict[int, ExperimentResult]:
    """The st-layer-count sweep: one experiment per count, plus combined
    curves (one line per variant) under <out>/<name>-ablation/curves."""
    from dataclasses import replace
    results: dict[int, ExperimentResult] = {}
    for count in st_counts:
        sub = replace(cfg, name=f"{cfg.name}-st{count}", st_layer_count=count)
        results[count] = run_experiment(sub, progress=progress)
    combined = {f"{count} ST": res.run_records[0]
                for count, res in results.items() if res.run_records}
    emit_curves(combined, Path(cfg.out_dir) / f"{cfg.name}-ablation" / "curves")
    return results
