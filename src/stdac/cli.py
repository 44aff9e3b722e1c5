"""Command-line entry points: train / eval / viz."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint
from .dac import Backbone, BackboneConfig, EpochRecord, evaluate
from .errors import CheckpointError, ConfigurationError, IdxFormatError
from .harness import (DATASETS, ExperimentConfig, class_statistics, emit_curves,
                      emit_st_visuals, load_dataset, read_config, read_run_csv, run_experiment)

DATASET_DEFAULT_L0 = {"fashion": 0.8}


def backbone_from_state(state: dict[str, np.ndarray]) -> Backbone:
    """Rebuild the model a checkpoint was saved from, inferring the ST-layer
    count and cluster count from the parameter names and shapes."""
    st_count = sum(1 for i in (1, 2, 3)
                   if any(name.startswith(f"st{i}/") for name in state))
    if st_count and not all(any(n.startswith(f"st{i}/") for n in state)
                            for i in range(1, st_count + 1)):
        raise ConfigurationError("checkpoint ST layers are not a prefix of st1..st3")
    head_bias = state.get("head/dense/bias")
    if head_bias is None:
        raise ConfigurationError("checkpoint lacks head/dense/bias; not a backbone "
                                 "checkpoint")
    model = Backbone(BackboneConfig(st_layer_count=st_count,
                                    cluster_count=head_bias.shape[0]))
    model.load_state(state)
    return model


def _build_config(args) -> ExperimentConfig:
    cfg = read_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if getattr(args, "st_layers", None) is not None:
        overrides["st_layer_count"] = args.st_layers
    if getattr(args, "dataset", None):
        overrides["dataset"] = args.dataset
        if args.dataset in DATASET_DEFAULT_L0 and args.config is None:
            overrides["l0"] = DATASET_DEFAULT_L0[args.dataset]
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "out", None):
        overrides["out_dir"] = args.out
    if getattr(args, "data_dir", None):
        overrides["data_dir"] = args.data_dir
    return replace(cfg, **overrides) if overrides else cfg


def cmd_train(args) -> int:
    cfg = _build_config(args)

    def progress(rec):
        print(f"epoch {rec.epoch}: loss {rec.loss:.4f} selected {rec.selected_fraction:.3f} "
              f"acc {rec.acc:.4f} nmi {rec.nmi:.4f} ari {rec.ari:.4f}", flush=True)

    result = run_experiment(cfg, progress=progress if args.verbose else None)
    print(f"wrote {len(result.run_csvs)} run file(s) and {result.summary_csv}")
    for line in result.summary_csv.read_text().splitlines():
        if not line.startswith("#"):
            print(line)
    return 0


def cmd_eval(args) -> int:
    model = backbone_from_state(load_checkpoint(args.checkpoint))
    cfg = _build_config(args)
    data = load_dataset(cfg)
    if data.labels is None:
        raise ConfigurationError("evaluation needs ground-truth labels")
    acc, nmi_v, ari_v = evaluate(model, data.images, data.labels)
    print(f"n {len(data)}  st_layers {model.config.st_layer_count}")
    print(f"acc {acc:.6f}  nmi {nmi_v:.6f}  ari {ari_v:.6f}")
    return 0


def cmd_viz(args) -> int:
    out_dir = Path(args.out or "viz")
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.kind == "curves":
        run_dir = Path(args.runs) if args.runs else Path(args.checkpoint).parent.parent
        csvs = sorted(run_dir.glob("run*.csv"))
        if not csvs:
            raise ConfigurationError(f"no run CSVs under {run_dir}")
        by_label = {}
        for path in csvs:
            _, rows = read_run_csv(path)
            by_label[path.stem] = [EpochRecord(**{**r, "epoch": int(r["epoch"])})
                                   for r in rows]
        emit_curves(by_label, out_dir)
        print(f"wrote curves for {len(by_label)} run(s) to {out_dir}")
        return 0

    model = backbone_from_state(load_checkpoint(args.checkpoint))
    cfg = _build_config(args)
    data = load_dataset(cfg)
    if args.kind == "st":
        n = min(args.samples, len(data))
        path = out_dir / "st_grid.pgm"
        emit_st_visuals(model, data.images[:n], path)
        print(f"wrote {path}")
    elif args.kind == "stats":
        if data.labels is None:
            raise ConfigurationError("stats visualization needs labels")
        grids = class_statistics(data.images, data.labels, out_dir, model=model)
        print(f"wrote {len(grids)} statistic image(s) to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stdac",
        description="Cluster images by pairwise feature similarity, with "
                    "spatial-transformer ablations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--dataset", choices=DATASETS)
        p.add_argument("--data-dir", help="directory holding the IDX files")
        p.add_argument("--out")

    p_train = sub.add_parser("train", help="run a training experiment")
    p_train.add_argument("--config", help="key=value config file")
    p_train.add_argument("--st-layers", type=int, choices=[0, 1, 2, 3])
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--verbose", action="store_true")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--config")
    p_eval.add_argument("--seed", type=int)
    common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_viz = sub.add_parser("viz", help="emit visualization files")
    p_viz.add_argument("--checkpoint", required=True)
    p_viz.add_argument("--kind", choices=["st", "stats", "curves"], required=True)
    p_viz.add_argument("--config")
    p_viz.add_argument("--seed", type=int)
    p_viz.add_argument("--samples", type=int, default=8)
    p_viz.add_argument("--runs", help="experiment directory with run CSVs "
                                      "(curves kind)")
    common(p_viz)
    p_viz.set_defaults(func=cmd_viz)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, CheckpointError, IdxFormatError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
