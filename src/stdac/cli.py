"""Command-line entry points: train / eval / viz."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint
from .dac import Backbone, BackboneConfig, evaluate
from .errors import CheckpointError, ConfigurationError, IdxFormatError
from .harness import (DATASETS, ExperimentConfig, class_statistics, emit_st_visuals,
                      load_dataset, read_config, run_ablation, run_experiment)

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
    if len(getattr(args, "st_layers", ())) == 1:
        overrides["st_layer_count"] = args.st_layers[0]
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


def _st_counts(text: str) -> tuple[int, ...]:
    """`--st-layers` value: one ST-layer count, or a comma-separated sweep of
    distinct counts, each in 0..3."""
    counts = text.split(",")
    if not set(counts) <= {"0", "1", "2", "3"} or len(set(counts)) != len(counts):
        raise argparse.ArgumentTypeError(
            f"expected distinct counts in 0..3, comma-separated, got {text!r}")
    return tuple(map(int, counts))


def cmd_train(args) -> int:
    cfg = _build_config(args)

    def print_epoch(label, rec):
        prefix = f"{label} " if label else ""
        print(f"{prefix}epoch {rec.epoch}: loss {rec.loss:.4f} "
              f"selected {rec.selected_fraction:.3f} acc {rec.acc:.4f} "
              f"nmi {rec.nmi:.4f} ari {rec.ari:.4f}", flush=True)

    progress = print_epoch if args.verbose else None
    if len(args.st_layers) > 1:
        results = list(run_ablation(cfg, args.st_layers, progress).values())
    else:
        results = [run_experiment(cfg, progress)]
    for result in results:
        print(f"wrote {len(result.run_csvs)} run file(s) and {result.summary_csv}")
        for line in result.summary_csv.read_text().splitlines():
            if not line.startswith("#"):
                print(line)
    if len(results) > 1:
        curves = Path(cfg.out_dir) / f"{cfg.name}-ablation" / "curves"
        print(f"wrote combined curves to {curves}")
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
    if args.samples < 1:
        raise ConfigurationError(f"--samples must be >= 1, got {args.samples}")
    out_dir = Path(args.out or "viz")
    out_dir.mkdir(parents=True, exist_ok=True)
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
    p_train.add_argument("--st-layers", type=_st_counts, default=(), metavar="N[,N...]",
                         help="ST-layer count; several counts run the sweep")
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
    p_viz.add_argument("--kind", choices=["st", "stats"], required=True)
    p_viz.add_argument("--config")
    p_viz.add_argument("--seed", type=int)
    p_viz.add_argument("--samples", type=int, default=8)
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
