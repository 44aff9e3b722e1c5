#!/usr/bin/env python3
"""Sweep the spatial-transformer layer count and emit combined curves.

Runs one full experiment per variant (default 0..3 ST layers), each with its
own run CSVs, summary, and checkpoints, then writes a combined curve per
metric with one labeled line per variant under <out>/<name>-ablation/curves.

Typical uses:
    python3 scripts/run_ablation.py --dataset synthetic --synthetic-count 512 \
        --max-epochs 10 --out runs
    python3 scripts/run_ablation.py --config base.cfg --counts 0,1
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from stdac.harness import ExperimentConfig, read_config, run_ablation


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--config", help="base key=value config file")
    p.add_argument("--counts", default="0,1,2,3",
                   help="comma-separated ST layer counts to sweep")
    p.add_argument("--name", help="experiment name (directory stem)")
    p.add_argument("--dataset", choices=["mnist", "fashion", "synthetic"])
    p.add_argument("--data-dir", dest="data_dir")
    p.add_argument("--out", dest="out_dir")
    p.add_argument("--seed", type=int)
    p.add_argument("--repeats", type=int)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.add_argument("--subset", type=int)
    p.add_argument("--synthetic-count", dest="synthetic_count", type=int)
    p.add_argument("--quiet", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cfg = read_config(args.config) if args.config else ExperimentConfig()
    overrides = {k: getattr(args, k) for k in
                 ("name", "dataset", "data_dir", "out_dir", "seed", "repeats",
                  "max_epochs", "subset", "synthetic_count")
                 if getattr(args, k) is not None}
    cfg = replace(cfg, **overrides)
    counts = tuple(int(c) for c in args.counts.split(","))

    def progress(rec):
        print(f"  epoch {rec.epoch}: loss {rec.loss:.4f} acc {rec.acc:.4f}",
              flush=True)

    results = run_ablation(cfg, counts, progress=None if args.quiet else progress)
    for count, res in results.items():
        print(f"{count} ST layers -> {res.summary_csv}")
    print(f"combined curves -> {Path(cfg.out_dir) / (cfg.name + '-ablation') / 'curves'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
