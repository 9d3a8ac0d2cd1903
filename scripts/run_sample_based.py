#!/usr/bin/env python3
"""Sample-based experiments: rollout-estimated gradients, 5 repeats each.

Full-size runs (M=10000) take about 12 minutes with one worker (about
90 s per GDA repeat and 50 s per AG repeat on a 2-core machine); pass
--quick for a reduced M=1000 variant that takes about 3 minutes.
"""

import argparse
import pathlib
import sys
from dataclasses import replace

from lqmfg.cli import load_config, run_experiment

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="reduce perturbation count to 1000")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()
    for name in ("table1_gda_sampled", "table1_ag_sampled"):
        cfg = load_config(CONFIGS / f"{name}.cfg")
        if args.quick:
            est = replace(cfg.estimator, M=1000)
            cfg = replace(cfg, estimator=est,
                          optimizer=replace(cfg.optimizer, estimator=est),
                          output_dir=cfg.output_dir + "_quick")
        summary = run_experiment(cfg, workers=args.workers)
        print(f"{name}: final relative error "
              f"{summary['final_rel_err_mean']:.3e} -> {cfg.output_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
