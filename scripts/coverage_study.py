#!/usr/bin/env python3
"""Empirical PAC coverage of the learner against the whitebox solver.

For each model, runs the learner over a block of seeds and reports how often
the exact value lies inside the final interval (the guarantee says: with
probability at least 1 - delta), plus width and runtime statistics.

Example:
    python scripts/coverage_study.py --seeds 20 models/*.mdp models/*.ctmdp
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from mppac.cli import RunConfig, _run_one  # noqa: E402
from mppac.learn_mdp import LearnerConfig  # noqa: E402
from mppac.model import load_model  # noqa: E402
from mppac.whitebox import exact_mean_payoff  # noqa: E402


def study(path: str, seeds: range, learner: LearnerConfig) -> dict:
    """Blackbox runs of `mppac run` over the seeds, checked against the
    whitebox value."""
    model = load_model(path)
    reference = exact_mean_payoff(model)
    config = RunConfig(model_path=path, learner=learner)

    covered = 0
    widths, walls, episode_counts = [], [], []
    timeouts = 0
    for seed in seeds:
        report = _run_one(model, config, seed)
        walls.append(report.wall_seconds)
        low, up = report.final
        widths.append(up - low)
        episode_counts.append(report.episodes)
        timeouts += report.timed_out
        if low - 1e-9 <= reference <= up + 1e-9:
            covered += 1
    return {
        "path": path,
        "reference": reference,
        "covered": covered,
        "runs": len(widths),
        "mean_width": statistics.fmean(widths),
        "max_width": max(widths),
        "mean_wall": statistics.fmean(walls),
        "max_wall": max(walls),
        "mean_episodes": statistics.fmean(episode_counts),
        "timeouts": timeouts,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("models", nargs="+", help="model files to study")
    ap.add_argument("--seeds", type=int, default=20, help="seeds 0..N-1 per model")
    ap.add_argument("--epsilon", type=float, default=0.01)
    ap.add_argument("--delta", type=float, default=0.1)
    ap.add_argument("--episodes-per-round", type=int, default=10_000)
    ap.add_argument("--timeout-s", type=float, default=120.0)
    args = ap.parse_args(argv)

    learner = LearnerConfig(
        epsilon_mp=args.epsilon,
        delta_mp=args.delta,
        episodes_per_round=args.episodes_per_round,
        timeout_s=args.timeout_s,
    )
    print(
        f"{'model':28s} {'exact':>9s} {'coverage':>9s} {'mean w':>8s} {'max w':>8s}"
        f" {'mean s':>7s} {'max s':>7s} {'mean eps':>9s} {'timeouts':>8s}"
    )
    worst_fraction = 1.0
    for path in args.models:
        row = study(path, range(args.seeds), learner)
        fraction = row["covered"] / row["runs"]
        worst_fraction = min(worst_fraction, fraction)
        print(
            f"{row['path']:28s} {row['reference']:9.5f} "
            f"{row['covered']:>4d}/{row['runs']:<4d} "
            f"{row['mean_width']:8.4f} {row['max_width']:8.4f} "
            f"{row['mean_wall']:7.1f} {row['max_wall']:7.1f} "
            f"{row['mean_episodes']:9.0f} {row['timeouts']:>8d}"
        )
    print(f"worst coverage fraction: {worst_fraction:.2f} (guarantee: >= {1 - args.delta:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
