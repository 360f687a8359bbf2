#!/usr/bin/env python3
"""Compare convergence of the three information modes on one model.

Runs the learner in blackbox, blackbox-grey-updates, and greybox mode with
the same seed, prints a per-mode summary, and writes one SVG overlaying the
lower/upper bound trajectories of every mode against the trace clock.

Example:
    python scripts/convergence_plot.py --model models/random5.mdp \
        --seed 1 --timeout-s 120 --out random5_modes.svg
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from mppac.cli import MODES, RunConfig, _run_one, _write_svg  # noqa: E402
from mppac.learn_mdp import LearnerConfig  # noqa: E402
from mppac.model import load_model  # noqa: E402
from mppac.whitebox import exact_mean_payoff  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--model", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epsilon", type=float, default=0.01)
    ap.add_argument("--delta", type=float, default=0.1)
    ap.add_argument("--episodes-per-round", type=int, default=10_000)
    ap.add_argument("--timeout-s", type=float, default=300.0)
    ap.add_argument("--out", default="convergence.svg")
    args = ap.parse_args(argv)

    model = load_model(args.model)
    reference = exact_mean_payoff(model)
    print(f"whitebox value: {reference:.6g}")

    learner = LearnerConfig(
        epsilon_mp=args.epsilon,
        delta_mp=args.delta,
        episodes_per_round=args.episodes_per_round,
        timeout_s=args.timeout_s,
    )
    traces = {}
    for mode in MODES:
        config = RunConfig(model_path=args.model, mode=mode, learner=learner)
        report = _run_one(model, config, args.seed)
        traces[mode] = report.trace
        low, up = report.final
        inside = "yes" if low - 1e-9 <= reference <= up + 1e-9 else "NO"
        print(
            f"{mode:22s} [{low:.5f}, {up:.5f}] width {up - low:.5f} "
            f"episodes {report.episodes:>8d} wall {report.wall_seconds:6.1f}s "
            f"r_max seen {report.r_max_seen:g} covers: {inside}"
        )
    _write_svg(args.out, traces)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
