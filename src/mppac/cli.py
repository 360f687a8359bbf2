"""Command-line runner: anytime bound learning with CSV/SVG traces, plus the
sample-size table, a model linter, and the exact whitebox solver."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace

from .learn_ctmdp import on_demand_bvi_ctmdp
from .learn_mdp import (
    BLACKBOX_UPDATES,
    GREYBOX_UPDATES,
    BoundsReport,
    LearnerConfig,
    on_demand_bvi,
)
from .model import BLACKBOX, CTMDP, GREYBOX, ModelError, SampleOracle, load_model
from .stats import rate_samples
from .whitebox import exact_bracket

MODES = ("blackbox", "blackbox-grey-updates", "greybox")

TABLE_ALPHAS = (0.03, 0.05, 0.10, 0.20)
TABLE_DELTAS = (0.10, 0.05, 1e-4, 1e-7)


@dataclass(frozen=True)
class RunConfig:
    model_path: str
    mode: str = "blackbox"
    learner: LearnerConfig = LearnerConfig()
    csv_path: str | None = None
    svg_path: str | None = None
    seeds: tuple[int, ...] = (0,)


def _parse_seeds(text: str) -> tuple[int, ...]:
    """Seeds come as 'N', 'A..B' (inclusive) or comma-separated values, none
    of them negative."""
    text = text.strip()
    if ".." in text:
        a, b = text.split("..", 1)
        lo, hi = int(a), int(b)
        if hi < lo:
            raise ValueError(f"empty seed range {text!r}")
        seeds = tuple(range(lo, hi + 1))
    else:
        seeds = tuple(int(part) for part in text.split(","))
    if min(seeds) < 0:
        raise ValueError(f"negative seed in {text!r}")
    return seeds


def _run_one(model, mode: str, learner: LearnerConfig, seed: int) -> BoundsReport:
    """One learner run of model in one of MODES; seed seeds the oracle and the learner."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")
    info = GREYBOX if mode == "greybox" else BLACKBOX
    style = BLACKBOX_UPDATES if mode == "blackbox" else GREYBOX_UPDATES
    oracle = SampleOracle(model, info_level=info, rng_seed=seed)
    learner = replace(learner, seed=seed, update_style=style)
    if model.kind == CTMDP:
        return on_demand_bvi_ctmdp(oracle, learner)
    return on_demand_bvi(oracle, learner)


def _write_csv(path: str, report: BoundsReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time_s,episodes,lower,upper\n")
        for t, episodes, low, up in report.trace:
            fh.write(f"{t:.6f},{episodes},{low!r},{up!r}\n")


# stroke colour of each trace, in order; a trace's lower bound is dashed
SVG_COLORS = ("#c0392b", "#2471a3", "#1e8449", "#b9770e")


def _write_svg(path: str, traces: dict) -> None:
    """Self-contained convergence plot of {label: trace}: each trace's scaled
    upper (solid) and lower (dashed) bounds against the trace clock, no
    external assets."""
    width, height = 800, 480
    ml, mr, mt, mb = 64.0, 16.0, 16.0, 48.0
    plot_w = width - ml - mr
    plot_h = height - mt - mb
    t_max = max((row[0] for rows in traces.values() for row in rows), default=1.0) or 1.0

    def x(t: float) -> float:
        return ml + plot_w * t / t_max

    def y(v: float) -> float:
        return mt + plot_h * (1.0 - min(1.0, max(0.0, v)))

    def polyline(rows, idx: int, color: str, dash: str) -> str:
        pts = " ".join(f"{x(row[0]):.2f},{y(row[idx]):.2f}" for row in rows)
        dots = "".join(
            f'<circle cx="{x(row[0]):.2f}" cy="{y(row[idx]):.2f}" r="2.5" fill="{color}"/>'
            for row in rows
        )
        return (
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>'
            + dots
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + plot_h}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt + plot_h}" x2="{ml + plot_w}" y2="{mt + plot_h}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        yy = y(frac)
        parts.append(f'<line x1="{ml - 4}" y1="{yy:.2f}" x2="{ml}" y2="{yy:.2f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{yy + 4:.2f}" text-anchor="end">{frac:g}</text>')
        tt = frac * t_max
        xx = x(tt)
        parts.append(
            f'<line x1="{xx:.2f}" y1="{mt + plot_h}" x2="{xx:.2f}" y2="{mt + plot_h + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{xx:.2f}" y="{mt + plot_h + 18:.2f}" text-anchor="middle">{tt:.3g}</text>'
        )
    parts.append(
        f'<text x="{ml + plot_w / 2:.2f}" y="{height - 10}" text-anchor="middle">trace seconds</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + plot_h / 2:.2f})">scaled value</text>'
    )
    legend_y = mt + 16
    for i, (label, rows) in enumerate(traces.items()):
        color = SVG_COLORS[i % len(SVG_COLORS)]
        for idx, dash, bound in ((3, "", "upper bound"), (2, ' stroke-dasharray="5 3"', "lower bound")):
            name = f"{label} {bound}" if label else bound
            parts.append(polyline(rows, idx, color, dash))
            parts.append(f'<text x="{ml + 10}" y="{legend_y}" fill="{color}">{name}</text>')
            legend_y += 16
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _suffixed(path: str, seed: int, default_ext: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}_s{seed}{ext or default_ext}"


def _print_report(report: BoundsReport) -> None:
    low, up = report.final
    print(f"final interval: [{low:.6g}, {up:.6g}] (reward units, r_max seen {report.r_max_seen:.6g})")
    print(f"width: {up - low:.6g}")
    print(f"certified inconfidence: {report.certified_inconfidence:.6g}")
    print(f"episodes: {report.episodes}, rounds: {report.rounds}, wall seconds: {report.wall_seconds:.1f}")
    if report.timed_out:
        print("stopped by timeout; the reported bounds remain valid (anytime)")


def run(config: RunConfig) -> int:
    try:
        model = load_model(config.model_path)
    except (OSError, ModelError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if len(config.seeds) == 1:
        report = _run_one(model, config.mode, config.learner, config.seeds[0])
        if config.csv_path:
            _write_csv(config.csv_path, report)
        if config.svg_path:
            _write_svg(config.svg_path, {"": report.trace})
        _print_report(report)
        return 0

    # repeated runs: independent seeded learners over one shared model, one
    # after the other (the learners are pure Python, so threads gain nothing),
    # per-seed output files
    reports = [_run_one(model, config.mode, config.learner, seed) for seed in config.seeds]
    for seed, report in zip(config.seeds, reports):
        if config.csv_path:
            _write_csv(_suffixed(config.csv_path, seed, ".csv"), report)
        if config.svg_path:
            _write_svg(_suffixed(config.svg_path, seed, ".svg"), {"": report.trace})
        low, up = report.final
        print(f"seed {seed}: [{low:.6g}, {up:.6g}] width {up - low:.6g}")
    lo, hi = exact_bracket(model)
    widths = [r.width for r in reports]
    covered = sum(r.covers((lo, hi)) for r in reports)
    print(
        f"coverage: {covered}/{len(reports)} runs meet the whitebox bracket "
        f"[{lo:.10g}, {hi:.10g}] of width {hi - lo:.2g}; mean width {sum(widths) / len(widths):.6g}"
    )
    return 0


def lint(path: str) -> int:
    try:
        model = load_model(path)
    except (OSError, ModelError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    # reachability under all actions, following embedded supports
    seen = {model.init}
    frontier = [model.init]
    while frontier:
        s = frontier.pop()
        for a in model.actions[s]:
            for t in model.successors(s, a):
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
    smallest = 1.0
    for (s, a), row in model.rows.items():
        total = sum(row.values())
        for p in row.values():
            smallest = min(smallest, p / total if model.kind == CTMDP else p)
    print(f"OK, {len(seen)} states reachable of {model.state_count}")
    print(f"pmin declared {model.p_min:.6g}, smallest transition probability {smallest:.6g}")
    if len(seen) < model.state_count:
        unreachable = sorted(set(range(model.state_count)) - seen)
        print(f"note: unreachable states {unreachable}")
    return 0


def rates_table() -> int:
    header = "alpha".ljust(8) + "".join(f"δ={d:g}".rjust(14) for d in TABLE_DELTAS)
    print(header)
    for alpha in TABLE_ALPHAS:
        cells = "".join(f"{rate_samples(alpha, d):>14d}" for d in TABLE_DELTAS)
        print(f"{alpha:.0%}".ljust(8) + cells)
    return 0


def solve_whitebox(path: str) -> int:
    try:
        model = load_model(path)
    except (OSError, ModelError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    lo, hi = exact_bracket(model)
    print(f"[{lo:.10g}, {hi:.10g}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mppac",
        description="PAC mean-payoff bounds for blackbox/greybox MDPs and CTMDPs by simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="learn anytime mean-payoff bounds for a model")
    p_run.add_argument("--model", required=True, help="model file (.mdp/.ctmdp text format)")
    p_run.add_argument("--mode", choices=MODES, default="blackbox")
    p_run.add_argument("--epsilon", type=float, default=0.01, help="target half-width ε")
    p_run.add_argument("--delta", type=float, default=0.1, help="overall inconfidence δ")
    p_run.add_argument("--episodes-per-round", type=int, default=10_000)
    p_run.add_argument("--timeout-s", type=float, default=1800.0, help="must be positive (inf: no limit)")
    p_run.add_argument("--seed", default="0", help="N, or one run per seed: 'A..B' inclusive or comma list")
    p_run.add_argument("--csv", help="trace output path (per-seed suffix for several seeds)")
    p_run.add_argument("--svg", help="convergence plot path")
    p_run.add_argument("--anytime", action="store_true", help="ignore the termination test")
    p_run.add_argument("--absolute", action="store_true", help="absolute precision mode")

    p_lint = sub.add_parser("lint", help="parse and validate a model file")
    p_lint.add_argument("model")

    sub.add_parser("rates-table", help="dwell-sample lookup table per (α, δ)")

    p_solve = sub.add_parser("solve-whitebox", help="exact value via the reference solver")
    p_solve.add_argument("model")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    # _run_one sets the learner's seed from seeds, one run per seed
    learner = LearnerConfig(
        epsilon_mp=args.epsilon,
        delta_mp=args.delta,
        episodes_per_round=args.episodes_per_round,
        precision_mode="absolute" if args.absolute else "relative",
        timeout_s=args.timeout_s,
        anytime=args.anytime,
    )
    return RunConfig(
        model_path=args.model,
        mode=args.mode,
        learner=learner,
        csv_path=args.csv,
        svg_path=args.svg,
        seeds=_parse_seeds(args.seed),
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        try:
            config = config_from_args(args)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        return run(config)
    if args.command == "lint":
        return lint(args.model)
    if args.command == "rates-table":
        return rates_table()
    if args.command == "solve-whitebox":
        return solve_whitebox(args.model)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
