#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in interleaved pairs.

Each pair runs ``bench/run.py --trace 0`` once in the parent checkout and
once in the change checkout, in turn; even pairs start with the parent, odd
pairs with the change. The runs stop at the first one that is not correct.
For each end-to-end metric that BENCHMARK.json (of this checkout, only read)
declares, it then prints the two medians, the parent's interquartile range,
how many pairs the change won (ties count for neither side) and the change
of the median against the metric's bound.

Example, from the repository root:
    python scripts/bench_pairs.py --parent ../parent --change . \\
        --workload ladder-greybox --seed 7 --pairs 10 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_bench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The last-line JSON object of one untraced benchmark run in checkout."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=seconds + 600)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return {"correct": False, "error": done.stderr.strip().splitlines()[-1:]}
    return json.loads(lines[-1])


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(metric: dict, parent: list[float], change: list[float]) -> str:
    """One report line: medians, the parent's IQR, the change's wins and its
    median change, judged against the metric's bound."""
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    rel = (c_med - p_med) / p_med if p_med else 0.0
    worse = rel if lower else -rel
    verdict = "beyond" if worse > metric["bound"] else "within"
    return (f"{metric['name']}: parent median {p_med:.6g} (IQR {iqr(parent):.3g}), "
            f"change median {c_med:.6g}, change won {wins}/{len(parent)}, "
            f"median {rel:+.1%} ({verdict} the {metric['bound']:.0%} bound) {metric['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="bench/run.py --seconds")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            out = run_bench(getattr(args, side), args.workload, args.seed, args.seconds)
            if not out.get("correct"):
                print(f"pair {i + 1}: the {side} run is not correct: {out}")
                return 1
            runs[side].append({name: m["value"] for name, m in out["metrics"].items()})
        print(f"pair {i + 1} of {args.pairs} done, {order[0]} first")

    print(f"workload {args.workload} seed {args.seed} pairs {args.pairs} seconds {args.seconds:g}")
    for metric in metrics:
        name = metric["name"]
        print(summarize(metric, [r[name] for r in runs["parent"]], [r[name] for r in runs["change"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
