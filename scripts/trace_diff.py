#!/usr/bin/env python3
"""Run one list of learner cases in two checkouts and compare the runs.

The cases are the golden-trace cases of tests/test_golden_traces.py, plus
--random N draws each of a random MDP and a random CTMDP from
tests/conftest.py, every draw run in the three modes at --epsilon and
--delta. This checkout builds
each model and hands it to both sides as model text, so that both sides run
the same model. Each side runs in its own subprocess, with its checkout's
src/ first on the path, through its own ``mppac.cli._run_one(model, mode,
learner, seed)``, and reads the report's ``oracle_steps``. Both checkouts
must have that ``_run_one`` signature and that field, which came with this
script: an older checkout fails with exit 2.

For each case it prints whether the two runs are identical (trace, final
interval, episodes, rounds and oracle steps), and per side the oracle steps,
rounds, final interval and whether that interval meets the side's whitebox
bracket; then the counts. It writes no file. The exit code is 0 when every
case is identical, 1 when one differs and 2 when a side fails to run.

Example, from the repository root:
    python scripts/trace_diff.py --parent ../parent --change . --random 4
    python scripts/trace_diff.py --parent ../parent --change . --random 4 --epsilon 0.1 --delta 1e-3
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RANDOM_SEED = 0  # seeds the random model draws
RUN_FIELDS = ("trace", "final", "episodes", "rounds", "oracle_steps")


def model_text(model) -> str:
    """model in the model text format, every float as its repr, so that
    parsing the text gives the same model back."""
    lines = [model.kind, f"states {model.state_count}", f"init {model.init}", f"pmin {model.p_min!r}"]
    lines += [f"reward {s} {r!r}" for s, r in enumerate(model.reward)]
    for s, labels in enumerate(model.actions):
        for a in labels:
            lines += [f"t {s} {a} {t} {v!r}" for t, v in model.rows[(s, a)].items()]
    return "\n".join(lines) + "\n"


def build_cases(draws: int, epsilon: float, delta: float | None) -> list[dict]:
    """The cases as JSON-ready dicts: name, model text, mode, seed and
    LearnerConfig fields. The random cases run at delta_mp delta, or at
    LearnerConfig's default when delta is None."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    import numpy as np
    from tests.conftest import random_ctmdp_model, random_mdp_model
    from mppac import LearnerConfig
    from mppac.cli import MODES
    from tests.test_golden_traces import CASES, case_model

    cases = [
        {"name": name, "model": model_text(case_model(model)), "mode": mode, "seed": seed, "learner": overrides}
        for name, (model, mode, seed, overrides) in sorted(CASES.items())
    ]
    rng = np.random.default_rng(RANDOM_SEED)
    learner = {"epsilon_mp": epsilon, "delta_mp": LearnerConfig.delta_mp if delta is None else delta}
    for i in range(draws):
        for kind, draw in (("mdp", random_mdp_model), ("ctmdp", random_ctmdp_model)):
            text = model_text(draw(rng))
            cases += [
                {"name": f"random-{kind}{i}-{mode}", "model": text, "mode": mode, "seed": i, "learner": learner}
                for mode in MODES
            ]
    return cases


def worker(src: str) -> int:
    """Run the cases read from stdin with the package in src, and write one
    result per case to stdout."""
    sys.path.insert(0, src)
    from mppac import LearnerConfig, exact_bracket, parse_model
    from mppac.cli import _run_one

    results = []
    for case in json.load(sys.stdin):
        model = parse_model(case["model"])
        report = _run_one(model, case["mode"], LearnerConfig(**case["learner"]), case["seed"])
        results.append({
            "trace": [list(row) for row in report.trace],
            "final": list(report.final),
            "episodes": report.episodes,
            "rounds": report.rounds,
            "oracle_steps": report.oracle_steps,
            "covers": report.covers(exact_bracket(model)),
        })
    json.dump(results, sys.stdout)
    return 0


def run_side(checkout: str, cases: list[dict]) -> list[dict]:
    """The results of the cases run by checkout's own code."""
    argv = [sys.executable, os.path.abspath(__file__), "--worker", os.path.join(os.path.abspath(checkout), "src")]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    done = subprocess.run(argv, input=json.dumps(cases), capture_output=True, text=True, env=env)
    if done.returncode != 0:
        print(f"the run in {checkout} failed:\n{done.stderr}", file=sys.stderr)
        raise SystemExit(2)
    return json.loads(done.stdout)


def summary(run: dict) -> dict:
    return {k: run[k] for k in ("oracle_steps", "rounds", "episodes", "final", "covers")}


def describe(run: dict) -> str:
    lo, hi = run["final"]
    return (f"steps {run['oracle_steps']} rounds {run['rounds']} [{lo:.6g}, {hi:.6g}] "
            f"covers {'yes' if run['covers'] else 'NO'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--random", type=int, default=2, help="draws of each random model kind")
    ap.add_argument("--epsilon", type=float, default=0.1, help="the random cases' target half-width")
    ap.add_argument("--delta", type=float, help="the random cases' delta_mp (default: LearnerConfig's)")
    ap.add_argument("--json", action="store_true", help="print one JSON object in place of the text report")
    args = ap.parse_args(argv)

    cases = build_cases(args.random, args.epsilon, args.delta)
    with ThreadPoolExecutor(max_workers=2) as pool:
        parent, change = pool.map(lambda checkout: run_side(checkout, cases), (args.parent, args.change))

    rows = []
    for case, p, c in zip(cases, parent, change):
        differs = [k for k in RUN_FIELDS if p[k] != c[k]]
        rows.append({"name": case["name"], "identical": not differs, "differs": differs,
                     "parent": summary(p), "change": summary(c)})
    counts = {
        "cases": len(rows),
        "identical": sum(row["identical"] for row in rows),
        "parent_covers": sum(p["covers"] for p in parent),
        "change_covers": sum(c["covers"] for c in change),
    }
    if args.json:
        print(json.dumps({"cases": rows, "counts": counts}))
    else:
        for row in rows:
            verdict = "identical" if row["identical"] else f"DIFFERS in {', '.join(row['differs'])}"
            print(f"{row['name']}: {verdict}")
            print(f"    parent: {describe(row['parent'])}")
            print(f"    change: {describe(row['change'])}")
        print(f"{counts['identical']} of {counts['cases']} cases identical; the parent covers "
              f"{counts['parent_covers']}, the change {counts['change_covers']}")
    return 0 if counts["identical"] == counts["cases"] else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        sys.exit(worker(sys.argv[2]))
    sys.exit(main())
