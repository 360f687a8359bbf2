#!/usr/bin/env python3
"""Write or check the golden learner traces in tests/data/golden_traces.json.

The runs (model, mode, seed, config) are defined in tests/test_golden_traces.py;
each records the repr of the trace, final interval, episodes, rounds and
oracle steps.

Example, from the repository root:
    python scripts/golden_traces.py --check
    python scripts/golden_traces.py --write
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", action="store_true", help="record the current code's runs")
    action.add_argument("--check", action="store_true", help="compare the current code's runs to the file")
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from tests.test_golden_traces import CASES, GOLDEN, load_golden, run_case

    runs = {name: run_case(name) for name in sorted(CASES)}
    if args.write:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(runs)} runs to {GOLDEN}")
        return 0

    golden = load_golden()
    bad = sorted(name for name in set(runs) | set(golden) if runs.get(name) != golden.get(name))
    for name in bad:
        fields = sorted(k for k in (runs.get(name) or {}) if runs[name][k] != (golden.get(name) or {}).get(k))
        print(f"DIFFERS {name}: {', '.join(fields) or 'missing'}")
    print(f"{len(runs) - len(bad)} of {len(runs)} runs match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
