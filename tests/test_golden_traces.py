"""Golden traces: learner runs at fixed seeds must reproduce the recorded
trace, final interval, episode and round counts and oracle steps exactly.

A pure refactor keeps these byte-identical. The file is written by
``scripts/golden_traces.py --write``; an intended change to the algorithm
rewrites it and says in CHANGES.md how the traces differ.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from mppac import (
    BLACKBOX,
    BLACKBOX_UPDATES,
    CTMDP,
    GREYBOX,
    GREYBOX_UPDATES,
    LearnerConfig,
    SampleOracle,
    load_model,
    on_demand_bvi,
    on_demand_bvi_ctmdp,
    parse_model,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_traces.json"

# mode -> (oracle information level, Bellman update style), as `mppac run --mode`
MODES = {
    "blackbox": (BLACKBOX, BLACKBOX_UPDATES),
    "blackbox-grey-updates": (BLACKBOX, GREYBOX_UPDATES),
    "greybox": (GREYBOX, GREYBOX_UPDATES),
}

LAYERED = "layered"  # generated below instead of read from models/

# name -> (model, mode, seed, LearnerConfig overrides)
CASES = {
    "random5-blackbox-s0": ("random5.mdp", "blackbox", 0, {"epsilon_mp": 0.05}),
    "random5-blackbox-s1": ("random5.mdp", "blackbox", 1, {"epsilon_mp": 0.05}),
    "random5-blackbox-s2": ("random5.mdp", "blackbox", 2, {"epsilon_mp": 0.05}),
    "random5-grey-updates-s0": ("random5.mdp", "blackbox-grey-updates", 0, {"epsilon_mp": 0.05}),
    "two_mec-greybox-s0": ("two_mec.mdp", "greybox", 0, {}),
    "cycle_entry-blackbox-s0": ("cycle_entry.mdp", "blackbox", 0, {"epsilon_mp": 0.05}),
    "cycle_rates-blackbox-s0": ("cycle_rates.ctmdp", "blackbox", 0, {"epsilon_mp": 0.05}),
    "cycle_rates-exact-greybox-s0": (
        "cycle_rates.ctmdp", "greybox", 0, {"epsilon_mp": 0.05, "exact_mec_bounds": True}
    ),
    "layered-greybox-s0": (LAYERED, "greybox", 0, {"epsilon_mp": 0.05, "episodes_per_round": 200}),
}


def layered_model(seed: int = 7, layers: int = 9, width: int = 100):
    """A 1,001-state layered MDP: the initial state, ``layers`` layers of
    ``width`` states and ``width`` absorbing sinks with rewards 0.1..1.0.
    Action a moves deterministically to a random state of the next layer,
    action b splits 3:1 between two of them, so the discovered fragment has
    rows with complete and incomplete greybox support."""
    rng = random.Random(seed)

    def layer(i: int) -> range:
        if i == 0:
            return range(0, 1)
        start = 1 + (i - 1) * width
        return range(start, start + width)

    sinks = layer(layers + 1)
    lines = ["mdp", f"states {1 + (layers + 1) * width}", "init 0", "pmin 0.25"]
    for k, s in enumerate(sinks):
        lines.append(f"reward {s} {(k % 10 + 1) / 10!r}")
    for i in range(layers + 1):
        nxt = list(layer(i + 1))
        for s in layer(i):
            lines.append(f"t {s} a {rng.choice(nxt)} 1")
            t1, t2 = rng.sample(nxt, 2)
            lines.append(f"t {s} b {t1} 0.75")
            lines.append(f"t {s} b {t2} 0.25")
    for s in sinks:
        lines.append(f"t {s} stay {s} 1")
    return parse_model("\n".join(lines) + "\n")


def run_case(name: str) -> dict:
    """One learner run of CASES[name], as the repr of each recorded field."""
    model_name, mode, seed, overrides = CASES[name]
    model = layered_model() if model_name == LAYERED else load_model(ROOT / "models" / model_name)
    info, style = MODES[mode]
    oracle = SampleOracle(model, info_level=info, rng_seed=seed)
    config = LearnerConfig(seed=seed, update_style=style, **overrides)
    learn = on_demand_bvi_ctmdp if model.kind == CTMDP else on_demand_bvi
    report = learn(oracle, config)
    return {
        "trace": repr(report.trace),
        "final": repr(report.final),
        "episodes": repr(report.episodes),
        "rounds": repr(report.rounds),
        "steps_sampled": repr(oracle.steps_sampled),
    }


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_covers_every_case():
    assert sorted(load_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_golden_trace(name):
    assert run_case(name) == load_golden()[name]
