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

from mppac import LearnerConfig, load_model, parse_model
from mppac.cli import _run_one

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_traces.json"

# generated below instead of read from models/
LAYERED = "layered"
TIED_RING = "tied_ring"
RANDOM5_X3 = "random5_x3"

# name -> (model, `mppac run --mode`, seed, LearnerConfig overrides)
CASES = {
    "random5-blackbox-s0": ("random5.mdp", "blackbox", 0, {"epsilon_mp": 0.05}),
    "random5-blackbox-s1": ("random5.mdp", "blackbox", 1, {"epsilon_mp": 0.05}),
    "random5-blackbox-s2": ("random5.mdp", "blackbox", 2, {"epsilon_mp": 0.05}),
    "random5-grey-updates-s0": ("random5.mdp", "blackbox-grey-updates", 0, {"epsilon_mp": 0.05}),
    "two_mec-greybox-s0": ("two_mec.mdp", "greybox", 0, {}),
    "cycle_entry-blackbox-s0": ("cycle_entry.mdp", "blackbox", 0, {"epsilon_mp": 0.05}),
    "cycle_rates-blackbox-s0": ("cycle_rates.ctmdp", "blackbox", 0, {"epsilon_mp": 0.05}),
    "cycle_rates-greybox-s0": ("cycle_rates.ctmdp", "greybox", 0, {"epsilon_mp": 0.05}),
    "layered-greybox-s0": (LAYERED, "greybox", 0, {"epsilon_mp": 0.05, "episodes_per_round": 200}),
    "tied_ring-blackbox-s0": (TIED_RING, "blackbox", 0, {"epsilon_mp": 0.05}),
    "tied_ring-greybox-s0": (TIED_RING, "greybox", 0, {"epsilon_mp": 0.05}),
    "random5_x3-blackbox-s0": (RANDOM5_X3, "blackbox", 0, {"epsilon_mp": 0.15, "episodes_per_round": 1000}),
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


def tied_ring_ctmdp(seed: int = 5, size: int = 4):
    """A CTMDP whose states 1..size form one end component: a ring with
    rewards 1, 0.5, 0.5, 0 (the last ``size`` of them) in random order, so
    two states tie. Action a moves to the next state at a random rate,
    action b splits 3:1 between the next two; the initial state 0 enters
    the ring. pmin 0.21 lies below the smallest embedded probability, 1/4,
    and is not a power of two, so the transition and rate shares of the
    inconfidence split are not exact binary fractions."""
    rng = random.Random(seed)
    rewards = [1.0, 0.5, 0.5, 0.0][-size:]
    rng.shuffle(rewards)
    lines = ["ctmdp", f"states {size + 1}", "init 0", "pmin 0.21", "t 0 a 1 1.0"]
    for s, r in enumerate(rewards, start=1):
        lines.append(f"reward {s} {r!r}")
    for s in range(1, size + 1):
        nxt = s % size + 1
        rate = rng.choice((1.0, 2.0))
        lines.append(f"t {s} a {nxt} {rng.choice((1.0, 2.0, 4.0))!r}")
        lines.append(f"t {s} b {nxt} {3 * rate!r}")
        lines.append(f"t {s} b {nxt % size + 1} {rate!r}")
    return parse_model("\n".join(lines) + "\n")


def random5_x3():
    """random5.mdp with every reward times 3: r_max 3, value 1.75. The
    learner discovers the rewards 0.75, 2.25 and 3 one after another, so it
    rescales its scaled gain bounds as the largest reward seen grows, and
    its relative termination width divides by an r_max other than 1."""
    lines = []
    for line in (ROOT / "models" / "random5.mdp").read_text(encoding="utf-8").splitlines():
        if line.startswith("reward "):
            _, s, r = line.split()
            line = f"reward {s} {3 * float(r)!r}"
        lines.append(line)
    return parse_model("\n".join(lines) + "\n")


GENERATED = {LAYERED: layered_model, TIED_RING: tied_ring_ctmdp, RANDOM5_X3: random5_x3}


def case_model(model_name: str):
    """The model a case names: a generated one or a file in models/."""
    return GENERATED[model_name]() if model_name in GENERATED else load_model(ROOT / "models" / model_name)


def run_case(name: str) -> dict:
    """One learner run of CASES[name], as the repr of each recorded field."""
    model_name, mode, seed, overrides = CASES[name]
    report = _run_one(case_model(model_name), mode, LearnerConfig(**overrides), seed)
    return {
        "trace": repr(report.trace),
        "final": repr(report.final),
        "episodes": repr(report.episodes),
        "rounds": repr(report.rounds),
        "steps_sampled": repr(report.oracle_steps),
    }


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_covers_every_case():
    assert sorted(load_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_golden_trace(name):
    assert run_case(name) == load_golden()[name]
