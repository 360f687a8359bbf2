"""Shared fixtures: bundled models, hand-frozen partial models, random
model generators, and a brute-force end-component oracle."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from mppac import (
    BLACKBOX,
    BLACKBOX_UPDATES,
    CTMDP,
    MDP,
    MINUS,
    PLUS,
    UNKNOWN,
    ExplicitModel,
    MecRecord,
    PartialModel,
    load_model,
)

MODELS = Path(__file__).resolve().parent.parent / "models"


# (lower, upper) value of each terminal pseudo-state, as a stay reaches it
PSEUDO_STATE_VALUES = {PLUS: (1.0, 1.0), MINUS: (0.0, 0.0), UNKNOWN: (0.0, 1.0)}


@pytest.fixture(scope="session")
def models_dir() -> Path:
    return MODELS


@pytest.fixture(scope="session")
def two_mec():
    return load_model(MODELS / "two_mec.mdp")


@pytest.fixture(scope="session")
def cycle_entry():
    return load_model(MODELS / "cycle_entry.mdp")


@pytest.fixture(scope="session")
def random5():
    return load_model(MODELS / "random5.mdp")


@pytest.fixture(scope="session")
def three_mecs():
    return load_model(MODELS / "three_mecs.mdp")


@pytest.fixture(scope="session")
def cycle_rates():
    return load_model(MODELS / "cycle_rates.ctmdp")


@pytest.fixture(scope="session")
def nonuniform():
    return load_model(MODELS / "nonuniform.ctmdp")


def frozen_partial(
    triples,
    rewards,
    *,
    p_min=0.1,
    dwell_sums=None,
    succ_total=None,
    update_style=BLACKBOX_UPDATES,
    info_level=BLACKBOX,
    delta_mp=0.1,
    ctmdp=False,
) -> PartialModel:
    """PartialModel with hand-frozen observation counts.

    triples maps (s, a, t) -> observation count; available actions and the
    per-pair successor counts in post are derived from it.

    A run never records a step into PLUS, MINUS or UNKNOWN: it reaches them
    only by a stay draw. So each of them that triples names as a successor
    becomes a discovered absorbing state, with one self-loop observation and
    a stay record whose gain bounds are the pseudo-state's value; after
    deflation its value is exactly that.
    """
    partial = PartialModel(
        p_min,
        delta_mp=delta_mp,
        update_style=update_style,
        info_level=info_level,
        ctmdp=ctmdp,
    )
    pseudo = sorted({t for _, _, t in triples if t in PSEUDO_STATE_VALUES})
    triples = {**triples, **{(t, "loop", t): 1 for t in pseudo}}
    order: dict[int, list[str]] = {}
    for s, a, _ in triples:
        order.setdefault(s, [])
        if a not in order[s]:
            order[s].append(a)
    for s, labels in order.items():
        partial.available[s] = tuple(labels)
        partial.L[s] = 0.0
        partial.U[s] = 1.0
    for (s, a, t), n in triples.items():
        key = (s, a)
        partial.post.setdefault(key, {})[t] = n
        partial.act_L[key] = 0.0
        partial.act_U[key] = 1.0
    if dwell_sums:
        partial.dwell_sum.update(dwell_sums)
    for s, r in rewards.items():
        partial.rewards[s] = float(r)
        if r > partial.r_max_seen:
            partial.r_max_seen = float(r)
    if succ_total:
        partial.succ_total.update(succ_total)
    for t in pseudo:
        low, up = PSEUDO_STATE_VALUES[t]
        partial.L[t], partial.U[t] = low, up
        partial.adopt_looping_record(
            MecRecord(states=frozenset({t}), actions={t: frozenset({"loop"})}, gain_lower=low, gain_upper=up)
        )
    return partial


# ---------------------------------------------------------------------------
# brute-force end components (oracle for the decomposition)


def _strongly_connected(states, succ) -> bool:
    states = frozenset(states)
    for root in states:
        seen = {root}
        stack = [root]
        while stack:
            q = stack.pop()
            for t in succ.get(q, ()):
                if t in states and t not in seen:
                    seen.add(t)
                    stack.append(t)
        if seen != states:
            return False
    return True


def brute_force_mecs(graph):
    """Maximal end components of {(s, a): successor set} by exhaustive subset
    enumeration; intended for at most ~8 states.

    Returns a list of (frozenset states, {s: frozenset labels}) sorted by the
    least state, matching the decomposition's output shape.
    """
    from itertools import combinations

    states = sorted({s for s, _ in graph} | {t for ts in graph.values() for t in ts})
    closed_sets = []
    for r in range(1, len(states) + 1):
        for sub in combinations(states, r):
            T = frozenset(sub)
            acts = {
                s: frozenset(a for (q, a), ts in graph.items() if q == s and ts <= T)
                for s in T
            }
            if any(not acts[s] for s in T):
                continue
            succ = {
                s: set().union(*(graph[(s, a)] for a in acts[s])) for s in T
            }
            if _strongly_connected(T, succ):
                closed_sets.append((T, acts))
    # a MEC is an EC whose state set is not strictly contained in another
    # EC's; keeping every inside-staying action makes its action sets maximal
    mecs = [
        (T, acts)
        for T, acts in closed_sets
        if not any(T < T2 for T2, _ in closed_sets)
    ]
    mecs.sort(key=lambda pair: min(pair[0]))
    return mecs


def random_mdp_graph(rng, max_states=5):
    """Random {(s, a): frozenset successors} adjacency for decomposition tests."""
    n = int(rng.integers(1, max_states + 1))
    graph = {}
    for s in range(n):
        for a in ("a", "b")[: int(rng.integers(1, 3))]:
            k = int(rng.integers(1, min(3, n) + 1))
            ts = rng.choice(n, size=k, replace=False)
            graph[(s, a)] = frozenset(int(t) for t in ts)
    return graph


def random_mdp_model(rng, max_states=5, max_reward=1.0) -> ExplicitModel:
    """Random small MDP with probabilities on a 1/denominator grid (so the
    row sums are exact) and rewards on a coarse grid."""
    n = int(rng.integers(2, max_states + 1))
    actions = []
    rows = {}
    p_min = 1.0
    for s in range(n):
        labels = ("a", "b")[: int(rng.integers(1, 3))]
        actions.append(labels)
        for a in labels:
            k = int(rng.integers(1, min(3, n) + 1))
            ts = sorted(int(t) for t in rng.choice(n, size=k, replace=False))
            weights = [int(rng.integers(1, 5)) for _ in ts]
            total = sum(weights)
            row = {t: w / total for t, w in zip(ts, weights)}
            rows[(s, a)] = row
            p_min = min(p_min, min(row.values()))
    rewards = tuple(
        float(rng.choice([0.0, 0.25 * max_reward, 0.7 * max_reward, max_reward]))
        for _ in range(n)
    )
    if max(rewards) == 0.0:
        rewards = rewards[:-1] + (max_reward,)
    return ExplicitModel(
        kind=MDP,
        state_count=n,
        init=0,
        p_min=p_min,
        actions=tuple(actions),
        rows=rows,
        reward=rewards,
    )


def random_ctmdp_model(rng, max_states=5, max_reward=1.0) -> ExplicitModel:
    """random_mdp_model's draw as a CTMDP: each pair's probabilities become
    its embedded ones, at one random exit rate per pair."""
    m = random_mdp_model(rng, max_states, max_reward)
    rates = {sa: float(rng.choice([0.5, 1.0, 2.0, 4.0, 8.0])) for sa in m.rows}
    return replace(m, kind=CTMDP, rows={sa: {t: p * rates[sa] for t, p in row.items()} for sa, row in m.rows.items()})
