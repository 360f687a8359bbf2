"""Reference solver for fully known models.

Exact MEC gains and the weighted MEC quotient with reachability value
iteration, in plain Python: the exact values that ``mppac solve-whitebox``
prints and that the tests and the benchmark check the learners against.
Nothing here ever samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import MINUS, PLUS, STAY, MecRecord, mec_decomposition
from .model import CTMDP, ExplicitModel

BETA = 1e-6  # oracle tolerance
APERIODICITY = 0.95  # virtual self-loop weight for gain value iteration


def _uniform_rows(m: ExplicitModel) -> dict:
    """Exact uniformization of a CTMDP with C = max exit rate: probability
    R(s,a,t)/C toward each other state, remainder onto the self-loop. The
    uniformized chain's stationary distribution is the CTMDP's time-average
    one, so mean payoffs carry over unchanged."""
    C = max(m.exit_rate(s, a) for (s, a) in m.rows)
    rows = {}
    for (s, a), row in m.rows.items():
        out = {t: r / C for t, r in row.items() if t != s}
        self_mass = 1.0 - sum(out.values())
        if self_mass > 0.0:
            out[s] = self_mass
        rows[(s, a)] = out
    return rows


def _solver_rows(m: ExplicitModel) -> dict:
    return _uniform_rows(m) if m.kind == CTMDP else m.rows


def _relative_vi_gain(states, actions, rows, reward) -> float:
    """Maximal gain of a communicating sub-MDP by relative value iteration.

    A virtual self-loop of mass 1-y per state-action forces aperiodicity
    without changing any policy's stationary distribution (hence gain).
    Stops when the update-difference span drops below BETA; the midpoint of
    the span is then within BETA of the optimal gain.
    """
    idx = {s: i for i, s in enumerate(states)}
    y = APERIODICITY
    h = [0.0] * len(states)
    while True:
        new = []
        for s in states:
            best = -math.inf
            for a in actions[s]:
                total = 0.0
                for t, p in rows[(s, a)].items():
                    total += p * h[idx[t]]
                if total > best:
                    best = total
            new.append(reward[s] + y * best + (1.0 - y) * h[idx[s]])
        deltas = [nv - ov for nv, ov in zip(new, h)]
        lo, hi = min(deltas), max(deltas)
        if hi - lo <= BETA:
            return (hi + lo) / 2.0
        base = new[0]  # renormalize so values stay bounded
        h = [v - base for v in new]


def exact_mec_gain(mec: MecRecord, model: ExplicitModel) -> float:
    """Maximal mean payoff achievable inside a MEC, in reward units."""
    return _relative_vi_gain(
        states=sorted(mec.states),
        actions={s: sorted(mec.actions[s]) for s in mec.states},
        rows=_solver_rows(model),
        reward=model.reward,
    )


@dataclass(frozen=True)
class WeightedQuotient:
    """MECs collapsed to single nodes that may 'stay' and jump to the PLUS
    terminal with mass f = gain/r_max (MINUS with the rest); transient
    states keep their identity and actions."""

    init: int
    nodes: tuple[int, ...]
    f: dict  # MEC node -> stay mass toward PLUS
    actions: dict  # node -> tuple of action keys
    rows: dict  # (node, action key) -> {node: probability}
    r_max: float


def build_weighted_quotient(model: ExplicitModel) -> WeightedQuotient:
    rows = _solver_rows(model)
    r_max = model.r_max
    mecs = mec_decomposition({sa: frozenset(row) for sa, row in rows.items()})

    node_of = {}
    for i, M in enumerate(mecs):
        for s in M.states:
            node_of[s] = model.state_count + i

    def map_row(row):
        out: dict[int, float] = {}
        for t, p in row.items():
            q = node_of.get(t, t)
            out[q] = out.get(q, 0.0) + p
        return out

    f: dict[int, float] = {}
    qacts: dict[int, tuple] = {}
    qrows: dict = {}
    for i, M in enumerate(mecs):
        node = model.state_count + i
        gain = exact_mec_gain(M, model)
        fi = min(1.0, max(0.0, gain / r_max)) if r_max > 0 else 0.0
        f[node] = fi
        keys = [STAY]
        qrows[(node, STAY)] = {PLUS: fi, MINUS: 1.0 - fi}
        for s in sorted(M.states):
            for a in model.actions[s]:
                if a in M.actions[s]:
                    continue  # staying action, collapsed into the node
                keys.append((s, a))
                qrows[(node, (s, a))] = map_row(rows[(s, a)])
        qacts[node] = tuple(keys)
    for s in range(model.state_count):
        if s in node_of:
            continue
        qacts[s] = tuple(model.actions[s])
        for a in model.actions[s]:
            qrows[(s, a)] = map_row(rows[(s, a)])

    return WeightedQuotient(
        init=node_of.get(model.init, model.init),
        nodes=tuple(sorted(qacts)),
        f=f,
        actions=qacts,
        rows=qrows,
        r_max=r_max,
    )


def _max_reachability(q: WeightedQuotient) -> dict:
    """Least fixed point of the max-reachability operator toward PLUS,
    by Gauss-Seidel iteration from zero."""
    v = {node: 0.0 for node in q.nodes}
    v[PLUS] = 1.0
    v[MINUS] = 0.0
    tol = min(BETA, 1e-9) / 8.0
    while True:
        change = 0.0
        for node in q.nodes:
            best = 0.0
            for key in q.actions[node]:
                total = 0.0
                for t, p in q.rows[(node, key)].items():
                    total += p * v[t]
                if total > best:
                    best = total
            if best - v[node] > change:
                change = best - v[node]
            v[node] = best
        if change <= tol:
            return v


def exact_mean_payoff(model: ExplicitModel) -> float:
    """Maximum expected mean payoff from the initial state, in reward units:
    r_max times the maximal probability of reaching PLUS in the weighted
    MEC quotient. CTMDPs are uniformized exactly first."""
    if model.r_max <= 0.0:
        return 0.0
    q = build_weighted_quotient(model)
    return q.r_max * _max_reachability(q)[q.init]
