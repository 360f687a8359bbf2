"""Reference solver for fully known models.

Exact MEC gains, the weighted MEC quotient with reachability value
iteration, and brute-force policy enumeration. These are the oracles the
test suite checks the learners against; nothing here ever samples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graph import MINUS, PLUS, STAY, MecRecord, _sccs, mec_decomposition
from .model import CTMDP, ExplicitModel

BETA = 1e-6  # oracle tolerance
POLICY_LIMIT = 300_000  # most positional policies enumerate_policies_gain tries
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


def _chain_gain(P: np.ndarray, r: np.ndarray, init: int) -> float:
    """Mean payoff of a Markov chain from init: stationary gain per
    recurrent class, weighted by absorption probabilities."""
    n = len(r)
    edges = {s: set(np.nonzero(P[s])[0].tolist()) for s in range(n)}
    comps = _sccs(range(n), edges)
    bottoms = [sorted(c) for c in comps if all(t in c for s in c for t in edges[s])]

    gains = []
    for comp in bottoms:
        k = len(comp)
        A = P[np.ix_(comp, comp)].T - np.eye(k)
        A[-1, :] = 1.0  # normalization replaces one redundant balance row
        b = np.zeros(k)
        b[-1] = 1.0
        pi = np.linalg.solve(A, b)
        gains.append(float(pi @ r[comp]))

    for comp, g in zip(bottoms, gains):
        if init in comp:
            return g
    recurrent = {s for comp in bottoms for s in comp}
    trans = sorted(set(range(n)) - recurrent)
    ti = {s: i for i, s in enumerate(trans)}
    A = np.eye(len(trans)) - P[np.ix_(trans, trans)]
    total = 0.0
    for comp, g in zip(bottoms, gains):
        absorb = np.linalg.solve(A, P[np.ix_(trans, comp)].sum(axis=1))
        total += float(absorb[ti[init]]) * g
    return total


def enumerate_policies_gain(model: ExplicitModel) -> float:
    """Exact maximal gain by brute force over positional policies.

    Only for desk-scale models: refuses more than 8 states or more than
    POLICY_LIMIT policies.
    """
    n = model.state_count
    if n > 8:
        raise ValueError(f"model too large for policy enumeration ({n} states)")
    total = 1
    for av in model.actions:
        total *= len(av)
        if total > POLICY_LIMIT:
            raise ValueError(f"too many positional policies (> {POLICY_LIMIT})")

    rows = _solver_rows(model)
    r = np.asarray(model.reward, dtype=float)
    best = -math.inf
    for policy in itertools.product(*model.actions):
        P = np.zeros((n, n))
        for s, a in enumerate(policy):
            for t, p in rows[(s, a)].items():
                P[s, t] = p
        best = max(best, _chain_gain(P, r, model.init))
    return best
