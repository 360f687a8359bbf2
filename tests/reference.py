"""Reference implementations that the tests check the package against.

lower_tp_estimate is the pessimistic probability of one successor.
bellman_blackbox and bellman_greybox evaluate one interval Bellman row by
a per-row loop, independent of the packed row kernel. global_update is one
sweep of that kernel and the phase's deflation, with the values read from
and written to the partial model's dicts. deflate clamps one MEC at a time,
ranking its exits with best_leaving_action, where the value-iteration phase
clamps every MEC at once. record_step counts one sampled step, as the
episode and the MEC walk do in their own loops. ctmdp_mec_gain is the gain
of a chain with known stationary frequencies and rates, and
stationary_distribution gives those frequencies for an irreducible chain.
chernoff_log_term and chernoff_minimizers give the dwell-time Chernoff
bound's log terms and their closed-form minimizers. model_graph is the
adjacency view of a full model, embedded_mdp the jump chain of a CTMDP,
and enumerate_policies_gain the maximal gain by brute force over
positional policies, which the whitebox solver is checked against.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from mppac.graph import ClosedMec, MecRecord, _sccs, best_leaving_action
from mppac.learn_mdp import PartialModel, _estimates, _mec_action_values, _movement, _sweep_once
from mppac.model import CTMDP, MDP, ExplicitModel, ModelError
from mppac.stats import tp_width

POLICY_LIMIT = 300_000  # most positional policies enumerate_policies_gain tries


def lower_tp_estimate(count_sat: int, count_total: int, width: float) -> float:
    """Pessimistic transition probability max(0, frequency - width)."""
    return max(0.0, count_sat / count_total - width)


def bellman_blackbox(s: int, a: str, partial: PartialModel, delta_tp: float):
    """Pessimistic lower / optimistic upper one-step values: the unassigned
    estimate mass counts as 0 for the lower bound and 1 for the upper."""
    n = sum(partial.post[(s, a)].values())
    if n == 0:
        return 0.0, 1.0
    w = tp_width(n, delta_tp)
    low = up = mass = 0.0
    for t, c in sorted(partial.post[(s, a)].items()):
        th = lower_tp_estimate(c, n, w)
        mass += th
        low += th * partial.L[t]
        up += th * partial.U[t]
    return low, up + (1.0 - mass)


def bellman_greybox(s: int, a: str, partial: PartialModel, delta_tp: float):
    """As blackbox, but residual mass goes to the worst/best *seen*
    successor instead of to 0/1."""
    n = sum(partial.post[(s, a)].values())
    if n == 0:
        return 0.0, 1.0
    w = tp_width(n, delta_tp)
    seen = sorted(partial.post[(s, a)].items())
    low = up = mass = 0.0
    for t, c in seen:
        th = lower_tp_estimate(c, n, w)
        mass += th
        low += th * partial.L[t]
        up += th * partial.U[t]
    resid = 1.0 - mass
    low += resid * min(partial.L[t] for t, _ in seen)
    up += resid * max(partial.U[t] for t, _ in seen)
    return low, up


def global_update(partial: PartialModel, update_style: str | None = None, tol: float = 1e-6) -> bool:
    """One synchronous Bellman sweep and deflation, from the partial model's
    current values; True iff any value moved more than tol.

    update_style, if given, replaces the partial model's own style (used to
    compare blackbox and greybox updates on identical counts).
    """
    if update_style is not None:
        partial.update_style = update_style
    est = _estimates(partial)
    L = np.array([partial.L[s] for s in est.states], dtype=float)
    U = np.array([partial.U[s] for s in est.states], dtype=float)
    pair_l, pair_u, new_l, new_u = _sweep_once(est, L, U)
    est.deflate(pair_u, new_u)
    est.store(partial, new_l, new_u, pair_l, pair_u)
    return _movement(L, U, new_l, new_u) > tol


def deflate(M: MecRecord, partial: PartialModel) -> float:
    """Clamp U of every state of M to the best leaving action's upper value;
    returns the largest decrease applied."""
    vals = _mec_action_values(partial, M)
    try:
        sa = best_leaving_action(M, vals, partial.available, partial.post)
    except ClosedMec:
        return 0.0  # no exit and no stay yet: nothing sound to clamp to
    up = vals[sa][1]
    moved = 0.0
    for s in M.states:
        if partial.U[s] > up:
            moved = max(moved, partial.U[s] - up)
            partial.U[s] = up
    return moved


def record_step(partial: PartialModel, s: int, a: str, t: int, dwell: float | None) -> None:
    """Count one step of (s, a) to t, with its dwell time for a CTMDP."""
    key = (s, a)
    succ = partial.post[key]
    succ[t] = succ.get(t, 0) + 1
    if dwell is not None:
        partial.dwell_sum[key] = partial.dwell_sum.get(key, 0.0) + dwell


def ctmdp_mec_gain(pi, r, lam) -> float:
    """Time-average reward of a chain with stationary (embedded) frequencies
    pi, rewards r, and exit rates lam: residence in i weighs pi_i by 1/lam_i."""
    pi = tuple(pi)
    if abs(sum(pi) - 1.0) > 1e-6:
        raise ValueError("pi is not a distribution")
    num = den = 0.0
    for p, reward, rate in zip(pi, r, lam):
        if rate <= 0.0:
            raise ValueError("rates must be positive")
        num += p * reward / rate
        den += p / rate
    return num / den


def chernoff_log_term(n: int, u: float, tilt: float) -> float:
    """Log of (1/(1+u))^n e^{u n tilt}, straight from the bound's definition;
    the underestimation term has tilt 1+alpha on u in (-1, 0), the
    overestimation term tilt 1-alpha on u > 0."""
    return n * (u * tilt - math.log1p(u))


def chernoff_minimizers(alpha_r: float) -> tuple[float, float]:
    """Closed-form tilts u = 1/(1 +- alpha) - 1 attaining the two infima."""
    return 1.0 / (1.0 + alpha_r) - 1.0, 1.0 / (1.0 - alpha_r) - 1.0


def model_graph(m: ExplicitModel) -> dict[tuple[int, str], frozenset[int]]:
    """Adjacency view of a full model (embedded successors for CTMDPs)."""
    return {(s, a): frozenset(row) for (s, a), row in m.rows.items()}


def embedded_mdp(m: ExplicitModel) -> ExplicitModel:
    """Embedded jump chain of a CTMDP: T(s,a,t) = R(s,a,t)/lambda(s,a),
    rewards copied verbatim."""
    if m.kind != CTMDP:
        raise ModelError("embedded_mdp expects a CTMDP")
    rows = {}
    for (s, a), row in m.rows.items():
        lam = sum(row.values())
        rows[(s, a)] = {t: r / lam for t, r in row.items()}
    return ExplicitModel(
        kind=MDP,
        state_count=m.state_count,
        init=m.init,
        p_min=m.p_min,
        actions=m.actions,
        rows=rows,
        reward=m.reward,
    )


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """The stationary distribution of an irreducible chain with matrix P."""
    k = len(P)
    A = P.T - np.eye(k)
    A[-1, :] = 1.0  # normalization replaces one redundant balance row
    b = np.zeros(k)
    b[-1] = 1.0
    return np.linalg.solve(A, b)


def _chain_gain(P: np.ndarray, r: np.ndarray, init: int) -> float:
    """Mean payoff of a Markov chain from init: stationary gain per
    recurrent class, weighted by absorption probabilities."""
    n = len(r)
    edges = {s: set(np.nonzero(P[s])[0].tolist()) for s in range(n)}
    comps = _sccs(range(n), edges)
    bottoms = [sorted(c) for c in comps if all(t in c for s in c for t in edges[s])]

    gains = []
    for comp in bottoms:
        gains.append(float(stationary_distribution(P[np.ix_(comp, comp)]) @ r[comp]))

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

    A CTMDP is uniformized at its largest exit rate C: R(s,a,t)/C toward
    each t and the remaining 1 − λ(s,a)/C on s, which keeps every policy's
    time-average gain. Only for desk-scale models: refuses more than 8
    states or more than POLICY_LIMIT policies.
    """
    n = model.state_count
    if n > 8:
        raise ValueError(f"model too large for policy enumeration ({n} states)")
    total = 1
    for av in model.actions:
        total *= len(av)
        if total > POLICY_LIMIT:
            raise ValueError(f"too many positional policies (> {POLICY_LIMIT})")

    C = max(sum(row.values()) for row in model.rows.values()) if model.kind == CTMDP else 1.0
    r = np.asarray(model.reward, dtype=float)
    best = -math.inf
    for policy in itertools.product(*model.actions):
        P = np.zeros((n, n))
        for s, a in enumerate(policy):
            for t, p in model.rows[(s, a)].items():
                P[s, t] = p / C
            if model.kind == CTMDP:
                P[s, s] += 1.0 - sum(model.rows[(s, a)].values()) / C
        best = max(best, _chain_gain(P, r, model.init))
    return best
