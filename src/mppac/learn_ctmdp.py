"""Mean-payoff learning for blackbox/greybox CTMDPs.

Same on-demand loop as the MDP learner — embedded transition frequencies
drive everything outside MECs, where rates don't matter — plus rate
estimation from dwell times. Inside a sure MEC, gain bounds come from
uniformized interval value iteration under adversarial rate assignments
within the certified relative error: either an exact threshold sweep over
reward-sorted states or a three-call heuristic keyed on the plain estimate.
"""

from __future__ import annotations

from .graph import MecRecord
from .learn_mdp import (
    BoundsReport,
    LearnerConfig,
    PartialModel,
    _interval_gain_vi,
    _learn,
    update_mec_value,
)
from .learn_mdp import simulate_episode, simulate_mec  # noqa: F401  bound here for bench/tracer.py
from .model import CTMDP
from .stats import rate_inconfidence


_ALPHA_CACHE: dict = {}


def achieved_rate_alpha(count: int, delta_r: float) -> float:
    """Smallest relative rate error certified at inconfidence delta_r by
    count dwell samples; capped just below 1 when even that is out of
    reach (the rate interval is then near-vacuous but still used)."""
    if count <= 0:
        return 1.0 - 1e-9
    key = (count, delta_r)
    hit = _ALPHA_CACHE.get(key)
    if hit is not None:
        return hit
    hi = 1.0 - 1e-9
    if rate_inconfidence(count, hi) > delta_r:
        _ALPHA_CACHE[key] = hi
        return hi
    lo = 1e-9
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if rate_inconfidence(count, mid) <= delta_r:
            hi = mid
        else:
            lo = mid
    _ALPHA_CACHE[key] = hi
    return hi


# ---------------------------------------------------------------------------
# uniformization


def uniformize(freq: dict, rates: dict, C: float | None = None) -> dict:
    """Turn per-pair frequencies and exit rates into the rows of one
    discrete chain, (s,a) -> {t: probability}: off-diagonal mass freq·λ/C,
    remainder as a self-loop. C defaults to the largest rate."""
    lam_max = max(rates.values())
    if C is None:
        C = lam_max
    if C < lam_max * (1.0 - 1e-12):
        raise ValueError(f"uniformization rate {C:.6g} below assigned rate {lam_max:.6g}")
    rows = {}
    for sa, lam in rates.items():
        s = sa[0]
        row = {}
        off = 0.0
        for t, f in freq[sa].items():
            if t == s:
                continue
            mass = f * lam / C
            row[t] = mass
            off += mass
        self_mass = 1.0 - off
        if self_mass > 0.0:
            row[s] = self_mass
        rows[sa] = row
    return rows


def update_mec_value_ctmdp(
    M: MecRecord,
    rates: dict,
    partial: PartialModel,
    beta: float,
    delta_tp: float | None = None,
    C: float | None = None,
):
    """Gain bounds of M under one concrete rate assignment: uniformize the
    observed frequencies at those rates, then run interval VI with widths
    from the counts."""
    if delta_tp is None:
        delta_tp = partial.current_delta_tp()
    observed = {(s, a): partial.row(s, a) for s in M.states for a in M.actions[s]}
    rewards = {s: partial.scaled_reward(s) for s in M.states}
    uni = uniformize({sa: dict(freqs) for sa, (_, freqs) in observed.items()}, rates, C)
    rows = {sa: (n, tuple(sorted(uni[sa].items()))) for sa, (n, _) in observed.items()}
    return _interval_gain_vi(M, rows, rewards, delta_tp, beta)


# ---------------------------------------------------------------------------
# rate-adversarial gain bounds


def boundary_rate_assignment(lambda_hats, alpha_r: float, j: int, direction: str):
    """Threshold rate choice over states sorted by descending reward: for
    the maximizing direction the first j states run slow (λ̂(1−α), more time
    in high reward) and the rest fast; mirrored for the minimum."""
    if direction not in ("max", "min"):
        raise ValueError(f"unknown direction {direction!r}")
    low = 1.0 - alpha_r
    high = 1.0 + alpha_r
    if direction == "min":
        low, high = high, low
    return tuple(lam * (low if i < j else high) for i, lam in enumerate(lambda_hats))


def _reward_sorted(M: MecRecord, partial: PartialModel):
    return sorted(M.states, key=lambda s: (-partial.rewards[s], s))


def _uniformization_rate(lam: dict, alpha_r: float) -> float:
    # one shared C covering λ̂(1+α) keeps every sweep call comparable and
    # the true rate inside the uniformizable range with the stated confidence
    return max(lam.values()) * (1.0 + alpha_r)


def _pair_rates(M: MecRecord, partial: PartialModel) -> dict:
    # every step of a pair adds one dwell time, so counts are sample counts
    return {
        (s, a): partial.counts[(s, a)] / partial.dwell_sum[(s, a)]
        for s in M.states
        for a in M.actions[s]
    }


def find_mec_mp_bounds_exact(
    M: MecRecord,
    partial: PartialModel,
    alpha_r: float,
    beta: float,
    delta_tp: float | None = None,
):
    """Gain bounds over all rates within relative error alpha_r: sweep the
    threshold assignments over reward-sorted states in both directions,
    keeping the extreme VI bound; each sweep stops once the value turns
    back (the optimum over assignments has threshold form)."""
    lam = _pair_rates(M, partial)
    C = _uniformization_rate(lam, alpha_r)
    order = _reward_sorted(M, partial)
    m = len(order)

    def sweep(direction: str, side: int) -> float:
        best = None
        for j in range(m + 1):
            factors = boundary_rate_assignment([1.0] * m, alpha_r, j, direction)
            rates = {
                (s, a): lam[(s, a)] * factors[i]
                for i, s in enumerate(order)
                for a in M.actions[s]
            }
            v = update_mec_value_ctmdp(M, rates, partial, beta, delta_tp, C)[side]
            if best is None:
                best = v
            elif v > best if side == 1 else v < best:
                best = v
            elif v != best:
                break  # past the threshold optimum; later j only get worse
        return best

    v_u = sweep("max", 1)
    v_l = sweep("min", 0)
    return min(v_l, v_u), max(v_l, v_u)


def find_mec_mp_bounds_heuristic(
    M: MecRecord,
    partial: PartialModel,
    alpha_r: float,
    beta: float,
    delta_tp: float | None = None,
):
    """Three-call approximation: estimate the gain at the plain rates, then
    slow down (speed up) the states earning at least that much to push the
    bound up (down)."""
    lam = _pair_rates(M, partial)
    C = _uniformization_rate(lam, alpha_r)
    l0, u0 = update_mec_value_ctmdp(M, lam, partial, beta, delta_tp, C)
    v_hat = (l0 + u0) / 2.0
    fast = {}
    slow = {}
    for (s, a), rate in lam.items():
        if partial.scaled_reward(s) >= v_hat:
            fast[(s, a)] = rate * (1.0 + alpha_r)
            slow[(s, a)] = rate * (1.0 - alpha_r)
        else:
            fast[(s, a)] = rate * (1.0 - alpha_r)
            slow[(s, a)] = rate * (1.0 + alpha_r)
    v_l = update_mec_value_ctmdp(M, fast, partial, beta, delta_tp, C)[0]
    v_u = update_mec_value_ctmdp(M, slow, partial, beta, delta_tp, C)[1]
    return min(v_l, v_u), max(v_l, v_u)


# ---------------------------------------------------------------------------
# learner loop


def _bound_mec_gain_ctmdp(M, partial, config, beta):
    """CTMDP gain bounder for update_mec_value: the rate-adversarial bounds
    at the largest relative rate error certified over M's pairs."""
    delta_r = partial.current_delta_r()
    alpha_r = max(
        achieved_rate_alpha(partial.counts[(s, a)], delta_r) for s in M.states for a in M.actions[s]
    )
    bounds = find_mec_mp_bounds_exact if config.exact_mec_bounds else find_mec_mp_bounds_heuristic
    return bounds(M, partial, alpha_r, beta, partial.current_delta_tp())


def _refine_mec_ctmdp(M, oracle, partial, config, rng, start=None, deadline=None):
    return update_mec_value(M, oracle, partial, config, rng, start, deadline, _bound_mec_gain_ctmdp)


def on_demand_bvi_ctmdp(oracle, config: LearnerConfig | None = None) -> BoundsReport:
    """Learn PAC mean-payoff bounds for the CTMDP behind the oracle."""
    if oracle.kind != CTMDP:
        raise ValueError("oracle does not expose a CTMDP")
    config = config or LearnerConfig()
    return _learn(oracle, config, _refine_mec_ctmdp, ctmdp=True)
