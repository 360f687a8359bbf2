"""Mean-payoff learning for blackbox/greybox CTMDPs.

Same on-demand loop as the MDP learner — embedded transition frequencies
drive everything outside MECs, where rates don't matter — plus rate
estimation from dwell times. Inside a sure MEC, gain bounds come from
uniformized interval value iteration under adversarial rate assignments
within the certified relative error, by a sweep over every threshold
assignment of the reward-sorted states.
"""

from __future__ import annotations

from .graph import MecRecord
from .learn_mdp import (
    BoundsReport,
    LearnerConfig,
    PartialModel,
    _interval_gain_vi,
    _learn,
    _mec_rows,
    update_mec_value,
)
from .learn_mdp import simulate_episode, simulate_mec  # noqa: F401  bound here for bench/tracer.py
from .model import CTMDP
from .stats import rate_inconfidence


_ALPHA_CACHE: dict = {}  # read by nothing; bench/run.py clears it, until the benchmark drops that call


def achieved_rate_alpha(count: int, delta_r: float) -> float:
    """Smallest relative rate error certified at inconfidence delta_r by
    count dwell samples, by bisection; capped just below 1 when even that
    is out of reach (the rate interval is then near-vacuous but still used)."""
    hi = 1.0 - 1e-9
    if count <= 0 or rate_inconfidence(count, hi) > delta_r:
        return hi
    lo = 1e-9
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if rate_inconfidence(count, mid) <= delta_r:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# uniformization


def uniformize(rows: dict, rates: dict, C: float) -> dict:
    """Uniformize the rows of the pairs in rates at those exit rates. rows
    and the result map (s,a) to (count, ((t, probability), ...)) with
    successors ascending, as learn_mdp._mec_rows gives them: off-diagonal mass
    frequency·λ/C, the remainder as a self-loop. C must be at least the
    largest rate."""
    lam_max = max(rates.values())
    if C < lam_max * (1.0 - 1e-12):
        raise ValueError(f"uniformization rate {C:.6g} below assigned rate {lam_max:.6g}")
    out = {}
    for (s, a), lam in rates.items():
        n, freqs = rows[(s, a)]
        moved = [(t, f * lam / C) for t, f in freqs if t != s]
        off = 0.0
        for _, p in moved:
            off += p
        out[(s, a)] = (n, tuple(sorted(moved + [(s, 1.0 - off)] if off < 1.0 else moved)))
    return out


# ---------------------------------------------------------------------------
# rate-adversarial gain bounds


def _pair_rates(M: MecRecord, partial: PartialModel) -> dict:
    # every step of a pair adds one observed successor and one dwell time
    return {sa: sum(partial.post[sa].values()) / partial.dwell_sum[sa] for sa in M.pairs}


def _threshold_rates(M: MecRecord, partial: PartialModel, alpha_r: float):
    """One uniformization rate C = max λ̂·(1+α) over the pair estimates λ̂
    that covers every assignment (and so the true rates, with the stated
    confidence), and the threshold assignment at (j, direction): over states
    sorted by descending reward, the first j run slow, λ̂(1−α), and the rest
    fast, λ̂(1+α), to push the gain up ("max"); mirrored for "min"."""
    lam = _pair_rates(M, partial)
    order = sorted(M.states, key=lambda s: (-partial.rewards[s], s))

    def rates(j: int, direction: str) -> dict:
        first, rest = (1.0 - alpha_r, 1.0 + alpha_r) if direction == "max" else (1.0 + alpha_r, 1.0 - alpha_r)
        return {
            (s, a): lam[(s, a)] * (first if i < j else rest) for i, s in enumerate(order) for a in M.actions[s]
        }

    return max(lam.values()) * (1.0 + alpha_r), rates


def find_mec_mp_bounds_exact(
    M: MecRecord,
    partial: PartialModel,
    alpha_r: float,
    beta: float,
    delta_tp: float,
):
    """Gain bounds over all rates within relative error alpha_r: the extreme
    VI bound over the threshold assignments j = 0..|M| in each direction, each
    by interval VI on M's rows uniformized at that assignment's rates.
    These hold the box's extremes: the optimal gain at rates λ is the root g
    of the largest Σ π_s (r_s − g)/λ_s over policies (Dinkelbach, Management
    Science 1967), and at every g, running the states above g slow and the
    rest fast maximizes each term for all policies at once (mirrored: min)."""
    rows, rewards = _mec_rows(M, partial)
    C, rates = _threshold_rates(M, partial, alpha_r)
    js = range(len(M.states) + 1)
    v_u = max(_interval_gain_vi(M, uniformize(rows, rates(j, "max"), C), rewards, delta_tp, beta)[1] for j in js)
    v_l = min(_interval_gain_vi(M, uniformize(rows, rates(j, "min"), C), rewards, delta_tp, beta)[0] for j in js)
    return min(v_l, v_u), max(v_l, v_u)


find_mec_mp_bounds_heuristic = find_mec_mp_bounds_exact  # bound here for bench/tracer.py


# ---------------------------------------------------------------------------
# learner loop


def _bound_mec_gain_ctmdp(M, partial, delta_tp, beta):
    """CTMDP gain bounder for update_mec_value: the rate-adversarial bounds
    at the relative rate error certified for all of M's pairs, that of its
    least-sampled pair (achieved_rate_alpha does not grow with the count).
    The per-pair rate inconfidence equals delta_tp by the ledger."""
    least = min(sum(partial.post[sa].values()) for sa in M.pairs)
    alpha_r = achieved_rate_alpha(least, delta_tp)
    return find_mec_mp_bounds_exact(M, partial, alpha_r, beta, delta_tp)


def _refine_mec_ctmdp(M, oracle, partial, config, rng, start, deadline):
    return update_mec_value(M, oracle, partial, config, rng, start, deadline, _bound_mec_gain_ctmdp)


def on_demand_bvi_ctmdp(oracle, config: LearnerConfig | None = None) -> BoundsReport:
    """Learn PAC mean-payoff bounds for the CTMDP behind the oracle."""
    if oracle.kind != CTMDP:
        raise ValueError("oracle does not expose a CTMDP")
    config = config or LearnerConfig()
    return _learn(oracle, config, _refine_mec_ctmdp)
