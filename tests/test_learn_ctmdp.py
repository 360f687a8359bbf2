"""CTMDP learning: rate estimation, uniformization, rate-adversarial gain
bounds, and the continuous-time end-to-end loop."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mppac import (
    BLACKBOX,
    BLACKBOX_UPDATES,
    LearnerConfig,
    MecRecord,
    PartialModel,
    SampleOracle,
    find_mec_mp_bounds_exact,
    learner_rng,
    on_demand_bvi,
    on_demand_bvi_ctmdp,
    rate_inconfidence,
    simulate_mec,
    split_mp_inconfidence,
    uniformize,
    update_mec_value_ctmdp,
)
from mppac.learn_ctmdp import _bound_mec_gain_ctmdp, _threshold_rates, achieved_rate_alpha

from .conftest import frozen_partial
from .reference import ctmdp_mec_gain, stationary_distribution

# ---------------------------------------------------------------------------
# rate bookkeeping


def test_achieved_rate_alpha_is_certified_and_tight():
    for count, delta_r in ((500, 0.05), (2500, 0.01), (40, 0.2)):
        alpha = achieved_rate_alpha(count, delta_r)
        assert rate_inconfidence(count, alpha) <= delta_r
        if alpha < 0.9:
            assert rate_inconfidence(count, alpha * 0.9) > delta_r


def test_achieved_rate_alpha_degrades_gracefully():
    assert achieved_rate_alpha(0, 0.05) == pytest.approx(1.0, abs=1e-6)
    assert achieved_rate_alpha(1, 1e-9) == pytest.approx(1.0, abs=1e-6)
    assert achieved_rate_alpha(10**6, 0.05) < 0.01


# ---------------------------------------------------------------------------
# uniformization


def _cycle_mec():
    return MecRecord(
        states=frozenset({0, 1}),
        actions={0: frozenset({"a"}), 1: frozenset({"a"})},
    )


def test_uniformize_splits_mass_by_rate_ratio():
    rows = {(0, "a"): (3, ((1, 1.0),)), (1, "a"): (5, ((0, 1.0),))}
    rates = {(0, "a"): 2.0, (1, "a"): 1.0}
    # at C = the largest rate, 2, state 1 leaves at rate 1 = C/2;
    # counts pass through and successors stay ascending
    assert uniformize(rows, rates, C=2.0) == {(0, "a"): (3, ((1, 1.0),)), (1, "a"): (5, ((0, 0.5), (1, 0.5)))}


def test_uniformize_keeps_observed_self_loop_mass():
    rows = {(1, "a"): (10, ((0, 0.6), (1, 0.4)))}
    n, row = uniformize(rows, {(1, "a"): 1.0}, C=2.0)[(1, "a")]
    # only the off-diagonal mass scales with lambda/C
    assert n == 10
    assert [t for t, _ in row] == [0, 1]
    assert [p for _, p in row] == pytest.approx([0.3, 0.7])


def test_uniformize_rejects_too_small_c():
    rows = {(0, "a"): (1, ((1, 1.0),)), (1, "a"): (1, ((0, 1.0),))}
    rates = {(0, "a"): 2.0, (1, "a"): 1.0}
    with pytest.raises(ValueError, match="uniformization rate"):
        uniformize(rows, rates, C=1.0)


def test_ctmdp_mec_gain_worked_value():
    assert ctmdp_mec_gain((0.5, 0.5), (1.0, 0.0), (2.0, 1.0)) == pytest.approx(1 / 3)


def test_ctmdp_mec_gain_validates_inputs():
    with pytest.raises(ValueError, match="distribution"):
        ctmdp_mec_gain((0.5, 0.4), (1.0, 0.0), (2.0, 1.0))
    with pytest.raises(ValueError, match="positive"):
        ctmdp_mec_gain((0.5, 0.5), (1.0, 0.0), (2.0, 0.0))


def test_threshold_rates_shape():
    # a 3-cycle with rate estimates 2, 1, 4 and rewards 0, 1, 0.5: the
    # reward order is 1, 2, 0, and the first j of it run slow for "max"
    partial = frozen_partial(
        {(0, "a", 1): 10, (1, "a", 2): 10, (2, "a", 0): 10},
        rewards={0: 0.0, 1: 1.0, 2: 0.5},
        dwell_sums={(0, "a"): 5.0, (1, "a"): 10.0, (2, "a"): 2.5},
        ctmdp=True,
    )
    M = MecRecord(states=frozenset({0, 1, 2}), actions={s: frozenset({"a"}) for s in range(3)})
    C, rates = _threshold_rates(M, partial, 0.2)
    lam = {(0, "a"): 2.0, (1, "a"): 1.0, (2, "a"): 4.0}
    assert C == pytest.approx(4.8)

    def factors(j, direction):
        return [rates(j, direction)[(s, "a")] / lam[(s, "a")] for s in (1, 2, 0)]

    assert factors(0, "max") == pytest.approx([1.2, 1.2, 1.2])
    assert factors(1, "max") == pytest.approx([0.8, 1.2, 1.2])
    assert factors(3, "max") == pytest.approx([0.8, 0.8, 0.8])
    assert factors(1, "min") == pytest.approx([1.2, 0.8, 0.8])
    assert factors(2, "min") == pytest.approx([1.2, 1.2, 0.8])


# ---------------------------------------------------------------------------
# gain bounds under rate uncertainty


def _cycle_rates_partial(n=50_000):
    # exact embedded frequencies and dwell sums for the 2-state cycle with
    # rates (2, 1) and rewards (1, 0); true mean payoff 1/3
    return frozen_partial(
        {(0, "a", 1): n, (1, "a", 0): n},
        rewards={0: 1.0, 1: 0.0},
        p_min=1.0,
        dwell_sums={(0, "a"): n / 2.0, (1, "a"): n / 1.0},
        ctmdp=True,
    )


def test_update_mec_value_ctmdp_recovers_the_gain():
    partial = _cycle_rates_partial()
    rates = {(0, "a"): 2.0, (1, "a"): 1.0}
    gl, gu = update_mec_value_ctmdp(
        _cycle_mec(), rates, partial, beta=1e-5, delta_tp=partial.current_delta_tp(), C=2.0
    )
    assert gl <= 1 / 3 <= gu
    assert gu - gl < 0.05


def test_update_mec_value_ctmdp_is_uniformization_invariant():
    # the exact uniformized gain (no statistical widths) cannot depend on
    # the uniformization constant; every C recovers the induced-chain gain
    partial = _cycle_rates_partial()
    rates = {(0, "a"): 2.0, (1, "a"): 1.0}
    beta = 1e-6
    reference = ctmdp_mec_gain((0.5, 0.5), (1.0, 0.0), (2.0, 1.0))
    a = update_mec_value_ctmdp(_cycle_mec(), rates, partial, beta, delta_tp=1.0, C=2.0)
    b = update_mec_value_ctmdp(_cycle_mec(), rates, partial, beta, delta_tp=1.0, C=4.0)
    for low, up in (a, b):
        assert low == pytest.approx(reference, abs=beta + 1e-9)
        assert up == pytest.approx(reference, abs=beta + 1e-9)
    assert a[0] == pytest.approx(b[0], abs=2 * beta + 1e-9)
    assert a[1] == pytest.approx(b[1], abs=2 * beta + 1e-9)


def test_statistical_widths_depend_on_c_but_stay_sound():
    # with Hoeffding widths the pessimism scales with the off-diagonal mass,
    # so the endpoints may move with C; soundness must not
    partial = _cycle_rates_partial()
    rates = {(0, "a"): 2.0, (1, "a"): 1.0}
    for c in (2.0, 4.0):
        low, up = update_mec_value_ctmdp(_cycle_mec(), rates, partial, 1e-6, partial.current_delta_tp(), C=c)
        assert low <= 1 / 3 <= up


def test_exact_bounds_bracket_the_true_gain():
    partial = _cycle_rates_partial()
    gl, gu = find_mec_mp_bounds_exact(
        _cycle_mec(), partial, alpha_r=0.05, beta=1e-5, delta_tp=partial.current_delta_tp()
    )
    assert gl <= 1 / 3 <= gu
    assert gu - gl < 0.1


# ROADMAP item 5's worked case: a 3-cycle with rewards (1, 0.5, 0) and rate
# estimates (1, 0.5, 1) at alpha 0.5. Every corner of the rate box keeps the
# cycle's embedded frequencies at 1/3, so its gains span [1/3, 2/3] in either
# direction; delta_tp 1 makes the observed rows exact.
_WORKED_REWARDS = (1.0, 0.5, 0.0)
_WORKED_RATES = (1.0, 0.5, 1.0)
_WORKED_CYCLES = pytest.mark.parametrize("succ", [(1, 2, 0), (2, 0, 1)], ids=["0-1-2-0", "0-2-1-0"])


def _worked_case(succ, n=1000):
    partial = frozen_partial(
        {(s, "a", succ[s]): n for s in range(3)},
        rewards=dict(enumerate(_WORKED_REWARDS)),
        p_min=1.0,
        dwell_sums={(s, "a"): n / lam for s, lam in enumerate(_WORKED_RATES)},
        ctmdp=True,
    )
    M = MecRecord(states=frozenset(range(3)), actions={s: frozenset({"a"}) for s in range(3)})
    corners = [
        ctmdp_mec_gain((1 / 3,) * 3, _WORKED_REWARDS, [lam * f for lam, f in zip(_WORKED_RATES, factors)])
        for factors in itertools.product((0.5, 1.5), repeat=3)
    ]
    return (M, partial, 0.5, 1e-6, 1.0), (min(corners), max(corners))


@_WORKED_CYCLES
def test_exact_bounds_contain_the_rate_box_corners(succ):
    case, (g_min, g_max) = _worked_case(succ)
    assert (g_min, g_max) == pytest.approx((1 / 3, 2 / 3))
    low, up = find_mec_mp_bounds_exact(*case)
    assert low <= g_min and g_max <= up


@_WORKED_CYCLES
def test_learner_bounds_mec_gains_by_the_full_sweep(succ):
    # the refit bounder at the default config runs the sweep at the rate
    # error certified by the least-sampled pair's 1000 dwell samples
    (M, partial, _, beta, _), _ = _worked_case(succ)
    delta_tp = partial.current_delta_tp()
    alpha_r = achieved_rate_alpha(1000, delta_tp)
    bounds = _bound_mec_gain_ctmdp(M, partial, beta)
    assert bounds == find_mec_mp_bounds_exact(M, partial, alpha_r, beta, delta_tp)


@st.composite
def _tied_ctmdp_mecs(draw):
    # a cycle 0 -> 1 -> ... -> 0 runs through every row, so M is an EC and
    # every positional policy's chain on it is irreducible; with fewer
    # reward levels than states, some rewards tie. delta_tp 1 makes the
    # observed rows exact
    k = draw(st.integers(min_value=2, max_value=6))
    levels = draw(st.lists(st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)), min_size=1, max_size=k - 1))
    rewards = {s: draw(st.sampled_from(levels)) for s in range(k)}
    actions, triples, dwell_sums = {}, {}, {}
    for s in range(k):
        labels = ("a", "b")[: draw(st.integers(min_value=1, max_value=2))]
        actions[s] = frozenset(labels)
        for a in labels:
            succ = {(s + 1) % k} | set(draw(st.lists(st.integers(0, k - 1), max_size=2)))
            n = 0
            for t in sorted(succ):
                triples[(s, a, t)] = draw(st.integers(min_value=1000, max_value=5000))
                n += triples[(s, a, t)]
            dwell_sums[(s, a)] = n / draw(st.floats(min_value=0.25, max_value=8.0))
    partial = frozen_partial(triples, rewards, p_min=0.05, dwell_sums=dwell_sums, ctmdp=True)
    M = MecRecord(states=frozenset(range(k)), actions=actions)
    alpha_r = draw(st.floats(min_value=0.01, max_value=0.5))
    beta = draw(st.sampled_from((1e-3, 1e-6)))
    return M, partial, alpha_r, beta, 1.0


def _best_gains_at_the_corners(M, partial, alpha_r):
    """The best positional policy's gain at each corner of the rate box
    around the estimates count / dwell sum, by brute force."""
    states = range(len(M.states))  # the strategy's MECs hold 0..k-1
    pairs = [(s, a) for s in states for a in sorted(M.actions[s])]
    lam = {sa: sum(partial.post[sa].values()) / partial.dwell_sum[sa] for sa in pairs}
    rewards = [partial.scaled_reward(s) for s in states]
    factors = (1.0 - alpha_r, 1.0 + alpha_r)
    # each policy's gain at each corner of the rates of its own pairs
    policies = []
    for choice in itertools.product(*(sorted(M.actions[s]) for s in states)):
        P = np.zeros((len(states), len(states)))
        for s, a in zip(states, choice):
            for t, f in partial.row(s, a)[1]:
                P[s, t] = f
        pi = stationary_distribution(P)
        own = tuple(zip(states, choice))
        gains = {
            fs: ctmdp_mec_gain(pi, rewards, [lam[sa] * f for sa, f in zip(own, fs)])
            for fs in itertools.product(factors, repeat=len(own))
        }
        policies.append((own, gains))
    return [
        max(gains[tuple(corner[sa] for sa in own)] for own, gains in policies)
        for corner in (dict(zip(pairs, fs)) for fs in itertools.product(factors, repeat=len(pairs)))
    ]


@given(_tied_ctmdp_mecs())
@settings(max_examples=30, deadline=None)
def test_exact_bounds_contain_the_best_gain_at_every_rate_box_corner(case):
    M, partial, alpha_r, beta, _ = case
    low, up = find_mec_mp_bounds_exact(*case)
    best = _best_gains_at_the_corners(M, partial, alpha_r)
    assert low <= min(best) + beta
    assert max(best) - beta <= up


def test_larger_rate_uncertainty_widens_the_bounds():
    partial = _cycle_rates_partial()
    delta_tp = partial.current_delta_tp()
    small = find_mec_mp_bounds_exact(_cycle_mec(), partial, 0.02, 1e-5, delta_tp)
    large = find_mec_mp_bounds_exact(_cycle_mec(), partial, 0.2, 1e-5, delta_tp)
    assert large[1] - large[0] > small[1] - small[0]
    assert large[0] <= small[0] and small[1] <= large[1]


# ---------------------------------------------------------------------------
# sampling and the full loop


def test_simulate_mec_ctmdp_refreshes_rate_estimates(cycle_rates):
    partial = frozen_partial(
        {(0, "a", 1): 1, (1, "a", 0): 1},
        rewards={0: 1.0, 1: 0.0},
        p_min=1.0,
        dwell_sums={(0, "a"): 0.5, (1, "a"): 1.0},
        ctmdp=True,
    )
    oracle = SampleOracle(cycle_rates, BLACKBOX, rng_seed=0)
    assert simulate_mec(_cycle_mec(), oracle, 2000, learner_rng(0), partial, start=0, deadline=math.inf)
    rates = {sa: sum(partial.post[sa].values()) / partial.dwell_sum[sa] for sa in ((0, "a"), (1, "a"))}
    assert rates[(0, "a")] == pytest.approx(2.0, rel=0.15)
    assert rates[(1, "a")] == pytest.approx(1.0, rel=0.15)


def test_simulate_mec_ctmdp_reports_escape(cycle_rates):
    partial = frozen_partial(
        {(0, "a", 0): 1},
        rewards={0: 1.0},
        p_min=1.0,
        dwell_sums={(0, "a"): 0.5},
        ctmdp=True,
    )
    oracle = SampleOracle(cycle_rates, BLACKBOX, rng_seed=0)
    M = MecRecord(states=frozenset({0}), actions={0: frozenset({"a"})})
    assert simulate_mec(M, oracle, 10, learner_rng(0), partial, start=0, deadline=math.inf) is False


def test_refine_drops_a_record_whose_pair_was_seen_leaving(cycle_rates):
    from mppac.learn_ctmdp import _refine_mec_ctmdp

    # (0, 'a') was seen reaching state 2 outside M after M was confirmed
    partial = frozen_partial(
        {(0, "a", 1): 30, (0, "a", 2): 1, (1, "a", 0): 30},
        rewards={0: 1.0, 1: 0.0},
        p_min=0.25,
        dwell_sums={(0, "a"): 15.0, (1, "a"): 30.0},
        ctmdp=True,
    )
    M = _cycle_mec()
    partial.adopt_looping_record(M)
    oracle = SampleOracle(cycle_rates, BLACKBOX, rng_seed=0)
    out = _refine_mec_ctmdp(M, oracle, partial, LearnerConfig(), learner_rng(0), start=0, deadline=math.inf)
    assert out is None
    assert M not in partial.mecs
    assert partial.stay_of.get(0) is None
    assert oracle.steps_sampled == 0


def _partial_with_pairs(delta, p_min, pairs, ctmdp):
    partial = PartialModel(p_min, delta, BLACKBOX_UPDATES, BLACKBOX, ctmdp)
    partial.post = {(s, "a"): {s: 1} for s in range(pairs)}
    return partial


@given(
    delta=st.floats(min_value=1e-9, max_value=1.0),
    p_min=st.floats(min_value=1e-6, max_value=1.0),
    pairs=st.integers(min_value=1, max_value=10**4),
)
def test_ctmdp_split_keeps_tp_and_rate_inconfidence_equal(delta, p_min, pairs):
    # the CTMDP budget: delta splits into a transition and a rate share that
    # induce equal per-pair inconfidences; an MDP spends all of it on
    # transitions, delta * p_min / pairs each
    partial = _partial_with_pairs(delta, p_min, pairs, ctmdp=True)
    delta_r = split_mp_inconfidence(delta, p_min)[1] / pairs
    assert partial.current_delta_tp() == pytest.approx(delta_r, rel=1e-9)
    shares = (partial.current_delta_tp() / p_min + delta_r) * pairs
    assert shares == pytest.approx(delta, rel=1e-9)
    mdp = _partial_with_pairs(delta, p_min, pairs, ctmdp=False)
    assert mdp.current_delta_tp() == pytest.approx(delta * p_min / pairs, rel=1e-12)


def test_on_demand_bvi_ctmdp_rejects_mdp_oracles(two_mec):
    with pytest.raises(ValueError, match="CTMDP"):
        on_demand_bvi_ctmdp(SampleOracle(two_mec, BLACKBOX))


def test_on_demand_bvi_rejects_ctmdp_oracles(cycle_rates):
    # the MDP learner would learn the embedded jump chain, whose mean
    # payoff (1/2 here) is not the CTMDP's (1/3)
    with pytest.raises(ValueError, match="does not expose an MDP"):
        on_demand_bvi(SampleOracle(cycle_rates, BLACKBOX))


def test_on_demand_bvi_ctmdp_nonuniform_converges(nonuniform):
    oracle = SampleOracle(nonuniform, BLACKBOX, rng_seed=1)
    report = on_demand_bvi_ctmdp(oracle, LearnerConfig(seed=1, episodes_per_round=500))
    low, up = report.final
    assert low <= 1.0 <= up
    assert report.width < 0.02
    assert not report.timed_out


def test_ctmdp_learner_is_deterministic_per_seed(nonuniform):
    def run():
        oracle = SampleOracle(nonuniform, BLACKBOX, rng_seed=4)
        return on_demand_bvi_ctmdp(
            oracle, LearnerConfig(seed=4, episodes_per_round=400)
        )

    a, b = run(), run()
    assert a.trace == b.trace
    assert a.final == b.final
