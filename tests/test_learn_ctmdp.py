"""CTMDP learning: rate estimation, uniformization, rate-adversarial gain
bounds, and the continuous-time end-to-end loop."""

from __future__ import annotations

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
    find_mec_mp_bounds_heuristic,
    learner_rng,
    on_demand_bvi,
    on_demand_bvi_ctmdp,
    rate_inconfidence,
    simulate_mec,
    split_mp_inconfidence,
    uniformize,
    update_mec_value_ctmdp,
)
from mppac.learn_ctmdp import _threshold_rates, achieved_rate_alpha

from .conftest import frozen_partial
from .reference import ctmdp_mec_gain, heuristic_mec_bounds

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
    lam, C, rates = _threshold_rates(M, partial, 0.2)
    assert lam == {(0, "a"): 2.0, (1, "a"): 1.0, (2, "a"): 4.0}
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


def test_heuristic_bounds_sit_inside_the_exact_sweep():
    partial = _cycle_rates_partial()
    beta = 1e-5
    delta_tp = partial.current_delta_tp()
    el, eu = find_mec_mp_bounds_exact(_cycle_mec(), partial, 0.05, beta, delta_tp)
    hl, hu = find_mec_mp_bounds_heuristic(_cycle_mec(), partial, 0.05, beta, delta_tp)
    assert hl >= el - 2 * beta
    assert hu <= eu + 2 * beta
    assert hl <= 1 / 3 <= hu


@st.composite
def _tied_ctmdp_mecs(draw):
    # a cycle 0 -> 1 -> ... -> 0 runs through every row, so M is an EC;
    # with fewer reward levels than states, some rewards tie. Each successor
    # is drawn at least 1000 times in at most 15000, so every lower estimate
    # stays positive at delta_tp 0.05 and the interval VI converges
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
    delta_tp = draw(st.sampled_from((1.0, 0.05)))
    return M, partial, alpha_r, beta, delta_tp


@given(_tied_ctmdp_mecs())
@settings(deadline=None)
def test_heuristic_bounds_equal_the_pairwise_reference_exactly(case):
    assert find_mec_mp_bounds_heuristic(*case) == heuristic_mec_bounds(*case)


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
    assert simulate_mec(_cycle_mec(), oracle, 2000, learner_rng(0), partial, start=0)
    rates = {sa: partial.counts[sa] / partial.dwell_sum[sa] for sa in ((0, "a"), (1, "a"))}
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
    assert simulate_mec(M, oracle, 10, learner_rng(0), partial, start=0) is False


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
    partial.mecs.append(M)
    partial.rebuild_stay_of()
    oracle = SampleOracle(cycle_rates, BLACKBOX, rng_seed=0)
    out = _refine_mec_ctmdp(M, oracle, partial, LearnerConfig(), learner_rng(0), start=0)
    assert out is None
    assert M not in partial.mecs
    assert partial.stay_of.get(0) is None
    assert oracle.steps_sampled == 0


def _partial_with_pairs(delta, p_min, pairs, ctmdp):
    partial = PartialModel(p_min, delta, BLACKBOX_UPDATES, BLACKBOX, ctmdp)
    partial.counts = {(s, "a"): 1 for s in range(pairs)}
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


def test_exact_mec_bounds_flag_selects_the_sweep():
    from mppac.learn_ctmdp import _bound_mec_gain_ctmdp

    def bounds(exact):
        config = LearnerConfig(exact_mec_bounds=exact)
        return _bound_mec_gain_ctmdp(_cycle_mec(), _cycle_rates_partial(), config, beta=1e-5)

    el, eu = bounds(True)
    hl, hu = bounds(False)
    for low, up in ((el, eu), (hl, hu)):
        assert low <= 1 / 3 <= up
    # the three-call heuristic under-approximates the sweep's adversary
    assert hl >= el - 2e-5
    assert hu <= eu + 2e-5
