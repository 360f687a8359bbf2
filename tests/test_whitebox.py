"""Whitebox reference solver: fixture values, hand-built models, and
cross-validation against brute-force policy enumeration."""

from __future__ import annotations

import numpy as np
import pytest

from mppac import (
    CTMDP,
    MDP,
    ExplicitModel,
    build_weighted_quotient,
    exact_mean_payoff,
    exact_mec_gain,
    mec_decomposition,
)

from .conftest import random_mdp_model
from .reference import enumerate_policies_gain, model_graph


def _mdp(rows, rewards, actions, init=0, pmin=None):
    if pmin is None:
        pmin = min(min(row.values()) for row in rows.values())
    return ExplicitModel(
        kind=MDP,
        state_count=len(rewards),
        init=init,
        p_min=pmin,
        actions=actions,
        rows=rows,
        reward=rewards,
    )


# ---------------------------------------------------------------------------
# fixture values


def test_two_mec_value(two_mec):
    assert exact_mean_payoff(two_mec) == pytest.approx(1.0, abs=1e-5)


def test_cycle_entry_value(cycle_entry):
    assert exact_mean_payoff(cycle_entry) == pytest.approx(0.5, abs=1e-5)


def test_random5_value(random5):
    assert exact_mean_payoff(random5) == pytest.approx(7 / 12, abs=1e-5)


def test_three_mecs_value(three_mecs):
    assert exact_mean_payoff(three_mecs) == pytest.approx(5.005, abs=1e-4)


def test_cycle_rates_value(cycle_rates):
    assert exact_mean_payoff(cycle_rates) == pytest.approx(1 / 3, abs=1e-5)


def test_nonuniform_value(nonuniform):
    # transient exit rates cannot change the long-run average
    assert exact_mean_payoff(nonuniform) == pytest.approx(1.0, abs=1e-5)


# ---------------------------------------------------------------------------
# hand-built models


def test_single_absorbing_state_pays_its_reward():
    m = _mdp({(0, "a"): {0: 1.0}}, (0.7,), (("a",),))
    assert exact_mean_payoff(m) == pytest.approx(0.7, abs=1e-6)


def test_zero_rewards_give_zero():
    m = _mdp({(0, "a"): {0: 1.0}}, (0.0,), (("a",),))
    assert exact_mean_payoff(m) == 0.0


def test_choice_between_two_loops_takes_the_better():
    m = _mdp(
        {(0, "l"): {1: 1.0}, (0, "r"): {2: 1.0}, (1, "a"): {1: 1.0}, (2, "a"): {2: 1.0}},
        (0.0, 0.3, 0.7),
        (("l", "r"), ("a",), ("a",)),
    )
    assert exact_mean_payoff(m) == pytest.approx(0.7, abs=1e-6)


def test_unreachable_high_reward_does_not_count():
    m = _mdp(
        {(0, "a"): {0: 1.0}, (1, "a"): {1: 1.0}},
        (0.2, 9.0),
        (("a",), ("a",)),
    )
    assert exact_mean_payoff(m) == pytest.approx(0.2, abs=1e-5)


def test_probabilistic_commitment_mixes_gains():
    # one shot: 30% into a gain-1 loop, 70% into a gain-0 loop
    m = _mdp(
        {(0, "a"): {1: 0.3, 2: 0.7}, (1, "a"): {1: 1.0}, (2, "a"): {2: 1.0}},
        (0.0, 1.0, 0.0),
        (("a",), ("a",), ("a",)),
    )
    assert exact_mean_payoff(m) == pytest.approx(0.3, abs=1e-5)


def test_ctmdp_rates_weigh_residence_time():
    # 2-cycle, rewards (1, 0): faster exit from the reward state lowers the gain
    m = ExplicitModel(
        kind=CTMDP,
        state_count=2,
        init=0,
        p_min=1.0,
        actions=(("a",), ("a",)),
        rows={(0, "a"): {1: 4.0}, (1, "a"): {0: 1.0}},
        reward=(1.0, 0.0),
    )
    assert exact_mean_payoff(m) == pytest.approx(0.2, abs=1e-5)  # (1/4) / (1/4 + 1)


# ---------------------------------------------------------------------------
# MEC gains and the quotient


def test_exact_mec_gain_of_two_cycle(cycle_entry):
    mecs = mec_decomposition(model_graph(cycle_entry))
    assert [m.states for m in mecs] == [frozenset({1, 2})]
    assert exact_mec_gain(mecs[0], cycle_entry) == pytest.approx(0.5, abs=1e-5)


def test_exact_mec_gain_of_self_loop(two_mec):
    mecs = mec_decomposition(model_graph(two_mec))
    gains = {min(m.states): exact_mec_gain(m, two_mec) for m in mecs}
    assert gains[1] == pytest.approx(1.0, abs=1e-6)
    assert gains[2] == pytest.approx(0.0, abs=1e-6)


def test_quotient_stay_mass_is_scaled_gain(three_mecs):
    q = build_weighted_quotient(three_mecs)
    assert q.r_max == 10.0
    masses = sorted(q.f.values())
    assert masses == pytest.approx([0.4, 0.5, 1.0], abs=1e-5)


def test_quotient_keeps_transient_states(three_mecs):
    q = build_weighted_quotient(three_mecs)
    assert 0 in q.nodes  # the probabilistic entry stays a real node
    assert q.init == 0


# ---------------------------------------------------------------------------
# cross-validation


def test_policy_enumeration_agrees_with_quotient_solver():
    rng = np.random.default_rng(123)
    for _ in range(50):
        m = random_mdp_model(rng, max_states=5)
        assert exact_mean_payoff(m) == pytest.approx(
            enumerate_policies_gain(m), abs=1e-4
        )


def test_policy_enumeration_agrees_on_larger_rewards():
    rng = np.random.default_rng(321)
    for _ in range(20):
        m = random_mdp_model(rng, max_states=4, max_reward=25.0)
        assert exact_mean_payoff(m) == pytest.approx(
            enumerate_policies_gain(m), abs=25.0 * 1e-4
        )


def test_policy_enumeration_on_fixtures(three_mecs, random5):
    assert enumerate_policies_gain(three_mecs) == pytest.approx(5.005, abs=1e-5)
    assert enumerate_policies_gain(random5) == pytest.approx(7 / 12, abs=1e-6)


def test_policy_enumeration_refuses_large_models():
    n = 9
    rows = {(s, "a"): {(s + 1) % n: 1.0} for s in range(n)}
    m = ExplicitModel(
        kind=MDP,
        state_count=n,
        init=0,
        p_min=1.0,
        actions=(("a",),) * n,
        rows=rows,
        reward=(1.0,) * n,
    )
    with pytest.raises(ValueError, match="too large"):
        enumerate_policies_gain(m)
