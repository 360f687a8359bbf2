"""Whitebox reference solver: fixture values, hand-built models, per-MEC
gain brackets, and cross-validation against brute-force policy enumeration.

Every value is required to lie inside exact_bracket (or exact_mec_gain's
bracket) at a tolerance of 1e-12 per unit of the largest reward: the
solver's bounds are certified, so only floating-point rounding may push a
value outside them."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mppac import (
    CTMDP,
    MDP,
    ExplicitModel,
    exact_bracket,
    exact_mean_payoff,
    exact_mec_gain,
    mec_decomposition,
)
from mppac import learn_mdp

from .conftest import random_ctmdp_model, random_mdp_model
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


def _inside(value, bracket, r_max=1.0):
    tol = 1e-12 * max(1.0, r_max)
    return bracket[0] - tol <= value <= bracket[1] + tol


# ---------------------------------------------------------------------------
# fixture values: the closed forms in the model files' comments


CLOSED_FORMS = {
    "two_mec": 1.0,
    "cycle_entry": 0.5,
    "random5": 7 / 12,
    "three_mecs": 5.005,
    "cycle_rates": 1 / 3,
    "nonuniform": 1.0,  # transient exit rates cannot change the long-run average
}


def test_two_mec_value(two_mec):
    assert _inside(CLOSED_FORMS["two_mec"], exact_bracket(two_mec))


def test_cycle_entry_value(cycle_entry):
    assert _inside(CLOSED_FORMS["cycle_entry"], exact_bracket(cycle_entry))


def test_random5_value(random5):
    assert _inside(CLOSED_FORMS["random5"], exact_bracket(random5))


def test_three_mecs_value(three_mecs):
    assert _inside(CLOSED_FORMS["three_mecs"], exact_bracket(three_mecs), three_mecs.r_max)


def test_cycle_rates_value(cycle_rates):
    assert _inside(CLOSED_FORMS["cycle_rates"], exact_bracket(cycle_rates))


def test_nonuniform_value(nonuniform):
    assert _inside(CLOSED_FORMS["nonuniform"], exact_bracket(nonuniform))


def test_mean_payoff_is_the_bracket_midpoint(random5):
    lo, hi = exact_bracket(random5)
    assert exact_mean_payoff(random5) == (lo + hi) / 2.0
    assert hi - lo <= 1e-9


# ---------------------------------------------------------------------------
# hand-built models


def test_single_absorbing_state_pays_its_reward():
    m = _mdp({(0, "a"): {0: 1.0}}, (0.7,), (("a",),))
    assert _inside(0.7, exact_bracket(m))


def test_zero_rewards_give_zero():
    m = _mdp({(0, "a"): {0: 1.0}}, (0.0,), (("a",),))
    assert exact_bracket(m) == (0.0, 0.0)
    assert exact_mean_payoff(m) == 0.0


def test_choice_between_two_loops_takes_the_better():
    m = _mdp(
        {(0, "l"): {1: 1.0}, (0, "r"): {2: 1.0}, (1, "a"): {1: 1.0}, (2, "a"): {2: 1.0}},
        (0.0, 0.3, 0.7),
        (("l", "r"), ("a",), ("a",)),
    )
    assert _inside(0.7, exact_bracket(m))


def test_unreachable_high_reward_does_not_count():
    m = _mdp(
        {(0, "a"): {0: 1.0}, (1, "a"): {1: 1.0}},
        (0.2, 9.0),
        (("a",), ("a",)),
    )
    assert _inside(0.2, exact_bracket(m), m.r_max)


def test_probabilistic_commitment_mixes_gains():
    # one shot: 30% into a gain-1 loop, 70% into a gain-0 loop
    m = _mdp(
        {(0, "a"): {1: 0.3, 2: 0.7}, (1, "a"): {1: 1.0}, (2, "a"): {2: 1.0}},
        (0.0, 1.0, 0.0),
        (("a",), ("a",), ("a",)),
    )
    assert _inside(0.3, exact_bracket(m))


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
    assert _inside(0.2, exact_bracket(m))  # (1/4) / (1/4 + 1)


# ---------------------------------------------------------------------------
# per-MEC gain brackets, scaled to [0, 1] by r_max


def test_exact_mec_gain_of_two_cycle(cycle_entry):
    mecs = mec_decomposition(model_graph(cycle_entry))
    assert [m.states for m in mecs] == [frozenset({1, 2})]
    assert _inside(0.5, exact_mec_gain(mecs[0], cycle_entry))


def test_exact_mec_gain_of_self_loop(two_mec):
    mecs = mec_decomposition(model_graph(two_mec))
    gains = {min(m.states): exact_mec_gain(m, two_mec) for m in mecs}
    assert _inside(1.0, gains[1])
    assert _inside(0.0, gains[2])


def test_mec_brackets_hold_the_scaled_gains(three_mecs):
    # gains 4, 5 and 10 over r_max 10
    mecs = mec_decomposition(model_graph(three_mecs))
    assert [m.states for m in mecs] == [frozenset({1}), frozenset({2, 3}), frozenset({4, 5})]
    for m, scaled in zip(mecs, (0.4, 0.5, 1.0)):
        assert _inside(scaled, exact_mec_gain(m, three_mecs))


def test_entry_value_mixes_the_mec_brackets(three_mecs):
    # the entry state 0 lies in no MEC; its best action reaches the 10-MEC
    # with probability 0.001 and the 5-MEC otherwise
    mecs = {min(m.states): exact_mec_gain(m, three_mecs) for m in mec_decomposition(model_graph(three_mecs))}
    assert 0 not in mecs
    lo, hi = (g / three_mecs.r_max for g in exact_bracket(three_mecs))
    assert 0.001 * mecs[4][0] + 0.999 * mecs[2][0] - 1e-12 <= lo
    assert hi <= 0.001 * mecs[4][1] + 0.999 * mecs[2][1] + 1e-12


def test_a_capped_fixpoint_widens_but_still_contains(monkeypatch, request):
    # the bounds hold at every sweep, so a capped fixpoint gives a wider
    # bracket around the same value
    models = {name: request.getfixturevalue(name) for name in CLOSED_FORMS}
    full = {name: exact_bracket(m) for name, m in models.items()}
    monkeypatch.setattr(learn_mdp, "VI_MAX_SWEEPS", 2)
    capped = {name: exact_bracket(m) for name, m in models.items()}
    for name, (lo, hi) in capped.items():
        assert _inside(CLOSED_FORMS[name], (lo, hi), models[name].r_max)
        assert lo <= full[name][0] and full[name][1] <= hi
    # two sweeps do not yet pull U down from the entry states of these two
    assert capped["random5"][1] - full["random5"][1] > 0.1
    assert capped["three_mecs"][1] - full["three_mecs"][1] > 1.0


# ---------------------------------------------------------------------------
# cross-validation


def test_bracket_contains_policy_enumeration():
    rng = np.random.default_rng(123)
    for _ in range(50):
        m = random_mdp_model(rng, max_states=5)
        assert _inside(enumerate_policies_gain(m), exact_bracket(m))


def test_policy_enumeration_agrees_on_larger_rewards():
    rng = np.random.default_rng(321)
    for _ in range(20):
        m = random_mdp_model(rng, max_states=4, max_reward=25.0)
        assert _inside(enumerate_policies_gain(m), exact_bracket(m), m.r_max)


@pytest.mark.parametrize("make", [random_mdp_model, random_ctmdp_model], ids=["mdp", "ctmdp"])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_reward=st.sampled_from([1.0, 25.0]))
def test_bracket_contains_the_best_policy_gain(make, seed, max_reward):
    m = make(np.random.default_rng(seed), max_states=5, max_reward=max_reward)
    assert _inside(enumerate_policies_gain(m), exact_bracket(m), m.r_max)


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
