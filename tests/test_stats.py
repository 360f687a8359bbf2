"""Confidence-bound arithmetic: worked values, edge conventions, and the
distributional soundness of the certified intervals."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mppac import (
    BLACKBOX,
    BLACKBOX_UPDATES,
    MecRecord,
    PartialModel,
    ec_required_samples,
    greybox_miss_probability,
    rate_inconfidence,
    rate_samples,
    split_mp_inconfidence,
    tp_inconfidence,
    tp_width,
)
from mppac.learn_ctmdp import _pair_rates

from .conftest import frozen_partial
from .reference import chernoff_log_term, chernoff_minimizers, lower_tp_estimate

# ---------------------------------------------------------------------------
# transition-probability bounds


def test_tp_inconfidence_worked_value():
    assert tp_inconfidence(0.1, 0.05, 1000) == pytest.approx(5e-6)


def test_tp_inconfidence_scales_linearly():
    base = tp_inconfidence(0.1, 0.2, 10)
    assert tp_inconfidence(0.2, 0.2, 10) == pytest.approx(2 * base)
    assert tp_inconfidence(0.1, 0.2, 20) == pytest.approx(base / 2)


def test_tp_width_no_samples_is_vacuous():
    assert tp_width(0, 0.01) == 1.0
    assert tp_width(-3, 0.01) == 1.0


def test_tp_width_certain_inconfidence_is_free():
    assert tp_width(30, 1.0) == 0.0
    assert tp_width(1, 2.0) == 0.0


def test_tp_width_worked_values():
    assert tp_width(30, 0.1) == pytest.approx(0.196, abs=1e-3)
    assert tp_width(30, 0.058) == pytest.approx(0.22, abs=5e-3)


def test_tp_width_is_capped_at_one():
    assert tp_width(1, 1e-12) == 1.0


@given(
    n=st.integers(min_value=1, max_value=10**9),
    m=st.integers(min_value=1, max_value=10**9),
    delta=st.floats(min_value=1e-12, max_value=0.999),
)
def test_tp_width_monotone_in_count(n, m, delta):
    lo, hi = sorted((n, m))
    assert tp_width(hi, delta) <= tp_width(lo, delta)


@given(
    n=st.integers(min_value=1, max_value=10**9),
    d1=st.floats(min_value=1e-12, max_value=0.999),
    d2=st.floats(min_value=1e-12, max_value=0.999),
)
def test_tp_width_monotone_in_inconfidence(n, d1, d2):
    lo, hi = sorted((d1, d2))
    assert tp_width(n, hi) <= tp_width(n, lo)


def test_lower_tp_estimate_worked_value():
    assert lower_tp_estimate(10, 30, 0.196) == pytest.approx(0.13733, abs=1e-4)


def test_lower_tp_estimate_clamps_at_zero():
    assert lower_tp_estimate(1, 30, 0.5) == 0.0


@given(
    counts=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=6),
    delta=st.floats(min_value=1e-9, max_value=0.999),
)
def test_lower_estimates_never_exceed_unit_mass(counts, delta):
    # the pessimistic estimates of one pair's successors form a sub-distribution
    n = sum(counts)
    if n == 0:
        return
    w = tp_width(n, delta)
    total = sum(lower_tp_estimate(c, n, w) for c in counts)
    assert total <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# end-component certification


def test_ec_required_samples_worked_values():
    assert ec_required_samples(0.9, 0.1) == 1
    assert ec_required_samples(0.1, 0.1) == 22
    assert ec_required_samples(0.01, 0.5) == 7


def test_ec_required_samples_certain_successor():
    assert ec_required_samples(0.5, 1.0) == 1


@given(
    delta=st.floats(min_value=1e-9, max_value=0.9),
    p_min=st.floats(min_value=1e-6, max_value=0.999),
)
def test_ec_required_samples_suffice(delta, p_min):
    # n samples all staying leave at most (1-p_min)^n <= delta_tp chance of
    # a missed leaving transition
    n = ec_required_samples(delta, p_min)
    assert n >= 1
    assert (1.0 - p_min) ** n <= delta + 1e-12


def test_greybox_miss_probability_worked_values():
    assert greybox_miss_probability(0.05, 200) == pytest.approx(3.5e-5, rel=0.05)
    assert greybox_miss_probability(0.1, 30) == pytest.approx(0.042, abs=1e-3)


def test_greybox_miss_probability_unsampled_pair():
    assert greybox_miss_probability(0.3, 0) == 1.0


# ---------------------------------------------------------------------------
# rate estimation (CTMDP)


def test_estimate_rate_worked_values():
    # the learner's rate estimate is 1 / mean dwell: dwells (0.5, 0.5) in
    # state 0 and (1, 2, 3) in state 1
    partial = frozen_partial(
        {(0, "a", 1): 2, (1, "a", 0): 3},
        rewards={0: 1.0, 1: 0.0},
        dwell_sums={(0, "a"): 1.0, (1, "a"): 6.0},
        ctmdp=True,
    )
    M = MecRecord(states=frozenset({0, 1}), actions={0: frozenset({"a"}), 1: frozenset({"a"})})
    rates = _pair_rates(M, partial)
    assert rates[(0, "a")] == pytest.approx(2.0)
    assert rates[(1, "a")] == pytest.approx(0.5)


def test_rate_inconfidence_reference_point():
    # 2500 samples at 5% relative error: certified, but not at 5% inconfidence
    v = rate_inconfidence(2500, 0.05)
    assert 0.05 < v <= 0.1


def _chernoff_terms(n, alpha):
    # both infima, evaluated from the definition at the closed-form minimizers
    below_u, above_u = chernoff_minimizers(alpha)
    return (
        math.exp(chernoff_log_term(n, below_u, 1.0 + alpha)),
        math.exp(chernoff_log_term(n, above_u, 1.0 - alpha)),
    )


def test_rate_inconfidence_parts_reference_point():
    below, above = _chernoff_terms(2500, 0.05)
    assert below <= 0.05
    assert below + above == pytest.approx(rate_inconfidence(2500, 0.05))


def test_rate_inconfidence_decreases_with_samples():
    values = [rate_inconfidence(n, 0.05) for n in (100, 500, 2500, 10000)]
    assert all(a > b for a, b in zip(values, values[1:]))


def _argmin_convex(f, lo, hi):
    # ternary search: f is convex on [lo, hi]
    for _ in range(200):
        a, b = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if f(a) <= f(b):
            hi = b
        else:
            lo = a
    return (lo + hi) / 2.0


def test_chernoff_minimizers_match_closed_form():
    below, above = chernoff_minimizers(0.05)
    assert below == pytest.approx(
        _argmin_convex(lambda u: chernoff_log_term(2500, u, 1.05), -1.0 + 1e-9, 0.0), abs=1e-6
    )
    assert above == pytest.approx(
        _argmin_convex(lambda u: chernoff_log_term(2500, u, 0.95), 0.0, 10.0), abs=1e-6
    )


@given(
    n=st.integers(min_value=1, max_value=10**6),
    alpha=st.floats(min_value=1e-4, max_value=0.95, exclude_max=True),
)
@settings(max_examples=200, deadline=None)
def test_chernoff_minimizers_minimize_the_log_terms(n, alpha):
    # each closed-form point beats its neighbours u(1 +- 1e-3) and a few
    # fixed tilts in its range, and rate_inconfidence is the sum of the minima
    below_u, above_u = chernoff_minimizers(alpha)
    minima = 0.0
    for u, tilt, tilts in (
        (below_u, 1.0 + alpha, (-0.9, -0.5, -0.1, -0.01, -1e-3)),
        (above_u, 1.0 - alpha, (1e-3, 0.01, 0.1, 1.0, 10.0)),
    ):
        at = chernoff_log_term(n, u, tilt)
        for v in (u * (1.0 - 1e-3), u * (1.0 + 1e-3)):
            assert at <= chernoff_log_term(n, v, tilt)
        for v in tilts:
            other = chernoff_log_term(n, v, tilt)
            assert at <= other + 1e-12 * abs(other)
        minima += math.exp(at)
    assert rate_inconfidence(n, alpha) == pytest.approx(minima, rel=1e-9, abs=1e-300)


@given(
    alpha=st.floats(min_value=0.02, max_value=0.5),
    delta=st.floats(min_value=1e-7, max_value=0.5),
)
@settings(max_examples=30, deadline=None)
def test_rate_samples_is_the_boundary(alpha, delta):
    n = rate_samples(alpha, delta)
    assert rate_inconfidence(n, alpha) <= delta
    if n > 1:
        assert rate_inconfidence(n - 1, alpha) > delta


@pytest.mark.parametrize("lam", [0.5, 1.0, 10.0])
def test_rate_interval_statistical_soundness(lam):
    # the certified interval misses the true rate no more often than delta_r
    # (Chernoff is conservative, so the observed miss rate sits well below)
    alpha, delta = 0.05, 0.1
    n = rate_samples(alpha, delta)
    rng = np.random.default_rng(1234)
    trials = 200
    dwell = rng.exponential(1.0 / lam, size=(trials, n))
    lam_hat = 1.0 / dwell.mean(axis=1)
    misses = 0
    for lh in lam_hat:
        if not (lh * (1.0 - alpha) <= lam <= lh * (1.0 + alpha)):
            misses += 1
    assert misses / trials <= 0.15


# ---------------------------------------------------------------------------
# inconfidence budgets


def test_split_mp_inconfidence_worked_values():
    d1, d2 = split_mp_inconfidence(0.1, 0.05)
    assert d1 == pytest.approx(0.0952381, abs=1e-6)
    assert d2 == pytest.approx(0.0047619, abs=1e-6)
    assert split_mp_inconfidence(0.1, 1.0) == pytest.approx((0.05, 0.05))


@given(
    delta=st.floats(min_value=1e-9, max_value=1.0),
    p_min=st.floats(min_value=1e-6, max_value=1.0),
)
def test_split_preserves_total_inconfidence(delta, p_min):
    d1, d2 = split_mp_inconfidence(delta, p_min)
    assert d1 + d2 == pytest.approx(delta)
    assert d1 > 0 and d2 > 0


@given(
    delta=st.floats(min_value=1e-9, max_value=1.0),
    p_min=st.floats(min_value=1e-6, max_value=1.0),
    pairs=st.integers(min_value=1, max_value=10**6),
)
@settings(deadline=None)
def test_ctmdp_budget_balances_tp_and_rate_shares(delta, p_min, pairs):
    # the per-pair transition inconfidence equals the rate share spread over
    # the pairs, and the two shares of delta_mp add back up to it
    partial = PartialModel(p_min, delta, BLACKBOX_UPDATES, BLACKBOX, ctmdp=True)
    partial.post = dict.fromkeys(((s, "a") for s in range(pairs)), {})
    d1, d2 = split_mp_inconfidence(delta, p_min)
    assert partial.current_delta_tp() == pytest.approx(d2 / pairs, rel=1e-9)
    assert d1 + d2 == pytest.approx(delta)


def test_mdp_budget_spends_everything_on_transitions():
    # an MDP learner's per-pair delta_tp is delta_mp * p_min / pairs; a
    # CTMDP learner first gives part of delta_mp to the rates
    mdp = PartialModel(0.05, 0.1, BLACKBOX_UPDATES, BLACKBOX, ctmdp=False)
    ctmdp = PartialModel(0.05, 0.1, BLACKBOX_UPDATES, BLACKBOX, ctmdp=True)
    for partial in (mdp, ctmdp):
        partial.post = {(s, "a"): {} for s in range(1000)}
    assert mdp.current_delta_tp() == pytest.approx(5e-6)
    assert ctmdp.current_delta_tp() < mdp.current_delta_tp()
