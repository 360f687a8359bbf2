"""Release acceptance: every shipping criterion at its stated tolerance.

The heavyweight oracle-bracketing checks (dozens of full learner runs) live
here rather than in the per-module unit files; expect several minutes.
"""

from __future__ import annotations

import math
import time
from itertools import product

import numpy as np
import pytest

from mppac import (
    GREYBOX_UPDATES,
    MINUS,
    PLUS,
    LearnerConfig,
    MecRecord,
    SampleOracle,
    exact_bracket,
    exact_mean_payoff,
    find_mec_mp_bounds_exact,
    greybox_miss_probability,
    load_model,
    mec_decomposition,
    on_demand_bvi,
    rate_samples,
    tp_width,
    uniformize,
)
from mppac.cli import _run_one, main
from mppac.learn_mdp import _interval_gain_vi, _mec_rows

from .conftest import brute_force_mecs, frozen_partial, random_mdp_graph
from .reference import (
    chernoff_log_term,
    chernoff_minimizers,
    ctmdp_mec_gain,
    global_update,
    model_graph,
    stationary_distribution,
)

# ---------------------------------------------------------------------------
# 1. dwell-sample lookup table against its independently rounded reference
#    values (two significant figures), each cell within ±15%
#
# The cell (α = 0.03, δ = 1e-7) was published as 60 000 and is corrected here
# to 37 000: the closed-form Chernoff sample size 37 466 (see
# test_sample_table_matches_closed_form_chernoff) at two significant figures.
# The published value is inconsistent with the rest of the table:
#   - No bound of the form n = ln(K/δ)/c(α), Chernoff included, can give it.
#     Such n is affine in ln(1/δ), so within ±15% the row's δ = 0.1 and
#     δ = 1e-4 cells cap the δ = 1e-7 cell at 2·26 450 − 5 950 = 46 950,
#     below the 51 000 floor that ±15% sets under 60 000.
#   - It breaks its row: in every other row the δ = 1e-7 cell is 1.67–1.74
#     times the δ = 1e-4 cell; 60 000 / 23 000 = 2.61.
#   - It breaks its column: n scales about as 1/α², so the α = 0.05 cell
#     predicts 13 400 · (5/3)² ≈ 37 200. 60 000 would correspond to
#     δ ≈ 4e-12.
# The source of the published table is not in this repository; if it is
# added, check this cell against it.

REFERENCE_SAMPLE_TABLE = {
    (0.03, 0.10): 7000,
    (0.03, 0.05): 9000,
    (0.03, 1e-4): 23000,
    (0.03, 1e-7): 37000,
    (0.05, 0.10): 2500,
    (0.05, 0.05): 3100,
    (0.05, 1e-4): 8000,
    (0.05, 1e-7): 13400,
    (0.10, 0.10): 650,
    (0.10, 0.05): 800,
    (0.10, 1e-4): 2100,
    (0.10, 1e-7): 3500,
    (0.20, 0.10): 160,
    (0.20, 0.05): 200,
    (0.20, 1e-4): 530,
    (0.20, 1e-7): 920,
}


@pytest.mark.parametrize(
    ("alpha", "delta", "expected"),
    [(a, d, n) for (a, d), n in sorted(REFERENCE_SAMPLE_TABLE.items())],
    ids=[f"alpha={a:g}-delta={d:g}" for (a, d) in sorted(REFERENCE_SAMPLE_TABLE)],
)
def test_sample_table_cell_within_15_percent(alpha, delta, expected):
    got = rate_samples(alpha, delta)
    assert abs(got - expected) <= 0.15 * expected, (
        f"rate_samples({alpha}, {delta}) = {got}, reference {expected}"
    )


def _closed_form_chernoff_samples(alpha, delta):
    """Smallest n with exp(-n c+) + exp(-n c-) <= delta, where
    c+ = α - ln(1+α) and c- = -α - ln(1-α) are the exponents of the two
    Chernoff infima at their minimisers u = 1/(1±α) - 1."""
    c_plus = alpha - math.log1p(alpha)
    c_minus = -alpha - math.log1p(-alpha)

    def bound(n):
        return math.exp(-n * c_plus) + math.exp(-n * c_minus)

    if bound(1) <= delta:
        return 1, c_plus
    hi = 2
    while bound(hi) > delta:
        hi *= 2
    lo = hi // 2  # bound(lo) > delta >= bound(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) <= delta:
            hi = mid
        else:
            lo = mid
    return hi, c_plus


@pytest.mark.parametrize(
    ("alpha", "delta"),
    sorted(REFERENCE_SAMPLE_TABLE),
    ids=[f"alpha={a:g}-delta={d:g}" for (a, d) in sorted(REFERENCE_SAMPLE_TABLE)],
)
def test_sample_table_matches_closed_form_chernoff(alpha, delta):
    expected, c_plus = _closed_form_chernoff_samples(alpha, delta)
    # c+ < c-, so the bound lies between exp(-n c+) and 2 exp(-n c+)
    low = math.log(1.0 / delta) / c_plus
    high = math.ceil(math.log(2.0 / delta) / c_plus)
    assert low <= expected <= high
    assert rate_samples(alpha, delta) == expected


def test_sample_table_computes_in_under_10_seconds():
    start = time.perf_counter()
    for alpha, delta in REFERENCE_SAMPLE_TABLE:
        rate_samples(alpha, delta)
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 2. Hoeffding worked examples


def test_tp_width_worked_examples():
    assert abs(tp_width(30, 0.1) - 0.196) <= 0.001
    assert abs(tp_width(30, 0.058) - 0.22) <= 0.005


def test_greybox_miss_probability_worked_examples():
    assert abs(greybox_miss_probability(0.1, 30) - 0.042) <= 0.001
    assert abs(greybox_miss_probability(0.05, 200) - 3.5e-5) <= 0.05 * 3.5e-5


# ---------------------------------------------------------------------------
# 3. Chernoff dwell-time worked example


def test_first_chernoff_infimum_crosses_at_about_2500_samples():
    # smallest n where the underestimation term alone drops to 0.05 at α=0.05
    below_u, _ = chernoff_minimizers(0.05)

    def below(n):
        return math.exp(chernoff_log_term(n, below_u, 1.05))

    hi = 2
    while below(hi) > 0.05:
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid) <= 0.05:
            hi = mid
        else:
            lo = mid
    assert abs(hi - 2500) <= 0.15 * 2500


def test_chernoff_minimizers_match_reference_points():
    below_u, above_u = chernoff_minimizers(0.05)
    assert abs(below_u - (-0.0477)) <= 0.02
    assert abs(above_u - 0.0526) <= 0.02


# ---------------------------------------------------------------------------
# 4. oracle bracketing, MDP: 20 seeded blackbox runs per bundled model must
#    terminate fast, cover the exact value ≥ 18/20 times, and end narrower
#    than 2ε (relative scale)


@pytest.mark.parametrize("name", ["two_mec.mdp", "cycle_entry.mdp", "random5.mdp"])
def test_mdp_runs_bracket_the_exact_value(models_dir, name):
    model = load_model(models_dir / name)
    bracket = exact_bracket(model)
    config = LearnerConfig(epsilon_mp=0.01, delta_mp=0.1, timeout_s=120.0)
    covered = 0
    for seed in range(20):
        start = time.perf_counter()
        report = _run_one(model, "blackbox", config, seed)
        elapsed = time.perf_counter() - start
        low, up = report.final
        assert elapsed < 120.0, f"seed {seed} took {elapsed:.1f}s"
        assert not report.timed_out
        assert low <= up
        assert up - low < 2 * config.epsilon_mp * report.r_max_seen + 1e-9
        covered += report.covers(bracket)
    assert covered >= 18, f"{name}: only {covered}/20 runs covered {bracket}"


# ---------------------------------------------------------------------------
# 5. oracle bracketing, CTMDP: the two-state rate cycle (exact value 1/3),
#    plus invariance of the MEC gain in the uniformization constant


def test_ctmdp_runs_bracket_the_exact_value(models_dir):
    model = load_model(models_dir / "cycle_rates.ctmdp")
    bracket = exact_bracket(model)
    config = LearnerConfig(epsilon_mp=0.01, delta_mp=0.1, timeout_s=120.0)
    covered = 0
    for seed in range(20):
        report = _run_one(model, "blackbox", config, seed)
        low, up = report.final
        assert not report.timed_out
        assert low <= up
        covered += report.covers(bracket)
    assert covered >= 18, f"only {covered}/20 runs covered {bracket}"


def test_mec_gain_is_invariant_in_the_uniformization_constant():
    n = 50_000
    partial = frozen_partial(
        {(0, "a", 1): n, (1, "a", 0): n},
        rewards={0: 1.0, 1: 0.0},
        p_min=1.0,
        dwell_sums={(0, "a"): n / 2.0, (1, "a"): n / 1.0},
        ctmdp=True,
    )
    M = MecRecord(
        states=frozenset({0, 1}),
        actions={0: frozenset({"a"}), 1: frozenset({"a"})},
    )
    rates = {(0, "a"): 2.0, (1, "a"): 1.0}
    beta = 1e-6
    # the exact uniformized gain: statistical widths off, C = max λ vs 2·max λ
    rows, rewards = _mec_rows(M, partial)
    at_c = _interval_gain_vi(M, uniformize(rows, rates, 2.0), rewards, 1.0, beta)
    at_2c = _interval_gain_vi(M, uniformize(rows, rates, 4.0), rewards, 1.0, beta)
    assert abs(at_c[0] - at_2c[0]) <= 2 * beta + 1e-9
    assert abs(at_c[1] - at_2c[1]) <= 2 * beta + 1e-9


# ---------------------------------------------------------------------------
# 6. greybox updates dominate blackbox updates on identical frozen counts

DOMINANCE_FIXTURES = (
    # lone deterministic row: support knowledge makes it width-immune
    {(0, "a", PLUS): 300},
    # deterministic hop into a stochastic exit loop
    {(0, "a", 1): 200, (1, "a", PLUS): 120, (1, "a", 0): 80},
    # a choice between a risky and a routed action
    {
        (0, "a", PLUS): 90,
        (0, "a", MINUS): 210,
        (0, "b", 1): 150,
        (0, "b", PLUS): 150,
        (1, "a", PLUS): 240,
        (1, "a", MINUS): 60,
    },
    # three states, small counts mixed with large ones
    {
        (0, "a", 1): 40,
        (0, "a", 2): 40,
        (1, "a", PLUS): 35,
        (1, "a", 2): 5,
        (2, "a", MINUS): 12,
        (2, "a", PLUS): 28,
        (2, "b", 1): 30,
    },
    # very small counts: wide rows where the residual dominates
    {
        (0, "a", PLUS): 8,
        (0, "a", 1): 5,
        (0, "a", MINUS): 3,
        (1, "a", PLUS): 600,
        (1, "a", 0): 200,
    },
)


def _bellman_fixpoint(triples, style):
    states = {s for s, _, _ in triples}
    partial = frozen_partial(triples, rewards={s: 0.0 for s in states})
    for _ in range(200_000):
        if not global_update(partial, update_style=style, tol=1e-12):
            break
    else:
        raise AssertionError("value iteration did not reach a fixpoint")
    return dict(partial.L), dict(partial.U)


@pytest.mark.parametrize("triples", DOMINANCE_FIXTURES, ids=range(len(DOMINANCE_FIXTURES)))
def test_greybox_fixpoint_dominates_blackbox_fixpoint(triples):
    from mppac import BLACKBOX_UPDATES

    black_l, black_u = _bellman_fixpoint(triples, BLACKBOX_UPDATES)
    grey_l, grey_u = _bellman_fixpoint(triples, GREYBOX_UPDATES)
    states = {s for s, _, _ in triples}
    slack = 0.0
    for s in states:
        assert grey_l[s] >= black_l[s] - 1e-9
        assert grey_u[s] <= black_u[s] + 1e-9
        slack += (grey_l[s] - black_l[s]) + (black_u[s] - grey_u[s])
    assert slack > 1e-6  # knowing the support must actually buy something


# ---------------------------------------------------------------------------
# 7. MEC decomposition against brute force, and the three-component model


def test_decomposition_matches_brute_force_on_200_random_graphs():
    rng = np.random.default_rng(20260819)
    for _ in range(200):
        graph = random_mdp_graph(rng, max_states=5)
        got = [(m.states, m.actions) for m in mec_decomposition(graph)]
        assert got == brute_force_mecs(graph)


def test_three_component_model_decomposes_and_solves_exactly(three_mecs):
    mecs = mec_decomposition(model_graph(three_mecs))
    assert [m.states for m in mecs] == [
        frozenset({1}),
        frozenset({2, 3}),
        frozenset({4, 5}),
    ]
    scaled = exact_mean_payoff(three_mecs) / three_mecs.r_max
    assert abs(scaled - 0.5005) <= 1e-5


# ---------------------------------------------------------------------------
# 8. CTMDP rate sweep against corner brute force on random one-action MECs


def _random_ctmdp_mec(rng):
    """Strongly connected 3-state ring with one action per state and
    probabilities on an eighths grid (frozen frequencies are then exact)."""
    denom = 8
    probs = {}
    triples = {}
    for s in range(3):
        nxt, other = (s + 1) % 3, (s + 2) % 3
        k = int(rng.integers(0, 4))  # eighths diverted to a second edge
        row = {nxt: (denom - k) / denom}
        if k:
            row[other] = k / denom
        probs[s] = row
        for t, p in row.items():
            triples[(s, "a", t)] = int(round(p * denom))
    rates = {s: float(rng.choice([0.5, 1.0, 2.0, 4.0, 8.0])) for s in range(3)}
    rewards = {s: float(rng.integers(0, 17)) / 16.0 for s in range(3)}
    rewards[int(rng.integers(0, 3))] = 1.0  # keep raw and scaled units equal
    return probs, rates, rewards, triples


def _corner_gain(probs, rewards, corner_rates):
    # the ring is irreducible: its embedded chain's stationary frequencies,
    # weighed by residence time 1/λ
    P = np.zeros((3, 3))
    for s, row in probs.items():
        for t, p in row.items():
            P[s, t] = p
    pi = stationary_distribution(P)
    return ctmdp_mec_gain(pi, [rewards[s] for s in range(3)], [corner_rates[s] for s in range(3)])


def test_rate_sweep_contains_the_corner_extrema():
    rng = np.random.default_rng(8)
    alpha_r, beta = 0.05, 1e-6
    for _ in range(20):
        probs, rates, rewards, triples = _random_ctmdp_mec(rng)
        partial = frozen_partial(
            triples,
            rewards=rewards,
            p_min=min(min(row.values()) for row in probs.values()),
            dwell_sums={(s, "a"): 8.0 / rates[s] for s in range(3)},
            ctmdp=True,
        )
        M = MecRecord(
            states=frozenset({0, 1, 2}),
            actions={s: frozenset({"a"}) for s in range(3)},
        )
        low, up = find_mec_mp_bounds_exact(M, partial, alpha_r, beta, delta_tp=1.0)
        corners = [
            _corner_gain(probs, rewards, {s: rates[s] * f[s] for s in range(3)})
            for f in product((1.0 - alpha_r, 1.0 + alpha_r), repeat=3)
        ]
        assert low <= min(corners) + beta + 1e-9
        assert up >= max(corners) - beta - 1e-9


# ---------------------------------------------------------------------------
# 9. determinism: identical (model, config, seed) gives byte-identical CSVs


@pytest.mark.parametrize("name", ["two_mec.mdp", "nonuniform.ctmdp"])
def test_repeated_runs_write_byte_identical_traces(models_dir, tmp_path, name):
    def run_to(path):
        code = main(
            [
                "run",
                "--model", str(models_dir / name),
                "--seed", "7",
                "--csv", str(path),
            ]
        )
        assert code == 0

    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    run_to(first)
    run_to(second)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().startswith(b"time_s,episodes,lower,upper\n")


# ---------------------------------------------------------------------------
# 10. anytime contract: interrupting at a round boundary leaves a sound,
#     well-formed report


@pytest.mark.parametrize("timeout_s", [0.3, 0.8, 1.5])
def test_interrupted_runs_stay_well_formed(models_dir, timeout_s):
    model = load_model(models_dir / "random5.mdp")
    oracle = SampleOracle(model, rng_seed=1)
    config = LearnerConfig(
        anytime=True, timeout_s=timeout_s, episodes_per_round=200, seed=1
    )
    report = on_demand_bvi(oracle, config)
    assert report.timed_out
    # a run finishes its round's VI phase after the deadline: the stated overshoot
    assert report.wall_seconds <= timeout_s + 2.0
    assert report.trace
    assert report.episodes == report.trace[-1][1]
    assert report.rounds == len(report.trace)
    low, up = report.final
    assert 0.0 <= low <= up <= report.r_max_seen + 1e-9
    assert report.certified_inconfidence == pytest.approx(config.delta_mp)


def test_interrupted_grey_update_run_reports_its_surcharge(models_dir):
    model = load_model(models_dir / "random5.mdp")
    oracle = SampleOracle(model, rng_seed=2)
    config = LearnerConfig(
        anytime=True,
        timeout_s=0.8,
        episodes_per_round=200,
        seed=2,
        update_style=GREYBOX_UPDATES,
    )
    report = on_demand_bvi(oracle, config)
    assert report.timed_out
    low, up = report.final
    assert low <= up
    # grey updates on blackbox information must disclose the support risk
    assert config.delta_mp <= report.certified_inconfidence <= 1.0
