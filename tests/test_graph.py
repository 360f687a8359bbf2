"""End-component machinery: decomposition against a brute-force oracle,
the statistical sureness gate, and leaving-action selection."""

from __future__ import annotations

import time

import numpy as np
import pytest

from mppac import (
    STAY,
    ClosedMec,
    MecRecord,
    best_leaving_action,
    ec_required_samples,
    find_delta_sure_mecs,
    is_delta_sure_ec,
    mec_decomposition,
)

from .conftest import brute_force_mecs, frozen_partial, random_mdp_graph
from .reference import model_graph

# ---------------------------------------------------------------------------
# decomposition


def test_empty_graph_has_no_mecs():
    assert mec_decomposition({}) == []


def test_single_self_loop_is_a_mec():
    mecs = mec_decomposition({(0, "a"): frozenset({0})})
    assert len(mecs) == 1
    assert mecs[0].states == frozenset({0})
    assert mecs[0].actions == {0: frozenset({"a"})}


def test_state_without_self_loop_is_no_mec():
    assert mec_decomposition({(0, "a"): frozenset({1}), (1, "a"): frozenset({0, 2})}) == []


def test_transient_entry_is_excluded():
    graph = {
        (0, "go"): frozenset({1}),
        (1, "a"): frozenset({2}),
        (2, "b"): frozenset({1}),
    }
    mecs = mec_decomposition(graph)
    assert [m.states for m in mecs] == [frozenset({1, 2})]


def test_only_staying_actions_are_retained():
    graph = {
        (0, "stayhere"): frozenset({0}),
        (0, "leave"): frozenset({1}),
        (1, "a"): frozenset({1}),
    }
    mecs = mec_decomposition(graph)
    assert mecs[0].actions == {0: frozenset({"stayhere"})}
    assert mecs[1].actions == {1: frozenset({"a"})}


def test_probabilistic_action_spanning_both_is_dropped():
    # an action that may exit the candidate set cannot be part of the MEC
    graph = {
        (0, "a"): frozenset({0, 1}),
        (0, "b"): frozenset({0}),
        (1, "a"): frozenset({1}),
    }
    mecs = mec_decomposition(graph)
    assert [m.states for m in mecs] == [frozenset({0}), frozenset({1})]
    assert mecs[0].actions == {0: frozenset({"b"})}


def test_decomposition_is_sorted_by_least_state():
    graph = {
        (5, "a"): frozenset({5}),
        (1, "a"): frozenset({1}),
        (3, "a"): frozenset({3}),
    }
    assert [min(m.states) for m in mec_decomposition(graph)] == [1, 3, 5]


def test_three_mecs_fixture_decomposes_exactly(three_mecs):
    mecs = mec_decomposition(model_graph(three_mecs))
    assert [m.states for m in mecs] == [
        frozenset({1}),
        frozenset({2, 3}),
        frozenset({4, 5}),
    ]
    assert mecs[0].actions == {1: frozenset({"loop"})}
    assert mecs[1].actions == {2: frozenset({"x"}), 3: frozenset({"x"})}
    assert mecs[2].actions == {4: frozenset({"x"}), 5: frozenset({"x"})}


def test_decomposition_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(20240817)
    for _ in range(60):
        graph = random_mdp_graph(rng)
        got = [(m.states, m.actions) for m in mec_decomposition(graph)]
        assert got == brute_force_mecs(graph)


# A decomposition that rescans every pair per candidate is quadratic on these
# graphs: on a 2-CPU x86 box it took 8.1 s on the chain and 4.4 s on the DAG,
# where bucketing pairs by source state takes about 0.2 s on each.
SCALE_SECONDS = 3.0


def test_decomposition_of_a_long_chain_is_its_last_state():
    n = 20_000
    graph = {(s, "a"): frozenset({s + 1}) for s in range(n - 1)}
    graph[(n - 1, "a")] = frozenset({n - 1})
    t0 = time.perf_counter()
    mecs = mec_decomposition(graph)
    assert time.perf_counter() - t0 < SCALE_SECONDS
    assert [(m.states, m.actions) for m in mecs] == [(frozenset({n - 1}), {n - 1: frozenset({"a"})})]


def test_decomposition_of_a_layered_dag_is_its_sinks():
    # 200 layers of 50 states, each with two actions into the next layer;
    # the 50 sinks self-loop, and sinks 2k and 2k+1 also hop to each other
    rng = np.random.default_rng(5)
    layers, width = 200, 50
    graph = {}
    for i in range(layers):
        for s in range(i * width, (i + 1) * width):
            for a in ("a", "b"):
                nxt = (i + 1) * width + rng.choice(width, size=int(rng.integers(1, 3)), replace=False)
                graph[(s, a)] = frozenset(int(t) for t in nxt)
    sinks = range(layers * width, (layers + 1) * width)
    for s in sinks:
        graph[(s, "stay")] = frozenset({s})
        if s % 2 == 0:
            graph[(s, "hop")] = frozenset({s + 1})
            graph[(s + 1, "hop")] = frozenset({s})
    t0 = time.perf_counter()
    mecs = mec_decomposition(graph)
    assert time.perf_counter() - t0 < SCALE_SECONDS
    both = frozenset({"stay", "hop"})
    assert [(m.states, m.actions) for m in mecs] == [
        (frozenset({s, s + 1}), {s: both, s + 1: both}) for s in sinks if s % 2 == 0
    ]


def test_decomposed_mecs_are_disjoint_closed_and_connected():
    rng = np.random.default_rng(97)
    for _ in range(40):
        graph = random_mdp_graph(rng)
        seen: set[int] = set()
        for m in mec_decomposition(graph):
            assert not (m.states & seen)
            seen |= m.states
            for s in m.states:
                assert m.actions[s]
                for a in m.actions[s]:
                    assert graph[(s, a)] <= m.states


# ---------------------------------------------------------------------------
# statistical sureness


def test_sure_ec_boundary_at_required_samples():
    T = {0, 1}
    need = ec_required_samples(0.1, 0.1)
    assert need == 22
    available = {0: ("a",), 1: ("a",)}
    assert is_delta_sure_ec(T, available, {(0, "a"): {1: 22}, (1, "a"): {0: 22}}, need)
    assert not is_delta_sure_ec(T, available, {(0, "a"): {1: 22}, (1, "a"): {0: 21}}, need)


def test_sure_ec_ignores_leaving_pairs():
    # the under-sampled action observably leaves T, so it cannot hide mass
    T = {0}
    post = {(0, "stay"): {0: 50}, (0, "out"): {0: 1, 5: 1}}
    assert is_delta_sure_ec(T, {0: ("stay", "out")}, post, 22)


def test_sure_ec_blocks_on_unsampled_action():
    # an unsampled action has an empty observed post, which trivially stays
    T = {0}
    post = {(0, "a"): {0: 100}, (0, "b"): {}}
    assert not is_delta_sure_ec(T, {0: ("a", "b")}, post, 22)


def test_find_sure_mecs_filters_under_sampled_rows():
    partial = frozen_partial(
        {
            (0, "a", 1): 30,
            (1, "a", 0): 30,
            (2, "a", 2): 5,  # below the 22-sample threshold
        },
        rewards={0: 1.0, 1: 0.0, 2: 0.0},
        p_min=0.1,
    )
    mecs = find_delta_sure_mecs(partial.available, partial.available, partial.post, 22)
    assert [m.states for m in mecs] == [frozenset({0, 1})]


def test_find_sure_mecs_reads_only_what_the_sources_reach():
    # the cycle 0-1 is sure, but neither source reaches it over kept pairs:
    # 2 only reaches itself, and 3's pair into the cycle is under-sampled
    partial = frozen_partial(
        {(0, "a", 1): 30, (1, "a", 0): 30, (2, "a", 2): 30, (3, "a", 0): 5, (3, "b", 3): 30},
        rewards=dict.fromkeys(range(4), 0.0),
        p_min=0.1,
    )
    sure = find_delta_sure_mecs([2, 3], partial.available, partial.post, 22)
    assert [m.states for m in sure] == [frozenset({2}), frozenset({3})]
    sure = find_delta_sure_mecs([1], partial.available, partial.post, 22)
    assert [m.states for m in sure] == [frozenset({0, 1})]


def test_find_sure_mecs_empty_before_sampling():
    partial = frozen_partial({}, rewards={})
    assert find_delta_sure_mecs([], partial.available, partial.post, 22) == []


def test_find_sure_mecs_grows_with_counts():
    # adding samples can only add sure MECs, never remove them
    triples = {(0, "a", 1): 22, (1, "a", 0): 22, (2, "a", 2): 21}
    partial = frozen_partial(triples, rewards={0: 0.0, 1: 0.0, 2: 1.0}, p_min=0.1)
    before = {frozenset(m.states) for m in find_delta_sure_mecs([0, 1, 2], partial.available, partial.post, 22)}
    partial.post[(2, "a")][2] = 22
    after = {frozenset(m.states) for m in find_delta_sure_mecs([0, 1, 2], partial.available, partial.post, 22)}
    assert before <= after
    assert frozenset({2}) in after - before


# ---------------------------------------------------------------------------
# leaving actions


def _mec(states, actions):
    return MecRecord(states=frozenset(states), actions=actions)


def test_best_leaving_action_takes_highest_upper():
    M = _mec({0, 1}, {0: frozenset({"a"}), 1: frozenset({"a"})})
    values = {(0, "out"): (0.1, 0.4), (1, "out"): (0.2, 0.9)}
    available = {0: ("a", "out"), 1: ("a", "out")}
    post = {(0, "a"): {1}, (1, "a"): {0}, (0, "out"): {7}, (1, "out"): {8}}
    assert best_leaving_action(M, values, available, post) == (1, "out")


def test_best_leaving_action_breaks_ties_by_lower_bound():
    M = _mec({0}, {0: frozenset({"a"})})
    values = {(0, "x"): (0.2, 0.9), (0, "y"): (0.3, 0.9)}
    available = {0: ("a", "x", "y")}
    post = {(0, "a"): {0}, (0, "x"): {1}, (0, "y"): {2}}
    assert best_leaving_action(M, values, available, post) == (0, "y")


def test_best_leaving_action_final_ties_by_state_then_label():
    M = _mec({0, 1}, {0: frozenset({"a"}), 1: frozenset({"a"})})
    values = {(0, "x"): (0.3, 0.9), (0, "w"): (0.3, 0.9), (1, "w"): (0.3, 0.9)}
    available = {0: ("a", "x", "w"), 1: ("a", "w")}
    post = {(0, "a"): {1}, (1, "a"): {0}, (0, "x"): {5}, (0, "w"): {5}, (1, "w"): {5}}
    assert best_leaving_action(M, values, available, post) == (0, "w")


def test_internal_actions_are_not_leaving_candidates():
    M = _mec({0, 1}, {0: frozenset({"a"}), 1: frozenset({"a"})})
    values = {(0, "a"): (1.0, 1.0), (1, "a"): (1.0, 1.0), (0, "out"): (0.0, 0.2)}
    available = {0: ("a", "out"), 1: ("a",)}
    post = {(0, "a"): {1}, (1, "a"): {0}, (0, "out"): {9}}
    assert best_leaving_action(M, values, available, post) == (0, "out")


def test_stay_competes_as_a_leaving_action():
    M = _mec({0}, {0: frozenset({"a"})})
    values = {(0, "out"): (0.1, 0.4), (0, STAY): (0.5, 0.8)}
    available = {0: ("a", "out")}
    post = {(0, "a"): {0}, (0, "out"): {3}}
    assert best_leaving_action(M, values, available, post) == (0, STAY)


def test_closed_mec_without_stay_raises():
    M = _mec({0}, {0: frozenset({"a"})})
    with pytest.raises(ClosedMec):
        best_leaving_action(M, {}, {0: ("a",)}, {(0, "a"): {0}})


def test_stay_label_sorts_after_real_actions():
    # uniform choice among maximizers must order stay deterministically last
    assert sorted(["b", STAY, "a"]) == ["a", "b", STAY]


def test_mec_record_key_is_structural():
    a = _mec({0, 1}, {0: frozenset({"a"}), 1: frozenset({"b"})})
    b = _mec({1, 0}, {1: frozenset({"b"}), 0: frozenset({"a"})})
    assert a.key() == b.key()
