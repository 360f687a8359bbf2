"""On-demand MDP learner: Bellman updates, loop confirmation, MEC gain
refinement, deflation, and the end-to-end PAC loop."""

from __future__ import annotations

import copy
import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mppac import (
    BLACKBOX,
    CTMDP,
    GREYBOX,
    BLACKBOX_UPDATES,
    GREYBOX_UPDATES,
    MDP,
    MINUS,
    PLUS,
    STAY,
    UNKNOWN,
    BoundsReport,
    LearnerConfig,
    MecRecord,
    PartialModel,
    SampleOracle,
    compute_n_samples,
    find_delta_sure_mecs,
    learner_rng,
    load_model,
    looping,
    mec_decomposition,
    mec_value_iteration,
    on_demand_bvi,
    on_demand_bvi_ctmdp,
    simulate_episode,
    simulate_mec,
    update_mec_value,
)
from mppac.learn_mdp import (
    TERMINALS,
    _choose_action,
    _draw_stay,
    _estimates,
    _interval_gain_vi,
    _sweep_once,
    _vi_phase,
)
from mppac.stats import tp_width

from .conftest import frozen_partial, random_mdp_graph
from .reference import (
    bellman_blackbox,
    bellman_greybox,
    deflate,
    global_update,
    looping_whole_path,
    record_step,
    whole_graph_sure_mecs,
)
from .test_golden_traces import layered_model, random5_x3

# ---------------------------------------------------------------------------
# stay distributions


class _FixedDraw:
    """An rng whose every uniform draw is x."""

    def __init__(self, x):
        self.x = x

    def random(self):
        return self.x


def _stay_record(l, u):
    return MecRecord(states=frozenset({0}), actions={0: frozenset({"a"})}, gain_lower=l, gain_upper=u)


def test_stay_distribution_worked_values():
    # the stay reaches PLUS with the lower bound, MINUS with 1 - upper and
    # UNKNOWN with the gap: draws in [0, 0.4), [0.4, 0.9) and [0.9, 1)
    rec = _stay_record(0.4, 0.5)
    outcomes = [_draw_stay(rec, _FixedDraw(x)) for x in (0.0, 0.39, 0.4, 0.89, 0.9, 0.99)]
    assert outcomes == [PLUS, PLUS, MINUS, MINUS, UNKNOWN, UNKNOWN]
    assert {_draw_stay(_stay_record(1.0, 1.0), _FixedDraw(x)) for x in (0.0, 0.5, 0.999)} == {PLUS}
    assert {_draw_stay(_stay_record(0.0, 1.0), _FixedDraw(x)) for x in (0.0, 0.5, 0.999)} == {UNKNOWN}


@given(
    l=st.floats(min_value=0.0, max_value=1.0),
    gap=st.floats(min_value=0.0, max_value=1.0),
)
def test_stay_distribution_is_a_distribution(l, gap):
    # on a grid of draws, each outcome's share is its probability
    u = min(1.0, l + gap)
    k = 1000
    outcomes = [_draw_stay(_stay_record(l, u), _FixedDraw((i + 0.5) / k)) for i in range(k)]
    for outcome, p in ((PLUS, l), (MINUS, 1.0 - u), (UNKNOWN, u - l)):
        assert abs(outcomes.count(outcome) / k - p) <= 1.0 / k + 1e-9


# ---------------------------------------------------------------------------
# Bellman updates


# at n = 10 observations, delta_tp = e^-0.2 gives the Hoeffding width
# sqrt(0.2 / 20) = 0.1
DELTA_TP_W01 = math.exp(-0.2)


def _bellman_partial(update_style=BLACKBOX_UPDATES):
    # ten observations of (0, 'a'): three to state 1 (value 1), four to
    # state 2 (value 0.5) and three to state 3 (value 0.75)
    partial = frozen_partial(
        {(0, "a", 1): 3, (0, "a", 2): 4, (0, "a", 3): 3},
        rewards={0: 1.0},
        update_style=update_style,
    )
    partial.L[1], partial.U[1] = 1.0, 1.0
    partial.L[2], partial.U[2] = 0.5, 0.5
    partial.L[3], partial.U[3] = 0.75, 0.75
    return partial


def test_bellman_blackbox_worked_example():
    # width 0.1 lowers the frequencies 0.3, 0.4, 0.3 to 0.2, 0.3, 0.2, so
    # 0.2 + 0.15 + 0.15 = 0.5 below; the unassigned 0.3 counts as 0 below
    # and 1 above
    low, up = bellman_blackbox(0, "a", _bellman_partial(), delta_tp=DELTA_TP_W01)
    assert low == pytest.approx(0.5)
    assert up == pytest.approx(0.8)


def test_bellman_greybox_worked_example():
    # same estimates, but the residual mass goes to the seen extremes:
    # min L = 0.5 below, max U = 1.0 above
    low, up = bellman_greybox(0, "a", _bellman_partial(), delta_tp=DELTA_TP_W01)
    assert low == pytest.approx(0.65)
    assert up == pytest.approx(0.8)


def test_bellman_unsampled_pair_is_vacuous():
    partial = _bellman_partial()
    partial.post[(0, "a")] = {}
    assert bellman_blackbox(0, "a", partial, 0.01) == (0.0, 1.0)
    assert bellman_greybox(0, "a", partial, 0.01) == (0.0, 1.0)


def test_bellman_greybox_single_successor_ignores_width():
    # a deterministic row loses nothing to estimation error under the
    # residual-to-seen-extremes update, at any count
    partial = frozen_partial({(0, "a", 1): 2}, rewards={0: 0.0})
    partial.L[1], partial.U[1] = 0.3, 0.7
    low, up = bellman_greybox(0, "a", partial, delta_tp=1e-6)
    assert low == pytest.approx(0.3)
    assert up == pytest.approx(0.7)


def test_bellman_greybox_dominates_blackbox_pointwise():
    for delta_tp in (1.0, 0.1, 1e-3):
        partial = _bellman_partial()
        bl, bu = bellman_blackbox(0, "a", partial, delta_tp)
        gl, gu = bellman_greybox(0, "a", partial, delta_tp)
        assert gl >= bl - 1e-12
        assert gu <= bu + 1e-12


def test_global_update_reaches_a_fixpoint():
    partial = frozen_partial(
        {(0, "a", 1): 50, (1, "a", PLUS): 50},
        rewards={0: 0.0, 1: 0.0},
    )
    for _ in range(500):
        if not global_update(partial):
            break
    assert not global_update(partial)
    # one more sweep after the fixpoint must not move anything
    before = dict(partial.L), dict(partial.U)
    global_update(partial)
    assert (partial.L, partial.U) == before


def test_global_update_propagates_along_chains():
    partial = frozen_partial(
        {(0, "a", 1): 200, (1, "a", 2): 200, (2, "a", PLUS): 200},
        rewards={0: 0.0, 1: 0.0, 2: 0.0},
    )
    for _ in range(200):
        if not global_update(partial):
            break
    assert partial.L[0] > 0.5
    assert partial.U[0] <= 1.0


def test_global_update_style_override_controls_equations():
    # identical counts, once with blackbox equations and once with greybox:
    # greybox values must dominate pointwise
    def run(style):
        partial = frozen_partial(
            {
                (0, "a", 1): 8,
                (0, "a", 2): 6,
                (1, "b", PLUS): 12,
                (2, "b", MINUS): 9,
            },
            rewards={0: 0.0, 1: 0.0, 2: 0.0},
        )
        for _ in range(300):
            if not global_update(partial, update_style=style):
                break
        return dict(partial.L), dict(partial.U)

    bl, bu = run(BLACKBOX_UPDATES)
    gl, gu = run(GREYBOX_UPDATES)
    for s in bl:
        assert gl[s] >= bl[s] - 1e-9
        assert gu[s] <= bu[s] + 1e-9


@st.composite
def _swept_partials(draw):
    """A frozen partial with random values, stays and row shapes, and the
    update style to sweep it with. Rows may be unsampled, lead to PLUS /
    MINUS / UNKNOWN, leave estimate mass unassigned, and (greybox) have a
    complete or an incomplete support."""
    n_states = draw(st.integers(1, 5))
    targets = list(range(n_states)) + [PLUS, MINUS, UNKNOWN]
    triples, unsampled, succ_total = {}, [], {}
    for s in range(n_states):
        for a in ("a", "b", "c")[: draw(st.integers(1, 3))]:
            ts = draw(st.lists(st.sampled_from(targets), min_size=1, max_size=4, unique=True))
            for t in ts:
                triples[(s, a, t)] = draw(st.integers(1, 60))
            if draw(st.booleans()):
                unsampled.append((s, a))
            succ_total[(s, a)] = len(ts) + draw(st.integers(0, 1))
    info = draw(st.sampled_from([BLACKBOX, GREYBOX]))
    partial = frozen_partial(
        triples,
        rewards={s: 1.0 for s in range(n_states)},
        succ_total=succ_total if info == GREYBOX else None,
        info_level=info,
    )
    for sa in unsampled:
        partial.post[sa] = {}
    unit = st.floats(min_value=0.0, max_value=1.0)
    for s in range(n_states):
        partial.L[s], partial.U[s] = sorted((draw(unit), draw(unit)))
    # disjoint stay MECs over a prefix of a shuffled state list
    order = draw(st.permutations(list(range(n_states))))
    cut = draw(st.integers(0, n_states))
    while cut:
        size = draw(st.integers(1, cut))
        states, order, cut = order[:size], order[size:], cut - size
        low, up = sorted((draw(unit), draw(unit)))
        partial.adopt_looping_record(MecRecord(
            states=frozenset(states),
            actions={q: frozenset(partial.available[q]) for q in states},
            gain_lower=low,
            gain_upper=up,
        ))
    return partial, draw(st.sampled_from([BLACKBOX_UPDATES, GREYBOX_UPDATES]))


def _stay_above_every_row():
    # a stay whose gains exceed both values of the state's only row
    partial = frozen_partial({(0, "a", 0): 10}, rewards={0: 1.0})
    partial.L[0], partial.U[0] = 0.1, 0.2
    partial.adopt_looping_record(
        MecRecord(states=frozenset({0}), actions={0: frozenset({"a"})}, gain_lower=0.8, gain_upper=0.9)
    )
    return partial, BLACKBOX_UPDATES


@given(_swept_partials())
@example(_stay_above_every_row())
def test_array_sweep_equals_the_bellman_rows_exactly(case):
    partial, style = case
    partial.update_style = style
    delta_tp = partial.current_delta_tp()
    est = _estimates(partial)
    L = np.array([partial.L[s] for s in est.states])
    U = np.array([partial.U[s] for s in est.states])
    pair_l, pair_u, new_l, new_u = _sweep_once(est, L, U)
    for r, (s, a) in enumerate(est.pairs):
        bellman = bellman_greybox if partial.grey_equations([(s, a)])[0] else bellman_blackbox
        assert (pair_l[r], pair_u[r]) == bellman(s, a, partial, delta_tp)
    for i, s in enumerate(est.states):
        best_l = best_u = 0.0
        for a in partial.available[s]:
            pl, pu = (bellman_greybox if partial.grey_equations([(s, a)])[0] else bellman_blackbox)(
                s, a, partial, delta_tp
            )
            best_l, best_u = max(best_l, pl), max(best_u, pu)
        rec = partial.stay_of.get(s)
        if rec is not None:
            best_l, best_u = max(best_l, rec.gain_lower), max(best_u, rec.gain_upper)
        assert (new_l[i], new_u[i]) == (best_l, best_u)

    # the phase's deflation clamps exactly as deflate does, MEC by MEC
    est.store(partial, new_l, new_u, pair_l, pair_u)
    est.deflate(pair_u, new_u)
    for M in partial.mecs:
        deflate(M, partial)
    assert new_u.tolist() == [partial.U[s] for s in est.states]


# ---------------------------------------------------------------------------
# loop confirmation


def test_looping_confirms_a_fully_sampled_cycle():
    partial = frozen_partial(
        {(1, "a", 2): 22, (2, "b", 1): 22},
        rewards={1: 1.0, 2: 0.0},
        p_min=0.1,
    )
    rec = looping([1, 2, 1, 2, 1], 1, partial, 22)
    assert rec is not None
    assert rec.states == frozenset({1, 2})
    assert rec.actions == {1: frozenset({"a"}), 2: frozenset({"b"})}


def test_looping_rejects_an_under_sampled_cycle():
    partial = frozen_partial(
        {(1, "a", 2): 22, (2, "b", 1): 21},
        rewards={1: 1.0, 2: 0.0},
        p_min=0.1,
    )
    assert looping([1, 2, 1, 2, 1], 1, partial, 22) is None


def test_looping_ignores_states_outside_the_path():
    # the candidate cycle runs through state 9, which the path never visited
    partial = frozen_partial(
        {(1, "a", 9): 50, (9, "a", 1): 50},
        rewards={1: 0.0, 9: 0.0},
        p_min=0.1,
    )
    assert looping([1, 1, 1], 1, partial, 22) is None


def test_looping_rejects_transient_states():
    partial = frozen_partial(
        {(1, "a", 2): 50, (2, "b", 1): 50, (0, "go", 1): 50},
        rewards={0: 0.0, 1: 0.0, 2: 0.0},
        p_min=0.1,
    )
    assert looping([0, 0, 0], 0, partial, 22) is None


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_looping_finds_what_the_whole_path_check_finds(seed):
    # random counts around the gate's 22 samples (δ_tp = p_min = 0.1) keep
    # some pairs and drop others; the path covers a random subset of states
    rng = np.random.default_rng(seed)
    graph = random_mdp_graph(rng, max_states=6)
    triples = {(q, a, t): int(rng.integers(1, 25)) for (q, a), ts in graph.items() for t in ts}
    states = sorted({q for q, _ in graph})
    partial = frozen_partial(triples, rewards=dict.fromkeys(states, 0.0))
    s = int(rng.choice(states))
    path = [s, *(q for q in states if rng.random() < 0.7), s]
    rng.shuffle(path)
    got = looping(path, s, partial, 22)
    want = looping_whole_path(path, s, partial, 22)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.key() == want.key()


def test_adopt_drops_overlapping_stale_records():
    partial = frozen_partial(
        {(1, "a", 2): 30, (2, "b", 1): 30},
        rewards={1: 1.0, 2: 0.0},
        p_min=0.1,
    )
    stale = MecRecord(states=frozenset({1}), actions={1: frozenset({"a"})})
    partial.adopt_looping_record(stale)
    fresh = looping([1, 2, 1, 2, 1], 1, partial, 22)
    partial.adopt_looping_record(fresh)
    assert stale not in partial.mecs
    assert fresh in partial.mecs
    assert partial.stay_of[1] is fresh
    assert partial.stay_of[2] is fresh


def _sure_cycle_partial(extra=None):
    # 60 samples per pair clear the sure-EC gate here (51 needed, 55 with the extra pair)
    return frozen_partial(
        {(1, "a", 2): 60, (2, "b", 1): 60, **(extra or {})},
        rewards={1: 1.0, 2: 0.0},
        p_min=0.1,
    )


def _reconcile(partial):
    # the round end's search, which starts from the held records' states
    need = partial.sure_ec_need()
    assert whole_graph_sure_mecs(partial.post, need), "the cycle must be a sure MEC"
    partial.reconcile_mecs(find_delta_sure_mecs(partial.stay_of, partial.available, partial.post, need))


def test_reconcile_keeps_the_stay_of_an_unchanged_mec():
    partial = _sure_cycle_partial()
    partial.adopt_looping_record(_cycle_record(gain_lower=0.3, gain_upper=0.6))
    _reconcile(partial)
    for s in (1, 2):
        assert (partial.stay_of[s].gain_lower, partial.stay_of[s].gain_upper) == (0.3, 0.6)


@pytest.mark.parametrize(
    "held",
    [
        # fewer states than this round's MEC
        MecRecord(states=frozenset({1}), actions={1: frozenset({"a"})}, gain_lower=0.3, gain_upper=0.6),
        # the same states, but the MEC now also retains (1, 'c')
        MecRecord(
            states=frozenset({1, 2}),
            actions={1: frozenset({"a"}), 2: frozenset({"b"})},
            gain_lower=0.3,
            gain_upper=0.6,
        ),
    ],
    ids=["states", "actions"],
)
def test_reconcile_drops_the_stay_of_a_changed_mec(held):
    partial = _sure_cycle_partial({(1, "c", 1): 60})
    partial.adopt_looping_record(copy.deepcopy(held))
    assert partial.stay_of[1].gain_lower == 0.3
    _reconcile(partial)
    assert partial.stay_of == {}
    assert _choose_action(1, partial, learner_rng(0)) != STAY


def test_reconcile_gives_no_stay_to_an_unconfirmed_sure_mec():
    partial = _sure_cycle_partial()
    _reconcile(partial)
    assert partial.stay_of == {}
    _vi_phase(partial)
    # without a stay, the closed cycle keeps its vacuous upper bound
    assert (partial.L[1], partial.U[1]) == (0.0, 1.0)


def _held_records(graph, kept, sure, rng) -> list[MecRecord]:
    """Disjoint records to hold. Per sure MEC M (of the kept pairs), half the
    time an end component inside M without one of its states, which is no
    MEC; else M with one more action of one of its states, M itself, or
    nothing. Then one-state records on half the states no record holds,
    with their kept self-loops where they have some."""
    held = []
    for M in sure:
        kind = rng.integers(6)
        extra = [(q, a) for q, a in graph if q in M.states and a not in M.actions[q]]
        subs = []
        if kind < 3:
            for cut in rng.permutation(sorted(M.states)).tolist():
                states = M.states - {cut}
                subs = mec_decomposition({(q, a): kept[(q, a)] for q in states for a in M.actions[q]})
                if subs:
                    break
        if subs:
            held.append(subs[int(rng.integers(len(subs)))])
        elif kind == 3 and extra:
            q, a = extra[int(rng.integers(len(extra)))]
            held.append(MecRecord(M.states, {**M.actions, q: M.actions[q] | {a}}))
        elif kind != 5:
            held.append(MecRecord(M.states, dict(M.actions)))
    covered = {q for m in held for q in m.states}
    for q in sorted({q for q, _ in graph} - covered):
        if rng.random() < 0.5:
            loops = frozenset(a for p, a in kept if p == q and kept[(p, a)] == {q})
            held.append(MecRecord(frozenset({q}), {q: loops or frozenset({"a"})}))
    return held


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(2)  # holds an end component inside a MEC, kept by a search of its own states' pairs alone
@example(13)
def test_reconcile_keeps_what_the_whole_graph_search_keeps(seed):
    # per-successor counts around a random gate keep some pairs and drop
    # others; the round end searches only what the held records' states
    # reach, and must keep the records whose keys are MECs of the whole
    # kept graph
    rng = np.random.default_rng(seed)
    graph = random_mdp_graph(rng, max_states=6)
    need = int(rng.integers(1, 30))
    triples = {(q, a, t): int(rng.integers(1, 2 * need + 1)) for (q, a), ts in graph.items() for t in ts}
    partial = frozen_partial(triples, rewards=dict.fromkeys((q for q, _ in graph), 0.0))
    kept = {sa: ts.keys() for sa, ts in partial.post.items() if sum(ts.values()) >= need}
    sure = whole_graph_sure_mecs(partial.post, need)
    held = _held_records(graph, kept, sure, rng)
    want = {m.key() for m in sure}
    for rec in held:
        partial.adopt_looping_record(rec)
    partial.reconcile_mecs(find_delta_sure_mecs(partial.stay_of, partial.available, partial.post, need))
    assert partial.mecs == [m for m in held if m.key() in want]
    assert partial.stay_of == {q: m for m in partial.mecs for q in m.states}


@pytest.mark.parametrize("model_file", ["random5.mdp", "cycle_entry.mdp", "two_mec.mdp", "cycle_rates.ctmdp"])
def test_looping_records_are_new_and_held_records_partition_stay_of(models_dir, monkeypatch, model_file):
    # simulate_episode runs looping only at a state without a stay, and the
    # record it confirms contains that state: no held record shares its key
    import mppac.learn_mdp as learn_mdp

    looped, adopted, reconciled = [], [], []
    original_looping = learn_mdp.looping
    adopt = PartialModel.adopt_looping_record
    reconcile = PartialModel.reconcile_mecs

    def held_records_partition_stay_of(partial):
        held = [s for m in partial.mecs for s in m.states]
        assert len(held) == len(set(held))
        assert partial.stay_of == {s: m for m in partial.mecs for s in m.states}

    def checked_looping(path, s, partial, *args):
        assert s not in partial.stay_of
        looped.append(s)
        return original_looping(path, s, partial, *args)

    def checked_adopt(partial, rec):
        assert looped[-1] in rec.states
        assert rec.key() not in {m.key() for m in partial.stay_of.values()}
        adopt(partial, rec)
        adopted.append(rec)
        held_records_partition_stay_of(partial)

    def checked_reconcile(partial, fresh):
        reconcile(partial, fresh)
        reconciled.append(fresh)
        held_records_partition_stay_of(partial)

    monkeypatch.setattr(learn_mdp, "looping", checked_looping)
    monkeypatch.setattr(PartialModel, "adopt_looping_record", checked_adopt)
    monkeypatch.setattr(PartialModel, "reconcile_mecs", checked_reconcile)
    model = load_model(models_dir / model_file)
    oracle = SampleOracle(model, BLACKBOX, rng_seed=1)
    learn = on_demand_bvi_ctmdp if model.kind == CTMDP else on_demand_bvi
    learn(oracle, LearnerConfig(seed=1, epsilon_mp=0.1, episodes_per_round=500, timeout_s=60.0))
    assert adopted and reconciled


def _memos_match_a_fresh_memo(partial):
    # every cached choice and leaving action equals what an empty memo gives
    memo, partial._choice_cache = partial._choice_cache, {}
    try:
        for s, labels in memo.items():
            _choose_action(s, partial, _FixedDraw(0.0))
            assert partial._choice_cache[s] == labels, s
    finally:
        partial._choice_cache = memo
    for m in partial.mecs:
        memo, m.leave = m.leave, None
        if memo is not None:
            assert partial.leaving_action(m) == memo, sorted(m.states)


@pytest.mark.parametrize("model_file", ["random5.mdp", "cycle_entry.mdp", "two_mec.mdp", "layered", "late-exit"])
def test_scoped_memo_clears_stay_exact(models_dir, monkeypatch, model_file):
    # adopting a looping record, refitting a record and reconciling the held
    # records clear only the memo entries of the records they adopt, refit or
    # drop, and an episode only the leaving actions of records whose pairs
    # gained a successor; a VI phase clears all. Only late-exit has a held
    # record's retained pair leave it after its leaving action was memoized.
    import mppac.learn_mdp as learn_mdp

    calls = {"adopt": 0, "refine": 0, "reconcile": 0, "vi": 0, "episode": 0}
    dropped = []
    adopt = PartialModel.adopt_looping_record
    reconcile = PartialModel.reconcile_mecs
    refine = learn_mdp.update_mec_value
    vi_phase = learn_mdp._vi_phase
    episode = learn_mdp.simulate_episode

    def checked_episode(oracle, partial, *args):
        path = episode(oracle, partial, *args)
        calls["episode"] += 1
        _memos_match_a_fresh_memo(partial)
        return path

    def checked_adopt(partial, rec):
        adopt(partial, rec)
        calls["adopt"] += 1
        _memos_match_a_fresh_memo(partial)

    def checked_refine(M, oracle, partial, *args):
        out = refine(M, oracle, partial, *args)
        calls["refine"] += 1
        _memos_match_a_fresh_memo(partial)
        return out

    def checked_reconcile(partial, fresh):
        held = list(partial.mecs)
        reconcile(partial, fresh)
        calls["reconcile"] += 1
        dropped.extend(m for m in held if m not in partial.mecs)
        _memos_match_a_fresh_memo(partial)

    def checked_vi_phase(partial):
        vi_phase(partial)
        calls["vi"] += 1
        _memos_match_a_fresh_memo(partial)

    monkeypatch.setattr(PartialModel, "adopt_looping_record", checked_adopt)
    monkeypatch.setattr(PartialModel, "reconcile_mecs", checked_reconcile)
    monkeypatch.setattr(learn_mdp, "update_mec_value", checked_refine)
    monkeypatch.setattr(learn_mdp, "_vi_phase", checked_vi_phase)
    monkeypatch.setattr(learn_mdp, "simulate_episode", checked_episode)
    style = BLACKBOX_UPDATES
    if model_file == "layered":
        # one-state sinks of the 1,001-state layered model; the gate's need
        # grows with the discovered pairs, so the round end drops some
        oracle, style = SampleOracle(layered_model(), GREYBOX, rng_seed=1), GREYBOX_UPDATES
    elif model_file == "late-exit":
        oracle = _LateExitOracle()
    else:
        oracle = SampleOracle(load_model(models_dir / model_file), BLACKBOX, rng_seed=1)
    config = LearnerConfig(seed=1, epsilon_mp=0.1, episodes_per_round=500, update_style=style, timeout_s=60.0)
    on_demand_bvi(oracle, config)
    assert all(calls.values()), calls
    if model_file == "layered":
        assert dropped


def test_adopting_a_record_clears_the_memos_of_the_records_it_drops():
    # the runs above never drop a held record, so build the case: a held
    # cycle 1-4 overlaps the adopted cycle 1-2 at state 1, and state 4 lies
    # outside the adopted record; the record on state 3 is left alone
    partial = frozen_partial(
        {(0, "a", 1): 5, (1, "loop", 4): 5, (4, "ret", 1): 5, (1, "go", 2): 5, (2, "back", 1): 5, (3, "x", 3): 5},
        rewards={0: 0.0, 1: 0.5, 2: 1.0, 3: 0.25, 4: 0.0},
    )
    # a stay with lower value 1 wins the choice wherever it is attached
    dropped = MecRecord(frozenset({1, 4}), {1: frozenset({"loop"}), 4: frozenset({"ret"})}, 1.0, 1.0)
    other = MecRecord(frozenset({3}), {3: frozenset({"x"})}, 1.0, 1.0)
    partial.adopt_looping_record(dropped)
    partial.adopt_looping_record(other)
    for s in partial.available:
        _choose_action(s, partial, _FixedDraw(0.0))
    assert partial._choice_cache[4] == (STAY,)
    partial.leaving_action(dropped)
    partial.leaving_action(other)

    adopted = MecRecord(frozenset({1, 2}), {1: frozenset({"go"}), 2: frozenset({"back"})})
    partial.adopt_looping_record(adopted)
    assert partial.mecs == [other, adopted]
    _memos_match_a_fresh_memo(partial)
    assert 3 in partial._choice_cache and other.leave is not None


# ---------------------------------------------------------------------------
# MEC sampling and gain bounds


def _cycle_partial(count=22):
    partial = frozen_partial(
        {(1, "a", 2): count, (2, "b", 1): count},
        rewards={1: 1.0, 2: 0.0},
        p_min=1.0,
    )
    return partial


def _cycle_record(**kw):
    return MecRecord(
        states=frozenset({1, 2}),
        actions={1: frozenset({"a"}), 2: frozenset({"b"})},
        **kw,
    )


def test_compute_n_samples_escalates_strictly():
    M = _cycle_record()
    for least, expected in ((0, 10_000), (9_999, 10_000), (10_000, 50_000), (60_000, 250_000)):
        partial = _cycle_partial()
        partial.post[(1, "a")] = {2: least} if least else {}
        partial.post[(2, "b")] = {1: least + 17}
        assert compute_n_samples(M, partial) == expected


def test_simulate_mec_walks_the_stated_step_count(cycle_entry):
    partial = frozen_partial(
        {(1, "a", 2): 1, (2, "b", 1): 1},
        rewards={1: 1.0, 2: 0.0},
        p_min=1.0,
    )
    oracle = SampleOracle(cycle_entry, BLACKBOX, rng_seed=0)
    M = _cycle_record()
    # two observed successors: n_samples * 2 steps in total
    assert simulate_mec(M, oracle, 5, learner_rng(0), partial, start=1, deadline=math.inf)
    assert sum(partial.post[(1, "a")].values()) + sum(partial.post[(2, "b")].values()) == 2 + 10
    assert oracle.steps_sampled == 10


def test_simulate_mec_reports_escape(random5):
    partial = frozen_partial(
        {(1, "x", 1): 1},
        rewards={1: 1.0},
        p_min=0.25,
    )
    oracle = SampleOracle(random5, BLACKBOX, rng_seed=3)
    M = MecRecord(states=frozenset({1}), actions={1: frozenset({"x"})})
    assert not simulate_mec(M, oracle, 50, learner_rng(3), partial, start=1, deadline=math.inf)
    assert 2 in partial.available  # the escape target was discovered


def test_simulate_mec_respects_a_passed_deadline(cycle_entry):
    partial = _cycle_partial(count=1)
    oracle = SampleOracle(cycle_entry, BLACKBOX, rng_seed=0)
    M = _cycle_record()
    before = copy.deepcopy(partial.post)
    assert simulate_mec(
        M, oracle, 10_000, learner_rng(0), partial, 1, deadline=time.monotonic() - 1.0
    )
    assert partial.post == before  # out of time before the first step


class _LoggingOracle(SampleOracle):
    """SampleOracle that logs every sampled step as (s, a, successor, dwell)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def sample_step(self, s, a):
        step = super().sample_step(s, a)
        self.log.append((s, a, *step))
        return step


@pytest.mark.parametrize(
    "model_file, actions, seed, stays",
    [
        ("cycle_entry.mdp", {1: "a", 2: "b"}, 0, True),
        ("cycle_rates.ctmdp", {0: "a", 1: "a"}, 0, True),  # dwell times
        ("random5.mdp", {1: "x"}, 3, False),  # escapes to an undiscovered state
    ],
)
def test_simulate_mec_records_steps_as_record_step_does(
    models_dir, model_file, actions, seed, stays
):
    # the walk keeps dwell sums in its own slots; replaying its steps through
    # the reference record_step (and discover, for an escape target) must
    # give the same observations
    model = load_model(models_dir / model_file)
    oracle = _LoggingOracle(model, BLACKBOX, rng_seed=seed)
    partial = PartialModel(model.p_min, 0.1, BLACKBOX_UPDATES, BLACKBOX, ctmdp=model.kind == CTMDP)
    for s in actions:
        partial.discover(s, oracle)
    replay = copy.deepcopy(partial)
    M = MecRecord(states=frozenset(actions), actions={s: frozenset({a}) for s, a in actions.items()})
    start = min(actions)
    assert simulate_mec(M, oracle, 50, learner_rng(seed), partial, start=start, deadline=math.inf) is stays
    assert oracle.log
    for s, a, t, dwell in oracle.log:
        record_step(replay, s, a, t, dwell)
        replay.discover(t, oracle)
    assert replay.post == partial.post
    assert replay.dwell_sum == partial.dwell_sum
    assert replay.available == partial.available


def _loop_interval_gain_vi(M, rows, rewards, delta_tp, beta, y):
    # the per-row loop that the packed-row kernel must reproduce exactly
    beta = max(beta, 1e-9)
    states = sorted(M.states)
    prepared = {}
    for sa, (n, q) in rows.items():
        w = tp_width(n, delta_tp)
        ths = tuple((t, max(0.0, f - w)) for t, f in q)
        prepared[sa] = (ths, max(0.0, 1.0 - sum(th for _, th in ths)))
    l = {s: 0.0 for s in states}
    u = {s: 0.0 for s in states}
    while True:
        newl, newu = {}, {}
        for s in states:
            best_l = best_u = 0.0
            for a in sorted(M.actions[s]):
                ths, resid = prepared[(s, a)]
                pl = pu = 0.0
                for t, th in ths:
                    pl += th * l[t]
                    pu += th * u[t]
                pl += resid * min(l[t] for t, _ in ths)
                pu += resid * max(u[t] for t, _ in ths)
                best_l, best_u = max(best_l, pl), max(best_u, pu)
            newl[s] = rewards[s] + y * best_l + (1.0 - y) * l[s]
            newu[s] = rewards[s] + y * best_u + (1.0 - y) * u[s]
        dl = [newl[s] - l[s] for s in states]
        du = [newu[s] - u[s] for s in states]
        l, u = newl, newu
        if max(dl) - min(dl) <= beta and max(du) - min(du) <= beta:
            gl = min(1.0, max(0.0, min(dl)))
            gu = min(1.0, max(0.0, max(du)))
            return gl, max(gl, gu)


@st.composite
def _mec_rows(draw):
    # a cycle 0 -> 1 -> ... -> 0 runs through every row, and each successor
    # is drawn at least 1000 times in 11000, so every lower estimate stays
    # positive at these widths: every policy is irreducible and the spans
    # converge
    k = draw(st.integers(min_value=1, max_value=4))
    actions, rows = {}, {}
    for s in range(k):
        labels = ("a", "b", "c")[: draw(st.integers(min_value=1, max_value=3))]
        actions[s] = frozenset(labels)
        for a in labels:
            succ = {(s + 1) % k} | set(draw(st.lists(st.integers(0, k - 1), max_size=2)))
            counts = {t: draw(st.integers(min_value=1000, max_value=5000)) for t in sorted(succ)}
            n = sum(counts.values())
            rows[(s, a)] = (n, tuple((t, c / n) for t, c in counts.items()))
    rewards = {s: draw(st.floats(min_value=0.0, max_value=1.0)) for s in range(k)}
    M = MecRecord(states=frozenset(range(k)), actions=actions)
    delta_tp = draw(st.sampled_from((1.0, 0.05)))
    beta = draw(st.sampled_from((1e-3, 1e-6)))
    return M, rows, rewards, delta_tp, beta


@given(_mec_rows())
def test_interval_gain_vi_equals_the_per_row_loop_exactly(case):
    assert _interval_gain_vi(*case) == _loop_interval_gain_vi(*case, 0.95)


def test_mec_value_iteration_self_loop_is_exact():
    partial = frozen_partial({(1, "loop", 1): 5}, rewards={1: 1.0}, p_min=1.0)
    M = MecRecord(states=frozenset({1}), actions={1: frozenset({"loop"})})
    gl, gu = mec_value_iteration(M, partial, delta_tp=0.05, beta=1e-6)
    assert gl == pytest.approx(1.0, abs=1e-5)
    assert gu == pytest.approx(1.0, abs=1e-5)


def test_mec_value_iteration_two_cycle_bounds():
    # deterministic rows are width-immune, so the interval collapses onto
    # the true gain regardless of the tiny counts
    partial = _cycle_partial(count=3)
    gl, gu = mec_value_iteration(_cycle_record(), partial, 0.05, beta=1e-5)
    assert gl == pytest.approx(0.5, abs=1e-4)
    assert gu == pytest.approx(0.5, abs=1e-4)
    assert gl <= gu


def test_mec_value_iteration_matches_whitebox_at_zero_width(random5):
    # random5's MEC {3, 4} at its exact frequencies, against the closed form
    # 1/3 * 0.25 + 2/3 * 0.75 = 7/12 (stationary 1/3 on state 3)
    from mppac import mec_decomposition

    from .reference import model_graph

    mecs = mec_decomposition(model_graph(random5))
    target = next(m for m in mecs if m.states == frozenset({3, 4}))
    partial = frozen_partial(
        {(3, "x", 4): 1000, (4, "x", 3): 500, (4, "x", 4): 500},
        rewards={3: 0.25, 4: 0.75},
        p_min=0.25,
    )
    partial.r_max_seen = 1.0  # match the model-wide maximum
    gl, gu = mec_value_iteration(target, partial, delta_tp=1.0, beta=1e-6)
    assert gl - 1e-12 <= 7 / 12 <= gu + 1e-12
    assert gu - gl <= 1e-6


def test_mec_value_iteration_interval_widens_with_width():
    # stochastic rows at low counts must produce a strictly wider interval
    # than the same rows at high counts
    def bounds(count):
        partial = frozen_partial(
            {(3, "x", 4): count, (4, "x", 3): count // 2, (4, "x", 4): count - count // 2},
            rewards={3: 0.25, 4: 0.75},
            p_min=0.25,
        )
        partial.r_max_seen = 1.0
        M = MecRecord(
            states=frozenset({3, 4}),
            actions={3: frozenset({"x"}), 4: frozenset({"x"})},
        )
        return mec_value_iteration(M, partial, delta_tp=1e-4, beta=1e-6)

    small = bounds(40)
    big = bounds(40_000)
    assert small[1] - small[0] > big[1] - big[0]
    assert small[0] <= 7 / 12 <= small[1]


def test_mec_value_iteration_stops_on_a_multichain_interval_game(monkeypatch):
    # the Hoeffding width (0.048) floors state 1's 3% exit to 0, so the lower
    # game traps state 1 at gain 0.5 while state 0 keeps gain 1: the lower
    # span stays at 0.5 and never drops below beta. The call must still
    # return, within the sweep cap, with bounds around the EC's gain 1 (state
    # 0's b self-loop)
    import mppac.learn_mdp as learn_mdp

    bounds = learn_mdp._Rows.bounds
    sweeps = 0

    def counted(self, L, U):
        nonlocal sweeps
        sweeps += 1
        if sweeps > learn_mdp.GAIN_VI_MAX_SWEEPS:
            raise AssertionError("interval gain VI swept past its cap")
        return bounds(self, L, U)

    monkeypatch.setattr(learn_mdp._Rows, "bounds", counted)
    partial = frozen_partial(
        {(0, "a", 1): 500, (0, "b", 0): 500, (1, "a", 1): 1940, (1, "a", 0): 60},
        rewards={0: 1.0, 1: 0.5},
        p_min=0.03,
    )
    M = MecRecord(states=frozenset({0, 1}), actions={0: frozenset({"a", "b"}), 1: frozenset({"a"})})
    gl, gu = mec_value_iteration(M, partial, delta_tp=1e-4, beta=0.01)
    assert sweeps == learn_mdp.GAIN_VI_MAX_SWEEPS
    assert gl <= 1.0 <= gu


def test_update_mec_value_converges_on_the_cycle(cycle_entry, monkeypatch):
    import mppac.learn_mdp as learn_mdp

    monkeypatch.setattr(learn_mdp, "INITIAL_MEC_SAMPLES", 1000)
    partial = _cycle_partial()
    M = _cycle_record()
    partial.adopt_looping_record(M)
    oracle = SampleOracle(cycle_entry, BLACKBOX, rng_seed=1)
    rng = learner_rng(1)
    config = LearnerConfig()
    for _ in range(12):
        out = update_mec_value(M, oracle, partial, config, rng, start=1, deadline=math.inf)
        assert out is not None
        if M.gain_upper - M.gain_lower < 0.01:
            break
    assert M.gain_lower <= 0.5 <= M.gain_upper
    assert M.gain_upper - M.gain_lower < 0.01


def test_update_mec_value_skips_sampling_below_target_width(cycle_entry):
    partial = _cycle_partial()
    M = _cycle_record(gain_lower=0.499, gain_upper=0.501)
    partial.adopt_looping_record(M)
    oracle = SampleOracle(cycle_entry, BLACKBOX, rng_seed=1)
    before = copy.deepcopy(partial.post)
    out = update_mec_value(M, oracle, partial, LearnerConfig(), learner_rng(1), start=1, deadline=math.inf)
    assert out is not None
    assert partial.post == before  # tight enough: no walk was spent
    assert oracle.steps_sampled == 0


def test_update_mec_value_drops_record_on_escape(random5):
    # the record wrongly believes (1, 'y') stays inside {1, 2}; the fabricated
    # counts are small enough that value iteration cannot close the gap, so
    # the refinement walk runs, plays 'y', lands in state 0, and the record
    # is exposed as stale
    partial = frozen_partial(
        {
            (1, "x", 1): 1,
            (1, "x", 2): 3,
            (1, "y", 1): 2,
            (1, "y", 2): 2,
            (2, "x", 1): 4,
        },
        rewards={1: 1.0, 2: 0.0},
        p_min=0.25,
    )
    M = MecRecord(
        states=frozenset({1, 2}),
        actions={1: frozenset({"x", "y"}), 2: frozenset({"x"})},
    )
    partial.adopt_looping_record(M)
    oracle = SampleOracle(random5, BLACKBOX, rng_seed=5)
    out = update_mec_value(M, oracle, partial, LearnerConfig(), learner_rng(5), start=1, deadline=math.inf)
    assert out is None
    assert M not in partial.mecs
    assert partial.stay_of.get(1) is None
    assert 0 in partial.available  # the walk discovered the true successor


def test_update_mec_value_drops_a_record_whose_pair_was_seen_leaving(cycle_entry):
    # an episode since the record was confirmed saw its retained pair (0, 'a')
    # reach state 2 outside M: the record is stale before any walk
    partial = frozen_partial(
        {(0, "a", 1): 30, (0, "a", 2): 1, (1, "b", 0): 30},
        rewards={0: 1.0, 1: 0.0},
        p_min=0.25,
    )
    M = MecRecord(
        states=frozenset({0, 1}),
        actions={0: frozenset({"a"}), 1: frozenset({"b"})},
    )
    partial.adopt_looping_record(M)
    oracle = SampleOracle(cycle_entry, BLACKBOX, rng_seed=0)
    out = update_mec_value(M, oracle, partial, LearnerConfig(), learner_rng(0), start=0, deadline=math.inf)
    assert out is None
    assert M not in partial.mecs
    assert partial.stay_of.get(0) is None
    assert oracle.steps_sampled == 0  # dropped without a walk


# ---------------------------------------------------------------------------
# deflation


def test_deflate_clamps_to_best_leaving_upper():
    partial = frozen_partial(
        {(1, "a", 2): 30, (2, "b", 1): 30, (1, "out", 5): 10},
        rewards={1: 0.0, 2: 0.0},
        p_min=0.1,
    )
    partial.U[1] = partial.U[2] = 1.0
    partial.act_U[(1, "out")] = 0.7
    partial.act_L[(1, "out")] = 0.1
    M = MecRecord(
        states=frozenset({1, 2}),
        actions={1: frozenset({"a"}), 2: frozenset({"b"})},
        gain_lower=0.0,
        gain_upper=0.4,
    )
    partial.adopt_looping_record(M)
    moved = deflate(M, partial)
    assert moved == pytest.approx(0.3)
    assert partial.U[1] == pytest.approx(0.7)
    assert partial.U[2] == pytest.approx(0.7)


def test_deflate_never_raises_values():
    partial = frozen_partial(
        {(1, "a", 1): 30, (1, "out", 5): 10},
        rewards={1: 0.0},
        p_min=0.1,
    )
    partial.U[1] = 0.5
    partial.act_U[(1, "out")] = 0.9
    M = MecRecord(states=frozenset({1}), actions={1: frozenset({"a"})})
    partial.adopt_looping_record(M)
    assert deflate(M, partial) == 0.0
    assert partial.U[1] == 0.5


def test_deflate_closed_mec_uses_the_stay_gain():
    partial = frozen_partial({(1, "a", 1): 30}, rewards={1: 0.3}, p_min=0.1)
    partial.U[1] = 1.0
    M = MecRecord(
        states=frozenset({1}),
        actions={1: frozenset({"a"})},
        gain_lower=0.3,
        gain_upper=0.3,
    )
    partial.adopt_looping_record(M)
    moved = deflate(M, partial)
    assert moved == pytest.approx(0.7)
    assert partial.U[1] == pytest.approx(0.3)


def test_deflate_without_stay_or_exit_is_a_no_op():
    partial = frozen_partial({(1, "a", 1): 30}, rewards={1: 0.3}, p_min=0.1)
    partial.U[1] = 1.0
    M = MecRecord(states=frozenset({1}), actions={1: frozenset({"a"})})
    assert deflate(M, partial) == 0.0
    assert partial.U[1] == 1.0


# ---------------------------------------------------------------------------
# action choice


def test_choose_action_is_greedy_on_upper_then_lower():
    partial = frozen_partial(
        {(0, "a", 1): 5, (0, "b", 2): 5, (0, "c", 3): 5},
        rewards={0: 0.0},
    )
    partial.act_U.update({(0, "a"): 0.9, (0, "b"): 0.9, (0, "c"): 0.4})
    partial.act_L.update({(0, "a"): 0.2, (0, "b"): 0.5, (0, "c"): 0.4})
    partial.invalidate_choices()
    assert _choose_action(0, partial, learner_rng(0)) == "b"


def test_choose_action_ties_resolve_by_seeded_draw():
    partial = frozen_partial(
        {(0, "a", 1): 5, (0, "b", 2): 5},
        rewards={0: 0.0},
    )
    # both candidates tie on (upper, lower): the seeded stream decides
    seen = {_choose_action(0, partial, learner_rng(s)) for s in range(20)}
    assert seen == {"a", "b"}
    again = [_choose_action(0, partial, learner_rng(4)) for _ in range(3)]
    assert len(set(again)) == 1  # same seed, same choice


def test_choose_action_cache_tracks_value_changes():
    partial = frozen_partial(
        {(0, "a", 1): 5, (0, "b", 2): 5},
        rewards={0: 0.0},
    )
    partial.act_U[(0, "a")] = 1.0
    partial.act_U[(0, "b")] = 0.2
    partial.invalidate_choices()
    rng = learner_rng(0)
    assert _choose_action(0, partial, rng) == "a"
    partial.act_U[(0, "a")] = 0.1
    partial.invalidate_choices()
    assert _choose_action(0, partial, rng) == "b"


def test_stay_participates_in_the_choice():
    partial = frozen_partial({(0, "a", 1): 5}, rewards={0: 0.0})
    partial.act_U[(0, "a")] = 0.2
    rec = MecRecord(
        states=frozenset({0}),
        actions={0: frozenset({"a"})},
        gain_lower=0.8,
        gain_upper=0.9,
    )
    partial.adopt_looping_record(rec)
    assert _choose_action(0, partial, learner_rng(0)) == STAY


# ---------------------------------------------------------------------------
# episodes and the full loop


def test_simulate_episode_terminates_and_attaches_stay(two_mec):
    oracle = SampleOracle(two_mec, BLACKBOX, rng_seed=2)
    partial = frozen_partial({}, rewards={}, p_min=1.0)
    rng = learner_rng(2)
    for _ in range(10):
        path = simulate_episode(oracle, partial, rng, math.inf)
        assert path[0] == 0
        assert path[-1] in TERMINALS
    assert partial.stay_of  # some absorbing state earned its stay action


def _leaving_partial():
    """State 0 holds a stay record of gain [0.2, 0.3] whose retained action
    x loops; the greedy action y (upper 0.8) has so far only been seen to
    loop too. State 1 holds a stay record of gain [0.9, 0.95]."""
    partial = frozen_partial(
        {(0, "x", 0): 50, (0, "y", 0): 2, (1, "z", 1): 50},
        rewards={0: 0.0, 1: 0.0},
        p_min=1.0,
    )
    partial.act_U.update({(0, "x"): 0.1, (0, "y"): 0.8, (1, "z"): 0.5})
    partial.adopt_looping_record(
        MecRecord(states=frozenset({0}), actions={0: frozenset({"x"})}, gain_lower=0.2, gain_upper=0.3)
    )
    partial.adopt_looping_record(
        MecRecord(states=frozenset({1}), actions={1: frozenset({"z"})}, gain_lower=0.9, gain_upper=0.95)
    )
    return partial


class _ScriptedOracle:
    """Blackbox MDP oracle that replays a fixed successor list per pair."""

    kind = MDP
    info_level = BLACKBOX
    p_min = 1.0
    init = 0

    def __init__(self, actions, script):
        self._actions = actions
        self._script = {sa: list(ts) for sa, ts in script.items()}
        self.steps_sampled = 0

    def available_actions(self, s):
        return self._actions[s]

    def reward(self, s):
        return 0.0

    def sample_step(self, s, a):
        self.steps_sampled += 1
        return self._script[(s, a)].pop(0), None


def test_episode_leaves_by_an_action_seen_leaving_in_the_same_round():
    # The first episode loops on y until the sixth visit of 0, where nothing
    # leaves the record, so it stays. The second sees y reach the new state
    # 2 before that visit: y now leaves, and beats the stay.
    oracle = _ScriptedOracle(
        {0: ("x", "y"), 1: ("z",), 2: ("back",)},
        {(0, "y"): [0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1], (2, "back"): [0]},
    )
    partial = _leaving_partial()
    rng = learner_rng(0)
    first = simulate_episode(oracle, partial, rng, math.inf)
    assert first[:-1] == [0] * 6 and first[-1] in TERMINALS
    second = simulate_episode(oracle, partial, rng, math.inf)
    assert second[:-1] == [0, 2, 0, 0, 0, 0, 0, 1]
    assert second[-1] in TERMINALS


def test_a_new_successor_forgets_only_its_own_records_leaving_action():
    # y at state 0 reaches state 1 for the first time: the record on 0 may
    # now leave by y, while the record on 1 reads none of state 0's pairs
    oracle = _ScriptedOracle({0: ("x", "y"), 1: ("z",)}, {(0, "y"): [1]})
    partial = _leaving_partial()
    at_0, at_1 = partial.mecs
    assert partial.leaving_action(at_0) == (0, STAY)
    assert partial.leaving_action(at_1) == (1, STAY)
    path = simulate_episode(oracle, partial, learner_rng(0), math.inf)
    assert path[:-1] == [0, 1] and path[-1] in TERMINALS
    assert at_0.leave is None
    assert at_1.leave == (1, STAY)
    assert partial.leaving_action(at_0) == (0, "y")


class _CycleOracle(_ScriptedOracle):
    """Blackbox MDP oracle of the deterministic cycle 0 -> 1 -> 0."""

    def __init__(self):
        super().__init__({0: ("a",), 1: ("a",)}, {})

    def sample_step(self, s, a):
        self.steps_sampled += 1
        return 1 - s, None


class _LateExitOracle(_ScriptedOracle):
    """Blackbox MDP oracle whose state 0 loops by a for its first LOOPS
    steps and then moves to the sink 2. At p_min 1 the gate confirms the
    loop on 0 at its first check, the second episode memoizes that record's
    leaving action (its stay), and the third sees its retained pair reach 2
    and then ends in a stay on 2, with the record on 0 still held."""

    LOOPS = 10

    def __init__(self):
        super().__init__({0: ("a",), 2: ("c",)}, {})

    def sample_step(self, s, a):
        self.steps_sampled += 1
        return 0 if s == 0 and self.steps_sampled <= self.LOOPS else 2, None


def test_an_endless_episode_stops_at_its_deadline():
    # at this p_min no pair meets the sure-EC gate, so the loop check never
    # confirms the cycle and only the deadline, read every 64th step, ends it
    partial = frozen_partial({}, rewards={}, p_min=1e-12)
    deadline = time.monotonic() + 0.02
    path = simulate_episode(_CycleOracle(), partial, learner_rng(0), deadline)
    assert time.monotonic() - deadline < 0.05
    assert path[-1] not in TERMINALS
    assert len(path) > 64


def test_a_round_cut_in_its_first_episode_counts_no_episode():
    # no loop is ever confirmed at this p_min, so the deadline cuts the first
    # episode; the cut episode is not counted, and its round still ends with
    # a VI phase and a trace row
    oracle = _CycleOracle()
    oracle.p_min = 1e-12
    report = on_demand_bvi(oracle, LearnerConfig(timeout_s=0.05))
    assert report.timed_out
    assert report.episodes == 0
    assert report.rounds == len(report.trace) == 1


@pytest.mark.parametrize(
    "field, value", [("update_style", GREYBOX), ("precision_mode", "Relative"), ("timeout_s", math.nan)]
)
def test_learner_config_rejects_unknown_settings(field, value):
    # "greybox" is the oracle's information level, not an update style
    with pytest.raises(ValueError, match=field):
        LearnerConfig(**{field: value})


def test_on_demand_bvi_two_mec_converges(two_mec):
    oracle = SampleOracle(two_mec, BLACKBOX, rng_seed=1)
    report = on_demand_bvi(oracle, LearnerConfig(seed=1, episodes_per_round=500))
    low, up = report.final
    assert low <= 1.0 <= up
    assert report.width < 0.02
    assert not report.timed_out
    assert report.certified_inconfidence == pytest.approx(0.1)
    assert report.episodes > 0 and report.rounds > 0


@pytest.mark.parametrize("name", ["two_mec.mdp", "cycle_rates.ctmdp"])
def test_report_counts_the_oracle_steps_of_its_run(models_dir, name):
    # a step sampled before the run is the oracle's, not the run's
    model = load_model(models_dir / name)
    oracle = SampleOracle(model, BLACKBOX, rng_seed=3)
    oracle.sample_step(model.init, model.actions[model.init][0])
    learn = on_demand_bvi_ctmdp if model.kind == CTMDP else on_demand_bvi
    report = learn(oracle, LearnerConfig(seed=3, epsilon_mp=0.05, episodes_per_round=500))
    assert report.oracle_steps == oracle.steps_sampled - 1 > 0


def test_covers_misses_only_a_disjoint_bracket():
    # the learner's two_mec interval touches the bracket (1, 1) at its upper end
    report = BoundsReport(
        trace=[], final=(0.9807858569786464, 1.0), certified_inconfidence=0.1, r_max_seen=1.0, episodes=1,
        oracle_steps=1, wall_seconds=0.0, timed_out=False,
    )
    assert report.covers((1.0, 1.0))
    assert report.covers((0.5, 0.9807858569786464))
    assert report.covers((0.99, 0.995)) and report.covers((0.0, 2.0))
    above = math.nextafter(1.0, 2.0)
    below = math.nextafter(0.9807858569786464, 0.0)
    assert not report.covers((above, above))
    assert not report.covers((0.5, below))
    # a point interval at the value meets, but does not contain, a bracket
    # that reaches below it: the first random_mdp_model draw of seed 0 has
    # value 0.7 and bracket (0.69999999937..., 0.7)
    point = dataclasses.replace(report, final=(0.7, 0.7))
    assert point.covers((0.6999999993701728, 0.7))


def test_capped_vi_phases_still_bracket_the_value(random5, monkeypatch):
    # each phase restarts from L = 0 and U = 1, so two sweeps leave the
    # entry's interval too wide to close: the run ends at its deadline, and
    # its interval still contains the closed form 7/12
    import mppac.learn_mdp as learn_mdp

    monkeypatch.setattr(learn_mdp, "VI_MAX_SWEEPS", 2)
    oracle = SampleOracle(random5, BLACKBOX, rng_seed=1)
    report = on_demand_bvi(oracle, LearnerConfig(seed=1, epsilon_mp=0.05, episodes_per_round=500, timeout_s=1.0))
    low, up = report.final
    assert report.timed_out
    assert low <= 7 / 12 <= up


def test_trace_rows_are_sound_and_ordered(two_mec):
    oracle = SampleOracle(two_mec, BLACKBOX, rng_seed=3)
    report = on_demand_bvi(oracle, LearnerConfig(seed=3, episodes_per_round=300))
    times = [row[0] for row in report.trace]
    episodes = [row[1] for row in report.trace]
    assert times == sorted(times)
    assert episodes == sorted(episodes)
    for _, _, low, up in report.trace:
        assert 0.0 <= low <= up <= 1.0


def test_learner_is_deterministic_per_seed(two_mec):
    def run():
        oracle = SampleOracle(two_mec, BLACKBOX, rng_seed=7)
        return on_demand_bvi(oracle, LearnerConfig(seed=7, episodes_per_round=400))

    a, b = run(), run()
    assert a.trace == b.trace
    assert a.final == b.final
    assert a.episodes == b.episodes


def test_greybox_oracle_run_with_greybox_equations(two_mec):
    oracle = SampleOracle(two_mec, GREYBOX, rng_seed=1)
    report = on_demand_bvi(
        oracle,
        LearnerConfig(seed=1, episodes_per_round=500, update_style=GREYBOX_UPDATES),
    )
    low, up = report.final
    assert low <= 1.0 <= up
    assert report.width < 0.02
    # full greybox knowledge carries no surcharge
    assert report.certified_inconfidence == pytest.approx(0.1)


def test_grey_updates_on_blackbox_data_report_a_surcharge(random5):
    # p_min < 1, so a sampled pair's support is never certainly complete
    oracle = SampleOracle(random5, BLACKBOX, rng_seed=1)
    report = on_demand_bvi(
        oracle,
        LearnerConfig(
            seed=1,
            episodes_per_round=200,
            update_style=GREYBOX_UPDATES,
            anytime=True,
            timeout_s=1.0,
        ),
    )
    assert report.certified_inconfidence > 0.1
    assert report.certified_inconfidence <= 1.0


def test_anytime_run_times_out_cleanly(random5):
    oracle = SampleOracle(random5, BLACKBOX, rng_seed=0)
    report = on_demand_bvi(
        oracle,
        LearnerConfig(seed=0, anytime=True, timeout_s=0.5, episodes_per_round=200),
    )
    assert report.timed_out
    assert report.trace  # at least one round boundary was recorded
    low, up = report.final
    assert 0.0 <= low <= up <= report.r_max_seen + 1e-9


@pytest.mark.parametrize("mode", ["relative", "absolute"])
def test_precision_mode_widths_in_reward_units(mode):
    # On random5 with rewards x3 (r_max 3), the default "relative" mode ends
    # narrower than 2ε in reward units, while "absolute" ends narrower than
    # 2ε·r_max only: "absolute" bounds a width relative to r_max, the naming
    # defect of ROADMAP item 4, which changes this test on purpose.
    oracle = SampleOracle(random5_x3(), BLACKBOX, rng_seed=0)
    config = LearnerConfig(seed=0, epsilon_mp=0.15, episodes_per_round=1000, precision_mode=mode)
    report = on_demand_bvi(oracle, config)
    assert not report.timed_out
    assert report.r_max_seen == 3.0
    low, up = report.final
    assert up - low < 2 * config.epsilon_mp * (report.r_max_seen if mode == "absolute" else 1.0)
