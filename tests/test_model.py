"""Model parsing, validation, and the seeded sampling oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mppac import (
    BLACKBOX,
    CTMDP,
    GREYBOX,
    MDP,
    CapabilityError,
    ExplicitModel,
    ModelError,
    SampleOracle,
    learner_rng,
    load_model,
    oracle_rng,
    parse_model,
)
from mppac.model import UNIFORM_BLOCK

from .reference import embedded_mdp

# ---------------------------------------------------------------------------
# parsing


def test_parse_reads_all_directives(two_mec):
    assert two_mec.kind == MDP
    assert two_mec.state_count == 3
    assert two_mec.init == 0
    assert two_mec.p_min == 1.0
    assert two_mec.actions[0] == ("a", "b")
    assert two_mec.rows[(0, "a")] == {1: 1.0}
    assert two_mec.reward == (0.0, 1.0, 0.0)
    assert two_mec.r_max == 1.0


def test_parse_ctmdp_rows_hold_rates(cycle_rates):
    assert cycle_rates.kind == CTMDP
    assert cycle_rates.rows[(0, "a")] == {1: 2.0}
    assert cycle_rates.exit_rate(0, "a") == pytest.approx(2.0)
    assert cycle_rates.exit_rate(1, "a") == pytest.approx(1.0)


def test_parse_ignores_comments_and_blank_lines():
    m = parse_model(
        """
        # leading comment
        mdp
        states 1
        init 0   # trailing comment
        pmin 1.0

        t 0 loop 0 1.0
        """
    )
    assert m.state_count == 1
    assert m.rows[(0, "loop")] == {0: 1.0}


def test_parse_preserves_action_declaration_order():
    m = parse_model(
        "mdp\nstates 1\ninit 0\npmin 0.5\n"
        "t 0 zz 0 1.0\n"
        "t 0 aa 0 1.0\n"
    )
    assert m.actions[0] == ("zz", "aa")


@pytest.mark.parametrize(
    "text, lineno, fragment",
    [
        ("bogus\n", 1, "header"),
        ("mdp\nstates 2\nstates 2\n", 3, "duplicate 'states'"),
        ("mdp\nreward 0 1.0\n", 2, "'states' must come before"),
        ("mdp\nstates 2\ninit 0\npmin 0.5\nt 0 a 5 1.0\n", 5, "target state 5 out of range"),
        ("mdp\nstates 2\ninit 0\npmin 0.5\nt 0 a 1 0.5\nt 0 a 1 0.5\n", 6, "duplicate transition"),
        ("mdp\nstates x\n", 2, "expected integer"),
        ("mdp\nstates 2\ninit 0\npmin 0.5\nfrob 1\n", 5, "unknown directive"),
        ("mdp\nstates 1\ninit 0\npmin 0.5\nreward 0 1\nreward 0 2\nt 0 a 0 1\n", 6, "duplicate reward"),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(ModelError) as err:
        parse_model(text)
    assert f"line {lineno}:" in str(err.value)
    assert fragment in str(err.value)


def test_parse_missing_directive_is_an_error():
    with pytest.raises(ModelError, match="missing 'pmin'"):
        parse_model("mdp\nstates 1\ninit 0\nt 0 a 0 1.0\n")
    with pytest.raises(ModelError, match="header"):
        parse_model("# nothing\n")


# ---------------------------------------------------------------------------
# validation


def _tiny(rows, pmin=0.5, kind=MDP, actions=(("a",),), rewards=(1.0,), n=1):
    return ExplicitModel(
        kind=kind,
        state_count=n,
        init=0,
        p_min=pmin,
        actions=actions,
        rows=rows,
        reward=rewards,
    )


def test_validate_rejects_bad_row_sum():
    with pytest.raises(ModelError, match="row sum"):
        _tiny({(0, "a"): {0: 0.9}})


def test_validate_rejects_entry_below_pmin():
    with pytest.raises(ModelError, match="pmin"):
        _tiny(
            {(0, "a"): {0: 0.3, 1: 0.7}, (1, "a"): {1: 1.0}},
            pmin=0.5,
            actions=(("a",), ("a",)),
            rewards=(1.0, 0.0),
            n=2,
        )


def test_validate_rejects_zero_rate_row():
    with pytest.raises(ModelError, match="zero total rate"):
        _tiny({(0, "a"): {}}, kind=CTMDP)


def test_validate_rejects_dangling_target():
    with pytest.raises(ModelError, match="dangling state index"):
        _tiny({(0, "a"): {0: 0.5, 3: 0.5}})


def test_validate_rejects_actionless_state():
    with pytest.raises(ModelError, match="no actions"):
        _tiny({}, actions=((),))


def test_validate_rejects_row_table_mismatch():
    with pytest.raises(ModelError, match="disagree"):
        _tiny({(0, "b"): {0: 1.0}})


def test_validate_rejects_negative_reward():
    with pytest.raises(ModelError, match="negative reward"):
        _tiny({(0, "a"): {0: 1.0}}, rewards=(-1.0,))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("mdp\nstates 1\ninit 0\npmin 1\nreward 0 inf\nt 0 a 0 1.0\n", "non-finite reward inf at state 0"),
        ("mdp\nstates 1\ninit 0\npmin 1\nreward 0 nan\nt 0 a 0 1.0\n", "non-finite reward nan at state 0"),
        ("ctmdp\nstates 1\ninit 0\npmin 1\nt 0 a 0 inf\n", "non-finite entry inf at (0,a)"),
        ("mdp\nstates 1\ninit 0\npmin 1\nt 0 a 0 nan\n", "non-finite entry nan at (0,a)"),
    ],
    ids=["reward-inf", "reward-nan", "rate-inf", "probability-nan"],
)
def test_validate_names_a_non_finite_reward_or_entry(text, fragment):
    with pytest.raises(ModelError) as err:
        parse_model(text)
    assert fragment in str(err.value)


def test_successors_are_sorted(random5):
    assert random5.successors(0, "a") == (1, 3)
    assert random5.successors(1, "x") == (1, 2)


# ---------------------------------------------------------------------------
# embedded chain


def test_embedded_mdp_normalizes_rates(cycle_rates):
    emb = embedded_mdp(cycle_rates)
    assert emb.kind == MDP
    assert emb.rows[(0, "a")] == {1: 1.0}
    assert emb.reward == cycle_rates.reward


def test_embedded_mdp_rejects_mdp(two_mec):
    with pytest.raises(ModelError):
        embedded_mdp(two_mec)


def test_embedded_mdp_splits_mass_proportionally():
    m = _tiny(
        {(0, "a"): {0: 1.0, 1: 3.0}, (1, "a"): {1: 2.0}},
        kind=CTMDP,
        pmin=0.25,
        actions=(("a",), ("a",)),
        rewards=(0.0, 1.0),
        n=2,
    )
    emb = embedded_mdp(m)
    assert emb.rows[(0, "a")] == pytest.approx({0: 0.25, 1: 0.75})


# ---------------------------------------------------------------------------
# oracles


def test_oracle_exposes_interface_not_probabilities(two_mec):
    oracle = SampleOracle(two_mec, BLACKBOX, rng_seed=3)
    assert oracle.kind == MDP
    assert oracle.init == 0
    assert oracle.p_min == 1.0
    assert oracle.available_actions(0) == ("a", "b")
    assert oracle.reward(1) == 1.0
    assert not hasattr(oracle, "rows")


def test_blackbox_oracle_hides_successor_counts(two_mec):
    oracle = SampleOracle(two_mec, BLACKBOX)
    with pytest.raises(CapabilityError):
        oracle.successor_count(0, "a")


def test_greybox_oracle_reveals_successor_counts(random5):
    oracle = SampleOracle(random5, GREYBOX)
    assert oracle.successor_count(0, "a") == 2
    assert oracle.successor_count(2, "x") == 1


def test_oracle_rejects_unknown_action(two_mec):
    oracle = SampleOracle(two_mec, BLACKBOX)
    with pytest.raises(ValueError, match="unknown action"):
        oracle.sample_step(0, "zz")
    oracle = SampleOracle(two_mec, GREYBOX)
    with pytest.raises(ValueError, match="unknown action"):
        oracle.successor_count(0, "zz")


def test_oracle_counts_sampled_steps(two_mec):
    oracle = SampleOracle(two_mec, BLACKBOX)
    assert oracle.steps_sampled == 0
    for _ in range(5):
        oracle.sample_step(0, "a")
    assert oracle.steps_sampled == 5


def test_mdp_steps_have_no_dwell(two_mec):
    step = SampleOracle(two_mec, BLACKBOX).sample_step(0, "a")
    assert type(step) is tuple
    t, dwell = step
    assert t == 1
    assert dwell is None


def test_ctmdp_steps_carry_positive_dwell(cycle_rates):
    oracle = SampleOracle(cycle_rates, BLACKBOX, rng_seed=1)
    for _ in range(10):
        step = oracle.sample_step(0, "a")
        assert type(step) is tuple
        t, dwell = step
        assert t == 1
        assert dwell is not None and dwell > 0.0


def test_oracle_replay_is_deterministic(random5):
    a = SampleOracle(random5, BLACKBOX, rng_seed=42)
    b = SampleOracle(random5, BLACKBOX, rng_seed=42)
    seq = [(1, "x"), (0, "a"), (1, "x"), (4, "x"), (1, "y"), (0, "b")] * 50
    assert [a.sample_step(*q) for q in seq] == [b.sample_step(*q) for q in seq]


def test_ctmdp_replay_is_deterministic(cycle_rates):
    a = SampleOracle(cycle_rates, BLACKBOX, rng_seed=9)
    b = SampleOracle(cycle_rates, BLACKBOX, rng_seed=9)
    for _ in range(100):
        sa = a.sample_step(0, "a")
        sb = b.sample_step(0, "a")
        assert sa == sb


def test_sampled_frequencies_approach_the_row(random5):
    oracle = SampleOracle(random5, BLACKBOX, rng_seed=7)
    n = 2000
    hits = sum(t == 2 for t, _ in (oracle.sample_step(1, "x") for _ in range(n)))
    assert hits / n == pytest.approx(0.75, abs=0.05)


def test_sampled_dwell_matches_exit_rate(cycle_rates):
    oracle = SampleOracle(cycle_rates, BLACKBOX, rng_seed=11)
    n = 3000
    total = sum(dwell for _, dwell in (oracle.sample_step(0, "a") for _ in range(n)))
    assert total / n == pytest.approx(0.5, rel=0.1)  # Exponential(2) mean


def test_steps_follow_the_scalar_oracle_stream(random5, cycle_rates):
    # the oracle draws its uniforms in blocks; past a block boundary, each
    # step must still use the next scalar draws of oracle_rng: one for the
    # successor (inverse transform on the row), one more for a dwell
    n = 2 * UNIFORM_BLOCK + 3
    u = oracle_rng(4)
    oracle = SampleOracle(random5, BLACKBOX, rng_seed=4)
    for _ in range(n):
        t, _ = oracle.sample_step(1, "x")
        assert t == (1 if u.random() < 0.25 else 2)
    u = oracle_rng(4)
    oracle = SampleOracle(cycle_rates, BLACKBOX, rng_seed=4)
    for _ in range(n):
        u.random()  # the single successor still consumes its uniform
        assert oracle.sample_step(0, "a") == (1, -math.log1p(-u.random()) / 2.0)


def test_learner_draws_follow_the_scalar_learner_stream():
    # the learner stream draws its uniforms in blocks as well; past a block
    # boundary, each random() must still be the next scalar draw of its
    # Philox key (seed, 1)
    n = 2 * UNIFORM_BLOCK + 3
    scalar = np.random.Generator(np.random.Philox(np.random.SeedSequence([4, 1])))
    rng = learner_rng(4)
    assert [rng.random() for _ in range(n)] == [scalar.random() for _ in range(n)]


def test_learner_and_oracle_streams_are_independent():
    a = oracle_rng(5)
    b = learner_rng(5)
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_seeded_streams_are_reproducible():
    assert oracle_rng(17).random() == oracle_rng(17).random()
    assert learner_rng(17).random() == learner_rng(17).random()
    assert np.isfinite(oracle_rng(0).random())
