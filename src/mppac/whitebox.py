"""Reference solver for fully known models.

The learner's value-iteration kernel run on exact rows: MEC decomposition,
a certified gain bracket per MEC by interval gain value iteration, then
interval value iteration with those brackets as stays and deflation. Exact
rows lose no width, and the bounds hold at every sweep, so the result is a
bracket that contains the maximum mean payoff up to floating-point rounding.
``mppac solve-whitebox`` prints it, and the CLI, the scripts and the tests
check the learners against it. Nothing here ever samples.
"""

from __future__ import annotations

from .graph import MecRecord, mec_decomposition
from .learn_ctmdp import uniformize
from .learn_mdp import _Estimates, _fixpoint, _interval_gain_vi
from .model import CTMDP, ExplicitModel

BETA = 1e-6  # oracle tolerance: only bench/run.py's containment gate and ladder check read it
GAIN_BETA = 1e-9  # span at which each MEC's gain value iteration stops
TOL = 1e-15  # the reachability fixpoint stops once no value moves more than this


def _exact_rows(model: ExplicitModel, pairs) -> dict:
    """Exact rows of pairs as (1, ((t, p), ...)) with successors ascending,
    as PartialModel.row gives them; count 1 at δ_tp = 1 has width 0. A
    CTMDP's rows are uniformized at C = its largest exit rate, which keeps
    every policy's time-average gain."""
    rows = {sa: (1, tuple(sorted(model.rows[sa].items()))) for sa in pairs}
    if model.kind != CTMDP:
        return rows
    rates = {sa: model.exit_rate(*sa) for sa in pairs}
    embedded = {sa: (n, tuple((t, r / rates[sa]) for t, r in row)) for sa, (n, row) in rows.items()}
    return uniformize(embedded, rates, max(model.exit_rate(*sa) for sa in model.rows))


def exact_mec_gain(mec: MecRecord, model: ExplicitModel) -> tuple[float, float]:
    """Bracket of the maximal mean payoff inside a MEC, scaled to [0, 1] by
    the model's r_max, which must be positive."""
    rows = _exact_rows(model, [(s, a) for s in mec.states for a in mec.actions[s]])
    rewards = {s: model.reward[s] / model.r_max for s in mec.states}
    return _interval_gain_vi(mec, rows, rewards, 1.0, GAIN_BETA)


def exact_bracket(model: ExplicitModel) -> tuple[float, float]:
    """Bracket (lo, hi) of the maximum expected mean payoff from the initial
    state, in reward units."""
    if model.r_max <= 0.0:
        return 0.0, 0.0
    post = {sa: dict(row) for sa, (_, row) in _exact_rows(model, model.rows).items()}
    mecs = mec_decomposition(post)
    for M in mecs:
        M.gain_lower, M.gain_upper = exact_mec_gain(M, model)
    L, U, _, _ = _fixpoint(_Estimates(dict(enumerate(model.actions)), post, mecs, True, 1.0), TOL)
    return model.r_max * float(L[model.init]), model.r_max * float(U[model.init])


def exact_mean_payoff(model: ExplicitModel) -> float:
    """Midpoint of exact_bracket, in reward units. Only bench/run.py reads
    it; it goes with BETA once the benchmark reads exact_bracket."""
    lo, hi = exact_bracket(model)
    return (lo + hi) / 2.0
