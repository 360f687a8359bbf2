"""Mean-payoff learning for blackbox/greybox MDPs.

Anytime on-demand bounded value iteration: simulate episodes against the
oracle, detect probably-sure end components, attach stay actions encoding
the current gain bounds, and iterate interval value updates with deflation
over the discovered fragment until the bound gap at the initial state
closes (or the timeout fires, in which case the current bounds are still a
valid report).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain, count
from numbers import Integral

import numpy as np

from .graph import (
    MINUS,
    PLUS,
    STAY,
    UNKNOWN,
    MecRecord,
    best_leaving_action,
    find_delta_sure_mecs,
    is_delta_sure_ec,
    kept_pairs,
    leaving_pairs,
    mec_decomposition,
)
from .model import CTMDP, GREYBOX, MDP, learner_rng
from .stats import (
    ec_required_samples,
    greybox_miss_probability,
    inconfidence_ledger,
    tp_inconfidence,
    tp_width,
)

TERMINALS = (PLUS, MINUS, UNKNOWN)

BLACKBOX_UPDATES = "blackbox"
GREYBOX_UPDATES = "greybox-equations"

# Deterministic trace clock: one oracle step counts as one microsecond, so
# traces (and the CSVs built from them) are identical for identical
# (model, config, seed) regardless of machine load. Real elapsed time is
# reported separately and drives only the timeout.
VIRTUAL_STEP_SECONDS = 1e-6

APERIODICITY = 0.95  # y: weight of the real rows against a virtual self-loop in MEC VI
FIXPOINT_TOL = 1e-6  # a VI phase stops once no value moves more than this
VI_MAX_SWEEPS = 10_000  # _fixpoint returns its (still sound) values after this many sweeps
GAIN_VI_MAX_SWEEPS = 10_000  # interval gain VI returns its (still sound) bounds after this many sweeps
REVISIT_THRESHOLD = 6  # k: an episode checks a state for a loop at every k-th visit
INITIAL_MEC_SAMPLES = 10_000  # the MEC walk's first per-successor budget
MEC_SAMPLE_MULTIPLIER = 5  # growth of the MEC walk's per-successor budget


@dataclass(frozen=True)
class LearnerConfig:
    epsilon_mp: float = 0.01
    delta_mp: float = 0.1
    episodes_per_round: int = 10_000  # n
    precision_mode: str = "relative"  # "relative" | "absolute"
    timeout_s: float = 1800.0  # > 0; inf for no limit
    seed: int = 0
    update_style: str = BLACKBOX_UPDATES  # "blackbox" | "greybox-equations"
    anytime: bool = False  # drop the termination test, run to timeout

    def __post_init__(self):
        if self.update_style not in (BLACKBOX_UPDATES, GREYBOX_UPDATES):
            raise ValueError(f"unknown update_style {self.update_style!r}")
        if self.precision_mode not in ("relative", "absolute"):
            raise ValueError(f"unknown precision_mode {self.precision_mode!r}")
        if not 0.0 < self.delta_mp < 1.0:
            raise ValueError(f"delta_mp {self.delta_mp} outside (0, 1)")
        if not self.epsilon_mp > 0.0:
            raise ValueError(f"epsilon_mp {self.epsilon_mp} is not positive")
        for name, least in (("episodes_per_round", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < least:
                raise ValueError(f"{name} {value!r} is not an integer of at least {least}")
        if not self.timeout_s > 0.0:
            raise ValueError(f"timeout_s {self.timeout_s} is not positive")


@dataclass
class BoundsReport:
    """Anytime output: per-round trace rows and the final PAC interval."""

    trace: list  # (time_s, episodes, lower, upper) per round; bounds scaled to [0,1]
    final: tuple  # (lower_mp, upper_mp) in reward units
    certified_inconfidence: float
    r_max_seen: float
    episodes: int  # completed episodes
    oracle_steps: int  # steps the oracle sampled during this run
    wall_seconds: float
    timed_out: bool  # the deadline had passed by the end of the last round

    @property
    def width(self) -> float:
        return self.final[1] - self.final[0]

    @property
    def rounds(self) -> int:
        return len(self.trace)

    def covers(self, bracket: tuple) -> bool:
        """Whether the final interval may hold the value in bracket (lo, hi),
        such as whitebox.exact_bracket: a miss means the two are disjoint."""
        return self.final[0] <= bracket[1] and bracket[0] <= self.final[1]


class PartialModel:
    """Everything the learner knows about the model."""

    def __init__(self, p_min: float, delta_mp: float, update_style: str, info_level: str, ctmdp: bool):
        self.p_min = p_min
        self.ledger = inconfidence_ledger(delta_mp, p_min, ctmdp)  # (widths, gate, rates)
        self.update_style = update_style
        self.info_level = info_level
        self.available: dict[int, tuple[str, ...]] = {}  # discovered states
        # post[(s,a)][t] = #(s,a,t); its keys are the observed successors
        # and #(s,a) is the sum of its values
        self.post: dict[tuple[int, str], dict[int, int]] = {}
        self.succ_total: dict[tuple[int, str], int] = {}  # greybox |post(s,a)|
        self.dwell_sum: dict[tuple[int, str], float] = {}  # CTMDP residence times
        self.rewards: dict[int, float] = {}
        self.r_max_seen = 0.0
        self.L: dict[int, float] = {}
        self.U: dict[int, float] = {}
        self.act_L: dict[tuple[int, str], float] = {}
        self.act_U: dict[tuple[int, str], float] = {}
        self.mecs: list[MecRecord] = []  # pairwise disjoint; each carries a stay
        self.stay_of: dict[int, MecRecord] = {}
        # greedy-choice memo: a state's argmax list reads only its own pairs'
        # act_L/act_U and the gains of its own stay record
        self._choice_cache: dict[int, tuple] = {}

    def invalidate_choices(self) -> None:
        """Anything that moves act_L/act_U or replaces the held records must
        call this. It clears the choice memo in place (an episode holds it)
        and every held record's leaving-action memo."""
        self._choice_cache.clear()
        for m in self.mecs:
            m.leave = None

    def forget(self, records) -> None:
        """Clear the memos that read these records: their states' choices
        and their own leaving actions. A record whose gains move, or that is
        adopted or dropped, must pass through here."""
        choices = self._choice_cache
        for rec in records:
            for s in rec.states:
                choices.pop(s, None)
            rec.leave = None

    # -- discovery and counting ---------------------------------------

    def discover(self, s: int, oracle) -> bool:
        """First contact with a state: learn its actions and reward."""
        if s in self.available:
            return False
        av = tuple(oracle.available_actions(s))
        self.available[s] = av
        for a in av:
            key = (s, a)
            self.post[key] = {}
            self.act_L[key] = 0.0
            self.act_U[key] = 1.0
            if oracle.info_level == GREYBOX:
                self.succ_total[key] = oracle.successor_count(s, a)
        self.L[s] = 0.0
        self.U[s] = 1.0
        r = oracle.reward(s)
        self.rewards[s] = r
        if r > self.r_max_seen:
            self._grow_r_max(r)
        return True

    def _grow_r_max(self, new_r: float) -> None:
        # gain bounds are stored scaled by r_max_seen; a larger maximum
        # shrinks every previously certified scaled gain by old/new
        old = self.r_max_seen
        self.r_max_seen = new_r
        if old > 0.0:
            ratio = old / new_r
            for m in self.mecs:
                m.gain_lower *= ratio
                m.gain_upper *= ratio
            self.invalidate_choices()

    def leaving_action(self, rec: MecRecord) -> tuple[int, str]:
        """best_leaving_action of a held stay record at the current values
        and observed successors, memoized in rec.leave: an episode resets it
        when a pair of one of the record's states gains a successor."""
        if rec.leave is None:
            rec.leave = best_leaving_action(rec, _mec_action_values(self, rec), self.available, self.post)
        return rec.leave

    # -- inconfidence bookkeeping ---------------------------------------

    def num_pairs(self) -> int:
        return max(1, len(self.post))

    def current_delta_tp(self) -> float:
        """The widths' share spread over the transitions of the pairs found so
        far; for a CTMDP, the ledger makes it the per-pair rate share too."""
        return tp_inconfidence(self.ledger[0], self.p_min, self.num_pairs())

    def sure_ec_need(self) -> int:
        """Samples each staying pair needs to pass the sure-EC gate now: the
        gate's share spread over the pairs' at most 1/p_min successors each."""
        return ec_required_samples(tp_inconfidence(self.ledger[1], self.p_min, self.num_pairs()), self.p_min)

    def grey_equations(self, pairs) -> np.ndarray:
        """Per pair (s,a): whether the residual-to-seen-extremes update is
        used for it."""
        if self.update_style != GREYBOX_UPDATES:
            return np.zeros(len(pairs), dtype=bool)
        if self.info_level != GREYBOX:
            return np.ones(len(pairs), dtype=bool)
        total, post = self.succ_total.get, self.post
        return np.array([(n := total(sa)) is not None and len(post[sa]) >= n for sa in pairs], dtype=bool)

    def surcharge(self) -> float:
        """Extra reported inconfidence when greybox equations run on
        blackbox data: per sampled pair, the chance its support is still
        incomplete."""
        if self.update_style != GREYBOX_UPDATES or self.info_level == GREYBOX:
            return 0.0
        return sum(greybox_miss_probability(self.p_min, sum(succ.values())) for succ in self.post.values() if succ)

    # -- MEC record bookkeeping -----------------------------------------

    def drop(self, records: list[MecRecord]) -> None:
        """Remove held records and their stays. A choice reads only its own
        state's pairs and stay, and a leaving action only its own record's
        states, so only the dropped records' memo entries change."""
        gone = set(map(id, records))
        self.mecs = [m for m in self.mecs if id(m) not in gone]
        for m in records:
            for s in m.states:
                del self.stay_of[s]
        self.forget(records)

    def reconcile_mecs(self, fresh: list[MecRecord]) -> None:
        """Keep each held record whose state and action sets are those of one
        of this round's sure MECs, with its gain bounds and stay; drop the
        rest, since a changed MEC invalidates old gain bounds. A sure MEC gets
        a stay only once looping confirms it."""
        keys = {m.key() for m in fresh}
        self.drop([m for m in self.mecs if m.key() not in keys])

    def adopt_looping_record(self, rec: MecRecord) -> None:
        """Attach stay to a freshly confirmed EC mid-episode, dropping the
        held records it overlaps."""
        self.drop([m for m in self.mecs if m.states & rec.states])
        self.mecs.append(rec)
        self.stay_of.update(dict.fromkeys(rec.states, rec))
        self.forget([rec])


# ---------------------------------------------------------------------------
# Bellman updates


class _Rows:
    """Interval Bellman rows packed column-major: the one row kernel.

    Row r has count counts[r] and lens[r] entries; slots and freqs list the
    entries of every row in turn, each row's successors (as value slots) in
    ascending order, and the rows of each state are contiguous; per_state
    gives how many rows each state owns. A row with count 0 is unsampled.
    The lower estimate of a successor is its frequency minus the Hoeffding
    width at the row's count, floored at 0; the residual mass goes to the
    worst/best successor of a grey row and to 0/1 otherwise. Each row is
    padded to the widest row with zero-weight copies of its first successor,
    so the column-by-column sums add the same terms in the same order as a
    per-row loop, and the padding adds exact zeros.
    """

    def __init__(self, counts, lens, slots, freqs, grey, per_state, delta_tp: float):
        widths = {n: tp_width(n, delta_tp) for n in set(counts)}
        rows = len(counts)
        shape = (max(lens, default=0) or 1, rows)
        lens = np.array(lens, dtype=np.intp)
        row_of = np.repeat(np.arange(rows), lens)
        starts = lens.cumsum() - lens
        col = np.arange(len(row_of)) - starts[row_of]
        slots = np.asarray(slots, dtype=np.intp)
        lower = np.maximum(0.0, np.asarray(freqs, dtype=float) - np.array([widths[n] for n in counts])[row_of])
        # column-major: succ[k] and theta[k] hold the k-th entry of every row;
        # a row without entries points at slot 0 with weight 0
        self.succ = np.zeros(shape, dtype=np.intp)
        self.succ[:, row_of] = slots[starts[row_of]]
        self.succ[col, row_of] = slots
        self.theta = np.zeros(shape)
        self.theta[col, row_of] = lower
        mass = np.zeros(rows)
        for theta in self.theta:
            mass += theta
        self.unsampled = np.array(counts) == 0
        self.resid = np.where(self.unsampled, 0.0, np.maximum(0.0, 1.0 - mass))
        self.grey = grey & ~self.unsampled
        # every state owns at least one row, so no segment is empty
        per_state = np.array(per_state, dtype=np.intp)
        self.heads = per_state.cumsum() - per_state

    def bounds(self, L: np.ndarray, U: np.ndarray):
        """Lower and upper value of every row at state values L and U."""
        low = np.zeros(len(self.resid))
        up = np.zeros(len(self.resid))
        succ_l = L[self.succ]
        succ_u = U[self.succ]
        for theta, l, u in zip(self.theta, succ_l, succ_u):
            low += theta * l
            up += theta * u
        low = np.where(self.grey, low + self.resid * succ_l.min(axis=0), low)
        up = np.where(self.grey, up + self.resid * succ_u.max(axis=0), up + self.resid)
        low[self.unsampled] = 0.0
        up[self.unsampled] = 1.0
        return low, up

    def best(self, pair: np.ndarray) -> np.ndarray:
        """Per state: the largest of 0 and its rows' values."""
        return np.maximum(0.0, np.maximum.reduceat(pair, self.heads))


class _Estimates(_Rows):
    """The frozen rows of one value-iteration phase, packed into arrays.

    available maps each state to its actions, and post maps each of those
    pairs to {successor: weight}: sample counts for the learner, exact
    probabilities for the whitebox. A row's frequencies are its weights over
    their sum, and its count, which sets its width, is that sum. The value
    slots are the states in ``available`` order, and every successor is one
    of them. Pair rows follow the states' action order, and grey (one flag
    per pair, or one for all) selects the residual-to-seen-extremes rows.
    Each record in mecs carries a stay with its gain bounds. None of this
    moves during a phase, only L and U do.
    """

    def __init__(self, available, post, mecs, grey, delta_tp: float):
        self.states = list(available)
        self.pairs = [(s, a) for s in self.states for a in available[s]]
        succs = [post[sa] for sa in self.pairs]
        lens = list(map(len, succs))
        counts = list(map(sum, map(dict.values, succs)))
        entry_row = np.repeat(np.arange(len(succs)), lens)
        succ = np.fromiter(chain.from_iterable(succs), dtype=np.intp, count=len(entry_row))
        # float64 holds integer counts exactly, so count frequencies do not move
        seen = np.fromiter(chain.from_iterable(map(dict.values, succs)), dtype=float, count=len(entry_row))
        order = np.lexsort((succ, entry_row))  # by row, then successor
        slot = {s: i for i, s in enumerate(self.states)}
        super().__init__(
            counts,
            lens,
            [slot[t] for t in succ[order].tolist()],
            seen[order] / np.array(counts)[entry_row],
            grey,
            [len(available[s]) for s in self.states],
            delta_tp,
        )

        # stays and deflation: each MEC's states, its stay gains and the rows
        # of its leaving pairs (post is frozen, so these are too)
        def row_of(s, a):
            return self.heads[slot[s]] + available[s].index(a)

        clamp_slots, clamp_mec, exits, exit_heads, exit_mecs = [], [], [], [], []
        for k, M in enumerate(mecs):
            for s in M.states:
                clamp_slots.append(slot[s])
                clamp_mec.append(k)
            out = [row_of(*sa) for sa in leaving_pairs(M, available, post)]
            if out:
                exit_heads.append(len(exits))
                exit_mecs.append(k)
                exits.extend(out)
        self.clamp_slots = np.array(clamp_slots, dtype=np.intp)
        self.clamp_mec = np.array(clamp_mec, dtype=np.intp)
        self.exits = np.array(exits, dtype=np.intp)
        self.exit_heads = np.array(exit_heads, dtype=np.intp)
        self.exit_mecs = np.array(exit_mecs, dtype=np.intp)
        self.gains = np.array([M.gain_upper for M in mecs], dtype=float)
        self.stay_l = np.zeros(len(self.states))
        self.stay_u = np.zeros(len(self.states))
        self.stay_l[self.clamp_slots] = np.array([M.gain_lower for M in mecs], dtype=float)[self.clamp_mec]
        self.stay_u[self.clamp_slots] = self.gains[self.clamp_mec]

    def store(self, partial: PartialModel, L, U, pair_l, pair_u) -> None:
        """Write state and pair values back into the partial model's dicts."""
        partial.L.update(zip(self.states, L.tolist()))
        partial.U.update(zip(self.states, U.tolist()))
        partial.act_L.update(zip(self.pairs, pair_l.tolist()))
        partial.act_U.update(zip(self.pairs, pair_u.tolist()))

    def deflate(self, pair_u, U) -> None:
        """Clamp U of every stay MEC's states to its best leaving upper value.

        best_leaving_action ranks candidates by upper value first, so the
        winner's upper is the largest among the MEC's leaving pairs and its
        stay, whatever the tie-breaks pick.
        """
        best = self.gains.copy()
        out = np.maximum.reduceat(pair_u[self.exits], self.exit_heads)
        best[self.exit_mecs] = np.maximum(best[self.exit_mecs], out)
        np.minimum.at(U, self.clamp_slots, best[self.clamp_mec])


def _sweep_once(est: _Estimates, L: np.ndarray, U: np.ndarray):
    """One synchronous Bellman sweep over the discovered states.

    Returns (pair lower, pair upper, new L, new U).
    """
    low, up = est.bounds(L, U)
    return low, up, np.maximum(est.best(low), est.stay_l), np.maximum(est.best(up), est.stay_u)


def _movement(L, U, new_l, new_u) -> float:
    """Largest change of a state value between two value arrays."""
    return float(max(np.abs(new_l - L).max(), np.abs(new_u - U).max()))


def _mec_action_values(partial: PartialModel, M: MecRecord) -> dict:
    vals = {}
    for s in sorted(M.states):
        for a in partial.available[s]:
            vals[(s, a)] = (partial.act_L[(s, a)], partial.act_U[(s, a)])
        if partial.stay_of.get(s) is M:
            vals[(s, STAY)] = (M.gain_lower, M.gain_upper)
    return vals


def _fixpoint(est: _Estimates, tol: float):
    """Iterate sweep + deflate from L = 0 and U = 1 until no value moves more
    than tol, or for VI_MAX_SWEEPS sweeps. Returns (L, U, pair lower, pair
    upper) after the last sweep.

    L only rises and U only falls, and both bound the values at every sweep
    (Haddad & Monmege, "Interval iteration algorithm for MDPs and IMDPs",
    TCS 2018), so a capped run returns a wider interval, not a wrong one.
    Convergence is judged on the values after deflation: the sweep alone can
    keep re-raising a closed MEC's U to the estimation-width floor that
    deflation then removes, so per-sweep movement never settles even though
    the post-deflate values do (monotonically — the sweep is a monotone map
    and deflation only lowers U).
    """
    L = np.zeros(len(est.states))
    U = np.ones(len(est.states))
    for _ in range(VI_MAX_SWEEPS):
        pair_l, pair_u, new_l, new_u = _sweep_once(est, L, U)
        est.deflate(pair_u, new_u)
        moved = _movement(L, U, new_l, new_u)
        L, U = new_l, new_u
        if moved <= tol:
            break
    return L, U, pair_l, pair_u


def _estimates(partial: PartialModel) -> _Estimates:
    """The partial model's rows at its current counts and inconfidence. Every
    recorded successor has a value slot: a sampled successor is discovered at
    once, and a stay draw is never recorded."""
    pairs = [(s, a) for s, av in partial.available.items() for a in av]
    return _Estimates(
        partial.available, partial.post, partial.mecs, partial.grey_equations(pairs), partial.current_delta_tp()
    )


def _vi_phase(partial: PartialModel) -> None:
    """Recompute L/U of every discovered state from scratch by _fixpoint at
    FIXPOINT_TOL. The values live in arrays for the whole phase and are
    written back to the partial model once, at the end. The phase stops after
    VI_MAX_SWEEPS sweeps at the latest, and does not report whether it did."""
    est = _estimates(partial)
    est.store(partial, *_fixpoint(est, FIXPOINT_TOL))
    partial.invalidate_choices()


# ---------------------------------------------------------------------------
# episodes


def _choose_action(s: int, partial: PartialModel, rng):
    """Uniformly among the actions maximizing the upper value, narrowed by
    the lower value; the draw runs over a label-sorted list so equal seeds
    give equal choices. The label list per state is memoized until the
    underlying values move (invalidate_choices, forget), which spares
    recomputing the argmax on every step of every episode in a round."""
    cache = partial._choice_cache
    labels = cache.get(s)
    if labels is None:
        # (upper, lower) compares by the upper value, then the lower
        cands = [((partial.act_U[(s, a)], partial.act_L[(s, a)]), a) for a in partial.available[s]]
        rec = partial.stay_of.get(s)
        if rec is not None:
            cands.append(((rec.gain_upper, rec.gain_lower), STAY))
        best = max(v for v, _ in cands)
        labels = cache[s] = tuple(sorted(a for v, a in cands if v == best))
    if len(labels) == 1:
        return labels[0]
    i = min(int(rng.random() * len(labels)), len(labels) - 1)
    return labels[i]


def _draw_stay(rec: MecRecord, rng) -> int:
    x = rng.random()
    if x < rec.gain_lower:
        return PLUS
    if x < rec.gain_lower + (1.0 - rec.gain_upper):
        return MINUS
    return UNKNOWN


def looping(path, s: int, partial: PartialModel, need: int):
    """Loop check for a state revisited often: the MEC containing s among the
    kept pairs at need that s reaches on the path (any iterable of its
    states), if it passes the strict sure-EC gate at need; else None. It is
    the MEC of the whole path's kept graph: its states are reachable from s
    over its own kept pairs, and the reached states' kept pairs stay among
    them."""
    for m in mec_decomposition(kept_pairs((s,), set(path), partial.available, partial.post, need)):
        if s in m.states:
            return m if is_delta_sure_ec(m.states, partial.available, partial.post, need) else None
    return None


def simulate_episode(oracle, partial: PartialModel, rng, deadline: float):
    """One episode from the initial state, ending in a terminal pseudo-state
    (or aborted by the deadline, leaving counts valid). Only a stay draw
    reaches a terminal. A revisit check that finds a stay record makes the
    next step that record's leaving action: no choice is drawn for it and no
    revisit check follows it. The deadline is read every 64th step, from the
    first on."""
    k = REVISIT_THRESHOLD
    s = oracle.init
    available = partial.available
    if s not in available:
        partial.discover(s, oracle)
    path = [s]
    appear = {s: 1}
    leave = None  # the forced next (state, action), if any
    # this loop dominates learning time, so the common step (a cached greedy
    # choice of a real action) inlines _choose_action and the step's record
    choice_of = partial._choice_cache.get
    post = partial.post
    dwell_sum = partial.dwell_sum
    sample = oracle.sample_step
    rand = rng.random
    monotonic = time.monotonic
    append = path.append
    appeared = appear.get
    for i in count():
        if not i & 63 and monotonic() >= deadline:
            return path
        if leave is not None:
            s, a = key = leave
        else:
            labels = choice_of(s)
            if labels is None:
                a = _choose_action(s, partial, rng)
            elif len(labels) == 1:
                a = labels[0]
            else:
                a = labels[min(int(rand() * len(labels)), len(labels) - 1)]
            key = (s, a)
        if a == STAY:
            append(_draw_stay(partial.stay_of[s], rng))
            return path
        t, dwell = sample(s, a)
        succ = post[key]
        c = succ.get(t)
        if c is None:
            succ[t] = 1
            # only the leaving action of the record holding s reads this pair
            rec = partial.stay_of.get(s)
            if rec is not None:
                rec.leave = None
        else:
            succ[t] = c + 1
        if dwell is not None:
            dwell_sum[key] = dwell_sum.get(key, 0.0) + dwell
        if t not in available:
            partial.discover(t, oracle)
        append(t)
        c = appeared(t, 0) + 1
        appear[t] = c
        if leave is not None:
            leave = None
        elif c % k == 0:
            # a state already carrying a confirmed stay record needs no new
            # loop analysis; re-deriving from the current (partial) path
            # could even shrink the record and discard its learned gains;
            # appear holds the path's states once each, however long it is
            rec = partial.stay_of.get(t)
            if rec is None:
                rec = looping(appear, t, partial, partial.sure_ec_need())
                if rec is not None:
                    partial.adopt_looping_record(rec)
            if rec is not None:
                leave = partial.leaving_action(rec)
        s = t


# ---------------------------------------------------------------------------
# MEC refinement


def compute_n_samples(M: MecRecord, partial: PartialModel) -> int:
    """Smallest INITIAL_MEC_SAMPLES*MEC_SAMPLE_MULTIPLIER^j strictly above the
    least visit count of M's pairs."""
    least = min(sum(partial.post[sa].values()) for sa in M.pairs)
    n = INITIAL_MEC_SAMPLES
    while n <= least:
        n *= MEC_SAMPLE_MULTIPLIER
    return n


def simulate_mec(
    M: MecRecord, oracle, n_samples: int, rng, partial: PartialModel, start: int, deadline: float
) -> bool:
    """Uniform-action random walk inside M for n_samples times the number of
    observed successors of M's pairs. Returns False if a step escapes M — the
    record is then stale and must be dropped by the caller."""
    n_succ = sum(len(partial.post[sa]) for sa in M.pairs)
    steps = n_samples * max(1, n_succ)
    # This loop dominates refinement time. It draws an action only where
    # there is a choice, and it keeps the dwell sums of M's pairs in per-pair
    # slots: the same sums in the same order as the episode's step, written
    # back to the partial model when the walk stops.
    dwell_sum = partial.dwell_sum
    slot = {sa: j for j, sa in enumerate(M.pairs)}
    acts = {s: [(a, slot[(s, a)]) for a in sorted(M.actions[s])] for s in M.states}
    succs = [partial.post[sa] for sa in M.pairs]
    dwells = [dwell_sum.get(sa) for sa in M.pairs]  # None until a pair has a dwell
    states = M.states
    sample = oracle.sample_step
    rand = rng.random
    monotonic = time.monotonic
    s = start
    try:
        for i in range(steps):
            if (i & 0xFFF) == 0 and monotonic() >= deadline:
                return True  # keep what was learned; the caller is out of time
            av = acts[s]
            a, j = av[min(int(rand() * len(av)), len(av) - 1)] if len(av) > 1 else av[0]
            t, dwell = sample(s, a)
            succ = succs[j]
            succ[t] = succ.get(t, 0) + 1
            if dwell is not None:
                total = dwells[j]
                dwells[j] = dwell if total is None else total + dwell
            if t not in states:
                partial.discover(t, oracle)
                return False
            s = t
        return True
    finally:
        for sa, total in zip(M.pairs, dwells):
            if total is not None:
                dwell_sum[sa] = total


def _interval_gain_vi(M: MecRecord, rows, rewards, delta_tp: float, beta: float):
    """Interval value iteration for the gain of a (presumed) MEC.

    rows maps (s,a) to (count, ((t, frequency), ...)), as _mec_rows gives
    them, and runs through the phase's row kernel (_Rows) with
    residual mass to the worst/best seen successor. A virtual self-loop of
    mass 1-APERIODICITY forces aperiodicity without changing the gain.
    Iterates until both update-difference spans are below beta, or for
    GAIN_VI_MAX_SWEEPS sweeps: the spans of a multichain game need not
    shrink. The lower gain is the smallest lower difference, the upper gain
    the largest upper difference, clamped to [0,1]; these bound the gain at
    every sweep.
    """
    beta = max(beta, 1e-9)
    states = sorted(M.states)
    slot = {s: i for i, s in enumerate(states)}
    entries = [rows[sa] for sa in M.pairs]
    packed = _Rows(
        [n for n, _ in entries],
        [len(freqs) for _, freqs in entries],
        [slot[t] for _, freqs in entries for t, _ in freqs],
        [f for _, freqs in entries for _, f in freqs],
        True,
        [len(M.actions[s]) for s in states],
        delta_tp,
    )
    r = np.array([rewards[s] for s in states], dtype=float)
    l = np.zeros(len(states))
    u = np.zeros(len(states))
    y = APERIODICITY
    for _ in range(GAIN_VI_MAX_SWEEPS):
        pl, pu = packed.bounds(l, u)
        newl = r + y * packed.best(pl) + (1.0 - y) * l
        newu = r + y * packed.best(pu) + (1.0 - y) * u
        dl = newl - l
        du = newu - u
        l, u = newl, newu
        if dl.max() - dl.min() <= beta and du.max() - du.min() <= beta:
            break
    gl = min(1.0, max(0.0, float(dl.min())))
    gu = min(1.0, max(0.0, float(du.max())))
    return gl, max(gl, gu)


def _mec_rows(M: MecRecord, partial: PartialModel):
    """M's rows at the current counts, (#(s,a), ((t, #(s,a,t)/#(s,a)), ...))
    per pair with successors ascending, or (0, ()) for an unsampled pair; and
    its states' rewards scaled to [0,1] by r_max_seen, 0 while that is 0."""
    rows = {}
    for sa in M.pairs:
        succ = partial.post[sa]
        n = sum(succ.values())
        rows[sa] = (n, tuple((t, c / n) for t, c in sorted(succ.items()))) if n else (0, ())
    r_max = partial.r_max_seen
    return rows, {s: partial.rewards[s] / r_max if r_max > 0.0 else 0.0 for s in M.states}


def mec_value_iteration(M: MecRecord, partial: PartialModel, delta_tp: float, beta: float):
    """MDP gain bounder for update_mec_value: bounds for M by interval VI at
    the current counts. Residual-to-seen-extremes updates are always used
    here: a sure MEC's support is known on the sure-EC gate's share of δ."""
    return _interval_gain_vi(M, *_mec_rows(M, partial), delta_tp, beta)


def _tighten(M: MecRecord, gl: float, gu: float) -> None:
    """Intersect the new gain interval with the stored one; if sampling
    noise makes them disjoint, trust the fresh (better-sampled) interval."""
    lo = max(M.gain_lower, gl)
    hi = min(M.gain_upper, gu)
    if lo > hi:
        lo, hi = gl, gu
    M.gain_lower = lo
    M.gain_upper = hi


def update_mec_value(
    M: MecRecord,
    oracle,
    partial: PartialModel,
    config: LearnerConfig,
    rng,
    start: int,
    deadline: float,
    bound=mec_value_iteration,
):
    """Refine M's gain bounds, aiming the gain bounder at half the current gap.

    bound(M, partial, delta_tp, beta) returns fresh (lower, upper) gain
    bounds at the current counts and per-transition inconfidence delta_tp,
    which each fit reads once: interval VI for MDPs, the rate-adversarial
    sweep for CTMDPs. Value iteration alone often suffices: the precision
    target beta, not the visit counts, is what binds whenever rows
    concentrate on few successors (a single-successor row loses no width at
    any count). The sampling walk with its escalating budget therefore only
    runs when the bounds at the current counts leave the gap too wide, i.e.
    when the count-driven width floor is the binding constraint. Returns the
    new bounds, or None if M is stale and lost its stay: a retained pair was
    seen leaving M, by an episode since the record was confirmed or by the
    walk, so its staying-action evidence was wrong.
    """

    def refit():
        _tighten(M, *bound(M, partial, partial.current_delta_tp(), (M.gain_upper - M.gain_lower) / 2.0))
        partial.forget([M])

    if any(t not in M.states for sa in M.pairs for t in partial.post[sa]):
        partial.drop([M])
        return None
    refit()
    if not _needs_refinement(M, partial, config):
        return M.gain_lower, M.gain_upper
    if not simulate_mec(M, oracle, compute_n_samples(M, partial), rng, partial, start, deadline):
        partial.drop([M])
        return None
    refit()
    return M.gain_lower, M.gain_upper


# ---------------------------------------------------------------------------
# main loop


def _termination_width(partial: PartialModel, config: LearnerConfig) -> float:
    w = 2.0 * config.epsilon_mp
    if config.precision_mode == "relative" and partial.r_max_seen > 0:
        w /= partial.r_max_seen
    return w


def _needs_refinement(rec: MecRecord, partial: PartialModel, config: LearnerConfig) -> bool:
    # refining far below the termination width burns samples for nothing
    return rec.gain_upper - rec.gain_lower >= _termination_width(partial, config) / 2.0


def _learn(oracle, config: LearnerConfig, refine) -> BoundsReport:
    t0 = time.monotonic()
    deadline = t0 + config.timeout_s
    steps0 = oracle.steps_sampled
    rng = learner_rng(config.seed)
    partial = PartialModel(
        oracle.p_min,
        delta_mp=config.delta_mp,
        update_style=config.update_style,
        info_level=oracle.info_level,
        ctmdp=oracle.kind == CTMDP,
    )
    trace: list[tuple[float, int, float, float]] = []
    episodes = 0  # completed ones: an episode cut by the deadline ends the round uncounted
    timed_out = False

    while not timed_out:
        refined: dict[int, MecRecord] = {}  # holds each record, so no id in it is reused
        for _ in range(config.episodes_per_round):
            path = simulate_episode(oracle, partial, rng, deadline)
            last = path[-1]
            if last not in TERMINALS:  # only the deadline cuts an episode short
                break
            episodes += 1
            if last in (PLUS, UNKNOWN):
                rec = partial.stay_of.get(path[-2])
                if rec is not None and id(rec) not in refined:
                    refined[id(rec)] = rec
                    if _needs_refinement(rec, partial, config):
                        refine(rec, oracle, partial, config, rng, path[-2], deadline)

        # a sure MEC with a held record's key holds that record's states
        fresh = find_delta_sure_mecs(partial.stay_of, partial.available, partial.post, partial.sure_ec_need())
        partial.reconcile_mecs(fresh)
        _vi_phase(partial)
        low = partial.L[oracle.init]
        up = partial.U[oracle.init]
        trace.append((oracle.steps_sampled * VIRTUAL_STEP_SECONDS, episodes, low, up))
        timed_out = time.monotonic() >= deadline
        if not config.anytime and up - low < _termination_width(partial, config):
            break

    r_max = partial.r_max_seen
    return BoundsReport(
        trace=trace,
        final=(r_max * partial.L[oracle.init], r_max * partial.U[oracle.init]),
        certified_inconfidence=min(1.0, config.delta_mp + partial.surcharge()),
        r_max_seen=r_max,
        episodes=episodes,
        oracle_steps=oracle.steps_sampled - steps0,
        wall_seconds=time.monotonic() - t0,
        timed_out=timed_out,
    )


def on_demand_bvi(oracle, config: LearnerConfig | None = None) -> BoundsReport:
    """Learn PAC mean-payoff bounds for the MDP behind the oracle."""
    if oracle.kind != MDP:
        raise ValueError("oracle does not expose an MDP; use on_demand_bvi_ctmdp")
    config = config or LearnerConfig()
    return _learn(oracle, config, update_mec_value)
