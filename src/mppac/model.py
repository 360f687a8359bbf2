"""Explicit-state MDP/CTMDP models, the line-oriented model text format,
and seeded blackbox/greybox sampling oracles."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Mapping, NamedTuple

import numpy as np

MDP = "mdp"
CTMDP = "ctmdp"
BLACKBOX = "blackbox"
GREYBOX = "greybox"

ROW_SUM_TOL = 1e-9  # decimal model files must round-trip
UNIFORM_BLOCK = 1024  # oracle uniforms drawn per numpy call


class ModelError(ValueError):
    """Malformed model text or violated model invariant."""


class CapabilityError(RuntimeError):
    """A greybox-only query was made against a blackbox oracle."""


@dataclass(frozen=True)
class ExplicitModel:
    """Full model description. Only oracles and the whitebox solver read it;
    learners see models through SampleOracle exclusively."""

    kind: str  # MDP or CTMDP
    state_count: int
    init: int
    p_min: float  # positive lower bound on nonzero embedded probabilities
    actions: tuple[tuple[str, ...], ...]  # actions[s] = labels available in s
    # (s, a) -> successor -> probability (MDP) or rate (CTMDP)
    rows: Mapping[tuple[int, str], Mapping[int, float]]
    reward: tuple[float, ...]  # per step for MDP, per unit time for CTMDP

    def __post_init__(self):
        # normalize to plain nested dicts with zero entries dropped, so
        # successor sets and |post| are well defined
        clean = {}
        for (s, a), row in self.rows.items():
            clean[(int(s), str(a))] = {
                int(t): float(p) for t, p in row.items() if p != 0.0
            }
        object.__setattr__(self, "rows", clean)
        object.__setattr__(self, "actions", tuple(tuple(str(a) for a in av) for av in self.actions))
        object.__setattr__(self, "reward", tuple(float(r) for r in self.reward))
        _validate(self)

    def successors(self, s: int, a: str) -> tuple[int, ...]:
        """Successor states of (s, a) carrying nonzero mass, ascending."""
        return tuple(sorted(self.rows[(s, a)]))

    def exit_rate(self, s: int, a: str) -> float:
        """Total exit rate lambda(s, a). CTMDP rows only."""
        return sum(self.rows[(s, a)].values())

    @property
    def r_max(self) -> float:
        return max(self.reward)


def _validate(m: ExplicitModel) -> None:
    if m.kind not in (MDP, CTMDP):
        raise ModelError(f"unknown model kind {m.kind!r}")
    if m.state_count < 1:
        raise ModelError("state_count must be positive")
    if not 0 <= m.init < m.state_count:
        raise ModelError(f"init state {m.init} out of range")
    if not 0.0 < m.p_min <= 1.0:
        raise ModelError(f"pmin {m.p_min} outside (0, 1]")
    if len(m.actions) != m.state_count:
        raise ModelError("actions must cover every state")
    if len(m.reward) != m.state_count:
        raise ModelError("reward must cover every state")
    for s, r in enumerate(m.reward):
        if r < 0 or not math.isfinite(r):
            raise ModelError(f"negative reward {r:.6g} at state {s}")

    declared = set()
    for s, av in enumerate(m.actions):
        if not av:
            raise ModelError(f"state {s} has no actions")
        if len(set(av)) != len(av):
            raise ModelError(f"duplicate action label at state {s}")
        declared.update((s, a) for a in av)
    if set(m.rows) != declared:
        stray = set(m.rows) ^ declared
        s, a = sorted(stray)[0]
        raise ModelError(f"action table and rows disagree at ({s},{a})")

    for (s, a), row in sorted(m.rows.items()):
        for t, v in row.items():
            if not 0 <= t < m.state_count:
                raise ModelError(f"dangling state index {t} at ({s},{a})")
            if v < 0 or not math.isfinite(v):
                raise ModelError(f"negative entry {v:.6g} at ({s},{a})")
        total = sum(row.values())
        if m.kind == MDP:
            if abs(total - 1.0) > ROW_SUM_TOL:
                raise ModelError(f"row sum {total:.6g} ≠ 1 at ({s},{a})")
            low = min(row.values())
            if low < m.p_min - ROW_SUM_TOL:
                raise ModelError(f"entry {low:.6g} < pmin {m.p_min:.6g} at ({s},{a})")
        else:
            if total <= 0:
                raise ModelError(f"zero total rate at ({s},{a})")
            low = min(row.values()) / total
            if low < m.p_min - ROW_SUM_TOL:
                raise ModelError(
                    f"embedded probability {low:.6g} < pmin {m.p_min:.6g} at ({s},{a})"
                )


# ---------------------------------------------------------------------------
# model text format


def parse_model(text: str) -> ExplicitModel:
    """Parse the line-oriented model format.

    Line 1 is ``mdp`` or ``ctmdp``; then ``states N``, ``init I``, ``pmin P``,
    optional ``reward S R`` lines, and one ``t S ACTION T VALUE`` line per
    transition (VALUE is a probability for MDPs, a rate for CTMDPs).
    ``#`` starts a comment; blank lines are ignored; anything else is an
    error carrying its line number.
    """
    kind = None
    state_count = init = p_min = None
    rewards: dict[int, float] = {}
    trans: dict[tuple[int, str], dict[int, float]] = {}
    order: dict[int, list[str]] = {}

    def fail(lineno, msg):
        raise ModelError(f"line {lineno}: {msg}")

    def need_states(lineno, what):
        if state_count is None:
            fail(lineno, f"'states' must come before '{what}'")

    def to_int(tok, lineno):
        try:
            return int(tok)
        except ValueError:
            fail(lineno, f"expected integer, got {tok!r}")

    def to_float(tok, lineno):
        try:
            return float(tok)
        except ValueError:
            fail(lineno, f"expected number, got {tok!r}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if kind is None:
            if len(tok) == 1 and tok[0] in (MDP, CTMDP):
                kind = tok[0]
                continue
            fail(lineno, f"expected 'mdp' or 'ctmdp' header, got {line!r}")
        head = tok[0]
        if head == "states":
            if len(tok) != 2:
                fail(lineno, "usage: states N")
            if state_count is not None:
                fail(lineno, "duplicate 'states'")
            state_count = to_int(tok[1], lineno)
            if state_count < 1:
                fail(lineno, "state count must be positive")
        elif head == "init":
            if len(tok) != 2:
                fail(lineno, "usage: init I")
            if init is not None:
                fail(lineno, "duplicate 'init'")
            init = to_int(tok[1], lineno)
        elif head == "pmin":
            if len(tok) != 2:
                fail(lineno, "usage: pmin P")
            if p_min is not None:
                fail(lineno, "duplicate 'pmin'")
            p_min = to_float(tok[1], lineno)
        elif head == "reward":
            if len(tok) != 3:
                fail(lineno, "usage: reward S R")
            need_states(lineno, "reward")
            s = to_int(tok[1], lineno)
            if not 0 <= s < state_count:
                fail(lineno, f"reward state {s} out of range")
            if s in rewards:
                fail(lineno, f"duplicate reward for state {s}")
            rewards[s] = to_float(tok[2], lineno)
        elif head == "t":
            if len(tok) != 5:
                fail(lineno, "usage: t S ACTION T VALUE")
            need_states(lineno, "t")
            s = to_int(tok[1], lineno)
            a = tok[2]
            t = to_int(tok[3], lineno)
            v = to_float(tok[4], lineno)
            if not 0 <= s < state_count:
                fail(lineno, f"source state {s} out of range")
            if not 0 <= t < state_count:
                fail(lineno, f"target state {t} out of range")
            row = trans.setdefault((s, a), {})
            if t in row:
                fail(lineno, f"duplicate transition ({s},{a},{t})")
            row[t] = v
            order.setdefault(s, [])
            if a not in order[s]:
                order[s].append(a)
        else:
            fail(lineno, f"unknown directive {head!r}")

    if kind is None:
        raise ModelError("empty model text: missing 'mdp'/'ctmdp' header")
    for name, val in (("states", state_count), ("init", init), ("pmin", p_min)):
        if val is None:
            raise ModelError(f"missing '{name}' directive")

    return ExplicitModel(
        kind=kind,
        state_count=state_count,
        init=init,
        p_min=p_min,
        actions=tuple(tuple(order.get(s, ())) for s in range(state_count)),
        rows=trans,
        reward=tuple(rewards.get(s, 0.0) for s in range(state_count)),
    )


def load_model(path) -> ExplicitModel:
    """Read and parse a model file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


# ---------------------------------------------------------------------------
# seeded randomness

# Philox is counter-based: identical seeds give bit-identical streams on any
# platform, and the oracle/learner sub-streams below never collide.


def _philox(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def oracle_rng(seed: int) -> np.random.Generator:
    """Stream feeding oracle step sampling."""
    return _philox(seed, 0)


def learner_rng(seed: int) -> np.random.Generator:
    """Independent stream for learner-side tie-break draws."""
    return _philox(seed, 1)


class StepSample(NamedTuple):
    # NamedTuple rather than a dataclass: a CTMDP step constructs one, which
    # makes allocation cost part of the simulation budget (an MDP step
    # returns one of its row's prebuilt samples)
    successor: int
    dwell: float | None = None  # exponential residence time; None for MDPs


_new_tuple = tuple.__new__


class SampleOracle:
    """Learner-facing view of a model.

    Exposes the initial state, available actions, p_min, state rewards and
    seeded step sampling; a greybox oracle additionally reveals |post(s,a)|.
    Probabilities, rates and successor identities stay hidden.
    """

    def __init__(self, model: ExplicitModel, info_level: str = BLACKBOX, rng_seed: int = 0):
        if info_level not in (BLACKBOX, GREYBOX):
            raise ValueError(f"unknown info level {info_level!r}")
        self._model = model
        self.info_level = info_level
        self.rng_seed = int(rng_seed)
        rng = oracle_rng(self.rng_seed)
        # A Generator gives the same uniforms in blocks as in scalar calls,
        # and one numpy call per block costs far less than one per step.
        blocks = iter(lambda: rng.random(UNIFORM_BLOCK).tolist(), None)
        self._uniforms = chain.from_iterable(blocks)
        self._is_mdp = model.kind == MDP
        self._dist_cache: dict[tuple[int, str], tuple[tuple[StepSample, ...], list[float], float]] = {}
        self.steps_sampled = 0  # drives the deterministic trace clock

    @property
    def kind(self) -> str:
        return self._model.kind

    @property
    def init(self) -> int:
        return self._model.init

    @property
    def p_min(self) -> float:
        return self._model.p_min

    def available_actions(self, s: int) -> tuple[str, ...]:
        return self._model.actions[s]

    def reward(self, s: int) -> float:
        return self._model.reward[s]

    def successor_count(self, s: int, a: str) -> int:
        """|post(s,a)| of the underlying model. Greybox only."""
        if self.info_level != GREYBOX:
            raise CapabilityError("successor counts are greybox-only")
        self._dist(s, a)  # raises on unknown action
        return len(self._model.rows[(s, a)])

    def _dist(self, s: int, a: str):
        """(successor samples, cumulative probabilities, total rate) of (s,a).

        The last cumulative entry is set to exactly 1.0: a uniform u < 1 then
        always lands on a successor, even where the float sum ends below 1.
        The samples carry no dwell, so an MDP step returns them as they are.
        """
        key = (s, a)
        hit = self._dist_cache.get(key)
        if hit is not None:
            return hit
        row = self._model.rows.get(key)
        if row is None:
            raise ValueError(f"unknown action {a!r} for state {s}")
        succ = sorted(row)
        total = sum(row[t] for t in succ)
        cum = list(accumulate(row[t] / total for t in succ))
        cum[-1] = 1.0
        hit = (tuple(StepSample(t) for t in succ), cum, total)
        self._dist_cache[key] = hit
        return hit

    def sample_step(self, s: int, a: str) -> StepSample:
        """Draw one transition; for CTMDPs also the exponential dwell time.

        One uniform drives the successor (inverse transform on the cumulative
        row), a second the dwell — the order is part of the stream contract.
        """
        hit = self._dist_cache.get((s, a))
        if hit is None:
            hit = self._dist(s, a)
        samples, cum, total = hit
        step = samples[bisect_right(cum, next(self._uniforms))]
        self.steps_sampled += 1
        if self._is_mdp:
            return step
        # Exponential(lambda) via inverse transform -ln(u)/lambda, u in (0,1]
        dwell = -math.log1p(-next(self._uniforms)) / total
        return _new_tuple(StepSample, (step.successor, dwell))  # skips NamedTuple's Python __new__
