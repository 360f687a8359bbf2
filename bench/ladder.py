"""Seeded generator for the ladder-greybox workload.

A layered sparse MDP: the initial state, LAYERS layers of WIDTH states, and
WIDTH absorbing sinks. Every state outside the sinks has two actions, each
moving deterministically (pmin 1) to a seeded random state of the next
layer; the last layer feeds the sinks. Each sink is a single-state MEC with a
graded reward of at most R_MAX / 2, except one, which pays R_MAX, so the maximum
mean payoff is R_MAX. The state count is fixed; the seed moves edges and
rewards.

The sink paying R_MAX is the one a uniformly random walk from the initial
state reaches most often. In its first round the learner walks uniformly
(every action still has upper value 1), so it finds that sink within the
round on every seed and stops after one round: each seed costs the same
work. A sink reached by few paths could be missed in the first round, and
the learner, which scales its bounds by the largest reward seen so far,
would then report an interval below R_MAX.
"""

from __future__ import annotations

import random

LAYERS = 40
WIDTH = 100
R_MAX = 1.0
STATE_COUNT = 1 + (LAYERS + 1) * WIDTH


def _layer(i: int) -> range:
    """States of layer i; layer 0 is the initial state, layer LAYERS + 1 the sinks."""
    if i == 0:
        return range(0, 1)
    start = 1 + (i - 1) * WIDTH
    return range(start, start + WIDTH)


def ladder_text(seed: int) -> str:
    """Model text of the ladder for one seed, in the format load_model reads."""
    rng = random.Random(seed)
    edges: dict[int, tuple[int, int]] = {}
    for i in range(LAYERS + 1):
        nxt = _layer(i + 1)
        for s in _layer(i):
            edges[s] = (rng.choice(nxt), rng.choice(nxt))

    # probability that a uniformly random walk visits each state
    visit = {0: 1.0}
    for i in range(LAYERS + 1):
        for s in _layer(i):
            p = visit.get(s, 0.0) / 2.0
            for t in edges[s]:
                visit[t] = visit.get(t, 0.0) + p
    sinks = list(_layer(LAYERS + 1))
    best = max(sinks, key=lambda s: (visit.get(s, 0.0), -s))
    grades = [0.5 * R_MAX * (k + 1) / WIDTH for k in range(WIDTH)]
    rng.shuffle(grades)

    lines = ["mdp", f"states {STATE_COUNT}", "init 0", "pmin 1"]
    for s, g in zip(sinks, grades):
        lines.append(f"reward {s} {R_MAX if s == best else g!r}")
    for s, (ta, tb) in edges.items():
        lines.append(f"t {s} a {ta} 1")
        lines.append(f"t {s} b {tb} 1")
    for s in sinks:
        lines.append(f"t {s} stay {s} 1")
    return "\n".join(lines) + "\n"
