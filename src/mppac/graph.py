"""Maximal end-component decomposition and sure-EC detection.

The decomposition and the leaving actions work over any adjacency view
mapping (state, action) to a collection of successors (a set, or a learned
{successor: count} dict, whose keys are the successors), so the same code
serves full models (whitebox) and learned partial models. The sure-EC
checks read a learned {successor: count} mapping, whose values sum to the
pair's sample count, and take the sample threshold a staying pair must
meet from the caller, so this module needs no statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

# Label of the synthetic stay action attached to confirmed MECs. '~' sorts
# after alphanumerics, so label tie-breaks prefer real actions over stay.
STAY = "~stay"

# Pseudo-states of the stay-augmented model; negative so they can never
# collide with real (dense, 0-based) state indices.
PLUS = -1  # reach-value-1 terminal
MINUS = -2  # reach-value-0 terminal
UNKNOWN = -3  # undecided terminal


class ClosedMec(Exception):
    """A MEC with no leaving action and no stay attached yet."""


@dataclass
class MecRecord:
    """A candidate maximal end component and what is known about its gain."""

    states: frozenset[int]
    actions: dict[int, frozenset[str]]  # retained staying actions per state
    gain_lower: float = 0.0  # scaled to [0,1] by the learner's r_max_seen
    gain_upper: float = 1.0

    def key(self) -> tuple:
        """Identity of the record: exact state and action sets."""
        return (self.states, tuple(sorted((s, a) for s, av in self.actions.items() for a in av)))


def _sccs(states, edges) -> list[frozenset[int]]:
    """Strongly connected components, iterative Tarjan (explicit stack)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    comps: list[frozenset[int]] = []
    counter = 0

    for root in sorted(states):
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(sorted(edges.get(root, ()))))]
        while work:
            s, it = work[-1]
            pushed = False
            for t in it:
                if t not in index:
                    index[t] = low[t] = counter
                    counter += 1
                    stack.append(t)
                    on_stack.add(t)
                    work.append((t, iter(sorted(edges.get(t, ())))))
                    pushed = True
                    break
                if t in on_stack:
                    low[s] = min(low[s], index[t])
            if pushed:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[s])
            if low[s] == index[s]:
                comp = set()
                while True:
                    t = stack.pop()
                    on_stack.discard(t)
                    comp.add(t)
                    if t == s:
                        break
                comps.append(frozenset(comp))
    return comps


def mec_decomposition(graph) -> list[MecRecord]:
    """All maximal end components of an adjacency view.

    Standard fixed point: restrict to actions staying inside the candidate
    set, split along SCCs of the restricted graph, repeat until every
    candidate is one SCC in which every state keeps an action. Pairs are
    bucketed by source state once, so a candidate costs time linear in its
    own states' pairs rather than in the whole graph.
    """
    all_states: set[int] = set()
    by_source: dict[int, list[tuple[str, frozenset[int]]]] = {}
    for (s, a), ts in graph.items():
        ts = frozenset(ts)
        by_source.setdefault(s, []).append((a, ts))
        all_states.add(s)
        all_states |= ts
    if not all_states:
        return []

    mecs: list[MecRecord] = []
    work = [frozenset(all_states)]
    while work:
        cand = work.pop()
        if len(cand) == 1:
            # a single state is a MEC exactly when some of its actions loop on
            # it, and it keeps exactly those actions; no Tarjan pass is needed
            (s,) = cand
            loops = [a for a, ts in by_source.get(s, ()) if ts <= cand]
            if loops:
                mecs.append(MecRecord(states=cand, actions={s: frozenset(loops)}))
            continue
        inside = {s: [(a, ts) for a, ts in by_source.get(s, ()) if ts <= cand] for s in cand}
        comps = _sccs(cand, {s: set().union(*(ts for _, ts in pairs)) for s, pairs in inside.items()})
        if len(comps) > 1:
            work.extend(comps)  # strictly smaller, so the loop terminates
            continue
        # cand is one SCC of its own restricted graph with more than one
        # state, so every state keeps an action inside it
        retained = {s: frozenset(a for a, _ in pairs) for s, pairs in inside.items()}
        mecs.append(MecRecord(states=cand, actions=retained))
    mecs.sort(key=lambda m: min(m.states))
    return mecs


def kept_pairs(sources, within, available, post, need) -> dict:
    """The pairs reachable from sources over kept pairs, those sampled at
    least need times with every observed successor in within. A reached
    state keeps all its kept pairs, so a MEC holding a source is found."""
    graph = {}
    reached = set(sources)
    todo = list(reached)
    while todo:
        q = todo.pop()
        for a in available[q]:
            ts = post[(q, a)]
            if ts.keys() <= within and sum(ts.values()) >= need:
                graph[(q, a)] = ts
                todo.extend(t for t in ts if t not in reached)
                reached.update(ts)
    return graph


def is_delta_sure_ec(T, available, post, need: int) -> bool:
    """Strict sure-EC check for a state set T of the observed graph.

    A staying pair is any available (s, a), s in T, whose *observed*
    successors all lie in T — an unsampled action has empty observed post
    and therefore stays, so it blocks until sampled (count 0 never meets the
    threshold). True iff every staying pair has count >= need.
    """
    own = (post[(s, a)] for s in T for a in available[s])
    return all(sum(ts.values()) >= need for ts in own if ts.keys() <= T)


def find_delta_sure_mecs(sources, available, post, need: int) -> list[MecRecord]:
    """MECs of the observed pairs sampled at least need times, among what
    sources reach over those pairs: every such MEC that holds a source."""
    return mec_decomposition(kept_pairs(sources, available.keys(), available, post, need))


def leaving_pairs(M: MecRecord, available, post) -> list[tuple[int, str]]:
    """Real actions leaving M: available actions of M's states with an
    observed successor outside M, by state index, then availability order."""
    return [
        (s, a)
        for s in sorted(M.states)
        for a in available.get(s, ())
        if any(t not in M.states for t in post.get((s, a), ()))
    ]


def best_leaving_action(M: MecRecord, values, available, post) -> tuple[int, str]:
    """Best way out of MEC M.

    Candidates are leaving_pairs(M, available, post), plus stay wherever
    values holds an (s, STAY) entry. values maps (s, a) -> (lower, upper);
    the maximum upper wins, ties broken by higher lower, then lower state
    index, then action label.
    """
    cands = leaving_pairs(M, available, post)
    cands += [(s, STAY) for s in sorted(M.states) if (s, STAY) in values]
    if not cands:
        raise ClosedMec(f"MEC {sorted(M.states)} has no leaving action and no stay")

    def rank(sa):
        low, up = values[sa]
        return (-up, -low, sa[0], sa[1])

    return min(cands, key=rank)
