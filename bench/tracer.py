"""Per-layer tracing of one learner call, built from outside the package.

The tracer swaps module-level functions of the mppac layers for timing
wrappers, in every namespace that binds them (the defining module and each
module that did ``from .x import name``), and restores them on exit. Oracle
steps are timed by a SampleOracle subclass. Nothing here draws random
numbers, so the oracle's and the learner's Philox streams are untouched.

Every wrapped call pushes a frame; on return its duration is charged to the
parent frame, so a layer's self time is its duration minus its children's.
Calls that happen once per step or per episode are only aggregated (count,
seconds, self seconds, oracle steps underneath); coarse calls also record a
span with the id of the enclosing span, kept in memory until written out.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter

from mppac import graph, learn_ctmdp, learn_mdp, stats, whitebox
from mppac.model import SampleOracle


class Frame:
    __slots__ = ("child_s", "steps", "span_id")

    def __init__(self, span_id: int):
        self.child_s = 0.0  # time spent in wrapped callees
        self.steps = 0  # oracle steps inside this call, callees included
        self.span_id = span_id


class Agg:
    __slots__ = ("calls", "s", "self_s", "steps", "hits")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.steps = 0
        self.hits = 0  # calls whose result passed the hit test in LAYERS


# (name, namespaces binding the function, attribute, record spans?, hit test).
# Entries sharing a name share one aggregate. A hit is an escape for
# simulate_mec (the walk left the MEC) and a confirmed end component for
# looping.
LAYERS = (
    ("learn_mdp.simulate_episode", (learn_mdp, learn_ctmdp), "simulate_episode", False, None),
    ("learn_mdp.simulate_mec", (learn_mdp, learn_ctmdp), "simulate_mec", True, lambda r: r is False),
    ("learn_mdp.refine", (learn_mdp,), "update_mec_value", True, None),
    ("learn_mdp.refine", (learn_ctmdp,), "_refine_mec_ctmdp", True, None),
    ("learn_mdp.vi_phase", (learn_mdp,), "_vi_phase", True, None),
    ("learn_mdp.sweep", (learn_mdp,), "_sweep_once", False, None),
    ("learn_mdp.interval_gain_vi", (learn_mdp, learn_ctmdp), "_interval_gain_vi", False, None),
    ("learn_mdp.looping", (learn_mdp,), "looping", False, lambda r: r is not None),
    ("graph.find_delta_sure_mecs", (graph, learn_mdp), "find_delta_sure_mecs", True, None),
    ("graph.mec_decomposition", (graph, learn_mdp, whitebox), "mec_decomposition", True, None),
    ("graph.best_leaving_action", (graph, learn_mdp), "best_leaving_action", False, None),
    ("stats.rate_inconfidence", (stats, learn_ctmdp), "rate_inconfidence", False, None),
    ("learn_ctmdp.mec_bounds", (learn_ctmdp,), "find_mec_mp_bounds_heuristic", True, None),
    ("learn_ctmdp.mec_bounds", (learn_ctmdp,), "find_mec_mp_bounds_exact", True, None),
    ("learn_ctmdp.achieved_rate_alpha", (learn_ctmdp,), "achieved_rate_alpha", False, None),
)


class Tracer:
    """Frames, aggregates and spans of the calls made inside ``patched()``."""

    def __init__(self):
        self.stack = [Frame(0)]
        self.agg: dict[str, Agg] = {}
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, self seconds)

    def stat(self, name: str) -> Agg:
        agg = self.agg.get(name)
        if agg is None:
            agg = self.agg[name] = Agg()
        return agg

    def wrap(self, name: str, fn, span: bool = False, hit=None):
        stack = self.stack
        spans = self.spans
        agg = self.stat(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = stack[-1]
            frame = Frame(len(spans) + 1 if span else parent.span_id)
            if span:
                spans.append(None)  # reserve the id so child spans sort after
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent.child_s += dur
                parent.steps += frame.steps
                agg.calls += 1
                agg.s += dur
                agg.self_s += dur - frame.child_s
                agg.steps += frame.steps
                if span:
                    spans[frame.span_id - 1] = (
                        frame.span_id, parent.span_id, name, t0, t1, dur - frame.child_s
                    )
            if hit is not None and hit(result):
                agg.hits += 1
            return result

        return timed

    @contextmanager
    def patched(self):
        """Swap every function in LAYERS for its timing wrapper."""
        saved = []
        try:
            for name, modules, attr, span, hit in LAYERS:
                fn = getattr(modules[0], attr)
                wrapped = self.wrap(name, fn, span, hit)
                for mod in modules:
                    if getattr(mod, attr) is not fn:
                        raise RuntimeError(f"{mod.__name__}.{attr} is not {modules[0].__name__}.{attr}")
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def spans_by_parent(self, name: str, child: str) -> tuple[int, int]:
        """(spans named ``name``, those of them with no direct ``child`` span)."""
        ids = {sp[0] for sp in self.spans if sp[2] == name}
        with_child = {sp[1] for sp in self.spans if sp[2] == child and sp[1] in ids}
        return len(ids), len(ids - with_child)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, self_s in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": t0, "end": t1, "self_s": self_s,
                }) + "\n")


class TimedOracle(SampleOracle):
    """SampleOracle whose sample_step is counted and timed in aggregate; one
    span per step would not fit in memory on the larger workloads. It also
    counts the states and pairs the learner discovers: the learner asks for
    a state's actions exactly once, when it first sees the state."""

    def __init__(self, tracer: Tracer, model, info_level: str, rng_seed: int):
        super().__init__(model, info_level, rng_seed)
        self._stack = tracer.stack
        self._agg = tracer.stat("model.sample_step")
        self.discovered_states = 0
        self.discovered_pairs = 0

    def available_actions(self, s):
        actions = super().available_actions(s)
        self.discovered_states += 1
        self.discovered_pairs += len(actions)
        return actions

    def sample_step(self, s, a):
        t0 = perf_counter()
        out = SampleOracle.sample_step(self, s, a)
        dur = perf_counter() - t0
        top = self._stack[-1]
        top.child_s += dur
        top.steps += 1
        agg = self._agg
        agg.calls += 1
        agg.s += dur
        agg.self_s += dur
        agg.steps += 1
        return out
