"""Benchmark of the mppac learner, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ``src/`` of the
same checkout; nothing is installed. One process, no threads, one learner
call at a time (a closed loop of one client).

The seed picks a panel of learner seeds (seed * P + i for i < P, one seed
where P = 1), each used for both the oracle and the learner; for the ladder
it also generates the model. With ``--trace 0`` the run sets the workload up
several times (median ``setup_s``), then makes passes over the panel, one
learner call per panel seed, while one more pass is expected to end within
``--seconds`` (always at least one pass). Each pass gives the mean seconds
and oracle steps per call; the end-to-end metrics are their medians over the
passes. With ``--trace 1`` it makes one untraced and one traced call at the
first panel seed and reports the per-layer metrics of the traced call.

Every call is checked: it must not raise or time out, its interval must
contain the whitebox value, its certified inconfidence must not exceed δ,
and calls at the same learner seed must give identical traces, oracle steps
and bounds. The whitebox reference is computed once per run, after the
timed calls.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name with its unit, the environment, and the layer
split. Workloads and metrics are described in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, replace
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# A call takes 1.5-4 s; the timeout (instead of the default 1800 s) keeps a
# run under 180 s even if a call hangs.
CALL_TIMEOUT_S = 60.0
# set-up is repeated until both floors are met; its median is reported
SETUP_MIN_REPS = 5
SETUP_MIN_S = 0.5


@dataclass(frozen=True)
class Workload:
    model: str | None  # path under the repository root; None = generated ladder
    mode: str  # "blackbox" | "greybox", as ``mppac run --mode``
    # learner seeds per pass: more than one where the work a call does
    # depends on its seed, so that a run averages over seeds
    panel: int
    focus: tuple[str, ...]  # per-layer metrics that should dominate the traced split
    # LearnerConfig fields set away from their defaults, so that one call
    # takes seconds and a run takes the median of several: on a shared
    # machine the speed drifts by up to a third over tens of seconds
    config: dict


WORKLOADS = {
    "episodes-random5": Workload(
        "models/random5.mdp", "blackbox", 16,
        ("model.self_s", "learn_mdp.simulate_episode.self_s"),
        {"epsilon_mp": 0.05},
    ),
    "walk-ctmdp": Workload(
        "models/cycle_rates.ctmdp", "blackbox", 1,
        ("learn_mdp.simulate_mec.s",),
        {"epsilon_mp": 0.05},
    ),
    "ladder-greybox": Workload(
        None, "greybox", 1,
        ("graph.self_s", "learn_mdp.vi_phase.s"),
        {"episodes_per_round": 1000},
    ),
}


def _import_package():
    """Import mppac from this checkout's src/, or exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "mppac", "__init__.py")):
        print(f"bench: no mppac package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import mppac

    if os.path.dirname(os.path.dirname(os.path.abspath(mppac.__file__))) != SRC:
        print(f"bench: imported mppac from {mppac.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return mppac


class Bench:
    def __init__(self, name: str, seed: int):
        import mppac
        from mppac import learn_ctmdp

        self.mppac = mppac
        self.learn_ctmdp = learn_ctmdp
        self.name = name
        self.seed = seed
        self.workload = WORKLOADS[name]
        self.panel = [seed * self.workload.panel + i for i in range(self.workload.panel)]
        greybox = self.workload.mode == "greybox"
        self.info_level = mppac.GREYBOX if greybox else mppac.BLACKBOX
        self.config = mppac.LearnerConfig(
            update_style=mppac.GREYBOX_UPDATES if greybox else mppac.BLACKBOX_UPDATES,
            timeout_s=CALL_TIMEOUT_S,
            **self.workload.config,
        )
        self.generated = None
        if self.workload.model is None:
            import ladder

            os.makedirs(WORK, exist_ok=True)
            self.generated = os.path.join(WORK, f"ladder-s{seed}-{os.getpid()}.mdp")
            with open(self.generated, "w", encoding="utf-8") as fh:
                fh.write(ladder.ladder_text(seed))
            self.path = self.generated
        else:
            self.path = os.path.join(ROOT, self.workload.model)
        self.model = None
        self.failures: list[str] = []  # every breach, for the log
        self.attempted = 0
        self.failed = 0  # calls with at least one breach

    def close(self) -> None:
        if self.generated is not None and os.path.exists(self.generated):
            os.remove(self.generated)

    # -- set-up ----------------------------------------------------------

    def setup(self) -> tuple[float, float]:
        """Median seconds of load_model, and of load_model plus SampleOracle."""
        load_s, setup_s = [], []
        t_start = perf_counter()
        while len(setup_s) < SETUP_MIN_REPS or perf_counter() - t_start < SETUP_MIN_S:
            t0 = perf_counter()
            model = self.mppac.load_model(self.path)
            t1 = perf_counter()
            self.mppac.SampleOracle(model, self.info_level, rng_seed=self.seed)
            t2 = perf_counter()
            load_s.append(t1 - t0)
            setup_s.append(t2 - t0)
        self.model = model
        return statistics.median(load_s), statistics.median(setup_s)

    # -- learner calls ---------------------------------------------------

    def entry(self):
        if self.model.kind == self.mppac.CTMDP:
            return self.mppac.on_demand_bvi_ctmdp
        return self.mppac.on_demand_bvi

    def call(self, seed: int, oracle=None, entry=None):
        """One learner call at a learner seed: (seed, report, oracle steps,
        seconds), or None if it raised."""
        if oracle is None:
            oracle = self.mppac.SampleOracle(self.model, self.info_level, rng_seed=seed)
        if entry is None:
            entry = self.entry()
        # achieved_rate_alpha memoises in a module-level dict; clear it so each
        # call pays what a fresh process pays, whatever ran before it
        self.learn_ctmdp._ALPHA_CACHE.clear()
        self.attempted += 1
        t0 = perf_counter()
        try:
            report = entry(oracle, replace(self.config, seed=seed))
        except Exception:
            traceback.print_exc()
            self.failures.append(f"seed {seed}: raised")
            self.failed += 1
            return None
        return seed, report, oracle.steps_sampled, perf_counter() - t0

    def check(self, results, value: float) -> None:
        """Correctness gate over the calls of this run."""
        tol = self.mppac.whitebox.BETA * max(1.0, self.model.r_max)
        first = {}
        for seed, report, steps, _ in results:
            reasons = []
            if report.timed_out:
                reasons.append("timed out")
            if not report.final[0] - tol <= value <= report.final[1] + tol:
                reasons.append(f"interval {report.final} misses whitebox value {value!r}")
            if report.certified_inconfidence > self.config.delta_mp:
                reasons.append(f"certified inconfidence {report.certified_inconfidence!r}")
            sig = (report.trace, steps, report.final, report.episodes, report.rounds)
            if first.setdefault(seed, sig) != sig:
                reasons.append("differs from an earlier call at the same seed")
            self.failures.extend(f"seed {seed}: {r}" for r in reasons)
            self.failed += bool(reasons)

    def whitebox_value(self, exact=None) -> float:
        if exact is None:
            exact = self.mppac.exact_mean_payoff
        value = exact(self.model)
        if self.generated is not None:
            import ladder

            if abs(value - ladder.R_MAX) > self.mppac.whitebox.BETA:
                self.failures.append(f"ladder value {value!r} is not R_MAX {ladder.R_MAX!r}")
        return value


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_untraced(bench: Bench, seconds: float) -> dict:
    _, setup_s = bench.setup()
    results = []
    passes = []  # (seconds per call, oracle steps per call, steps per second)
    t_start = perf_counter()
    while True:
        t_pass = perf_counter()
        calls = [bench.call(seed) for seed in bench.panel]
        results.extend(c for c in calls if c is not None)
        if bench.failed:
            break
        secs = sum(c[3] for c in calls)
        steps = sum(c[2] for c in calls)
        passes.append((secs / len(calls), steps / len(calls), steps / secs))
        now = perf_counter()
        if now - t_start + (now - t_pass) > seconds:
            break
    peak = _peak_rss_mb()  # before the whitebox solve, which is not the learner's
    value = bench.whitebox_value()
    bench.check(results, value)
    if not passes:
        return {}
    print(f"info calls {len(results)} passes {len(passes)} whitebox {value!r}")
    print("info solve_s per call " + " ".join(f"{r[3]:.4f}" for r in results))
    print(f"metric final_width {statistics.median(r[1].width for r in results)!r} reward")
    return {
        "solve_s": statistics.median(p[0] for p in passes),
        "oracle_steps": statistics.median(p[1] for p in passes),
        "steps_per_s": statistics.median(p[2] for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": peak,
    }


def run_traced(bench: Bench) -> dict:
    from mppac import cli
    from tracer import TimedOracle, Tracer

    load_s, _ = bench.setup()
    seed = bench.panel[0]
    plain = bench.call(seed)

    tracer = Tracer()
    oracle = TimedOracle(tracer, bench.model, bench.info_level, seed)
    root = tracer.wrap("learn_mdp.learn", bench.entry(), span=True)
    with tracer.patched():
        traced = bench.call(seed, oracle, root)

    wb = Tracer()
    exact = wb.wrap("whitebox.exact_mean_payoff", bench.mppac.exact_mean_payoff, span=True)
    with wb.patched():
        value = bench.whitebox_value(exact)
    bench.check([r for r in (plain, traced) if r is not None], value)

    t0 = perf_counter()
    for alpha in cli.TABLE_ALPHAS:
        for delta in cli.TABLE_DELTAS:
            bench.mppac.rate_samples(alpha, delta)
    rates_table_s = perf_counter() - t0

    os.makedirs(WORK, exist_ok=True)
    tracer.write_spans(os.path.join(WORK, f"spans-{bench.name}-s{bench.seed}.jsonl"))
    if plain is None or traced is None:
        return {}

    a = tracer.agg
    _, report, steps, solve_s = traced

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    refine_calls, vi_only = tracer.spans_by_parent("learn_mdp.refine", "learn_mdp.simulate_mec")
    m = {
        "model.load_model.s": load_s,
        "model.sample_step.calls": a["model.sample_step"].calls,
        "model.sample_step.s": a["model.sample_step"].s,
        "model.sample_step.us_per_call": 1e6 * ratio(a["model.sample_step"].s, a["model.sample_step"].calls),
    }
    for name in ("learn_mdp.simulate_episode", "learn_mdp.simulate_mec"):
        m[f"{name}.calls"] = a[name].calls
        m[f"{name}.s"] = a[name].s
        m[f"{name}.self_s"] = a[name].self_s
    m["learn_mdp.simulate_episode.steps_per_call"] = ratio(
        a["learn_mdp.simulate_episode"].steps, a["learn_mdp.simulate_episode"].calls
    )
    m["learn_mdp.simulate_mec.steps"] = a["learn_mdp.simulate_mec"].steps
    m["learn_mdp.simulate_mec.escapes"] = a["learn_mdp.simulate_mec"].hits
    m["learn_mdp.refine.calls"] = refine_calls
    m["learn_mdp.refine.vi_only_ratio"] = ratio(vi_only, refine_calls)
    m["learn_mdp.vi_phase.calls"] = a["learn_mdp.vi_phase"].calls
    m["learn_mdp.vi_phase.s"] = a["learn_mdp.vi_phase"].s
    m["learn_mdp.sweep.calls"] = a["learn_mdp.sweep"].calls
    m["learn_mdp.interval_gain_vi.calls"] = a["learn_mdp.interval_gain_vi"].calls
    m["learn_mdp.interval_gain_vi.s"] = a["learn_mdp.interval_gain_vi"].s
    m["learn_mdp.looping.calls"] = a["learn_mdp.looping"].calls
    m["learn_mdp.looping.confirm_ratio"] = ratio(a["learn_mdp.looping"].hits, a["learn_mdp.looping"].calls)
    m["learn_mdp.discovered_states"] = oracle.discovered_states
    m["learn_mdp.discovered_pairs"] = oracle.discovered_pairs
    m["learn_mdp.episodes"] = report.episodes
    m["learn_mdp.rounds"] = report.rounds
    m["learn_mdp.learn.self_s"] = a["learn_mdp.learn"].self_s
    for name in (
        "graph.find_delta_sure_mecs",
        "graph.mec_decomposition",
        "graph.best_leaving_action",
        "stats.rate_inconfidence",
        "learn_ctmdp.mec_bounds",
        "learn_ctmdp.achieved_rate_alpha",
    ):
        m[f"{name}.calls"] = a[name].calls
        m[f"{name}.s"] = a[name].s
    m["stats.rates_table.s"] = rates_table_s
    m["whitebox.exact_mean_payoff.s"] = wb.agg["whitebox.exact_mean_payoff"].s
    m["whitebox.mec_decomposition.s"] = wb.agg["graph.mec_decomposition"].s

    layers = {}
    for name, agg in a.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + agg.self_s
    for layer in ("model", "learn_mdp", "graph", "stats", "learn_ctmdp"):
        m[f"{layer}.self_s"] = layers.get(layer, 0.0)
    self_sum = sum(layers.values())
    m["trace.solve_s"] = solve_s
    m["trace.self_sum_s"] = self_sum
    m["trace.overhead_s"] = solve_s - plain[3]
    m["trace.focus_share"] = sum(m[k] for k in bench.workload.focus) / solve_s

    # the wrappers must see every oracle step, and their self times must
    # account for the whole call
    if m["model.sample_step.calls"] != steps:
        bench.failures.append(f"sample_step calls {m['model.sample_step.calls']} != oracle steps {steps}")
    if abs(self_sum - solve_s) > 0.1 * solve_s:
        bench.failures.append(f"self times sum to {self_sum!r} s of a {solve_s!r} s call")
    for layer in sorted(layers, key=layers.get, reverse=True):
        print(f"split {layer} self {layers[layer]:.4f} s share {layers[layer] / solve_s:.3f}")
    print(f"focus {' + '.join(bench.workload.focus)} share {m['trace.focus_share']:.3f}")
    return m


def _declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _nonnegative(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative")
    return n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=_nonnegative, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    units = _declared_units(args.trace)
    mppac = _import_package()
    import numpy

    print(f"env nproc {os.cpu_count()} python {platform.python_version()} "
          f"numpy {numpy.__version__} loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} mppac {mppac.__version__}")

    bench = Bench(args.workload, args.seed)
    try:
        metrics = run_traced(bench) if args.trace else run_untraced(bench, args.seconds)
    finally:
        bench.close()

    if metrics and set(metrics) != set(units):
        bench.failures.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for reason in bench.failures:
        print(f"failure {reason}")
    attempted = max(1, bench.attempted)
    print(f"metric failed_runs {bench.failed / attempted!r} share")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units.get(name, '')}")
    print(json.dumps({
        "correct": not bench.failures and bool(metrics),
        "attempted": attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
