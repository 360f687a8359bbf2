"""The package root's public namespace, its settings, and the benchmark's use of it."""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import mppac
from mppac import learn_ctmdp
from mppac.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def test_star_import_binds_no_module():
    namespace: dict = {}
    exec("from mppac import *", namespace)
    modules = sorted(name for name, obj in namespace.items() if isinstance(obj, ModuleType))
    assert modules == []


def test_all_names_resolve():
    assert all(hasattr(mppac, name) for name in mppac.__all__)


def test_test_references_are_not_exported():
    # the references live in tests/reference.py; the others are gone
    references = {
        "bellman_blackbox", "bellman_greybox", "global_update", "deflate", "ctmdp_mec_gain", "lower_tp_estimate",
        "embedded_mdp", "enumerate_policies_gain", "model_graph",
    }
    removed = {
        "stay_distribution", "estimate_rate", "rate_interval", "rate_inconfidence_parts", "chernoff_minimizers",
        "boundary_rate_assignment", "StepSample", "find_mec_mp_bounds_heuristic", "WeightedQuotient",
        "build_weighted_quotient",
    }
    assert not any(hasattr(mppac, name) for name in references | removed)


def test_exports_only_what_a_run_executes():
    # an exported name must be read somewhere in the package, the benchmark
    # or the scripts; what only the tests read belongs in tests/reference.py
    sources = [p for p in (ROOT / "src" / "mppac").glob("*.py") if p.name != "__init__.py"]
    sources += [*(ROOT / "bench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    assert sorted(set(mppac.__all__) - used) == []


def test_modules_read_every_name_they_import():
    # an import that nothing reads is dead code, or a binding kept for
    # someone else, which is marked "# noqa: F401" and says for whom
    unused = []
    for path in sorted((ROOT / "src" / "mppac").glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_knob_inventory():
    # every setting doubles the configurations that tests and the benchmark
    # must cover: a new one is added here on purpose, with a caller that
    # needs a second value
    fields = {f.name for f in dataclasses.fields(mppac.LearnerConfig)}
    assert fields == {
        "epsilon_mp", "delta_mp", "episodes_per_round", "precision_mode", "timeout_s", "seed", "update_style",
        "anytime",
    }
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for action in sub.choices["run"]._actions for opt in action.option_strings}
    assert options - {"-h", "--help"} == {
        "--model", "--mode", "--epsilon", "--delta", "--episodes-per-round", "--timeout-s", "--seed", "--csv",
        "--svg", "--anytime", "--absolute",
    }


def test_defaulted_parameter_inventory():
    # an optional parameter is a setting too: each one here has a caller
    # outside the tests that needs its default and another that sets it
    defaults = set()
    for path in sorted((ROOT / "src" / "mppac").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(f): f"{c.name}." for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):]
                named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                defaults |= {(path.stem, owner.get(id(node), "") + node.name, a.arg) for a in named}
    assert defaults == {
        ("cli", "main", "argv"),
        ("learn_mdp", "on_demand_bvi", "config"),
        ("learn_ctmdp", "on_demand_bvi_ctmdp", "config"),
        ("learn_mdp", "update_mec_value", "bound"),
        ("model", "SampleOracle.__init__", "info_level"),
        ("model", "SampleOracle.__init__", "rng_seed"),
    }


def test_benchmark_bindings_resolve(monkeypatch):
    # bench/tracer.py swaps functions by module and name and raises if one is
    # missing or bound to another function in some namespace; bench/run.py
    # clears learn_ctmdp's alpha cache between runs
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracer

    with tracer.Tracer().patched():
        pass
    assert callable(learn_ctmdp._ALPHA_CACHE.clear)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["episodes-random5", "walk-ctmdp", "ladder-greybox"])
def test_benchmark_run_is_correct(workload, trace):
    # one short run of a workload through the benchmark's own gates: whitebox
    # containment, identical results at the same seed, every oracle step seen
    # by the timed oracle, self times that add up to the call, and metric
    # names that match BENCHMARK.json
    argv = ["bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", trace]
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True, done.stdout
