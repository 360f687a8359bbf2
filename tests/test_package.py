"""The package root's public namespace."""

from __future__ import annotations

import argparse
import dataclasses
from types import ModuleType

import mppac
from mppac.cli import build_parser


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
        "bellman_blackbox", "bellman_greybox", "global_update", "deflate", "ctmdp_mec_gain", "lower_tp_estimate"
    }
    removed = {
        "stay_distribution", "estimate_rate", "rate_interval", "rate_inconfidence_parts", "chernoff_minimizers",
        "boundary_rate_assignment",
    }
    assert not any(hasattr(mppac, name) for name in references | removed)


def test_knob_inventory():
    # every setting doubles the configurations that tests and the benchmark
    # must cover: a new one is added here on purpose, with a caller that
    # needs a second value
    fields = {f.name for f in dataclasses.fields(mppac.LearnerConfig)}
    assert fields == {
        "epsilon_mp", "delta_mp", "episodes_per_round", "precision_mode", "timeout_s", "seed", "update_style",
        "anytime", "exact_mec_bounds",
    }
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for action in sub.choices["run"]._actions for opt in action.option_strings}
    assert options - {"-h", "--help"} == {
        "--model", "--mode", "--epsilon", "--delta", "--episodes-per-round", "--timeout-s", "--seed", "--csv",
        "--svg", "--anytime", "--exact-mec-bounds", "--absolute",
    }
