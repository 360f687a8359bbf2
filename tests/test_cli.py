"""Command-line interface: argument handling, output files, and exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mppac import LearnerConfig, exact_bracket, load_model
from mppac.cli import (
    MODES,
    TABLE_ALPHAS,
    TABLE_DELTAS,
    RunConfig,
    _parse_seeds,
    _run_one,
    _suffixed,
    build_parser,
    config_from_args,
    main,
    run,
)
from mppac.stats import rate_samples

from .test_golden_traces import load_golden

ROOT = Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# seed list parsing


def test_parse_seeds_range_is_inclusive():
    assert _parse_seeds("1..20") == tuple(range(1, 21))
    assert _parse_seeds("7..7") == (7,)


def test_parse_seeds_comma_list():
    assert _parse_seeds("1,5,9") == (1, 5, 9)
    assert _parse_seeds("3") == (3,)


def test_parse_seeds_strips_whitespace():
    assert _parse_seeds("  2..4 ") == (2, 3, 4)


def test_parse_seeds_rejects_empty_range():
    with pytest.raises(ValueError, match="empty seed range"):
        _parse_seeds("9..1")


def test_parse_seeds_rejects_garbage():
    with pytest.raises(ValueError):
        _parse_seeds("one,two")


# ---------------------------------------------------------------------------
# output file naming


def test_suffixed_inserts_seed_before_extension():
    assert _suffixed("out.csv", 3, ".csv") == "out_s3.csv"
    assert _suffixed("plot.svg", 12, ".svg") == "plot_s12.svg"


def test_suffixed_defaults_to_csv_extension():
    assert _suffixed("trace", 7, ".csv") == "trace_s7.csv"


# ---------------------------------------------------------------------------
# argument parsing and config construction


def _run_args(*extra: str):
    return build_parser().parse_args(["run", "--model", "m.mdp", *extra])


def test_config_defaults():
    config = config_from_args(_run_args())
    assert config.mode == "blackbox"
    assert config.seeds == (0,)
    assert config.learner.epsilon_mp == 0.01
    assert config.learner.delta_mp == 0.1
    assert config.learner.precision_mode == "relative"
    assert not config.learner.anytime


def test_config_flags_map_to_learner_fields():
    config = config_from_args(
        _run_args(
            "--epsilon", "0.05",
            "--delta", "0.02",
            "--timeout-s", "9.5",
            "--anytime",
            "--absolute",
        )
    )
    assert config.learner.epsilon_mp == 0.05
    assert config.learner.delta_mp == 0.02
    assert config.learner.timeout_s == 9.5
    assert config.learner.anytime
    assert config.learner.precision_mode == "absolute"


@pytest.mark.parametrize("text, seeds", [("7", (7,)), ("5..7", (5, 6, 7)), ("1,4", (1, 4))])
def test_config_seed_takes_the_seed_list_grammar(text, seeds):
    assert config_from_args(_run_args("--seed", text)).seeds == seeds


def test_parser_rejects_unknown_mode():
    with pytest.raises(SystemExit):
        _run_args("--mode", "telepathy")


def test_parser_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_modes_tuple():
    assert MODES == ("blackbox", "blackbox-grey-updates", "greybox")


# ---------------------------------------------------------------------------
# rates-table subcommand


def test_rates_table_prints_full_grid(capsys):
    assert main(["rates-table"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 1 + len(TABLE_ALPHAS)
    header, *rows = lines
    for delta in TABLE_DELTAS:
        assert f"δ={delta:g}" in header
    for alpha, row in zip(TABLE_ALPHAS, rows):
        assert row.startswith(f"{alpha:.0%}")
        cells = [int(tok) for tok in row.split()[1:]]
        assert cells == [rate_samples(alpha, d) for d in TABLE_DELTAS]
        assert cells == sorted(cells)  # shrinking δ demands more samples


# ---------------------------------------------------------------------------
# lint subcommand


def test_lint_reports_reachability_and_pmin(models_dir, capsys):
    assert main(["lint", str(models_dir / "two_mec.mdp")]) == 0
    out = capsys.readouterr().out
    assert "OK, 3 states reachable of 3" in out
    assert "pmin declared 1" in out
    assert "smallest transition probability 1" in out
    assert "unreachable" not in out


def test_lint_ctmdp_uses_embedded_probabilities(models_dir, capsys):
    assert main(["lint", str(models_dir / "cycle_rates.ctmdp")]) == 0
    out = capsys.readouterr().out
    assert "OK, 2 states reachable of 2" in out
    assert "smallest transition probability 1" in out


def test_lint_notes_unreachable_states(tmp_path, capsys):
    text = """mdp
states 3
init 0
pmin 1.0
reward 1 1.0
t 0 a 1 1.0
t 1 a 0 1.0
t 2 loop 2 1.0
"""
    path = tmp_path / "orphan.mdp"
    path.write_text(text)
    assert main(["lint", str(path)]) == 0
    out = capsys.readouterr().out
    assert "OK, 2 states reachable of 3" in out
    assert "note: unreachable states [2]" in out


def test_lint_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.mdp"
    path.write_text("mdp\nstates nope\n")
    assert main(["lint", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line 2" in err


def test_lint_missing_file_exits_2(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "absent.mdp")]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve-whitebox subcommand


def test_solve_whitebox_prints_value(models_dir, capsys):
    for name in ("two_mec.mdp", "cycle_entry.mdp"):
        lo, hi = exact_bracket(load_model(models_dir / name))
        assert main(["solve-whitebox", str(models_dir / name)]) == 0
        assert capsys.readouterr().out == f"[{lo:.10g}, {hi:.10g}]\n"
    # cycle_entry's bracket is about 1e-9 wide, so its ends print apart
    assert float(f"{lo:.10g}") < float(f"{hi:.10g}")


def test_solve_whitebox_ctmdp(models_dir, capsys):
    assert main(["solve-whitebox", str(models_dir / "cycle_rates.ctmdp")]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("[") and out.endswith("]")
    lo, hi = (float(v) for v in out[1:-1].split(", "))
    assert lo <= 1 / 3 <= hi
    assert hi - lo < 2e-9


def test_solve_whitebox_missing_file_exits_2(tmp_path, capsys):
    assert main(["solve-whitebox", str(tmp_path / "absent.mdp")]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run subcommand


def _read_trace(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "time_s,episodes,lower,upper"
    rows = []
    for line in lines[1:]:
        t, episodes, low, up = line.split(",")
        rows.append((float(t), int(episodes), float(low), float(up)))
    return rows


def test_run_single_seed_writes_csv_and_svg(models_dir, tmp_path, capsys):
    csv_path = tmp_path / "trace.csv"
    svg_path = tmp_path / "trace.svg"
    code = main(
        [
            "run",
            "--model", str(models_dir / "two_mec.mdp"),
            "--seed", "1",
            "--csv", str(csv_path),
            "--svg", str(svg_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "final interval:" in out
    assert "certified inconfidence: 0.1" in out

    rows = _read_trace(csv_path)
    assert rows, "trace must contain at least one row"
    times = [r[0] for r in rows]
    episodes = [r[1] for r in rows]
    assert times == sorted(times)
    assert episodes == sorted(episodes)
    for _, _, low, up in rows:
        assert 0.0 <= low <= up <= 1.0
    final_low, final_up = rows[-1][2], rows[-1][3]
    assert final_low <= 1.0 <= final_up  # two_mec optimum in reward units
    assert final_up - final_low < 0.02

    svg = svg_path.read_text()
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert "upper bound" in svg and "lower bound" in svg


def test_run_missing_model_exits_2(tmp_path, capsys):
    assert main(["run", "--model", str(tmp_path / "nope.mdp")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_bad_seed_list_exits_2(models_dir, capsys):
    code = main(
        ["run", "--model", str(models_dir / "two_mec.mdp"), "--seed", "9..1"]
    )
    assert code == 2
    assert "empty seed range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seed", "-1", "negative seed"),
        ("--delta", "0", "delta_mp"),
        ("--delta", "1.5", "delta_mp"),
        ("--epsilon", "-1", "epsilon_mp"),
        ("--episodes-per-round", "0", "episodes_per_round"),
        ("--timeout-s", "0", "timeout_s"),
        ("--timeout-s", "-1", "timeout_s"),
    ],
    ids=[
        "negative-seed", "delta-0", "delta-1.5", "negative-epsilon", "no-episodes", "timeout-0", "negative-timeout",
    ],
)
def test_run_out_of_range_input_exits_2(models_dir, capsys, flag, value, message):
    # the timeout only bounds a run that the input check fails to stop;
    # argparse keeps the last --timeout-s, so the timeout cases override it
    code = main(["run", "--model", str(models_dir / "two_mec.mdp"), "--timeout-s", "1", flag, value])
    assert code == 2
    assert message in capsys.readouterr().err


def test_run_multi_seed_writes_per_seed_files_and_coverage(
    models_dir, tmp_path, capsys
):
    csv_path = tmp_path / "multi.csv"
    code = main(
        [
            "run",
            "--model", str(models_dir / "two_mec.mdp"),
            "--seed", "1..3",
            "--csv", str(csv_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    for seed in (1, 2, 3):
        assert f"seed {seed}:" in out
        assert (tmp_path / f"multi_s{seed}.csv").exists()
    assert not csv_path.exists()  # only suffixed files in repeated mode
    assert "coverage: 3/3 runs meet the whitebox bracket [1, 1] of width 0; mean width " in out


def test_run_multi_seed_keeps_csv_and_svg_apart_without_extensions(models_dir, tmp_path):
    out = str(tmp_path / "out")
    config = RunConfig(str(models_dir / "two_mec.mdp"), csv_path=out, svg_path=out, seeds=(1, 2))
    assert run(config) == 0
    for seed in (1, 2):
        assert _read_trace(tmp_path / f"out_s{seed}.csv")
        assert (tmp_path / f"out_s{seed}.svg").read_text().startswith("<svg ")


def test_run_dispatches_ctmdp_models(models_dir, tmp_path, capsys):
    csv_path = tmp_path / "ct.csv"
    code = main(
        [
            "run",
            "--model", str(models_dir / "nonuniform.ctmdp"),
            "--seed", "3",
            "--csv", str(csv_path),
        ]
    )
    assert code == 0
    assert "final interval:" in capsys.readouterr().out
    rows = _read_trace(csv_path)
    final_low, final_up = rows[-1][2], rows[-1][3]
    assert final_low <= 1.0 <= final_up
    assert final_up - final_low < 0.05


def test_run_timeout_still_exits_0(models_dir, capsys):
    code = main(
        [
            "run",
            "--model", str(models_dir / "random5.mdp"),
            "--seed", "0",
            "--timeout-s", "0.5",
            "--episodes-per-round", "200",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "stopped by timeout" in out
    assert "remain valid" in out


# ---------------------------------------------------------------------------
# _run_one mode plumbing


def test_run_one_greybox_mode_uses_greybox_oracle(models_dir):
    model = load_model(models_dir / "two_mec.mdp")
    report = _run_one(model, "greybox", LearnerConfig(), seed=0)
    low, up = report.final
    assert low <= 1.0 <= up
    # a true greybox oracle pays no surcharge for successor-count guesses
    assert report.certified_inconfidence == pytest.approx(0.1)


def test_run_one_respects_learner_config(models_dir):
    model = load_model(models_dir / "random5.mdp")
    report = _run_one(model, "blackbox", LearnerConfig(timeout_s=0.3, episodes_per_round=100), seed=9)
    assert report.timed_out
    assert report.final[0] <= report.final[1]


# ---------------------------------------------------------------------------
# scripts


@pytest.mark.parametrize(
    "script", ["bench_pairs.py", "convergence_plot.py", "coverage_study.py", "golden_traces.py", "trace_diff.py"]
)
def test_script_help_runs_from_a_checkout_without_pythonpath(script, tmp_path):
    # each script finds the package in the checkout's src/ by itself
    path = ROOT / "scripts" / script
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(path), "--help"], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def test_trace_diff_finds_a_checkout_identical_to_itself():
    # the golden cases and one draw of each random model kind, with this
    # checkout as both sides; the golden cases also match their records
    argv = ["scripts/trace_diff.py", "--parent", ".", "--change", ".", "--random", "1", "--epsilon", "0.3", "--json"]
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["counts"] == {"cases": 18, "identical": 18, "parent_covers": 18, "change_covers": 18}
    runs = {row["name"]: row["change"] for row in report["cases"]}
    for name, record in load_golden().items():
        run = runs[name]
        assert (repr(run["oracle_steps"]), repr(run["rounds"])) == (record["steps_sampled"], record["rounds"])
