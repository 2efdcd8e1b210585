"""CLI tests: outputs, manifests, error mapping, byte-stable re-runs."""

import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import percent_rows

import pdqre
import pdqre._rows
from pdqre import cli
from pdqre.cli import SWEEP_HEADER, _float_grid, main
from pdqre.data import bundled_experiments_path
from pdqre.game import PayoffMatrix
from pdqre.qre import BRANCH_LABELS, SolverConfig, sweep_lambda


def run(argv):
    return main(argv)


def read(path):
    return path.read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        run(["--version"])
    assert info.value.code == 0
    assert "pdqre" in capsys.readouterr().out


def test_package_exports_each_modules_names():
    # the package's public names are its version plus every module's __all__, in
    # import order; ``pdqre.simulate`` is the function, not the module
    modules = [sys.modules[f"pdqre.{m}"] for m in ("game", "nash", "qre", "simulate", "data")]
    assert pdqre.__all__ == ["__version__"] + [name for m in modules for name in m.__all__]
    assert all(getattr(pdqre, name) is getattr(m, name) for m in modules for name in m.__all__)
    assert pdqre.simulate is modules[3].simulate and "COLUMNS" in pdqre.__all__


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit) as info:
        run(["frobnicate"])
    assert info.value.code == 2


def test_nash_curve_output_and_manifest(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert run(["nash-curve", "--gamma-step", "0.01", "--output", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "curve,alpha,gamma,branch,quadratic_residual,stationarity_residual"
    curves = {line.split(",")[0] for line in lines[1:]}
    assert curves == {"quadratic", "stationarity"}
    manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "nash-curve"
    assert manifest["timestamp"] is None
    assert manifest["config"]["gamma_step"] == 0.01
    capsys.readouterr()


def test_nash_curve_single_choice(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    run(["nash-curve", "--curve", "stationarity", "--gamma-step", "0.05", "--output", str(out)])
    body = out.read_text(encoding="utf-8").splitlines()[1:]
    assert body
    assert all(line.startswith("stationarity,") for line in body)
    capsys.readouterr()


def test_nash_curve_rerun_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    argv = ["nash-curve", "--gamma-step", "0.02", "--output", str(out)]
    run(argv)
    first = read(out), read(tmp_path / "curve.csv.manifest.json")
    run(argv)
    assert (read(out), read(tmp_path / "curve.csv.manifest.json")) == first
    capsys.readouterr()


@pytest.mark.parametrize("curve", ["both", "quadratic"])
def test_nash_curve_in_gamma_blocks_keeps_the_bytes(tmp_path, monkeypatch, capsys, curve):
    # each curve is traced and rendered CHUNK_ROWS gammas at a time; a row depends
    # on its own gamma alone, so blocks of 7 gammas give the bytes of one block
    argv = ["nash-curve", "--curve", curve, "--gamma-step", "0.001"]
    assert run([*argv, "--output", str(tmp_path / "whole.csv")]) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(pdqre._rows, "CHUNK_ROWS", 7)
    assert run([*argv, "--output", str(tmp_path / "blocks.csv")]) == 0
    assert capsys.readouterr().out == whole.replace("whole.csv", "blocks.csv")
    assert read(tmp_path / "blocks.csv") == read(tmp_path / "whole.csv")


def test_nash_curve_memory_does_not_grow_with_the_grid(tmp_path, monkeypatch, capsys):
    # from N to 4N gammas the peak grows by the grid itself, 8 bytes a gamma, and
    # not by the trace's dozen column-length temporaries (about 230 bytes a gamma
    # when each curve was traced in one block)
    monkeypatch.setattr(pdqre._rows, "CHUNK_ROWS", 2048)
    out = str(tmp_path / "curve.csv")
    assert run(["nash-curve", "--gamma-step", "0.01", "--output", out]) == 0  # loads the renderer
    peaks = []
    for n in (16_000, 64_000):
        tracemalloc.start()
        try:
            assert run(["nash-curve", "--gamma-step", str(1 / n), "--output", out]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (64_000 - 16_000) < 32
    capsys.readouterr()


def test_qre_sweep_outputs(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = [
        "qre-sweep",
        "--lambda-min", "0", "--lambda-max", "1", "--lambda-step", "0.5",
        "--output", str(out),
    ]
    assert run(argv) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == SWEEP_HEADER
    lambdas = {line.split(",")[0] for line in lines[1:]}
    assert lambdas == {"0", "0.5", "1"}
    report = json.loads((tmp_path / "sweep.csv.report.json").read_text())
    assert report["transition_lambda"] is None
    assert report["no_solution"] == []
    assert set(report["intersections"]) == {"quadratic", "stationarity"}
    comparison = report["curve_comparison"]
    assert comparison["first_stationarity_lambda"] is None
    assert comparison["first_quadratic_lambda"] is None
    assert comparison["agree"] is True
    capsys.readouterr()


def test_qre_sweep_rerun_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    report = tmp_path / "report.json"
    argv = [
        "qre-sweep",
        "--lambda-min", "0", "--lambda-max", "0.5", "--lambda-step", "0.25",
        "--output", str(out), "--report", str(report),
    ]
    run(argv)
    snapshot = (read(out), read(report), read(tmp_path / "sweep.csv.manifest.json"))
    run(argv)
    assert (read(out), read(report), read(tmp_path / "sweep.csv.manifest.json")) == snapshot
    capsys.readouterr()


def test_qre_sweep_bad_step_maps_to_json_error(tmp_path, capsys):
    code = run(
        ["qre-sweep", "--lambda-step", "-1", "--output", str(tmp_path / "x.csv")]
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "step" in err["message"]


# Two rationalities with several branches and a candidate.
_SWEEP_AT_9 = ["qre-sweep", "--lambda-min", "9", "--lambda-max", "9.7", "--lambda-step", "0.7"]


@pytest.mark.parametrize(
    "argv",
    [
        ["objective-grid", "--rationality", "-1"],
        ["objective-grid", "--rationality", "nan"],
        ["qre-sweep", "--lambda-min", "nan"],
        ["qre-sweep", "--lambda-max", "0", "--accept-tol", "-1"],
        # the grid guard: the point count overflows to inf
        ["nash-curve", "--gamma-min=-1e308", "--gamma-max", "1e308", "--gamma-step", "1"],
        # a gamma range outside [0, 1]: wholly, in part, and past 1
        ["nash-curve", "--gamma-min=-2", "--gamma-max=-1"],
        ["nash-curve", "--gamma-min=-0.5", "--gamma-max", "0.2"],
        ["nash-curve", "--gamma-max", "1.5"],
        ["qre-sweep", "--lambda-min=-1e308", "--lambda-max", "1e308", "--lambda-step", "1"],
        # burn-in outside [0, rounds): negative, and the default 1000 on 100 rounds
        ["simulate", "--alpha1", "0.2", "--gamma1", "0.5", "--rounds", "100", "--burn-in", "-1"],
        ["simulate", "--alpha1", "0.2", "--gamma1", "0.5", "--rounds", "100"],
        # a negative rationality inside a sweep grid, and a non-finite tolerance
        ["qre-sweep", "--lambda-min=-1", "--lambda-max", "0"],
        ["qre-sweep", "--lambda-max", "0", "--accept-tol", "nan"],
        # a merge radius of 0 or less merges nothing, NaN drops every point;
        # a NaN or negative candidate ceiling drops every candidate
        [*_SWEEP_AT_9, "--merge-tol=nan"],
        [*_SWEEP_AT_9, "--merge-tol=-1"],
        [*_SWEEP_AT_9, "--merge-tol=0"],
        [*_SWEEP_AT_9, "--merge-tol=inf"],
        [*_SWEEP_AT_9, "--candidate-ceiling=nan"],
        [*_SWEEP_AT_9, "--candidate-ceiling=-1"],
        [*_SWEEP_AT_9, "--candidate-ceiling=inf"],
        # an intersection tolerance that is not finite and positive: refused before
        # the sweep, where an infinite one used to report an entry at every grid start
        ["qre-sweep", "--lambda-max", "0", "--intersection-tol=-1"],
        ["qre-sweep", "--lambda-max", "0", "--intersection-tol", "0"],
        ["qre-sweep", "--lambda-max", "0", "--intersection-tol", "nan"],
        ["qre-sweep", "--lambda-max", "0", "--intersection-tol", "inf"],
    ],
)
def test_bad_solver_input_maps_to_json_error(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert run([*argv, "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert list(tmp_path.iterdir()) == []  # no output, report or manifest


def test_grid_guard_rejects_before_allocating():
    # 2,000,001 points, past the cap; the guard raises before building the list
    with pytest.raises(ValueError, match="gamma grid"):
        _float_grid(0.0, 1.0, 5e-7, "gamma")


def test_grid_ends_at_its_upper_bound():
    # lo + k * step can round past hi; the last point is clamped back to it
    assert _float_grid(0.09, 1.0, 0.07, "gamma")[-1] == 1.0
    assert _float_grid(7.4, 7.6, 0.01, "lambda")[-1] == 7.6
    assert _float_grid(0.0, 10.0, 0.01, "lambda")[-1] == 10.0


def test_nash_curve_grid_that_rounds_past_one(tmp_path, capsys):
    # 0.09 + 13 * 0.07 is 1.0000000000000002, which the tracer refused as a gamma
    out = tmp_path / "curve.csv"
    argv = ["nash-curve", "--gamma-min", "0.09", "--gamma-max", "1", "--gamma-step", "0.07"]
    assert run([*argv, "--output", str(out)]) == 0
    gammas = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
    assert gammas and max(gammas) == 1.0
    capsys.readouterr()


@pytest.mark.parametrize(
    "grid", [["--gamma-step", "0.0001"], ["--gamma-min", "0.09", "--gamma-step", "0.07"]]
)
def test_nash_curve_writes_no_signed_zero(tmp_path, capsys, grid):
    # the low root at gamma = 1 is -0.0, which the clamp into [0, 1] used to keep
    out = tmp_path / "curve.csv"
    assert run(["nash-curve", *grid, "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert "stationarity,0,1,low,0,nan" in lines
    assert not any(cell == "-0" for line in lines for cell in line.split(","))
    capsys.readouterr()


@pytest.mark.parametrize(
    "grid", [(1.0, 1.0000000000000004, 1e-16), (1e10, 1e10 + 1e-4, 1e-6)], ids=["one", "1e10"]
)
def test_grid_rejects_a_step_below_the_float_spacing(grid):
    # lo + k * step rounds to the same double twice: the grid would repeat rows
    with pytest.raises(ValueError, match=f"step {grid[2]} is below the float spacing"):
        _float_grid(*grid, "lambda")


def test_grid_guard_boundary(monkeypatch):
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 11)
    assert len(_float_grid(0.0, 1.0, 0.1, "lambda")) == 11
    with pytest.raises(ValueError, match="more than 11 points"):
        _float_grid(0.0, 1.1, 0.1, "lambda")


def test_solver_flag_defaults_are_the_solver_config_defaults():
    args = cli.build_parser().parse_args(["qre-sweep", "--output", "x.csv"])
    defaults = SolverConfig()
    flag_fields = {
        "accept_tol": "accept_tol",
        "merge_tol": "merge_tol",
        "candidate_ceiling": "candidate_ceiling",
        "curve": "curve_choice",
    }
    for dest, field in flag_fields.items():
        assert getattr(args, dest) == getattr(defaults, field), dest
    assert args.no_candidates is (not defaults.include_candidates)
    # every setting has a flag, and the flags build the default config
    assert {f.name for f in fields(SolverConfig)} == {*flag_fields.values(), "include_candidates"}
    assert cli._solver_config(args) == defaults


@pytest.mark.parametrize("flag", ["--grid-size", "--damping"])
def test_removed_solver_flags_are_rejected(tmp_path, capsys, flag):
    # the damped pass they tuned is gone; argparse refuses them before any work
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as info:
        run(["qre-sweep", "--lambda-max", "0", flag, "1", "--output", str(out)])
    assert info.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "cap,limit,argv",
    [
        ("MAX_MESH", 11, ["objective-grid", "--rationality", "1", "--mesh"]),
        ("MAX_ROUNDS", 100, ["simulate", "--alpha1", "0.2", "--gamma1", "0.5", "--burn-in", "10", "--rounds"]),
    ],
    ids=["mesh", "rounds"],
)
def test_size_guard_boundary(tmp_path, monkeypatch, capsys, cap, limit, argv):
    monkeypatch.setattr(cli, cap, limit)
    out = tmp_path / "out.csv"
    assert run([*argv, str(limit), "--output", str(out)]) == 0
    out.unlink()
    capsys.readouterr()
    assert run([*argv, str(limit + 1), "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and f"at most {limit}" in err["message"]
    assert not out.exists()


def test_objective_grid_output(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert run(
        ["objective-grid", "--rationality", "0", "--mesh", "11", "--output", str(out)]
    ) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "alpha,gamma,objective,clamped"
    assert len(lines) == 1 + 121
    clamped = [line for line in lines[1:] if line.endswith(",true")]
    assert {tuple(line.split(",")[:2]) for line in clamped} == {("0", "1"), ("1", "0")}
    capsys.readouterr()


def test_objective_grid_mesh_validation(tmp_path, capsys):
    code = run(
        ["objective-grid", "--rationality", "0", "--mesh", "1", "--output", str(tmp_path / "g.csv")]
    )
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


def test_simulate_writes_log_and_summary(tmp_path, capsys):
    out = tmp_path / "log.csv"
    argv = [
        "simulate",
        "--alpha1", "0.2", "--gamma1", "0.5",
        "--rounds", "200", "--seed", "7", "--burn-in", "10",
        "--output", str(out),
    ]
    assert run(argv) == 0
    stdout = capsys.readouterr().out
    assert "cooperation_rate1=" in stdout
    assert "gamma2_hat=" in stdout
    header = out.read_text(encoding="utf-8").splitlines()[:7]
    assert header[0] == "# generator=PCG64"
    assert header[4] == "# strategy1=0.2,0.5"
    assert header[5] == "# strategy2=0.2,0.5"  # defaults mirror player 1


def test_simulate_needs_two_rounds_before_writing(tmp_path, capsys):
    # one round gives nothing to estimate: rejected before the log or manifest exists
    base = ["simulate", "--alpha1", "0.2", "--gamma1", "0.5", "--burn-in", "0"]
    assert run([*base, "--rounds", "1", "--output", str(tmp_path / "log.csv")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "at least 2" in err["message"]
    assert list(tmp_path.iterdir()) == []
    # two rounds are enough
    assert run([*base, "--rounds", "2", "--output", str(tmp_path / "log.csv")]) == 0
    assert "alpha1_hat=" in capsys.readouterr().out


def test_simulate_rerun_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "log.csv"
    argv = [
        "simulate", "--alpha1", "0.3", "--gamma1", "0.7",
        "--rounds", "100", "--seed", "11", "--burn-in", "10", "--output", str(out),
    ]
    run(argv)
    snapshot = read(out), read(tmp_path / "log.csv.manifest.json")
    run(argv)
    assert (read(out), read(tmp_path / "log.csv.manifest.json")) == snapshot
    capsys.readouterr()


def _write_synthetic_sweep(path):
    rows = [SWEEP_HEADER]
    coords = [(0.5, 0.5), (0.4, 0.4), (0.3, 0.3), (0.2, 0.2), (0.1, 0.1)]
    for lam, (a, g) in enumerate(coords):
        rows.append(f"{lam},{a},{g},0,smooth,true,1")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def test_classify_with_supplied_sweep(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    _write_synthetic_sweep(sweep)
    out = tmp_path / "report.json"
    argv = ["classify", "--sweep", str(sweep), "--output", str(out)]
    assert run(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["n_records"] == 28
    assert payload["lambda_max"] == 4.0
    assert payload["interpolation"] == "gamma_of_alpha"
    assert len(payload["records"]) == 28
    assert all(r["side"] in ("Above", "Below", "OnBoundary") for r in payload["records"])
    assert payload["aggregates"]["before"]["count"] == 14
    assert payload["aggregates"]["before"]["coop_rate_percent"] == pytest.approx(
        22.2557142857, abs=1e-6
    )
    assert payload["aggregates"]["after"]["gamma"] == pytest.approx(0.670714285714, abs=1e-6)
    manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
    assert len(manifest["inputs"]) == 2  # the data table and the sweep file
    capsys.readouterr()


def test_classify_manifest_does_not_depend_on_the_checkout(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    _write_synthetic_sweep(sweep)
    out = tmp_path / "report.json"
    assert run(["classify", "--sweep", str(sweep), "--output", str(out)]) == 0
    text = (tmp_path / "report.json.manifest.json").read_text()
    assert str(bundled_experiments_path()) not in text
    manifest = json.loads(text)
    assert manifest["config"]["data"] is None
    assert manifest["inputs"]["pdqre/data/experiments.csv"] == cli._sha256(
        bundled_experiments_path()
    )
    capsys.readouterr()


def test_classify_rerun_is_byte_identical(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    _write_synthetic_sweep(sweep)
    out = tmp_path / "report.json"
    argv = ["classify", "--sweep", str(sweep), "--output", str(out)]
    run(argv)
    snapshot = read(out), read(tmp_path / "report.json.manifest.json")
    run(argv)
    assert (read(out), read(tmp_path / "report.json.manifest.json")) == snapshot
    capsys.readouterr()


def test_classify_custom_data_file(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    _write_synthetic_sweep(sweep)
    data = tmp_path / "data.csv"
    from pdqre.data import COLUMNS

    data.write_text(
        ",".join(COLUMNS) + "\nExp_1,20%,0.3,0.1,80%,0.3,0.8\n", encoding="utf-8"
    )
    out = tmp_path / "report.json"
    assert run(
        ["classify", "--data", str(data), "--sweep", str(sweep), "--output", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["n_records"] == 2
    assert payload["separation_score"] == 1.0
    sides = {(r["phase"], r["side"]) for r in payload["records"]}
    assert sides == {("before", "Below"), ("after", "Above")}
    capsys.readouterr()


@pytest.mark.parametrize(
    "output,report",
    [
        ("s.csv", "s.csv"),
        ("s.csv", "./s.csv"),
        ("s.csv", "s.csv.manifest.json"),
        ("r.json.manifest.json", "r.json"),
    ],
)
def test_qre_sweep_refuses_two_outputs_in_one_file(tmp_path, monkeypatch, capsys, output, report):
    # the CSV, the report and their two manifests are four files: otherwise one
    # overwrites another, so it is a JSON error before the sweep, with nothing written
    monkeypatch.chdir(tmp_path)
    argv = ["qre-sweep", "--lambda-max", "0.5", "--lambda-step", "0.5"]
    assert run([*argv, "--output", output, "--report", report]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "same file" in err["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags",
    [
        ["--sweep", "u.csv", "--output", "u.csv"],
        ["--sweep", "u.csv", "--output", "./u.csv"],
        ["--data", "d.csv", "--sweep", "u.csv", "--output", "d.csv"],
        ["--data", "d.csv.manifest.json", "--sweep", "u.csv", "--output", "d.csv"],
    ],
)
def test_classify_refuses_to_write_over_its_inputs(tmp_path, monkeypatch, capsys, flags):
    # the report and its manifest may be neither --data nor --sweep
    monkeypatch.chdir(tmp_path)
    _write_synthetic_sweep(tmp_path / "u.csv")
    table = bundled_experiments_path().read_bytes()
    for name in ("d.csv", "d.csv.manifest.json"):
        (tmp_path / name).write_bytes(table)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run(["classify", *flags]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "same file" in err["message"]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_classify_missing_sweep_file(tmp_path, capsys):
    code = run(
        ["classify", "--sweep", str(tmp_path / "nope.csv"), "--output", str(tmp_path / "r.json")]
    )
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "InsufficientSweep"


def test_classify_past_the_fold_follows_the_main_branch(tmp_path, capsys):
    # past lambda 5.1 the sweep holds several branches; the boundary is the main one
    flags = ["--lambda-max", "7", "--lambda-step", "0.05"]
    out = tmp_path / "report.json"
    assert run(["classify", *flags, "--output", str(out)]) == 0
    assert json.loads(out.read_text())["separation_score"] == 0.892857142857  # 25 of 28
    # the sweep CSV holds every branch, so classify refuses it with a JSON error
    sweep = tmp_path / "sweep.csv"
    assert run(["qre-sweep", *flags, "--output", str(sweep)]) == 0
    capsys.readouterr()
    code = run(["classify", "--sweep", str(sweep), *flags, "--output", str(tmp_path / "r.json")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InsufficientSweep"
    assert "several accepted points at lambda=5.15;" in err["message"]
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "index,cell,column",
    [
        (7, "1", ""),  # an eighth cell
        (0, "-1", "lambda"),
        (0, "nan", "lambda"),
        (0, "inf", "lambda"),
        (1, "nan", "alpha"),
        (1, "-0.1", "alpha"),
        (1, "half", "alpha"),
        (2, "7", "gamma"),
        (3, "nan", "objective"),
        (3, "-1", "objective"),
        (4, "xyz", "branch"),
        (5, "yes", "accepted"),
        (6, "-3", "start_count"),
        (6, "1.5", "start_count"),
    ],
)
def test_classify_rejects_a_bad_sweep_row(tmp_path, capsys, index, cell, column):
    sweep = tmp_path / "sweep.csv"
    _write_synthetic_sweep(sweep)
    lines = sweep.read_text().splitlines()
    cells = lines[2].split(",")  # line 3, an accepted row
    cells[index : index + 1] = [cell]
    lines[2] = ",".join(cells)
    sweep.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "r.json"
    assert run(["classify", "--sweep", str(sweep), "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert err["message"].endswith(f"(row 3, column {column!r})" if column else "(row 3)")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv"]


def test_sweep_csv_reads_back_unchanged(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    argv = ["qre-sweep", "--lambda-min", "4.5", "--lambda-max", "10", "--lambda-step", "0.25"]
    assert run([*argv, "--output", str(sweep)]) == 0
    again = tmp_path / "again.csv"
    cli._write_sweep_csv(again, cli._read_sweep_csv(sweep))
    assert read(again) == read(sweep)
    capsys.readouterr()


def _percent_sweep(points) -> bytes:
    """The sweep CSV of ``points`` by the % route of tests/oracles.py."""
    values = np.array([(p.lam, p.alpha, p.gamma, p.objective) for p in points]).reshape(-1, 4)
    lam, alpha, gamma, objective = values.T
    branch = (list(BRANCH_LABELS), [BRANCH_LABELS.index(p.branch) for p in points])
    accepted = (["false", "true"], [p.accepted for p in points])
    counts = np.array([p.start_count for p in points], dtype=int)
    rows = percent_rows(
        lam, ",", alpha, ",", gamma, ",", objective, ",", branch, ",", accepted, ",", counts, "\n"
    )
    return (SWEEP_HEADER + "\n").encode() + rows


def test_sweep_csv_is_the_percent_route_of_the_sweep_points(tmp_path, capsys):
    # the default grid through the CLI, and T = 7 through its writer
    grid = _float_grid(0.0, 10.0, 0.01, "lambda")
    out = tmp_path / "default.csv"
    assert run(["qre-sweep", "--output", str(out)]) == 0
    assert read(out) == _percent_sweep(sweep_lambda(grid).points)
    t7 = sweep_lambda(grid, matrix=PayoffMatrix(temptation_dc=7.0)).points
    cli._write_sweep_csv(out, t7)
    assert read(out) == _percent_sweep(t7)
    # three branch labels and both flags are written
    assert {(p.branch, p.accepted) for p in t7} >= {("smooth", True), ("near_nash", True), ("other", False)}
    cli._write_sweep_csv(out, [])
    assert read(out) == _percent_sweep([])
    capsys.readouterr()


def test_grid_clamps_an_upper_bound_that_rounding_carries_past_it(tmp_path, capsys):
    # 16387.9 + 0.2 rounds to 16388.100000000002, one ulp (3.6e-12) past 16388.1: the point
    # is clamped to the bound, not dropped; past it by part of a step, a point is dropped
    assert list(_float_grid(16387.9, 16388.1, 0.2, "lambda")) == [16387.9, 16388.1]
    assert list(_float_grid(0.0, 1.1, 0.2, "lambda")) == [0.0, 0.2, 0.4, 0.6000000000000001, 0.8, 1.0]
    out = tmp_path / "sweep.csv"
    argv = ["qre-sweep", "--lambda-min", "16387.9", "--lambda-max", "16388.1", "--lambda-step", "0.2"]
    assert run([*argv, "--output", str(out)]) == 0
    assert "wrote 2 points" in capsys.readouterr().out
    assert [row.split(",")[0] for row in out.read_text().splitlines()[1:]] == ["16387.9", "16388.1"]


def _list_grid(lo, hi, step):
    """The grid by the list route: lo + k * step per k, its last point dropped when past
    hi by more than 8 ulps of max(|lo|, |hi|), and else set to hi when within 8 ulps of it."""
    points = [lo + k * step for k in range(round((hi - lo) / step) + 1)]
    rounding = 8 * math.ulp(max(abs(lo), abs(hi)))
    if points[-1] - hi > rounding:
        points.pop()
    if abs(points[-1] - hi) <= rounding:
        points[-1] = hi
    return points


def test_grid_ends_on_an_upper_bound_that_rounding_leaves_it_short_of(tmp_path, monkeypatch, capsys):
    # -0.1 + 1.2 rounds to 1.0999999999999999, one ulp short of 1.1: the last point is
    # the bound itself; short of it by a part of a step, the last point stays
    assert list(_float_grid(-0.1, 1.1, 1.2, "lambda")) == [-0.1, 1.1]
    assert list(_float_grid(0.0, 1.1, 1.2, "lambda")) == [0.0]
    # 3 * 0.3 is 0.8999999999999999: qre-sweep solves at the 0.9 its CSV prints
    solved = []
    sweep = cli.sweep_lambda
    monkeypatch.setattr(cli, "sweep_lambda", lambda lams, cfg: solved.append(lams) or sweep(lams, cfg))
    argv = ["qre-sweep", "--lambda-min", "0", "--lambda-max", "0.9", "--lambda-step", "0.3"]
    assert run([*argv, "--output", str(tmp_path / "sweep.csv")]) == 0
    assert solved[0].tolist() == [0.0, 0.3, 0.6, 0.9]
    capsys.readouterr()


@settings(max_examples=500, deadline=None)
@given(
    lo=st.integers(-(10**12), 10**12),
    step=st.integers(1, 10**6),
    n=st.integers(0, 2000),
    digits=st.integers(0, 10),
)
@example(lo=163879, step=2, n=1, digits=1)  # lost its upper bound to a fixed 1e-12 slack
@example(lo=9, step=7, n=13, digits=2)  # 0.09 + 13 * 0.07 rounds past 1
@example(lo=-1, step=12, n=1, digits=1)  # -0.1 + 1.2 rounds one ulp short of 1.1
def test_float_grid_is_the_list_route_and_keeps_a_bound_the_step_divides(lo, step, n, digits):
    # decimal bounds n decimal steps apart: (hi - lo) / step is n to rounding, so no
    # point is lost, and the last is hi
    scale = 10**digits
    grid = lo / scale, (lo + n * step) / scale, step / scale
    ulp = math.ulp(max(abs(grid[0]), abs(grid[1])))
    assume(grid[2] > 2**12 * ulp)  # far from repeating points
    got = np.asarray(_float_grid(*grid, "lambda"))
    assert got.tobytes() == np.array(_list_grid(*grid)).tobytes()
    assert len(got) == n + 1 and got[-1] == grid[1]


def test_classify_rejects_foreign_sweep_header(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    sweep.write_text("a,b\n1,2\n", encoding="utf-8")
    code = run(
        ["classify", "--sweep", str(sweep), "--output", str(tmp_path / "r.json")]
    )
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "InsufficientSweep"


def _fresh_python(code, cwd=None):
    """Run code in a fresh interpreter, so modules other tests imported do not count."""
    src = str(Path(pdqre.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        cwd=cwd,
        capture_output=True,
        text=True,
    )


def test_import_does_not_load_scipy():
    result = _fresh_python(
        "import sys, pdqre, pdqre.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_subcommands_run_without_scipy(tmp_path):
    # a None entry in sys.modules makes every import of scipy fail
    code = """
import sys
sys.modules["scipy"] = None
from pdqre.cli import main
for argv in (
    ["objective-grid", "--rationality", "7.2", "--mesh", "21", "--output", "grid.csv"],
    ["qre-sweep", "--lambda-max", "0.5", "--output", "sweep.csv"],
    ["simulate", "--alpha1", "0.2", "--gamma1", "0.5", "--rounds", "2000",
     "--output", "log.csv"],
):
    assert main(argv) == 0, argv
"""
    result = _fresh_python(code, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    lines = {name: len((tmp_path / name).read_text().splitlines())
             for name in ("grid.csv", "sweep.csv", "log.csv")}
    assert lines["grid.csv"] == 1 + 21 * 21
    assert lines["sweep.csv"] > 1
    assert lines["log.csv"] == 7 + 2000


def test_manifests_are_pinned(tmp_path, monkeypatch, capsys):
    # one small run per subcommand; relative paths, since classify records --sweep as given
    monkeypatch.chdir(tmp_path)
    _write_synthetic_sweep(Path("given.csv"))
    for argv in (
        ["nash-curve", "--gamma-step", "0.05", "--output", "curve.csv"],
        ["qre-sweep", "--lambda-max", "0.5", "--lambda-step", "0.25", "--output", "sweep.csv",
         "--report", "report.json"],
        ["objective-grid", "--rationality", "1", "--mesh", "11", "--output", "grid.csv"],
        ["simulate", "--alpha1", "0.2", "--gamma1", "0.5", "--rounds", "200", "--seed", "7",
         "--burn-in", "10", "--output", "log.csv"],
        ["classify", "--sweep", "given.csv", "--output", "classify.json"],
    ):
        assert run(argv) == 0, argv
    sweep = "70b48fb3fbc5f0adc5f4a4db0068e00d385621b81bea82cc11f54d271529b056"
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.manifest.json")}
    assert digests == {
        "curve.csv.manifest.json": "ab77c93b4adeef1a9540371bf48fb6f7ce3316beb4a50892471f537eacfc5822",
        "sweep.csv.manifest.json": sweep,
        "report.json.manifest.json": sweep,  # the CSV's and the report's manifests are one
        "grid.csv.manifest.json": "7d920e121bc7ea7453e0ba9f104d8056c70d32ec47ded3c17468ea7871625b0f",
        "log.csv.manifest.json": "13cb859c298ee6830538313b1d083bd917b0eb374ad635af5602739a3b0abc39",
        "classify.json.manifest.json": "bf71387efab3f8ca59abfc2ca2e119c8ac3e2d2f8e53e183518c3e31b92caa52",
    }
    capsys.readouterr()


# The CLI boundary as a property: every numeric flag of every subcommand, drawn
# from finite, infinite, NaN, signed-zero, extreme and near-bound values.

_EDGES = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -5e-324)


def _near(lo, hi):
    """Values in [lo, hi], or a bound, a bound's float neighbour or an edge value."""
    bounds = [lo, hi, *(math.nextafter(b, d) for b in (lo, hi) for d in (-math.inf, math.inf))]
    return st.floats(lo, hi) | st.sampled_from(_EDGES + tuple(bounds))


def _ints(*edges, lo, hi):
    """Integers in [lo, hi], or an edge value or a token that is not an integer."""
    return st.integers(lo, hi) | st.sampled_from([*edges, "1.5", "1e3"])


def _flag(name, values, optional=True):
    """``--name=value``, or nothing (the default) when ``optional``."""
    given = values.map(lambda v: [f"--{name}={v}"])
    return st.one_of(st.just([]), given) if optional else given


@st.composite
def _grid_flags(draw, prefix, lo_hi, with_min=True):
    """Grid bounds, in order three times in four; the step often splits them into at most 19."""
    lo = draw(_near(*lo_hi)) if with_min else 0.0
    hi = draw(_near(*lo_hi))
    if with_min and (lo > hi) != (draw(st.integers(0, 3)) == 0):
        lo, hi = hi, lo
    step = draw(st.one_of(_near(0.05, 1.0), st.integers(1, 19).map(lambda k: (hi - lo) / k)))
    flags = [f"--{prefix}-max={hi}", f"--{prefix}-step={step}"]
    return [f"--{prefix}-min={lo}", *flags] if with_min else flags


@st.composite
def _simulate_flags(draw):
    rounds = draw(_ints(-1, 0, 1, 2, 2000, cli.MAX_ROUNDS + 1, lo=2, hi=2000))
    inside = st.integers(0, rounds - 1) if isinstance(rounds, int) and rounds > 0 else st.nothing()
    burn_in = inside | st.sampled_from([-1, 0, rounds, "1.5"])
    probability = _near(0.0, 1.0)
    pair = st.tuples(probability, probability).map(lambda p: ["--initial-coop", *map(str, p)])
    parts = (
        _flag("alpha1", probability, optional=False),
        _flag("gamma1", probability, optional=False),
        _flag("alpha2", probability),
        _flag("gamma2", probability),
        st.one_of(st.just([]), pair),
        st.just([f"--rounds={rounds}"]),
        _flag("seed", _ints(-1, 0, 2**64 - 1, 2**64, lo=0, hi=2**64 - 1)),
        _flag("burn-in", burn_in),
    )
    return ["simulate", *itertools.chain.from_iterable(draw(p) for p in parts)]


def _argv(subcommand, *parts):
    return st.tuples(*parts).map(lambda ps: [subcommand, *itertools.chain.from_iterable(ps)])


_ARGVS = st.one_of(
    _argv("nash-curve", _grid_flags("gamma", (0.0, 1.0))),
    _argv(
        "qre-sweep",
        _grid_flags("lambda", (0.0, 10.0)),
        _flag("intersection-tol", _near(0.0, 1.0)),
        _flag("accept-tol", _near(0.0, 1e-6)),
        _flag("merge-tol", _near(0.0, 0.1)),
        _flag("candidate-ceiling", _near(0.0, 1.0)),
    ),
    _argv(
        "objective-grid",
        _flag("rationality", _near(0.0, 10.0), optional=False),
        _flag("mesh", _ints(-1, 0, 1, 2, 21, cli.MAX_MESH + 1, lo=2, hi=21), optional=False),
    ),
    _simulate_flags(),
    _argv("classify", _grid_flags("lambda", (0.0, 10.0), with_min=False)),
)


def _nonnegative(v):
    return math.isfinite(v) and v >= 0.0


def _positive(v):
    return math.isfinite(v) and v > 0.0


def _probability(v):
    return 0.0 <= v <= 1.0


#: The documented domain of each numeric flag, by argparse dest; a flag left at
#: a default of None is in its domain.
_DOMAIN = {
    "gamma_min": _probability,
    "gamma_max": _probability,
    "gamma_step": _positive,
    "lambda_min": _nonnegative,
    "lambda_max": _nonnegative,
    "lambda_step": _positive,
    "intersection_tol": _positive,
    "accept_tol": _nonnegative,
    "merge_tol": _positive,
    "candidate_ceiling": _nonnegative,
    "rationality": _nonnegative,
    "mesh": lambda v: 2 <= v <= cli.MAX_MESH,
    "alpha1": _probability,
    "gamma1": _probability,
    "alpha2": _probability,
    "gamma2": _probability,
    "initial_coop": lambda pair: all(map(_probability, pair)),
    "rounds": lambda v: 2 <= v <= cli.MAX_ROUNDS,
    "seed": lambda v: 0 <= v < 2**64,
    "burn_in": lambda v: v >= 0,
}


def _in_domain(args):
    given = vars(args)
    flags = all(_DOMAIN[k](v) for k, v in given.items() if k in _DOMAIN and v is not None)
    # the joint rules: bounds in order, and a burn-in that leaves rounds to summarize
    ordered = all(
        given.get(lo, 0.0) <= given.get(hi, math.inf)
        for lo, hi in (("gamma_min", "gamma_max"), ("lambda_min", "lambda_max"))
    )
    grid = _grid(args)
    distinct = grid is None or not (flags and ordered) or not _repeats(grid)
    return flags and ordered and distinct and given.get("burn_in", 0) < given.get("rounds", 1)


#: argparse reads a token that starts with "-" as an option unless it is a plain
#: negative number, so ``--initial-coop -inf 0`` cannot be parsed.
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _parses(argv):
    """Whether argparse can read every value in ``argv``."""
    for i, token in enumerate(argv):
        name, _, text = token.partition("=")
        if name in ("--mesh", "--rounds", "--seed", "--burn-in"):
            try:
                int(text)
            except ValueError:
                return False
        pair = argv[i + 1 : i + 3] if token == "--initial-coop" else []
        if any(t.startswith("-") and not _NEGATIVE_NUMBER.fullmatch(t) for t in pair):
            return False
    return True


def _grid(args):
    """The example's (lo, hi, step) grid flags, or None for a subcommand without one."""
    if args.subcommand == "nash-curve":
        return args.gamma_min, args.gamma_max, args.gamma_step
    if args.subcommand == "qre-sweep":
        return args.lambda_min, args.lambda_max, args.lambda_step
    if args.subcommand == "classify":
        return 0.0, args.lambda_max, args.lambda_step
    return None


def _many_points(grid):
    """Whether ``_float_grid`` would build more than 21 points from ``grid``."""
    lo, hi, step = grid
    built = all(map(math.isfinite, grid)) and lo <= hi and step > 0.0
    return built and (hi - lo) / step > 20.5


def _repeats(grid):
    """Whether two points of the grid's list route (:func:`_list_grid`) are the same double."""
    points = _list_grid(*grid)
    return len(set(points)) < len(points)


def _expected_config(args):
    if args.subcommand == "simulate":  # the resolved pair, not the flags
        alpha2 = args.alpha1 if args.alpha2 is None else args.alpha2
        gamma2 = args.gamma1 if args.gamma2 is None else args.gamma2
        return {
            "strategy1": [args.alpha1, args.gamma1],
            "strategy2": [alpha2, gamma2],
            "rounds": args.rounds,
            "seed": args.seed,
            "initial_coop_prob": list(args.initial_coop),
            "burn_in": args.burn_in,
        }
    unechoed = ("subcommand", "handler", "output", "report")
    return {k: v for k, v in vars(args).items() if k not in unechoed}


def _rendered(v):
    """``v`` as the CSV writes it, read back."""
    return float(f"{v:.12g}")


def _bounded_columns(args):
    """The output's CSV columns that hold grid values, each with its rendered bounds."""
    if args.subcommand == "objective-grid":
        return [(0, (0.0, 1.0)), (1, (0.0, 1.0))]
    column = {"nash-curve": 2, "qre-sweep": 0}.get(args.subcommand)
    if column is None:
        return []
    lo, hi, _ = _grid(args)
    return [(column, (_rendered(lo), _rendered(hi)))]


@settings(max_examples=200, deadline=None)
@example(["nash-curve", "--gamma-min=0.09", "--gamma-max=1", "--gamma-step=0.07"])
@example(["qre-sweep", "--lambda-min=7.4", "--lambda-max=7.6", "--lambda-step=0.01"])
@example(["qre-sweep", "--lambda-min=3", "--lambda-max=6", "--lambda-step=0.5",
          "--intersection-tol=inf"])
@example(["qre-sweep", "--lambda-min=1", "--lambda-max=1.0000000000000004",
          "--lambda-step=1e-16"])
@example(["qre-sweep", "--lambda-min=-5e-324", "--lambda-max=0.0", "--lambda-step=1.0"])
@given(_ARGVS)
def test_cli_boundary(argv):
    # each example ends in one of three ways: outputs with their manifests, one
    # JSON error line and nothing written, or argparse's exit 2
    outputs = {"qre-sweep": ["out.csv", "out.csv.report.json"], "classify": ["out.json"]}
    outputs = outputs.get(argv[0], ["out.csv"])
    parses = _parses(argv)
    with tempfile.TemporaryDirectory() as tmp:
        full = [*argv, "--output", str(Path(tmp) / outputs[0])]
        if parses:
            args = cli.build_parser().parse_args(full)
            # a grid past 21 points is only slower; the size caps have their own tests
            assume(_grid(args) is None or not _many_points(_grid(args)))
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            try:
                code = main(full)
            except SystemExit as stop:
                code = stop.code
        written = sorted(p.name for p in Path(tmp).iterdir())
        if not parses:
            assert (code, written) == (2, [])
            return
        if not _in_domain(args):
            assert code == 1
        elif argv[0] != "classify":  # classify can still find too few accepted points
            assert code == 0, stderr.getvalue()
        if code == 1:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and {"error", "message"} == set(json.loads(lines[0]))
            assert written == []
            return
        assert code == 0
        assert written == sorted([*outputs, *(name + ".manifest.json" for name in outputs)])
        for name in outputs:
            manifest = json.loads((Path(tmp) / (name + ".manifest.json")).read_text())
            assert manifest["config"] == _expected_config(args)
        for column, (lo, hi) in _bounded_columns(args):
            rows = (Path(tmp) / outputs[0]).read_text().splitlines()[1:]
            assert all(lo <= float(row.split(",")[column]) <= hi for row in rows), (column, lo, hi)
