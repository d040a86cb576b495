"""CLI contract: numeric fidelity, exit codes, config handling, determinism."""

import argparse
import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oupac import (
    Dataset,
    DimensionMismatchError,
    DomainPair,
    InvalidRangeError,
    MomentEstimate,
    NotSquareError,
    QuadraticLoss,
    RegressionTask,
    SampleSpec,
    SgdDynamics,
    SymmetricMatrix,
    TooFewSamplesError,
    expected_risk_gaussian,
    kl_divergence,
    kl_upper_bound_trace,
    GaussianMeasure,
    log_density,
    make_spd,
    mc_kl_estimate,
    mcallester_bound,
    population_quadratic,
    random_spd,
    sample,
    scaling_experiment,
    simulate_chain,
    solve_discrete_stein,
    stability_check,
    standard_gaussian,
    stationary_from_dynamics,
    stein_stationary_covariance,
    two_stage_run,
)
from oupac import bounds, cli, diffusion, linalg, matrixio, regression
from oupac.cli import main
from oupac.errors import ConfigError, InvalidSpecError
from oupac.linalg import RECORD_FLOATS
from oupac.rng import make_rng
from oupac.matrixio import (
    FLOAT_FORMAT,
    format_gaussian,
    format_matrix,
    parse_matrix,
    read_matrix,
    write_gaussian,
    write_matrix,
)


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "I2.txt"
    write_matrix(path, np.eye(2))
    return str(path)


@pytest.fixture
def gaussian_file(tmp_path):
    path = tmp_path / "g2.txt"
    write_gaussian(path, np.zeros(2), np.eye(2))
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundCommand:
    def test_prints_value_matching_library(self, capsys, tmp_path):
        out_path = tmp_path / "bound.json"
        code, out, _ = run_cli(
            capsys, "bound", "--kl", "0", "--n", "100", "--delta", "0.05",
            "--output", str(out_path),
        )
        assert code == 0
        expected = mcallester_bound(0.0, SampleSpec(100, 0.05))
        assert f"{expected:.17g}" in out
        payload = json.loads(out_path.read_text())
        assert payload["complexity_term"] == expected

    def test_missing_required_option_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--kl", "0", "--n", "100")
        assert code == 2
        assert "delta" in err

    def test_invalid_delta_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "--kl", "0", "--n", "100", "--delta", "1.5"
        )
        assert code == 2


class TestConfigFile:
    def test_config_supplies_values_and_flags_override(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"kl": 5.0, "n": 100, "delta": 0.05}))
        code, out, _ = run_cli(capsys, "bound", "--config", str(config))
        assert code == 0
        assert f"{mcallester_bound(5.0, SampleSpec(100, 0.05)):.17g}" in out

        code, out, _ = run_cli(capsys, "bound", "--config", str(config), "--kl", "0")
        assert code == 0
        assert f"{mcallester_bound(0.0, SampleSpec(100, 0.05)):.17g}" in out

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"kl": 0.0, "n": 100, "delta": 0.05, "zeta": 1}))
        code, _, err = run_cli(capsys, "bound", "--config", str(config))
        assert code == 2
        assert "zeta" in err

    @pytest.mark.parametrize("command, config", [
        ("bound", {"kl": "abc", "n": 100, "delta": 0.05}),
        ("bound", {"kl": 0, "n": 100.5, "delta": 0.05}),
        ("bound", {"kl": [0], "n": 100, "delta": 0.05}),
        ("simulate", {"steps": "abc"}),
        ("simulate", {"steps": 100, "seed": True}),
        # an integer list's entries are integers: not a bool, a fraction or a list
        ("scaling", {"ns": [20, True]}),
        ("scaling", {"ns": [20.5, 80]}),
        ("scaling", {"ns": [[20], 80]}),
        ("scaling", {"ns": []}),
        ("lemma-survey", {"dims": [True]}),
        ("lemma-survey", {"dims": [1, 2.5]}),
        ("lemma-survey", {"dims": [[1, 2]]}),
        ("lemma-survey", {"dims": [1, -2]}),
    ])
    def test_config_value_of_wrong_type_exits_2(
        self, capsys, tmp_path, identity_file, command, config
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        base = _simulate_argv(identity_file)[:-2] if command == "simulate" else [command]
        code, _, err = run_cli(capsys, *base, "--config", str(path))
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, config, flags", [
        ("bound", {"kl": 0, "n": 100, "delta": 0.05},
         ["--kl", "0", "--n", "100", "--delta", "0.05"]),
        ("simulate", {"minimizer": "0,0", "eta": "0.1", "steps": 200, "stride": "5", "seed": 4},
         ["--minimizer", "0,0", "--eta", "0.1", "--steps", "200", "--stride", "5",
          "--seed", "4"]),
        ("simulate", {"minimizer": [0, 0.5], "eta": 0.1, "steps": 200},
         ["--minimizer", "0,0.5", "--eta", "0.1", "--steps", "200"]),
        ("validity", {"eta": None, "trials": 12}, ["--trials", "12"]),
        ("scaling", {"ns": [20, 80], "trials": 4}, ["--ns", "20,80", "--trials", "4"]),
        ("lemma-survey", {"dims": [1, 2]}, ["--dims", "1,2"]),
        ("lemma-survey", {"dims": [3]}, ["--dims", "3"]),
    ])
    def test_config_run_prints_same_bytes_as_flag_run(
        self, capsys, tmp_path, identity_file, command, config, flags
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        base = [command]
        if command == "simulate":
            base = ["simulate", "--hessian", identity_file, "--noise-factor", identity_file,
                    "--batch", "1"]
        from_config = run_cli(capsys, *base, "--config", str(path))
        from_flags = run_cli(capsys, *base, *flags)
        assert from_config[0] == 0
        assert from_config == from_flags

    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "bound", "--config", str(tmp_path / "absent.json")
        )
        assert code == 2


class TestLyapunovCommand:
    def test_writes_half_identity(self, capsys, identity_file, tmp_path):
        out_path = tmp_path / "x.txt"
        code, out, _ = run_cli(
            capsys, "lyapunov", "--a", identity_file, "--q", identity_file,
            "--eta", "1", "--batch", "1", "--output", str(out_path),
        )
        assert code == 0
        np.testing.assert_allclose(read_matrix(out_path), 0.5 * np.eye(2), atol=1e-15)

    def test_indefinite_coefficient_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        write_matrix(bad, np.array([[1.0, 2.0], [2.0, 1.0]]))
        code, _, err = run_cli(
            capsys, "lyapunov", "--a", str(bad), "--q", str(bad)
        )
        assert code == 3
        assert "lyapunov" in err


class TestSimulateCommand:
    def test_unstable_config_exits_3_naming_stability_check(
        self, capsys, identity_file
    ):
        code, _, err = run_cli(
            capsys, "simulate", "--hessian", identity_file, "--minimizer", "0,0",
            "--noise-factor", identity_file, "--eta", "3.0", "--batch", "1",
            "--steps", "100",
        )
        assert code == 3
        assert "stability_check" in err

    def test_writes_trajectory_csv(self, capsys, identity_file, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--hessian", identity_file, "--minimizer", "0,0",
            "--noise-factor", identity_file, "--eta", "0.1", "--batch", "1",
            "--steps", "1000", "--stride", "10", "--seed", "4",
            "--output", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "step,theta_0,theta_1"
        assert len(lines) == 1 + 1000 // 10 + 1
        assert lines[1].startswith("0,")


class TestKlCommand:
    def test_side_by_side_matches_library(self, capsys, tmp_path):
        q_path, p_path = tmp_path / "q.txt", tmp_path / "p.txt"
        write_gaussian(q_path, np.zeros(2), np.diag([0.05, 0.025]))
        write_gaussian(p_path, np.zeros(2), np.eye(2))
        out_path = tmp_path / "kl.json"
        code, out, _ = run_cli(
            capsys, "kl", "--q", str(q_path), "--p", str(p_path),
            "--mc-draws", "20000", "--seed", "2", "--output", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        q = GaussianMeasure(np.zeros(2), make_spd(np.diag([0.05, 0.025])))
        p = GaussianMeasure(np.zeros(2), make_spd(np.eye(2)))
        assert payload["closed_form"] == kl_divergence(q, p)
        assert abs(payload["mc_estimate"] - payload["closed_form"]) <= (
            3 * payload["mc_std_error"]
        )


class TestTwoStageCommand:
    def test_runs_and_reports_shifted_mean(self, capsys, identity_file, tmp_path):
        out_path = tmp_path / "ts.json"
        code, out, _ = run_cli(
            capsys, "two-stage",
            "--pt-hessian", identity_file, "--pt-minimizer", "0,0",
            "--pt-noise-factor", identity_file, "--pt-eta", "0.1", "--pt-batch", "1",
            "--pt-steps", "5000",
            "--ft-hessian", identity_file, "--ft-minimizer", "1,0",
            "--ft-noise-factor", identity_file, "--ft-eta", "0.1", "--ft-batch", "1",
            "--ft-steps", "20000",
            "--replicas", "3", "--stride", "1", "--seed", "8",
            "--output", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert abs(payload["ft"]["mean"][0] - 1.0) < 0.1
        assert payload["pt"]["sample_count"] >= 2


class TestSurveyAndExperiments:
    def test_lemma_survey_csv_schema(self, capsys, tmp_path):
        out_path = tmp_path / "survey.csv"
        code, out, _ = run_cli(
            capsys, "lemma-survey", "--dims", "1-3", "--pairs-per-dim", "10",
            "--format", "csv", "--seed", "6", "--output", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "dim,pairs,holds,holds_fraction,min_margin"
        assert len(lines) == 4

    def test_dominance_matches_reference_ballpark(self, capsys, identity_file, tmp_path):
        out_path = tmp_path / "dom.json"
        code, out, _ = run_cli(
            capsys, "dominance", "--sigma-pt", identity_file,
            "--sigma-ft", identity_file, "--shift", "1,0",
            "--n-pt", "1000000", "--n-ft", "1000", "--delta", "0.05",
            "--output", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["ratio"] > 10
        for key in ("pt_report", "ft_report"):
            assert list(payload[key]) == [
                "kl_term", "complexity_term", "paper_literal_kl", "notes",
            ]

    def test_validity_csv_rows(self, capsys, tmp_path):
        out_path = tmp_path / "val.csv"
        code, out, _ = run_cli(
            capsys, "validity", "--trials", "12", "--seed", "3",
            "--format", "csv", "--output", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "seed,n,gap,bound,violated"
        assert len(lines) == 13

    def test_scaling_json_rows(self, capsys, tmp_path):
        out_path = tmp_path / "scaling.json"
        code, out, _ = run_cli(
            capsys, "scaling", "--ns", "100,400", "--trials", "4", "--seed", "2",
            "--output", str(out_path),
        )
        assert code == 0
        rows = json.loads(out_path.read_text())
        assert [row["n"] for row in rows] == [100, 400]
        assert rows[0]["ratio_bound_4n"] == pytest.approx(
            rows[1]["mean_bound"] / rows[0]["mean_bound"]
        )


class TestDeterminism:
    def test_identical_config_gives_byte_identical_output(
        self, capsys, identity_file, tmp_path
    ):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "simulate", "--hessian", identity_file, "--minimizer", "0,0",
            "--noise-factor", identity_file, "--eta", "0.1", "--batch", "1",
            "--steps", "2000", "--seed", "11",
        ]
        assert main(argv + ["--output", str(first)]) == 0
        assert main(argv + ["--output", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()


def _simulate_argv(matrix):
    return ["simulate", "--hessian", matrix, "--minimizer", "0,0",
            "--noise-factor", matrix, "--eta", "0.1", "--batch", "1", "--steps", "100"]


def _two_stage_argv(matrix):
    argv = ["two-stage"]
    for stage, centre in (("pt", "0,0"), ("ft", "1,0")):
        argv += [f"--{stage}-hessian", matrix, f"--{stage}-minimizer", centre,
                 f"--{stage}-noise-factor", matrix, f"--{stage}-eta", "0.1",
                 f"--{stage}-batch", "1", f"--{stage}-steps", "100"]
    return argv


@pytest.mark.parametrize("command, extra", [
    ("simulate", ["--eta=-0.1"]),
    ("simulate", ["--eta", "nan"]),
    ("simulate", ["--batch", "0"]),
    ("simulate", ["--steps", "0"]),
    ("simulate", ["--stride", "0"]),
    ("simulate", ["--burn-in=-1"]),
    ("simulate", ["--minimizer", "nan,0"]),
    ("two-stage", ["--replicas", "1"]),
    ("two-stage", ["--stride", "0"]),
    ("lyapunov", ["--batch", "0"]),
    ("validity", ["--trials", "5"]),
    ("validity", ["--noise-std", "-1"]),
    ("scaling", ["--ns", "1,2"]),
    ("scaling", ["--ns", "10,20", "--trials", "0"]),
    ("lemma-survey", ["--pairs-per-dim", "0"]),
    ("kl", ["--mc-draws", "10"]),
    ("two-stage", ["--burn-in", "100000"]),
    ("simulate", ["--burn-in", "1000"]),
    ("bound", ["--kl", "nan"]),
    ("bound", ["--kl", "inf"]),
    ("validity", ["--noise-scale", "nan"]),
    ("lemma-survey", ["--shift-scale", "nan"]),
    ("lemma-survey", ["--dims", "3-1"]),
    ("lyapunov", ["--a", "absent.txt"]),
    ("two-stage", ["--init-mode", "warm"]),
    ("scaling", ["--ns="]),
    ("bound", ["--kl", "0", "--output", os.path.join(os.devnull, "x.json")]),
    ("two-stage", ["--burn-in=-1"]),
    ("simulate", ["--seed=-1"]),
    ("kl", ["--seed=-1"]),
    ("two-stage", ["--seed=-1"]),
    ("lemma-survey", ["--seed=-1"]),
    ("validity", ["--seed=-1"]),
    ("scaling", ["--ns", "10,20", "--seed=-1"]),
    # a Gaussian fixture is a matrix file with one row too many
    ("simulate", ["--hessian", "<gaussian_file>"]),
    # fewer rows than features: rejected before any data are drawn
    ("validity", ["--n", "1", "--trials", "10"]),
    # a config file that is not valid JSON or holds an array, an empty vector,
    # and a non-positive --dims entry
    ("bound", ["--config", "<not_json>"]),
    ("bound", ["--config", "<json_array>"]),
    ("simulate", ["--minimizer="]),
    ("lemma-survey", ["--dims=0,2"]),
    # fixture files that the parsers reject: their messages are checked below
    ("lyapunov", ["--a", "<zero_dim>"]),
    ("kl", ["--q", "<empty_file>"]),
    ("lyapunov", ["--a", "<bad_row>"]),
])
def test_out_of_range_option_exits_2_without_traceback(
    capsys, tmp_path, identity_file, gaussian_file, command, extra
):
    files = {"<gaussian_file>": gaussian_file, "<not_json>": tmp_path / "not.json",
             "<json_array>": tmp_path / "array.json", "<zero_dim>": tmp_path / "zero.txt",
             "<empty_file>": tmp_path / "empty.txt", "<bad_row>": tmp_path / "bad_row.txt"}
    files["<not_json>"].write_text("{\"kl\": 0,")
    files["<json_array>"].write_text(json.dumps([{"kl": 0}]))
    files["<zero_dim>"].write_text("0\n")
    files["<empty_file>"].write_text("")
    files["<bad_row>"].write_text("2\n1 x\n0 1\n")
    messages = {"<zero_dim>": "--a: matrix dimension must be >= 1, got 0",
                "<empty_file>": "--q: empty Gaussian fixture",
                "<bad_row>": "--a: could not parse numeric row '1 x'"}
    message = next((messages[arg] for arg in extra if arg in messages), None)
    extra = [str(files.get(arg, arg)) for arg in extra]
    base = {
        "simulate": _simulate_argv(identity_file),
        "two-stage": _two_stage_argv(identity_file),
        "lyapunov": ["lyapunov", "--a", identity_file, "--q", identity_file],
        "kl": ["kl", "--q", gaussian_file, "--p", gaussian_file],
        "bound": ["bound", "--n", "100", "--delta", "0.05"],
    }.get(command, [command])
    # a case that names no output of its own writes to one that must not appear
    out_path = tmp_path / "out"
    if not any(arg.startswith("--output") for arg in extra):
        extra.append(f"--output={out_path}")
    # an exception escaping main() would fail this call with its traceback
    code, out, err = run_cli(capsys, *base, *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert message is None or err == f"error: {message}\n"
    assert not out_path.exists()


@pytest.mark.parametrize("argv, message", [
    # the sample size is checked before the dynamics that --eta configures
    (["validity", "--n=0", "--eta=-1"], "sample_size must be a positive integer, got 0"),
    (["scaling", "--ns=0,5"], "every n must be >= feature dimension 2, got [0, 5]"),
], ids=["validity", "scaling"])
def test_a_bad_sample_size_exits_2_with_its_message(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command, burn_in, message", [
    ("simulate", "-1", "burn_in_records must be a non-negative integer, got -1"),
    ("simulate", "10", "1 records left after burn-in of 10; need >= 2"),
    ("two-stage", "-1", "burn_in_records must be a non-negative integer, got -1"),
    ("two-stage", "100000", "0 records left after burn-in of 100000; need >= 1"),
])
def test_bad_burn_in_exits_2_before_any_chain_runs(capsys, monkeypatch, identity_file,
                                                  command, burn_in, message):
    def no_chain(*args):
        raise AssertionError("a chain ran before the burn-in check")

    monkeypatch.setattr(diffusion, "_run_chain", no_chain)
    base = {"simulate": _simulate_argv, "two-stage": _two_stage_argv}[command](identity_file)
    code, out, err = run_cli(capsys, *base, "--stride", "10", f"--burn-in={burn_in}")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command, option", [
    ("simulate", "--steps"), ("two-stage", "--pt-steps"), ("two-stage", "--ft-steps"),
])
def test_oversized_chain_exits_2_before_any_allocation(capsys, tmp_path, identity_file,
                                                       command, option):
    # 1e15 steps at stride 1 would record 2e15 floats (16 PB) at d = 2: the
    # size is rejected by arithmetic, never allocated
    steps = 10**15
    out_path = tmp_path / "out"
    base = {"simulate": _simulate_argv, "two-stage": _two_stage_argv}[command](identity_file)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *base, f"{option}={steps}", "--stride=1",
                             "--output", str(out_path))
    elapsed = time.perf_counter() - start
    floats = 2 * (steps + 1)
    limit = RECORD_FLOATS
    assert (code, out) == (2, "")
    assert err == (f"error: {option[2:].replace('-', '_')}={steps} at stride 1 records "
                   f"{floats} floats ({8 * floats} bytes) at dimension 2; at most {limit} "
                   f"({8 * limit} bytes) are held\n")
    assert not out_path.exists()
    assert elapsed < 1.0


@pytest.mark.parametrize("argv, what, floats, dim", [
    (["kl", "--q", "<gaussian_file>", "--p", "<gaussian_file>", "--mc-draws", str(10**15)],
     f"Monte-Carlo KL with {10**15} draws holds", 10**15, 2),
    (["validity", "--trials", "10", "--n", str(10**15)],
     f"n={10**15}: the design of one trial holds", 2 * 10**15, 2),
    (["scaling", "--ns", str(10**15)], f"n={10**15}: the design of one trial holds",
     2 * 10**15, 2),
    (["lemma-survey", "--dims", "100000", "--pairs-per-dim", "1"],
     "dims: one pair's covariances hold", 2 * 10**10, 100000),
    # the range's top is checked before the range is built
    (["lemma-survey", "--dims", f"1-{10**15}", "--pairs-per-dim", "1"],
     "--dims: dims: one pair's covariances hold", 2 * 10**30, 10**15),
], ids=["kl", "validity", "scaling", "lemma-survey", "lemma-survey-range"])
def test_oversized_option_exits_2_before_any_allocation(capsys, tmp_path, gaussian_file, argv,
                                                        what, floats, dim):
    # each size is rejected by arithmetic against RECORD_FLOATS, never allocated
    argv = [gaussian_file if arg == "<gaussian_file>" else arg for arg in argv]
    out_path = tmp_path / "out"
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--output", str(out_path))
    elapsed = time.perf_counter() - start
    limit = RECORD_FLOATS
    assert (code, out) == (2, "")
    assert err == (f"error: {what} {floats} floats ({8 * floats} bytes) at dimension {dim}; "
                   f"at most {limit} ({8 * limit} bytes) are held\n")
    assert not out_path.exists()
    assert elapsed < 1.0


@pytest.mark.parametrize("command, flags, option, count, what, floats_per_count, dim", [
    ("validity", ["--n=100"], "--trials", 300, "trials: the per-trial results hold",
     regression.VALIDITY_TRIAL_FLOATS, 2),
    ("scaling", ["--ns=10,20"], "--trials", 150,
     "trials: every n's trials hold", 2 * regression.SCALING_TRIAL_FLOATS, 2),
    ("lemma-survey", ["--dims=1-3"], "--pairs-per-dim", 300,
     "pairs_per_dim: the margins hold", 3, 3),  # the margins of all three dimensions
], ids=["validity", "scaling", "lemma-survey"])
def test_per_item_count_exits_2_before_any_list_is_built(capsys, monkeypatch, tmp_path, command,
                                                        flags, option, count, what,
                                                        floats_per_count, dim):
    # a count of trials or pairs is checked against RECORD_FLOATS by arithmetic;
    # the limit is lowered to the floats of ``count`` items, so that the count at
    # the limit runs in milliseconds and the one past it exits 2 before any seed
    # list is built
    limit = floats_per_count * count
    monkeypatch.setattr(linalg, "RECORD_FLOATS", limit)
    out_path = tmp_path / "out"
    code, _, err = run_cli(capsys, command, *flags, f"{option}={count}", "--output",
                           str(out_path))
    assert (code, err) == (0, "")

    def no_list(*args):
        raise AssertionError("a per-item seed list was built")

    monkeypatch.setattr(bounds, "_child_seeds", no_list)
    monkeypatch.setattr(regression, "_child_seeds", no_list)
    out_path.unlink()
    code, out, err = run_cli(capsys, command, *flags, f"{option}={count + 1}", "--output",
                             str(out_path))
    floats = floats_per_count * (count + 1)
    assert (code, out) == (2, "")
    assert err == (f"error: {what} {floats} floats ({8 * floats} bytes) at dimension {dim}; "
                   f"at most {limit} ({8 * limit} bytes) are held\n")
    assert not out_path.exists()


def _mismatch_cases():
    """Each dimension, mode or size check of the library's value types,
    stationary laws, chain runners, Gaussian tools and regression testbed: a
    call with two operands that disagree, or with one that is empty, too
    small a count, not an integer or not finite, and the error it raises
    (type and message start)."""
    def stage(dim):
        return QuadraticLoss(make_spd(np.eye(dim)), np.zeros(dim)), SgdDynamics(0.1, 1, np.eye(dim))
    eye2 = make_spd(np.eye(2))

    def two_stage(pt_dim, ft_dim, init_mode="analytic_sample"):
        return lambda: two_stage_run(*stage(pt_dim), *stage(ft_dim), 20, 20, 2,
                                     init_mode=init_mode)
    shapes = "operand shapes disagree: (2, 2) vs (3, 3)"
    return {
        "stein": (lambda: stein_stationary_covariance(
            make_spd(np.eye(2)), SymmetricMatrix(np.eye(3)), 0.1, 1),
            DimensionMismatchError, shapes),
        "stationary": (lambda: stationary_from_dynamics(
            make_spd(np.eye(2)), np.zeros(2), SymmetricMatrix(np.eye(3)), 0.1, 1),
            DimensionMismatchError, shapes),
        "lyapunov-cli": (None, None, f"error: {shapes}\n"),
        "two-stage-init-mode": (two_stage(2, 2, "warm_start"), InvalidRangeError,
                                "unknown init_mode 'warm_start'"),
        "two-stage-dims": (two_stage(2, 3), DimensionMismatchError,
                           "stage dimensions disagree: 2 vs 3"),
        "simulate-init": (lambda: simulate_chain(np.zeros(3), *stage(2), 20),
                          DimensionMismatchError, "init has dimension 3, loss has 2"),
        "loss-minimizer": (lambda: QuadraticLoss(eye2, np.zeros(3)), DimensionMismatchError,
                           "minimizer has dimension 3, hessian is 2x2"),
        "dynamics-factor": (lambda: SgdDynamics(0.1, 1, np.ones((2, 3))), DimensionMismatchError,
                            "noise factor must be square, got shape (2, 3)"),
        "stability-dims": (lambda: stability_check(stage(2)[0], stage(3)[1]),
                           DimensionMismatchError, "loss dimension 2 != dynamics dimension 3"),
        "domain-pair": (lambda: DomainPair(eye2, make_spd(np.eye(3)), np.zeros(2)),
                        DimensionMismatchError,
                        "dimensions disagree: sigma_pt 2, sigma_ft 3, shift 2"),
        "kl-trace": (lambda: kl_upper_bound_trace(eye2, SymmetricMatrix(np.eye(3)), 0.1, 1, eye2),
                     DimensionMismatchError, "dimensions disagree: hessian 2, noise 3, sigma 2"),
        "gaussian-mean": (lambda: GaussianMeasure(np.zeros(3), eye2), DimensionMismatchError,
                          "mean has dimension 3 but covariance is 2x2"),
        "moment-estimate": (lambda: MomentEstimate(np.zeros(2), SymmetricMatrix(np.eye(2)), 1),
                            TooFewSamplesError, "moment estimate needs >= 2 samples, got 1"),
        "sample-count": (lambda: sample(standard_gaussian(2), 0, seed=0), TooFewSamplesError,
                         "count must be a positive integer, got 0"),
        "sample-count-fraction": (lambda: sample(standard_gaussian(2), 2.5, seed=0),
                                  TooFewSamplesError, "count must be a positive integer, got 2.5"),
        "loss-offset-nan": (lambda: QuadraticLoss(eye2, np.zeros(2), np.nan), InvalidRangeError,
                            "offset must be a finite real number, got nan"),
        "population-offset": (
            lambda: population_quadratic(RegressionTask(np.zeros(2), eye2, 1e200)),
            InvalidRangeError, "offset must be a finite real number, got inf"),
        "scaling-fractional-n": (lambda: scaling_experiment(
            RegressionTask(np.zeros(2), eye2, 1.0), [4.5, 16], stage(2)[1], 0.05),
            InvalidRangeError, "each n must be an integer, got 4.5"),
        "log-density": (lambda: log_density(standard_gaussian(2), np.zeros((4, 3))),
                        DimensionMismatchError, "points have dimension 3, measure has 2"),
        "mc-kl": (lambda: mc_kl_estimate(standard_gaussian(2), standard_gaussian(3), 1000, 0),
                  DimensionMismatchError, "dimensions disagree: 2 vs 3"),
        "task-weights": (lambda: RegressionTask(np.zeros(3), eye2, 1.0), DimensionMismatchError,
                         "true_weights has dimension 3, feature_cov is 2x2"),
        "dataset-rows": (lambda: Dataset(np.eye(2), np.zeros(3), seed=0), DimensionMismatchError,
                         "2 feature rows vs 3 targets"),
        "expected-risk": (lambda: expected_risk_gaussian(stage(2)[0], standard_gaussian(3)),
                          DimensionMismatchError, "dimensions disagree: 2 vs 3"),
        "empty-matrix": (lambda: SymmetricMatrix(np.zeros((0, 0))), NotSquareError,
                         "matrix must have dimension >= 1"),
        "stein-nan": (lambda: solve_discrete_stein(np.array([[np.nan, 0.0], [0.0, 0.5]]),
                                                   SymmetricMatrix(np.eye(2))),
                      NotSquareError, "M contains non-finite entries"),
    }


@pytest.mark.parametrize("case", list(_mismatch_cases()))
def test_operands_that_disagree_are_rejected(capsys, tmp_path, identity_file, case):
    call, error, message = _mismatch_cases()[case]
    if call is None:  # the command line: exit 2, one error line, no traceback
        write_matrix(tmp_path / "I3.txt", np.eye(3))
        code, out, err = run_cli(capsys, "lyapunov", "--a", identity_file,
                                 "--q", str(tmp_path / "I3.txt"))
        assert (code, out, err) == (2, "", message)
        return
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value).startswith(message)


def test_main_holds_one_blas_thread_inside_a_handler(capsys, monkeypatch,
                                                     openblas_threads):
    if openblas_threads is None:
        pytest.skip("no OpenBLAS found")
    get, _ = openblas_threads
    seen = []
    run = cli._COMMANDS["bound"]["run"]

    def recording(params):
        seen.append(get())
        return run(params)

    monkeypatch.setitem(cli._COMMANDS["bound"], "run", recording)
    code, _, _ = run_cli(capsys, "bound", "--kl", "0", "--n", "100", "--delta", "0.05")
    assert (code, seen) == (0, [1])
    assert get() == 2


@pytest.mark.parametrize("argv, code", [
    (["bound", "--kl", "0", "--n", "100", "--delta", "0.05"], 0),
    (["bound", "--kl", "0", "--n", "0", "--delta", "0.05"], 2),
    (["simulate", "--eta", "3.0"], 3),
    (["bound", "--help"], 0),
], ids=["exit_0", "exit_2", "exit_3", "help"])
def test_main_restores_the_blas_thread_count(capsys, identity_file, openblas_threads,
                                             argv, code):
    if openblas_threads is None:
        pytest.skip("no OpenBLAS found")
    if argv[0] == "simulate":
        argv = _simulate_argv(identity_file) + argv[1:]
    assert main(argv) == code
    capsys.readouterr()
    assert openblas_threads[0]() == 2


def test_failed_write_leaves_no_partial_output_file(capsys, monkeypatch, identity_file,
                                                    tmp_path):
    # the disk fills after the header: the partial file is removed
    out_path = tmp_path / "traj.csv"
    sizes = []

    class DiskFull(io.TextIOWrapper):
        def write(self, text):
            if sizes:
                raise OSError(errno.ENOSPC, "No space left on device")
            written = super().write(text)
            self.flush()
            sizes.append(out_path.stat().st_size)
            return written

    monkeypatch.setattr(cli, "open", lambda path, mode: DiskFull(open(path, mode + "b")),
                        raising=False)
    argv = _simulate_argv(identity_file) + ["--steps=20000", "--stride=1",
                                            "--output", str(out_path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: --output: [Errno 28] No space left on device\n"
    assert sizes == [len("step,theta_0,theta_1\n")]
    assert not out_path.exists()


def test_interrupted_write_leaves_no_partial_output_file(capsys, monkeypatch, identity_file,
                                                         tmp_path):
    # an interrupt between two blocks of the CSV removes the partial file and
    # goes on up
    out_path = tmp_path / "traj.csv"
    format_rows = matrixio.format_rows

    def interrupted(values, *args):
        if out_path.stat().st_size > len("step,theta_0,theta_1\n"):
            raise KeyboardInterrupt
        return format_rows(values, *args)

    monkeypatch.setattr(matrixio, "format_rows", interrupted)
    argv = _simulate_argv(identity_file) + ["--steps=20000", "--stride=1",
                                            "--output", str(out_path)]
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert not out_path.exists()


def _oupac_process(argv, stdout) -> subprocess.Popen:
    """``python -m oupac argv`` with its stdout at ``stdout`` and its stderr piped."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "oupac", *argv], stdout=stdout, stderr=subprocess.PIPE,
        text=True,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
    )


def test_a_closed_stdout_pipe_exits_1_without_a_traceback(identity_file):
    # like `oupac simulate ... | head -1`: a CSV of 200001 rows outgrows the pipe
    argv = _simulate_argv(identity_file) + ["--steps=200000", "--stride=1"]
    process = _oupac_process(argv, subprocess.PIPE)
    assert process.stdout.readline().startswith("simulate: steps=200000 ")
    process.stdout.close()
    err = process.stderr.read()
    process.stderr.close()
    assert process.wait(timeout=120) == 1
    assert err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_a_full_stdout_exits_2_with_one_error_line(identity_file):
    with open("/dev/full", "w") as full:
        process = _oupac_process(_simulate_argv(identity_file), full)
        err = process.stderr.read()
    process.stderr.close()
    assert process.wait(timeout=120) == 2
    assert err == "error: standard output: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("command", ["dominance", "kl"])
def test_overflowing_pair_term_exits_3_without_warning(capsys, tmp_path, identity_file,
                                                       gaussian_file, command):
    far = tmp_path / "far.txt"
    write_gaussian(far, np.array([1e200, 0.0]), np.eye(2))
    out_path = tmp_path / "out.json"
    argv = {
        "dominance": ["dominance", "--sigma-pt", identity_file, "--sigma-ft", identity_file,
                      "--shift=1e200,0", "--n-pt", "1000", "--n-ft", "100"],
        "kl": ["kl", "--q", str(far), "--p", gaussian_file, "--mc-draws", "1000"],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, "--output", str(out_path))
    assert code == 3
    assert out == ""
    assert err.startswith(f"error in {command}: a Gaussian-pair term or divergence is not finite")
    assert "Warning" not in err and "Traceback" not in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv, summary", [
    (["--dims=1-4", "--pairs-per-dim=200", "--seed=3"],
     "lemma-survey: pairs=800 holds=684 overall_fraction=0.85499999999999998\n"),
    # a shift of 1e160 overflowed the shift term, which the margin no longer reads
    (["--dims=1-3", "--pairs-per-dim=3"],
     "lemma-survey: pairs=9 holds=8 overall_fraction=0.88888888888888884\n"),
], ids=["dims-1-4", "dims-1-3"])
def test_lemma_survey_payload_does_not_depend_on_the_shift_scale(capsys, argv, summary):
    # Lemma 2's margin D~ - D does not depend on the shift, and --shift-scale,
    # still parsed, changes no byte of the output
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = run_cli(capsys, "lemma-survey", *argv)
        for scale in ("1e4", "1e6", "1e8", "1e10", "1e160", "0"):
            assert run_cli(capsys, "lemma-survey", *argv, f"--shift-scale={scale}") == want
    code, out, err = want
    assert (code, err) == (0, "")
    assert out.startswith(summary)


def test_dominance_on_identical_domains_exits_0(capsys, tmp_path):
    # D on identical domains is exactly 0
    kl_terms = []
    for seed in range(12):
        sigma = random_spd(1 + seed % 8, 0.2, 5.0, seed)
        path, out_path = tmp_path / f"s{seed}.txt", tmp_path / f"s{seed}.json"
        write_matrix(path, sigma.entries)
        code, _, err = run_cli(capsys, "dominance", "--sigma-pt", str(path), "--sigma-ft",
                               str(path), "--shift", ",".join(["0"] * sigma.dim),
                               "--n-pt", "1000", "--n-ft", "100", "--output", str(out_path))
        assert (code, err) == (0, "")
        kl_terms.append(json.loads(out_path.read_text())["ft_report"]["kl_term"])
    assert kl_terms == [0.0] * 12


def test_dominance_evaluates_each_bound_report_once(capsys, monkeypatch, identity_file):
    counts = dict.fromkeys(["pretrain_bound", "finetune_bound"], 0)
    for name in counts:
        original = getattr(bounds, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)
        for module in (bounds, cli):
            monkeypatch.setattr(module, name, counted)
    pair = bounds.DomainPair(make_spd(np.eye(2)), make_spd(2.0 * np.eye(2)), np.ones(2))
    bounds.dominance_report(pair, SampleSpec(1000, 0.05), SampleSpec(100, 0.05))
    assert counts == {"pretrain_bound": 1, "finetune_bound": 1}
    code, _, _ = run_cli(capsys, "dominance", "--sigma-pt", identity_file, "--sigma-ft",
                         identity_file, "--shift", "1,0", "--n-pt", "1000", "--n-ft", "100")
    assert code == 0
    assert counts == {"pretrain_bound": 2, "finetune_bound": 2}


def _stage_flags(prefix: str, hessian: str, factor: str) -> list[str]:
    return [f"--{prefix}hessian", hessian, f"--{prefix}minimizer", "0,0,0",
            f"--{prefix}noise-factor", factor, f"--{prefix}eta", "0.1",
            f"--{prefix}batch", "1", f"--{prefix}steps", "200"]


@pytest.mark.parametrize("argv, expected", [
    (["lyapunov", "--a", "h.txt", "--q", "s.txt", "--eta", "0.1", "--batch", "10"],
     {"cholesky": 0, "eigh": 1, "eigvalsh": 1, "solve": 0}),
    (["kl", "--q", "q.txt", "--p", "p.txt", "--mc-draws", "1000"],
     {"cholesky": 2, "eigh": 0, "eigvalsh": 2}),
    (["dominance", "--sigma-pt", "h.txt", "--sigma-ft", "s.txt", "--shift", "1,0,0",
      "--n-pt", "1000", "--n-ft", "100"],
     {"cholesky": 2, "eigh": 0, "eigvalsh": 2}),
    (["two-stage", *_stage_flags("pt-", "h.txt", "b.txt"),
      *_stage_flags("ft-", "s.txt", "b.txt"), "--init-mode", "analytic_sample"],
     {"cholesky": 1, "eigh": 2, "eigvalsh": 3}),
    (["two-stage", *_stage_flags("pt-", "h.txt", "b.txt"),
      *_stage_flags("ft-", "s.txt", "b.txt"), "--init-mode", "chain_continue"],
     {"cholesky": 0, "eigh": 2, "eigvalsh": 2}),
    (["simulate", *_stage_flags("", "h.txt", "b.txt")],
     {"cholesky": 0, "eigh": 1, "eigvalsh": 1}),
    (["validity", "--weights", "0.3,-0.2,0.1", "--feature-cov", "h.txt", "--n", "60",
      "--trials", "30"],
     {"cholesky": 3, "eigh": 1, "eigvalsh": 2, "solve": 2}),
    (["scaling", "--weights", "0.3,-0.2,0.1", "--feature-cov", "h.txt", "--ns", "9,18,36",
      "--trials", "5"],
     {"cholesky": 5, "eigh": 1, "eigvalsh": 2, "solve": 6}),
], ids=["lyapunov", "kl", "dominance", "two-stage-analytic_sample", "two-stage-chain_continue",
        "simulate", "validity", "scaling"])
def test_each_spd_value_decomposes_once_per_call(capsys, monkeypatch, tmp_path, argv, expected):
    # every SPD value is decomposed once: cholesky once per covariance used (the
    # pre-training bound reads sigma_pt's factor, and its N(0, I) prior, an
    # identity, is its own factor), eigh once per
    # Hessian (the Lyapunov and Stein solves and the chain scan share it), and
    # eigvalsh once per SPD value, at its check, whose eigenvalues the stability
    # checks reuse; the noise covariance C = B^T B is a SymmetricMatrix, not an
    # SPD value, and is never decomposed.  A gap experiment's trials are one
    # stack: one eigh of all their Hessians, whose eigenvalues the design and
    # stability checks read, no eigvalsh of a Hessian or a posterior (its
    # Gershgorin discs decide), and cholesky once for the feature covariance,
    # once per sample size for the fits and once for the posteriors' KL, whose
    # identity prior is not factored and takes no solve (the two solves of a
    # least-squares fit remain).  A Lyapunov solve takes A's eigvalsh, at its
    # SPD check, and one eigh, and no other decomposition
    write_matrix(tmp_path / "h.txt", [[2.0, 0.5, 0.0], [0.5, 1.0, 0.1], [0.0, 0.1, 1.5]])
    write_matrix(tmp_path / "s.txt", [[1.5, 0.2, 0.0], [0.2, 0.8, 0.0], [0.0, 0.0, 1.2]])
    write_matrix(tmp_path / "b.txt", [[0.5, 0.1, 0.0], [0.0, 0.4, 0.1], [0.0, 0.0, 0.3]])
    write_gaussian(tmp_path / "q.txt", [0.1, -0.2, 0.3],
                   [[0.05, 0.01, 0.0], [0.01, 0.025, 0.0], [0.0, 0.0, 0.04]])
    write_gaussian(tmp_path / "p.txt", np.zeros(3), np.eye(3))
    monkeypatch.chdir(tmp_path)
    counts = dict.fromkeys(expected, 0)
    for name in counts:
        def counted(*args, name=name, original=getattr(np.linalg, name)):
            counts[name] += 1
            return original(*args)
        monkeypatch.setattr(np.linalg, name, counted)
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert counts == expected


def test_entries_past_half_the_float_maximum_run_or_exit_3_without_warning(
        capsys, tmp_path, identity_file):
    # (M + M^T) / 2 of 1e308 I is formed as M/2 + M^T/2, so it does not
    # overflow; the Lyapunov denominators lam_i + lam_j = 2e308 are halved
    # with Q, and X = I / 2e308 is subnormal, right to within its last bit
    # (which halving a subnormal may drop); the pre-training divergence, the
    # pair terms of (I, S), is not finite: tr(I^-1 S) overflows
    big = tmp_path / "big.txt"
    big.write_text("2\n1e308 0\n0 1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "lyapunov", "--a", str(big), "--q", identity_file)
        assert (code, err) == (0, "")
        np.testing.assert_allclose(parse_matrix(out.split("\n", 1)[1]),
                                   0.5e-308 * np.eye(2), rtol=0.0, atol=5e-324)
        code, out, err = run_cli(capsys, "dominance", "--sigma-pt", str(big), "--sigma-ft",
                                 identity_file, "--shift=0,0", "--n-pt", "1000", "--n-ft", "100")
    assert (code, out) == (3, "")
    assert err == ("error in dominance: a Gaussian-pair term or divergence is not finite "
                   "(tr(Sp^-1 Sq) = inf, log det Sp - log det Sq = -1418.39, shift^T Sp^-1 shift "
                   "= 0): an input is too large for float64\n")


def test_lyapunov_at_the_largest_eta_exits_0(capsys, identity_file):
    # Q = 1e308 I: X = 5e307 I, whose residual is exactly 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "lyapunov", "--a", identity_file, "--q", identity_file,
                                 "--eta=1e308")
    assert (code, err) == (0, "")
    assert parse_matrix(out.split("\n", 1)[1]).tolist() == [
        [5e307, 0.0], [0.0, 5e307]]


def test_kl_of_means_whose_difference_overflows_exits_3_with_one_line(capsys, tmp_path):
    # p.mean - q.mean overflows, which makes the term +inf; the overflow was
    # once printed as a warning, and the term as NaN
    write_gaussian(tmp_path / "q.txt", [1e308, 0.0], np.eye(2))
    write_gaussian(tmp_path / "p.txt", [-1e308, 0.0], np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "kl", "--q", str(tmp_path / "q.txt"),
                                 "--p", str(tmp_path / "p.txt"), "--mc-draws", "1000")
    assert (code, out) == (3, "")
    assert err == ("error in kl: a Gaussian-pair term or divergence is not finite "
                   "(tr(Sp^-1 Sq) = 2, log det Sp - log det Sq = 0, shift^T Sp^-1 shift = inf): "
                   "an input is too large for float64\n")


@pytest.mark.parametrize("n", [2**1020, 2**1023 - 1, 2**1023, 10**308, 2**1024 - 2**970 - 1,
                               2**1024 - 2**970, 2**1024 - 1],
                         ids=["2^1020", "2^1023-1", "2^1023", "10^308", "2^1024-2^970-1",
                              "2^1024-2^970", "2^1024-1"])
def test_a_sample_size_up_to_2_1024_gives_a_finite_positive_term(capsys, tmp_path,
                                                                 identity_file, n):
    # 2N - 1 overflowed from N = 2^1023, which made the term exactly 0 and
    # dominance's ratio a ZeroDivisionError traceback
    try:
        SampleSpec(n, 0.5)
    except InvalidSpecError:
        accepted = False  # float(N) overflows from 2^1024 - 2^970
    else:
        accepted = True
    assert accepted == (n < 2**1024 - 2**970)
    out_path = tmp_path / "out.json"
    domains = ["dominance", "--sigma-pt", identity_file, "--sigma-ft", identity_file,
               "--shift", "1,0", "--delta", "0.5"]
    for argv, keys in [
        (["bound", "--kl", "1", f"--n={n}", "--delta", "0.5"], ["complexity_term"]),
        ([*domains, f"--n-pt={n}", "--n-ft=10"], ["pt_term", "ft_term", "ratio"]),
        ([*domains, "--n-pt=10", f"--n-ft={n}"], ["pt_term", "ft_term", "ratio"]),
    ]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, *argv, "--output", str(out_path))
        if not accepted:
            assert code == 2 and "must be below 2**1024" in err
            continue
        assert (code, err) == (0, "")
        payload = json.loads(out_path.read_text())
        for key in keys:
            assert 0.0 < payload[key] < math.inf, (argv, key)


def test_bound_at_a_sample_size_of_1e308_is_within_2_ulps(capsys, tmp_path):
    out_path = tmp_path / "bound.json"
    assert run_cli(capsys, "bound", "--kl", "1", f"--n={10**308}", "--delta", "0.5",
                   "--output", str(out_path))[0] == 0
    with mpmath.workdps(50):
        n = mpmath.mpf(10**308)
        want = float(mpmath.sqrt((1 + mpmath.log(2) + mpmath.log(n) + 2) / (2 * n - 1)))
    np.testing.assert_array_max_ulp(json.loads(out_path.read_text())["complexity_term"], want,
                                    maxulp=2)


def test_lemma_survey_of_subnormal_eigenvalues_exits_3_with_the_loop_error(capsys):
    # the drawn products round a subnormal spectrum to 0: the check that a
    # pair-by-pair loop makes first raises, where a Cholesky factor failed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "lemma-survey", "--dims=1", "--eig-low=5e-324",
                                 "--eig-high=5e-324")
    assert (code, out) == (3, "")
    assert err == ("error in lemma-survey: matrix is not strictly positive definite: "
                   "smallest eigenvalue 0 <= tolerance 0\n")


def test_lemma_survey_at_the_largest_eigenvalue_exits_without_a_traceback(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "lemma-survey", "--dims", "1-3", "--pairs-per-dim",
                                 "4", "--eig-high=1e308")
    assert code in (0, 3)
    if code == 3:
        assert out == "" and err.startswith("error in lemma-survey: ") and err.count("\n") == 1
    else:
        assert err == ""


def test_lyapunov_on_a_rotated_hessian_of_condition_1e8_exits_0(capsys, tmp_path,
                                                                 identity_file):
    # its residual, about eps ||A|| ||X|| = 1e-8, failed the old absolute
    # check 1e-10 (1 + ||Q||); its backward error is a fraction of d eps
    turn = np.linalg.qr(make_rng(8).standard_normal((4, 4)))[0]
    a = (turn * np.geomspace(1e-8, 1.0, 4)) @ turn.T
    a_path, q_path = tmp_path / "a.txt", tmp_path / "q.txt"
    write_matrix(a_path, (a + a.T) / 2.0)
    write_matrix(q_path, np.eye(4))
    code, out, err = run_cli(capsys, "lyapunov", "--a", str(a_path), "--q", str(q_path))
    assert (code, err) == (0, "")
    x = parse_matrix(out.split("\n", 1)[1])
    # against the Kronecker solve: forward error at most about kappa d eps
    kron = np.kron(a, np.eye(4)) + np.kron(np.eye(4), a)
    want = np.linalg.solve(kron, np.eye(4).reshape(-1)).reshape(4, 4)
    assert np.linalg.norm(x - want) <= 1e8 * 16 * 4 * np.finfo(float).eps * np.linalg.norm(want)


def test_analytic_sample_from_a_tiny_stationary_covariance_exits_0(capsys, tmp_path,
                                                                    identity_file):
    # noise factor 1e-6 I, eta 0.1, batch 1: the stationary covariance is
    # 5e-14 I, refused by the SPD check's old absolute floor of 1e-10
    factor = _noise_file(tmp_path, 1e-6)
    argv = ["two-stage", "--init-mode", "analytic_sample"]
    for stage, centre in (("pt", "0,0"), ("ft", "1,0")):
        argv += [f"--{stage}-hessian", identity_file, f"--{stage}-minimizer", centre,
                 f"--{stage}-noise-factor", factor, f"--{stage}-eta", "0.1",
                 f"--{stage}-batch", "1", f"--{stage}-steps", "100"]
    code, _, err = run_cli(capsys, *argv, "--output", str(tmp_path / "out.json"))
    assert (code, err) == (0, "")


_MOMENTS_OVERFLOW = "chain moments: the mean or covariance of the records overflows float64"
_RADIUS_ROUNDS_TO_1 = ("stability_check failed: spectral radius of the step map is 1 >= 1 "
                       "(1 - lr*lambda rounds to 1 in float64: lr too small for this Hessian)")


def _noise_file(tmp_path, scale: float) -> str:
    path = tmp_path / f"noise-{scale:g}.txt"
    write_matrix(path, scale * np.eye(2))
    return str(path)


@pytest.mark.parametrize("command, flags, message", [
    # the noise factor 5e153 I: its Gram 2.5e307 I is finite, and so is each
    # record, about 1e153, but the sum of 5001 squared records is not
    ("simulate", ["--noise-factor=<big>", "--steps=10000", "--stride=1"], _MOMENTS_OVERFLOW),
    ("two-stage", ["--pt-noise-factor=<big>", "--pt-steps=10000", "--stride=1"],
     _MOMENTS_OVERFLOW),
    ("simulate", ["--eta=1e-17"], _RADIUS_ROUNDS_TO_1),
    ("two-stage", ["--pt-eta=1e-17"], _RADIUS_ROUNDS_TO_1),
])
def test_chain_failure_exits_3_naming_its_cause(capsys, tmp_path, identity_file, command,
                                                flags, message):
    base = {"simulate": _simulate_argv, "two-stage": _two_stage_argv}[command](identity_file)
    flags = [flag.replace("<big>", _noise_file(tmp_path, 5e153)) for flag in flags]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *base, *flags)
    assert (code, out) == (3, "")
    assert "RuntimeWarning" not in err and "Traceback" not in err
    assert err == f"error in {command}: {message}\n"


def test_chain_far_from_the_origin_keeps_its_moments(capsys, tmp_path, identity_file):
    # the moments are taken in the chain's own coordinates, where the
    # minimizer does not enter, so simulate prints the origin's summary at
    # every minimizer; on absolute states a kick of about 0.1 is lost below
    # half an ulp of 1e16
    simulate = _simulate_argv(identity_file)[:-2] + ["--steps=20000", "--stride=10"]
    summaries = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for centre in ["0,0", "1e8,1e8", "1e16,1e16", "1e20,1e20", "1e300,1e300"]:
            simulate[simulate.index("--minimizer") + 1] = centre
            code, out, err = run_cli(capsys, *simulate, "--output", str(tmp_path / "t.csv"))
            assert (code, err) == (0, "")
            summaries.append(out)
        assert summaries == summaries[:1] * 5
        assert "empirical_vs_stein_rel_frobenius=0.04338327665327" in summaries[0]

        # at 1e300 the fine-tuning start loses its offset from the minimizer
        # to rounding; 500 burn-in steps at radius 0.9 shrink it by 1e-23,
        # below the last bit of the kept records
        payloads = []
        for centre in ["0,0", "1e300,1e300"]:
            argv = _two_stage_argv(identity_file) + [
                f"--pt-minimizer={centre}", f"--ft-minimizer={centre}", "--pt-steps=1000",
                "--ft-steps=1000", "--stride=1", "--output", str(tmp_path / "two.json")]
            assert run_cli(capsys, *argv)[0] == 0
            payloads.append(json.loads((tmp_path / "two.json").read_text()))
    for stage in ("pt", "ft"):
        assert payloads[1][stage]["covariance"] == payloads[0][stage]["covariance"]
        assert payloads[1][stage]["mean"] == [1e300, 1e300]


@pytest.mark.parametrize("command, flag", [
    ("simulate", "--noise-factor"), ("two-stage", "--pt-noise-factor"),
    ("two-stage", "--ft-noise-factor")])
def test_huge_noise_factor_exits_3_or_0_without_warning(capsys, tmp_path, identity_file,
                                                        command, flag):
    # 1e200 I: the Gram B^T B overflows and is rejected as not finite;
    # 1e150 I: every norm of the relative gap and of the residual checks is
    # finite, though its squares would overflow
    base = {"simulate": _simulate_argv, "two-stage": _two_stage_argv}[command](identity_file)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *base, f"{flag}={_noise_file(tmp_path, 1e200)}")
        assert (code, out, err) == (3, "", f"error in {command}: matrix contains non-finite "
                                           f"entries\n")
        code, out, err = run_cli(capsys, *base, f"{flag}={_noise_file(tmp_path, 1e150)}")
    assert (code, err) == (0, "")
    if command == "simulate":
        gap = float(out.split("empirical_vs_stein_rel_frobenius=")[1].split()[0])
        assert 0.0 < gap < 1.0


@pytest.mark.parametrize("noise_std", ["1e154", "1e200"])
@pytest.mark.parametrize("command", ["validity", "scaling"])
def test_overflowing_noise_exits_3_without_warning(capsys, command, noise_std):
    argv = {"validity": ["validity", "--trials=10", "--n=20"],
            "scaling": ["scaling", "--ns=20,40", "--trials=3"]}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, "--noise-std", noise_std)
    assert (code, out) == (3, "")
    assert err.startswith(f"error in {command}: gap trial risks are not finite")
    assert "Traceback" not in err


_EXTREME_FLOATS = ["0", "-0.0", "5e-324", "1e-320", "1e-300", "1e200", "1e308", "-1e308"]
_EXTREME_INTS = ["0", "-1", str(2**63), str(2**64), str(10**400)]
# run lengths and counts set the work a call does, so only their low edge is swept
_COUNT_OPTIONS = {"steps", "pt_steps", "ft_steps", "replicas", "mc_draws", "pairs_per_dim",
                  "trials"}


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_extreme_option_values_exit_0_2_or_3_with_finite_payloads(
    capsys, tmp_path, identity_file, gaussian_file, name
):
    # each numeric option of the table, in turn, on a small valid call
    small = {
        "lyapunov": ["--a", identity_file, "--q", identity_file],
        "simulate": _simulate_argv(identity_file)[1:] + ["--stride=1"],
        "two-stage": _two_stage_argv(identity_file)[1:] + ["--replicas=2", "--stride=1"],
        "kl": ["--q", gaussian_file, "--p", gaussian_file, "--mc-draws=1000"],
        "bound": ["--kl=1", "--n=10", "--delta=0.05"],
        "lemma-survey": ["--dims=1-2", "--pairs-per-dim=2"],
        "dominance": ["--sigma-pt", identity_file, "--sigma-ft", identity_file,
                      "--shift=1,0", "--n-pt=10", "--n-ft=10"],
        "validity": ["--trials=10", "--n=20"],
        "scaling": ["--ns=10,40", "--trials=2"],
    }[name]
    output = tmp_path / "payload"
    for key, option in cli._COMMANDS[name]["options"].items():
        if option.parse is cli._float:
            values = _EXTREME_FLOATS
        elif option.parse is cli._int:
            values = _EXTREME_INTS[:2] if key in _COUNT_OPTIONS else _EXTREME_INTS
        else:
            continue
        for value in values:
            argv = [name, *small, f"{cli._flag(key)}={value}", f"--output={output}"]
            # an exception or a warning escaping main() fails this call with its traceback
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
            capsys.readouterr()
            assert code in (0, 2, 3), argv
            if code == 0:
                text = output.read_text()
                if name in ("lyapunov", "simulate"):
                    assert "inf" not in text and "nan" not in text, argv
                else:
                    json.loads(text, parse_constant=_refuse_constant)


def test_unknown_flag_exits_2(capsys):
    code, out, err = run_cli(capsys, "bound", "--kl", "0", "--n", "5", "--delta", "0.5",
                             "--bogus", "1")
    assert (code, out) == (2, "")
    assert err == "error: unrecognized argument '--bogus' (see 'oupac bound --help')\n"


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2


def _has_default(option) -> bool:
    return option.default is not ... and option.default is not None


# every command but bound, all of whose options are required or default to None
@pytest.mark.parametrize("name", [name for name, spec in cli._COMMANDS.items()
                                  if any(map(_has_default, spec["options"].values()))])
def test_every_default_reaches_params_alike_from_default_config_and_flag(
    tmp_path, identity_file, gaussian_file, name
):
    # one valid text per parser, to fill in the required options
    stand_ins = {cli._matrix_file: identity_file, cli._gaussian_file: gaussian_file,
                 cli._vector: "0,0", cli._float: "0.5", cli._int: "2", cli._ints: "10,20"}
    options = cli._COMMANDS[name]["options"]
    required = [f"--{key.replace('_', '-')}={stand_ins[option.parse]}"
                for key, option in options.items() if option.default is ...]
    config = tmp_path / "cfg.json"
    with_default = [key for key, option in options.items() if _has_default(option)]
    for key in with_default:
        default = options[key].default
        config.write_text(json.dumps({key: default}))
        text = repr(default) if isinstance(default, float) else str(default)
        ways = [[], ["--config", str(config)], [f"--{key.replace('_', '-')}={text}"]]
        values = [cli._merge_params(name, cli._table_args(name, [*required, *way]))[key]
                  for way in ways]
        for value in values[1:]:
            assert type(value) is type(values[0]), key
            np.testing.assert_array_equal(value, values[0], err_msg=key)


def test_reversed_dims_range_is_reported_empty(capsys):
    code, _, err = run_cli(capsys, "lemma-survey", "--dims", "3-1")
    assert code == 2
    assert "empty" in err


def _csv_writer_text(header: list[str], rows: list[list]) -> str:
    """Reference: the standard library's csv writer on _fmt's fields."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cli._fmt(v) for v in row])
    return buffer.getvalue()


def test_csv_text_matches_csv_writer():
    header = ["step", "theta_0", "theta_1", "flag", "note"]
    rows = [
        [0, -0.0, float("nan"), True, None],
        [np.int64(7), float("inf"), -float("inf"), False, ""],
        [14, 1e300, 5e-324, np.bool_(True), 0.1],
        [21, np.float64(0.1), np.float64(-0.0), None, np.float64(5e-324)],
        [28, np.float64(np.nan), -1e-300, 3, -2],
    ]
    assert cli._csv_text(header, rows) == _csv_writer_text(header, rows)


def _full_parser() -> argparse.ArgumentParser:
    """Reference: one parser with every subcommand's options, from _COMMANDS."""
    parser = argparse.ArgumentParser(prog="oupac", description=cli._DESCRIPTION)
    subparsers = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, spec in cli._COMMANDS.items():
        sub = subparsers.add_parser(name, help=spec["help"], description=spec["help"])
        for key, option in spec["options"].items():
            sub.add_argument("--" + key.replace("_", "-"), dest=key,
                             default=argparse.SUPPRESS, help=cli._help(option))
        sub.add_argument("--config", default=argparse.SUPPRESS,
                         help="JSON file with option values (flags override)")
    return parser


#: Built once for the property test; argparse keeps no state between parses.
_FULL_PARSER = _full_parser()


@pytest.mark.parametrize("argv, named", [
    (["bogus"], "unknown subcommand 'bogus'"),
    (["--bogus"], "unknown subcommand '--bogus'"),
    (["bound", "--kl", "0", "--bogus", "1"], "'--bogus'"),
    (["validity", "--trials"], "--trials needs a value"),
    (["simulate", "--stride", "1", "stray"], "'stray'"),
    (["scaling", "--ns"], "--ns needs a value"),
    (["simulate", "--steps"], "--steps needs a value"),
    (["bound", "--kl", "--n", "3"], "--kl needs a value"),
    (["bound", "--", "--kl", "0"], "'--'"),
    (["bound", "--k", "0", "--n", "100", "--delta", "0.05"], "'--k'"),
])
def test_malformed_call_exits_2_with_one_error_line(capsys, tmp_path, argv, named):
    out_path = tmp_path / "out.json"
    # a SystemExit or any other exception escaping main() fails this call
    code, out, err = run_cli(capsys, argv[0], "--output", str(out_path), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
    assert named in err
    assert "Traceback" not in err
    assert not out_path.exists()


@pytest.mark.parametrize("flag", ["--help", "-h"])
@pytest.mark.parametrize("name", [None, *cli._COMMANDS])
def test_help_lists_every_option_with_its_help(capsys, name, flag):
    code, out, err = run_cli(capsys, *filter(None, [name, flag]))
    assert (code, err) == (0, "")
    rows = dict(line.split(None, 1) for line in out.splitlines() if line.startswith("  "))
    if name is None:
        want = {command: spec["help"] for command, spec in cli._COMMANDS.items()}
    else:
        want = {"--" + key.replace("_", "-"): cli._help(option)
                for key, option in cli._COMMANDS[name]["options"].items()}
        want["--config"] = "JSON file with option values (flags override)"
    assert rows == want


@st.composite
def _well_formed_call(draw) -> tuple[str, list[str]]:
    """A subcommand and flags from its option table, each ``--key=value`` or
    ``--key value``, some repeated, ``--config`` among them."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    flags = ["--" + key.replace("_", "-") for key in cli._COMMANDS[name]["options"]]
    chosen = draw(st.lists(st.sampled_from([*flags, "--config"]), min_size=1, max_size=3))
    words = []
    for flag in draw(st.lists(st.sampled_from(chosen), max_size=8)):
        if draw(st.booleans()):
            words.append(f"{flag}={draw(st.text(max_size=6))}")
        else:
            words += [flag, draw(st.text(max_size=6).filter(lambda t: not t.startswith("-")))]
    return name, words


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_well_formed_call())
def test_table_args_match_the_full_parser(call):
    name, words = call
    want = vars(_FULL_PARSER.parse_args([name, *words]))
    assert want.pop("subcommand") == name
    assert cli._table_args(name, words) == want


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_abbreviated_flag_is_rejected(name):
    flags = ["--" + key.replace("_", "-") for key in cli._COMMANDS[name]["options"]]
    for flag in flags:
        for prefix in {flag[:end] for end in range(3, len(flag))} - set(flags):
            with pytest.raises(ConfigError, match=f"^unrecognized argument '{prefix}' "):
                cli._table_args(name, [prefix, "1"])


@pytest.mark.parametrize("argv, code, stdout", [
    (["bound", "--kl", "0", "--n", "100", "--delta=0.05"], 0, "bound: complexity_term="),
    (["bound", "--help"], 0, "usage: oupac bound "),
    (["bound", "--k", "0", "--n", "100", "--delta=0.05"], 2, ""),
], ids=["well_formed", "help", "malformed"])
def test_no_call_imports_argparse(argv, code, stdout):
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "oupac", *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
    )
    assert result.returncode == code, result.stderr
    assert result.stdout.startswith(stdout) if stdout else result.stdout == ""
    imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()]
    assert "oupac.cli" in imported
    assert "argparse" not in imported


_EXTREMES = np.array([
    [-0.0, float("nan"), float("inf")],
    [-float("inf"), 5e-324, 1e300],
    [0.1, -1e-300, 1.0],
    [-2.5, 123456789.125, 2.0**60],
])


@pytest.mark.parametrize("states, stride", [
    (_EXTREMES, 1),
    (_EXTREMES, 2**31 + 3),
    (_EXTREMES[:, :1], 2**40),
    (np.random.default_rng(3).standard_normal((50, 7)), 10),
])
def test_trajectory_csv_matches_field_by_field_text(states, stride):
    # the states whole, and in three blocks that step numbers must continue across
    header = ["step"] + [f"theta_{i}" for i in range(states.shape[1])]
    rows = [[i * stride, *state] for i, state in enumerate(states.tolist())]
    for blocks in [states], np.array_split(states, 3):
        text = "".join(cli._trajectory_csv(blocks, states.shape[1], stride))
        assert text == _csv_writer_text(header, rows)


@pytest.mark.parametrize("dim", [1, 64])
@pytest.mark.parametrize("extra_rows", [-1, 0, 1])
def test_trajectory_csv_matches_field_by_field_text_across_blocks(dim, extra_rows):
    # one block short of, exactly at and one row past the kernel's block size,
    # with values the kernel formats one at a time spread through the table
    rows = matrixio._block_rows(dim) + extra_rows
    states = np.random.default_rng(dim + extra_rows).standard_normal((rows, dim))
    states.flat[::97] = _EXTREMES.flat[np.arange(states.flat[::97].size) % _EXTREMES.size]
    test_trajectory_csv_matches_field_by_field_text(states, 7)


@pytest.mark.parametrize("dim", [1, 2, 10, 128])
@pytest.mark.parametrize("blocks, extra_rows", [
    (1, -1), (1, 0), (1, 1), (2, -1), (2, 0), (2, 1),
])
def test_simulate_file_matches_field_by_field_text_across_blocks(capsys, tmp_path, dim, blocks,
                                                                 extra_rows):
    # records around one and two blocks of the text kernel, which simulate
    # writes to its file one block at a time; noise scales of 4e14 and 4e-10
    # put values on both sides of the kernel's window, which it formats one
    # at a time
    records = blocks * matrixio._block_rows(dim) + extra_rows
    hessian, factor = tmp_path / "a.txt", tmp_path / "b.txt"
    scales = np.where(np.arange(dim) % 2, 4e-10, 4e14)
    write_matrix(hessian, np.eye(dim))
    write_matrix(factor, np.diag(scales))
    out_path = tmp_path / "traj.csv"
    seed = dim + blocks + extra_rows
    code, _, err = run_cli(
        capsys, "simulate", "--hessian", str(hessian), "--minimizer", ",".join(["0"] * dim),
        "--noise-factor", str(factor), "--eta", "0.1", "--batch", "1",
        "--steps", str(records - 1), "--stride", "1", f"--seed={seed}", "--output", str(out_path))
    assert (code, err) == (0, "")
    loss = diffusion.QuadraticLoss(make_spd(np.eye(dim)), np.zeros(dim))
    dyn = diffusion.SgdDynamics(0.1, 1, np.diag(scales))
    traj = diffusion.simulate_chain(np.zeros(dim), loss, dyn, records - 1, stride=1, seed=seed)
    states = np.concatenate(list(traj.state_blocks()))
    header = ["step"] + [f"theta_{i}" for i in range(dim)]
    rows = [[i, *state] for i, state in enumerate(states.tolist())]
    assert out_path.read_bytes() == _csv_writer_text(header, rows).encode()


def test_simulate_streams_its_csv_to_the_output_file(capsys, tmp_path):
    # d = 10, 20000 steps at stride 1: the records (1.6 MB), one noise chunk
    # and its kicked copy (3.2 MB) and the scan's scratch, then one block of
    # text at a time; the joined 4 MB CSV, a copy or its bytes would be more.
    # A first run makes the imports and tables that a fresh process makes once
    eye = tmp_path / "eye.txt"
    write_matrix(eye, np.eye(10))
    argv = ["simulate", "--hessian", str(eye), "--minimizer", ",".join(["0"] * 10),
            "--noise-factor", str(eye), "--eta", "0.1", "--batch", "1", "--steps", "20000",
            "--stride", "1", "--output", str(tmp_path / "traj.csv")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 6.0e6


def test_simulate_holds_one_records_array(tmp_path):
    # d = 2, 600000 steps at stride 1: the records (9.6 MB), one noise chunk
    # and its kicked copy (4.2 MB) or, later, the 4.8 MB centred copy of the
    # post-burn-in half, and under 2 MB for the scan's scratch, a block of
    # states and its text; a second records-sized array (19.3 MB in all)
    # would not fit.  A first run makes the imports and tables once
    dim, steps = 2, 600_000
    eye = tmp_path / "eye.txt"
    write_matrix(eye, np.eye(dim))
    argv = ["simulate", "--hessian", str(eye), "--minimizer", "0,0", "--noise-factor", str(eye),
            "--eta", "0.1", "--batch", "1", "--steps", str(steps), "--stride", "1",
            "--output", str(tmp_path / "traj.csv")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= (steps + 1) * dim * 8 + 2 * diffusion.NOISE_CHUNK * dim * 8 + 2e6


def test_trajectory_csv_peak_memory():
    # no more than the per-row formatting it replaced took (13.07 MB measured)
    states = np.random.default_rng(6).standard_normal((20001, 10))
    tracemalloc.start()
    try:
        "".join(cli._trajectory_csv([states], 10, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13.0e6


def _format_matrix_by_field(entries) -> str:
    """Reference: FLOAT_FORMAT on each entry, the dimension line first."""
    lines = [str(len(entries))] + [" ".join(FLOAT_FORMAT % v for v in row) for row in entries]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("entries", [
    _EXTREMES[:3],
    np.array([[5e-324]]),
    np.arange(16).reshape(4, 4),
    np.random.default_rng(4).standard_normal((6, 6)),
    np.random.default_rng(5).standard_normal((64, 64)),
])
def test_format_matrix_matches_field_by_field_text(entries):
    arr = np.asarray(entries, dtype=float)
    assert format_matrix(entries) == _format_matrix_by_field(arr)
    mean_line = " ".join(FLOAT_FORMAT % v for v in arr[0]) + "\n"
    assert format_gaussian(arr[0], entries) == _format_matrix_by_field(arr) + mean_line


def _run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter with oupac importable; its last stdout line."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True,
        timeout=120,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


def test_kl_peak_memory_grows_by_one_value_a_draw(tmp_path):
    # the one-pass estimator held about 61 bytes a draw at d = 2 (a 4e6-draw
    # run peaked 244 MB above a 1e5-draw one); chunked, a draw adds its
    # 8-byte value and the scratch of a chunk stays the same
    q, p = tmp_path / "q.txt", tmp_path / "p.txt"
    write_gaussian(q, np.zeros(2), np.eye(2))
    write_gaussian(p, np.ones(2), 2 * np.eye(2))
    peaks = {}
    for draws in (10**5, 4 * 10**6):
        argv = ["kl", "--q", str(q), "--p", str(p), f"--mc-draws={draws}",
                "--output", str(tmp_path / "kl.json")]
        peaks[draws] = int(_run_python(f"""
            import resource
            from oupac.cli import main
            assert main({argv!r}) == 0
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)  # KiB on Linux
        """))
    assert (peaks[4 * 10**6] - peaks[10**5]) * 1024 <= 12 * 4 * 10**6


def test_two_stage_run_leaves_scipy_signal_unimported(identity_file):
    # scipy.signal costs about twice the whole package's import time
    argv = _two_stage_argv(identity_file) + ["--replicas", "2"]
    assert _run_python(f"""
        import sys
        import oupac
        from oupac.cli import main
        assert main({argv!r}) == 0
        print("scipy.signal" in sys.modules)
    """) == "False"


def test_every_subcommand_leaves_scipy_unimported(identity_file, gaussian_file):
    # importing scipy.linalg is most of the package's import time
    calls = [
        ["bound", "--kl", "0", "--n", "100", "--delta", "0.05"],
        ["lyapunov", "--a", identity_file, "--q", identity_file],
        _simulate_argv(identity_file),
        _two_stage_argv(identity_file) + ["--replicas", "2"],
        ["kl", "--q", gaussian_file, "--p", gaussian_file, "--mc-draws", "1000"],
        ["lemma-survey", "--dims", "1-3", "--pairs-per-dim", "2"],
        ["dominance", "--sigma-pt", identity_file, "--sigma-ft", identity_file,
         "--shift", "1,0", "--n-pt", "1000", "--n-ft", "100"],
        ["validity", "--trials", "10", "--n", "20"],
        ["scaling", "--ns", "10,20", "--trials", "2"],
    ]
    assert sorted(call[0] for call in calls) == sorted(cli._COMMANDS)
    assert _run_python(f"""
        import sys
        import numpy as np
        import oupac
        from oupac.cli import main
        for argv in {calls!r}:
            assert main(argv) == 0, argv
        m = np.array([[0.5, 0.2, 0.0], [0.2, -0.6, 0.1], [0.0, 0.1, 0.3]])
        oupac.solve_discrete_stein(m, oupac.SymmetricMatrix(np.eye(3)))
        print("scipy" in sys.modules)
    """) == "False"
