"""CLI contract: numeric fidelity, exit codes, config handling, determinism."""

import argparse
import csv
import errno
import io
import json
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oupac import (
    SampleSpec,
    kl_divergence,
    GaussianMeasure,
    make_spd,
    mcallester_bound,
    random_spd,
)
from oupac import bounds, cli, diffusion, matrixio
from oupac.cli import main
from oupac.linalg import RECORD_FLOATS
from oupac.matrixio import (
    FLOAT_FORMAT,
    format_gaussian,
    format_matrix,
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
])
def test_out_of_range_option_exits_2_without_traceback(
    capsys, identity_file, gaussian_file, command, extra
):
    extra = [gaussian_file if arg == "<gaussian_file>" else arg for arg in extra]
    base = {
        "simulate": _simulate_argv(identity_file),
        "two-stage": _two_stage_argv(identity_file),
        "lyapunov": ["lyapunov", "--a", identity_file, "--q", identity_file],
        "kl": ["kl", "--q", gaussian_file, "--p", gaussian_file],
        "bound": ["bound", "--n", "100", "--delta", "0.05"],
    }.get(command, [command])
    # an exception escaping main() would fail this call with its traceback
    code, out, err = run_cli(capsys, *base, *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, burn_in, message", [
    ("simulate", "-1", "burn_in_records must be >= 0, got -1"),
    ("simulate", "10", "1 records left after burn-in of 10; need >= 2"),
    ("two-stage", "-1", "burn_in_records must be >= 0, got -1"),
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


@pytest.mark.parametrize("command", ["lemma-survey", "dominance", "kl"])
def test_overflowing_pair_term_exits_3_without_warning(capsys, tmp_path, identity_file,
                                                       gaussian_file, command):
    far = tmp_path / "far.txt"
    write_gaussian(far, np.array([1e200, 0.0]), np.eye(2))
    out_path = tmp_path / "out.json"
    argv = {
        "lemma-survey": ["lemma-survey", "--dims=1-3", "--pairs-per-dim=3",
                         "--shift-scale=1e160"],
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


def test_dominance_on_identical_domains_exits_0(capsys, tmp_path):
    # D on identical domains is a rounding error either side of 0 (seed 8 below 0)
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
    assert min(kl_terms) < 0.0


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
    bounds.dominance_report(pair.sigma_pt, SampleSpec(1000, 0.05), pair, SampleSpec(100, 0.05))
    assert counts == {"pretrain_bound": 1, "finetune_bound": 1}
    code, _, _ = run_cli(capsys, "dominance", "--sigma-pt", identity_file, "--sigma-ft",
                         identity_file, "--shift", "1,0", "--n-pt", "1000", "--n-ft", "100")
    assert code == 0
    assert counts == {"pretrain_bound": 2, "finetune_bound": 2}


@pytest.mark.parametrize("command", ["dominance", "lyapunov"])
def test_overflowing_matrix_exits_3_without_warning(capsys, tmp_path, identity_file, command):
    big = tmp_path / "big.txt"
    big.write_text("2\n1e308 0\n0 1e308\n")
    argv = {
        "dominance": ["dominance", "--sigma-pt", str(big), "--sigma-ft", identity_file,
                      "--shift=0,0", "--n-pt", "1000", "--n-ft", "100"],
        "lyapunov": ["lyapunov", "--a", str(big), "--q", identity_file],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"error in {command}: matrix symmetrization (M + M^T) / 2 overflows float64\n"


_MOMENTS_OVERFLOW = ("empirical_moments: the sample mean or covariance of the records "
                     "overflows float64")
_RADIUS_ROUNDS_TO_1 = ("stability_check failed: spectral radius of the step map is 1 >= 1 "
                       "(1 - lr*lambda rounds to 1 in float64: lr too small for this Hessian)")


@pytest.mark.parametrize("command, flags, message", [
    ("simulate", ["--minimizer=1e300,1e300", "--stride=1"], _MOMENTS_OVERFLOW),
    ("two-stage", ["--pt-minimizer=3e300,3e300", "--ft-minimizer=3e300,3e300", "--stride=1"],
     _MOMENTS_OVERFLOW),
    ("simulate", ["--eta=1e-17"], _RADIUS_ROUNDS_TO_1),
    ("two-stage", ["--pt-eta=1e-17"], _RADIUS_ROUNDS_TO_1),
])
def test_chain_failure_exits_3_naming_its_cause(capsys, identity_file, command, flags,
                                                message):
    base = {"simulate": _simulate_argv, "two-stage": _two_stage_argv}[command](identity_file)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *base, *flags)
    assert (code, out) == (3, "")
    assert "RuntimeWarning" not in err and "Traceback" not in err
    assert err == f"error in {command}: {message}\n"


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


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bound", "--kl", "0", "--n", "5", "--delta", "0.5", "--bogus", "1"])
    assert excinfo.value.code == 2


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2


@pytest.mark.parametrize("name", list(cli._COMMANDS))
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
    with_default = [key for key, option in options.items()
                    if option.default is not ... and option.default is not None]
    assert with_default
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
    parser = argparse.ArgumentParser(prog="oupac", description=cli._build_parser().description)
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


def _reference_main(argv: list[str]) -> int:
    """main's parsing and help, on the full parser."""
    parser = _full_parser()
    if parser.parse_args(argv).subcommand is None:
        parser.print_help()
        return 2
    raise AssertionError(f"{argv} parsed")


def _parse_outcome(main_fn, argv: list[str], capsys) -> tuple[int, str, str]:
    try:
        code = main_fn(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["--help"],
    *([name, "--help"] for name in cli._COMMANDS),
    ["bogus"],
    [],
    ["bound", "--kl", "0", "--bogus", "1"],
    ["validity", "--trials"],
    ["simulate", "--stride", "1", "stray"],
    ["kl", "-h"],
    ["scaling", "--ns"],
    ["simulate", "--steps"],
    ["bound", "--kl", "--n", "3"],
    ["bound", "--", "--kl", "0"],
])
def test_help_and_parse_errors_match_full_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "100")
    want = _parse_outcome(_reference_main, argv, capsys)
    assert want[0] in (0, 2)
    assert _parse_outcome(main, argv, capsys) == want


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


def test_abbreviated_flag_runs_through_argparse(capsys):
    full = ["--kl", "0", "--n", "100", "--delta", "0.05"]
    abbreviated = ["--k", "0", "--n", "100", "--delta", "0.05"]
    assert cli._table_args("bound", abbreviated) is None
    want = run_cli(capsys, "bound", *full)
    assert want[0] == 0
    assert run_cli(capsys, "bound", *abbreviated) == want


def test_well_formed_call_imports_no_argparse():
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "oupac",
         "bound", "--kl", "0", "--n", "100", "--delta=0.05"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("bound: complexity_term=")
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
    header = ["step"] + [f"theta_{i}" for i in range(states.shape[1])]
    rows = [[i * stride, *state] for i, state in enumerate(states.tolist())]
    assert "".join(cli._trajectory_csv(states, stride)) == _csv_writer_text(header, rows)


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
    states = diffusion.simulate_chain(np.zeros(dim), loss, dyn, records - 1, stride=1,
                                      seed=seed).states
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


def test_trajectory_csv_peak_memory():
    # no more than the per-row formatting it replaced took (13.07 MB measured)
    states = np.random.default_rng(6).standard_normal((20001, 10))
    tracemalloc.start()
    try:
        "".join(cli._trajectory_csv(states, 1))
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
