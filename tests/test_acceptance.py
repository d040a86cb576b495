"""Acceptance suite: one test per exit criterion, at stated tolerances.

Each test prints a single ``ACCEPTANCE n PASS/FAIL`` line (visible with
``pytest -s`` or in failure reports).  Tolerances and instance counts
are pinned here and must not be loosened; oracles are independent of
the code paths they check (residual substitution, Monte-Carlo
estimates, closed-form evaluation).
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import brentq

import oupac as op
from oupac.cli import main as cli_main
from oupac.matrixio import write_gaussian, write_matrix
from oupac.rng import make_rng


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d} FAIL — {title}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS — {title}")


def random_symmetric(dim: int, seed: int, scale: float = 2.0):
    return op.SymmetricMatrix(make_rng(seed).standard_normal((dim, dim)) * scale)


def spd_square_root(entries: np.ndarray) -> np.ndarray:
    lam, vecs = np.linalg.eigh(entries)
    return (vecs * np.sqrt(lam)) @ vecs.T


def test_criterion_1_lyapunov_stein_residuals():
    with criterion(1, "Lyapunov/Stein residuals <= 1e-10 on 1000 instances each"):
        start = time.perf_counter()
        rng = make_rng(1001)
        for i in range(1000):
            dim = int(rng.integers(1, 11))
            a = op.random_spd(dim, 0.05, 10.0, seed=4 * i)
            q_sym = random_symmetric(dim, seed=4 * i + 1)
            x = op.solve_continuous_lyapunov(a, q_sym)
            residual = np.linalg.norm(
                a.entries @ x.entries + x.entries @ a.entries - q_sym.entries, "fro"
            )
            assert residual <= 1e-10 * (1 + np.linalg.norm(q_sym.entries, "fro"))
            # SPD output whenever the right-hand side is SPD
            q_spd = op.random_spd(dim, 0.1, 4.0, seed=4 * i + 2)
            x_spd = op.solve_continuous_lyapunov(a, q_spd)
            np.linalg.cholesky(x_spd.entries)
        for i in range(1000):
            dim = int(rng.integers(1, 11))
            # a symmetric map, as every step map I - lr*A is, with eigenvalues
            # on (-r, r): lr*lambda > 1 gives negative ones
            radius = float(rng.uniform(0.2, 0.95))
            basis, _ = np.linalg.qr(make_rng(4 * i + 3).standard_normal((dim, dim)))
            m = (basis * make_rng(4 * i + 3, 1).uniform(-radius, radius, dim)) @ basis.T
            m = (m + m.T) / 2.0
            q_sym = random_symmetric(dim, seed=4 * i + 1)
            x = op.solve_discrete_stein(m, q_sym)
            residual = np.linalg.norm(
                x.entries - m @ x.entries @ m.T - q_sym.entries, "fro"
            )
            assert residual <= 1e-10 * (1 + np.linalg.norm(q_sym.entries, "fro"))
        assert time.perf_counter() - start < 10.0


def test_criterion_2_simulated_chain_stationarity():
    with criterion(2, "simulated chain matches Stein (5%) and Lyapunov (10%)"):
        start = time.perf_counter()
        a = op.random_spd(3, 0.3, 1.0, seed=2002)       # lambda_max = 1
        c = op.random_spd(3, 0.5, 2.0, seed=2003)
        factor = spd_square_root(c.entries)              # B B^T = B^T B = C
        loss = op.QuadraticLoss(a, np.zeros(3))

        gaps = []
        for lr in (0.1, 0.05, 0.01):
            dyn = op.SgdDynamics(lr, 1, factor)
            step_map = np.eye(3) - lr * a.entries
            stein = op.solve_discrete_stein(
                step_map, op.SymmetricMatrix((lr**2) * dyn.noise_cov.entries)
            ).entries
            lyap = op.solve_continuous_lyapunov(
                a, op.SymmetricMatrix(lr * dyn.noise_cov.entries)
            ).entries
            gaps.append(np.linalg.norm(stein - lyap, "fro") / np.linalg.norm(lyap, "fro"))
        assert gaps[0] > gaps[1] > gaps[2], "Stein-Lyapunov gap must shrink with lr"

        lr = 0.1                                        # lr * lambda_max = 0.1
        dyn = op.SgdDynamics(lr, 1, factor)
        traj = op.simulate_chain(np.zeros(3), loss, dyn, 10**6, stride=1, seed=2004)
        est = op.estimate_stationary(traj, burn_in_records=10**5).covariance.entries
        step_map = np.eye(3) - lr * a.entries
        stein = op.solve_discrete_stein(
            step_map, op.SymmetricMatrix((lr**2) * dyn.noise_cov.entries)
        ).entries
        lyap = op.solve_continuous_lyapunov(
            a, op.SymmetricMatrix(lr * dyn.noise_cov.entries)
        ).entries
        assert np.linalg.norm(est - stein, "fro") <= 0.05 * np.linalg.norm(stein, "fro")
        assert np.linalg.norm(est - lyap, "fro") <= 0.10 * np.linalg.norm(lyap, "fro")
        assert time.perf_counter() - start < 60.0


def test_criterion_3_trace_identity():
    with criterion(3, "tr(S) = (lr/batch) tr(C A^-1) / 2 and trace bound = exact KL"):
        start = time.perf_counter()
        rng = make_rng(3001)
        for i in range(1000):
            dim = int(rng.integers(1, 11))
            a = op.random_spd(dim, 0.2, 8.0, seed=5 * i)
            c = op.random_spd(dim, 0.2, 8.0, seed=5 * i + 1)
            lr = float(rng.uniform(0.01, 0.5))
            batch = int(rng.integers(1, 16))
            g = op.stationary_from_dynamics(a, np.zeros(dim), c, lr, batch)
            sigma = g.covariance
            expected_trace = 0.5 * (lr / batch) * float(
                np.trace(np.linalg.solve(a.entries, c.entries))
            )
            assert np.trace(sigma.entries) == pytest.approx(expected_trace, rel=1e-10)
            bound = op.kl_upper_bound_trace(a, c, lr, batch, sigma)
            exact = op.kl_divergence(g, op.standard_gaussian(dim))
            assert abs(bound - exact) <= 1e-10
        assert time.perf_counter() - start < 5.0


def test_criterion_4_kl_oracle_agreement():
    with criterion(4, "closed-form KL within 3 MC standard errors on 100 pairs"):
        start = time.perf_counter()
        rng = make_rng(4001)
        for i in range(100):
            dim = int(rng.integers(1, 9))
            q = op.GaussianMeasure(
                make_rng(6 * i).standard_normal(dim),
                op.random_spd(dim, 0.2, 4.0, seed=6 * i + 1),
            )
            p = op.GaussianMeasure(
                make_rng(6 * i + 2).standard_normal(dim),
                op.random_spd(dim, 0.2, 4.0, seed=6 * i + 3),
            )
            closed = op.kl_divergence(q, p)
            assert closed >= 0.0
            estimate, std_error = op.mc_kl_estimate(q, p, 10**5, seed=6 * i + 4)
            assert abs(closed - estimate) <= 3 * std_error
        assert time.perf_counter() - start < 30.0


def test_criterion_5_discrepancy_identity():
    with criterion(5, "discrepancy equals twice the Gaussian KL on 1000 pairs"):
        rng = make_rng(5001)
        for i in range(1000):
            dim = int(rng.integers(1, 11))
            pair = op.DomainPair(
                op.random_spd(dim, 0.2, 5.0, seed=7 * i),
                op.random_spd(dim, 0.2, 5.0, seed=7 * i + 1),
                make_rng(7 * i + 2).standard_normal(dim),
            )
            q_ft = op.GaussianMeasure(pair.shift, pair.sigma_ft)
            q_pt = op.GaussianMeasure(np.zeros(dim), pair.sigma_pt)
            expected = 2.0 * op.kl_divergence(q_ft, q_pt)
            assert op.discrepancy_d(pair) == pytest.approx(
                expected, rel=1e-10, abs=1e-12
            )
        identical = op.DomainPair(
            op.make_spd(np.eye(4)), op.make_spd(np.eye(4)), np.zeros(4)
        )
        assert op.discrepancy_d(identical) == pytest.approx(0.0, abs=1e-12)


def test_criterion_6_bound_validity():
    with criterion(6, "at most 10 violations in 200 regression trials"):
        start = time.perf_counter()
        task = op.RegressionTask(
            np.array([0.3, -0.2]), op.make_spd(np.eye(2)), 1.0
        )
        result = op.bound_validity_experiment(
            task,
            op.SgdDynamics(0.1, 10, np.eye(2)),
            op.SampleSpec(100, 0.05),
            op.standard_gaussian(2),
            trials=200,
            master_seed=6001,
        )
        assert result.violation_count <= 10
        assert time.perf_counter() - start < 60.0


def test_criterion_7_decay_rate():
    with criterion(7, "complexity ratio at 4N in [0.45, 0.60]; decreasing in N"):
        pair = op.DomainPair(                       # kl_term = 10 exactly
            op.make_spd(np.eye(2)), op.make_spd(np.eye(2)), np.array([3.0, 1.0])
        )
        assert op.discrepancy_d(pair) == pytest.approx(10.0, rel=1e-13)
        for n in (10**4, 10**5):
            ratio = (
                op.finetune_bound(pair, op.SampleSpec(4 * n, 0.05)).complexity_term
                / op.finetune_bound(pair, op.SampleSpec(n, 0.05)).complexity_term
            )
            assert 0.45 <= ratio <= 0.60
        grid = np.unique(np.logspace(2, 6, 20).astype(int))
        values = [
            op.finetune_bound(pair, op.SampleSpec(int(n), 0.05)).complexity_term
            for n in grid
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_criterion_8_finetuning_dominance():
    with criterion(8, "fine-tuning term dominates: ratio >= 10, reference 25.35"):
        import math

        sigma_val = brentq(lambda s: s - 1.0 - math.log(s) - 1.0, 1.5, 10.0, xtol=1e-14)
        sigma = op.make_spd([[sigma_val]])
        report = op.dominance_report(
            op.DomainPair(sigma, sigma, np.array([math.sqrt(sigma_val)])),
            op.SampleSpec(10**6, 0.05),
            op.SampleSpec(10**3, 0.05),
        )
        assert report.ratio >= 10.0
        assert abs(report.ratio - 25.35) <= 0.01


def test_criterion_9_two_stage_pipeline():
    with criterion(9, "two-stage moments: identical stages 5%; shifted mean 0.05"):
        hessian = op.make_spd(np.eye(2))
        pt_loss = op.QuadraticLoss(hessian, np.zeros(2))
        dyn_fast = op.SgdDynamics(0.2, 1, np.eye(2))
        same = op.two_stage_run(
            pt_loss, dyn_fast, pt_loss, dyn_fast,
            pt_steps=125_000, ft_steps=125_000, replicas=8, stride=1,
            burn_in=62_500, master_seed=9001,
        )
        pt_cov = same.pt_estimate.covariance.entries
        ft_cov = same.ft_estimate.covariance.entries
        assert np.linalg.norm(ft_cov - pt_cov, "fro") <= 0.05 * np.linalg.norm(
            pt_cov, "fro"
        )

        ft_loss = op.QuadraticLoss(hessian, np.array([1.0, 0.0]))
        dyn = op.SgdDynamics(0.05, 1, np.eye(2))
        shifted = op.two_stage_run(
            pt_loss, dyn, ft_loss, dyn,
            pt_steps=50_000, ft_steps=250_000, replicas=8, stride=1,
            burn_in=None, master_seed=9002,
        )
        assert shifted.ft_estimate.sample_count >= 10**6
        assert np.all(np.abs(shifted.ft_estimate.mean - [1.0, 0.0]) <= 0.05)


def test_criterion_10_lemma_survey_subcommand(tmp_path, capsys):
    with criterion(10, "lemma-survey completes on 1000 pairs and emits the table"):
        out_path = tmp_path / "survey.json"
        code = cli_main([
            "lemma-survey", "--dims", "1-10", "--pairs-per-dim", "100",
            "--seed", "10001", "--output", str(out_path),
        ])
        capsys.readouterr()
        assert code == 0
        rows = json.loads(out_path.read_text())
        assert [row["dim"] for row in rows] == list(range(1, 11))
        assert sum(row["pairs"] for row in rows) == 1000
        for row in rows:
            assert set(row) == {"dim", "pairs", "holds", "holds_fraction", "min_margin"}
            assert 0.0 <= row["holds_fraction"] <= 1.0


def test_criterion_11_subcommand_determinism(tmp_path, capsys):
    with criterion(11, "every subcommand is byte-identical under a fixed seed"):
        identity = tmp_path / "I2.txt"
        write_matrix(identity, np.eye(2))
        q_fix = tmp_path / "q.txt"
        write_gaussian(q_fix, np.zeros(2), np.diag([0.05, 0.025]))
        p_fix = tmp_path / "p.txt"
        write_gaussian(p_fix, np.zeros(2), np.eye(2))
        identity_str, q_str, p_str = str(identity), str(q_fix), str(p_fix)

        invocations = {
            "lyapunov": ["lyapunov", "--a", identity_str, "--q", identity_str,
                         "--eta", "0.2", "--batch", "2"],
            "simulate": ["simulate", "--hessian", identity_str, "--minimizer", "0,0",
                         "--noise-factor", identity_str, "--eta", "0.1",
                         "--batch", "1", "--steps", "2000", "--seed", "3"],
            "two-stage": ["two-stage",
                          "--pt-hessian", identity_str, "--pt-minimizer", "0,0",
                          "--pt-noise-factor", identity_str, "--pt-eta", "0.1",
                          "--pt-batch", "1", "--pt-steps", "2000",
                          "--ft-hessian", identity_str, "--ft-minimizer", "1,0",
                          "--ft-noise-factor", identity_str, "--ft-eta", "0.1",
                          "--ft-batch", "1", "--ft-steps", "2000",
                          "--replicas", "2", "--seed", "5"],
            "kl": ["kl", "--q", q_str, "--p", p_str, "--mc-draws", "5000",
                   "--seed", "7"],
            "bound": ["bound", "--kl", "1.5", "--n", "500", "--delta", "0.05"],
            "lemma-survey": ["lemma-survey", "--dims", "1-3", "--pairs-per-dim", "10",
                             "--format", "csv", "--seed", "9"],
            "dominance": ["dominance", "--sigma-pt", identity_str,
                          "--sigma-ft", identity_str, "--shift", "1,0",
                          "--n-pt", "100000", "--n-ft", "1000", "--delta", "0.05"],
            "validity": ["validity", "--trials", "10", "--seed", "11",
                         "--format", "csv"],
            "scaling": ["scaling", "--ns", "100,200", "--trials", "3",
                        "--seed", "13", "--format", "csv"],
        }
        for name, argv in invocations.items():
            first = tmp_path / f"{name}-1.out"
            second = tmp_path / f"{name}-2.out"
            assert cli_main(argv + ["--output", str(first)]) == 0, name
            assert cli_main(argv + ["--output", str(second)]) == 0, name
            capsys.readouterr()
            assert first.read_bytes() == second.read_bytes(), (
                f"{name} output is not reproducible"
            )
