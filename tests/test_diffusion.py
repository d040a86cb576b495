"""SGD chain simulator: stepping, stability, stationarity, two stages.

Ground truth for stationary covariances is the discrete Stein solution
of the step map; the continuous Lyapunov solution is its small-rate
limit.  Noise-free chains are checked against the exact linear
recursion.
"""

import numpy as np
import pytest

from oupac import (
    DimensionMismatchError,
    QuadraticLoss,
    SgdDynamics,
    SymmetricMatrix,
    TooFewSamplesError,
    UnstableDynamicsError,
    estimate_stationary,
    make_spd,
    random_spd,
    sgd_step,
    simulate_chain,
    solve_continuous_lyapunov,
    solve_discrete_stein,
    stability_check,
    two_stage_run,
)
from oupac.rng import make_rng


def isotropic_loss(dim: int, center=None) -> QuadraticLoss:
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    return QuadraticLoss(make_spd(np.eye(dim)), center)


def stein_covariance(loss: QuadraticLoss, dyn: SgdDynamics) -> np.ndarray:
    step_map = np.eye(loss.dim) - dyn.lr * loss.hessian.entries
    per_step = (dyn.lr**2 / dyn.batch_size) * dyn.noise_cov.entries
    return solve_discrete_stein(step_map, SymmetricMatrix(per_step)).entries


def lyapunov_covariance(loss: QuadraticLoss, dyn: SgdDynamics) -> np.ndarray:
    rhs = SymmetricMatrix((dyn.lr / dyn.batch_size) * dyn.noise_cov.entries)
    return solve_continuous_lyapunov(loss.hessian, rhs).entries


class TestSgdStep:
    def test_pure_contraction(self):
        loss = isotropic_loss(2)
        dyn = SgdDynamics(0.1, 1, np.zeros((2, 2)))
        out = sgd_step(np.array([1.0, 1.0]), loss, dyn, np.zeros(2))
        np.testing.assert_allclose(out, [0.9, 0.9], rtol=1e-15)

    def test_minimizer_is_fixed_point(self):
        center = np.array([2.0, -1.0])
        loss = isotropic_loss(2, center)
        dyn = SgdDynamics(0.3, 1, np.zeros((2, 2)))
        np.testing.assert_array_equal(sgd_step(center, loss, dyn, np.zeros(2)), center)

    def test_mean_update_matches_drift(self):
        # drift oracle: E[delta] = -lr * A (state - minimizer)
        loss = QuadraticLoss(make_spd([[1.0, 0.2], [0.2, 2.0]]), np.zeros(2))
        dyn = SgdDynamics(0.1, 1, np.eye(2))
        state = np.array([1.0, 1.0])
        draws = make_rng(42).standard_normal((20_000, 2))
        deltas = np.array([sgd_step(state, loss, dyn, z) - state for z in draws])
        drift = -dyn.lr * loss.hessian.entries @ state
        std_error = deltas.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(deltas.mean(axis=0) - drift) <= 4 * std_error)

    def test_dimension_mismatch(self):
        loss = isotropic_loss(2)
        dyn = SgdDynamics(0.1, 1, np.eye(2))
        with pytest.raises(DimensionMismatchError):
            sgd_step(np.zeros(3), loss, dyn, np.zeros(3))

    def test_kick_is_transposed_factor_times_draw(self):
        # at the minimizer the drift vanishes and only (lr/sqrt(b)) B^T z is left
        b = np.array([[1.0, 2.0], [0.0, 1.0]])
        loss = isotropic_loss(2)
        dyn = SgdDynamics(0.5, 4, b)
        z = np.array([0.3, -1.1])
        np.testing.assert_allclose(
            sgd_step(np.zeros(2), loss, dyn, z), 0.25 * (b.T @ z), rtol=1e-15
        )


class TestStabilityCheck:
    def test_mild_rate_stable(self):
        report = stability_check(isotropic_loss(2), SgdDynamics(0.1, 1, np.eye(2)))
        assert report.stable
        assert report.spectral_radius == pytest.approx(0.9, rel=1e-14)

    def test_stiff_direction_unstable(self):
        loss = QuadraticLoss(make_spd(np.diag([1.0, 30.0])), np.zeros(2))
        report = stability_check(loss, SgdDynamics(0.1, 1, np.eye(2)))
        assert not report.stable
        assert report.spectral_radius == pytest.approx(2.0, rel=1e-14)

    def test_boundary_counts_as_unstable(self):
        report = stability_check(isotropic_loss(2), SgdDynamics(2.0, 1, np.eye(2)))
        assert report.spectral_radius == pytest.approx(1.0, rel=1e-14)
        assert not report.stable


class TestSimulateChain:
    def test_noise_free_matches_exact_recursion(self):
        a = random_spd(3, 0.2, 1.5, seed=4)
        center = np.array([0.5, -0.5, 1.0])
        loss = QuadraticLoss(a, center)
        dyn = SgdDynamics(0.1, 1, np.zeros((3, 3)))
        init = np.array([2.0, 0.0, -1.0])
        traj = simulate_chain(init, loss, dyn, total_steps=200, stride=10, seed=0)
        step_map = np.eye(3) - 0.1 * a.entries
        for i, state in enumerate(traj.states):
            expected = np.linalg.matrix_power(step_map, i * 10) @ (init - center) + center
            np.testing.assert_allclose(state, expected, atol=1e-12)

    def test_deterministic(self):
        loss = isotropic_loss(2)
        dyn = SgdDynamics(0.1, 2, np.eye(2))
        a = simulate_chain(np.ones(2), loss, dyn, 5000, stride=7, seed=3)
        b = simulate_chain(np.ones(2), loss, dyn, 5000, stride=7, seed=3)
        np.testing.assert_array_equal(a.states, b.states)
        assert a.record_count == 5000 // 7 + 1

    def test_unstable_raises_and_override_runs(self):
        loss = isotropic_loss(2)
        dyn = SgdDynamics(3.0, 1, np.eye(2))
        with pytest.raises(UnstableDynamicsError, match="stability_check"):
            simulate_chain(np.zeros(2), loss, dyn, 10, seed=0)
        traj = simulate_chain(np.zeros(2), loss, dyn, 10, seed=0, allow_unstable=True)
        assert traj.record_count == 2

    def test_empirical_covariance_near_stein_solution(self):
        loss = isotropic_loss(2)
        dyn = SgdDynamics(0.1, 1, np.eye(2))
        traj = simulate_chain(np.zeros(2), loss, dyn, 300_000, stride=1, seed=5)
        est = estimate_stationary(traj, burn_in_records=30_000)
        stein = stein_covariance(loss, dyn)
        gap = np.linalg.norm(est.covariance.entries - stein, "fro")
        assert gap <= 0.05 * np.linalg.norm(stein, "fro")

    def test_non_symmetric_factor_matches_stein_of_gram(self):
        # B B^T != B^T B here; the chain must settle at Stein(B^T B),
        # [[1, 2], [2, 5]] / 3, not at Stein(B B^T), [[5, 2], [2, 1]] / 3
        loss = isotropic_loss(2)
        dyn = SgdDynamics(0.5, 1, np.array([[1.0, 2.0], [0.0, 1.0]]))
        traj = simulate_chain(np.zeros(2), loss, dyn, 200_000, stride=1, seed=9)
        est = estimate_stationary(traj, burn_in_records=1000)
        stein = stein_covariance(loss, dyn)
        np.testing.assert_allclose(stein, [[1 / 3, 2 / 3], [2 / 3, 5 / 3]], rtol=1e-12)
        gap = np.linalg.norm(est.covariance.entries - stein, "fro")
        assert gap <= 0.05 * np.linalg.norm(stein, "fro")

    def test_chain_replays_sgd_step(self):
        # one noise chunk: the chain's draws are the first rows of its stream
        a = random_spd(3, 0.2, 1.5, seed=8)
        loss = QuadraticLoss(a, np.array([0.5, -1.0, 2.0]))
        dyn = SgdDynamics(0.3, 2, make_rng(9).standard_normal((3, 3)))
        traj = simulate_chain(np.zeros(3), loss, dyn, 500, stride=1, seed=10)
        draws = make_rng(10).standard_normal((500, 3))
        state = np.zeros(3)
        for step, z in enumerate(draws, start=1):
            state = sgd_step(state, loss, dyn, z)
            np.testing.assert_allclose(traj.states[step], state, rtol=1e-12, atol=1e-12)


class TestEstimateStationary:
    def test_noise_free_chain_collapses(self):
        loss = isotropic_loss(2)
        dyn = SgdDynamics(0.5, 1, np.zeros((2, 2)))
        traj = simulate_chain(np.ones(2), loss, dyn, 400, stride=1, seed=0)
        est = estimate_stationary(traj, burn_in_records=200)
        assert np.linalg.norm(est.covariance.entries, "fro") < 1e-10

    def test_diagonal_variances_match_scalar_stein(self):
        # per-coordinate: var = lr^2 c_ii / (1 - (1 - lr*lam_i)^2)
        loss = QuadraticLoss(make_spd(np.diag([1.0, 2.0])), np.zeros(2))
        dyn = SgdDynamics(0.05, 1, np.eye(2))
        traj = simulate_chain(np.zeros(2), loss, dyn, 400_000, stride=1, seed=11)
        est = estimate_stationary(traj, burn_in_records=40_000)
        for i, lam in enumerate([1.0, 2.0]):
            expected = 0.05**2 / (1.0 - (1.0 - 0.05 * lam) ** 2)
            assert est.covariance.entries[i, i] == pytest.approx(expected, rel=0.05)

    def test_mean_within_pooled_standard_errors(self):
        center = np.array([1.5, -0.5])
        loss = isotropic_loss(2, center)
        dyn = SgdDynamics(0.1, 1, np.eye(2))
        traj = simulate_chain(center, loss, dyn, 200_000, stride=1, seed=21)
        est = estimate_stationary(traj, burn_in_records=20_000)
        # inflate the naive standard error by the AR(1) factor of the chain
        rho = stability_check(loss, dyn).spectral_radius
        inflation = np.sqrt((1 + rho) / (1 - rho))
        se = np.sqrt(np.diag(est.covariance.entries) / est.sample_count) * inflation
        assert np.all(np.abs(est.mean - center) <= 4 * se)

    def test_burn_in_consuming_everything_rejected(self):
        loss = isotropic_loss(1)
        dyn = SgdDynamics(0.1, 1, np.eye(1))
        traj = simulate_chain(np.zeros(1), loss, dyn, 100, stride=10, seed=0)
        with pytest.raises(TooFewSamplesError):
            estimate_stationary(traj, burn_in_records=traj.record_count)


class TestSteinLyapunovGap:
    def test_gap_small_and_monotone_in_rate(self):
        a = random_spd(3, 0.2, 1.0, seed=8)
        c = random_spd(3, 0.5, 2.0, seed=9)
        gaps = []
        # symmetric noise factor so B B^T = B^T B = C
        sym_factor = _spd_square_root(c.entries)
        for lr in (0.1, 0.05, 0.01):
            loss = QuadraticLoss(a, np.zeros(3))
            dyn = SgdDynamics(lr, 1, sym_factor)
            stein = stein_covariance(loss, dyn)
            lyap = lyapunov_covariance(loss, dyn)
            gaps.append(
                np.linalg.norm(stein - lyap, "fro") / np.linalg.norm(lyap, "fro")
            )
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 0.01  # lr * lambda_max = 0.01 here


def _spd_square_root(entries: np.ndarray) -> np.ndarray:
    lam, vecs = np.linalg.eigh(entries)
    return (vecs * np.sqrt(lam)) @ vecs.T


class TestTwoStageRun:
    def test_identical_stages_match(self):
        loss = isotropic_loss(2)
        dyn = SgdDynamics(0.3, 1, np.eye(2))
        result = two_stage_run(
            loss, dyn, loss, dyn, pt_steps=50_000, ft_steps=50_000,
            replicas=3, stride=1, burn_in=10_000, master_seed=17,
        )
        pt = result.pt_estimate.covariance.entries
        ft = result.ft_estimate.covariance.entries
        assert np.linalg.norm(ft - pt, "fro") <= 0.05 * np.linalg.norm(pt, "fro")

    def test_shifted_fine_tuning_center(self):
        pt_loss = isotropic_loss(2)
        ft_loss = isotropic_loss(2, center=[1.0, 0.0])
        dyn = SgdDynamics(0.05, 1, np.eye(2))
        result = two_stage_run(
            pt_loss, dyn, ft_loss, dyn, pt_steps=20_000, ft_steps=120_000,
            replicas=3, stride=1, burn_in=20_000, master_seed=29,
        )
        assert np.all(np.abs(result.ft_estimate.mean - [1.0, 0.0]) <= 0.05)

    def test_deterministic_pooling(self):
        loss = isotropic_loss(2)
        dyn = SgdDynamics(0.2, 1, np.eye(2))
        kwargs = dict(pt_steps=2000, ft_steps=2000, replicas=4, stride=5,
                      burn_in=100, master_seed=7)
        first = two_stage_run(loss, dyn, loss, dyn, **kwargs)
        second = two_stage_run(loss, dyn, loss, dyn, **kwargs)
        np.testing.assert_array_equal(
            first.pt_estimate.covariance.entries, second.pt_estimate.covariance.entries
        )
        np.testing.assert_array_equal(first.ft_estimate.mean, second.ft_estimate.mean)

    def test_chain_continue_mode(self):
        loss = isotropic_loss(2)
        dyn = SgdDynamics(0.2, 1, np.eye(2))
        result = two_stage_run(
            loss, dyn, loss, dyn, pt_steps=5000, ft_steps=5000, replicas=2,
            stride=2, master_seed=1, init_mode="chain_continue",
        )
        assert result.ft_estimate.sample_count >= 2

    def test_replica_floor_and_instability(self):
        loss = isotropic_loss(2)
        dyn = SgdDynamics(0.2, 1, np.eye(2))
        with pytest.raises(ValueError):
            two_stage_run(loss, dyn, loss, dyn, 100, 100, replicas=1)
        bad = SgdDynamics(3.0, 1, np.eye(2))
        with pytest.raises(UnstableDynamicsError):
            two_stage_run(loss, dyn, loss, bad, 100, 100, replicas=2)


class TestValueTypes:
    def test_loss_value_and_gradient(self):
        loss = QuadraticLoss(make_spd(np.diag([2.0, 1.0])), np.array([1.0, 0.0]), 0.25)
        assert loss.value([1.0, 0.0]) == 0.25
        assert loss.value([2.0, 0.0]) == pytest.approx(0.25 + 1.0)
        np.testing.assert_allclose(loss.gradient([2.0, 0.0]), [2.0, 0.0])

    def test_noise_cov_cached_as_gram(self):
        b = np.array([[1.0, 1.0], [0.0, 1.0]])
        dyn = SgdDynamics(0.1, 1, b)
        np.testing.assert_allclose(dyn.noise_cov.entries, b.T @ b)
        assert dyn.noise_cov.strictness == "semidefinite"

    def test_rank_deficient_noise_factor_allowed(self):
        dyn = SgdDynamics(0.1, 1, np.diag([1.0, 0.0]))
        assert dyn.noise_cov.strictness == "semidefinite"

    def test_trajectory_record_count_invariant(self):
        from oupac import Trajectory

        with pytest.raises(DimensionMismatchError):
            Trajectory(np.zeros((5, 2)), stride=10, total_steps=100, seed=0)
