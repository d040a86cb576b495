"""SGD chain simulator: stepping, stability, stationarity, two stages.

Ground truth for stationary covariances is the discrete Stein solution
of the step map; the continuous Lyapunov solution is its small-rate
limit.  Noise-free chains are checked against the exact linear
recursion.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oupac import (
    DimensionMismatchError,
    InvalidRangeError,
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
    stability_check,
    stationary_from_dynamics,
    stein_stationary_covariance,
    two_stage_run,
)
from oupac import diffusion
from oupac.gaussian import empirical_moments, sample
from oupac.rng import child_seed, make_rng


def isotropic_loss(dim: int, center=None) -> QuadraticLoss:
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    return QuadraticLoss(make_spd(np.eye(dim)), center)


def stein_covariance(loss: QuadraticLoss, dyn: SgdDynamics) -> np.ndarray:
    return stein_stationary_covariance(loss.hessian, dyn.noise_cov, dyn.lr,
                                       dyn.batch_size).entries


def lyapunov_covariance(loss: QuadraticLoss, dyn: SgdDynamics) -> np.ndarray:
    rhs = SymmetricMatrix((dyn.lr / dyn.batch_size) * dyn.noise_cov.entries)
    return solve_continuous_lyapunov(loss.hessian, rhs).entries


def _sgd_step_loop(init, loss, dyn, total_steps, stride, seed):
    """Reference chain: one public sgd_step at a time, on the noise chunks
    the simulator draws; returns (records, final_state)."""
    rng = make_rng(seed)
    state = np.asarray(init, dtype=float)
    records = [state]
    done = 0
    while done < total_steps:
        chunk = min(diffusion.NOISE_CHUNK, total_steps - done)
        for z in rng.standard_normal((chunk, loss.dim)):
            state = sgd_step(state, loss, dyn, z)
            done += 1
            if done % stride == 0:
                records.append(state)
    return np.array(records), state


def _scan(block: np.ndarray, mu: np.ndarray, carry: np.ndarray) -> None:
    """In place, row j of ``block`` becomes ``y_{j+1}`` of the recursion
    ``y_{j+1} = mu * y_j + block[j]`` started at ``y_0 = carry``: the
    broadcast scan the simulator's plan must match bit for bit."""
    block[0] += mu * carry
    power = mu
    shift = 1
    while shift < block.shape[0]:
        block[shift:] += power * block[:-shift]
        shift *= 2
        if shift < block.shape[0]:
            power = power * power


def _broadcast_scan_chain(init, loss, dyn, total_steps, stride, rng):
    """Reference chain: the eigenbasis scan with ``_scan`` on each block of
    each noise chunk, in place; returns (records, final_state)."""
    dim = loss.dim
    lam, basis = np.linalg.eigh(loss.hessian.entries)
    mu = 1.0 - dyn.lr * lam
    rows = diffusion._scan_rows(float(np.max(np.abs(mu))))
    kick = ((dyn.lr / np.sqrt(dyn.batch_size)) * dyn.noise_factor) @ basis
    records = np.empty((total_steps // stride + 1, dim))
    records[0] = init
    carry = (np.asarray(init, dtype=float) - loss.minimizer) @ basis
    step = 0
    next_record = 1
    while step < total_steps:
        chunk = min(diffusion.NOISE_CHUNK, total_steps - step)
        noise = rng.standard_normal((chunk, dim)) @ kick
        for start in range(0, chunk, rows):
            block = noise[start:start + rows]
            _scan(block, mu, carry)
            carry = block[-1]
            kept = block[(-(step + start + 1)) % stride::stride]
            records[next_record:next_record + kept.shape[0]] = kept
            next_record += kept.shape[0]
        step += chunk
    records[1:] = records[1:] @ basis.T + loss.minimizer
    return records, carry @ basis.T + loss.minimizer


def _serial_two_stage(pt_loss, pt_dyn, ft_loss, ft_dyn, pt_steps, ft_steps, replicas,
                      stride, burn_in, master_seed, init_mode):
    """Reference: the two-stage loop on one thread, each chain scanned by
    ``_broadcast_scan_chain`` on its own generator, made as the chain
    starts; returns the pooled (pre-training, fine-tuning) moments."""
    if init_mode == "analytic_sample":
        pt_stationary = stationary_from_dynamics(
            pt_loss.hessian, pt_loss.minimizer, pt_dyn.noise_cov, pt_dyn.lr, pt_dyn.batch_size)
    pt_blocks, ft_blocks = [], []
    for replica in range(replicas):
        pt_records, pt_final = _broadcast_scan_chain(
            pt_loss.minimizer, pt_loss, pt_dyn, pt_steps, stride,
            make_rng(master_seed, replica, 0))
        ft_init = (pt_final if init_mode == "chain_continue" else
                   sample(pt_stationary, 1, child_seed(master_seed, replica, 1))[0])
        ft_records, _ = _broadcast_scan_chain(ft_init, ft_loss, ft_dyn, ft_steps, stride,
                                              make_rng(master_seed, replica, 2))
        pt_blocks.append(pt_records[burn_in:])
        ft_blocks.append(ft_records[burn_in:])
    return (empirical_moments(np.concatenate(pt_blocks)),
            empirical_moments(np.concatenate(ft_blocks)))


def _replay_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest difference relative to the reference trajectory's scale."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _replay_case(dim: int, rate: float, seed: int):
    """Loss with Hessian eigenvalues in [0.2, 1.5] at ``lr*lambda_max = rate``,
    and a general (non-symmetric) noise factor."""
    a = random_spd(dim, 0.2, 1.5, seed=seed)
    lr = rate / float(np.linalg.eigvalsh(a.entries)[-1])
    rng = make_rng(seed, 1)
    loss = QuadraticLoss(a, rng.standard_normal(dim))
    return loss, SgdDynamics(lr, 2, rng.standard_normal((dim, dim)))


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

    # 1300 steps: a multiple of neither the 512-step scan block nor stride 7
    @pytest.mark.parametrize("dim, stride, rate", [
        *((dim, stride, 0.6) for dim in (1, 3, 10, 128) for stride in (1, 7)),
        (5, 1, 1.8),  # the stiffest direction has mu = 1 - 1.8 < 0
    ])
    def test_chain_replays_sgd_step(self, dim, stride, rate):
        loss, dyn = _replay_case(dim, rate, seed=dim)
        init = make_rng(dim, 2).standard_normal(dim)
        traj = simulate_chain(init, loss, dyn, 1300, stride=stride, seed=10)
        want, _ = _sgd_step_loop(init, loss, dyn, 1300, stride, seed=10)
        assert _replay_error(traj.states, want) <= 1e-12

    def test_replay_across_noise_chunks(self, monkeypatch):
        # chunks of 1000 steps: each ends inside a 512-step scan block
        monkeypatch.setattr(diffusion, "NOISE_CHUNK", 1000)
        loss, dyn = _replay_case(3, 0.6, seed=4)
        traj = simulate_chain(np.zeros(3), loss, dyn, 2777, stride=3, seed=11)
        want, _ = _sgd_step_loop(np.zeros(3), loss, dyn, 2777, 3, seed=11)
        assert _replay_error(traj.states, want) <= 1e-12

    def test_replay_near_unit_spectral_radius(self):
        # 1 - rho = 1e-4: rounding errors are carried for about 1e4 steps,
        # so the tolerance, fixed from the dtype, scales with 1 / (1 - rho)
        dim, gap = 3, 1e-4
        a = random_spd(dim, 0.2, 1.5, seed=6)
        lr = gap / float(np.linalg.eigvalsh(a.entries)[0])
        loss = QuadraticLoss(a, np.array([1.0, -2.0, 0.5]))
        dyn = SgdDynamics(lr, 1, make_rng(6, 1).standard_normal((dim, dim)))
        assert stability_check(loss, dyn).spectral_radius == pytest.approx(1 - gap, rel=1e-9)
        tolerance = 100 * dim * np.finfo(float).eps / gap
        traj = simulate_chain(np.zeros(dim), loss, dyn, 20_000, stride=5, seed=13)
        want, _ = _sgd_step_loop(np.zeros(dim), loss, dyn, 20_000, 5, seed=13)
        assert _replay_error(traj.states, want) <= tolerance

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rate", [3.0, 6.0, 21.0])
    def test_unstable_noise_free_chain_stays_at_minimizer(self, rate):
        # mu = 1 - rate is -2, -5, -20; mu**256 overflows at -20
        center = np.array([0.5, -1.0])
        loss = isotropic_loss(2, center)
        dyn = SgdDynamics(rate, 1, np.zeros((2, 2)))
        traj = simulate_chain(center, loss, dyn, 600, stride=1, seed=0, allow_unstable=True)
        want, _ = _sgd_step_loop(center, loss, dyn, 600, 1, seed=0)
        np.testing.assert_array_equal(want, np.tile(center, (601, 1)))
        np.testing.assert_array_equal(traj.states, want)

    @pytest.mark.filterwarnings("error")
    def test_unstable_noisy_chain_replays_sgd_step(self):
        # mu = -2 in every direction: the trajectory grows like 2**k
        loss = isotropic_loss(3, [1.0, 0.0, -1.0])
        dyn = SgdDynamics(3.0, 1, make_rng(15).standard_normal((3, 3)))
        traj = simulate_chain(np.zeros(3), loss, dyn, 40, stride=1, seed=16,
                              allow_unstable=True)
        want, _ = _sgd_step_loop(np.zeros(3), loss, dyn, 40, 1, seed=16)
        assert _replay_error(traj.states, want) <= 1e-12


def _scan_case(dim: int, kind: str, seed: int):
    """``_replay_case`` with ``mu = 1 - lr*lam`` of the given kind: all in
    (0, 1), one below 0, spectral radius 1 - 1e-4, or unstable at -5 or
    -20 (where the scan halves its block rows)."""
    if kind == "near_unit":
        loss, dyn = _replay_case(dim, 1.0, seed)
        lr = 1e-4 / float(np.linalg.eigvalsh(loss.hessian.entries)[0])
        return loss, SgdDynamics(lr, dyn.batch_size, dyn.noise_factor)
    rate = {"stable": 0.6, "negative": 1.8, "unstable_5": 6.0, "unstable_20": 21.0}[kind]
    return _replay_case(dim, rate, seed)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    dim=st.sampled_from([1, 2, 3, 10, 128]),
    steps=st.sampled_from([1, 2, 511, 512, 513, 769, 1300, 2777]),
    stride=st.sampled_from([1, 3, 7, 600]),
    kind=st.sampled_from(["stable", "negative", "near_unit", "unstable_5", "unstable_20"]),
    chunk=st.sampled_from([700, 1000, diffusion.NOISE_CHUNK]),
    seed=st.integers(0, 2**32),
)
@example(dim=10, steps=2777, stride=3, kind="unstable_20", chunk=700, seed=1)
@example(dim=128, steps=1300, stride=7, kind="near_unit", chunk=1000, seed=2)
def test_scan_plan_matches_broadcast_scan_bit_for_bit(dim, steps, stride, kind, chunk, seed):
    loss, dyn = _scan_case(dim, kind, seed)
    init = make_rng(seed, 2).standard_normal(dim)
    # an unstable chain overflows to inf and nan on both sides alike
    with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore", invalid="ignore"):
        patch.setattr(diffusion, "NOISE_CHUNK", chunk)
        traj = simulate_chain(init, loss, dyn, steps, stride=stride, seed=seed,
                              allow_unstable=True)
        records, final = diffusion._run_chain(
            init, diffusion._ScanPlan(loss, dyn), steps, stride,
            diffusion._normal_chunks(make_rng(seed), steps, dim))
        want, want_final = _broadcast_scan_chain(init, loss, dyn, steps, stride,
                                                 make_rng(seed))
    assert np.array_equal(traj.states, want, equal_nan=True)
    assert np.array_equal(records, want, equal_nan=True)
    assert np.array_equal(final, want_final, equal_nan=True)


def test_run_chain_peak_memory_is_records_noise_and_scratch():
    # 20k steps in one noise chunk: the records, the normal draws and their
    # rotation, the plan's (4097 + 2 * 512) * d scratch floats, and 32 KiB
    # for the plan's views and the d x d arrays (about 11 KB); no
    # records-sized or noise-sized buffer more
    dim, steps = 10, 20_000
    loss, dyn = _replay_case(dim, 0.6, seed=3)
    cap = ((steps + 1) + 2 * steps + (4097 + 2 * 512)) * dim * 8 + (1 << 15)
    rng = make_rng(3)
    tracemalloc.start()
    try:
        diffusion._run_chain(np.zeros(dim), diffusion._ScanPlan(loss, dyn), steps, 1,
                             diffusion._normal_chunks(rng, steps, dim))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= cap


def test_scan_allocates_no_temporaries():
    # a full block and a tail block each reuse the plan's scratch; one
    # per-level temporary would be (512 - 1) * 10 floats, 40 KB
    loss, dyn = _replay_case(10, 0.6, seed=5)
    plan = diffusion._ScanPlan(loss, dyn)
    noise = make_rng(5).standard_normal((plan.rows + 300, 10))
    carry = np.zeros(10)
    tracemalloc.start()
    try:
        carry = plan.scan(noise[:plan.rows], carry)[-1]
        plan.scan(noise[plan.rows:], carry)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 14


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

    @pytest.mark.parametrize("burn_in, error, message", [
        (-1, InvalidRangeError, "burn_in_records must be >= 0, got -1"),
        (-3, InvalidRangeError, "burn_in_records must be >= 0, got -3"),
        (51, TooFewSamplesError, "0 records left after burn-in of 51; need >= 1"),
    ])
    def test_burn_in_out_of_range_rejected(self, burn_in, error, message):
        # 500 steps at stride 10 record 51 states per chain
        loss = isotropic_loss(2)
        dyn = SgdDynamics(0.2, 1, np.eye(2))
        with pytest.raises(error, match=f"^{message}$"):
            two_stage_run(loss, dyn, loss, dyn, pt_steps=500, ft_steps=500, replicas=2,
                          stride=10, burn_in=burn_in)
        result = two_stage_run(loss, dyn, loss, dyn, pt_steps=500, ft_steps=500, replicas=2,
                               stride=10, burn_in=50)
        assert result.pt_estimate.sample_count == result.ft_estimate.sample_count == 2

    @pytest.mark.parametrize("pt_steps, ft_steps, burn_in, error, message", [
        (500, 500, -1, InvalidRangeError, "burn_in_records must be >= 0, got -1"),
        (500, 500, 51, TooFewSamplesError, "0 records left after burn-in of 51; need >= 1"),
        (5000, 500, 60, TooFewSamplesError, "0 records left after burn-in of 60; need >= 1"),
    ])
    def test_burn_in_rejected_before_any_chain_runs(self, monkeypatch, pt_steps, ft_steps,
                                                     burn_in, error, message):
        def no_chain(*args):
            raise AssertionError("a chain ran before the burn-in check")

        monkeypatch.setattr(diffusion, "_run_chain", no_chain)
        loss = isotropic_loss(2)
        dyn = SgdDynamics(0.2, 1, np.eye(2))
        with pytest.raises(error, match=f"^{message}$"):
            two_stage_run(loss, dyn, loss, dyn, pt_steps=pt_steps, ft_steps=ft_steps,
                          replicas=2, stride=10, burn_in=burn_in)

    def test_chain_continue_mode(self):
        loss = isotropic_loss(2)
        dyn = SgdDynamics(0.2, 1, np.eye(2))
        result = two_stage_run(
            loss, dyn, loss, dyn, pt_steps=5000, ft_steps=5000, replicas=2,
            stride=2, master_seed=1, init_mode="chain_continue",
        )
        assert result.ft_estimate.sample_count >= 2

    def test_chain_continue_replays_sgd_step(self):
        # 1001 steps at stride 4: the pre-training final state is no record
        # of its own, so only the fine-tuning start carries it into the pool
        pt_loss, pt_dyn = _replay_case(3, 0.6, seed=7)
        ft_loss, ft_dyn = _replay_case(3, 0.9, seed=8)
        result = two_stage_run(pt_loss, pt_dyn, ft_loss, ft_dyn, 1001, 1001, replicas=2,
                               stride=4, burn_in=0, master_seed=14,
                               init_mode="chain_continue")
        ft_blocks = []
        for replica in range(2):
            _, pt_final = _sgd_step_loop(pt_loss.minimizer, pt_loss, pt_dyn, 1001, 4,
                                         seed=child_seed(14, replica, 0))
            ft_records, _ = _sgd_step_loop(pt_final, ft_loss, ft_dyn, 1001, 4,
                                           seed=child_seed(14, replica, 2))
            ft_blocks.append(ft_records)
        ft_records = np.concatenate(ft_blocks)
        want = empirical_moments(ft_records)
        scale = float(np.max(np.abs(ft_records)))
        np.testing.assert_allclose(result.ft_estimate.mean, want.mean, rtol=0,
                                   atol=1e-12 * scale)
        np.testing.assert_allclose(result.ft_estimate.covariance.entries,
                                   want.covariance.entries, rtol=0, atol=1e-12 * scale**2)

    @pytest.mark.parametrize("init_mode", ["analytic_sample", "chain_continue"])
    def test_one_plan_per_stage_gives_per_replica_bits(self, monkeypatch, init_mode):
        # 1300 steps: the shared scratch holds a tail block when the next
        # replica starts
        pt_loss, pt_dyn = _replay_case(3, 0.6, seed=7)
        ft_loss, ft_dyn = _replay_case(3, 1.8, seed=8)
        kwargs = dict(pt_steps=1300, ft_steps=1300, replicas=3, stride=7, burn_in=0,
                      master_seed=14, init_mode=init_mode)
        plans = []

        class CountedPlan(diffusion._ScanPlan):
            def __init__(self, loss, dyn):
                super().__init__(loss, dyn)
                plans.append(self)

        monkeypatch.setattr(diffusion, "_ScanPlan", CountedPlan)
        result = two_stage_run(pt_loss, pt_dyn, ft_loss, ft_dyn, **kwargs)
        assert len(plans) == 2
        for got, want in zip(result, _serial_two_stage(pt_loss, pt_dyn, ft_loss, ft_dyn,
                                                       **kwargs)):
            assert np.array_equal(got.mean, want.mean)
            assert np.array_equal(got.covariance.entries, want.covariance.entries)

    @pytest.mark.parametrize("dim", [1, 2, 10, 128])
    @pytest.mark.parametrize("init_mode", ["analytic_sample", "chain_continue"])
    @pytest.mark.parametrize("replicas", [2, 3])
    @pytest.mark.parametrize("stride", [1, 7])
    def test_chain_ordered_draws_match_the_serial_loop_bit_for_bit(self, monkeypatch, dim,
                                                                    init_mode, replicas,
                                                                    stride):
        # in chunks of 700 steps, pre-training draws 700, 700 and 100 rows and
        # fine-tuning 700 and 100, so the one iterator of draws crosses chunk,
        # chain and replica boundaries; d = 1 and 128 are where a thread count
        # can change a sum's or a factor's bits
        monkeypatch.setattr(diffusion, "NOISE_CHUNK", 700)
        pt_loss, pt_dyn = _replay_case(dim, 0.6, seed=dim)
        ft_loss, ft_dyn = _replay_case(dim, 1.8, seed=dim + 1)
        kwargs = dict(pt_steps=1500, ft_steps=800, replicas=replicas, stride=stride,
                      burn_in=0, master_seed=21, init_mode=init_mode)
        result = two_stage_run(pt_loss, pt_dyn, ft_loss, ft_dyn, **kwargs)
        for got, want in zip(result, _serial_two_stage(pt_loss, pt_dyn, ft_loss, ft_dyn,
                                                       **kwargs)):
            assert np.array_equal(got.mean, want.mean)
            assert np.array_equal(got.covariance.entries, want.covariance.entries)

    def test_draws_start_each_generator_at_its_first_draw(self, monkeypatch):
        # chain order: replica 0 pre-training and fine-tuning, then replica 1,
        # and each chain's generator is made just before its first draw
        made, drawn = [], []
        real = diffusion.make_rng

        def traced(seed, replica, stage):
            made.append((len(drawn), replica, stage))
            rng = real(seed, replica, stage)

            class Traced:
                def standard_normal(self, shape):
                    drawn.append((replica, stage, shape[0]))
                    return rng.standard_normal(shape)

            return Traced()

        monkeypatch.setattr(diffusion, "NOISE_CHUNK", 700)
        monkeypatch.setattr(diffusion, "make_rng", traced)
        loss = isotropic_loss(2)
        dyn = SgdDynamics(0.2, 1, np.eye(2))
        two_stage_run(loss, dyn, loss, dyn, 1500, 800, replicas=2, stride=1,
                      init_mode="chain_continue")
        assert drawn == [(0, 0, 700), (0, 0, 700), (0, 0, 100), (0, 2, 700), (0, 2, 100),
                         (1, 0, 700), (1, 0, 700), (1, 0, 100), (1, 2, 700), (1, 2, 100)]
        assert made == [(0, 0, 0), (3, 0, 2), (5, 1, 0), (8, 1, 2)]

    def test_draw_error_reaches_the_caller_and_the_pin_is_undone(self, monkeypatch,
                                                                openblas_threads):
        seen = []

        class Failing:
            def standard_normal(self, shape):
                seen.append((threading.get_ident(),
                             openblas_threads and openblas_threads[0]()))
                raise FloatingPointError("draw failed")

        monkeypatch.setattr(diffusion, "make_rng", lambda *args: Failing())
        loss = isotropic_loss(2)
        dyn = SgdDynamics(0.2, 1, np.eye(2))
        with pytest.raises(FloatingPointError, match="^draw failed$"):
            two_stage_run(loss, dyn, loss, dyn, 100, 100, replicas=2)
        assert len(seen) == 1 and seen[0][0] == threading.get_ident()
        if openblas_threads is not None:
            assert seen[0][1] == 1
            assert openblas_threads[0]() == 2

    def test_concurrent_runs_match_the_serial_loop(self, monkeypatch):
        # three callers on two cores, switching every 10 us: each run's draws
        # stay in its own chain order
        monkeypatch.setattr(diffusion, "NOISE_CHUNK", 700)
        pt_loss, pt_dyn = _replay_case(2, 0.6, seed=2)
        ft_loss, ft_dyn = _replay_case(2, 1.8, seed=3)
        kwargs = [dict(pt_steps=1500, ft_steps=800, replicas=3, stride=1, burn_in=0,
                       master_seed=seed, init_mode="chain_continue") for seed in range(3)]
        results = [None] * 3

        def run(i):
            results[i] = two_stage_run(pt_loss, pt_dyn, ft_loss, ft_dyn, **kwargs[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for result, kw in zip(results, kwargs):
            for got, want in zip(result, _serial_two_stage(pt_loss, pt_dyn, ft_loss, ft_dyn,
                                                           **kw)):
                assert np.array_equal(got.mean, want.mean)
                assert np.array_equal(got.covariance.entries, want.covariance.entries)

    def test_peak_memory_is_one_normals_chunk_and_its_kicked_copy(self):
        # at stride 1000 the records are small and the draws dominate: one
        # chunk of draws and its rotation, both plans' (4097 + 2 * 512) * d
        # scratch floats, the records and 128 KiB for the rest (views, d x d
        # arrays); a chunk drawn ahead would be 1.6 MB more
        dim, steps, replicas, stride = 10, 20_000, 2, 1000
        pt_loss, pt_dyn = _replay_case(dim, 0.6, seed=3)
        ft_loss, ft_dyn = _replay_case(dim, 1.8, seed=4)
        records = 2 * replicas * (steps // stride + 1)
        cap = (2 * steps + 2 * (4097 + 2 * 512) + records) * dim * 8 + (1 << 17)
        tracemalloc.start()
        try:
            two_stage_run(pt_loss, pt_dyn, ft_loss, ft_dyn, steps, steps, replicas,
                          stride=stride, master_seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= cap

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
