"""Gaussian measures: stationary construction, KL, sampling, moments.

The Monte-Carlo estimator is the independent oracle for the closed-form
KL; agreement is asserted at three standard errors.  Frozen constants
were computed with a 40-digit mpmath evaluation of the closed forms.
"""

import itertools
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oupac import (
    DimensionMismatchError,
    GaussianMeasure,
    InvalidRangeError,
    NotPositiveDefiniteError,
    SpectralRadiusTooLargeError,
    SymmetricMatrix,
    TooFewSamplesError,
    Trajectory,
    estimate_stationary,
    kl_divergence,
    log_density,
    log_det,
    make_spd,
    mc_kl_estimate,
    random_spd,
    sample,
    standard_gaussian,
    stationary_from_dynamics,
    solve_continuous_lyapunov,
    stein_stationary_covariance,
)
from oupac import linalg
from oupac.gaussian import _kl_divergences, gaussian_pair_terms
from oupac.linalg import cholesky_factor
from oupac.rng import make_rng

EPS = np.finfo(float).eps

# KL(N(0, diag(0.05, 0.025)) || N(0, I)), 40-digit evaluation
KL_DIAG_EXAMPLE = 2.3798058638339636


def random_measure(dim: int, seed: int, mean_scale: float = 1.0) -> GaussianMeasure:
    mean = mean_scale * make_rng(seed).standard_normal(dim)
    return GaussianMeasure(mean, random_spd(dim, 0.2, 4.0, seed + 500_000))


class TestStationaryFromDynamics:
    def test_isotropic_closed_form(self):
        g = stationary_from_dynamics(
            make_spd(np.eye(2)), np.zeros(2), make_spd(np.eye(2)), lr=0.2, batch_size=10
        )
        np.testing.assert_allclose(g.covariance.entries, 0.01 * np.eye(2), rtol=1e-14)
        np.testing.assert_array_equal(g.mean, np.zeros(2))

    def test_diagonal_closed_form(self):
        g = stationary_from_dynamics(
            make_spd(np.diag([1.0, 2.0])), np.zeros(2), make_spd(np.eye(2)),
            lr=0.1, batch_size=1,
        )
        np.testing.assert_allclose(
            g.covariance.entries, np.diag([0.05, 0.025]), rtol=1e-14
        )

    def test_random_instance_satisfies_equation_and_trace_identity(self):
        for seed in range(10):
            a = random_spd(6, 0.3, 5.0, seed=seed)
            c = random_spd(6, 0.2, 3.0, seed=seed + 100)
            lr, batch = 0.05, 4
            g = stationary_from_dynamics(a, np.zeros(6), c, lr, batch)
            sigma = g.covariance.entries
            residual = np.linalg.norm(
                a.entries @ sigma + sigma @ a.entries - (lr / batch) * c.entries, "fro"
            )
            assert residual <= 1e-10 * (1 + np.linalg.norm((lr / batch) * c.entries, "fro"))
            # trace identity: tr(S) = (lr/batch) tr(C A^-1) / 2
            expected_trace = 0.5 * (lr / batch) * np.trace(
                np.linalg.solve(a.entries, c.entries)
            )
            assert np.trace(sigma) == pytest.approx(expected_trace, rel=1e-10)

    def test_lr_doubling_doubles_covariance_exactly(self):
        a = random_spd(4, 0.5, 2.0, seed=3)
        c = random_spd(4, 0.5, 2.0, seed=4)
        g1 = stationary_from_dynamics(a, np.zeros(4), c, 0.05, 2)
        g2 = stationary_from_dynamics(a, np.zeros(4), c, 0.10, 2)
        np.testing.assert_array_equal(
            g2.covariance.entries, 2.0 * g1.covariance.entries
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            stationary_from_dynamics(
                make_spd(np.eye(2)), np.zeros(3), make_spd(np.eye(2)), 0.1, 1
            )

    def test_rank_deficient_noise_rejected(self):
        # singular noise covariance gives a singular stationary covariance
        c = SymmetricMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(NotPositiveDefiniteError):
            stationary_from_dynamics(make_spd(np.eye(2)), np.zeros(2), c, 0.1, 1)


class TestSteinStationaryCovariance:
    def test_diagonal_closed_form(self):
        # X = (1 - lr a)^2 X + lr^2 / b per direction: X = lr / (b a (2 - lr a))
        x = stein_stationary_covariance(
            make_spd(np.diag([1.0, 2.0])), make_spd(np.eye(2)), lr=0.05, batch_size=2
        )
        np.testing.assert_allclose(
            x.entries, np.diag([0.05 / (2 * 1.95), 0.05 / (2 * 2 * 1.9)]), rtol=1e-14
        )

    def test_random_instance_approaches_lyapunov_as_lr_shrinks(self):
        a = random_spd(5, 0.3, 2.0, seed=7)
        c = random_spd(5, 0.2, 3.0, seed=8)
        for lr, batch in ((0.1, 1), (0.01, 3)):
            x = stein_stationary_covariance(a, c, lr, batch).entries
            # the Stein equation rewritten: A X + X A - lr A X A = (lr / b) C
            rhs = (lr / batch) * c.entries
            residual = a.entries @ x + x @ a.entries - lr * a.entries @ x @ a.entries - rhs
            assert np.linalg.norm(residual, "fro") <= 1e-10 * np.linalg.norm(rhs, "fro")
            lyap = stationary_from_dynamics(a, np.zeros(5), c, lr, batch).covariance.entries
            gap = np.linalg.norm(x - lyap, "fro") / np.linalg.norm(lyap, "fro")
            assert 0 < gap <= lr * 2.0  # first-order in lr, since ||A|| <= 2

    @pytest.mark.parametrize("lr, batch", [(0.0, 1), (float("nan"), 1), (0.1, 0),
                                           (0.1, 10**400)])
    def test_rejects_rate_outside_range(self, lr, batch):
        with pytest.raises(InvalidRangeError):
            stein_stationary_covariance(make_spd(np.eye(2)), make_spd(np.eye(2)), lr, batch)

    @pytest.mark.parametrize("lam, lr", [(1.0, 2.0), (1.0, 3.0), (1e10, 1e300)])
    def test_rejects_unstable_step_map(self, lam, lr):
        # lr * lambda_max >= 2, where lr * lambda may overflow: no warning
        with pytest.raises(SpectralRadiusTooLargeError, match="lr \\* lambda_max = "):
            stein_stationary_covariance(make_spd(lam * np.eye(2)), make_spd(np.eye(2)), lr, 1)

    def test_gap_to_lyapunov_matches_its_closed_form_as_lr_shrinks(self):
        # diagonal A, C = I: X_ii = lr / (lam_i (2 - lr lam_i)) and S_ii = lr / (2 lam_i),
        # so (X - S)_ii / S_ii = lr lam_i / (2 - lr lam_i), down to 5e-11 here; X and
        # S each take a few roundings, so the computed ratio is within 16 eps of it
        lam = np.array([0.5, 1.25, 3.0])
        hessian, noise = make_spd(np.diag(lam)), make_spd(np.eye(3))
        for lr in 10.0 ** -np.arange(2, 11):
            stein = np.diag(stein_stationary_covariance(hessian, noise, lr, 1).entries)
            lyap = np.diag(solve_continuous_lyapunov(hessian, SymmetricMatrix(lr * np.eye(3)))
                           .entries)
            np.testing.assert_allclose((stein - lyap) / lyap, lr * lam / (2.0 - lr * lam),
                                       rtol=0, atol=16 * EPS)

    def test_a_step_that_rounds_to_one_still_has_its_law(self):
        # 1 - 1e-16 * lam rounds to 1 for lam <= 3, yet the law needs no step map
        lam = np.array([0.5, 1.25, 3.0])
        x = stein_stationary_covariance(make_spd(np.diag(lam)), make_spd(np.eye(3)), 1e-16, 1)
        np.testing.assert_allclose(x.entries, np.diag(1e-16 / (lam * (2.0 - 1e-16 * lam))),
                                   rtol=4 * EPS, atol=0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        dim=st.integers(1, 5),
        log_condition=st.floats(0.0, 8.0),
        log_step=st.floats(-12.0, math.log10(1.999)),
        rotated=st.booleans(),
        batch=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dim=4, log_condition=8.0, log_step=-12.0, rotated=False, batch=1, seed=0)
    @example(dim=4, log_condition=8.0, log_step=math.log10(1.999), rotated=False, batch=1,
             seed=0)
    @example(dim=4, log_condition=8.0, log_step=-8.0, rotated=True, batch=1, seed=0)
    def test_accuracy_against_an_exact_solve(self, dim, log_condition, log_step, rotated,
                                             batch, seed):
        # A has eigenvalues 1 and 10^-log_condition and others log-uniform between,
        # diagonal or turned by a random rotation; lr * lambda_max = step.  The
        # denominators round to a few eps / (2 - step); a rotated A's eigh moves
        # its smallest eigenvalue by about eps * lambda_max, which the law feels
        # as eps * kappa.  So the bound, fixed here before the solve, is
        kappa = 10.0 ** log_condition
        step = 10.0 ** log_step
        bound = 16 * dim * EPS * (kappa if rotated else 1.0) / (2.0 - step)
        rng = make_rng(seed)
        lam = np.concatenate([[1.0, 1.0 / kappa], kappa ** -rng.uniform(0, 1, dim)])[:dim]
        turn = np.linalg.qr(rng.standard_normal((dim, dim)))[0] if rotated else np.eye(dim)
        a = make_spd((turn * lam) @ turn.T)
        c = random_spd(dim, 0.1, 2.0, seed=seed + 1)
        lr = step / float(a.eigenvalues[-1])
        # every case solves: its backward error, unlike its residual, has no unit
        x = stein_stationary_covariance(a, c, lr, batch).entries
        want = _exact_chain_law(a.entries, c.entries, lr, batch)
        assert np.linalg.norm(x - want) <= bound * np.linalg.norm(want)


def _exact_chain_law(a: np.ndarray, c: np.ndarray, lr: float, batch: int) -> np.ndarray:
    """X with ``A X + X A - lr A X A = (lr / batch) C`` for these float entries,
    rounded once: in rationals for a diagonal A, else by a 60-digit solve of
    the Kronecker form."""
    dim = a.shape[0]
    if np.array_equal(a, np.diag(np.diag(a))):
        lam, rate = [Fraction(v) for v in np.diag(a)], Fraction(lr)
        return np.array([[float(rate / batch * Fraction(c[i, j])
                                / (lam[i] + lam[j] - rate * lam[i] * lam[j]))
                          for j in range(dim)] for i in range(dim)])
    with mpmath.workdps(60):
        am, rate = mpmath.matrix(a.tolist()), mpmath.mpf(lr)
        kron = mpmath.matrix(dim * dim, dim * dim)
        for i, j, k, l in itertools.product(range(dim), repeat=4):
            # (A X)_ij, (X A)_ij and (A X A)_ij read X_kl with these weights
            kron[i * dim + j, k * dim + l] = (am[i, k] * (j == l) + (i == k) * am[l, j]
                                              - rate * am[i, k] * am[l, j])
        rhs = mpmath.matrix([rate / batch * mpmath.mpf(v) for v in c.reshape(-1)])
        x = mpmath.lu_solve(kron, rhs)
        return np.array([float(v) for v in x]).reshape(dim, dim)


class TestKlDivergence:
    def test_identical_measures(self):
        p = standard_gaussian(3)
        assert kl_divergence(p, p) == 0.0

    def test_diagonal_example(self):
        q = GaussianMeasure(np.zeros(2), make_spd(np.diag([0.05, 0.025])))
        assert kl_divergence(q, standard_gaussian(2)) == pytest.approx(
            KL_DIAG_EXAMPLE, rel=1e-13
        )

    def test_pure_mean_shift(self):
        q = GaussianMeasure(np.array([1.0, 0.0]), make_spd(np.eye(2)))
        assert kl_divergence(q, standard_gaussian(2)) == pytest.approx(0.5, rel=1e-14)

    def test_nonnegative_on_random_pairs(self):
        for seed in range(100):
            dim = 1 + seed % 8
            q = random_measure(dim, seed)
            p = random_measure(dim, seed + 1000)
            assert kl_divergence(q, p) >= 0.0

    def test_zero_iff_equal(self):
        q = random_measure(4, 11)
        assert kl_divergence(q, q) == 0.0
        # perturb the mean: KL must move away from zero
        shifted = GaussianMeasure(q.mean + 1e-3, q.covariance)
        assert kl_divergence(shifted, q) > 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kl_divergence(standard_gaussian(2), standard_gaussian(3))

    def test_stationary_kl_equals_trace_log_det_expression(self):
        # against N(0, I): KL = [tr(S - I) - log det S] / 2
        for seed in range(10):
            a = random_spd(5, 0.5, 4.0, seed=seed)
            c = random_spd(5, 0.5, 4.0, seed=seed + 50)
            g = stationary_from_dynamics(a, np.zeros(5), c, 0.1, 2)
            sigma = g.covariance
            expected = 0.5 * (np.trace(sigma.entries) - 5 - log_det(sigma))
            assert kl_divergence(g, standard_gaussian(5)) == pytest.approx(
                expected, abs=1e-12
            )


class TestSample:
    def test_tiny_covariance_accepted_and_a_near_singular_one_rejected(self):
        # the SPD check is relative: 1e-18 I is as well conditioned as I, and
        # eigenvalues 1 and 1e-11 put kappa past 1 / PSD_RTOL at any scale
        for scale in (1.0, 1e-18, 1e18):
            assert make_spd(scale * np.eye(2)).eigenvalues.tolist() == [scale, scale]
            with pytest.raises(NotPositiveDefiniteError):
                make_spd(scale * np.diag([1.0, 1e-11]))

    def test_empirical_mean_clt_bound(self):
        n = 10**6
        draws = sample(standard_gaussian(3), n, seed=1)
        assert np.all(np.abs(draws.mean(axis=0)) <= 4.0 / np.sqrt(n))

    def test_deterministic(self):
        g = random_measure(3, 77)
        a = sample(g, 1000, seed=5)
        b = sample(g, 1000, seed=5)
        np.testing.assert_array_equal(a, b)
        c = sample(g, 1000, seed=6)
        assert not np.array_equal(a, c)

    def test_covariance_transform(self):
        g = random_measure(4, 13)
        draws = sample(g, 200_000, seed=2)
        est = _estimated_moments(draws)
        np.testing.assert_allclose(
            est.covariance.entries, g.covariance.entries, atol=0.05
        )


def _estimated_moments(samples):
    """The moments of the rows of ``samples`` as the one chain-moments
    estimator takes them: ``estimate_stationary`` of a trajectory that
    records them in the scan coordinates of the identity basis at the
    origin, with no burn-in."""
    samples = np.asarray(samples, dtype=float)
    count, dim = samples.shape
    trajectory = Trajectory(samples, np.eye(dim), np.zeros(dim), samples[0], stride=1,
                            total_steps=count - 1, seed=0)
    return estimate_stationary(trajectory, burn_in_records=0)


class TestEmpiricalMoments:
    def test_two_point_formula(self):
        est = _estimated_moments(np.array([[0.0, 0.0], [2.0, 2.0]]))
        np.testing.assert_array_equal(est.mean, [1.0, 1.0])
        np.testing.assert_array_equal(est.covariance.entries, [[2.0, 2.0], [2.0, 2.0]])
        assert est.sample_count == 2

    def test_standard_normal_concentration(self):
        draws = sample(standard_gaussian(2), 10**6, seed=9)
        est = _estimated_moments(draws)
        assert np.linalg.norm(est.covariance.entries - np.eye(2), "fro") <= 0.02

    def test_single_row_rejected(self):
        with pytest.raises(TooFewSamplesError):
            _estimated_moments(np.ones((1, 3)))


class TestMcKlEstimate:
    def test_identical_measures_near_zero(self):
        p = standard_gaussian(2)
        estimate, std_error = mc_kl_estimate(p, p, 10_000, seed=0)
        assert estimate == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_example_within_three_se(self):
        q = GaussianMeasure(np.zeros(2), make_spd(np.diag([0.05, 0.025])))
        estimate, std_error = mc_kl_estimate(q, standard_gaussian(2), 10**6, seed=4)
        assert abs(estimate - KL_DIAG_EXAMPLE) <= 3 * std_error

    def test_mean_shift_within_three_se(self):
        q = GaussianMeasure(np.array([1.0, 0.0]), make_spd(np.eye(2)))
        estimate, std_error = mc_kl_estimate(q, standard_gaussian(2), 10**6, seed=8)
        assert abs(estimate - 0.5) <= 3 * std_error

    def test_closed_form_agreement_on_random_pairs(self):
        for seed in range(20):
            dim = 1 + seed % 8
            q = random_measure(dim, 3 * seed)
            p = random_measure(dim, 3 * seed + 1)
            closed = kl_divergence(q, p)
            estimate, std_error = mc_kl_estimate(q, p, 10**5, seed=3 * seed + 2)
            assert abs(closed - estimate) <= 3 * std_error

    def test_too_few_draws_rejected(self):
        p = standard_gaussian(2)
        with pytest.raises(TooFewSamplesError):
            mc_kl_estimate(p, p, 999, seed=0)

    @pytest.mark.parametrize("dim, count", [(1, 1000), (2, 1000), (2, 3001), (5, 4567)])
    def test_chunked_estimate_has_the_bits_of_one_pass(self, monkeypatch, dim, count):
        # chunks of 1000 // (3d + 2) draws against all draws at once, scored by
        # the density formula written out and summarized by np.mean and np.std
        q, p = random_measure(dim, 60 + dim, 3.0), random_measure(dim, 70 + dim)
        draws = sample(q, count, 9)

        def density(g):
            white = np.linalg.inv(cholesky_factor(g.covariance)) @ (draws - g.mean).T
            return g.log_normalizer - 0.5 * np.sum(white * white, axis=0)

        values = density(q) - density(p)
        want = (float(np.mean(values)), float(np.std(values, ddof=1) / np.sqrt(count)))
        assert mc_kl_estimate(q, p, count, 9) == want
        monkeypatch.setattr(linalg, "GROUP_FLOATS", 1000)
        assert mc_kl_estimate(q, p, count, 9) == want


def test_log_normalizer_matches_direct_formula():
    g = random_measure(3, 19)
    expected = -0.5 * (3 * np.log(2 * np.pi) + log_det(g.covariance))
    assert g.log_normalizer == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("dim", [1, 3, 10])
def test_log_density_matches_scipy(dim):
    g = random_measure(dim, 41 + dim)
    points = make_rng(dim, 5).standard_normal((200, dim)) * 3.0
    want = scipy.stats.multivariate_normal(g.mean, g.covariance.entries).logpdf(points)
    np.testing.assert_allclose(log_density(g, points), want, rtol=1e-12)


def test_stationary_lyapunov_consistency_with_direct_solver():
    a = random_spd(4, 0.4, 3.0, seed=23)
    c = random_spd(4, 0.4, 3.0, seed=24)
    g = stationary_from_dynamics(a, np.zeros(4), c, 0.08, 2)
    direct = solve_continuous_lyapunov(a, SymmetricMatrix((0.08 / 2) * c.entries))
    np.testing.assert_allclose(g.covariance.entries, direct.entries, rtol=1e-13)


def _spd_with_condition(dim: int, log_condition: float, seed: int):
    """Haar-rotated SPD matrix with eigenvalues in [1, 10**log_condition],
    both ends taken."""
    rng = make_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    lam = 10.0 ** rng.uniform(0.0, log_condition, dim)
    lam[0], lam[-1] = 1.0, 10.0**log_condition
    return make_spd((basis * lam) @ basis.T)


def _mp_pair_terms(lp: np.ndarray, lq: np.ndarray, shift: np.ndarray):
    """Reference: ``(||Lp^-1 Lq||_F^2, ||Lp^-1 shift||^2)`` by forward
    substitution at 40 digits on the given float factors."""
    dim = lp.shape[0]
    with mpmath.workdps(40):
        low = [[mpmath.mpf(float(v)) for v in row] for row in lp]

        def solve(rhs):
            x = []
            for i in range(dim):
                partial = mpmath.fsum(low[i][k] * x[k] for k in range(i))
                x.append((mpmath.mpf(float(rhs[i])) - partial) / low[i][i])
            return x

        trace = mpmath.fsum(v * v for j in range(dim) for v in solve(lq[:, j]))
        maha = mpmath.fsum(v * v for v in solve(shift))
    return trace, maha


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    dim=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    log_condition_p=st.floats(0.0, 8.0),
    log_condition_q=st.floats(0.0, 8.0),
)
def test_pair_terms_match_40_digit_solve(dim, seed, log_condition_p, log_condition_q):
    sigma_p = _spd_with_condition(dim, log_condition_p, seed)
    sigma_q = _spd_with_condition(dim, log_condition_q, seed + 1)
    shift = make_rng(seed, 2).standard_normal(dim)
    trace, _, maha = gaussian_pair_terms(sigma_q, sigma_p, shift)
    lp = cholesky_factor(sigma_p)
    want_trace, want_maha = _mp_pair_terms(lp, cholesky_factor(sigma_q), shift)
    # the solve's normwise error, d * kappa(Lp) * eps for the squared norms,
    # plus at most d^2 * eps for squaring and summing d^2 nonnegative terms
    bound = dim * (np.linalg.cond(lp) + dim) * np.finfo(float).eps
    for got, want in ((trace, want_trace), (maha, want_maha)):
        assert float(abs(mpmath.mpf(got) - want) / want) <= bound


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    count=st.integers(1, 6),
    dim=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    log_condition=st.floats(0.0, 8.0),
    shared_p=st.booleans(),
)
def test_stacked_pair_terms_and_kl_match_per_pair_calls(count, dim, seed, log_condition,
                                                        shared_p):
    sigma_q = np.array([_spd_with_condition(dim, log_condition, seed + i).entries
                        for i in range(count)])
    sigma_p = np.array([_spd_with_condition(dim, log_condition / 2, seed + count + i).entries
                        for i in range(1 if shared_p else count)])
    sigma_p = sigma_p[0] if shared_p else sigma_p
    shift = make_rng(seed, 2).standard_normal((count, dim))
    stacked = gaussian_pair_terms(sigma_q, sigma_p, shift)
    prior = GaussianMeasure(make_rng(seed, 3).standard_normal(dim),
                            make_spd(sigma_p if shared_p else sigma_p[0]))
    kl = _kl_divergences(sigma_q, prior.mean - shift, prior)
    for index in range(count):
        single = gaussian_pair_terms(sigma_q[index], sigma_p if shared_p else sigma_p[index],
                                     shift[index])
        for got, want in zip(stacked, single):
            np.testing.assert_array_max_ulp(got[index], want, maxulp=4)
        q = GaussianMeasure(prior.mean - shift[index], make_spd(sigma_q[index]))
        np.testing.assert_array_max_ulp(kl[index], kl_divergence(q, prior), maxulp=4)


def test_an_identity_prior_skips_the_solve_and_keeps_every_bit(monkeypatch):
    # a solve by I returns its finite right side [Lq | shift] as it is; a
    # stack of one I is not skipped, so it makes the solve's terms
    sigma_q = np.array([_spd_with_condition(4, 3.0, seed).entries for seed in range(3)])
    shift = 1e3 * make_rng(5, 2).standard_normal((3, 4))
    want = gaussian_pair_terms(sigma_q, np.eye(4)[None], shift)
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(1) or solve(*args))
    got = gaussian_pair_terms(sigma_q, make_spd(np.eye(4)), shift)
    assert calls == []
    assert [term.tobytes() for term in got] == [term.tobytes() for term in want]
    # a factor one ulp from I is solved
    near = np.eye(4)
    near[3, 0] = 5e-324
    gaussian_pair_terms(sigma_q, near @ near.T, shift)
    assert len(calls) == 1


@pytest.mark.parametrize("identity", [True, False])
def test_an_overflowed_shift_has_an_infinite_term_and_leaves_the_others(identity):
    # a mean difference that overflowed is solved as zero, so no inf * 0 of a
    # solve spreads into NaN, and its term is +inf; every other term keeps its bits
    sigma_q = np.array([_spd_with_condition(4, 3.0, seed).entries for seed in range(3)])
    sigma_p = make_spd(np.eye(4) if identity else _spd_with_condition(4, 5.0, 7).entries)
    shift = make_rng(5, 2).standard_normal((3, 4))
    overflowed = shift.copy()
    overflowed[1] = [np.inf, 0.0, -np.inf, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gaussian_pair_terms(sigma_q, sigma_p, overflowed)
        single = gaussian_pair_terms(sigma_q[1], sigma_p, overflowed[1])
    want = gaussian_pair_terms(sigma_q, sigma_p, shift)
    assert got[2][1] == single[2] == np.inf
    assert np.array_equal(np.delete(got[2], 1), np.delete(want[2], 1))
    assert [term.tobytes() for term in got[:2]] == [term.tobytes() for term in want[:2]]
