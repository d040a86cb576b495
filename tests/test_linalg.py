"""Core linear algebra: SPD validation, determinants, equation solvers.

Residual oracles are independent of the solvers: each solution is
substituted back into its defining equation, and its normwise backward
error is compared against the contract bound 16 d eps (on well-scaled
instances, its Frobenius residual also against 1e-10 (1 + ||Q||)).
Kronecker solves and scipy's solvers serve as external cross-checks of
the forward error.
"""

import time
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oupac import (
    DomainPair,
    InvalidRangeError,
    InvalidSpecError,
    NotPositiveDefiniteError,
    NotSquareError,
    QuadraticLoss,
    RegressionTask,
    ResidualTooLargeError,
    SgdDynamics,
    SpdMatrix,
    SpectralRadiusTooLargeError,
    SymmetricMatrix,
    cholesky_factor,
    log_det,
    make_spd,
    random_spd,
    solve_continuous_lyapunov,
    solve_discrete_stein,
)
from oupac import linalg
from oupac.bounds import _discrepancies
from oupac.errors import OupacError
from oupac.gaussian import GaussianMeasure, _kl_divergences, _pair_divergences, gaussian_pair_terms
from oupac.gaussian import stein_stationary_covariance
from oupac.linalg import (_backward_verdict, _in_groups, _log_det_of_factor,
                          _lyapunov_in_eigenbasis, _make_spd_stack, _spd_verdict,
                          _symmetric_entries)
from oupac.rng import make_rng

from conftest import random_symmetric

RESIDUAL_TOL = 1e-10
EPS = np.finfo(float).eps


def backward_error(residual, x, q, weight) -> float:
    """||R||_F / (weight ||X||_F + ||Q||_F), from plain norms."""
    norm = np.linalg.norm
    return float(norm(residual) / (weight * norm(x) + norm(q)))


class TestMakeSpd:
    def test_identity_strict(self):
        m = make_spd(np.eye(2))
        assert m.dim == 2
        assert isinstance(m, SymmetricMatrix)
        np.testing.assert_array_equal(m.entries, np.eye(2))

    def test_indefinite_rejected_with_smallest_eigenvalue(self):
        # eigenvalues of [[1,2],[2,1]] are 3 and -1 by symmetry
        with pytest.raises(NotPositiveDefiniteError) as excinfo:
            make_spd([[1.0, 2.0], [2.0, 1.0]])
        assert excinfo.value.smallest_eigenvalue == pytest.approx(-1.0, rel=1e-12)

    def test_near_singular_still_strict(self):
        # eigenvalues 1 +/- 0.999 by closed form
        m = make_spd([[1.0, 0.999], [0.999, 1.0]])
        eigs = np.linalg.eigvalsh(m.entries)
        assert eigs[0] == pytest.approx(0.001, rel=1e-9)

    def test_singular_rejected(self):
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            make_spd(singular)

    def test_an_spd_value_is_a_symmetric_matrix(self):
        x = np.array([[2.0, 0.3], [0.1, 1.0]])
        spd = make_spd(x)
        assert isinstance(spd, SymmetricMatrix)
        assert spd.entries.tobytes() == SpdMatrix(x).entries.tobytes()
        assert _symmetric_entries(spd) is spd.entries
        # the noise covariance of a rank-deficient factor is symmetric but not SPD
        noise_cov = SgdDynamics(0.1, 1, np.diag([1.0, 0.0])).noise_cov
        with pytest.raises(InvalidRangeError,
                           match="^covariance must be a SpdMatrix, got SymmetricMatrix$"):
            GaussianMeasure(np.zeros(2), noise_cov)

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            make_spd(np.ones((2, 3)))
        with pytest.raises(NotSquareError):
            make_spd(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_symmetrization_is_exact(self):
        asym = np.array([[1.0, 0.3], [0.1, 2.0]])
        m = SymmetricMatrix(asym)
        np.testing.assert_array_equal(m.entries, (asym + asym.T) / 2)
        assert not m.entries.flags.writeable

    def test_symmetrization_past_half_the_float_maximum_halves_first(self):
        # M + M^T overflows there; M/2 + M^T/2 does not, and has the bits of
        # (M + M^T) / 2 except that an entry below 2^-1021 may lose its last bit
        big = np.array([[2.0**1023, 2.0**1000], [3 * 2.0**1000, 1.5 * 2.0**1023]])
        want = [[2.0**1023, 2.0**1001], [2.0**1001, 1.5 * 2.0**1023]]
        tiny = np.array([[1.0, 5e-324], [5e-324, 1.0]])  # 5e-324 / 2 rounds to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (make_spd, SymmetricMatrix):
                assert build(big).entries.tolist() == want
            stack = _make_spd_stack(np.stack([big, tiny, np.eye(2)]))
            assert stack[0].tolist() == want
            assert stack[1].tolist() == [[1.0, 0.0], [0.0, 1.0]]
            assert np.abs(stack[1] - tiny).max() <= 5e-324
            nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
            inf = np.array([[np.inf, 0.0], [0.0, 1.0]])
            for bad in (nan, inf):
                for build in (make_spd, SymmetricMatrix):
                    with pytest.raises(NotSquareError,
                                       match="^matrix contains non-finite entries$"):
                        build(bad)
                with pytest.raises(NotSquareError, match="matrix contains non-finite entries"):
                    _make_spd_stack(np.stack([np.eye(2), bad, big]))

    def test_every_error_message_of_a_symmetric_matrix_is_unchanged(self):
        for entries, message in [
            (np.ones((2, 3)), "matrix must be square, got shape (2, 3)"),
            (np.ones(3), "matrix must be square, got shape (3,)"),
            (np.ones((0, 0)), "matrix must have dimension >= 1"),
            ([[1.0, np.nan], [0.0, 1.0]], "matrix contains non-finite entries"),
            ([[-np.inf]], "matrix contains non-finite entries"),
        ]:
            with pytest.raises(NotSquareError) as raised:
                SymmetricMatrix(entries)
            assert str(raised.value) == message

    def test_a_stacked_matrix_fails_by_either_check_before_a_later_one(self):
        # the one merged check: a one-pair survey stacks source and target
        nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
        non_spd = np.diag([1.0, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefiniteError, match="smallest eigenvalue -1"):
                _make_spd_stack(np.stack([non_spd, nan]))
            with pytest.raises(NotSquareError, match="matrix contains non-finite entries"):
                _make_spd_stack(np.stack([nan, non_spd]))

    def test_the_spd_check_is_relative_at_every_scale(self):
        # eigenvalues 1 and 1e-11: kappa 1e11 is past 1 / PSD_RTOL, at every scale;
        # 1 and 2e-10 pass at every scale, where the old floor refused 1e-12 I;
        # at 2^-1000 the small eigenvalue is subnormal, and symmetrization may
        # drop its last bit
        for scale in (2.0**-1000, 1e-12, 1.0, 1e12, 2.0**1000):
            last_bit = pytest.approx(scale * 1e-11, rel=0.0, abs=5e-324)
            with pytest.raises(NotPositiveDefiniteError) as raised:
                make_spd(scale * np.diag([1.0, 1e-11]))
            assert raised.value.smallest_eigenvalue == last_bit
            assert str(raised.value).endswith(f"<= tolerance {scale * 1e-10:.3g}")
            small, top = make_spd(scale * np.diag([1.0, 2e-10])).eigenvalues
            assert (small, top) == (pytest.approx(scale * 2e-10, rel=0.0, abs=5e-324), scale)
        verdict = _spd_verdict(np.array([[0.0, 0.0], [1e-300, 1e-300], [-0.0, 1.0]]))
        assert verdict.bad.tolist() == [True, False, True]

    def test_nan_eigenvalues_fail_the_spd_check(self):
        verdict = _spd_verdict(np.array([[np.nan, np.nan], [1.0, 2.0], [-np.inf, 1.0]]))
        assert verdict.bad.tolist() == [True, False, True]
        with pytest.raises(NotPositiveDefiniteError, match="smallest eigenvalue nan"):
            verdict.check()

    def test_a_residual_that_is_not_finite_fails_the_backward_error_check(self):
        for bad in (np.nan, np.inf):
            verdict = _backward_verdict(np.full((2, 2), bad), np.eye(2), np.eye(2), 1.0, 2.0,
                                        "test")
            with pytest.raises(ResidualTooLargeError, match=f"backward error {bad}"):
                verdict.check()


class TestLogDet:
    def test_identity_any_dim(self):
        for d in (1, 3, 7):
            assert log_det(make_spd(np.eye(d))) == 0.0

    def test_diagonal_closed_form(self):
        # ln 8
        assert log_det(make_spd(np.diag([2.0, 4.0]))) == pytest.approx(
            2.0794415416798359, rel=1e-14
        )

    def test_matches_eigenvalue_sum(self):
        # eigendecomposition oracle: log det = sum of log eigenvalues
        for seed in range(20):
            m = random_spd(8, 0.05, 20.0, seed=seed)
            expected = float(np.sum(np.log(np.linalg.eigvalsh(m.entries))))
            assert log_det(m) == pytest.approx(expected, rel=1e-10)

    def test_stacked_factors_give_log_det_and_the_pair_term_bit_for_bit(self):
        matrices = [random_spd(4, 0.1, 30.0, seed=seed) for seed in range(6)]
        stacked = _log_det_of_factor(cholesky_factor(np.stack([m.entries for m in matrices])))
        assert stacked.tolist() == [log_det(m) for m in matrices]
        _, log_det_ratio, _ = gaussian_pair_terms(matrices[0], matrices[1], np.zeros(4))
        assert log_det_ratio == log_det(matrices[1]) - log_det(matrices[0])


def lyapunov_residual(a, q, x) -> float:
    achieved = a.entries @ x.entries + x.entries @ a.entries
    return np.linalg.norm(achieved - q.entries, "fro")


class TestContinuousLyapunov:
    def test_identity(self):
        x = solve_continuous_lyapunov(make_spd(np.eye(2)), SymmetricMatrix(np.eye(2)))
        np.testing.assert_allclose(x.entries, 0.5 * np.eye(2), atol=1e-15)

    def test_diagonal_closed_form(self):
        # q_ii / (2 lambda_i)
        x = solve_continuous_lyapunov(
            make_spd(np.diag([1.0, 2.0])), SymmetricMatrix(0.1 * np.eye(2))
        )
        np.testing.assert_allclose(x.entries, np.diag([0.05, 0.025]), rtol=1e-14)

    def test_residual_oracle_1000_instances(self):
        rng = make_rng(555)
        for i in range(1000):
            dim = int(rng.integers(1, 51))
            a = random_spd(dim, 0.05, 10.0, seed=2 * i)
            q = random_symmetric(dim, seed=2 * i + 1, scale=3.0)
            x = solve_continuous_lyapunov(a, q)
            tol = RESIDUAL_TOL * (1.0 + np.linalg.norm(q.entries, "fro"))
            assert lyapunov_residual(a, q, x) <= tol
            # symmetry is exact after construction
            np.testing.assert_array_equal(x.entries, x.entries.T)

    def test_spd_output_when_q_spd(self):
        for seed in range(50):
            dim = 1 + seed % 10
            a = random_spd(dim, 0.1, 5.0, seed=seed)
            q = random_spd(dim, 0.1, 5.0, seed=seed + 9999)
            x = solve_continuous_lyapunov(a, q)
            # Cholesky succeeds iff the solution is positive definite
            np.linalg.cholesky(x.entries)

    def test_matches_scipy(self):
        a = random_spd(6, 0.2, 4.0, seed=8)
        q = random_symmetric(6, seed=9)
        ours = solve_continuous_lyapunov(a, q).entries
        theirs = scipy.linalg.solve_continuous_lyapunov(a.entries, q.entries)
        np.testing.assert_allclose(ours, theirs, rtol=1e-9, atol=1e-12)

    def test_a_solution_has_the_bits_its_check_judged_at_subnormal_entries(self):
        # each law is symmetrized once, in the kernel that checks it; a second
        # halving would move the last bit of an odd subnormal entry, here the
        # off-diagonal entry near 2^-1024 of a law near 2^-1013
        moved = 0
        for seed in range(8):
            angle = make_rng(seed).uniform(0.1, 1.4)
            rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
            a = make_spd((rot * [1.0, 1.001]) @ rot.T)
            q = SymmetricMatrix(2.0**-1012 * np.eye(2))
            noise = SymmetricMatrix(2.0**-1002 * np.eye(2))  # lr = 2^-10 makes q
            for law, lr in ((solve_continuous_lyapunov(a, q), 0.0),
                            (stein_stationary_covariance(a, noise, 2.0**-10, 1), 2.0**-10)):
                want = _lyapunov_in_eigenbasis(a.entries, *a.eigh, q.entries, lr)[0]
                assert law.entries.tobytes() == want.tobytes()
                assert 0.0 < abs(want[0, 1]) < 2.0**-1022
                moved += not np.array_equal(linalg._symmetrized(want), want)
        assert moved >= 4

    def test_rhs_doubling_doubles_solution_exactly(self):
        a = random_spd(5, 0.3, 3.0, seed=21)
        q = random_symmetric(5, seed=22)
        x1 = solve_continuous_lyapunov(a, q).entries
        x2 = solve_continuous_lyapunov(a, SymmetricMatrix(2.0 * q.entries)).entries
        np.testing.assert_array_equal(x2, 2.0 * x1)


def stein_residual(m, q, x) -> float:
    achieved = x.entries - m @ x.entries @ m.T
    return np.linalg.norm(achieved - q.entries, "fro")


def stein_backward_error(m, q, x) -> float:
    radius = float(np.max(np.abs(np.linalg.eigvalsh(m))))
    return backward_error(x.entries - m @ x.entries @ m.T - q.entries, x.entries, q.entries,
                          1.0 + radius**2)


def symmetric_map(dim: int, eigenvalues, seed: int) -> np.ndarray:
    """Exactly symmetric ``V diag(eigenvalues) V^T`` for a random orthogonal V."""
    basis, _ = np.linalg.qr(make_rng(seed).standard_normal((dim, dim)))
    m = (basis * eigenvalues) @ basis.T
    return (m + m.T) / 2.0


def random_symmetric_map(dim: int, seed: int, radius: float) -> np.ndarray:
    """Exactly symmetric map with eigenvalues uniform on (-radius, radius)."""
    mu = make_rng(seed, 1).uniform(-radius, radius, dim)
    return symmetric_map(dim, mu, seed=seed)


def kronecker_stein(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Reference Stein solve: ``(I - M (x) M) vec(X) = vec(Q)``."""
    dim = m.shape[0]
    lhs = np.eye(dim * dim) - np.kron(m, m)
    return np.linalg.solve(lhs, q.reshape(-1)).reshape(dim, dim)


class TestDiscreteStein:
    def test_zero_map(self):
        q = SymmetricMatrix([[2.0, 0.5], [0.5, 1.0]])
        x = solve_discrete_stein(np.zeros((2, 2)), q)
        np.testing.assert_allclose(x.entries, q.entries, atol=1e-14)

    def test_scalar_closed_form(self):
        # 1 / (1 - 0.81)
        x = solve_discrete_stein(np.array([[0.9]]), SymmetricMatrix([[1.0]]))
        assert x.entries[0, 0] == pytest.approx(5.263157894736842, rel=1e-12)

    def test_residual_oracle_1000_instances(self):
        # eigenvalues drawn from (-r, r): a step map with lr*lambda > 1 has
        # negative ones
        rng = make_rng(777)
        for i in range(1000):
            dim = int(rng.integers(1, 9))
            m = random_symmetric_map(dim, seed=3 * i, radius=float(rng.uniform(0.2, 0.97)))
            q = random_symmetric(dim, seed=3 * i + 1, scale=2.0)
            x = solve_discrete_stein(m, q)
            tol = RESIDUAL_TOL * (1.0 + np.linalg.norm(q.entries, "fro"))
            assert stein_residual(m, q, x) <= tol

    def test_symmetric_map_at_dim_40(self):
        dim = 40
        m = random_symmetric_map(dim, seed=5, radius=0.8)
        q = random_spd(dim, 0.1, 2.0, seed=6)
        x = solve_discrete_stein(m, q)
        tol = RESIDUAL_TOL * (1.0 + np.linalg.norm(q.entries, "fro"))
        assert stein_residual(m, q, x) <= tol

    @pytest.mark.parametrize("m", [
        [[0.5, 0.4], [-0.1, 0.3]],
        [[0.5, 0.4], [np.nextafter(0.4, 1.0), 0.3]],  # one ulp from symmetric
    ])
    def test_non_symmetric_map_rejected_before_any_decomposition(self, monkeypatch, m):
        def no_decomposition(*args):
            raise AssertionError("a decomposition ran before the symmetry check")

        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, no_decomposition)
        with pytest.raises(InvalidSpecError, match="symmetric"):
            solve_discrete_stein(np.array(m), SymmetricMatrix(np.eye(2)))

    @pytest.mark.parametrize(
        "dim, radius",
        [(8, 1.0 - 1e-5), (32, 1.0 - 1e-5), (40, 1.0 - 1e-5), (128, 0.999),
         (8, -(1.0 - 1e-5)), (40, -(1.0 - 1e-5)),
         (32, 1.0 - 3e-7), (32, -(1.0 - 3e-7))],
    )
    def test_symmetric_map_near_unit_circle(self, dim, radius):
        # one eigenvalue of M at +-radius, the rest spread over (-|r|, |r|);
        # at 1 - 3e-7 the residual, about eps ||X|| = eps ||Q|| / (1 - rho^2),
        # misses an absolute 1e-10 (1 + ||Q||), and its backward error does not
        rng = make_rng(dim, 17)
        mu = np.concatenate([[radius], rng.uniform(-abs(radius), abs(radius), dim - 1)])
        m = symmetric_map(dim, mu, seed=dim)
        q = random_spd(dim, 0.5, 2.0, seed=dim + 1)
        start = time.perf_counter()
        x = solve_discrete_stein(m, q)
        elapsed = time.perf_counter() - start
        assert stein_backward_error(m, q, x) <= 16 * dim * EPS
        assert elapsed < 1.0
        if dim <= 40:
            oracle = kronecker_stein(m, q.entries)
            gap = 1.0 - float(np.max(np.abs(np.linalg.eigvalsh(m)))) ** 2
            bound = 100 * dim * EPS / gap
            assert np.linalg.norm(x.entries - oracle) <= bound * np.linalg.norm(oracle)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        dim=st.integers(1, 48),
        seed=st.integers(0, 2**32 - 1),
        log_condition=st.floats(0.0, 6.0),
        step=st.floats(0.05, 1.95),
    )
    def test_step_map_of_ill_conditioned_hessian(self, dim, seed, log_condition, step):
        # M = I - lr*A with lr*lambda_max(A) = step, so M's eigenvalues
        # fill [1 - step, 1 - step / condition]: close to +1 for a large
        # condition number, close to -1 for a step near 2
        rng = make_rng(seed, 0)
        lam = np.exp(-rng.uniform(0.0, log_condition * np.log(10.0), dim))
        lam[0] = 1.0
        a = make_spd(symmetric_map(dim, lam, seed=seed))
        lr = step / float(np.max(np.linalg.eigvalsh(a.entries)))
        m = np.eye(dim) - lr * a.entries
        q = random_symmetric(dim, seed=seed + 1)
        gap = 1.0 - float(np.max(np.abs(np.linalg.eigvalsh(m)))) ** 2
        # ||X|| reaches ||Q|| / gap and evaluating X - M X M^T rounds at
        # about eps * ||X||, which an absolute 1e-10 (1 + ||Q||) refused as
        # the gap fell below 1e-6; the backward error scales with ||X||
        x = solve_discrete_stein(m, q)
        assert stein_backward_error(m, q, x) <= 16 * dim * EPS
        if dim <= 8:
            # Kronecker oracle; its relative error grows as 1 / (1 - rho^2)
            oracle = kronecker_stein(m, q.entries)
            bound = 100 * dim * EPS / gap
            assert np.linalg.norm(x.entries - oracle, "fro") <= bound * np.linalg.norm(
                oracle, "fro"
            )

    def test_matches_scipy(self):
        m = random_symmetric_map(6, seed=31, radius=0.9)
        q = random_symmetric(6, seed=32)
        ours = solve_discrete_stein(m, q).entries
        theirs = scipy.linalg.solve_discrete_lyapunov(m, q.entries)
        np.testing.assert_allclose(ours, theirs, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("wrap", [SymmetricMatrix, make_spd])
    def test_symmetric_types_for_m_solve_as_their_entries(self, wrap):
        q = random_symmetric(4, seed=33)
        for m in [0.5 * np.eye(4), random_spd(4, 0.1, 0.9, seed=34).entries]:
            want = solve_discrete_stein(m, q).entries
            assert np.array_equal(solve_discrete_stein(wrap(m), q).entries, want)

    def test_a_solve_makes_one_eigh_and_no_other_decomposition(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh", "cholesky", "solve"):
            def counted(*args, name=name, original=getattr(np.linalg, name)):
                calls.append(name)
                return original(*args)
            monkeypatch.setattr(np.linalg, name, counted)
        m = random_symmetric_map(8, seed=3, radius=0.9)
        q = random_symmetric(8, seed=4)
        for operand in (m, SymmetricMatrix(m)):
            calls.clear()
            solve_discrete_stein(operand, q)
            assert calls == ["eigh"]

    def test_unstable_map_rejected(self):
        with pytest.raises(SpectralRadiusTooLargeError):
            solve_discrete_stein(np.array([[1.0]]), SymmetricMatrix([[1.0]]))
        with pytest.raises(SpectralRadiusTooLargeError):
            solve_discrete_stein(1.5 * np.eye(3), SymmetricMatrix(np.eye(3)))
        # the radius is read at both ends of the spectrum: here at the negative end
        for low in (-1.0, -1.5):
            with pytest.raises(SpectralRadiusTooLargeError, match=f"^spectral radius {-low:g} >= 1"):
                solve_discrete_stein(np.diag([low, 0.5]), SymmetricMatrix(np.eye(2)))


class TestFrobenius:
    def test_a_norm_whose_squares_stay_in_range_keeps_the_bits_of_the_plain_dot(self):
        # 20000 matrices over 40 decades: scaling by a power of two is exact
        rng = make_rng(31)
        entries = rng.standard_normal((20000, 3, 3)) * 10.0 ** rng.uniform(-20, 20, (20000, 1, 1))
        flat = entries.reshape(20000, 1, 9)
        plain = np.sqrt(flat @ flat.swapaxes(-1, -2))[:, 0, 0]
        assert np.array_equal(linalg._frobenius(entries), plain)

    @pytest.mark.parametrize("scale", [1e-170, 1e160, 1e300])
    def test_a_norm_whose_squares_leave_the_range_is_right(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = linalg._frobenius(scale * np.array([[3.0, 0.0], [0.0, 4.0]]))
        assert norm == pytest.approx(5.0 * scale, rel=4 * np.finfo(float).eps, abs=0)

    @pytest.mark.parametrize("scale", [1.0, 1e100, 1e160, 1e200])
    def test_a_wrong_solution_fails_the_residual_check_at_every_scale(self, monkeypatch,
                                                                       scale):
        # a solve three times too large; from 1e160 the squares of a norm
        # overflow, where the check would pass as inf <= inf
        solve = linalg._solve_in_eigenbasis
        monkeypatch.setattr(linalg, "_solve_in_eigenbasis",
                            lambda *args: tuple(3.0 * part for part in solve(*args)))
        q = SymmetricMatrix(scale * np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResidualTooLargeError, match="continuous Lyapunov"):
                solve_continuous_lyapunov(make_spd(np.eye(2)), q)
            with pytest.raises(ResidualTooLargeError, match="discrete Stein"):
                solve_discrete_stein(0.5 * np.eye(2), q)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_law_that_is_not_finite_fails_its_check(self, monkeypatch, bad):
        # a law is kept as the kernel returns it, with no finiteness test of its
        # own: an entry X_kj that is not finite makes (A X)_kj not finite
        solve = linalg._solve_in_eigenbasis

        def broken_solve(*args):
            x, xt = solve(*args)
            x[..., 1, 0] = bad
            return x, xt

        monkeypatch.setattr(linalg, "_solve_in_eigenbasis", broken_solve)
        a = random_spd(3, 0.5, 2.0, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResidualTooLargeError, match="backward error nan"):
                solve_continuous_lyapunov(a, SymmetricMatrix(np.eye(3)))
            with pytest.raises(ResidualTooLargeError, match="backward error nan"):
                stein_stationary_covariance(a, SymmetricMatrix(np.eye(3)), 0.1, 1)


def _grid_hessian(dim: int) -> SpdMatrix:
    """A random rotation of diag(geomspace(1e-8, 1, dim)): kappa 1e8."""
    return make_spd(symmetric_map(dim, np.geomspace(1e-8, 1.0, dim), seed=dim))


#: The grid of ROADMAP item 19: d, lr and the scale of Q (powers of two
#: near 1e-200, 1 and 1e200, so that the test can undo them exactly).
GRID_DIMS = (2, 4, 8, 16, 32)
GRID_RATES = (0.0, 1e-8, 1e-2, 1.0, 1.999)
GRID_SCALES = (2.0**-664, 1.0, 2.0**664)


def _grid_solves():
    """``(label, solve, residual, weight, scale, dim)`` of each grid case: the
    Lyapunov law at lr = 0, else the SGD chain's Stein law with right side
    lr C, and the discrete Stein solve of M = I - lr A where its radius is
    below 1 in float64 (lr >= 1e-2)."""
    for dim in GRID_DIMS:
        a = _grid_hessian(dim)
        c = random_spd(dim, 0.1, 2.0, seed=dim + 1).entries
        top = float(a.eigenvalues[-1])
        for lr in GRID_RATES:
            for scale in GRID_SCALES:
                if lr == 0.0:
                    q = SymmetricMatrix(scale * c)
                    yield ("continuous Lyapunov", lambda a=a, q=q: solve_continuous_lyapunov(a, q),
                           lambda x, a=a, q=q: a.entries @ x + x @ a.entries - q.entries,
                           2.0 * top, scale, dim)
                    continue
                noise = SymmetricMatrix(scale * c)
                rhs = lr * noise.entries
                yield ("SGD chain Stein",
                       lambda a=a, noise=noise, lr=lr: stein_stationary_covariance(a, noise, lr, 1),
                       lambda x, a=a, lr=lr, rhs=rhs: (a.entries @ x + x @ a.entries
                                                      - lr * a.entries @ x @ a.entries - rhs),
                       top * (2.0 + lr * top), scale, dim)
                if lr >= 1e-2:
                    m = np.eye(dim) - lr * a.entries
                    m = (m + m.T) / 2.0
                    radius = float(np.max(np.abs(np.linalg.eigvalsh(m))))
                    q = SymmetricMatrix(scale * c)
                    yield ("discrete Stein", lambda m=m, q=q: solve_discrete_stein(m, q),
                           lambda x, m=m, q=q: x - m @ x @ m.T - q.entries,
                           1.0 + radius**2, scale, dim)


class TestBackwardError:
    def test_every_grid_case_solves_within_16_d_eps(self):
        # kappa 1e8 under a rotation, at every rate and scale: an absolute
        # 1e-10 (1 + ||Q||) refused most of these; each backward error is at
        # most a fraction of d eps
        for label, solve, residual, weight, scale, dim in _grid_solves():
            x = solve().entries
            q = -residual(np.zeros_like(x))
            eta = backward_error(residual(x) / scale, x / scale, q / scale, weight)
            assert eta <= 16 * dim * EPS, (label, dim, scale)

    @pytest.mark.parametrize("wrong", ["zero", "tripled", "perturbed"])
    def test_a_wrong_solution_fails_at_every_grid_case(self, monkeypatch, wrong):
        solve = linalg._solve_in_eigenbasis
        noise = make_rng(7).standard_normal((32, 32))

        def wrong_solve(vecs, rhs, denom):
            x, xt = solve(vecs, rhs, denom)
            if wrong == "zero":
                return 0.0 * x, xt
            if wrong == "tripled":
                return 3.0 * x, xt
            # a relative 1e-6 in the largest entry, spread over every entry;
            # from d = 2 some of it falls on a well-conditioned direction (at
            # d = 1, M = 1 - 1e-10 makes such a change a backward error of 1e-16)
            dim = x.shape[-1]
            return x + 1e-6 * np.abs(x).max() * noise[:dim, :dim], xt

        monkeypatch.setattr(linalg, "_solve_in_eigenbasis", wrong_solve)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for label, solve_case, _, _, scale, dim in _grid_solves():
                with pytest.raises(ResidualTooLargeError, match=f"^{label} solve residual"):
                    solve_case()

    @pytest.mark.parametrize("scale", [1.0, 2.0**-480, 2.0**480])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_the_verdict_passes_eta_at_its_bound_and_fails_it_one_ulp_above(self, stacked,
                                                                           scale):
        # d = 1, X = Q = s, w = 1: eta = r / 2s exactly, so r = 2 s eta lands on
        # the bound 16 eps, or one ulp above it; at s = 2^-480 the square of r
        # is subnormal, and only the scaled norm keeps that ulp
        bound = 16 * EPS
        for eta, bad in ((bound, False), (np.nextafter(bound, 1.0), True)):
            args = np.array([[2.0 * scale * eta]]), scale * np.eye(1), scale * np.eye(1), 1.0
            if stacked:
                args = (args[0][None], args[1][None], args[2], np.array([1.0]))
            assert bool(_backward_verdict(*args, 1.0, "test").bad) == bad

    def test_the_verdict_holds_when_its_terms_are_2_to_the_2000_apart(self):
        # w ||X|| and ||Q|| at 2^+-1000 each way round, with eta near 1/2
        big, small = 2.0**1000 * np.eye(1), 2.0**-1000 * np.eye(1)
        for x, q in ((big, small), (small, big)):
            residual = 0.5 * np.maximum(x, q)
            verdict = _backward_verdict(residual[None], x[None], q, np.array([1.0]), 1.0, "t")
            assert verdict.bad.tolist() == [True]
            assert str(verdict.error(0)).startswith("t solve residual has backward error 0.5")

    def test_the_spd_test_fails_at_its_tolerance_and_passes_one_ulp_above(self):
        for top in (1.0, 2.0**-600, 3.0, 2.0**600):
            tol = 1e-10 * top
            assert _spd_verdict(np.array([tol, top])).bad
            assert not _spd_verdict(np.array([np.nextafter(tol, np.inf), top])).bad

    def test_a_stein_solve_makes_one_eigenbasis_solve(self, monkeypatch):
        calls = []
        solve = linalg._solve_in_eigenbasis
        monkeypatch.setattr(linalg, "_solve_in_eigenbasis",
                            lambda *args: calls.append(1) or solve(*args))
        for dim, radius in ((1, 0.5), (8, 0.9), (64, 0.999)):
            calls.clear()
            solve_discrete_stein(random_symmetric_map(dim, seed=dim, radius=radius),
                                 random_symmetric(dim, seed=dim + 1))
            assert len(calls) == 1


class TestRandomSpd:
    def test_forced_spectrum_gives_identity(self):
        for seed in (0, 1, 99):
            m = random_spd(3, 1.0, 1.0, seed=seed)
            np.testing.assert_allclose(m.entries, np.eye(3), atol=1e-12)

    def test_eigenvalues_within_range(self):
        m = random_spd(5, 0.1, 10.0, seed=7)
        eigs = np.linalg.eigvalsh(m.entries)
        assert np.all(eigs >= 0.1 - 1e-9)
        assert np.all(eigs <= 10.0 + 1e-9)

    def test_deterministic(self):
        a = random_spd(4, 0.5, 2.0, seed=42)
        b = random_spd(4, 0.5, 2.0, seed=42)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_invalid_range(self):
        with pytest.raises(InvalidRangeError):
            random_spd(3, 0.0, 1.0, seed=0)
        with pytest.raises(InvalidRangeError):
            random_spd(3, 2.0, 1.0, seed=0)
        with pytest.raises(InvalidRangeError):
            random_spd(0, 1.0, 1.0, seed=0)


@pytest.mark.parametrize("build, field", [
    (lambda v: QuadraticLoss(make_spd(np.eye(2)), v), "minimizer"),
    (lambda v: GaussianMeasure(v, make_spd(np.eye(2))), "mean"),
    (lambda v: DomainPair(make_spd(np.eye(2)), make_spd(np.eye(2)), v), "shift"),
    (lambda v: RegressionTask(v, make_spd(np.eye(2)), 1.0), "true_weights"),
], ids=["minimizer", "mean", "shift", "true_weights"])
def test_vector_fields_are_frozen_copies_of_finite_entries(build, field):
    column = np.array([[1.0], [-2.0]])
    stored = getattr(build(column), field)
    assert stored.shape == (2,) and stored.tolist() == [1.0, -2.0]
    assert not stored.flags.writeable and not np.shares_memory(stored, column)
    for bad in ([np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.0]):
        with pytest.raises(InvalidRangeError, match=f"{field} contains non-finite entries"):
            build(bad)


def test_cholesky_factor_reconstructs():
    m = random_spd(6, 0.2, 3.0, seed=12)
    factor = cholesky_factor(m)
    np.testing.assert_allclose(factor @ factor.T, m.entries, rtol=1e-12, atol=1e-14)


class TestKeptDecompositions:
    def test_each_is_computed_once_with_the_bits_of_its_lapack_call(self, monkeypatch):
        m = random_spd(5, 0.2, 3.0, seed=4)
        want = (np.linalg.eigvalsh(m.entries), np.linalg.cholesky(m.entries),
                np.linalg.eigh(m.entries))
        calls = []
        for name in ("cholesky", "eigh", "eigvalsh"):
            def counted(a, name=name, original=getattr(np.linalg, name)):
                calls.append(name)
                return original(a)
            monkeypatch.setattr(np.linalg, name, counted)
        for _ in range(3):
            assert cholesky_factor(m) is m.factor
            assert log_det(m) == m.log_det
            values, vectors = m.eigh
        assert calls == ["cholesky", "eigh"]
        assert np.array_equal(m.eigenvalues, want[0])
        assert np.array_equal(m.factor, want[1])
        assert np.array_equal(values, want[2][0]) and np.array_equal(vectors, want[2][1])
        assert m.log_det == float(_log_det_of_factor(want[1]))

    def test_every_kept_array_is_read_only(self):
        m = random_spd(4, 0.5, 2.0, seed=9)
        for array in (m.eigenvalues, m.factor, *m.eigh):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_a_failing_factorization_raises_at_every_access(self):
        # only entries that are not an SpdMatrix can reach a failing factorization
        singular = SgdDynamics(0.1, 1, np.diag([1.0, 0.0])).noise_cov
        stack = np.stack([np.eye(2), np.diag([1.0, 0.0])])
        for m in (singular, singular.entries, stack):
            for _ in range(2):
                with pytest.raises(NotPositiveDefiniteError, match="Cholesky factorization failed"):
                    cholesky_factor(m)
        assert vars(singular).keys() == {"entries"}

    def test_a_stack_of_entries_is_factored_at_each_call(self, monkeypatch):
        stack = np.stack([random_spd(3, 0.5, 2.0, seed=seed).entries for seed in range(4)])
        calls = []

        def counted(a, original=np.linalg.cholesky):
            calls.append(a.shape)
            return original(a)
        monkeypatch.setattr(np.linalg, "cholesky", counted)
        first, second = cholesky_factor(stack), cholesky_factor(stack)
        assert calls == [(4, 3, 3)] * 2 and first.flags.writeable
        assert np.array_equal(first, second)


def _spd_stack(count: int, dim: int, low: float, high: float, seed: int) -> np.ndarray:
    """Symmetric matrices with eigenvalues drawn from [low, high] (low may be <= 0)."""
    rng = make_rng(seed)
    stack = []
    for _ in range(count):
        q_fac, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        stack.append(SymmetricMatrix((q_fac * rng.uniform(low, high, dim)) @ q_fac.T).entries)
    return np.array(stack)


def _failure(call) -> str | None:
    try:
        call()
    except NotPositiveDefiniteError as exc:
        return str(exc)
    return None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    count=st.integers(1, 6),
    dim=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    low=st.sampled_from([-1e-3, -1e-11, 0.0, 1e-11, 2e-10, 1e-3, 0.5]),
)
def test_stacked_spd_test_matches_per_matrix_checks(count, dim, seed, low):
    stack = _spd_stack(count, dim, low, 2.0, seed)
    verdict = _spd_verdict(np.linalg.eigvalsh(stack))
    for index, entries in enumerate(stack):
        want = _failure(lambda: make_spd(entries))
        assert bool(verdict.bad[index]) == (want is not None)
        if want is not None:
            assert str(verdict.error(index)) == want
    assert _failure(verdict.check) == next(
        (m for m in (_failure(lambda: make_spd(e)) for e in stack) if m), None)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    count=st.integers(1, 6),
    dim=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    log_condition=st.floats(0.0, 8.0),
    shared_rhs=st.booleans(),
)
def test_stacked_lyapunov_solve_matches_per_matrix_solves(count, dim, seed, log_condition,
                                                          shared_rhs):
    a = _spd_stack(count, dim, 10.0**-log_condition, 1.0, seed)
    q = _spd_stack(1 if shared_rhs else count, dim, 0.1, 2.0, seed + 1)
    q = q[0] if shared_rhs else q
    lam, vecs = np.linalg.eigh(a)
    x, _ = _lyapunov_in_eigenbasis(a, lam, vecs, q)
    for index in range(count):
        want = solve_continuous_lyapunov(make_spd(a[index]), q if shared_rhs else q[index])
        np.testing.assert_array_max_ulp(x[index], want.entries, maxulp=4)


def _law_inputs(count: int, dim: int, seed: int, log_condition: float, rhs: str):
    """Hessians with log-uniform eigenvalues in [10^-log_condition, 1], and
    right sides: I, a dense B B^T, or a B B^T of rank below dim."""
    rng = make_rng(seed)
    a, c = [], []
    for _ in range(count):
        q_fac, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        a.append((q_fac * 10.0 ** rng.uniform(-log_condition, 0.0, dim)) @ q_fac.T)
        factor = rng.standard_normal((dim, dim if rhs == "dense" else dim - 1))
        c.append(np.eye(dim) if rhs == "isotropic" else factor @ factor.T)
    a, c = np.array(a), np.array(c)
    return (a + a.swapaxes(-1, -2)) / 2.0, (c + c.swapaxes(-1, -2)) / 2.0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    count=st.integers(1, 4),
    dim=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    log_condition=st.floats(0.0, 10.0),
    a_scale=st.integers(-250, 250),
    c_scale=st.integers(-250, 250),
    rhs=st.sampled_from(["isotropic", "dense", "rank-deficient"]),
    rate=st.sampled_from([0.0, 0.5, 1.9]),
)
def test_a_law_the_discs_pass_is_one_eigvalsh_passes(count, dim, seed, log_condition, a_scale,
                                                     c_scale, rhs, rate):
    # kappa up to 1e10, A and C each scaled by 2^+-250 (X by up to 2^+-500),
    # the Lyapunov law and the SGD chain's Stein law at lr lam_max = rate;
    # the slack is the fixed 16 d^2 eps of linalg._spectrum_passes, times
    # the larger end of the discs' range
    a, c = _law_inputs(count, dim, seed, log_condition, rhs)
    a, c = 2.0**a_scale * a, 2.0**c_scale * c
    lam, vecs = np.linalg.eigh(a)
    x, xt = _lyapunov_in_eigenbasis(a, lam, vecs, c, rate / float(lam.max()))
    low, high = linalg._disc_range(xt)
    eigenvalues = np.linalg.eigvalsh(x)
    slack = 16.0 * dim * dim * EPS * np.maximum(np.abs(low), high)
    assert np.all(eigenvalues[..., 0] >= low - slack)
    assert np.all(eigenvalues[..., -1] <= high + slack)
    # so the verdict the discs decide never passes a law that eigvalsh refuses
    decided = linalg._spectrum_passes(dim, low, high)
    assert not np.any(decided & _spd_verdict(eigenvalues).bad)


def test_a_disc_radius_counts_the_column_as_well_as_the_row():
    # an arrow Xt whose first column holds 0.9 under a unit diagonal: each
    # row's disc stays right of 0.1, but (Xt + Xt^T) / 2 has the eigenvalue
    # 1 - 0.45 sqrt(5) < 0, so X = (Xt + Xt^T) / 2 (V = I) fails its check
    xt = np.eye(6)
    xt[1:, 0] = 0.9
    with pytest.raises(NotPositiveDefiniteError):
        linalg._check_spd_by_discs((xt + xt.T) / 2.0, xt)


def test_the_disc_check_reads_eigvalsh_only_where_the_discs_leave_it_open(monkeypatch):
    # item 1's right side is v v^T for an eigenvector v of its Hessian, so
    # its law has rank 1 and its discs reach 0; items 0 and 2 have C = I,
    # whose laws the discs pass
    a, c = _law_inputs(3, 4, 7, 1.0, "isotropic")
    lam, vecs = np.linalg.eigh(a)
    c[1] = np.outer(vecs[1][:, 0], vecs[1][:, 0])
    x, xt = _lyapunov_in_eigenbasis(a, lam, vecs, c)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(len(m)) or eigvalsh(m))
    linalg._check_spd_by_discs(x[::2], xt[::2])
    assert calls == []
    with pytest.raises(NotPositiveDefiniteError) as caught:
        linalg._check_spd_by_discs(x, xt)
    assert calls == [3]
    assert str(caught.value) == str(_spd_verdict(eigvalsh(x)).error(1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    count=st.integers(1, 6),
    dim=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    log_error=st.floats(-17.0, -12.0),
    log_scale=st.integers(-1000, 1000),
)
def test_stacked_backward_check_matches_per_matrix_checks(count, dim, seed, log_error,
                                                          log_scale):
    # residuals around the bound 16 d eps, so that some items fail and some
    # pass, at any power-of-two scale of the equation
    scale = 2.0**log_scale
    q = scale * _spd_stack(1, dim, 0.1, 2.0, seed)[0]
    x = scale * _spd_stack(count, dim, 0.1, 2.0, seed + 1)
    norm = 10.0 ** make_rng(seed, 3).uniform(-3, 3, count)
    residual = (scale * 10.0**log_error * make_rng(seed, 1).standard_normal((count, dim, dim))
                * make_rng(seed, 2).uniform(0, 100, (count, 1, 1)))
    verdict = _backward_verdict(residual, x, q, norm, 2.0, "test")
    for index in range(count):
        single = _backward_verdict(residual[index], x[index], q, norm[index], 2.0, "test")
        assert bool(verdict.bad[index]) == bool(single.bad)
        want = backward_error(residual[index] / scale, x[index] / scale, q / scale,
                              2.0 * norm[index])
        # the check's own eta rounds a few times
        assert bool(single.bad) == (want > 16 * dim * EPS) or abs(
            want / (16 * dim * EPS) - 1.0) < 1e-12
        if single.bad:
            assert str(verdict.error(index)) == str(single.error(0))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    dim=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    powers=st.tuples(*[st.integers(-1074, 1023)] * 4),
    zero=st.sampled_from(["", "r", "x", "q", "xq", "rxq"]),
    special=st.sampled_from([0.0, np.inf, -np.inf, np.nan]),
    factor=st.floats(1.0, 4.0),
)
@example(dim=2, seed=1, powers=(-1074, -1074, -1074, 0), zero="", special=0.0, factor=2.0)
@example(dim=2, seed=1, powers=(1023, 1023, 1023, 1023), zero="", special=0.0, factor=4.0)
@example(dim=2, seed=1, powers=(1000, -1074, -1074, -1074), zero="", special=0.0, factor=1.0)
@example(dim=3, seed=2, powers=(0, 0, 0, 0), zero="xq", special=0.0, factor=2.0)
@example(dim=3, seed=2, powers=(0, 0, 0, 0), zero="xq", special=np.nan, factor=2.0)
@example(dim=3, seed=2, powers=(0, 0, 0, 0), zero="r", special=0.0, factor=2.0)
@example(dim=3, seed=2, powers=(0, 0, 0, 0), zero="rxq", special=0.0, factor=2.0)
@example(dim=1, seed=3, powers=(0, 1023, 0, 1023), zero="", special=np.inf, factor=4.0)
def test_one_matrix_eta_has_the_bits_of_the_stacked_eta(dim, seed, powers, zero, special,
                                                        factor):
    # R, X and Q scaled by 2^p (p = -1074 leaves few bits, or none; p = 1023
    # overflows some entries of X or Q), each possibly zero, and one entry of R
    # possibly inf or NaN: an eta that overflows is inf, X = Q = 0 divides by 0
    # (R = 0 then has eta = 0), and a NaN or inf / inf quotient is NaN, in both paths
    rng = make_rng(seed)
    with np.errstate(over="ignore", under="ignore"):
        r, x, q = (2.0**p * rng.standard_normal((dim, dim)) for p in powers[:3])
        norm = float(2.0**powers[3] * rng.uniform(0.5, 1.0))
    for name in zero:
        {"r": r, "x": x, "q": q}[name][...] = 0.0
    if special:
        r[0, -1] = special
    single = linalg._backward_errors(r, x, q, norm, factor)
    stacked = linalg._backward_errors(r[None], x[None], q, np.array([norm]), factor)
    assert type(single) is float and stacked.shape == (1,)
    assert (np.isnan(single) and np.isnan(stacked[0])) or (
        np.float64(single).tobytes() == stacked[0].tobytes())
    bound = 16 * dim * EPS
    verdicts = (_backward_verdict(r, x, q, norm, factor, "t"),
                _backward_verdict(r[None], x[None], q, np.array([norm]), factor, "t"))
    assert bool(verdicts[0].bad) == bool(verdicts[1].bad[0]) == (not single <= bound)
    if verdicts[0].bad:
        assert str(verdicts[0].error(0)) == str(verdicts[1].error(0))


def _kernel_cases():
    """Each stacked kernel, with its arguments for a stack of three items of
    which item 1 fails (index None) or for one item of that stack."""
    spd = _spd_stack(3, 2, 0.5, 2.0, 5)
    lam, vecs = np.linalg.eigh(spd)
    doubled = spd * np.array([1.0, 2.0, 1.0])[:, None, None]  # item 1 is not A of its basis
    not_spd = spd.copy()
    not_spd[1] = np.diag([1.0, -1.0])
    huge = np.zeros((3, 2))
    huge[1, 0] = 1e200  # its squared Mahalanobis norm overflows
    prior = GaussianMeasure(np.zeros(2), make_spd(np.eye(2)))

    def pick(stack, index):
        return stack if index is None else stack[index]
    return {
        "make_spd_stack": (_make_spd_stack, lambda i: (pick(not_spd, i),)),
        "lyapunov_in_eigenbasis": (_lyapunov_in_eigenbasis, lambda i: (
            pick(doubled, i), pick(lam, i), pick(vecs, i), np.eye(2))),
        "pair_divergences": (_pair_divergences, lambda i: (
            pick(spd, i), np.eye(2), pick(huge, i), lambda trace, ratio, maha: (trace + maha,))),
        "kl_divergences": (_kl_divergences, lambda i: (pick(spd, i), pick(huge, i), prior)),
        "discrepancies": (_discrepancies, lambda i: (np.eye(2), pick(spd, i), pick(huge, i))),
    }


@pytest.mark.parametrize("name", list(_kernel_cases()))
def test_a_stacked_kernel_raises_what_its_failing_item_raises_alone(name):
    kernel, args = _kernel_cases()[name]
    kernel(*args(0))
    kernel(*args(2))
    with pytest.raises(OupacError) as alone:
        kernel(*args(1))
    with pytest.raises(OupacError) as stacked:
        kernel(*args(None))
    assert type(stacked.value) is type(alone.value)
    assert str(stacked.value) == str(alone.value)


class TestInGroups:
    """The group and replay policy of stacked pipelines, on a synthetic run."""

    @staticmethod
    def recording(calls, fail=lambda group: None):
        def run(group):
            calls.append(list(group))
            fail(group)
            items = np.array(group, dtype=float)
            return items * 2.0, items + 0.5
        return run

    def test_columns_concatenate_in_item_order(self, monkeypatch):
        monkeypatch.setattr(linalg, "GROUP_FLOATS", 10)
        calls = []
        doubled, shifted = _in_groups(self.recording(calls), list(range(7)), 3)
        assert calls == [[0, 1, 2], [3, 4, 5], [6]]
        assert doubled.tolist() == [2.0 * i for i in range(7)]
        assert shifted.tolist() == [i + 0.5 for i in range(7)]

    @pytest.mark.parametrize("floats_per_item, sizes", [
        (1, [10, 2]), (3, [3, 3, 3, 3]), (5, [2] * 6), (10, [1] * 12), (11, [1] * 12),
        (0, [10, 2]),  # an item of no floats counts as one float
    ])
    def test_groups_hold_at_most_group_floats_and_at_least_one_item(
            self, monkeypatch, floats_per_item, sizes):
        monkeypatch.setattr(linalg, "GROUP_FLOATS", 10)
        calls = []
        _in_groups(self.recording(calls), range(12), floats_per_item)
        assert [len(group) for group in calls] == sizes
        assert [item for group in calls for item in group] == list(range(12))

    def test_a_failing_group_raises_the_error_of_its_earliest_failing_item(self, monkeypatch):
        # items 0-3 and 4-7 make two groups; the run checks item 3's failure
        # before item 1's, as a stacked check of an earlier kind would
        def fail(group):
            if 3 in group:
                raise InvalidRangeError("item 3")
            if 1 in group:
                raise NotSquareError("item 1")
            if 6 in group:
                raise ResidualTooLargeError("item 6")

        monkeypatch.setattr(linalg, "GROUP_FLOATS", 4)
        calls = []
        with pytest.raises(NotSquareError, match="item 1"):
            _in_groups(self.recording(calls, fail), list(range(8)), 1)
        assert calls == [[0, 1, 2, 3], [0], [1]]

    def test_a_failing_one_item_group_is_not_replayed(self, monkeypatch):
        def fail(group):
            if 2 in group:
                raise InvalidRangeError("item 2")

        monkeypatch.setattr(linalg, "GROUP_FLOATS", 1)
        calls = []
        with pytest.raises(InvalidRangeError, match="item 2"):
            _in_groups(self.recording(calls, fail), list(range(5)), 1)
        assert calls == [[0], [1], [2]]

    def test_a_group_whose_items_pass_alone_keeps_their_results(self, monkeypatch):
        # a check near its threshold may fail on a stack and pass item by item
        def fail(group):
            if len(group) > 1:
                raise ResidualTooLargeError("the whole group")

        monkeypatch.setattr(linalg, "GROUP_FLOATS", 3)
        calls = []
        doubled, shifted = _in_groups(self.recording(calls, fail), list(range(5)), 1)
        assert calls == [[0, 1, 2], [0], [1], [2], [3, 4], [3], [4]]
        assert doubled.tolist() == [2.0 * i for i in range(5)]
        assert shifted.tolist() == [i + 0.5 for i in range(5)]

    def test_an_error_of_another_kind_propagates_without_a_replay(self, monkeypatch):
        def fail(group):
            raise ValueError("not a check")

        calls = []
        with pytest.raises(ValueError, match="not a check"):
            _in_groups(self.recording(calls, fail), [0, 1, 2], 1)
        assert calls == [[0, 1, 2]]


def test_check_held_allows_record_floats_and_rejects_one_more():
    # arithmetic only: no array of either size is made
    limit = linalg.RECORD_FLOATS
    linalg._check_held("steps=1 records", limit, 4)
    with pytest.raises(InvalidRangeError) as raised:
        linalg._check_held("steps=1 records", limit + 1, 4)
    assert str(raised.value) == (f"steps=1 records {limit + 1} floats ({8 * limit + 8} bytes) "
                                 f"at dimension 4; at most {limit} ({8 * limit} bytes) are held")
