"""Core linear algebra: SPD validation, determinants, equation solvers.

Residual oracles are independent of the solvers: each solution is
substituted back into its defining equation and the Frobenius residual
is compared against the contract tolerance.  scipy's solvers serve as a
second, external cross-check on a handful of instances.
"""

import re
import time
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oupac import (
    InvalidRangeError,
    NotPositiveDefiniteError,
    NotSquareError,
    ResidualTooLargeError,
    SpectralRadiusTooLargeError,
    SymmetricMatrix,
    cholesky_factor,
    inverse,
    log_det,
    make_spd,
    random_spd,
    solve_continuous_lyapunov,
    solve_discrete_stein,
    spectral_radius,
)
from oupac import linalg
from oupac.bounds import _discrepancies
from oupac.errors import OupacError
from oupac.gaussian import GaussianMeasure, _kl_divergences, _pair_divergences, gaussian_pair_terms
from oupac.linalg import (_in_groups, _log_det_of_factor, _lyapunov_in_eigenbasis,
                          _make_spd_stack, _residual_verdict, _spd_verdict)
from oupac.rng import make_rng

from conftest import random_symmetric

RESIDUAL_TOL = 1e-10


class TestMakeSpd:
    def test_identity_strict(self):
        m = make_spd(np.eye(2))
        assert m.dim == 2
        assert m.strictness == "strict"
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

    def test_semidefinite_accepts_singular(self):
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        m = make_spd(singular, strictness="semidefinite")
        assert m.strictness == "semidefinite"
        with pytest.raises(NotPositiveDefiniteError):
            make_spd(singular, strictness="strict")

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

    def test_overflowing_symmetrization_rejected_without_warning(self):
        big = np.array([[1e308, 0.0], [0.0, 1e308]])
        message = "matrix symmetrization (M + M^T) / 2 overflows float64"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (make_spd, SymmetricMatrix):
                with pytest.raises(NotSquareError, match=re.escape(message)):
                    build(big)
            nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
            with pytest.raises(NotSquareError, match=re.escape(message)):
                _make_spd_stack(np.stack([np.eye(2), big, nan]))
            with pytest.raises(NotSquareError, match="matrix contains non-finite entries"):
                _make_spd_stack(np.stack([np.eye(2), nan, big]))

    def test_a_stacked_matrix_fails_by_either_check_before_a_later_one(self):
        # the one merged check: a one-pair survey stacks source and target
        big = np.array([[1e308, 0.0], [0.0, 1e308]])
        non_spd = np.diag([1.0, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefiniteError, match="smallest eigenvalue -1"):
                _make_spd_stack(np.stack([non_spd, big]))
            with pytest.raises(NotSquareError, match=re.escape("(M + M^T) / 2 overflows")):
                _make_spd_stack(np.stack([big, non_spd]))

    @pytest.mark.parametrize("strictness", ["strict", "semidefinite"])
    def test_nan_eigenvalues_fail_the_spd_check(self, strictness):
        verdict = _spd_verdict(np.array([[np.nan, np.nan], [1.0, 2.0], [-np.inf, 1.0]]),
                               strictness)
        assert verdict.bad.tolist() == [True, False, True]
        with pytest.raises(NotPositiveDefiniteError, match="smallest eigenvalue nan"):
            verdict.check()

    def test_nan_residual_fails_the_residual_check(self):
        verdict = _residual_verdict(np.full((2, 2), np.nan), np.eye(2), "test")
        with pytest.raises(ResidualTooLargeError, match="residual nan"):
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

    def test_inverse_negates_log_det(self):
        for seed in range(30):
            dim = 1 + seed % 6
            m = random_spd(dim, 0.2, 8.0, seed=seed)
            assert log_det(inverse(m)) == pytest.approx(-log_det(m), abs=1e-9)

    def test_inverse_is_inverse(self):
        m = random_spd(5, 0.3, 4.0, seed=3)
        np.testing.assert_allclose(
            m.entries @ inverse(m).entries, np.eye(5), atol=1e-12
        )


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

    def test_semidefinite_coefficient_rejected(self):
        a = make_spd(np.eye(2), strictness="semidefinite")
        with pytest.raises(NotPositiveDefiniteError):
            solve_continuous_lyapunov(a, SymmetricMatrix(np.eye(2)))

    def test_rhs_doubling_doubles_solution_exactly(self):
        a = random_spd(5, 0.3, 3.0, seed=21)
        q = random_symmetric(5, seed=22)
        x1 = solve_continuous_lyapunov(a, q).entries
        x2 = solve_continuous_lyapunov(a, SymmetricMatrix(2.0 * q.entries)).entries
        np.testing.assert_array_equal(x2, 2.0 * x1)


def stein_residual(m, q, x) -> float:
    achieved = x.entries - m @ x.entries @ m.T
    return np.linalg.norm(achieved - q.entries, "fro")


def random_stable_map(dim: int, seed: int, radius: float = 0.95) -> np.ndarray:
    g = make_rng(seed).standard_normal((dim, dim))
    return g * (radius / spectral_radius(g))


def symmetric_map(dim: int, eigenvalues, seed: int) -> np.ndarray:
    """Exactly symmetric ``V diag(eigenvalues) V^T`` for a random orthogonal V."""
    basis, _ = np.linalg.qr(make_rng(seed).standard_normal((dim, dim)))
    m = (basis * eigenvalues) @ basis.T
    return (m + m.T) / 2.0


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
        rng = make_rng(777)
        for i in range(1000):
            dim = int(rng.integers(1, 9))
            m = random_stable_map(dim, seed=3 * i, radius=float(rng.uniform(0.2, 0.97)))
            q = random_symmetric(dim, seed=3 * i + 1, scale=2.0)
            x = solve_discrete_stein(m, q)
            tol = RESIDUAL_TOL * (1.0 + np.linalg.norm(q.entries, "fro"))
            assert stein_residual(m, q, x) <= tol

    def test_general_map_at_dim_40(self):
        dim = 40
        m = random_stable_map(dim, seed=5, radius=0.8)
        q = random_spd(dim, 0.1, 2.0, seed=6)
        x = solve_discrete_stein(m, q)
        tol = RESIDUAL_TOL * (1.0 + np.linalg.norm(q.entries, "fro"))
        assert stein_residual(m, q, x) <= tol

    @pytest.mark.parametrize("dim", [8, 32])
    def test_general_map_near_unit_circle_meets_contract_or_raises(self, dim):
        # scipy's solve, used for a non-symmetric M, misses the residual
        # contract at d = 32 here: the solve must raise, and quickly
        m = random_stable_map(dim, seed=dim, radius=1.0 - 1e-5)
        assert not np.array_equal(m, m.T)
        q = random_spd(dim, 0.5, 2.0, seed=dim + 1)
        start = time.perf_counter()
        try:
            x = solve_discrete_stein(m, q)
        except ResidualTooLargeError:
            pass
        else:
            tol = RESIDUAL_TOL * (1.0 + np.linalg.norm(q.entries, "fro"))
            assert stein_residual(m, q, x) <= tol
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "dim, radius",
        [(40, 1.0 - 1e-5), (128, 0.999), (8, -(1.0 - 1e-5)), (40, -(1.0 - 1e-5)),
         (32, 1.0 - 3e-7), (32, -(1.0 - 3e-7))],
    )
    def test_symmetric_map_near_unit_circle(self, dim, radius):
        # one eigenvalue of M at +-radius, the rest spread over (-|r|, |r|);
        # at 1 - 3e-7 the unrefined eigenbasis solve misses the contract 3x
        rng = make_rng(dim, 17)
        mu = np.concatenate([[radius], rng.uniform(-abs(radius), abs(radius), dim - 1)])
        m = symmetric_map(dim, mu, seed=dim)
        q = random_spd(dim, 0.5, 2.0, seed=dim + 1)
        start = time.perf_counter()
        x = solve_discrete_stein(m, q)
        elapsed = time.perf_counter() - start
        tol = RESIDUAL_TOL * (1.0 + np.linalg.norm(q.entries, "fro"))
        assert stein_residual(m, q, x) <= tol
        assert elapsed < 1.0

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
        # about eps * ||X||, which nears the 1e-10 budget as the gap falls
        # below 1e-6; there no float64 solve tried (this one, Kronecker,
        # scipy) meets it reliably, so the solve may pass or raise
        try:
            x = solve_discrete_stein(m, q)
        except ResidualTooLargeError:
            assert gap < 1e-6
            return
        tol = RESIDUAL_TOL * (1.0 + np.linalg.norm(q.entries, "fro"))
        assert stein_residual(m, q, x) <= tol
        if dim <= 8:
            # Kronecker oracle; its relative error grows as 1 / (1 - rho^2)
            oracle = kronecker_stein(m, q.entries)
            bound = 100 * dim * np.finfo(float).eps / gap
            assert np.linalg.norm(x.entries - oracle, "fro") <= bound * np.linalg.norm(
                oracle, "fro"
            )

    def test_matches_scipy(self):
        m = random_stable_map(6, seed=31, radius=0.9)
        q = random_symmetric(6, seed=32)
        ours = solve_discrete_stein(m, q).entries
        theirs = scipy.linalg.solve_discrete_lyapunov(m, q.entries)
        np.testing.assert_allclose(ours, theirs, rtol=1e-9, atol=1e-12)

    def test_unstable_map_rejected(self):
        with pytest.raises(SpectralRadiusTooLargeError):
            solve_discrete_stein(np.array([[1.0]]), SymmetricMatrix([[1.0]]))
        with pytest.raises(SpectralRadiusTooLargeError):
            solve_discrete_stein(1.5 * np.eye(3), SymmetricMatrix(np.eye(3)))


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


def test_cholesky_factor_reconstructs():
    m = random_spd(6, 0.2, 3.0, seed=12)
    factor = cholesky_factor(m)
    np.testing.assert_allclose(factor @ factor.T, m.entries, rtol=1e-12, atol=1e-14)


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
    strictness=st.sampled_from(["strict", "semidefinite"]),
)
def test_stacked_spd_test_matches_per_matrix_checks(count, dim, seed, low, strictness):
    stack = _spd_stack(count, dim, low, 2.0, seed)
    verdict = _spd_verdict(np.linalg.eigvalsh(stack), strictness)
    for index, entries in enumerate(stack):
        want = _failure(lambda: make_spd(entries, strictness))
        assert bool(verdict.bad[index]) == (want is not None)
        if want is not None:
            assert str(verdict.error(index)) == want
    assert _failure(verdict.check) == next(
        (m for m in (_failure(lambda: make_spd(e, strictness)) for e in stack) if m), None)


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
    x = _lyapunov_in_eigenbasis(a, lam, vecs, q)
    for index in range(count):
        want = solve_continuous_lyapunov(make_spd(a[index]), q if shared_rhs else q[index])
        np.testing.assert_array_max_ulp(x[index], want.entries, maxulp=4)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    count=st.integers(1, 6),
    dim=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    log_error=st.floats(-14.0, -6.0),
)
def test_stacked_residual_check_matches_per_matrix_checks(count, dim, seed, log_error):
    # errors around RESIDUAL_RTOL, so that some items fail and some pass
    target = _spd_stack(1, dim, 0.1, 2.0, seed)[0]
    noise = make_rng(seed, 1).standard_normal((count, dim, dim))
    achieved = target + 10.0**log_error * noise * make_rng(seed, 2).uniform(0, 100, (count, 1, 1))
    verdict = _residual_verdict(achieved, target, "test")
    for index in range(count):
        single = _residual_verdict(achieved[index], target, "test")
        assert bool(verdict.bad[index]) == bool(single.bad)
        if single.bad:
            assert str(verdict.error(index)) == str(single.error(0))


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
