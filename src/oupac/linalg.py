"""Dense symmetric linear algebra for small matrices.

Validated symmetric/SPD value types, Cholesky-based determinants and
inverses, the continuous Lyapunov solver ``A X + X A = Q`` (stationary
covariance of the continuous-time noise model), the discrete Stein
solver ``X = M X M^T + Q`` (exact stationary covariance of the linear
stochastic recursion), and seeded random SPD generation for tests.
Both solvers divide elementwise in an eigenbasis, of A or of a
symmetric M; a non-symmetric M goes to scipy's Stein solver.

All values are immutable after construction and all functions are pure,
so everything here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidRangeError,
    NotPositiveDefiniteError,
    NotSquareError,
    ResidualTooLargeError,
    SpectralRadiusTooLargeError,
)
from .rng import make_rng

Strictness = Literal["strict", "semidefinite"]

#: Relative eigenvalue tolerance for the SPD check: a matrix is accepted
#: as strict (semidefinite) when every eigenvalue exceeds +tol (-tol)
#: with tol = PSD_RTOL * max(largest |eigenvalue|, 1).
PSD_RTOL = 1e-10

#: Relative Frobenius tolerance for solver residuals:
#: ||residual||_F <= RESIDUAL_RTOL * (1 + ||Q||_F).
RESIDUAL_RTOL = 1e-10


def _as_square_array(entries, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotSquareError(f"{name} must be square, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise NotSquareError(f"{name} must have dimension >= 1")
    if not np.all(np.isfinite(arr)):
        raise NotSquareError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """Dense real symmetric matrix.

    Construction symmetrizes the input as ``(M + M^T)/2`` and freezes
    the result, so ``entries[i, j] == entries[j, i]`` holds exactly.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _as_square_array(self.entries)
        sym = (arr + arr.T) / 2.0
        sym.flags.writeable = False
        object.__setattr__(self, "entries", sym)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """Symmetric (semi-)positive-definite matrix.

    ``strictness`` records which eigenvalue check the matrix passed at
    construction: ``"strict"`` requires every eigenvalue above the
    relative tolerance, ``"semidefinite"`` allows eigenvalues down to
    minus that tolerance.  Cholesky factorization is guaranteed to
    succeed for strict instances.
    """

    base: SymmetricMatrix
    strictness: Strictness = "strict"

    def __post_init__(self):
        eigvals = np.linalg.eigvalsh(self.base.entries)
        smallest = float(eigvals[0])
        tol = PSD_RTOL * max(float(np.max(np.abs(eigvals))), 1.0)
        if self.strictness == "strict":
            if smallest <= tol:
                raise NotPositiveDefiniteError(
                    f"matrix is not strictly positive definite: smallest "
                    f"eigenvalue {smallest:.6g} <= tolerance {tol:.3g}",
                    smallest_eigenvalue=smallest,
                )
        elif self.strictness == "semidefinite":
            if smallest <= -tol:
                raise NotPositiveDefiniteError(
                    f"matrix is not positive semidefinite: smallest "
                    f"eigenvalue {smallest:.6g} < -{tol:.3g}",
                    smallest_eigenvalue=smallest,
                )
        else:
            raise ValueError(f"unknown strictness {self.strictness!r}")

    @property
    def entries(self) -> np.ndarray:
        return self.base.entries

    @property
    def dim(self) -> int:
        return self.base.dim


def make_spd(entries, strictness: Strictness = "strict") -> SpdMatrix:
    """Build a validated :class:`SpdMatrix` from a square array.

    Parameters
    ----------
    entries : array_like, shape (d, d)
        Square matrix of finite reals; symmetrized on construction.
    strictness : {"strict", "semidefinite"}
        Eigenvalue check to apply.

    Raises
    ------
    NotSquareError
        If the input is not a square matrix of finite reals.
    NotPositiveDefiniteError
        If the eigenvalue check fails (the exception carries the
        smallest eigenvalue found).
    """
    return SpdMatrix(SymmetricMatrix(entries), strictness)


def cholesky_factor(m: SpdMatrix) -> np.ndarray:
    """Lower Cholesky factor L with ``L L^T = m``."""
    try:
        return np.linalg.cholesky(m.entries)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"Cholesky factorization failed: {exc}"
        ) from exc


def log_det(m: SpdMatrix) -> float:
    """Natural-log determinant of a strict SPD matrix via Cholesky.

    ``log det(m) = 2 * sum(log diag(L))`` for the lower factor L.
    """
    factor = cholesky_factor(m)
    return 2.0 * float(np.sum(np.log(np.diag(factor))))


def inverse(m: SpdMatrix) -> SpdMatrix:
    """Cholesky-based inverse of a strict SPD matrix."""
    factor = cholesky_factor(m)
    identity = np.eye(m.dim)
    # L L^T X = I solved by two triangular solves
    half = np.linalg.solve(factor, identity)
    inv = np.linalg.solve(factor.T, half)
    return make_spd(inv, strictness=m.strictness)


def solve_continuous_lyapunov(a: SpdMatrix, q: SymmetricMatrix) -> SymmetricMatrix:
    """Solve ``A X + X A = Q`` for symmetric X with A strict SPD.

    Solved in the eigenbasis of A: with ``A = V diag(lam) V^T`` and
    ``Qt = V^T Q V``, the solution is ``Xt[i, j] = Qt[i, j] /
    (lam[i] + lam[j])``, mapped back as ``X = V Xt V^T``.  Strict
    positive definiteness of A makes every denominator positive, so the
    solution exists and is unique.

    Parameters
    ----------
    a : SpdMatrix
        Strict SPD coefficient matrix.
    q : SymmetricMatrix
        Right-hand side; an :class:`SpdMatrix` is accepted as well.

    Returns
    -------
    SymmetricMatrix
        Solution with ``||A X + X A - Q||_F <= 1e-10 * (1 + ||Q||_F)``.

    Raises
    ------
    NotPositiveDefiniteError
        If ``a`` was constructed with semidefinite strictness.
    DimensionMismatchError
        If dimensions disagree.
    ResidualTooLargeError
        If the residual check fails (signals numerical breakdown).
    """
    if a.strictness != "strict":
        raise NotPositiveDefiniteError(
            "continuous Lyapunov solve requires a strictly positive definite "
            "coefficient matrix"
        )
    q_entries = _symmetric_entries(q)
    _check_same_dim(a.entries, q_entries)
    lam, vecs = np.linalg.eigh(a.entries)
    solution = SymmetricMatrix(
        _solve_in_eigenbasis(vecs, q_entries, lam[:, None] + lam[None, :])
    )
    _check_residual(
        a.entries @ solution.entries + solution.entries @ a.entries,
        q_entries,
        "continuous Lyapunov",
    )
    return solution


def spectral_radius(m) -> float:
    """Largest |eigenvalue| of a square (not necessarily symmetric) matrix."""
    arr = _as_square_array(m)
    return float(np.max(np.abs(np.linalg.eigvals(arr))))


def solve_discrete_stein(m, q: SymmetricMatrix) -> SymmetricMatrix:
    """Solve ``X = M X M^T + Q`` for the stationary covariance X.

    This is the exact stationary covariance of the linear recursion
    ``x' = M x + noise`` with per-step noise covariance Q; it exists
    when the spectral radius of M is below 1.  For a symmetric M (as
    every SGD step map ``I - lr*A`` is), one eigendecomposition ``M = V
    diag(mu) V^T`` gives the spectral radius and the exact solution
    ``Xt[i, j] = Qt[i, j] / (1 - mu[i] mu[j])`` with ``Qt = V^T Q V``,
    ``X = V Xt V^T``, refined once by the same solve for its residual.
    Any other M goes to :func:`scipy.linalg.solve_discrete_lyapunov`,
    which near the unit circle (e.g. d = 32, radius 1 - 1e-5) can miss
    the residual contract; the solve then raises, in milliseconds.

    Raises
    ------
    SpectralRadiusTooLargeError
        If ``spectral_radius(m) >= 1`` (no stationary solution).
    ResidualTooLargeError
        If the residual check fails.
    """
    m_arr = _as_square_array(m, "M")
    q_entries = _symmetric_entries(q)
    _check_same_dim(m_arr, q_entries)
    if np.array_equal(m_arr, m_arr.T):
        mu, vecs = np.linalg.eigh(m_arr)
        _check_stationary(float(np.max(np.abs(mu))))
        denom = 1.0 - mu[:, None] * mu[None, :]
        x = _solve_in_eigenbasis(vecs, q_entries, denom)
        # the eigendecomposition's rounding leaves a residual near
        # eps * ||X|| ~ eps / (1 - rho^2) * ||Q||; solve for it once
        x = x + _solve_in_eigenbasis(vecs, q_entries - x + m_arr @ x @ m_arr.T, denom)
        solution = SymmetricMatrix(x)
    else:
        from scipy.linalg import solve_discrete_lyapunov  # slow to import; only used here
        _check_stationary(spectral_radius(m_arr))
        solution = SymmetricMatrix(solve_discrete_lyapunov(m_arr, q_entries))
    _check_residual(
        solution.entries - m_arr @ solution.entries @ m_arr.T,
        q_entries,
        "discrete Stein",
    )
    return solution


def random_spd(
    dim: int,
    eigenvalue_low: float,
    eigenvalue_high: float,
    seed: int,
) -> SpdMatrix:
    """Seeded random SPD matrix with eigenvalues in a given interval.

    Draws eigenvalues uniformly from ``[eigenvalue_low,
    eigenvalue_high]`` and conjugates by a Haar-random orthogonal
    matrix.  Deterministic for a fixed seed.
    """
    if not (0.0 < eigenvalue_low <= eigenvalue_high):
        raise InvalidRangeError(
            f"need 0 < eigenvalue_low <= eigenvalue_high, got "
            f"[{eigenvalue_low}, {eigenvalue_high}]"
        )
    if dim < 1:
        raise InvalidRangeError("dim must be >= 1")
    rng = make_rng(seed)
    gauss = rng.standard_normal((dim, dim))
    q_fac, r_fac = np.linalg.qr(gauss)
    signs = np.sign(np.diag(r_fac))
    signs[signs == 0] = 1.0
    q_fac = q_fac * signs  # Haar measure needs the R-sign correction
    eigenvalues = rng.uniform(eigenvalue_low, eigenvalue_high, size=dim)
    entries = (q_fac * eigenvalues) @ q_fac.T
    return make_spd(entries)


def _solve_in_eigenbasis(vecs: np.ndarray, rhs: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """``V ((V^T R V) / denom) V^T``: divide elementwise in the basis V."""
    return vecs @ ((vecs.T @ rhs @ vecs) / denom) @ vecs.T


def _symmetric_entries(q) -> np.ndarray:
    if isinstance(q, (SpdMatrix, SymmetricMatrix)):
        return q.entries
    return SymmetricMatrix(q).entries


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"operand shapes disagree: {a.shape} vs {b.shape}"
        )


def _check_stationary(rho: float) -> None:
    if rho >= 1.0:
        raise SpectralRadiusTooLargeError(
            f"spectral radius {rho:.6g} >= 1: the recursion has no "
            f"stationary covariance"
        )


def _check_residual(achieved: np.ndarray, target: np.ndarray, label: str) -> None:
    residual = np.linalg.norm(achieved - target, "fro")
    tol = RESIDUAL_RTOL * (1.0 + np.linalg.norm(target, "fro"))
    if residual > tol:
        raise ResidualTooLargeError(
            f"{label} solve residual {residual:.3g} exceeds tolerance {tol:.3g}"
        )
