"""Dense symmetric linear algebra for small matrices.

Validated symmetric/SPD value types, Cholesky-based determinants, the
continuous Lyapunov solver ``A X + X A = Q`` (stationary covariance of
the continuous-time noise model), the discrete Stein solver ``X = M X
M^T + Q`` for a symmetric M (exact stationary covariance of the linear
stochastic recursion), and seeded random SPD generation for tests.
Both solvers divide elementwise in an eigenbasis, of A or of M.

The private kernels shared with :mod:`oupac.regression` and
:func:`oupac.bounds.lemma2_survey` (the random SPD draw, the SPD checks,
the eigenbasis solve, the residual check) take arrays with leading stack
axes, one item per trailing matrix; a public function calls them on one
matrix.  :func:`_in_groups` states how a stack raises.

All values are immutable after construction and all functions are pure,
so everything here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidRangeError,
    InvalidSpecError,
    NotPositiveDefiniteError,
    NotSquareError,
    OupacError,
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

#: Most numbers one group of a stacked pipeline holds (8 MiB): the
#: feature matrices of a group of gap trials, or the two covariances of
#: a group of surveyed domain pairs.
GROUP_FLOATS = 1 << 20

#: Most numbers the records of one simulated chain may hold (1 GiB):
#: ``(steps // stride + 1) * d``.  A longer run is rejected before any
#: chain runs; at its peak a chain holds a second array of that size
#: (the rotation's temporary, or the trajectory's copy).
RECORD_FLOATS = 1 << 27


class Verdict(NamedTuple):
    """Outcome of a check on a stack: which items fail (``bad``, indexed
    in C order over the leading axes) and the error of failing item i."""

    bad: np.ndarray
    error: Callable[[int], OupacError]

    def check(self) -> None:
        """Raise the error of the first failing item, if any."""
        if np.count_nonzero(self.bad):
            raise self.error(int(np.flatnonzero(self.bad)[0]))

    def __or__(self, other: Verdict) -> Verdict:
        """Fails the items either check fails, with this check's error where both do."""
        return Verdict(self.bad | other.bad,
                       lambda i: self.error(i) if _item(self.bad, i) else other.error(i))


def _item(values, index: int):
    """Item ``index`` of a stack of values (or the value itself, unstacked)."""
    return np.ravel(values)[index]


def _in_groups(run: Callable[[Sequence], tuple], items: Sequence,
               floats_per_item: int) -> tuple[np.ndarray, ...]:
    """``run(group)`` on consecutive groups of ``items``, each of its result
    arrays (one leading entry per item) concatenated in item order.

    A group holds ``max(1, GROUP_FLOATS // floats_per_item)`` items, so
    memory does not grow with the item count.  The check policy of every
    stacked kernel is this: a kernel raises at its first failing check, as
    soon as any item of its stack fails it, and returns only its values.
    A group of more than one item that raises an :class:`OupacError` is
    run again one item at a time, in order, so the first item to fail
    raises its own error, which is what an item-by-item loop raises
    first, and if none fails the one-item results are kept.  Any other
    exception propagates at once.
    """
    per_group = max(1, GROUP_FLOATS // max(1, floats_per_item))
    parts = []
    for start in range(0, len(items), per_group):
        group = items[start:start + per_group]
        try:
            parts.append(run(group))
        except OupacError:
            if len(group) == 1:
                raise
            parts.extend(run(group[index:index + 1]) for index in range(len(group)))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _symmetrized(entries: np.ndarray) -> np.ndarray:
    return (entries + entries.swapaxes(-1, -2)) / 2.0


def _finite_symmetrized(entries: np.ndarray) -> tuple[np.ndarray, Verdict]:
    """``(M + M^T) / 2`` of each matrix of a stack ``(..., d, d)``, with no
    overflow warning, and the verdict that it is finite.  The error of a
    failing item names a non-finite entry of M, or else the overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        sym = _symmetrized(entries)
    return sym, Verdict(~np.isfinite(sym).all(axis=(-2, -1)), lambda i: (
        _overflow() if np.isfinite(entries.reshape(-1, *entries.shape[-2:])[i]).all()
        else _non_finite("matrix")))


def _as_square_array(entries, name: str = "matrix", finite: bool = True) -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotSquareError(f"{name} must be square, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise NotSquareError(f"{name} must have dimension >= 1")
    if finite and not np.all(np.isfinite(arr)):
        raise _non_finite(name)
    return arr


def _frozen_vector(values, name: str) -> np.ndarray:
    """A read-only float copy of ``values`` flattened to a vector; raises
    :class:`InvalidRangeError` if an entry is not finite."""
    vector = np.asarray(values, dtype=float).reshape(-1).copy()
    if not np.isfinite(vector).all():
        raise InvalidRangeError(f"{name} contains non-finite entries")
    vector.flags.writeable = False
    return vector


def _non_finite(name: str) -> NotSquareError:
    return NotSquareError(f"{name} contains non-finite entries")


def _overflow() -> NotSquareError:
    return NotSquareError("matrix symmetrization (M + M^T) / 2 overflows float64")


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """Dense real symmetric matrix.

    Construction symmetrizes the input as ``(M + M^T)/2`` and freezes
    the result, so ``entries[i, j] == entries[j, i]`` holds exactly.
    """

    entries: np.ndarray

    def __post_init__(self):
        sym, finite = _finite_symmetrized(_as_square_array(self.entries, finite=False))
        finite.check()
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
        if self.strictness not in ("strict", "semidefinite"):
            raise ValueError(f"unknown strictness {self.strictness!r}")
        _spd_verdict(np.linalg.eigvalsh(self.base.entries), self.strictness).check()

    @property
    def entries(self) -> np.ndarray:
        return self.base.entries

    @property
    def dim(self) -> int:
        return self.base.dim


def _spd_verdict(eigenvalues: np.ndarray, strictness: Strictness) -> Verdict:
    """The SPD eigenvalue test (see ``PSD_RTOL``) on ascending eigenvalues
    ``(..., d)`` of a stack of symmetric matrices."""
    smallest = eigenvalues[..., 0]
    tol = PSD_RTOL * np.maximum(np.abs(eigenvalues).max(axis=-1), 1.0)
    if strictness == "strict":  # not (x > tol), so that a NaN eigenvalue fails
        bad = ~(smallest > tol)
        text = "strictly positive definite: smallest eigenvalue {:.6g} <= tolerance {:.3g}"
    else:
        bad = ~(smallest > -tol)
        text = "positive semidefinite: smallest eigenvalue {:.6g} < -{:.3g}"

    def error(i: int) -> NotPositiveDefiniteError:
        value = float(_item(smallest, i))
        return NotPositiveDefiniteError("matrix is not " + text.format(value, _item(tol, i)),
                                        smallest_eigenvalue=value)

    return Verdict(bad, error)


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
        If the input is not a square matrix of finite reals, or if its
        symmetrization overflows.
    NotPositiveDefiniteError
        If the eigenvalue check fails (the exception carries the
        smallest eigenvalue found).
    """
    return SpdMatrix(SymmetricMatrix(entries), strictness)


def _make_spd_stack(entries: np.ndarray) -> np.ndarray:
    """:func:`make_spd` (strict) on each matrix of a stack ``(..., d, d)``: the
    symmetrized entries.  The first failing matrix raises, by its first
    failing check in make_spd's order (finite entries, a finite
    symmetrization, then the eigenvalue test)."""
    sym, finite = _finite_symmetrized(entries)
    (finite | _spd_verdict(np.linalg.eigvalsh(sym), "strict")).check()
    return sym


def cholesky_factor(m) -> np.ndarray:
    """Lower Cholesky factor L with ``L L^T = m``, of an :class:`SpdMatrix`
    or of each matrix of a stack ``(..., d, d)`` of strict SPD entries."""
    try:
        return np.linalg.cholesky(getattr(m, "entries", m))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"Cholesky factorization failed: {exc}"
        ) from exc


def log_det(m: SpdMatrix) -> float:
    """Natural-log determinant of a strict SPD matrix via Cholesky.

    ``log det(m) = 2 * sum(log diag(L))`` for the lower factor L.
    """
    return float(_log_det_of_factor(cholesky_factor(m)))


def _log_det_of_factor(factor: np.ndarray) -> np.ndarray:
    """``log det(L L^T) = 2 * sum(log diag(L))`` of each lower factor of a stack."""
    return 2.0 * np.sum(np.log(np.diagonal(factor, axis1=-2, axis2=-1)), axis=-1)


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
    return SymmetricMatrix(_lyapunov_in_eigenbasis(a.entries, lam, vecs, q_entries))


def _lyapunov_in_eigenbasis(a: np.ndarray, lam: np.ndarray, vecs: np.ndarray,
                            q: np.ndarray) -> np.ndarray:
    """Symmetric X with ``A X + X A = Q`` for each ``A = V diag(lam) V^T``
    of a stack; raises if a residual check fails."""
    x = _symmetrized(_solve_in_eigenbasis(vecs, q, lam[..., :, None] + lam[..., None, :]))
    _residual_verdict(a @ x + x @ a, q, "continuous Lyapunov").check()
    return x


def solve_discrete_stein(m, q: SymmetricMatrix) -> SymmetricMatrix:
    """Solve ``X = M X M^T + Q`` for the stationary covariance X.

    This is the exact stationary covariance of the linear recursion
    ``x' = M x + noise`` with per-step noise covariance Q; it exists
    when the spectral radius of M is below 1.  M (an array, a
    :class:`SymmetricMatrix` or an :class:`SpdMatrix`) must be exactly
    symmetric, as every SGD step map ``I - lr*A`` is: one
    eigendecomposition ``M = V diag(mu) V^T`` gives the spectral radius
    and the exact solution ``Xt[i, j] = Qt[i, j] / (1 - mu[i] mu[j])``
    with ``Qt = V^T Q V``, ``X = V Xt V^T``, refined once by the same
    solve for its residual.

    Raises
    ------
    InvalidSpecError
        If M is not exactly symmetric (checked before any decomposition).
    SpectralRadiusTooLargeError
        If the spectral radius of M is >= 1 (no stationary solution).
    ResidualTooLargeError
        If the residual check fails.
    """
    m_arr = (m.entries if isinstance(m, (SpdMatrix, SymmetricMatrix))
             else _as_square_array(m, "M"))
    q_entries = _symmetric_entries(q)
    _check_same_dim(m_arr, q_entries)
    if not np.array_equal(m_arr, m_arr.T):
        raise InvalidSpecError("the Stein solve needs an exactly symmetric M; "
                               "every SGD step map I - lr*A is one")
    mu, vecs = np.linalg.eigh(m_arr)
    _check_stationary(float(np.max(np.abs(mu))))
    denom = 1.0 - mu[:, None] * mu[None, :]
    x = _solve_in_eigenbasis(vecs, q_entries, denom)
    # the eigendecomposition's rounding leaves a residual near
    # eps * ||X|| ~ eps / (1 - rho^2) * ||Q||; solve for it once
    x = x + _solve_in_eigenbasis(vecs, q_entries - x + m_arr @ x @ m_arr.T, denom)
    solution = SymmetricMatrix(x)
    _residual_verdict(
        solution.entries - m_arr @ solution.entries @ m_arr.T,
        q_entries,
        "discrete Stein",
    ).check()
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
    return make_spd(_random_spd_entries(dim, eigenvalue_low, eigenvalue_high, [seed])[0])


def _random_spd_entries(dim: int, eigenvalue_low: float, eigenvalue_high: float,
                        seeds) -> np.ndarray:
    """The entries ``(len(seeds), dim, dim)`` that :func:`random_spd` checks
    with :func:`make_spd`, one per seed, from one QR and one product.  The
    range is checked before anything is drawn."""
    if not (0.0 < eigenvalue_low <= eigenvalue_high):
        raise InvalidRangeError(
            f"need 0 < eigenvalue_low <= eigenvalue_high, got "
            f"[{eigenvalue_low}, {eigenvalue_high}]"
        )
    if dim < 1:
        raise InvalidRangeError("dim must be >= 1")
    gauss = np.empty((len(seeds), dim, dim))
    eigenvalues = np.empty((len(seeds), 1, dim))
    for index, seed in enumerate(seeds):
        rng = make_rng(seed)  # each seed's own stream: its normals, then its uniforms
        rng.standard_normal(out=gauss[index])
        eigenvalues[index, 0] = rng.uniform(eigenvalue_low, eigenvalue_high, size=dim)
    q_fac, r_fac = np.linalg.qr(gauss)
    signs = np.sign(np.diagonal(r_fac, axis1=-2, axis2=-1))[:, None, :]
    del gauss, r_fac  # the stacks are the memory of a group: hold as few as needed
    signs[signs == 0] = 1.0
    q_fac *= signs  # Haar measure needs the R-sign correction
    return (q_fac * eigenvalues) @ q_fac.swapaxes(-1, -2)


def _solve_in_eigenbasis(vecs: np.ndarray, rhs: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """``V ((V^T R V) / denom) V^T``: divide elementwise in the basis V
    (leading stack axes broadcast)."""
    vecs_t = vecs.swapaxes(-1, -2)
    return vecs @ ((vecs_t @ rhs @ vecs) / denom) @ vecs_t


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


def _frobenius(entries: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, by one dot product each."""
    flat = entries.reshape(*entries.shape[:-2], 1, -1)
    return np.sqrt(flat @ flat.swapaxes(-1, -2))[..., 0, 0]


def _residual_verdict(achieved: np.ndarray, target: np.ndarray, label: str) -> Verdict:
    """``||achieved - target||_F <= RESIDUAL_RTOL * (1 + ||target||_F)`` for
    each matrix of a stack (the target may be one matrix for all)."""
    residual = _frobenius(achieved - target)
    tol = RESIDUAL_RTOL * (1.0 + _frobenius(target))
    return Verdict(~(residual <= tol), lambda i: ResidualTooLargeError(
        f"{label} solve residual {_item(residual, i):.3g} exceeds tolerance "
        f"{_item(np.broadcast_to(tol, residual.shape), i):.3g}"
    ))
