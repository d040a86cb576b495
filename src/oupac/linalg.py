"""Dense symmetric linear algebra for small matrices.

Validated symmetric/SPD value types, Cholesky-based determinants, the
continuous Lyapunov solver ``A X + X A = Q`` (stationary covariance of
the continuous-time noise model), the discrete Stein solver ``X = M X
M^T + Q`` for a symmetric M (exact stationary covariance of the linear
stochastic recursion), and seeded random SPD generation for tests.
Both solvers divide elementwise in an eigenbasis, of A or of M.

A public solve costs its decompositions and little else.
:func:`solve_discrete_stein` makes one ``eigh`` of M and six d x d
products: two into the eigenbasis, two back, and ``M X M^T`` for the
residual.  :func:`solve_continuous_lyapunov` reads the SPD value's kept
``eigh`` (made at its first use) and makes six products: the same four,
and ``A X`` and ``X A`` for the residual.  Each symmetrizes its solution
once and judges it by one backward-error check, which for one matrix runs
on Python floats.

The private kernels shared with :mod:`oupac.regression` and
:func:`oupac.bounds.lemma2_survey` (the random SPD draw, the SPD checks,
the eigenbasis solve, the backward-error check) take arrays with leading stack
axes, one item per trailing matrix; a public function calls them on one
matrix.  :func:`_in_groups` states how a stack raises.

An :class:`SpdMatrix` is a :class:`SymmetricMatrix` that passed the
strict eigenvalue check; every covariance a Gaussian or a bound reads is
one.  It owns its decompositions, each computed once, at first use, at
the OpenBLAS thread count in force then; :func:`cholesky_factor` and
:func:`log_det` read them.  A stack of raw entries is factored at each
call and nothing of it is kept.

All values are immutable after construction (an SPD value's kept
decompositions never change once made) and all functions are pure, so
everything here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (DimensionMismatchError, InvalidRangeError, InvalidSpecError,
                     NotPositiveDefiniteError, NotSquareError, OupacError, ResidualTooLargeError,
                     SpectralRadiusTooLargeError, _integer, _real, _shown, _typed)
from .rng import make_rng

#: Relative eigenvalue tolerance for the SPD check: a matrix is accepted
#: when every eigenvalue exceeds tol = PSD_RTOL * (largest |eigenvalue|),
#: so that the check, like the matrix's condition, has no unit.
PSD_RTOL = 1e-10

#: Backward-error bound of every solve, in units of d * eps: a solution X
#: of a d x d equation with residual R passes when its normwise backward
#: error eta = ||R||_F / (w ||X||_F + ||Q||_F) is at most
#: BACKWARD_UNITS * d * eps, where w ||X||_F bounds the norm of the
#: equation's operator applied to X (Higham, "Accuracy and Stability of
#: Numerical Algorithms", ch. 16): w = 2 ||A||_2 + lr ||A||_2^2 for ``A X +
#: X A - lr A X A = Q`` and w = 1 + rho^2 for ``X - M X M^T = Q``.  An eta
#: within it makes X the exact solution of an equation within a few
#: roundings of the one posed, at every scale of A, X and Q.
BACKWARD_UNITS = 16.0

#: Most numbers one group of a stacked pipeline holds (8 MiB): the
#: feature matrices of a group of gap trials, or the two covariances of
#: a group of surveyed domain pairs.
GROUP_FLOATS = 1 << 20

#: Most numbers one array sized by an option may hold (1 GiB): a chain's
#: records, a Monte-Carlo KL's draws, one gap trial's design, one surveyed
#: pair's covariances.  :func:`_check_held` rejects a larger size before
#: anything is drawn; a run holds a few such arrays.
RECORD_FLOATS = 1 << 27

_TINY = np.finfo(float).tiny
_HALF_MAX = float(np.finfo(float).max) / 2.0
_EPS = float(np.finfo(float).eps)  # a Python float: an overflow gives inf, no warning


def _check_held(what: str, floats: int, dim: int, *numbers: int) -> None:
    """Raise :class:`InvalidRangeError` if ``what``, an array of ``floats``
    numbers at dimension ``dim``, would exceed ``RECORD_FLOATS``.  ``what``
    has a ``{}`` field for each of ``numbers``; they, ``floats`` and ``dim``
    print through :func:`oupac.errors._shown`, so that an int too long to
    print is named by its bit length."""
    if floats > RECORD_FLOATS:
        raise InvalidRangeError(
            f"{what.format(*map(_shown, numbers))} {_shown(floats)} floats "
            f"({_shown(8 * floats)} bytes) at dimension {_shown(dim)}; at most "
            f"{RECORD_FLOATS} ({8 * RECORD_FLOATS} bytes) are held"
        )


class Verdict(NamedTuple):
    """Outcome of a check on a stack: which items fail (``bad``, indexed
    in C order over the leading axes) and the error of failing item i."""

    bad: np.ndarray
    error: Callable[[int], OupacError]

    def check(self) -> None:
        """Raise the error of the first failing item, if any."""
        # the verdict of one matrix is a scalar, read as it is
        if np.count_nonzero(self.bad) if isinstance(self.bad, np.ndarray) else self.bad:
            raise self.error(int(np.flatnonzero(self.bad)[0]))

    def __or__(self, other: Verdict) -> Verdict:
        """Fails the items either check fails, with this check's error where both do."""
        return Verdict(self.bad | other.bad,
                       lambda i: self.error(i) if _item(self.bad, i) else other.error(i))


def _item(values, index: int):
    """Item ``index`` of a stack of values (or the value itself, unstacked)."""
    return np.ravel(values)[index]


def _in_groups(run: Callable[[Sequence], tuple], items: Sequence,
               floats_per_item: int | list[tuple[int, int]]) -> tuple[np.ndarray, ...]:
    """``run(group)`` on consecutive groups of ``items``, each of its result
    arrays (one leading entry per item) concatenated in item order.

    ``floats_per_item`` is the count of numbers an item holds: one int for
    every item, or a list of ``(count, floats)`` runs that cover the items
    in order.  A group takes items while they hold at most ``GROUP_FLOATS``
    numbers in all, and at least one item (an item of no numbers counts as
    one), so memory does not grow with the item count.  The check policy
    of every stacked kernel is this: a kernel raises at its first failing
    check, as soon as any item of its stack fails it, and returns only its
    values.
    A group of more than one item that raises an :class:`OupacError` is
    run again one item at a time, in order, so the first item to fail
    raises its own error, which is what an item-by-item loop raises
    first, and if none fails the one-item results are kept.  Any other
    exception propagates at once.
    """
    if not isinstance(floats_per_item, list):
        floats_per_item = [(len(items), floats_per_item)]
    parts = []
    for start, stop in _group_bounds(floats_per_item):
        group = items[start:stop]
        try:
            parts.append(run(group))
        except OupacError:
            if len(group) == 1:
                raise
            parts.extend(run(group[index:index + 1]) for index in range(len(group)))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _group_bounds(runs: list[tuple[int, int]]):
    """The ``(start, stop)`` item bounds of each group of :func:`_in_groups`
    over items of ``(count, floats)`` runs, by arithmetic on each run."""
    start = stop = held = 0
    for count, floats in runs:
        floats, end = max(1, floats), stop + count
        while stop < end:
            fits = min((GROUP_FLOATS - held) // floats, end - stop)
            if fits <= 0 and stop > start:  # the group is full
                yield start, stop
                start, held = stop, 0
                continue
            fits = max(fits, 1)
            stop, held = stop + fits, held + fits * floats
    if stop > start:
        yield start, stop


def _symmetrized(entries: np.ndarray) -> np.ndarray:
    """``(M + M^T) / 2`` of each matrix of a stack ``(..., d, d)``, formed as
    ``M/2 + M^T/2`` so that it is finite wherever M is.  Halving is exact
    above the subnormal range, so this has the bits of the plain sum except
    where an entry below about 2^-1021 loses its last bit."""
    half = entries * 0.5  # the bits of entries / 2
    return half + half.swapaxes(-1, -2)


def _as_square_array(entries, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotSquareError(f"{name} must be square, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise NotSquareError(f"{name} must have dimension >= 1")
    if not _all_finite(arr):
        raise _non_finite(name)
    return arr


def _all_finite(entries: np.ndarray) -> bool:
    """Whether every entry is finite.  Their sum of squares, one dot product,
    is finite only then; only where it is not (or where it overflows, from
    entries of about 1e154) are the entries tested one by one."""
    return math.isfinite(np.vdot(entries, entries)) or bool(np.isfinite(entries).all())


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _frozen_vector(values, name: str) -> np.ndarray:
    """A read-only float copy of ``values`` flattened to a vector; raises
    :class:`InvalidRangeError` if an entry is not finite."""
    vector = np.asarray(values, dtype=float).reshape(-1).copy()
    if not np.isfinite(vector).all():
        raise InvalidRangeError(f"{name} contains non-finite entries")
    return _read_only(vector)


def _non_finite(name: str) -> NotSquareError:
    return NotSquareError(f"{name} contains non-finite entries")


def _finite_verdict(entries: np.ndarray) -> Verdict:
    """The verdict that each matrix of a stack ``(..., d, d)`` is finite."""
    return Verdict(~np.isfinite(entries).all(axis=(-2, -1)), lambda i: _non_finite("matrix"))


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """Dense real symmetric matrix.

    Construction symmetrizes the input as ``M/2 + M^T/2``, which does not
    overflow, and freezes the result, so ``entries[i, j] == entries[j, i]``
    holds exactly.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if not (entries.ndim == 2 and 0 < len(entries) == entries.shape[1]
                and _all_finite(entries)):
            _as_square_array(entries)  # raises the error of the first check that fails
        object.__setattr__(self, "entries", _read_only(_symmetrized(entries)))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class SpdMatrix(SymmetricMatrix):
    """Symmetric strictly positive-definite matrix: every eigenvalue
    exceeds the relative tolerance ``PSD_RTOL``, so Cholesky
    factorization succeeds.

    ``eigenvalues`` are the ascending ``eigvalsh`` eigenvalues that the
    check read; ``factor`` (lower Cholesky), ``log_det`` and ``eigh``
    (eigenvalues and eigenvectors as columns) are made at first use and
    kept (module docstring).  Every array is read-only.
    """

    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        eigenvalues = np.linalg.eigvalsh(self.entries)
        _spd_verdict(eigenvalues).check()
        object.__setattr__(self, "eigenvalues", _read_only(eigenvalues))

    @cached_property
    def factor(self) -> np.ndarray:
        return _read_only(_lower_factor(self.entries))

    @cached_property
    def log_det(self) -> float:
        return float(_log_det_of_factor(self.factor))

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        values, vectors = np.linalg.eigh(self.entries)
        return _read_only(values), _read_only(vectors)


def _kept_symmetric(entries: np.ndarray) -> SymmetricMatrix:
    """A :class:`SymmetricMatrix` of ``entries``, which a solve has already
    symmetrized and checked, frozen as they are: no second halving."""
    value = object.__new__(SymmetricMatrix)
    object.__setattr__(value, "entries", _read_only(entries))
    return value


def _spd_verdict(eigenvalues: np.ndarray) -> Verdict:
    """The SPD eigenvalue test (see ``PSD_RTOL``) on ascending eigenvalues
    ``(..., d)`` of a stack of symmetric matrices.  :func:`_spectrum_passes`
    decides the same test from a drawn spectrum; a change to one is a
    change to both."""
    smallest = eigenvalues[..., 0]
    tol = PSD_RTOL * np.abs(eigenvalues).max(axis=-1)

    def error(i: int) -> NotPositiveDefiniteError:
        value = float(_item(smallest, i))
        return NotPositiveDefiniteError(
            f"matrix is not strictly positive definite: smallest eigenvalue {value:.6g} "
            f"<= tolerance {_item(tol, i):.3g}", smallest_eigenvalue=value)

    return Verdict(~(smallest > tol), error)  # not (x > tol), so that a NaN eigenvalue fails


def make_spd(entries) -> SpdMatrix:
    """Build a validated :class:`SpdMatrix` from a square array.

    Parameters
    ----------
    entries : array_like, shape (d, d)
        Square matrix of finite reals; symmetrized on construction.

    Raises
    ------
    NotSquareError
        If the input is not a square matrix of finite reals.
    NotPositiveDefiniteError
        If the eigenvalue check fails (the exception carries the
        smallest eigenvalue found).
    """
    return SpdMatrix(entries)


def _make_spd_stack(entries: np.ndarray) -> np.ndarray:
    """:func:`make_spd` on each matrix of a stack ``(..., d, d)``: the
    symmetrized entries.  The first failing matrix raises, by its first
    failing check in make_spd's order (finite entries, then the eigenvalue
    test)."""
    sym = _symmetrized(entries)
    (_finite_verdict(sym) | _spd_verdict(np.linalg.eigvalsh(sym))).check()
    return sym


def cholesky_factor(m) -> np.ndarray:
    """Lower Cholesky factor L with ``L L^T = m``, of an :class:`SpdMatrix`
    (its kept, read-only factor) or of each matrix of a stack ``(..., d,
    d)`` of strict SPD entries."""
    return m.factor if isinstance(m, SpdMatrix) else _lower_factor(getattr(m, "entries", m))


def _lower_factor(entries: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(entries)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"Cholesky factorization failed: {exc}"
        ) from exc


def log_det(m: SpdMatrix) -> float:
    """Natural-log determinant of a strict SPD matrix via Cholesky.

    ``log det(m) = 2 * sum(log diag(L))`` for the lower factor L, kept by
    ``m`` like L.
    """
    return _typed(m, SpdMatrix, "m").log_det


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
        Right-hand side.

    Returns
    -------
    SymmetricMatrix
        Solution whose residual R has the normwise backward error
        ``||R||_F / (2 ||A||_2 ||X||_F + ||Q||_F) <= 16 d eps`` (see
        ``BACKWARD_UNITS``).

    Raises
    ------
    DimensionMismatchError
        If dimensions disagree.
    ResidualTooLargeError
        If the backward-error check fails (signals numerical breakdown).
    """
    _typed(a, SpdMatrix, "a")
    q_entries = _symmetric_entries(q)
    _check_same_dim(a.entries, q_entries)
    return _kept_symmetric(_lyapunov_in_eigenbasis(a.entries, *a.eigh, q_entries)[0])


@np.errstate(over="ignore", invalid="ignore")  # an overflow fails a check instead
def _lyapunov_in_eigenbasis(a: np.ndarray, lam: np.ndarray, vecs: np.ndarray,
                            q: np.ndarray, lr: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """``(X, Xt)``: the symmetric X with ``A X + X A - lr A X A = Q`` for each
    ``A = V diag(lam) V^T`` of a stack (the Lyapunov law at lr = 0, else the SGD
    chain's Stein law divided by lr), and the law in the eigenbasis, ``Xt =
    (V^T Q V) / denom``, whose discs :func:`_check_spd_by_discs` reads.  A
    denominator, summed from positive terms as ``lam_i h_j + h_i lam_j``, ``h =
    1 - lr lam / 2`` (``lam_i + lam_j``, its bits, at lr = 0), is not positive
    exactly where ``lr * lam_max >= 2``, which raises; so does a failing
    backward-error check, with ``||A||_2 = lam_max``.  X is symmetrized once,
    and only a finite X passes: an entry ``X_kj`` that is not finite makes
    ``(A X)_kj`` not finite, since ``A_kk > 0``."""
    top = lam[..., -1]
    half = 1.0 - 0.5 * lr * lam if lr else None
    rhs = q
    if top.max() > _HALF_MAX:  # a denominator could overflow: halve both sides
        lam, rhs = lam / 2.0, q / 2.0
    if lr:
        denom = lam[..., :, None] * half[..., None, :] + half[..., :, None] * lam[..., None, :]
    else:
        denom = lam[..., :, None] + lam[..., None, :]
    positive = denom > 0.0
    positive = positive.all() if positive.ndim == 2 else positive.all(axis=(-2, -1))
    Verdict(~positive, lambda i: SpectralRadiusTooLargeError(
        f"lr * lambda_max = {lr * float(_item(top, i)):.6g} >= 2: the step map "
        f"I - lr*A has spectral radius >= 1 and the chain no stationary covariance")).check()
    x, xt = _solve_in_eigenbasis(vecs, rhs, denom)
    x = _symmetrized(x)
    residual = a @ x
    residual += x @ a
    if lr:
        residual -= (lr * a) @ x @ a
    residual -= q
    _backward_verdict(residual, x, q, top, 2.0 + lr * top,
                      "SGD chain Stein" if lr else "continuous Lyapunov").check()
    return x, xt


def solve_discrete_stein(m, q: SymmetricMatrix) -> SymmetricMatrix:
    """Solve ``X = M X M^T + Q`` for the stationary covariance X.

    This is the exact stationary covariance of the linear recursion
    ``x' = M x + noise`` with per-step noise covariance Q; it exists
    when the spectral radius of M is below 1.  M (an array or a
    :class:`SymmetricMatrix`) must be exactly symmetric, as every SGD
    step map ``I - lr*A`` is: one eigendecomposition
    ``M = V diag(mu) V^T`` gives the spectral radius
    and the exact solution ``Xt[i, j] = Qt[i, j] / (1 - mu[i] mu[j])``
    with ``Qt = V^T Q V``, ``X = V Xt V^T``.  Its residual R passes when
    the normwise backward error ``||R||_F / ((1 + rho^2) ||X||_F +
    ||Q||_F)`` is at most 16 d eps (see ``BACKWARD_UNITS``).

    Raises
    ------
    InvalidSpecError
        If M is not exactly symmetric (checked before any decomposition).
    SpectralRadiusTooLargeError
        If the spectral radius of M is >= 1 (no stationary solution).
    ResidualTooLargeError
        If the backward-error check fails.
    """
    m_arr = m.entries if isinstance(m, SymmetricMatrix) else _as_square_array(m, "M")
    q_entries = _symmetric_entries(q)
    _check_same_dim(m_arr, q_entries)
    if np.count_nonzero(m_arr != m_arr.T):
        raise InvalidSpecError("the Stein solve needs an exactly symmetric M; "
                               "every SGD step map I - lr*A is one")
    mu, vecs = np.linalg.eigh(m_arr)
    rho = max(abs(float(mu[-1])), abs(float(mu[0])))  # mu ascends
    if rho >= 1.0:
        raise SpectralRadiusTooLargeError(
            f"spectral radius {rho:.6g} >= 1: the recursion has no stationary covariance")
    denom = np.multiply.outer(mu, mu)
    np.subtract(1.0, denom, out=denom)
    solution = SymmetricMatrix(_solve_in_eigenbasis(vecs, q_entries, denom)[0])
    x = solution.entries
    residual = m_arr @ x @ m_arr.T
    np.subtract(x, residual, out=residual)
    residual -= q_entries
    _backward_verdict(residual, x, q_entries, 1.0, 1.0 + rho * rho, "discrete Stein").check()
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
    return make_spd(_random_spd_entries(dim, eigenvalue_low, eigenvalue_high,
                                        [make_rng(seed)])[0])


def _random_spd_stack(dim: int, eigenvalue_low: float, eigenvalue_high: float,
                      streams) -> np.ndarray:
    """:func:`_make_spd_stack` of :func:`_random_spd_entries`: the checked
    entries of :func:`random_spd` for each of ``streams``, with the same
    error from the same first failing matrix.  Where the drawn spectrum
    decides the eigenvalue test (:func:`_spectrum_passes`), only the finite
    checks run, and no ``eigvalsh``."""
    low, high = _eigenvalue_range(eigenvalue_low, eigenvalue_high)
    entries = _random_spd_entries(dim, low, high, streams)
    if not _spectrum_passes(entries.shape[-1], low, high):
        return _make_spd_stack(entries)
    sym = _symmetrized(entries)
    _finite_verdict(sym).check()
    return sym


def _spectrum_passes(dim: int, low: float | np.ndarray,
                     high: float | np.ndarray) -> bool | np.ndarray:
    """Whether every finite matrix that :func:`_random_spd_entries` draws at
    dimension ``dim`` with eigenvalues in ``[low, high]`` passes the strict
    SPD test on its ``eigvalsh`` eigenvalues: whether ``low - slack >
    PSD_RTOL * (high + slack)``, ``slack = 16 d^2 eps high``.  ``low`` and
    ``high`` may be arrays of one range per matrix of a stack; a NaN or
    infinite bound fails.

    The computed eigenvalues of ``fl(Q diag(lam) Q^T)``, symmetrized, lie
    within ``slack`` of ``[low, high]``: the two products round each entry
    by at most about ``d eps`` times the entries of ``|Q| diag(lam) |Q|^T``,
    whose norm is at most ``d high``, which moves an eigenvalue by at most
    about ``d^2 eps high``; the QR's Q, orthogonal to about ``d eps``, and
    ``eigvalsh``'s own backward error each add a small multiple of ``d eps
    high``.  The factor 16 covers these constants with room.  Only a range
    whose ratio ``low / high`` is within rounding of ``PSD_RTOL`` fails this
    test; its matrices take the ``eigvalsh`` check of :func:`_make_spd_stack`.

    The same test decides two more ranges.  One is the eigenvalues that
    ``eigh`` returns for a matrix: they and ``eigvalsh``'s are each within a
    small multiple of ``d eps`` times the matrix's norm of its exact
    spectrum.  The other is the Gershgorin discs of the eigenbasis law ``Xt
    = (V^T Q V) / denom`` of :func:`_lyapunov_in_eigenbasis`, read by
    :func:`_check_spd_by_discs`: the exact eigenvalues of ``(Xt + Xt^T) /
    2`` lie in the union of its discs, ``[low, high]`` with ``low =
    min(Xt_ii - r_i)`` and ``high = max(Xt_ii + r_i)`` (Golub and Van Loan,
    "Matrix Computations", 4th ed., 7.2.1), and X is ``V Xt V^T``,
    symmetrized, with V orthogonal to about ``d eps``.  Where the test
    passes, ``low > 0``, so every row sum of ``|Xt|`` is at most ``high``
    and the two products round X by at most about ``d eps`` times the
    entries of ``|V| |Xt| |V|^T``, whose norm is at most ``d high``: the
    same ``d^2 eps high`` as for a drawn spectrum."""
    slack = 16.0 * dim * dim * _EPS * high
    return low - slack > PSD_RTOL * (high + slack)


@np.errstate(over="ignore", invalid="ignore")  # an overflowed disc decides nothing
def _check_spd_by_discs(x: np.ndarray, xt: np.ndarray) -> None:
    """The eigenvalue test of :func:`_spd_verdict` on each symmetric X of a
    stack, with its eigenbasis law Xt from :func:`_lyapunov_in_eigenbasis`:
    where the Gershgorin discs of every Xt pass :func:`_spectrum_passes`,
    no ``eigvalsh`` runs; otherwise the test reads ``eigvalsh`` of the
    whole stack and raises as :func:`_make_spd_stack` does.  A disc radius
    is that of ``(Xt + Xt^T) / 2``, since the rounded Xt is symmetric only
    to within rounding."""
    if not np.all(_spectrum_passes(x.shape[-1], *_disc_range(xt))):
        _spd_verdict(np.linalg.eigvalsh(x)).check()


def _disc_range(xt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(low, high)``, the ends of the union of the Gershgorin discs of
    ``(Xt + Xt^T) / 2`` for each matrix of a stack ``(..., d, d)``."""
    magnitudes = np.abs(xt)
    centers = np.diagonal(xt, axis1=-2, axis2=-1)
    radii = 0.5 * (magnitudes.sum(axis=-1) + magnitudes.sum(axis=-2)) - np.abs(centers)
    return np.min(centers - radii, axis=-1), np.max(centers + radii, axis=-1)


def _random_spd_entries(dim: int, eigenvalue_low: float, eigenvalue_high: float,
                        streams) -> np.ndarray:
    """The entries ``(len(streams), dim, dim)`` that :func:`random_spd`
    checks with :func:`make_spd`, one per seeded stream (a list of
    generators or an :func:`oupac.rng._streams` stack), from one QR and one
    product.  The range and the size of one matrix are checked before
    anything is drawn."""
    eigenvalue_low, eigenvalue_high = _eigenvalue_range(eigenvalue_low, eigenvalue_high)
    dim = _integer(dim, "dim")
    _check_held("dim: the covariance holds", dim * dim, dim)
    gauss = np.empty((len(streams), dim, dim))
    eigenvalues = np.empty((len(streams), 1, dim))
    for index, rng in enumerate(streams):  # each stream: its normals, then its uniforms
        rng.standard_normal(out=gauss[index])
        eigenvalues[index, 0] = rng.uniform(eigenvalue_low, eigenvalue_high, size=dim)
    q_fac = np.linalg.qr(gauss)[0]  # R goes at once: the stacks are a group's memory
    del gauss
    # the signs of Q's columns cancel in Q diag(lam) Q^T, bit for bit, so the
    # QR's Q gives the matrix that a Haar-random Q with the R-sign correction gives
    return (q_fac * eigenvalues) @ q_fac.swapaxes(-1, -2)


def _eigenvalue_range(low: float, high: float) -> tuple[float, float]:
    """The interval ``[low, high]`` of :func:`random_spd`'s eigenvalues, as
    floats; raises :class:`InvalidRangeError` unless ``0 < low <= high``, both finite."""
    low, high = _real(low, "eigenvalue_low"), _real(high, "eigenvalue_high")
    if not (0.0 < low <= high):
        raise InvalidRangeError(
            f"need 0 < eigenvalue_low <= eigenvalue_high, got [{low}, {high}]")
    return low, high


def _solve_in_eigenbasis(vecs: np.ndarray, rhs: np.ndarray,
                         denom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(V Xt V^T, Xt)`` with ``Xt = (V^T R V) / denom``: divide elementwise in
    the basis V (leading stack axes broadcast)."""
    vecs_t = vecs.swapaxes(-1, -2)
    xt = vecs_t @ rhs @ vecs
    xt /= denom
    return vecs @ xt @ vecs_t, xt


def _symmetric_entries(q) -> np.ndarray:
    if isinstance(q, SymmetricMatrix):
        return q.entries
    return SymmetricMatrix(q).entries


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"operand shapes disagree: {a.shape} vs {b.shape}"
        )


def _frobenius(entries: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, by one dot product each:
    ``m * 2^p`` for :func:`_frobenius_parts`' ``(m, p)``."""
    return np.ldexp(*_frobenius_parts(entries))


def _frobenius_parts(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(m, p)`` with Frobenius norm ``m * 2^p`` of each matrix of a stack,
    ``m`` finite wherever the matrix is; of one matrix, a Python float and int.

    A stack, or a matrix whose sum of squares leaves the normal range, is
    scaled first by the power of two ``2^-p`` of each matrix's largest
    entry, so that no square overflows (where a check would pass as ``inf
    <= inf``); the scaling is exact, so a norm whose squares stay in range
    keeps its bits.  A matrix whose squares stay in range has ``p = 0``."""
    if entries.ndim == 2:
        squares = float(np.vdot(entries, entries))  # the bits of the dot below, and no warning
        if _TINY <= squares < math.inf:
            return math.sqrt(squares), 0
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        flat = entries.reshape(*entries.shape[:-2], 1, -1)
        _, power = np.frexp(np.abs(flat).max(axis=-1, keepdims=True))
        flat = np.ldexp(flat, -power)
        norm, power = np.sqrt(flat @ flat.swapaxes(-1, -2))[..., 0, 0], power[..., 0, 0]
    return (float(norm), int(power)) if entries.ndim == 2 else (norm, power)


def _backward_verdict(residual: np.ndarray, x: np.ndarray, q: np.ndarray, norm, factor,
                      label: str) -> Verdict:
    """``eta = ||R||_F / (w ||X||_F + ||Q||_F) <= BACKWARD_UNITS * d * eps``,
    ``w = norm * factor``, for each matrix of a stack (``q``, ``norm`` and
    ``factor`` may be one for all; ``norm`` is a positive operator norm of
    any size, ``factor`` at most 4)."""
    eta = _backward_errors(residual, x, q, norm, factor)
    bound = BACKWARD_UNITS * x.shape[-1] * _EPS
    bad = not eta <= bound if residual.ndim == 2 else ~(eta <= bound)  # a NaN eta fails
    return Verdict(bad, lambda i: ResidualTooLargeError(
        f"{label} solve residual has backward error {_item(eta, i):.3g}, above "
        f"{BACKWARD_UNITS:g} d eps = {bound:.3g}"
    ))


def _backward_errors(residual: np.ndarray, x: np.ndarray, q: np.ndarray, norm, factor):
    """The eta of :func:`_backward_verdict`.  Each norm is taken as ``m *
    2^p`` and the sum is formed at the larger power, so that no term
    overflows or underflows where eta itself is in range; an exact zero
    residual has eta = 0, and a non-finite one fails.  A 2-D residual (one
    matrix) takes the same steps on Python floats, which give the same bits
    as numpy's, an overflow to inf and a NaN quotient included, with none of
    numpy's per-call cost."""
    if residual.ndim == 2:
        return _backward_error(residual, x, q, float(norm), float(factor))
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        r_norm, r_pow = _frobenius_parts(residual)
        x_norm, x_pow = _frobenius_parts(x)
        q_norm, q_pow = _frobenius_parts(q)
        w_frac, w_pow = np.frexp(norm)
        x_frac, x_shift = np.frexp(w_frac * factor * x_norm)  # each fraction in [1/2, 1), or 0
        q_frac, q_shift = np.frexp(q_norm)
        x_pow, q_pow = x_pow + w_pow + x_shift, q_pow + q_shift
        # the larger power of the two terms, or the other's where one is zero
        top = np.maximum(np.where(x_frac == 0.0, q_pow, x_pow),
                         np.where(q_frac == 0.0, x_pow, q_pow))
        denom = np.ldexp(x_frac, x_pow - top) + np.ldexp(q_frac, q_pow - top)
        return np.where(r_norm == 0.0, 0.0, np.ldexp(r_norm / denom, r_pow - top))


def _backward_error(residual: np.ndarray, x: np.ndarray, q: np.ndarray, norm: float,
                    factor: float) -> float:
    """The stacked steps of :func:`_backward_errors` on one matrix."""
    r_norm, r_pow = _frobenius_parts(residual)
    if r_norm == 0.0:
        return 0.0
    x_norm, x_pow = _frobenius_parts(x)
    q_norm, q_pow = _frobenius_parts(q)
    w_frac, w_pow = math.frexp(norm)
    x_frac, x_shift = math.frexp(w_frac * factor * x_norm)
    q_frac, q_shift = math.frexp(q_norm)
    x_pow, q_pow = x_pow + w_pow + x_shift, q_pow + q_shift
    top = max(q_pow if x_frac == 0.0 else x_pow, x_pow if q_frac == 0.0 else q_pow)
    # neither term exceeds 1 at the power top, so only the quotient can overflow
    denom = math.ldexp(x_frac, x_pow - top) + math.ldexp(q_frac, q_pow - top)
    quotient = r_norm / denom if denom else r_norm * math.inf  # numpy's r / 0
    try:
        return math.ldexp(quotient, r_pow - top)
    except OverflowError:
        return math.inf
