"""Multivariate Gaussian measures.

Construction of stationary Gaussians from SGD dynamics parameters,
exact KL divergence between Gaussians, seeded Cholesky sampling, the
moment estimate that the chain estimators of :mod:`oupac.diffusion`
return, and a Monte-Carlo KL estimator used as an independent oracle for
the closed form.

Every Gaussian-pair divergence (the KL here, the discrepancies of
:mod:`oupac.bounds`) goes through :func:`_pair_divergences`: an input too
large for float64 raises :class:`NumericalInconsistencyError` instead of
giving ``inf`` or NaN.

Sampling, densities and the pair terms read a covariance's Cholesky
factor, and the normalizer its log-determinant, from its
:class:`~oupac.linalg.SpdMatrix`, which computes each once, at first use,
at the OpenBLAS thread count in force then.  A stack of raw covariances is
factored at each call and nothing of it is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (DimensionMismatchError, InvalidRangeError, NumericalInconsistencyError,
                     TooFewSamplesError, _integer, _real, _shown, _typed)
from .linalg import (SpdMatrix, SymmetricMatrix, Verdict, _check_held, _check_same_dim,
                     _frozen_vector, _item, _kept_symmetric, _log_det_of_factor,
                     _lyapunov_in_eigenbasis, cholesky_factor, log_det, make_spd,
                     solve_continuous_lyapunov)
from .rng import make_rng

#: KL values in (-KL_CLAMP, 0) are treated as floating-point noise and
#: clamped to 0; anything below -KL_CLAMP raises.
KL_CLAMP = 1e-12

MC_KL_MIN_DRAWS = 1000


@dataclass(frozen=True, eq=False)
class GaussianMeasure:
    """Gaussian measure N(mean, covariance) with strict SPD covariance."""

    mean: np.ndarray
    covariance: SpdMatrix

    def __post_init__(self):
        mean = _frozen_vector(self.mean, "mean")
        _typed(self.covariance, SpdMatrix, "covariance")
        if mean.shape[0] != self.covariance.dim:
            raise DimensionMismatchError(
                f"mean has dimension {mean.shape[0]} but covariance is "
                f"{self.covariance.dim}x{self.covariance.dim}"
            )
        object.__setattr__(self, "mean", mean)

    @property
    def dim(self) -> int:
        return self.covariance.dim

    @property
    def log_normalizer(self) -> float:
        """Log of the density normalizing constant."""
        return -0.5 * (self.dim * np.log(2.0 * np.pi) + log_det(self.covariance))


@dataclass(frozen=True, eq=False)
class MomentEstimate:
    """Sample mean and unbiased sample covariance of a batch of vectors."""

    mean: np.ndarray
    covariance: SymmetricMatrix
    sample_count: int

    def __post_init__(self):
        if self.sample_count < 2:
            raise TooFewSamplesError(
                f"moment estimate needs >= 2 samples, got {self.sample_count}"
            )


def standard_gaussian(dim: int) -> GaussianMeasure:
    """The N(0, I) measure in the given dimension."""
    dim = _integer(dim, "dim")
    _check_held("dim: the covariance holds", dim * dim, dim)
    return GaussianMeasure(np.zeros(dim), make_spd(np.eye(dim)))


def check_rate(lr: float, batch_size: int) -> tuple[float, int]:
    """``(lr, batch_size)`` as a float and an int; raises
    :class:`InvalidRangeError` unless lr is a finite real > 0 and batch_size
    an integer >= 1 that float64 holds."""
    lr = _real(lr, "lr")
    if not lr > 0:
        raise InvalidRangeError(f"lr must be positive, got {lr}")
    batch_size = _integer(batch_size, "batch_size")
    _check_float_count(batch_size, "batch_size", InvalidRangeError)
    return lr, batch_size


def _check_float_count(count: int, name: str, error: type[Exception]) -> None:
    """Raise ``error`` if the integer ``count``, a size that the formulas take
    as a float, overflows float64 (from about 1.8e308)."""
    try:
        float(count)
    except OverflowError:
        raise error(f"{name} must be below 2**1024, got {_shown(count)}") from None


def stationary_from_dynamics(
    hessian: SpdMatrix,
    minimizer: np.ndarray,
    noise_cov: SymmetricMatrix,
    lr: float,
    batch_size: int,
) -> GaussianMeasure:
    """Stationary Gaussian of SGD on a quadratic loss.

    The constant-rate SGD recursion near a quadratic minimum behaves as
    a linear mean-reverting diffusion whose stationary covariance S
    solves ``A S + S A = (lr / batch_size) * C`` with A the Hessian and
    C the single-sample gradient-noise covariance.  Returns
    ``N(minimizer, S)``.

    Raises
    ------
    DimensionMismatchError
        If the Hessian, minimizer, and noise covariance dimensions
        disagree.
    InvalidRangeError
        If lr/batch_size are out of range (see :func:`check_rate`).
    NotPositiveDefiniteError
        If the resulting covariance is not strictly positive definite
        (e.g. a rank-deficient noise covariance).
    """
    _typed(hessian, SpdMatrix, "hessian")
    lr, batch_size = check_rate(lr, batch_size)
    sigma = solve_continuous_lyapunov(hessian, _stationary_rhs(noise_cov, lr, batch_size))
    return GaussianMeasure(minimizer, make_spd(sigma.entries))


def stein_stationary_covariance(
    hessian: SpdMatrix,
    noise_cov: SymmetricMatrix,
    lr: float,
    batch_size: int,
) -> SymmetricMatrix:
    """Exact stationary covariance of the discrete SGD chain.

    The chain ``x' = (I - lr A) x + (lr / sqrt(batch_size)) B^T z`` has the
    stationary covariance X of ``X = (I - lr A) X (I - lr A) + (lr^2 /
    batch_size) C``: divided by lr, ``A X + X A - lr A X A = (lr /
    batch_size) C``, the Lyapunov law of :func:`stationary_from_dynamics`
    (its small-rate limit) with one more term, solved like it in the
    Hessian's kept eigenbasis.  X exists exactly when ``lr * lambda_max(A)
    < 2``; its accuracy does not degrade as lr shrinks.

    Raises
    ------
    DimensionMismatchError
        If the Hessian and noise covariance dimensions disagree.
    InvalidRangeError
        If lr/batch_size are out of range (see :func:`check_rate`).
    SpectralRadiusTooLargeError
        If ``lr * lambda_max(A) >= 2`` (no stationary covariance).
    ResidualTooLargeError
        If the solve fails its residual check.
    """
    _typed(hessian, SpdMatrix, "hessian")
    lr, batch_size = check_rate(lr, batch_size)
    rhs = _stationary_rhs(noise_cov, lr, batch_size).entries
    _check_same_dim(hessian.entries, rhs)
    return _kept_symmetric(_lyapunov_in_eigenbasis(hessian.entries, *hessian.eigh, rhs, lr)[0])


def _stationary_rhs(noise_cov: SymmetricMatrix, lr: float, batch_size: int) -> SymmetricMatrix:
    """Right-hand side ``(lr / batch_size) * C`` of both stationary laws."""
    return SymmetricMatrix((lr / float(batch_size))
                           * _typed(noise_cov, SymmetricMatrix, "noise_cov").entries)


def gaussian_pair_terms(sigma_q, sigma_p, shift: np.ndarray):
    """``(tr(Sp^-1 Sq), log det Sp - log det Sq, shift^T Sp^-1 shift)`` from one
    Cholesky factor of each covariance; every Gaussian-pair divergence here
    (:func:`kl_divergence`, the discrepancies of :mod:`oupac.bounds`) sums them.

    The covariances are :class:`SpdMatrix` values or strict SPD entries; with
    leading stack axes ``(..., d, d)`` on ``sigma_q`` and ``(..., d)`` on
    ``shift`` (``sigma_p`` one matrix or a like stack), each term is an
    array ``(...)``, one value per pair.  A shift, a difference of finite
    means, is not finite only where it overflowed: its term is +inf (Sp^-1
    is positive definite), and it is solved as zero, since a solve would
    spread ``inf * 0`` into NaN."""
    lq = cholesky_factor(sigma_q)
    lp = cholesky_factor(sigma_p)
    shift = np.asarray(shift, dtype=float)
    finite = np.isfinite(shift).all(axis=-1)
    # tr(Sp^-1 Sq) = ||Lp^-1 Lq||_F^2, and Lp^-1 shift, by one solve on [Lq | shift]
    solved = np.concatenate([lq, np.where(finite[..., None], shift, 0.0)[..., None]], axis=-1)
    if not (lp.ndim == 2 and (lp == np.eye(len(lp))).all() and np.isfinite(solved).all()):
        # a solve by I returns a finite right side as it is, up to the sign of
        # a zero, which every term squares (a non-finite one spreads as NaN)
        solved = np.linalg.solve(lp, solved)
    half, white = solved[..., :-1], solved[..., -1:]
    log_det_ratio = _log_det_of_factor(lp) - _log_det_of_factor(lq)
    maha = np.where(finite, (white.swapaxes(-1, -2) @ white)[..., 0, 0], np.inf)[()]
    return np.sum(half * half, axis=(-2, -1)), log_det_ratio, maha


def _pair_divergences(sigma_q, sigma_p, shift: np.ndarray, formulas):
    """``formulas(trace, log_det_ratio, maha)`` of the :func:`gaussian_pair_terms`
    of each pair of a stack (or of one pair).  Raises, with no overflow
    warning, if a term or a value it returns is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        terms = gaussian_pair_terms(sigma_q, sigma_p, shift)
        values = formulas(*terms)
        finite = np.logical_and.reduce([np.isfinite(v) for v in (*terms, *values)])
    trace, log_det_ratio, maha = terms
    Verdict(~finite, lambda i: NumericalInconsistencyError(
        f"a Gaussian-pair term or divergence is not finite (tr(Sp^-1 Sq) = "
        f"{_item(trace, i):.6g}, log det Sp - log det Sq = {_item(log_det_ratio, i):.6g}, "
        f"shift^T Sp^-1 shift = {_item(maha, i):.6g}): an input is too large for float64"
    )).check()
    return values


def _kl_divergences(sigma_q, mean_q: np.ndarray, p: GaussianMeasure) -> np.ndarray:
    """``KL(N(mean_q, sigma_q) || p)`` for a stack of q's (leading axes on
    both arguments), checked and clamped as :func:`kl_divergence` documents."""
    d = mean_q.shape[-1]
    if d != p.dim:
        raise DimensionMismatchError(f"dimensions disagree: {d} vs {p.dim}")
    with np.errstate(over="ignore"):  # a shift that overflows fails the finite check
        shift = p.mean - mean_q
    (value,) = _pair_divergences(
        sigma_q, p.covariance, shift,
        lambda trace, log_det_ratio, maha: (0.5 * (trace - d + maha + log_det_ratio),))
    Verdict(value < -KL_CLAMP, lambda i: NumericalInconsistencyError(
        f"KL divergence evaluated to {_item(value, i):.6g} < -{KL_CLAMP}")).check()
    return np.where(value < 0.0, 0.0, value)


def kl_divergence(q: GaussianMeasure, p: GaussianMeasure) -> float:
    """Exact KL divergence ``KL(q || p)`` between Gaussian measures.

    Closed form (natural logs, d the common dimension)::

        KL = 0.5 * [ tr(Sp^-1 Sq) - d + (mp-mq)^T Sp^-1 (mp-mq)
                     + log det Sp - log det Sq ]

    Results in ``(-1e-12, 0)`` are clamped to 0; a result below that is
    a genuine inconsistency and raises instead of being hidden, as does
    a term that is not finite.
    """
    _typed(q, GaussianMeasure, "q")
    return float(_kl_divergences(q.covariance, q.mean, _typed(p, GaussianMeasure, "p")))


def sample(g: GaussianMeasure, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` samples from ``g``; deterministic for fixed seed.

    Uses the lower-Cholesky transform ``x = mean + L z`` with
    ``z ~ N(0, I)``; rows of the returned ``(count, d)`` array are
    independent draws.
    """
    _typed(g, GaussianMeasure, "g")
    count = _integer(count, "count", error=TooFewSamplesError)
    _check_held("count={}: the draws hold", count * g.dim, g.dim, count)
    z = make_rng(seed).standard_normal((count, g.dim))
    return g.mean + z @ cholesky_factor(g.covariance).T


def log_density(g: GaussianMeasure, points: np.ndarray) -> np.ndarray:
    """Log density of ``g`` at each row of ``points`` (shape ``(n, d)``)."""
    _typed(g, GaussianMeasure, "g")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != g.dim:
        raise DimensionMismatchError(
            f"points have dimension {pts.shape[1]}, measure has {g.dim}"
        )
    return _log_density_rows(pts, np.empty_like(pts), _density_terms(g))


def _density_terms(g: GaussianMeasure) -> tuple[np.ndarray, np.ndarray, float]:
    """The mean, inverse Cholesky factor and log normalizer of ``g``'s density."""
    return g.mean, np.linalg.inv(cholesky_factor(g.covariance)), g.log_normalizer


def _log_density_rows(points: np.ndarray, scratch: np.ndarray, terms: tuple) -> np.ndarray:
    """The log density of :func:`_density_terms` ``terms`` at each row of
    ``points``, with the differences written over ``scratch`` (the shape of
    ``points``) and the squares over the one product: a new vector of one
    number a row."""
    mean, inverse, normalizer = terms
    np.subtract(points, mean, out=scratch)
    # one product with the inverse factor: cheaper than a solve on n right-hand sides
    white = inverse @ scratch.T
    white *= white
    total = np.sum(white, axis=0)
    total *= 0.5
    return np.subtract(normalizer, total, out=total)


def mc_kl_estimate(
    q: GaussianMeasure, p: GaussianMeasure, count: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo estimate of ``KL(q || p)`` with its standard error.

    Averages ``log q(x) - log p(x)`` over ``count`` draws ``x ~ q``;
    serves as the independent oracle for :func:`kl_divergence`.
    """
    if _typed(q, GaussianMeasure, "q").dim != _typed(p, GaussianMeasure, "p").dim:
        raise DimensionMismatchError(f"dimensions disagree: {q.dim} vs {p.dim}")
    count = _integer(count, "count", MC_KL_MIN_DRAWS, TooFewSamplesError)
    _check_held("Monte-Carlo KL with {} draws holds", count, q.dim, count)
    rng, factor = make_rng(seed), cholesky_factor(q.covariance)
    terms = [_density_terms(g) for g in (q, p)]
    # a chunk's draws, their differences, one product and two densities,
    # 3d + 2 numbers a draw, hold at most GROUP_FLOATS
    chunk = max(1, linalg.GROUP_FLOATS // (3 * q.dim + 2))
    values = np.empty(count)
    for start in range(0, count, chunk):
        z = rng.standard_normal((min(chunk, count - start), q.dim))
        draws = z @ factor.T
        draws += q.mean  # sample()'s q.mean + z L^T, bit for bit
        log_q, log_p = (_log_density_rows(draws, z, g) for g in terms)  # each over z
        np.subtract(log_q, log_p, out=values[start:start + len(z)])
        del z, draws, log_q, log_p  # freed before the next chunk is drawn
    estimate = np.mean(values)
    # np.std(values, ddof=1) as numpy computes it, the deviations written over values
    values -= estimate
    values *= values
    std_error = float(np.sqrt(np.sum(values) / (count - 1)) / np.sqrt(count))
    return float(estimate), std_error
