"""Multivariate Gaussian measures.

Construction of stationary Gaussians from SGD dynamics parameters,
exact KL divergence between Gaussians, seeded Cholesky sampling,
unbiased empirical moments, and a Monte-Carlo KL estimator used as an
independent oracle for the closed form.

Every Gaussian-pair divergence (the KL here, the discrepancies of
:mod:`oupac.bounds`) goes through :func:`_pair_divergences`: an input too
large for float64 raises :class:`NumericalInconsistencyError` instead of
giving ``inf`` or NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidRangeError,
    NotPositiveDefiniteError,
    NumericalInconsistencyError,
    TooFewSamplesError,
)
from .linalg import (
    SpdMatrix,
    SymmetricMatrix,
    Verdict,
    _item,
    _log_det_of_factor,
    cholesky_factor,
    log_det,
    make_spd,
    solve_continuous_lyapunov,
)
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
        mean = np.asarray(self.mean, dtype=float).reshape(-1).copy()
        if self.covariance.strictness != "strict":
            raise NotPositiveDefiniteError(
                "GaussianMeasure requires a strictly positive definite covariance"
            )
        if mean.shape[0] != self.covariance.dim:
            raise DimensionMismatchError(
                f"mean has dimension {mean.shape[0]} but covariance is "
                f"{self.covariance.dim}x{self.covariance.dim}"
            )
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)

    @property
    def dim(self) -> int:
        return self.covariance.dim

    @property
    def log_normalizer(self) -> float:
        """Log of the density normalizing constant (never stored)."""
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
    return GaussianMeasure(np.zeros(dim), make_spd(np.eye(dim)))


def check_rate(lr: float, batch_size: int) -> None:
    """Raise :class:`InvalidRangeError` unless lr > 0 and batch_size >= 1."""
    if not lr > 0:
        raise InvalidRangeError(f"lr must be positive, got {lr}")
    if int(batch_size) != batch_size or batch_size < 1:
        raise InvalidRangeError(f"batch_size must be a positive integer, got {batch_size}")


def stationary_from_dynamics(
    hessian: SpdMatrix,
    minimizer: np.ndarray,
    noise_cov: SpdMatrix,
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
    minimizer = np.asarray(minimizer, dtype=float).reshape(-1)
    if not (hessian.dim == noise_cov.dim == minimizer.shape[0]):
        raise DimensionMismatchError(
            f"dimensions disagree: hessian {hessian.dim}, noise {noise_cov.dim}, "
            f"minimizer {minimizer.shape[0]}"
        )
    check_rate(lr, batch_size)
    sigma = solve_continuous_lyapunov(hessian, _stationary_rhs(noise_cov, lr, batch_size))
    return GaussianMeasure(minimizer, make_spd(sigma.entries))


def _stationary_rhs(noise_cov: SymmetricMatrix | SpdMatrix, lr: float,
                    batch_size: int) -> SymmetricMatrix:
    """Right-hand side ``(lr / batch_size) * C`` of the stationary Lyapunov equation."""
    return SymmetricMatrix((lr / float(batch_size)) * noise_cov.entries)


def gaussian_pair_terms(sigma_q, sigma_p, shift: np.ndarray):
    """``(tr(Sp^-1 Sq), log det Sp - log det Sq, shift^T Sp^-1 shift)`` from one
    Cholesky factor of each covariance; every Gaussian-pair divergence here
    (:func:`kl_divergence`, the discrepancies of :mod:`oupac.bounds`) sums them.

    The covariances are :class:`SpdMatrix` values or strict SPD entries; with
    leading stack axes ``(..., d, d)`` on ``sigma_q`` and ``(..., d)`` on
    ``shift`` (``sigma_p`` one matrix or a like stack), each term is an
    array ``(...)``, one value per pair."""
    lq = cholesky_factor(sigma_q)
    lp = cholesky_factor(sigma_p)
    shift = np.asarray(shift, dtype=float)
    # tr(Sp^-1 Sq) = ||Lp^-1 Lq||_F^2, and Lp^-1 shift, by one solve on [Lq | shift]
    solved = np.linalg.solve(lp, np.concatenate([lq, shift[..., None]], axis=-1))
    half, white = solved[..., :-1], solved[..., -1:]
    log_det_ratio = _log_det_of_factor(lp) - _log_det_of_factor(lq)
    maha = (white.swapaxes(-1, -2) @ white)[..., 0, 0][()]
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
    (value,) = _pair_divergences(
        sigma_q, p.covariance, p.mean - mean_q,
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
    return float(_kl_divergences(q.covariance, q.mean, p))


def sample(g: GaussianMeasure, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` samples from ``g``; deterministic for fixed seed.

    Uses the lower-Cholesky transform ``x = mean + L z`` with
    ``z ~ N(0, I)``; rows of the returned ``(count, d)`` array are
    independent draws.
    """
    if count < 1:
        raise TooFewSamplesError(f"count must be >= 1, got {count}")
    factor = cholesky_factor(g.covariance)
    z = make_rng(seed).standard_normal((int(count), g.dim))
    return g.mean + z @ factor.T


def empirical_moments(samples: np.ndarray) -> MomentEstimate:
    """Unbiased mean/covariance of a ``(n, d)`` sample matrix (n >= 2)."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"sample matrix must be 2-D, got shape {arr.shape}")
    n = arr.shape[0]
    if n < 2:
        raise TooFewSamplesError(f"need >= 2 samples, got {n}")
    mean = arr.mean(axis=0)
    centered = arr - mean
    cov = centered.T @ centered / (n - 1)
    return MomentEstimate(mean, SymmetricMatrix(cov), n)


def log_density(g: GaussianMeasure, points: np.ndarray) -> np.ndarray:
    """Log density of ``g`` at each row of ``points`` (shape ``(n, d)``)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != g.dim:
        raise DimensionMismatchError(
            f"points have dimension {pts.shape[1]}, measure has {g.dim}"
        )
    factor = cholesky_factor(g.covariance)
    # one product with the inverse factor: cheaper than a solve on n right-hand sides
    white = np.linalg.inv(factor) @ (pts - g.mean).T
    return g.log_normalizer - 0.5 * np.sum(white * white, axis=0)


def mc_kl_estimate(
    q: GaussianMeasure, p: GaussianMeasure, count: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo estimate of ``KL(q || p)`` with its standard error.

    Averages ``log q(x) - log p(x)`` over ``count`` draws ``x ~ q``;
    serves as the independent oracle for :func:`kl_divergence`.
    """
    if q.dim != p.dim:
        raise DimensionMismatchError(f"dimensions disagree: {q.dim} vs {p.dim}")
    if count < MC_KL_MIN_DRAWS:
        raise TooFewSamplesError(
            f"Monte-Carlo KL needs >= {MC_KL_MIN_DRAWS} draws, got {count}"
        )
    draws = sample(q, count, seed)
    values = log_density(q, draws) - log_density(p, draws)
    estimate = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / np.sqrt(count))
    return estimate, std_error
