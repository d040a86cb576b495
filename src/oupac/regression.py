"""Synthetic linear-regression testbed for bound-validity experiments.

Linear least squares is the one model whose empirical risk is exactly
quadratic in the parameters, so the quadratic-loss machinery applies
with no approximation error.  This module generates Gaussian regression
data, extracts the exact empirical quadratic, evaluates closed-form
Gaussian-posterior risks, and measures generalization gaps against the
bound evaluators.

The gap trials of an experiment are evaluated as stacks: arrays with a
leading trial axis, in the groups of :func:`oupac.linalg._in_groups`.  A
group makes one call of each decomposition (``eigvalsh`` for the SPD
and stability checks, ``eigh`` for the Lyapunov eigenbasis,
``cholesky``) where a trial-by-trial loop makes one per trial.  The
checks read ``eigvalsh``, not the eigenvalues ``eigh`` returns with its
basis: the two differ in the last bits, and a singular design's
smallest eigenvalue, which its error message prints, is rounding noise.
Each trial's data still comes from its own seeded stream, and the
numbers agree with the loop to 1e-12 (tested).  A gap that is not
finite (noise too large for float64) raises
:class:`NumericalInconsistencyError`.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .bounds import SampleSpec, mcallester_bound
from .diffusion import (QuadraticLoss, SgdDynamics, _check_dims, _quadratic_values, _step_radius,
                        estimate_stationary, simulate_chain)
from .errors import (
    DimensionMismatchError,
    InvalidRangeError,
    NotPositiveDefiniteError,
    NumericalInconsistencyError,
    SingularDesignError,
    UnstableDynamicsError,
)
from .gaussian import (
    GaussianMeasure,
    _kl_divergences,
    _stationary_rhs,
    standard_gaussian,
)
from .linalg import (SpdMatrix, Verdict, _in_groups, _item, _lyapunov_in_eigenbasis,
                     _spd_verdict, _symmetrized, cholesky_factor, make_spd)
from .rng import child_seed, make_rng

#: Recorded on every trial result: the complexity term is derived for
#: bounded losses, while squared error is unbounded, so violation
#: counts are an empirical check rather than a certified guarantee.
BOUNDED_LOSS_NOTE = (
    "squared-error loss is unbounded; the bound assumes a bounded loss, "
    "so violation counts are an empirical check"
)


@dataclass(frozen=True, eq=False)
class RegressionTask:
    """Linear-Gaussian data model ``y = x^T w + noise_std * eps``."""

    true_weights: np.ndarray
    feature_cov: SpdMatrix
    noise_std: float
    sample_size: int

    def __post_init__(self):
        weights = np.asarray(self.true_weights, dtype=float).reshape(-1).copy()
        if weights.shape[0] != self.feature_cov.dim:
            raise DimensionMismatchError(
                f"true_weights has dimension {weights.shape[0]}, feature_cov is "
                f"{self.feature_cov.dim}x{self.feature_cov.dim}"
            )
        if not self.noise_std >= 0:
            raise InvalidRangeError(f"noise_std must be >= 0, got {self.noise_std}")
        if int(self.sample_size) != self.sample_size or self.sample_size < 1:
            raise InvalidRangeError(f"sample_size must be a positive integer, got {self.sample_size}")
        weights.flags.writeable = False
        object.__setattr__(self, "true_weights", weights)

    @property
    def dim(self) -> int:
        return self.feature_cov.dim


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix, targets, and the seed they were drawn with."""

    features: np.ndarray
    targets: np.ndarray
    seed: int

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        targets = np.asarray(self.targets, dtype=float).reshape(-1)
        if features.shape[0] != targets.shape[0]:
            raise DimensionMismatchError(
                f"{features.shape[0]} feature rows vs {targets.shape[0]} targets"
            )
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)

    @property
    def sample_size(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class GapTrial:
    """One measured generalization gap and its bound."""

    expected_risk: float
    empirical_risk: float
    gap: float
    bound_value: float
    violated: bool
    note: str = BOUNDED_LOSS_NOTE

    def __post_init__(self):
        if abs(self.gap - (self.expected_risk - self.empirical_risk)) > 1e-12:
            raise ValueError("gap must equal expected_risk - empirical_risk")
        if self.violated != (self.gap > self.bound_value):
            raise ValueError("violated must equal gap > bound_value")


def generate_dataset(task: RegressionTask, seed: int) -> Dataset:
    """Draw a dataset from the task's model; deterministic per seed."""
    features, targets = _datasets(task, [seed])
    return Dataset(features[0], targets[0], seed)


def _datasets(task: RegressionTask, seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Features ``(T, n, d)`` and targets ``(T, n)`` drawn with each of ``seeds``."""
    draws = np.empty((len(seeds), task.sample_size, task.dim))
    noise = np.empty((len(seeds), task.sample_size))
    for draw, row, seed in zip(draws, noise, seeds):
        rng = make_rng(seed)
        rng.standard_normal(out=draw)
        rng.standard_normal(out=row)
    features = draws @ cholesky_factor(task.feature_cov).T
    return features, features @ task.true_weights + task.noise_std * noise


def empirical_quadratic(data: Dataset) -> QuadraticLoss:
    """Exact quadratic form of the mean squared-error empirical risk.

    Hessian ``X^T X / N``, minimizer the least-squares solution, offset
    the minimum empirical risk, so the returned quadratic reproduces
    ``mean(0.5 * (y_i - x_i^T theta)^2)`` at every theta.
    """
    x, y = data.features, data.targets
    try:
        hessian = make_spd(_gram(x))
    except NotPositiveDefiniteError as exc:
        raise _singular_design(exc) from exc
    minimizer, offset = _least_squares(x, y, hessian.entries)
    return QuadraticLoss(hessian, minimizer, float(offset))


def _gram(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2) @ x / x.shape[-2]


def _singular_design(exc: NotPositiveDefiniteError) -> SingularDesignError:
    return SingularDesignError(f"design Gram matrix is singular: {exc}")


def _least_squares(x: np.ndarray, y: np.ndarray, hessian: np.ndarray):
    """Least-squares minimizer and minimum empirical risk of each design
    ``(..., n, d)`` with targets ``(..., n)``, given its Gram matrix."""
    n = x.shape[-2]
    moment = x.swapaxes(-1, -2) @ y[..., None] / n
    factor = cholesky_factor(hessian)
    half = np.linalg.solve(factor, moment)
    minimizer = np.linalg.solve(factor.swapaxes(-1, -2), half)[..., 0]
    residuals = (y - (x @ minimizer[..., None])[..., 0])[..., None, :]
    offset = 0.5 * (residuals @ residuals.swapaxes(-1, -2))[..., 0, 0] / n
    return minimizer, offset


def expected_risk_gaussian(loss: QuadraticLoss, q: GaussianMeasure) -> float:
    """Expected quadratic loss under a Gaussian parameter distribution.

    ``offset + 0.5 (mu - min)^T A (mu - min) + 0.5 tr(A S)``.
    """
    if loss.dim != q.dim:
        raise DimensionMismatchError(f"dimensions disagree: {loss.dim} vs {q.dim}")
    return float(_expected_risks(loss.hessian.entries, loss.minimizer, loss.offset,
                                 q.mean, q.covariance.entries))


def _expected_risks(hessian, minimizer, offset, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """:func:`expected_risk_gaussian` over stacks of quadratics and Gaussians."""
    trace = np.sum(hessian * cov, axis=(-2, -1))
    return _quadratic_values(hessian, minimizer, offset, mean) + 0.5 * trace


def population_quadratic(task: RegressionTask) -> QuadraticLoss:
    """Exact population risk of the linear-Gaussian model.

    ``R(theta) = 0.5 (theta - w)^T feature_cov (theta - w)
    + 0.5 noise_std^2``; the offset is ``inf`` if that overflows.
    """
    # numpy's power on a float64 is the float's: the same C pow, without OverflowError
    return QuadraticLoss(task.feature_cov, task.true_weights,
                         float(0.5 * np.float64(task.noise_std)**2))


def gap_trial(
    task: RegressionTask,
    sgd: SgdDynamics,
    spec: SampleSpec,
    prior: GaussianMeasure,
    steps: int = 20_000,
    seed: int = 0,
    use_simulated_moments: bool = False,
    stride: int = 10,
) -> GapTrial:
    """Full pipeline: data -> empirical quadratic -> posterior -> gap vs bound.

    The posterior is the analytic stationary Gaussian of the SGD
    dynamics on the empirical quadratic; ``use_simulated_moments``
    switches to moments estimated from a simulated chain of ``steps``
    updates (exercising the whole pipeline at the cost of chain noise).
    """
    (expected,), (empirical,), (bound_value,) = _gap_trials(
        task, sgd, spec, prior, [seed], steps, use_simulated_moments, stride,
    )
    gap = expected - empirical
    return GapTrial(
        expected_risk=expected,
        empirical_risk=empirical,
        gap=gap,
        bound_value=bound_value,
        violated=gap > bound_value,
    )


def _gap_trials(
    task: RegressionTask,
    sgd: SgdDynamics,
    spec: SampleSpec,
    prior: GaussianMeasure,
    seeds: Sequence[int],
    steps: int = 20_000,
    use_simulated_moments: bool = False,
    stride: int = 10,
) -> tuple[list[float], list[float], list[float]]:
    """Expected risks, empirical risks and bounds of :func:`gap_trial` at each
    seed, evaluated in stacked groups (module docstring)."""
    columns = _in_groups(lambda group: _gap_group(task, sgd, spec, prior, group, steps,
                                                  use_simulated_moments, stride),
                         seeds, task.sample_size * task.dim)
    return tuple(column.tolist() for column in columns)


@np.errstate(over="ignore", invalid="ignore")  # an overflow fails the gap check instead
def _gap_group(task, sgd, spec, prior, seeds, steps, use_simulated_moments, stride):
    """:func:`_gap_trials` on one group; raises at the first check that a
    trial fails, in the order a trial-by-trial loop makes the checks."""
    x, y = _datasets(task, [child_seed(seed, 0) for seed in seeds])
    hessian = _symmetrized(_gram(x))
    eigenvalues = np.linalg.eigvalsh(hessian)
    design = _spd_verdict(eigenvalues, "strict")
    Verdict(design.bad, lambda i: _singular_design(design.error(i))).check()
    minimizer, offset = _least_squares(x, y, hessian)
    _check_dims(task, sgd)  # as stability_check does, with the task's dimension for the loss's
    radius = _step_radius(sgd.lr, eigenvalues)
    Verdict(~(radius < 1.0), lambda i: UnstableDynamicsError(
        f"stability_check failed on the empirical Hessian: spectral radius "
        f"{_item(radius, i):.6g} >= 1"
    )).check()
    if use_simulated_moments:
        moments = [estimate_stationary(simulate_chain(
            minimizer[i], QuadraticLoss(make_spd(hessian[i]), minimizer[i], offset[i]), sgd,
            steps, stride=stride, seed=child_seed(seed, 1))) for i, seed in enumerate(seeds)]
        mean = np.array([estimate.mean for estimate in moments])
        cov = np.array([estimate.covariance.entries for estimate in moments])
    else:
        lam, vecs = np.linalg.eigh(hessian)
        rhs = _stationary_rhs(sgd.noise_cov, sgd.lr, sgd.batch_size).entries
        cov = _lyapunov_in_eigenbasis(hessian, lam, vecs, rhs)
        mean = minimizer
    _spd_verdict(np.linalg.eigvalsh(cov), "strict").check()
    population = population_quadratic(task)
    expected = _expected_risks(population.hessian.entries, population.minimizer,
                               population.offset, mean, cov)
    empirical = _expected_risks(hessian, minimizer, offset, mean, cov)
    Verdict(~np.isfinite(expected - empirical), lambda i: NumericalInconsistencyError(
        f"gap trial risks are not finite (expected {_item(expected, i):.6g}, empirical "
        f"{_item(empirical, i):.6g}): the data are too large for float64"
    )).check()
    return expected, empirical, mcallester_bound(_kl_divergences(cov, mean, prior), spec)


@dataclass(frozen=True)
class TrialRecord:
    """Row of a validity experiment: one seed, one gap, one bound."""

    seed: int
    sample_size: int
    gap: float
    bound_value: float
    violated: bool


@dataclass(frozen=True)
class ValidityResult:
    violation_count: int
    gaps: dict
    bounds: dict
    records: tuple[TrialRecord, ...]
    note: str = BOUNDED_LOSS_NOTE


def _summary(values: Sequence[float]) -> dict:
    return {
        "min": min(values),
        "max": max(values),
        "mean": statistics.fmean(values),
        "median": statistics.median(values),
        "std": _stdev(values) if len(values) > 1 else 0.0,
    }


def _stdev(values: Sequence[float]) -> float:
    """``statistics.stdev`` of two or more finite floats: the correctly rounded
    square root of the exact sample variance, in integers.  Each value is an
    integer over a common power of two, 2^e, so the variance is ``(n S2 -
    S1^2) / (n (n - 1) 4^e)`` with S1, S2 the integer sums."""
    ratios = [value.as_integer_ratio() for value in values]
    e = max(denominator for _, denominator in ratios).bit_length() - 1
    scaled = [numerator << (e - denominator.bit_length() + 1) for numerator, denominator in ratios]
    n = len(scaled)
    total = sum(scaled)
    numerator = n * sum(x * x for x in scaled) - total * total
    denominator = n * (n - 1) << 2 * e
    # sqrt(numerator / denominator) * 2^-shift is an integer of 55 bits; rounded to
    # odd (the last bit is the sticky bit), one int / int division rounds it correctly
    shift = (numerator.bit_length() - denominator.bit_length() - 109) // 2
    if shift >= 0:
        root, scale = _isqrt_to_odd(numerator, denominator << 2 * shift) << shift, 1
    else:
        root, scale = _isqrt_to_odd(numerator << -2 * shift, denominator), 1 << -shift
    return root / scale


def _isqrt_to_odd(numerator: int, denominator: int) -> int:
    """sqrt(numerator / denominator) rounded down, with its last bit set if inexact."""
    root = math.isqrt(numerator // denominator)
    return root | (root * root * denominator != numerator)


def bound_validity_experiment(
    task: RegressionTask,
    sgd: SgdDynamics,
    spec: SampleSpec,
    prior: GaussianMeasure,
    trials: int,
    master_seed: int = 0,
    use_simulated_moments: bool = False,
    steps: int = 20_000,
) -> ValidityResult:
    """Run ``trials`` independent gap trials and count bound violations."""
    if trials < 10:
        raise InvalidRangeError(f"trials must be >= 10, got {trials}")
    seeds = [child_seed(master_seed, index) for index in range(trials)]
    records = [
        TrialRecord(seed=seed, sample_size=task.sample_size, gap=expected - empirical,
                    bound_value=bound, violated=expected - empirical > bound)
        for seed, expected, empirical, bound in zip(seeds, *_gap_trials(
            task, sgd, spec, prior, seeds, steps, use_simulated_moments,
        ))
    ]
    gaps = [r.gap for r in records]
    bounds = [r.bound_value for r in records]
    return ValidityResult(
        violation_count=sum(r.violated for r in records),
        gaps=_summary(gaps),
        bounds=_summary(bounds),
        records=tuple(records),
    )


def scaling_experiment(
    task_template: RegressionTask,
    ns: Sequence[int],
    sgd: SgdDynamics,
    delta: float,
    master_seed: int = 0,
    trials_per_n: int = 20,
    prior: GaussianMeasure | None = None,
) -> list[dict]:
    """Mean bound and mean gap as the sample size grows.

    ``ns`` must be strictly increasing with every entry at least the
    feature dimension.  Each output row carries ``{"n", "mean_bound",
    "mean_gap", "ratio_bound_4n"}`` where the ratio column holds
    ``mean_bound(4n) / mean_bound(n)`` whenever ``4n`` is also present.
    """
    ns = [int(n) for n in ns]
    if not ns or trials_per_n < 1:
        raise InvalidRangeError(f"need ns and trials_per_n >= 1, got {ns}, {trials_per_n}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise InvalidRangeError(f"ns must be strictly increasing, got {ns}")
    if any(n < task_template.dim for n in ns):
        raise InvalidRangeError(f"every n must be >= feature dimension {task_template.dim}")
    if prior is None:
        prior = standard_gaussian(task_template.dim)
    mean_bounds: dict[int, float] = {}
    mean_gaps: dict[int, float] = {}
    for n_index, n in enumerate(ns):
        expected, empirical, bounds = _gap_trials(
            replace(task_template, sample_size=n), sgd, SampleSpec(n, delta), prior,
            [child_seed(master_seed, n_index, trial) for trial in range(trials_per_n)],
        )
        mean_bounds[n] = statistics.fmean(bounds)
        mean_gaps[n] = statistics.fmean([e - m for e, m in zip(expected, empirical)])
    rows = []
    for n in ns:
        ratio = mean_bounds[4 * n] / mean_bounds[n] if 4 * n in mean_bounds else None
        rows.append({
            "n": n,
            "mean_bound": mean_bounds[n],
            "mean_gap": mean_gaps[n],
            "ratio_bound_4n": ratio,
        })
    return rows
