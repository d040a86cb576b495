"""Synthetic linear-regression testbed for bound-validity experiments.

Linear least squares is the one model whose empirical risk is exactly
quadratic in the parameters, so the quadratic-loss machinery applies
with no approximation error.  This module generates Gaussian regression
data, extracts the exact empirical quadratic, evaluates closed-form
Gaussian-posterior risks, and measures generalization gaps against the
bound evaluators.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .bounds import SampleSpec, mcallester_bound
from .diffusion import QuadraticLoss, SgdDynamics, simulate_chain, estimate_stationary, stability_check
from .errors import (
    DimensionMismatchError,
    InvalidRangeError,
    NotPositiveDefiniteError,
    SingularDesignError,
    UnstableDynamicsError,
)
from .gaussian import (
    GaussianMeasure,
    kl_divergence,
    standard_gaussian,
    stationary_from_dynamics,
)
from .linalg import SpdMatrix, cholesky_factor, make_spd
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
    rng = make_rng(seed)
    factor = cholesky_factor(task.feature_cov)
    features = rng.standard_normal((task.sample_size, task.dim)) @ factor.T
    noise = rng.standard_normal(task.sample_size)
    targets = features @ task.true_weights + task.noise_std * noise
    return Dataset(features, targets, seed)


def empirical_quadratic(data: Dataset) -> QuadraticLoss:
    """Exact quadratic form of the mean squared-error empirical risk.

    Hessian ``X^T X / N``, minimizer the least-squares solution, offset
    the minimum empirical risk, so the returned quadratic reproduces
    ``mean(0.5 * (y_i - x_i^T theta)^2)`` at every theta.
    """
    x, y = data.features, data.targets
    n = data.sample_size
    gram = x.T @ x / n
    try:
        hessian = make_spd(gram)
    except NotPositiveDefiniteError as exc:
        raise SingularDesignError(
            f"design Gram matrix is singular: {exc}"
        ) from exc
    moment = x.T @ y / n
    factor = cholesky_factor(hessian)
    half = np.linalg.solve(factor, moment)
    minimizer = np.linalg.solve(factor.T, half)
    residuals = y - x @ minimizer
    offset = 0.5 * float(residuals @ residuals) / n
    return QuadraticLoss(hessian, minimizer, offset)


def expected_risk_gaussian(loss: QuadraticLoss, q: GaussianMeasure) -> float:
    """Expected quadratic loss under a Gaussian parameter distribution.

    ``offset + 0.5 (mu - min)^T A (mu - min) + 0.5 tr(A S)``.
    """
    if loss.dim != q.dim:
        raise DimensionMismatchError(f"dimensions disagree: {loss.dim} vs {q.dim}")
    trace = float(np.sum(loss.hessian.entries * q.covariance.entries))
    return loss.value(q.mean) + 0.5 * trace


def population_quadratic(task: RegressionTask) -> QuadraticLoss:
    """Exact population risk of the linear-Gaussian model.

    ``R(theta) = 0.5 (theta - w)^T feature_cov (theta - w)
    + 0.5 noise_std^2``.
    """
    return QuadraticLoss(task.feature_cov, task.true_weights, 0.5 * task.noise_std**2)


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
    data = generate_dataset(task, child_seed(seed, 0))
    empirical = empirical_quadratic(data)
    report = stability_check(empirical, sgd)
    if not report.stable:
        raise UnstableDynamicsError(
            f"stability_check failed on the empirical Hessian: spectral radius "
            f"{report.spectral_radius:.6g} >= 1"
        )
    if use_simulated_moments:
        trajectory = simulate_chain(
            empirical.minimizer, empirical, sgd, steps, stride=stride,
            seed=child_seed(seed, 1),
        )
        estimate = estimate_stationary(trajectory)
        posterior = GaussianMeasure(estimate.mean, make_spd(estimate.covariance.entries))
    else:
        posterior = stationary_from_dynamics(
            empirical.hessian, empirical.minimizer, sgd.noise_cov,
            sgd.lr, sgd.batch_size,
        )
    expected = expected_risk_gaussian(population_quadratic(task), posterior)
    empirical_val = expected_risk_gaussian(empirical, posterior)
    bound_value = mcallester_bound(kl_divergence(posterior, prior), spec)
    gap = expected - empirical_val
    return GapTrial(
        expected_risk=expected,
        empirical_risk=empirical_val,
        gap=gap,
        bound_value=bound_value,
        violated=gap > bound_value,
    )


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
        "std": statistics.stdev(values) if len(values) > 1 else 0.0,
    }


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
    records = []
    for index in range(trials):
        trial_seed = child_seed(master_seed, index)
        trial = gap_trial(
            task, sgd, spec, prior, steps=steps, seed=trial_seed,
            use_simulated_moments=use_simulated_moments,
        )
        records.append(TrialRecord(
            seed=trial_seed,
            sample_size=task.sample_size,
            gap=trial.gap,
            bound_value=trial.bound_value,
            violated=trial.violated,
        ))
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
        task = replace(task_template, sample_size=n)
        spec = SampleSpec(n, delta)
        gaps = []
        bounds = []
        for trial in range(trials_per_n):
            result = gap_trial(
                task, sgd, spec, prior, seed=child_seed(master_seed, n_index, trial),
            )
            gaps.append(result.gap)
            bounds.append(result.bound_value)
        mean_bounds[n] = statistics.fmean(bounds)
        mean_gaps[n] = statistics.fmean(gaps)
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
