"""Synthetic linear-regression testbed for bound-validity experiments.

Linear least squares is the one model whose empirical risk is exactly
quadratic in the parameters, so the quadratic-loss machinery applies
with no approximation error.  This module generates Gaussian regression
data, extracts the exact empirical quadratic, evaluates closed-form
Gaussian-posterior risks, and measures generalization gaps against the
bound evaluators.  A :class:`RegressionTask` is the data model alone: an
experiment's sample size is its ``SampleSpec``'s, the N of its bound.

The gap trials of an experiment are evaluated as stacks: arrays with a
leading trial axis, in one pass of the groups of
:func:`oupac.linalg._in_groups` over one run of trials per sample size,
every sample size of a scaling experiment included.  A group draws and
fits the trials of each run it holds together, and decomposes all its
Hessians once, by one ``eigh`` of the stack, where a trial-by-trial loop
makes an ``eigvalsh`` and an ``eigh`` per trial.  The design and stability checks read the
``eigh`` eigenvalues, whose smallest a singular design's message
prints.  The posteriors' SPD check reads the Gershgorin discs of their
laws in the eigenbasis (:func:`oupac.linalg._check_spd_by_discs`), and
the KL against the N(0, I) prior neither factors the prior nor solves by
it.  Each trial's data still comes from its own seeded stream, and one
stack of streams (:func:`oupac.rng._streams`) seeds all the trials of an
experiment.
The numbers agree with the loop to 1e-12 (tested).  A gap that is not
finite (noise too large for float64) raises
:class:`NumericalInconsistencyError`.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import SampleSpec, mcallester_bound
from .diffusion import QuadraticLoss, SgdDynamics, _check_dims, _quadratic_values, _step_radius
from .errors import (DimensionMismatchError, InvalidRangeError, NotPositiveDefiniteError,
                     NumericalInconsistencyError, SingularDesignError, UnstableDynamicsError,
                     _integer, _real, _shown, _typed)
from .gaussian import GaussianMeasure, _kl_divergences, _stationary_rhs, standard_gaussian
from .linalg import (SpdMatrix, Verdict, _check_held, _check_spd_by_discs, _finite, _frozen_vector,
                     _in_groups, _item, _lyapunov_in_eigenbasis, _spd_verdict, _symmetrized,
                     cholesky_factor, make_spd)
from .rng import _child_seeds, _digest_seed, _seed_text, _streams, _Streams, make_rng

#: Floats a gap trial holds until its run returns, counted against
#: ``RECORD_FLOATS``: a seed, a TrialRecord, a gap and a bound in validity
#: (44-61 measured by tracemalloc), a seed and its risks in scaling (25-33).
VALIDITY_TRIAL_FLOATS = 80
SCALING_TRIAL_FLOATS = 40

#: Recorded on every trial result: the complexity term is derived for
#: bounded losses, while squared error is unbounded, so violation
#: counts are an empirical check rather than a certified guarantee.
BOUNDED_LOSS_NOTE = (
    "squared-error loss is unbounded; the bound assumes a bounded loss, "
    "so violation counts are an empirical check"
)


@dataclass(frozen=True, eq=False)
class RegressionTask:
    """Linear-Gaussian data model ``y = x^T w + noise_std * eps``, without a sample size."""

    true_weights: np.ndarray
    feature_cov: SpdMatrix
    noise_std: float

    def __post_init__(self):
        _typed(self.feature_cov, SpdMatrix, "feature_cov")
        weights = _frozen_vector(self.true_weights, "true_weights")
        if weights.shape[0] != self.feature_cov.dim:
            raise DimensionMismatchError(
                f"true_weights has dimension {weights.shape[0]}, feature_cov is "
                f"{self.feature_cov.dim}x{self.feature_cov.dim}"
            )
        noise_std = _real(self.noise_std, "noise_std")
        if not noise_std >= 0:
            raise InvalidRangeError(f"noise_std must be >= 0, got {noise_std}")
        object.__setattr__(self, "true_weights", weights)
        object.__setattr__(self, "noise_std", noise_std)

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
        features = _frozen_vector(self.features, "features").reshape(np.shape(self.features))
        targets = _frozen_vector(self.targets, "targets")
        if features.shape[0] != targets.shape[0]:
            raise DimensionMismatchError(
                f"{features.shape[0]} feature rows vs {targets.shape[0]} targets"
            )
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)


def generate_dataset(task: RegressionTask, sample_size: int, seed: int) -> Dataset:
    """Draw ``sample_size`` rows from the task's model; deterministic per seed."""
    _typed(task, RegressionTask, "task")
    sample_size = _integer(sample_size, "sample_size")
    _check_held("sample_size={}: the dataset holds", sample_size * (task.dim + 1), task.dim,
                sample_size)
    features, targets = _datasets(task, sample_size, [make_rng(seed)])
    return Dataset(features[0], targets[0], seed)


def _datasets(task: RegressionTask, n: int, streams) -> tuple[np.ndarray, np.ndarray]:
    """Features ``(T, n, d)`` and targets ``(T, n)`` drawn from each of
    ``streams``, a list of generators or an :func:`oupac.rng._streams` stack."""
    draws = np.empty((len(streams), n, task.dim))
    noise = np.empty((len(streams), n))
    for draw, row, rng in zip(draws, noise, streams):
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
    x, y = _typed(data, Dataset, "data").features, data.targets
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


@np.errstate(over="ignore", invalid="ignore")  # a risk that is not finite raises
def expected_risk_gaussian(loss: QuadraticLoss, q: GaussianMeasure) -> float:
    """Expected quadratic loss under a Gaussian parameter distribution.

    ``offset + 0.5 (mu - min)^T A (mu - min) + 0.5 tr(A S)``; raises
    :class:`NumericalInconsistencyError` if it is not finite.
    """
    if _typed(loss, QuadraticLoss, "loss").dim != _typed(q, GaussianMeasure, "q").dim:
        raise DimensionMismatchError(f"dimensions disagree: {loss.dim} vs {q.dim}")
    return _finite(float(_expected_risks(loss.hessian.entries, loss.minimizer, loss.offset,
                                         q.mean, q.covariance.entries)), "expected risk")


def _expected_risks(hessian, minimizer, offset, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """:func:`expected_risk_gaussian` over stacks of quadratics and Gaussians."""
    trace = np.sum(hessian * cov, axis=(-2, -1))
    return _quadratic_values(hessian, minimizer, offset, mean) + 0.5 * trace


def population_quadratic(task: RegressionTask) -> QuadraticLoss:
    """Exact population risk of the linear-Gaussian model.

    ``R(theta) = 0.5 (theta - w)^T feature_cov (theta - w)
    + 0.5 noise_std^2``; the offset must be finite, so a ``noise_std`` whose
    square overflows float64 raises :class:`InvalidRangeError`.
    """
    _typed(task, RegressionTask, "task")
    return QuadraticLoss(task.feature_cov, task.true_weights, _noise_risk(task.noise_std))


@np.errstate(over="ignore")
def _noise_risk(noise_std: float) -> float:
    """``0.5 noise_std^2``, the population risk's offset; inf if that overflows."""
    # numpy's power on a float64 is the float's: the same C pow, without OverflowError
    return float(0.5 * np.float64(noise_std)**2)


def _gap_trials(
    task: RegressionTask,
    sgd: SgdDynamics,
    prior: GaussianMeasure,
    runs: list[tuple[SampleSpec, _Streams]],
) -> tuple[list[float], list[float]]:
    """Generalization gaps and bounds of the gap trials of ``runs``,
    evaluated in stacked groups (module docstring).

    ``runs`` holds ``(spec, streams)`` pairs that cover the trials in
    order: a trial for each of ``streams``, of ``spec.sample_size`` rows,
    bounded at ``spec``.  A trial draws its data from its stream, takes
    the exact empirical quadratic, and uses the analytic stationary
    Gaussian of the SGD dynamics on it as the posterior; its gap is the
    posterior's expected risk minus its empirical one."""
    return tuple(column.tolist() for column in _in_groups(
        lambda parts: _gap_group(task, sgd, prior, parts),
        [((spec, streams), len(streams), spec.sample_size * task.dim) for spec, streams in runs]))


@np.errstate(over="ignore", invalid="ignore")  # an overflow fails the gap check instead
def _gap_group(task, sgd, prior, parts):
    """:func:`_gap_trials` on one group, whose ``((spec, streams), start,
    stop)`` parts hold the trials of ``streams[start:stop]``, bounded at
    ``spec``; raises at the first check that a trial fails, in the order a
    trial-by-trial loop makes the checks.  The trials of each part are
    drawn and fitted together, and the laws of all of them are solved as
    one stack."""
    draws = [_datasets(task, spec.sample_size, streams[start:stop])
             for (spec, streams), start, stop in parts]
    grams = [_symmetrized(_gram(x)) for x, _ in draws]
    hessian = np.concatenate(grams)
    lam, vecs = np.linalg.eigh(hessian)
    design = _spd_verdict(lam)
    Verdict(design.bad, lambda i: _singular_design(design.error(i))).check()
    minimizer, offset = map(np.concatenate, zip(*[
        _least_squares(x, y, gram) for (x, y), gram in zip(draws, grams)]))
    _check_dims(task, sgd)  # as stability_check does, with the task's dimension for the loss's
    radius = _step_radius(sgd.lr, lam)
    Verdict(~(radius < 1.0), lambda i: UnstableDynamicsError(
        f"stability_check failed on the empirical Hessian: spectral radius "
        f"{_item(radius, i):.6g} >= 1"
    )).check()
    cov, law = _lyapunov_in_eigenbasis(
        hessian, lam, vecs, _stationary_rhs(sgd.noise_cov, sgd.lr, sgd.batch_size).entries)
    _check_spd_by_discs(cov, law)
    expected = _expected_risks(task.feature_cov.entries, task.true_weights,
                               _noise_risk(task.noise_std), minimizer, cov)
    empirical = _expected_risks(hessian, minimizer, offset, minimizer, cov)
    gap = expected - empirical
    Verdict(~np.isfinite(gap), lambda i: NumericalInconsistencyError(
        f"gap trial risks are not finite (expected {_item(expected, i):.6g}, empirical "
        f"{_item(empirical, i):.6g}): the data are too large for float64"
    )).check()
    kl = _kl_divergences(cov, minimizer, prior)
    bounds = []
    for (spec, _), start, stop in parts:
        bounds.append(mcallester_bound(kl[:stop - start], spec))
        kl = kl[stop - start:]
    return gap, np.concatenate(bounds)


def _trial_streams(seeds: Sequence[int]) -> _Streams:
    """The data streams of the gap trials with ``seeds``, as one stack: a
    trial draws its data with ``child_seed(seed, 0)``, derived here from
    the trial seed, already checked, with no second check."""
    return _streams([_digest_seed(_seed_text((seed, 0))) for seed in seeds])


@dataclass(frozen=True)
class TrialRecord:
    """Row of a validity experiment: one seed, one gap, one bound."""

    seed: int
    gap: float
    bound_value: float

    @property
    def violated(self) -> bool:
        return self.gap > self.bound_value


@dataclass(frozen=True)
class ValidityResult:
    violation_count: int
    gaps: dict
    bounds: dict
    records: tuple[TrialRecord, ...]
    note: str = BOUNDED_LOSS_NOTE


def _summary(values: Sequence[float]) -> dict:
    """Order statistics, mean and sample deviation of two or more finite floats;
    the deviation is ``np.std(ddof=1)`` of the values scaled exactly by a power
    of two that puts the largest in [0.5, 1), so no square overflows."""
    exponent = math.frexp(max(map(abs, values)))[1]
    return {
        "min": min(values),
        "max": max(values),
        "mean": statistics.fmean(values),
        "median": statistics.median(values),
        "std": math.ldexp(float(np.std(np.ldexp(values, -exponent), ddof=1)), exponent),
    }


def _check_sample_sizes(ns: Sequence[int], dim: int) -> None:
    """Each sample size is at least the feature dimension, since with fewer
    rows than features every design Gram matrix is singular, and the
    design of one trial, ``n * dim`` floats, fits ``RECORD_FLOATS``."""
    if any(n < dim for n in ns):
        raise InvalidRangeError(
            f"every n must be >= feature dimension {dim}, got {_shown(list(ns))}")
    largest = max(ns)
    _check_held("n={}: the design of one trial holds", largest * dim, dim, largest)


def bound_validity_experiment(
    task: RegressionTask,
    sgd: SgdDynamics,
    spec: SampleSpec,
    prior: GaussianMeasure,
    trials: int,
    master_seed: int = 0,
) -> ValidityResult:
    """Run ``trials`` independent gap trials of ``spec.sample_size`` rows
    each and count bound violations.

    The sample size must be at least the feature dimension, which is
    checked before any data are drawn."""
    _typed(task, RegressionTask, "task")
    _typed(sgd, SgdDynamics, "sgd")
    _typed(spec, SampleSpec, "spec")
    _typed(prior, GaussianMeasure, "prior")
    trials = _integer(trials, "trials", 10)
    _check_sample_sizes([spec.sample_size], task.dim)
    _check_held("trials: the per-trial results hold", VALIDITY_TRIAL_FLOATS * trials, task.dim)
    seeds = _child_seeds(master_seed, [(index,) for index in range(trials)])
    gaps, bounds = _gap_trials(task, sgd, prior, [(spec, _trial_streams(seeds))])
    records = tuple(map(TrialRecord, seeds, gaps, bounds))
    return ValidityResult(
        violation_count=sum(r.violated for r in records),
        gaps=_summary(gaps),
        bounds=_summary(bounds),
        records=records,
    )


def scaling_experiment(
    task: RegressionTask,
    ns: Sequence[int],
    sgd: SgdDynamics,
    delta: float,
    master_seed: int = 0,
    trials_per_n: int = 20,
) -> list[dict]:
    """Mean bound and mean gap as the sample size grows, against the
    N(0, I) prior.

    ``ns`` must be strictly increasing with every entry at least the
    feature dimension.  Each output row carries ``{"n", "mean_bound",
    "mean_gap", "ratio_bound_4n"}`` where the ratio column holds
    ``mean_bound(4n) / mean_bound(n)`` whenever ``4n`` is also present.
    """
    _typed(task, RegressionTask, "task")
    _typed(sgd, SgdDynamics, "sgd")
    # a sample size below the dimension fails _check_sample_sizes, with its message
    ns = [_integer(n, "each n", None) for n in ns]
    trials_per_n = _integer(trials_per_n, "trials_per_n")
    if not ns:
        raise InvalidRangeError("ns must hold at least one sample size")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise InvalidRangeError(f"ns must be strictly increasing, got {_shown(ns)}")
    _check_sample_sizes(ns, task.dim)
    _check_held("trials: every n's trials hold", SCALING_TRIAL_FLOATS * trials_per_n * len(ns),
                task.dim)
    streams = _trial_streams(_child_seeds(
        master_seed, [(n_index, trial) for n_index in range(len(ns))
                      for trial in range(trials_per_n)]))
    slices = [slice(n_index * trials_per_n, (n_index + 1) * trials_per_n)
              for n_index in range(len(ns))]
    gaps, bounds = _gap_trials(task, sgd, standard_gaussian(task.dim), [
        (SampleSpec(n, delta), streams[run]) for n, run in zip(ns, slices)])
    means = {n: (statistics.fmean(bounds[run]), statistics.fmean(gaps[run]))
             for n, run in zip(ns, slices)}
    return [{
        "n": n,
        "mean_bound": means[n][0],
        "mean_gap": means[n][1],
        "ratio_bound_4n": means[4 * n][0] / means[n][0] if 4 * n in means else None,
    } for n in ns]
