"""Regression testbed: data generation, exact quadratics, gaps vs bounds.

Monte-Carlo oracles here draw fresh parameters or fresh data and
average the loss directly; closed forms must agree within three
standard errors.
"""

import statistics
import tracemalloc
import warnings
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oupac import (
    GaussianMeasure,
    InvalidRangeError,
    OupacError,
    QuadraticLoss,
    RegressionTask,
    SampleSpec,
    SgdDynamics,
    SingularDesignError,
    TrialRecord,
    UnstableDynamicsError,
    bound_validity_experiment,
    empirical_quadratic,
    estimate_stationary,
    expected_risk_gaussian,
    generate_dataset,
    kl_divergence,
    make_spd,
    mcallester_bound,
    population_quadratic,
    random_spd,
    scaling_experiment,
    simulate_chain,
    stability_check,
    standard_gaussian,
    stationary_from_dynamics,
    stein_stationary_covariance,
)
from oupac import linalg, regression
from oupac.rng import _streams, child_seed, make_rng


def default_task(noise_std: float = 1.0, dim: int = 2) -> RegressionTask:
    weights = np.array([0.3, -0.2, 0.1, 0.4][:dim])
    return RegressionTask(weights, make_spd(np.eye(dim)), noise_std)


def default_dynamics(dim: int = 2) -> SgdDynamics:
    return SgdDynamics(0.1, 10, np.eye(dim))


class TestGenerateDataset:
    def test_noiseless_targets_exact(self):
        task = default_task(noise_std=0.0)
        data = generate_dataset(task, 10, seed=3)
        np.testing.assert_array_equal(data.targets, data.features @ task.true_weights)

    def test_feature_covariance_concentrates(self):
        data = generate_dataset(default_task(), 100_000, seed=1)
        empirical = data.features.T @ data.features / 100_000
        assert np.linalg.norm(empirical - np.eye(2), "fro") <= 0.02

    def test_deterministic(self):
        task = default_task()
        a = generate_dataset(task, 100, seed=9)
        b = generate_dataset(task, 100, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_correlated_features(self):
        cov = make_spd([[1.0, 0.6], [0.6, 1.0]])
        task = RegressionTask(np.zeros(2), cov, 0.5)
        data = generate_dataset(task, 50_000, seed=2)
        empirical = data.features.T @ data.features / 50_000
        np.testing.assert_allclose(empirical, cov.entries, atol=0.03)

    @pytest.mark.parametrize("sample_size", [0, -3, 2.5])
    def test_sample_size_must_be_a_positive_integer(self, sample_size):
        with pytest.raises(InvalidRangeError,
                           match=f"^sample_size must be a positive integer, got {sample_size}$"):
            generate_dataset(default_task(), sample_size, seed=0)

    def test_a_seed_alone_is_not_read_as_the_sample_size(self):
        with pytest.raises(TypeError):
            generate_dataset(default_task(), 3)


class TestEmpiricalQuadratic:
    def test_interpolating_design(self):
        from oupac.regression import Dataset

        data = Dataset(np.eye(2), np.array([1.0, 2.0]), seed=0)
        quad = empirical_quadratic(data)
        np.testing.assert_allclose(quad.hessian.entries, 0.5 * np.eye(2), rtol=1e-14)
        np.testing.assert_allclose(quad.minimizer, [1.0, 2.0], rtol=1e-12)
        assert quad.offset == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_recovers_weights(self):
        task = default_task(noise_std=0.0)
        quad = empirical_quadratic(generate_dataset(task, 50, seed=4))
        assert quad.offset == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(quad.minimizer, task.true_weights, atol=1e-8)

    def test_reconstructs_direct_average(self):
        # direct-sum oracle: mean(0.5 (y - x theta)^2) at random theta
        data = generate_dataset(default_task(), 200, seed=5)
        quad = empirical_quadratic(data)
        rng = make_rng(6)
        for _ in range(20):
            theta = rng.standard_normal(2) * 2.0
            residuals = data.targets - data.features @ theta
            direct = 0.5 * float(residuals @ residuals) / 200
            assert quad.value(theta) == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("field, features, targets", [
        ("features", [[1.0, np.nan], [0.0, 1.0]], [1.0, 2.0]),
        ("features", [[np.inf, 0.0], [0.0, 1.0]], [1.0, 2.0]),
        ("targets", np.eye(2), [1.0, np.nan]),
        ("targets", np.eye(2), [-np.inf, 2.0]),
    ])
    def test_non_finite_data_rejected_at_construction(self, field, features, targets):
        from oupac.regression import Dataset

        with pytest.raises(InvalidRangeError, match=f"^{field} contains non-finite entries$"):
            Dataset(np.array(features), np.array(targets), seed=0)

    def test_singular_design_rejected(self):
        from oupac.regression import Dataset

        features = np.array([[1.0, 0.0]])  # one row, rank 1
        data = Dataset(features, np.array([1.0]), seed=0)
        with pytest.raises(SingularDesignError):
            empirical_quadratic(data)


class TestExpectedRiskGaussian:
    def test_trace_only(self):
        loss = QuadraticLoss(make_spd(np.eye(2)), np.zeros(2))
        q = GaussianMeasure(np.zeros(2), make_spd(np.eye(2)))
        assert expected_risk_gaussian(loss, q) == pytest.approx(1.0, rel=1e-14)

    def test_mixed_example(self):
        loss = QuadraticLoss(make_spd(np.diag([2.0, 0.5])), np.zeros(2))
        q = GaussianMeasure(np.array([1.0, 0.0]), make_spd(0.1 * np.eye(2)))
        assert expected_risk_gaussian(loss, q) == pytest.approx(1.125, rel=1e-14)

    def test_point_mass_limit(self):
        # smallest admissible covariance scale; risk converges to the
        # pointwise loss at the mean
        loss = QuadraticLoss(make_spd(np.diag([1.0, 2.0])), np.array([0.5, 0.5]), 0.1)
        mu = np.array([1.0, -1.0])
        q = GaussianMeasure(mu, make_spd(2e-10 * np.eye(2)))
        assert expected_risk_gaussian(loss, q) == pytest.approx(
            loss.value(mu), abs=1e-9
        )

    def test_matches_parameter_sampling_oracle(self):
        from oupac import sample

        for seed in range(50):
            dim = 1 + seed % 4
            loss = QuadraticLoss(
                random_spd(dim, 0.2, 3.0, seed=seed),
                make_rng(seed + 40).standard_normal(dim),
                offset=float(make_rng(seed + 80).uniform(0, 2)),
            )
            q = GaussianMeasure(
                make_rng(seed + 120).standard_normal(dim),
                random_spd(dim, 0.1, 2.0, seed=seed + 160),
            )
            draws = sample(q, 10**6, seed=seed + 200)
            deltas = draws - loss.minimizer
            values = loss.offset + 0.5 * np.sum(
                (deltas @ loss.hessian.entries) * deltas, axis=1
            )
            std_error = values.std(ddof=1) / np.sqrt(len(values))
            assert expected_risk_gaussian(loss, q) == pytest.approx(
                float(values.mean()), abs=3 * std_error
            )


class TestPopulationQuadratic:
    def test_noiseless_offset_zero(self):
        assert population_quadratic(default_task(noise_std=0.0)).offset == 0.0

    def test_irreducible_error_at_truth(self):
        task = default_task(noise_std=0.7)
        quad = population_quadratic(task)
        assert quad.value(task.true_weights) == pytest.approx(0.5 * 0.49, rel=1e-14)

    def test_matches_fresh_data_oracle(self):
        task = RegressionTask(
            np.array([0.5, -1.0]), make_spd([[1.0, 0.3], [0.3, 2.0]]), 0.8
        )
        quad = population_quadratic(task)
        rng = make_rng(1234)
        factor = np.linalg.cholesky(task.feature_cov.entries)
        n = 10**6
        x = rng.standard_normal((n, 2)) @ factor.T
        y = x @ task.true_weights + task.noise_std * rng.standard_normal(n)
        for seed in range(5):
            theta = make_rng(seed).standard_normal(2)
            losses = 0.5 * (y - x @ theta) ** 2
            std_error = losses.std(ddof=1) / np.sqrt(n)
            assert quad.value(theta) == pytest.approx(
                float(losses.mean()), abs=3 * std_error
            )


class TestBoundValidityExperiment:
    def test_few_violations_and_positive_bounds(self):
        task = default_task()
        result = bound_validity_experiment(
            task, default_dynamics(), SampleSpec(100, 0.05), standard_gaussian(2),
            trials=50, master_seed=3,
        )
        assert result.violation_count <= 2
        assert result.bounds["min"] > 0
        assert result.gaps["mean"] <= result.bounds["mean"]
        assert len(result.records) == 50

    def test_trial_floor(self):
        task = default_task()
        with pytest.raises(ValueError):
            bound_validity_experiment(
                task, default_dynamics(), SampleSpec(100, 0.05),
                standard_gaussian(2), trials=5,
            )

    def test_noiseless_gaps_concentrate_below_their_bounds(self):
        task = default_task(noise_std=0.0)
        result = bound_validity_experiment(
            task, default_dynamics(), SampleSpec(2000, 0.05), standard_gaussian(2),
            trials=10, master_seed=13,
        )
        assert all(abs(record.gap) <= 0.05 for record in result.records)
        assert result.violation_count == 0

    def test_deterministic(self):
        args = (default_task(), default_dynamics(), SampleSpec(100, 0.05), standard_gaussian(2))
        first = bound_validity_experiment(*args, trials=10, master_seed=21)
        assert first == bound_validity_experiment(*args, trials=10, master_seed=21)
        assert first != bound_validity_experiment(*args, trials=10, master_seed=22)

    def test_a_record_is_violated_only_when_its_gap_exceeds_its_bound(self):
        assert TrialRecord(seed=0, gap=0.2, bound_value=0.1).violated
        assert not TrialRecord(seed=0, gap=0.1, bound_value=0.1).violated

    def test_note_records_bounded_loss_caveat(self):
        result = bound_validity_experiment(
            default_task(), default_dynamics(), SampleSpec(100, 0.05), standard_gaussian(2),
            trials=10, master_seed=1,
        )
        assert "unbounded" in result.note


@pytest.mark.parametrize("run", [
    lambda task, sgd: bound_validity_experiment(task, sgd, SampleSpec(2, 0.05),
                                                standard_gaussian(task.dim), trials=10),
    lambda task, sgd: scaling_experiment(task, [2, 8], sgd, 0.05),
], ids=["validity", "scaling"])
def test_fewer_rows_than_features_rejected_before_any_data_are_drawn(monkeypatch, run):
    def no_data(*args):
        raise AssertionError("data were drawn before the sample-size check")

    monkeypatch.setattr(regression, "_datasets", no_data)
    with pytest.raises(InvalidRangeError, match="every n must be >= feature dimension 3"):
        run(default_task(dim=3), default_dynamics(3))


class TestScalingExperiment:
    def test_ratio_band_and_monotone_bounds(self):
        task = default_task()
        rows = scaling_experiment(
            task, [2500, 10_000, 40_000], default_dynamics(), 0.05,
            master_seed=11, trials_per_n=8,
        )
        bounds = [row["mean_bound"] for row in rows]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))
        for row in rows[:2]:
            assert row["ratio_bound_4n"] is not None
            assert 0.45 <= row["ratio_bound_4n"] <= 0.60
        assert rows[2]["ratio_bound_4n"] is None

    def test_gap_trend_nonincreasing(self):
        task = default_task()
        rows = scaling_experiment(
            task, [100, 400, 1600, 6400], default_dynamics(), 0.05,
            master_seed=5, trials_per_n=40,
        )
        gaps = [row["mean_gap"] for row in rows]
        correlation = scipy.stats.spearmanr(gaps, [row["n"] for row in rows]).statistic
        assert correlation <= 0

    def test_invalid_sizes_rejected(self):
        task = default_task()
        with pytest.raises(ValueError):
            scaling_experiment(task, [100, 100], default_dynamics(), 0.05)
        with pytest.raises(ValueError):
            scaling_experiment(task, [1, 100], default_dynamics(), 0.05)
        with pytest.raises(InvalidRangeError, match="^ns must hold at least one sample size$"):
            scaling_experiment(task, [], default_dynamics(), 0.05)


def test_realizable_gap_shrinks_with_sample_size():
    # matched seeds: larger samples give smaller gaps in the noiseless case
    gaps = {}
    for n in (100, 10_000):
        result = bound_validity_experiment(
            default_task(noise_std=0.0), default_dynamics(), SampleSpec(n, 0.05),
            standard_gaussian(2), trials=20, master_seed=100,
        )
        gaps[n] = [abs(record.gap) for record in result.records]
    assert np.median(gaps[10_000]) < np.median(gaps[100])


# ---------------------------------------------------------------------------
# the stacked trial pipeline against the trial-by-trial loop it replaced


class _Trial(NamedTuple):
    expected_risk: float
    empirical_risk: float
    gap: float
    bound_value: float
    violated: bool


def _reference_gap_trial(task, sgd, spec, prior, seed=0):
    """Reference: one gap trial as it was computed before trials were stacked."""
    data = generate_dataset(task, spec.sample_size, child_seed(seed, 0))
    empirical = empirical_quadratic(data)
    report = stability_check(empirical, sgd)
    if not report.stable:
        raise UnstableDynamicsError(
            f"stability_check failed on the empirical Hessian: spectral radius "
            f"{report.spectral_radius:.6g} >= 1"
        )
    posterior = stationary_from_dynamics(
        empirical.hessian, empirical.minimizer, sgd.noise_cov, sgd.lr, sgd.batch_size,
    )
    return _trial_of_posterior(task, spec, prior, empirical, posterior)


def _trial_of_posterior(task, spec, prior, empirical, posterior):
    """Risks, gap and bound of one posterior on one dataset's empirical loss."""
    expected = expected_risk_gaussian(population_quadratic(task), posterior)
    empirical_val = expected_risk_gaussian(empirical, posterior)
    bound_value = mcallester_bound(kl_divergence(posterior, prior), spec)
    gap = expected - empirical_val
    return _Trial(
        expected_risk=expected,
        empirical_risk=empirical_val,
        gap=gap,
        bound_value=bound_value,
        violated=gap > bound_value,
    )


def _reference_validity(task, sgd, spec, prior, trials, master_seed=0):
    """Reference: bound_validity_experiment's loop, one gap trial per seed."""
    return [_reference_gap_trial(task, sgd, spec, prior, seed=child_seed(master_seed, index))
            for index in range(trials)]


def _reference_scaling(task, ns, sgd, delta, master_seed, trials_per_n):
    """Reference: scaling_experiment's mean gap and mean bound per n."""
    rows = []
    for n_index, n in enumerate(ns):
        trials = [_reference_gap_trial(task, sgd, SampleSpec(n, delta),
                                       standard_gaussian(task.dim),
                                       seed=child_seed(master_seed, n_index, trial))
                  for trial in range(trials_per_n)]
        rows.append((statistics.fmean(t.gap for t in trials),
                     statistics.fmean(t.bound_value for t in trials)))
    return rows


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= 1e-12 * scale


def _oracle_task(dim: int, correlated: bool, noise_std: float) -> RegressionTask:
    weights = make_rng(dim, 1).uniform(-1.0, 1.0, dim)
    cov = random_spd(dim, 0.5, 2.0, seed=dim) if correlated else make_spd(np.eye(dim))
    return RegressionTask(weights, cov, noise_std)


@pytest.mark.parametrize("dim", [1, 2, 8])
@pytest.mark.parametrize("correlated", [False, True])
@pytest.mark.parametrize("noise_std", [0.0, 1.0])
def test_stacked_trials_match_the_trial_by_trial_loop(dim, correlated, noise_std):
    task = _oracle_task(dim, correlated, noise_std)
    sgd = SgdDynamics(0.1, 10, np.eye(dim))
    spec = SampleSpec(5 * dim + 10, 0.05)
    prior = standard_gaussian(dim)
    args = (task, sgd, spec, prior)
    result = bound_validity_experiment(*args, trials=12, master_seed=dim)
    want = _reference_validity(*args, trials=12, master_seed=dim)
    for record, trial in zip(result.records, want, strict=True):
        scale = max(abs(trial.expected_risk), abs(trial.empirical_risk), trial.bound_value)
        assert _close(record.gap, trial.gap, scale)
        assert _close(record.bound_value, trial.bound_value, scale)
        assert record.violated == trial.violated


@pytest.mark.parametrize("dim", [1, 2, 8])
@pytest.mark.parametrize("correlated", [False, True])
def test_simulated_chain_moments_match_the_analytic_posterior(dim, correlated):
    # the whole pipeline with the posterior's moments estimated from a
    # simulated chain instead of solved for: on the same dataset, risks and
    # bound agree with the analytic posterior's up to chain noise and the
    # small-rate gap between the chain's Stein law and the Lyapunov one
    task = _oracle_task(dim, correlated, 1.0)
    sgd = SgdDynamics(0.1, 10, np.eye(dim))
    spec = SampleSpec(5 * dim + 10, 0.05)
    prior = standard_gaussian(dim)
    empirical = empirical_quadratic(generate_dataset(task, spec.sample_size, child_seed(31, 0)))
    trajectory = simulate_chain(empirical.minimizer, empirical, sgd, 200_000, stride=10,
                                seed=child_seed(31, 1))
    estimate = estimate_stationary(trajectory)
    simulated = GaussianMeasure(estimate.mean, make_spd(estimate.covariance.entries))
    analytic = stationary_from_dynamics(empirical.hessian, empirical.minimizer,
                                        sgd.noise_cov, sgd.lr, sgd.batch_size)
    got = _trial_of_posterior(task, spec, prior, empirical, simulated)
    want = _trial_of_posterior(task, spec, prior, empirical, analytic)
    assert want == _reference_gap_trial(task, sgd, spec, prior, seed=31)
    for field in ("expected_risk", "empirical_risk", "bound_value"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=0.05)
    # the excess risk 0.5 tr(A S) isolates the covariance; against the exact
    # Stein law it has no bias, and over 30 seeds per case its relative
    # error has sd <= 0.02 and max 0.06
    stein = stein_stationary_covariance(empirical.hessian, sgd.noise_cov, sgd.lr,
                                        sgd.batch_size)
    exact = GaussianMeasure(empirical.minimizer, make_spd(stein.entries))
    excess = [expected_risk_gaussian(empirical, posterior) - empirical.offset
              for posterior in (simulated, exact)]
    assert excess[0] == pytest.approx(excess[1], rel=0.1)


@pytest.mark.parametrize("dim, ns", [(2, [6, 12, 24]), (8, [24, 48, 96])])
def test_stacked_scaling_matches_the_trial_by_trial_loop(dim, ns):
    task = _oracle_task(dim, True, 1.0)
    sgd = SgdDynamics(0.1, 10, np.eye(dim))
    rows = scaling_experiment(task, ns, sgd, 0.05, master_seed=4, trials_per_n=5)
    for row, (gap, bound) in zip(rows, _reference_scaling(task, ns, sgd, 0.05, 4, 5), strict=True):
        assert _close(row["mean_gap"], gap, bound) and _close(row["mean_bound"], bound, bound)


def _raised(call):
    with pytest.raises(OupacError) as caught:
        call()
    return type(caught.value), str(caught.value)


#: Features with a 5e-10 variance direction: with n = 6 the Gram matrix of
#: some trials falls below the SPD tolerance, and at lr 1.0 the Hessians of
#: others are too steep.  The seeds below put an unstable trial (third
#: check) before a singular one (first check).
_MIXED = RegressionTask(np.array([0.3, -0.2]), make_spd(np.diag([1.0, 5e-10])), 1.0)


def _group_sizes(monkeypatch) -> list[int]:
    """The number of trials of each group that _gap_trials evaluates, as it runs."""
    sizes = []
    run = regression._gap_group

    def counted(task, sgd, prior, parts):
        sizes.append(sum(stop - start for _, start, stop in parts))
        return run(task, sgd, prior, parts)
    monkeypatch.setattr(regression, "_gap_group", counted)
    return sizes


@pytest.mark.parametrize("group_floats", [linalg.GROUP_FLOATS, 1, 2 * 6 * 2])
@pytest.mark.parametrize("task, n, lr, master_seed, error", [
    (_MIXED, 6, 1.0, 6, UnstableDynamicsError),
    # n >= d, and the 5e-10 variance direction makes trials 2, 5 and 9 singular
    (RegressionTask(np.array([0.3, -0.2, 0.1]), make_spd(np.diag([1.0, 1.0, 5e-10])), 1.0),
     7, 0.1, 0, SingularDesignError),
    (default_task(), 20, 1.2, 0, UnstableDynamicsError),
])
def test_validity_raises_what_the_loop_raises_first(monkeypatch, group_floats, task, n, lr,
                                                    master_seed, error):
    monkeypatch.setattr(linalg, "GROUP_FLOATS", group_floats)
    args = (task, SgdDynamics(lr, 10, np.eye(task.dim)), SampleSpec(n, 0.05),
            standard_gaussian(task.dim))
    want = _raised(lambda: _reference_validity(*args, trials=12, master_seed=master_seed))
    assert want[0] is error
    sizes = _group_sizes(monkeypatch)
    assert _raised(lambda: bound_validity_experiment(*args, trials=12,
                                                     master_seed=master_seed)) == want
    # a group of one trial each, or all twelve trials and then a replay of one each
    if group_floats != 2 * 6 * 2:
        assert sizes[0] == (1 if group_floats == 1 else 12)
        assert set(sizes[1:]) <= {1}


@pytest.mark.parametrize("group_floats", [linalg.GROUP_FLOATS, 1])
@pytest.mark.parametrize("task, ns, lr, master_seed", [
    (_MIXED, [6, 9], 1.0, 119),
    (RegressionTask(np.array([0.3, -0.2]), make_spd(np.eye(2)), 1.0), [4, 8, 16], 1.2, 0),
])
def test_scaling_raises_what_the_loop_raises_first(monkeypatch, group_floats, task, ns, lr,
                                                   master_seed):
    monkeypatch.setattr(linalg, "GROUP_FLOATS", group_floats)
    sgd = SgdDynamics(lr, 10, np.eye(task.dim))
    want = _raised(lambda: _reference_scaling(task, ns, sgd, 0.05, master_seed, 8))
    assert want[0] is UnstableDynamicsError
    sizes = _group_sizes(monkeypatch)
    assert _raised(lambda: scaling_experiment(task, ns, sgd, 0.05, master_seed=master_seed,
                                              trials_per_n=8)) == want
    # one group of every n's trials, or one trial each; then a replay of one each
    assert set(sizes) <= ({1} if group_floats == 1 else {8 * len(ns), 1})
    assert 8 * len(ns) in sizes or group_floats == 1


def test_scaling_raises_a_later_n_failure_from_inside_a_mixed_group(monkeypatch):
    # at master seed 221 every trial at n = 4 and 8 passes and trial 4 at
    # n = 16 is unstable: the one group of all 24 trials raises, and its
    # replay raises at its 21st trial what the loop raises
    task = RegressionTask(np.array([0.3, -0.2]), make_spd(np.eye(2)), 1.0)
    sgd = SgdDynamics(1.0, 10, np.eye(2))
    _reference_scaling(task, [4, 8], sgd, 0.05, 221, 8)
    want = _raised(lambda: _reference_scaling(task, [4, 8, 16], sgd, 0.05, 221, 8))
    assert want[0] is UnstableDynamicsError
    sizes = _group_sizes(monkeypatch)
    assert _raised(lambda: scaling_experiment(task, [4, 8, 16], sgd, 0.05, master_seed=221,
                                              trials_per_n=8)) == want
    assert sizes == [24] + [1] * 21


def test_results_do_not_depend_on_the_group_size(monkeypatch):
    task = _oracle_task(2, True, 1.0)
    args = (task, default_dynamics(), SampleSpec(30, 0.05), standard_gaussian(2))
    kwargs = {"trials": 13, "master_seed": 2}
    results = []
    sizes = _group_sizes(monkeypatch)
    for group_floats in (linalg.GROUP_FLOATS, 1, 4 * 30 * 2, 10**12):
        monkeypatch.setattr(linalg, "GROUP_FLOATS", group_floats)
        sizes.clear()
        results.append((bound_validity_experiment(*args, **kwargs).records,
                        scaling_experiment(task, [2, 8, 32], default_dynamics(), 0.05,
                                           master_seed=3, trials_per_n=7)))
        # 13 trials of 60 floats, then in one pass 7 trials each of 4, 16 and 64 floats
        assert sizes == {1: [1] * 34, 240: [4, 4, 4, 1, 15, 3, 3]}.get(
            group_floats, [13, 21])
    assert all(result == results[0] for result in results[1:])


def test_a_singular_design_message_prints_the_smallest_eigh_eigenvalue(monkeypatch):
    # the design check reads the eigenvalues of the one eigh of the group's
    # Hessians (trials 2, 5 and 9 are singular, as in the test above)
    task = RegressionTask(np.array([0.3, -0.2, 0.1]), make_spd(np.diag([1.0, 1.0, 5e-10])), 1.0)
    args = (task, SgdDynamics(0.1, 10, np.eye(3)), SampleSpec(7, 0.05), standard_gaussian(3))
    stacks = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: stacks.append(m) or eigh(m))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: pytest.fail("eigvalsh was called"))
    with pytest.raises(SingularDesignError) as caught:
        bound_validity_experiment(*args, trials=12)
    lam = eigh(stacks[0])[0]
    assert [i for i, row in enumerate(lam) if not row[0] > 1e-10 * row[-1]] == [2, 5, 9]
    assert f"smallest eigenvalue {lam[2, 0]:.6g} <=" in str(caught.value)


def test_each_trial_draws_its_data_with_child_seed_0_of_its_seed():
    seeds = [0, 1, 2**32, 2**63, 2**64 - 1, *(child_seed(9, index) for index in range(5))]
    want = _streams([child_seed(seed, 0) for seed in seeds])
    assert regression._trial_streams(seeds).words.tobytes() == want.words.tobytes()


def test_one_group_makes_the_same_decompositions_for_any_trial_count(monkeypatch):
    counts = {}

    def counting(name):
        original = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in ("eigh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    seen = []
    for trials in (10, 40):
        counts.update(eigh=0, cholesky=0)
        # a fresh task each run: its feature covariance keeps its factor once made
        task = default_task()
        bound_validity_experiment(task, default_dynamics(), SampleSpec(50, 0.05),
                                  standard_gaussian(2), trials=trials)
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert seen[0]["eigh"] >= 1 and seen[0]["cholesky"] >= 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(
    st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=40),
    st.builds(lambda base, noise: [base + x for x in noise], st.floats(-1e6, 1e6),
              st.lists(st.floats(-1e-9, 1e-9), min_size=2, max_size=40)),
    st.builds(lambda value, n: [value] * n, st.floats(-1e300, 1e300), st.integers(2, 40)),
))
@example([0.0, -0.0])
@example([5e-324, 0.0, 1e300])
@example([1e-300, 2e-300, 4e-300])  # whose squares underflow unscaled
@example([1e200, -1e200, 3e199])    # whose squares overflow unscaled
def test_summary_std_is_within_the_two_pass_bound_of_statistics_stdev(values):
    # np.std is the two-pass algorithm: the mean, then the sum S of squared
    # deviations.  After Chan, Golub and LeVeque (1983), with u = eps / 2 and
    # gamma_k = k u / (1 - k u): the computed mean adds n (mean~ - mean)^2 <=
    # gamma_n^2 ||x||^2 to S, summing the squares of the rounded deviations
    # errs by gamma_{n+2} relative, and the division and square root round
    # once each; statistics.stdev is correctly rounded.  So, with kappa^2 =
    # ||x||^2 / S = 1 + n / (n - 1) (mean / std)^2, relative to the exact
    # deviation std: 1 - c <= std~ / std <= sqrt(1 + gamma_n^2 kappa^2) (1 + c),
    # c = gamma_{n+2} / 2 + 3u, written below in squares of exact fractions
    # (which also hold at std = 0, where kappa is infinite)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = Fraction(regression._summary(values)["std"])
    n = len(values)
    u = Fraction(np.finfo(float).eps) / 2

    def gamma(k):
        return k * u / (1 - k * u)
    want = Fraction(statistics.stdev(values))
    mean = sum(map(Fraction, values)) / n
    c = gamma(n + 2) / 2 + 3 * u
    assert got * got >= want * want * (1 - c) ** 2
    assert got * got <= (want * want + gamma(n) ** 2 * (want * want + n * mean * mean / (n - 1))
                         ) * (1 + c) ** 2


@pytest.mark.parametrize("experiment, held", [
    ("validity", regression.VALIDITY_TRIAL_FLOATS),
    ("scaling", regression.SCALING_TRIAL_FLOATS),
])
def test_a_trial_holds_no_more_floats_than_its_check_counts(monkeypatch, experiment, held):
    # the slope of tracemalloc's peak from 4000 to 8000 trials, at d = n = 1 and
    # in groups of 256 trials, so that a group's arrays are a fixed cost and the
    # slope is what each trial holds until the run returns
    monkeypatch.setattr(linalg, "GROUP_FLOATS", 256)
    task = RegressionTask(np.ones(1), make_spd(np.eye(1)), 0.5)
    sgd = SgdDynamics(0.05, 1, np.eye(1))
    run = {
        "validity": lambda trials: bound_validity_experiment(
            task, sgd, SampleSpec(1, 0.05), standard_gaussian(1), trials),
        "scaling": lambda trials: scaling_experiment(task, [1, 2], sgd, 0.05,
                                                     trials_per_n=trials // 2),
    }[experiment]
    run(100)  # the one-time allocations come before the measurement
    peaks = []
    for trials in (4000, 8000):
        tracemalloc.start()
        try:
            run(trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 4000 <= 8 * held
