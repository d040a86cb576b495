"""Mean-reverting diffusion models of SGD and PAC-Bayes transfer bounds.

Dense symmetric linear algebra (Lyapunov/Stein solvers), Gaussian
stationary measures with exact and Monte-Carlo KL divergences, a
discrete SGD chain simulator with a two-stage pre-train/fine-tune
pipeline, PAC-Bayes bound evaluators with two domain-discrepancy
measures, and a synthetic regression testbed that measures
generalization gaps against the bounds.
"""

from .bounds import (
    BoundReport,
    DomainPair,
    DominanceReport,
    Lemma2Result,
    SampleSpec,
    discrepancy_d,
    discrepancy_d_tilde,
    dominance_report,
    finetune_bound,
    finetune_bound_dimension,
    kl_upper_bound_trace,
    lemma2_check,
    lemma2_survey,
    mcallester_bound,
    pretrain_bound,
)
from .diffusion import (
    QuadraticLoss,
    SgdDynamics,
    StabilityReport,
    Trajectory,
    TwoStageResult,
    estimate_stationary,
    sgd_step,
    simulate_chain,
    stability_check,
    two_stage_run,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidRangeError,
    InvalidSpecError,
    NotPositiveDefiniteError,
    NotSquareError,
    NumericalInconsistencyError,
    OupacError,
    ResidualTooLargeError,
    SingularDesignError,
    SpectralRadiusTooLargeError,
    TooFewSamplesError,
    UnstableDynamicsError,
)
from .gaussian import (
    GaussianMeasure,
    MomentEstimate,
    kl_divergence,
    log_density,
    mc_kl_estimate,
    sample,
    standard_gaussian,
    stationary_from_dynamics,
    stein_stationary_covariance,
)
from .linalg import (
    SpdMatrix,
    SymmetricMatrix,
    cholesky_factor,
    log_det,
    make_spd,
    random_spd,
    solve_continuous_lyapunov,
    solve_discrete_stein,
)
from .regression import (
    Dataset,
    RegressionTask,
    TrialRecord,
    ValidityResult,
    bound_validity_experiment,
    empirical_quadratic,
    expected_risk_gaussian,
    generate_dataset,
    population_quadratic,
    scaling_experiment,
)
from .rng import child_seed, make_rng

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "DomainPair", "DominanceReport", "Lemma2Result", "SampleSpec",
    "discrepancy_d", "discrepancy_d_tilde", "dominance_report", "finetune_bound",
    "finetune_bound_dimension", "kl_upper_bound_trace", "lemma2_check",
    "lemma2_survey", "mcallester_bound", "pretrain_bound",
    "QuadraticLoss", "SgdDynamics", "StabilityReport", "Trajectory",
    "TwoStageResult", "estimate_stationary", "sgd_step", "simulate_chain",
    "stability_check", "two_stage_run",
    "ConfigError", "DimensionMismatchError", "InvalidRangeError",
    "InvalidSpecError", "NotPositiveDefiniteError", "NotSquareError",
    "NumericalInconsistencyError", "OupacError", "ResidualTooLargeError",
    "SingularDesignError", "SpectralRadiusTooLargeError", "TooFewSamplesError",
    "UnstableDynamicsError",
    "GaussianMeasure", "MomentEstimate", "kl_divergence", "log_density",
    "mc_kl_estimate", "sample", "standard_gaussian",
    "stationary_from_dynamics", "stein_stationary_covariance",
    "SpdMatrix", "SymmetricMatrix", "cholesky_factor", "log_det",
    "make_spd", "random_spd", "solve_continuous_lyapunov",
    "solve_discrete_stein",
    "Dataset", "RegressionTask", "TrialRecord", "ValidityResult",
    "bound_validity_experiment", "empirical_quadratic",
    "expected_risk_gaussian", "generate_dataset",
    "population_quadratic", "scaling_experiment",
    "child_seed", "make_rng",
]
