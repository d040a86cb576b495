"""PAC-Bayes bound evaluators and domain-discrepancy measures.

The complexity terms bound the generalization gap of a randomized
predictor by a square root of (divergence + confidence and sample-size
terms) / sample size.  Two divergence conventions appear throughout:
the KL-consistent sign (log-determinant entering negatively), which the
Monte-Carlo KL oracle confirms, and the flipped ``+log det`` variant,
which is always computed and reported alongside as ``paper_literal_kl``
so the two can be compared.  All logarithms are natural.

D, the paper-literal D and D~ have one home, :func:`_discrepancies`,
which takes one pair or a stack of pairs, and the complexity term one,
:func:`_mcallester`.  :func:`lemma2_survey` evaluates the pairs of a
dimension as stacks, arrays with a leading pair axis, in the groups of
:func:`oupac.linalg._in_groups`: a group makes one QR and one
``eigvalsh`` for its random covariances, one Cholesky per side and one
solve for its pair terms, where a pair-by-pair loop makes each call once
per pair.  Each pair still draws from its own seeded streams.  A pair
term or discrepancy that overflows raises
:class:`NumericalInconsistencyError` (CLI exit code 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidRangeError, InvalidSpecError
from .gaussian import _pair_divergences, check_rate
from .linalg import SpdMatrix, _in_groups, _make_spd_stack, _random_spd_entries, log_det
# cholesky_factor is not called here; bench/tests/test_bench_trace.py reads it from here
from .linalg import cholesky_factor  # noqa: F401
from .rng import child_seed, make_rng

#: A pair holds the discrepancy ordering when D <= D~ + HOLDS_TOLERANCE.
HOLDS_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class DomainPair:
    """Source/target stationary covariances and the minimizer shift."""

    sigma_pt: SpdMatrix
    sigma_ft: SpdMatrix
    shift: np.ndarray

    def __post_init__(self):
        shift = np.asarray(self.shift, dtype=float).reshape(-1).copy()
        if not (self.sigma_pt.dim == self.sigma_ft.dim == shift.shape[0]):
            raise DimensionMismatchError(
                f"dimensions disagree: sigma_pt {self.sigma_pt.dim}, "
                f"sigma_ft {self.sigma_ft.dim}, shift {shift.shape[0]}"
            )
        shift.flags.writeable = False
        object.__setattr__(self, "shift", shift)

    @property
    def dim(self) -> int:
        return self.sigma_pt.dim


@dataclass(frozen=True)
class SampleSpec:
    """Sample size N and confidence level delta for a bound evaluation.

    ``delta = 1`` is admitted as the degenerate no-confidence case
    (its log term vanishes); anything outside ``(0, 1]`` is rejected.
    """

    sample_size: int
    delta: float

    def __post_init__(self):
        if int(self.sample_size) != self.sample_size or self.sample_size < 1:
            raise InvalidSpecError(
                f"sample_size must be a positive integer, got {self.sample_size}"
            )
        if not (0.0 < self.delta <= 1.0):
            raise InvalidSpecError(f"delta must lie in (0, 1], got {self.delta}")


@dataclass(frozen=True)
class BoundReport:
    """Divergence and complexity terms of one bound evaluation.

    ``paper_literal_kl`` is the flipped-sign (+log det) variant of the
    divergence term, reported unclamped so that negative values surface
    the sign discrepancy between the two conventions.
    """

    kl_term: float
    complexity_term: float
    paper_literal_kl: float
    notes: str = ""

    def __post_init__(self):
        if self.complexity_term < 0:
            raise InvalidSpecError("complexity_term must be nonnegative")

    def as_dict(self) -> dict:
        return {
            "kl_term": self.kl_term,
            "complexity_term": self.complexity_term,
            "paper_literal_kl": self.paper_literal_kl,
            "notes": self.notes,
        }


class Lemma2Result(NamedTuple):
    d_value: float
    d_tilde_value: float
    holds: bool
    margin: float


class DominanceReport(NamedTuple):
    pt_term: float
    ft_term: float
    ratio: float


def mcallester_bound(kl, spec: SampleSpec):
    """Square-root complexity addend of the classical PAC-Bayes bound.

    ``sqrt((kl + log(1/delta) + log N + 2) / (2N - 1))``.  A float ``kl``
    gives a float; an array of them (a stack of trials) gives an array.
    """
    kl = np.asarray(kl, dtype=float)
    negative = np.flatnonzero(kl < 0)
    if negative.size:
        raise InvalidSpecError(f"kl must be nonnegative, got {np.ravel(kl)[negative[0]]}")
    bound = _mcallester(kl, spec)
    return float(bound) if bound.ndim == 0 else bound


def _mcallester(kl, spec: SampleSpec):
    """:func:`mcallester_bound` without its sign check: the bound reports
    pass half a divergence term, which on identical domains is a rounding
    error either side of 0."""
    n = spec.sample_size
    numerator = kl + math.log(1.0 / spec.delta) + math.log(n) + 2.0
    return np.sqrt(numerator / (2.0 * n - 1.0))


def _report(kl_term: float, paper_literal_kl: float, spec: SampleSpec, notes: str) -> BoundReport:
    """A :class:`BoundReport` of a doubled divergence ``kl_term``: its
    complexity term is :func:`_mcallester` at ``kl_term / 2``."""
    return BoundReport(kl_term=kl_term, complexity_term=float(_mcallester(kl_term / 2, spec)),
                       paper_literal_kl=paper_literal_kl, notes=notes)


def pretrain_bound(sigma_pt: SpdMatrix, spec: SampleSpec) -> BoundReport:
    """Bound report for the pre-training stage against the N(0, I) prior.

    ``kl_term = tr(S - I) - log det S = 2 KL(N(0, S) || N(0, I))`` and
    ``complexity_term = sqrt((kl_term + 2 log(1/delta) + 2 log N + 4)
    / (4N - 2))``.
    """
    d = sigma_pt.dim
    trace = float(np.trace(sigma_pt.entries))
    ldet = log_det(sigma_pt)
    return _report(trace - d - ldet, ldet + trace - d, spec,
                   "divergence vs standard Gaussian prior; kl_term = 2*KL")


def _discrepancies(sigma_pt, sigma_ft, shift: np.ndarray) -> tuple:
    """(D, paper-literal D, D~) of each pair of a stack (leading axes on every
    argument) or of one pair, from one gaussian_pair_terms call; raises if
    one of them or a term is not finite.  D is exactly 2 KL."""
    d = shift.shape[-1]

    def formulas(trace, log_det_ratio, maha):
        base = trace - d + maha
        return (base + log_det_ratio, base - log_det_ratio,
                _log(trace) + trace + maha + d * math.log(d) - d)

    return _pair_divergences(sigma_ft, sigma_pt, shift, formulas)


def _log(values) -> np.ndarray:
    # math.log, not np.log: numpy's SIMD log differs from libm in the last
    # bit for about 1 value in 2000, which would move the surveys' digits
    values = np.asarray(values)
    return np.reshape([math.log(v) if v > 0 else -math.inf for v in values.ravel().tolist()],
                      values.shape)


def _pair_discrepancies(pair: DomainPair) -> tuple[float, float, float]:
    """:func:`_discrepancies` of one pair, as floats; raises if one is not finite."""
    return tuple(map(float, _discrepancies(pair.sigma_pt, pair.sigma_ft, pair.shift)))


def discrepancy_d(pair: DomainPair, paper_literal: bool = False) -> float:
    """Domain discrepancy built from the two stationary Gaussians.

    Canonical value (default)::

        tr(Spt^-1 Sft - I) + shift^T Spt^-1 shift - log det(Spt^-1 Sft)

    which equals ``2 KL(N(shift, Sft) || N(0, Spt))`` and is therefore
    nonnegative.  With ``paper_literal=True`` the log-determinant enters
    with a plus sign instead; that variant can go negative and is
    returned as-is.
    """
    d_value, literal, _ = _pair_discrepancies(pair)
    return literal if paper_literal else d_value


def discrepancy_d_tilde(pair: DomainPair) -> float:
    """Dimension-dependent domain discrepancy.

    ``log(tr(Spt^-1 Sft)) + tr(Spt^-1 Sft) + shift^T Spt^-1 shift
    + d log d - d``.
    """
    return _pair_discrepancies(pair)[2]


def finetune_bound(pair: DomainPair, spec: SampleSpec) -> BoundReport:
    """Bound report for the fine-tuning stage, prior = source stationary."""
    kl_term, literal, _ = _pair_discrepancies(pair)
    return _report(kl_term, literal, spec,
                   "divergence between fine-tuned and pre-trained stationary measures")


def finetune_bound_dimension(pair: DomainPair, spec: SampleSpec) -> BoundReport:
    """Fine-tuning bound with the dimension-dependent discrepancy."""
    _, literal, kl_term = _pair_discrepancies(pair)
    return _report(kl_term, literal, spec, "dimension-dependent discrepancy variant")


def lemma2_check(pair: DomainPair, tolerance: float = HOLDS_TOLERANCE) -> Lemma2Result:
    """Compare the two discrepancies on one pair.

    ``holds`` is ``d_value <= d_tilde_value + tolerance``.  Whether the
    ordering holds for all SPD pairs is an empirical question, so this
    is a report, not an assertion.
    """
    d_value, _, d_tilde_value = _pair_discrepancies(pair)
    return Lemma2Result(
        d_value=d_value,
        d_tilde_value=d_tilde_value,
        holds=bool(d_value <= d_tilde_value + tolerance),
        margin=d_tilde_value - d_value,
    )


def lemma2_survey(
    dims: Sequence[int] = tuple(range(1, 11)),
    pairs_per_dim: int = 100,
    seed: int = 0,
    eigenvalue_low: float = 0.2,
    eigenvalue_high: float = 5.0,
    shift_scale: float = 1.0,
) -> list[dict]:
    """Random survey of the discrepancy ordering, one row per dimension.

    Each row reports ``{"dim", "pairs", "holds", "holds_fraction",
    "min_margin"}`` over ``pairs_per_dim`` random domain pairs; pair i of
    dimension d has covariances ``random_spd(d, eigenvalue_low,
    eigenvalue_high, child_seed(seed, d, i, k))`` for k = 0, 1 and shift
    ``shift_scale * make_rng(seed, d, i, 2).standard_normal(d)``, and
    counts as holding when :func:`lemma2_check` says so.  The pairs are
    evaluated as stacks (module docstring).  Deterministic for a fixed
    seed.
    """
    if pairs_per_dim < 1:
        raise InvalidRangeError(f"pairs_per_dim must be >= 1, got {pairs_per_dim}")
    rows = []
    for d in dims:
        d_value, d_tilde_value = _in_groups(
            lambda pairs: _survey_group(d, pairs, seed, eigenvalue_low, eigenvalue_high,
                                        shift_scale),
            range(pairs_per_dim), 2 * d * d)
        holds = np.count_nonzero(d_value <= d_tilde_value + HOLDS_TOLERANCE)
        margins = (d_tilde_value - d_value).tolist()
        rows.append({
            "dim": int(d),
            "pairs": int(pairs_per_dim),
            "holds": int(holds),
            "holds_fraction": holds / pairs_per_dim,
            "min_margin": float(min(margins)),
        })
    return rows


def _survey_group(d, pairs, seed, eigenvalue_low, eigenvalue_high, shift_scale):
    """D and D~ of the surveyed pairs ``pairs`` of dimension d, as stacks.
    The covariances are drawn interleaved (source, target, source, ...), so
    that a pair's source covariance fails before its target one."""
    seeds = [child_seed(seed, d, i, side) for i in pairs for side in (0, 1)]
    entries = _make_spd_stack(_random_spd_entries(d, eigenvalue_low, eigenvalue_high, seeds))
    shifts = shift_scale * np.array([make_rng(seed, d, i, 2).standard_normal(d) for i in pairs])
    d_value, _, d_tilde_value = _discrepancies(entries[0::2], entries[1::2], shifts)
    return d_value, d_tilde_value


def kl_upper_bound_trace(
    hessian: SpdMatrix,
    noise_cov: SpdMatrix,
    lr: float,
    batch_size: int,
    sigma: SpdMatrix,
) -> float:
    """Trace-based upper bound on the divergence from the N(0, I) prior.

    ``(lr / batch_size) * tr(C A^-1) / 4 - log det(S) / 2 - d / 2``.
    The stationary covariance satisfies ``tr(S) = (lr / batch_size)
    * tr(C A^-1) / 2`` exactly, so when ``sigma`` is the stationary
    solution this equals the exact KL divergence.
    """
    if not (hessian.dim == noise_cov.dim == sigma.dim):
        raise DimensionMismatchError(
            f"dimensions disagree: hessian {hessian.dim}, noise {noise_cov.dim}, "
            f"sigma {sigma.dim}"
        )
    check_rate(lr, batch_size)
    trace_ca_inv = float(np.trace(np.linalg.solve(hessian.entries, noise_cov.entries)))
    d = hessian.dim
    return 0.25 * (lr / batch_size) * trace_ca_inv - 0.5 * log_det(sigma) - 0.5 * d


def dominance_report(
    sigma_pt: SpdMatrix,
    spec_pt: SampleSpec,
    pair: DomainPair,
    spec_ft: SampleSpec,
) -> DominanceReport:
    """Compare the two stages' complexity terms; ratio = ft / pt."""
    return _dominance(pretrain_bound(sigma_pt, spec_pt), finetune_bound(pair, spec_ft))


def _dominance(pt_report: BoundReport, ft_report: BoundReport) -> DominanceReport:
    """:func:`dominance_report` of the two stages' evaluated bound reports."""
    pt_term, ft_term = pt_report.complexity_term, ft_report.complexity_term
    return DominanceReport(pt_term=pt_term, ft_term=ft_term, ratio=ft_term / pt_term)
