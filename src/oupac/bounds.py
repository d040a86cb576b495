"""PAC-Bayes bound evaluators and domain-discrepancy measures.

The complexity terms bound the generalization gap of a randomized
predictor by a square root of (divergence + confidence and sample-size
terms) / sample size.  Two divergence conventions appear throughout:
the KL-consistent sign (log-determinant entering negatively), which the
Monte-Carlo KL oracle confirms, and the flipped ``+log det`` variant,
which is always computed and reported alongside as ``paper_literal_kl``
so the two can be compared.  All logarithms are natural.

D, the paper-literal D and D~ have one home, :func:`_discrepancies`,
which takes one pair or a stack of pairs, Lemma 2's margin D~ - D one,
:func:`_lemma2_margin`, and the complexity term one, :func:`_mcallester`.
:func:`lemma2_survey` evaluates the pairs of all its dimensions as one
pipeline of stacks, arrays with a leading pair axis, in the groups of
:func:`oupac.linalg._in_groups`, each sized by what its pairs hold, so a
group may span dimensions.  One stack of streams
(:func:`oupac.rng._streams`) seeds a group, and each dimension's pairs in
it make one QR for their random covariances, one Cholesky per side and
one solve for their pair terms, where a pair-by-pair loop makes each call
once per pair.  A covariance drawn with eigenvalues in ``[low, high]``
passes the strict SPD test of :func:`oupac.linalg.make_spd` whenever
``low - slack > PSD_RTOL * (high + slack)``, ``slack = 16 d^2 eps
high`` (:func:`oupac.linalg._spectrum_passes`); there the ``eigvalsh``
check is skipped, and only a range with ``low / high`` within rounding
of ``PSD_RTOL`` (1e-10) still runs it.  Each pair still draws from its
own seeded streams.  A pair term or discrepancy that overflows raises
:class:`NumericalInconsistencyError` (CLI exit code 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (DimensionMismatchError, InvalidSpecError, NumericalInconsistencyError,
                     _integer, _real, _typed)
from .gaussian import _check_float_count, _pair_divergences, check_rate
from .linalg import (SpdMatrix, SymmetricMatrix, _check_held, _eigenvalue_range,
                     _frozen_vector, _in_groups, _random_spd_stack, log_det)
# cholesky_factor is not called here; bench/tests/test_bench_trace.py reads it from here
from .linalg import cholesky_factor  # noqa: F401
from .rng import _child_seeds, _streams

#: A pair holds the discrepancy ordering when its margin D~ - D >= -HOLDS_TOLERANCE.
HOLDS_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class DomainPair:
    """Source/target stationary covariances and the minimizer shift."""

    sigma_pt: SpdMatrix
    sigma_ft: SpdMatrix
    shift: np.ndarray

    def __post_init__(self):
        _typed(self.sigma_pt, SpdMatrix, "sigma_pt")
        _typed(self.sigma_ft, SpdMatrix, "sigma_ft")
        shift = _frozen_vector(self.shift, "shift")
        if not (self.sigma_pt.dim == self.sigma_ft.dim == shift.shape[0]):
            raise DimensionMismatchError(
                f"dimensions disagree: sigma_pt {self.sigma_pt.dim}, "
                f"sigma_ft {self.sigma_ft.dim}, shift {shift.shape[0]}"
            )
        object.__setattr__(self, "shift", shift)

    @property
    def dim(self) -> int:
        return self.sigma_pt.dim


@dataclass(frozen=True)
class SampleSpec:
    """Sample size N and confidence level delta for a bound evaluation.

    ``delta = 1`` is admitted as the degenerate no-confidence case
    (its log term vanishes); anything outside ``(0, 1]`` is rejected, and
    so is a sample size too large for float64, in which the bound takes it.
    """

    sample_size: int
    delta: float

    def __post_init__(self):
        sample_size = _integer(self.sample_size, "sample_size", error=InvalidSpecError)
        _check_float_count(sample_size, "sample_size", InvalidSpecError)
        delta = _real(self.delta, "delta", InvalidSpecError)
        if not (0.0 < delta <= 1.0):
            raise InvalidSpecError(f"delta must lie in (0, 1], got {delta}")
        object.__setattr__(self, "sample_size", sample_size)
        object.__setattr__(self, "delta", delta)


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
    _typed(spec, SampleSpec, "spec")
    kl = np.asarray(kl, dtype=float)
    negative = np.flatnonzero(~(kl >= 0))  # not (kl >= 0), so that NaN fails
    if negative.size:
        raise InvalidSpecError(f"kl must be nonnegative, got {np.ravel(kl)[negative[0]]}")
    bound = _mcallester(kl, spec)
    return float(bound) if bound.ndim == 0 else bound


def _mcallester(kl, spec: SampleSpec):
    """:func:`mcallester_bound` without its sign check: the bound reports
    pass half a divergence term, which on identical domains is a rounding
    error either side of 0."""
    n = spec.sample_size
    inverse = 1.0 / spec.delta
    # 1/delta overflows for a subnormal delta, whose -log(delta) is finite
    confidence = -math.log(spec.delta) if inverse == math.inf else math.log(inverse)
    numerator = kl + confidence + math.log(n) + 2.0
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
    / (4N - 2))``.  Raises :class:`NumericalInconsistencyError` if
    ``tr S`` overflows.
    """
    d = _typed(sigma_pt, SpdMatrix, "sigma_pt").dim
    _typed(spec, SampleSpec, "spec")
    with np.errstate(over="ignore"):
        trace = float(np.trace(sigma_pt.entries))
    if not math.isfinite(trace):
        raise NumericalInconsistencyError(
            f"pre-training divergence is not finite (tr S = {trace:.6g}): an input is too "
            f"large for float64")
    ldet = log_det(sigma_pt)
    return _report(trace - d - ldet, ldet + trace - d, spec,
                   "divergence vs standard Gaussian prior; kl_term = 2*KL")


def _discrepancies(sigma_pt, sigma_ft, shift: np.ndarray) -> tuple:
    """(D, paper-literal D, D~, Lemma 2's margin) of each pair of a stack
    (leading axes on every argument) or of one pair, from one
    gaussian_pair_terms call; raises if one of them or a term is not
    finite.  D is exactly 2 KL."""
    d = shift.shape[-1]

    def formulas(trace, log_det_ratio, maha):
        base = trace - d + maha
        return (base + log_det_ratio, base - log_det_ratio,
                _log(trace) + trace + maha + d * math.log(d) - d,
                _lemma2_margin(trace, log_det_ratio, d))

    return _pair_divergences(sigma_ft, sigma_pt, shift, formulas)


def _lemma2_margin(trace, log_det_ratio, d: int):
    """Lemma 2's margin ``D~ - D = log t + d log d + log det R``, R = Spt^-1 Sft,
    t = tr R, from the pair terms: the shift term of D and D~ cancels."""
    return _log(trace) + d * math.log(d) - log_det_ratio


def _log(values) -> np.ndarray:
    # math.log, not np.log: numpy's SIMD log differs from libm in the last
    # bit for about 1 value in 2000, which would move the surveys' digits
    values = np.asarray(values)
    return np.reshape([math.log(v) if v > 0 else -math.inf for v in values.ravel().tolist()],
                      values.shape)


def _pair_discrepancies(pair: DomainPair) -> tuple[float, float, float, float]:
    """:func:`_discrepancies` of one pair, as floats; raises if one is not finite."""
    _typed(pair, DomainPair, "pair")
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
    d_value, literal, _, _ = _pair_discrepancies(pair)
    return literal if paper_literal else d_value


def discrepancy_d_tilde(pair: DomainPair) -> float:
    """Dimension-dependent domain discrepancy.

    ``log(tr(Spt^-1 Sft)) + tr(Spt^-1 Sft) + shift^T Spt^-1 shift
    + d log d - d``.
    """
    return _pair_discrepancies(pair)[2]


def finetune_bound(pair: DomainPair, spec: SampleSpec) -> BoundReport:
    """Bound report for the fine-tuning stage, prior = source stationary."""
    _typed(spec, SampleSpec, "spec")
    kl_term, literal, _, _ = _pair_discrepancies(pair)
    return _report(kl_term, literal, spec,
                   "divergence between fine-tuned and pre-trained stationary measures")


def finetune_bound_dimension(pair: DomainPair, spec: SampleSpec) -> BoundReport:
    """Fine-tuning bound with the dimension-dependent discrepancy."""
    _typed(spec, SampleSpec, "spec")
    _, literal, kl_term, _ = _pair_discrepancies(pair)
    return _report(kl_term, literal, spec, "dimension-dependent discrepancy variant")


def lemma2_check(pair: DomainPair) -> Lemma2Result:
    """Compare the two discrepancies on one pair.

    ``margin`` is :func:`_lemma2_margin`, which does not read the shift, and
    ``holds`` is ``margin >= -HOLDS_TOLERANCE``: the ordering holds exactly
    when ``tr(R) det(R) >= d^-d``, at d = 1 when ``Sft >= Spt``.  It fails
    for some SPD pairs, so this is a report, not an assertion.
    """
    d_value, _, d_tilde_value, margin = _pair_discrepancies(pair)
    return Lemma2Result(
        d_value=d_value,
        d_tilde_value=d_tilde_value,
        holds=margin >= -HOLDS_TOLERANCE,
        margin=margin,
    )


def lemma2_survey(
    dims: Sequence[int] = tuple(range(1, 11)),
    pairs_per_dim: int = 100,
    seed: int = 0,
    eigenvalue_low: float = 0.2,
    eigenvalue_high: float = 5.0,
) -> list[dict]:
    """Random survey of the discrepancy ordering, one row per dimension.

    Each row reports ``{"dim", "pairs", "holds", "holds_fraction",
    "min_margin"}`` over ``pairs_per_dim`` random domain pairs; pair i of
    dimension d has covariances ``random_spd(d, eigenvalue_low,
    eigenvalue_high, child_seed(seed, d, i, k))`` for k = 0, 1, and
    :func:`lemma2_check` gives its margin and whether it holds, at any
    shift, since the margin does not read one.  The pairs of all
    dimensions are evaluated as one stacked pipeline (module docstring).
    A covariance skips ``random_spd``'s ``eigvalsh`` check where ``low -
    slack > 1e-10 * max(high + slack, 1)``, ``slack = 16 d^2 eps high``,
    which decides it, as at the default range for any d the survey takes;
    at a ratio ``low / high`` within rounding of 1e-10 the check runs.
    One call of the stack entry point :func:`oupac.rng._streams`
    seeds each group of pairs; its generators are those of the one-stream
    entry point :func:`oupac.rng.make_rng` for the same seeds, as
    ``tests/test_rng.py`` checks against numpy's ``default_rng``.
    Deterministic for a fixed seed.
    """
    pairs_per_dim = _integer(pairs_per_dim, "pairs_per_dim")
    eigenvalue_low, eigenvalue_high = _eigenvalue_range(eigenvalue_low, eigenvalue_high)
    dims = [_integer(d, "dim") for d in dims]  # random_spd's name, as the loop raises
    _check_survey_dim(max(dims, default=0))
    _check_held("pairs_per_dim: the margins hold", len(dims) * pairs_per_dim,
                max(dims, default=0))
    if not dims:
        return []
    (margins,) = _in_groups(
        lambda items: _survey_group(items, dims, pairs_per_dim, seed, eigenvalue_low,
                                    eigenvalue_high),
        range(len(dims) * pairs_per_dim),
        [(pairs_per_dim, 2 * d * d + 8) for d in dims])  # two covariances, two streams' words
    rows = []
    for d, row in zip(dims, margins.reshape(len(dims), pairs_per_dim)):
        holds = np.count_nonzero(row >= -HOLDS_TOLERANCE)
        rows.append({
            "dim": d,
            "pairs": pairs_per_dim,
            "holds": int(holds),
            "holds_fraction": holds / pairs_per_dim,
            "min_margin": float(row.min()),
        })
    return rows


def _check_survey_dim(largest: int) -> None:
    """Reject a survey whose largest dimension d gives one pair's two
    covariances, ``2 d^2`` floats, more than ``RECORD_FLOATS``."""
    _check_held("dims: one pair's covariances hold", 2 * largest * largest, largest)


def _survey_group(items, dims, pairs_per_dim, seed, eigenvalue_low, eigenvalue_high):
    """Lemma 2's margins of the surveyed pairs ``items``, a range of
    indices ``j * pairs_per_dim + i`` of pair i of dimension ``dims[j]``,
    as a one-array tuple.  One stack of streams seeds the group's
    covariances, interleaved (source, target, source, ...) so that a pair's
    source covariance fails before its target one; each dimension's pairs
    are then drawn, checked and evaluated as one stack.  The pair terms
    take a zero shift, which the margin does not read."""
    streams = _streams(_child_seeds(seed, [
        (dims[k // pairs_per_dim], k % pairs_per_dim, side) for k in items for side in (0, 1)]))
    margins = []
    start = items.start
    while start < items.stop:
        d = dims[start // pairs_per_dim]
        stop = min(items.stop, (start // pairs_per_dim + 1) * pairs_per_dim)
        entries = _random_spd_stack(d, eigenvalue_low, eigenvalue_high,
                                    streams[2 * (start - items.start):2 * (stop - items.start)])
        margins.extend(_pair_divergences(
            entries[1::2], entries[0::2], np.zeros((stop - start, d)),
            lambda trace, log_det_ratio, _: (_lemma2_margin(trace, log_det_ratio, d),)))
        start = stop
    return (np.concatenate(margins),)


def kl_upper_bound_trace(
    hessian: SpdMatrix,
    noise_cov: SymmetricMatrix,
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
    _typed(hessian, SpdMatrix, "hessian")
    _typed(noise_cov, SymmetricMatrix, "noise_cov")
    _typed(sigma, SpdMatrix, "sigma")
    if not (hessian.dim == noise_cov.dim == sigma.dim):
        raise DimensionMismatchError(
            f"dimensions disagree: hessian {hessian.dim}, noise {noise_cov.dim}, "
            f"sigma {sigma.dim}"
        )
    lr, batch_size = check_rate(lr, batch_size)
    trace_ca_inv = float(np.trace(np.linalg.solve(hessian.entries, noise_cov.entries)))
    d = hessian.dim
    return 0.25 * (lr / batch_size) * trace_ca_inv - 0.5 * log_det(sigma) - 0.5 * d


def dominance_report(pair: DomainPair, spec_pt: SampleSpec, spec_ft: SampleSpec) -> DominanceReport:
    """Compare the two stages' complexity terms; ratio = ft / pt.  The
    pre-training bound is ``pair.sigma_pt``'s, the fine-tuning prior's."""
    _typed(pair, DomainPair, "pair")
    _typed(spec_pt, SampleSpec, "spec_pt")
    _typed(spec_ft, SampleSpec, "spec_ft")
    return _dominance(pretrain_bound(pair.sigma_pt, spec_pt), finetune_bound(pair, spec_ft))


def _dominance(pt_report: BoundReport, ft_report: BoundReport) -> DominanceReport:
    """:func:`dominance_report` of the two stages' evaluated bound reports."""
    pt_term, ft_term = pt_report.complexity_term, ft_report.complexity_term
    return DominanceReport(pt_term=pt_term, ft_term=ft_term, ratio=ft_term / pt_term)
