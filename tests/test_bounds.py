"""Bound evaluators and discrepancies against frozen formula evaluations.

Frozen constants come from a 40-digit mpmath evaluation of the printed
formulas; the Gaussian KL cross-checks use the closed form from the
gaussian module, which is itself pinned to the Monte-Carlo oracle.
"""

import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import oupac
from oupac import (
    BoundReport,
    DomainPair,
    GaussianMeasure,
    InvalidRangeError,
    InvalidSpecError,
    NotPositiveDefiniteError,
    NumericalInconsistencyError,
    OupacError,
    SampleSpec,
    discrepancy_d,
    discrepancy_d_tilde,
    dominance_report,
    finetune_bound,
    finetune_bound_dimension,
    kl_divergence,
    kl_upper_bound_trace,
    lemma2_check,
    lemma2_survey,
    make_spd,
    mcallester_bound,
    pretrain_bound,
    random_spd,
    stationary_from_dynamics,
)
from oupac import bounds, linalg
from oupac.gaussian import gaussian_pair_terms
from oupac.linalg import _make_spd_stack, _random_spd_entries
from oupac.rng import child_seed, make_rng

# 40-digit mpmath evaluations of the closed forms
MCALLESTER_0_100 = 0.21964913157744110     # kl=0, N=100, delta=0.05
MCALLESTER_10_100 = 0.31384231276889843    # kl=10, N=100, delta=0.05
MCALLESTER_0_1000 = 0.077166839619337024   # kl=0, N=1000, delta=0.05
COMPLEXITY_KL1_1000 = 0.078770846125757389  # kl_term=1, N=1000, delta=0.05
COMPLEXITY_3LN2_1000 = 0.080466400332556586  # kl_term=3 ln 2, N=1000, delta=0.05
PRETRAIN_KL_DIAG = 4.7596117276679273      # 2 * KL for diag(0.05, 0.025)
PAPER_LITERAL_DIAG = -8.6096117276679273   # flipped-sign variant, same matrix
THREE_LN_TWO = 2.0794415416798359
DOMINANCE_PT = 0.0031073503573900794       # kl_term=1, N=1e6, delta=0.05
DOMINANCE_FT = 0.078770846125757389        # kl_term=1, N=1e3, delta=0.05
DOMINANCE_RATIO = 25.349843778774424


def identity_pair(dim: int, shift=None) -> DomainPair:
    shift = np.zeros(dim) if shift is None else np.asarray(shift, dtype=float)
    return DomainPair(make_spd(np.eye(dim)), make_spd(np.eye(dim)), shift)


def random_pair(dim: int, seed: int, shift_scale: float = 1.0) -> DomainPair:
    return DomainPair(
        random_spd(dim, 0.2, 5.0, seed),
        random_spd(dim, 0.2, 5.0, seed + 10_000_000),
        shift_scale * make_rng(seed + 20_000_000).standard_normal(dim),
    )


class TestSampleSpec:
    def test_delta_one_admitted(self):
        spec = SampleSpec(1, 1.0)
        assert mcallester_bound(0.0, spec) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidSpecError):
            SampleSpec(0, 0.05)
        with pytest.raises(InvalidSpecError):
            SampleSpec(100, 0.0)
        with pytest.raises(InvalidSpecError):
            SampleSpec(100, 1.5)

    def test_negative_kl_rejected(self):
        with pytest.raises(InvalidSpecError):
            mcallester_bound(-0.1, SampleSpec(100, 0.05))


class TestMcallesterBound:
    def test_frozen_values(self):
        spec = SampleSpec(100, 0.05)
        assert mcallester_bound(0.0, spec) == pytest.approx(MCALLESTER_0_100, rel=1e-14)
        assert mcallester_bound(10.0, spec) == pytest.approx(MCALLESTER_10_100, rel=1e-14)

    def test_monotone_in_arguments(self):
        # decreasing in N, increasing in kl and in 1/delta
        for kl in (0.0, 1.0, 7.5):
            values = [mcallester_bound(kl, SampleSpec(n, 0.05))
                      for n in (10, 100, 1000, 10_000, 100_000)]
            assert all(a > b for a, b in zip(values, values[1:]))
        for n in (50, 5000):
            values = [mcallester_bound(kl, SampleSpec(n, 0.05))
                      for kl in (0.0, 0.5, 1.0, 5.0, 25.0)]
            assert all(a < b for a, b in zip(values, values[1:]))
            values = [mcallester_bound(1.0, SampleSpec(n, d))
                      for d in (0.5, 0.1, 0.05, 0.01, 0.001)]
            assert all(a < b for a, b in zip(values, values[1:]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kls=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=8),
    n=st.integers(1, 10**7),
    delta=st.floats(1e-9, 1.0),
)
def test_stacked_mcallester_bound_matches_per_kl_calls(kls, n, delta):
    spec = SampleSpec(n, delta)
    stacked = mcallester_bound(np.array(kls), spec)
    assert stacked.shape == (len(kls),)
    for kl, got in zip(kls, stacked):
        want = mcallester_bound(kl, spec)
        assert type(want) is float
        np.testing.assert_array_max_ulp(got, want, maxulp=4)
    with pytest.raises(InvalidSpecError, match="got -0.5"):
        mcallester_bound(np.array(kls + [-0.5, -1.0]), spec)


class TestPretrainBound:
    def test_identity_covariance_reduces_to_base_bound(self):
        spec = SampleSpec(100, 0.05)
        report = pretrain_bound(make_spd(np.eye(3)), spec)
        assert report.kl_term == pytest.approx(0.0, abs=1e-14)
        assert report.complexity_term == pytest.approx(MCALLESTER_0_100, rel=1e-14)

    def test_diagonal_example(self):
        report = pretrain_bound(make_spd(np.diag([0.05, 0.025])), SampleSpec(100, 0.05))
        assert report.kl_term == pytest.approx(PRETRAIN_KL_DIAG, rel=1e-13)
        assert report.paper_literal_kl == pytest.approx(PAPER_LITERAL_DIAG, rel=1e-13)

    def test_kl_term_is_twice_gaussian_kl(self):
        from oupac import standard_gaussian

        for seed in range(10):
            sigma = random_spd(4, 0.2, 4.0, seed=seed)
            report = pretrain_bound(sigma, SampleSpec(1000, 0.05))
            q = GaussianMeasure(np.zeros(4), sigma)
            assert report.kl_term == pytest.approx(
                2.0 * kl_divergence(q, standard_gaussian(4)), rel=1e-11, abs=1e-12
            )

    def test_negative_paper_literal_reported_unclamped(self):
        report = pretrain_bound(make_spd(np.diag([0.05, 0.025])), SampleSpec(100, 0.05))
        assert report.paper_literal_kl < 0
        assert report.kl_term > 0


class TestDiscrepancyD:
    def test_identical_domains(self):
        assert discrepancy_d(identity_pair(3)) == pytest.approx(0.0, abs=1e-14)

    def test_pure_shift(self):
        assert discrepancy_d(identity_pair(2, [1.0, 0.0])) == pytest.approx(1.0, rel=1e-14)

    def test_equals_twice_gaussian_kl(self):
        # exact: D and KL are sums of the same three kernel terms
        spec = SampleSpec(100, 0.05)
        for seed in range(200):
            dim = (1 + seed % 8) if seed < 180 else (32 if seed % 2 else 64)
            pair = random_pair(dim, seed)
            q_ft = GaussianMeasure(pair.shift, pair.sigma_ft)
            q_pt = GaussianMeasure(np.zeros(dim), pair.sigma_pt)
            kl = kl_divergence(q_ft, q_pt)
            assert kl > 0.0
            assert discrepancy_d(pair) == 2.0 * kl
            assert lemma2_check(pair).d_value == 2.0 * kl
            assert finetune_bound(pair, spec).kl_term == 2.0 * kl

    def test_nonnegative_and_zero_only_at_identity(self):
        for seed in range(100):
            pair = random_pair(1 + seed % 6, seed)
            assert discrepancy_d(pair) >= 0.0
        perturbed = DomainPair(
            make_spd(np.eye(2)), make_spd(np.eye(2) * 1.01), np.zeros(2)
        )
        assert discrepancy_d(perturbed) > 1e-9

    def test_paper_literal_flag_flips_log_det(self):
        pair = random_pair(4, 123)
        ldet = (
            np.linalg.slogdet(pair.sigma_ft.entries)[1]
            - np.linalg.slogdet(pair.sigma_pt.entries)[1]
        )
        diff = discrepancy_d(pair, paper_literal=True) - discrepancy_d(pair)
        assert diff == pytest.approx(2.0 * ldet, rel=1e-10, abs=1e-12)


class TestDiscrepancyDTilde:
    def test_scalar_identity_is_zero(self):
        assert discrepancy_d_tilde(identity_pair(1)) == pytest.approx(0.0, abs=1e-14)

    def test_dim_two_identity(self):
        assert discrepancy_d_tilde(identity_pair(2)) == pytest.approx(
            THREE_LN_TWO, rel=1e-14
        )

    def test_scalar_exponential_covariance(self):
        pair = DomainPair(make_spd([[1.0]]), make_spd([[math.e]]), np.zeros(1))
        assert discrepancy_d_tilde(pair) == pytest.approx(math.e, rel=1e-14)


class TestFinetuneBounds:
    def test_identical_domains_match_base_bound(self):
        spec = SampleSpec(1000, 0.05)
        report = finetune_bound(identity_pair(2), spec)
        assert report.complexity_term == pytest.approx(MCALLESTER_0_1000, rel=1e-14)
        assert report.complexity_term == pytest.approx(
            mcallester_bound(0.0, spec), rel=1e-15
        )

    def test_unit_shift_example(self):
        report = finetune_bound(identity_pair(2, [1.0, 0.0]), SampleSpec(1000, 0.05))
        assert report.kl_term == pytest.approx(1.0, rel=1e-14)
        assert report.complexity_term == pytest.approx(COMPLEXITY_KL1_1000, rel=1e-14)

    def test_kl_term_quadratic_in_shift_scale(self):
        base = finetune_bound(identity_pair(3, [0.5, -0.5, 1.0]), SampleSpec(100, 0.1))
        for t in (2.0, 3.0, 7.0):
            scaled = finetune_bound(
                identity_pair(3, t * np.array([0.5, -0.5, 1.0])), SampleSpec(100, 0.1)
            )
            assert scaled.kl_term == pytest.approx(t**2 * base.kl_term, rel=1e-12)

    def test_dimension_variant_identity_pairs(self):
        spec = SampleSpec(1000, 0.05)
        dim1 = finetune_bound_dimension(identity_pair(1), spec)
        assert dim1.complexity_term == pytest.approx(
            mcallester_bound(0.0, spec), rel=1e-15
        )
        dim2 = finetune_bound_dimension(identity_pair(2), spec)
        assert dim2.kl_term == pytest.approx(THREE_LN_TWO, rel=1e-14)
        assert dim2.complexity_term == pytest.approx(COMPLEXITY_3LN2_1000, rel=1e-14)

    def test_dimension_variant_dominates_when_ordering_holds(self):
        spec = SampleSpec(500, 0.05)
        for seed in range(100):
            pair = random_pair(1 + seed % 8, seed)
            if lemma2_check(pair).holds:
                assert (
                    finetune_bound_dimension(pair, spec).complexity_term
                    >= finetune_bound(pair, spec).complexity_term - 1e-15
                )


class TestDoubledFormIdentity:
    def test_doubled_form_matches_base_form(self):
        # (2k + 2 log(1/d) + 2 log N + 4)/(4N-2) == (k + log(1/d) + log N + 2)/(2N-1)
        shifts = [np.zeros(2), np.array([1.0, 0.0]), np.array([2.0, -1.5])]
        for shift in shifts:
            pair = identity_pair(2, shift)
            for n in (10, 100, 10_000, 1_000_000):
                for delta in (0.5, 0.05, 0.001):
                    spec = SampleSpec(n, delta)
                    doubled = finetune_bound(pair, spec).complexity_term
                    base = mcallester_bound(discrepancy_d(pair) / 2.0, spec)
                    assert doubled == pytest.approx(base, rel=1e-15)


class TestIdenticalDomains:
    """On identical domains D is a rounding error either side of 0; the bound
    reports take it as it is, where mcallester_bound rejects a negative KL."""

    def test_bound_reports_accept_a_rounding_negative_divergence(self):
        spec = SampleSpec(100, 0.05)
        kl_terms = []
        for seed in range(60):
            sigma = random_spd(1 + seed % 8, 0.2, 5.0, seed)
            pair = DomainPair(sigma, sigma, np.zeros(sigma.dim))
            report = finetune_bound(pair, spec)
            kl_terms.append(report.kl_term)
            assert report.complexity_term == pytest.approx(mcallester_bound(0.0, spec), rel=1e-14)
            assert dominance_report(sigma, spec, pair, spec).ft_term == report.complexity_term
        assert min(kl_terms) < 0.0
        with pytest.raises(InvalidSpecError, match="kl must be nonnegative"):
            mcallester_bound(min(kl_terms) / 2, spec)


class TestDecayRate:
    def test_quarter_sample_ratio_in_band(self):
        pair = identity_pair(2, [3.0, 1.0])  # kl_term = 10
        assert discrepancy_d(pair) == pytest.approx(10.0, rel=1e-14)
        for n in (10_000, 100_000):
            ratio = (
                finetune_bound(pair, SampleSpec(4 * n, 0.05)).complexity_term
                / finetune_bound(pair, SampleSpec(n, 0.05)).complexity_term
            )
            assert 0.45 <= ratio <= 0.60

    def test_strictly_decreasing_on_grid(self):
        pair = identity_pair(2, [1.0, 1.0])
        ns = np.unique(np.logspace(2, 6, 20).astype(int))
        values = [
            finetune_bound(pair, SampleSpec(int(n), 0.05)).complexity_term for n in ns
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestGaussianPairKernel:
    @pytest.mark.parametrize("evaluate", [
        lemma2_check,
        lambda pair: finetune_bound(pair, SampleSpec(100, 0.05)),
        lambda pair: finetune_bound_dimension(pair, SampleSpec(100, 0.05)),
    ], ids=["lemma2_check", "finetune_bound", "finetune_bound_dimension"])
    def test_each_covariance_is_factored_once(self, monkeypatch, evaluate):
        original = oupac.linalg.cholesky_factor
        factored = []

        def counted(m):
            factored.append(m)
            return original(m)

        # every oupac namespace that holds the factorization, so none is missed
        for name, module in list(sys.modules.items()):
            bound = getattr(module, "cholesky_factor", None)
            if name.split(".")[0] == "oupac" and bound is original:
                monkeypatch.setattr(module, "cholesky_factor", counted)
        pair = random_pair(5, 7)
        evaluate(pair)
        assert len(factored) == 2
        assert {id(m) for m in factored} == {id(pair.sigma_pt), id(pair.sigma_ft)}


class TestLemma2:
    def test_dim_two_identity_holds(self):
        result = lemma2_check(identity_pair(2))
        assert result.d_value == pytest.approx(0.0, abs=1e-14)
        assert result.d_tilde_value == pytest.approx(THREE_LN_TWO, rel=1e-14)
        assert result.holds
        assert result.margin == pytest.approx(THREE_LN_TWO, rel=1e-14)

    def test_scalar_identity_equality(self):
        result = lemma2_check(identity_pair(1))
        assert result.holds
        assert result.margin == pytest.approx(0.0, abs=1e-14)

    def test_ordering_can_fail(self):
        # shrinking the target covariance blows up the KL-consistent
        # discrepancy while the trace variant stays bounded
        pair = DomainPair(make_spd([[1.0]]), make_spd([[1e-4]]), np.zeros(1))
        result = lemma2_check(pair)
        assert not result.holds
        assert result.margin < 0

    def test_survey_schema_and_determinism(self):
        rows = lemma2_survey(dims=(1, 2, 3), pairs_per_dim=25, seed=5)
        assert [row["dim"] for row in rows] == [1, 2, 3]
        for row in rows:
            assert set(row) == {"dim", "pairs", "holds", "holds_fraction", "min_margin"}
            assert row["pairs"] == 25
            assert 0 <= row["holds"] <= 25
            assert row["holds_fraction"] == row["holds"] / 25
        again = lemma2_survey(dims=(1, 2, 3), pairs_per_dim=25, seed=5)
        assert rows == again


class TestKlUpperBoundTrace:
    def test_identity_stationary_point(self):
        # A = C = I, lr/batch = 2 makes the stationary covariance I
        value = kl_upper_bound_trace(
            make_spd(np.eye(3)), make_spd(np.eye(3)), lr=2.0, batch_size=1,
            sigma=make_spd(np.eye(3)),
        )
        assert value == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_example(self):
        a = make_spd(np.diag([1.0, 2.0]))
        c = make_spd(np.eye(2))
        sigma = make_spd(np.diag([0.05, 0.025]))
        value = kl_upper_bound_trace(a, c, lr=0.1, batch_size=1, sigma=sigma)
        # trace part alone is 0.0375; the full expression equals the exact KL
        assert 0.25 * 0.1 * 1.5 == pytest.approx(0.0375, rel=1e-15)
        assert value == pytest.approx(2.3798058638339636, rel=1e-13)

    def test_equals_exact_kl_at_lyapunov_solution(self):
        from oupac import standard_gaussian

        for seed in range(25):
            dim = 1 + seed % 6
            a = random_spd(dim, 0.3, 4.0, seed=seed)
            c = random_spd(dim, 0.3, 4.0, seed=seed + 300)
            lr, batch = 0.07, 3
            g = stationary_from_dynamics(a, np.zeros(dim), c, lr, batch)
            bound = kl_upper_bound_trace(a, c, lr, batch, g.covariance)
            exact = kl_divergence(g, standard_gaussian(dim))
            assert abs(bound - exact) <= 1e-10

    @pytest.mark.parametrize("lr, batch", [
        (math.nan, 1), (0.0, 1), (-0.1, 1), (0.1, 0), (0.1, 1.5),
    ])
    def test_rejects_rate_outside_range(self, lr, batch):
        # the rule SgdDynamics and stationary_from_dynamics apply, NaN included
        eye = make_spd(np.eye(2))
        with pytest.raises(InvalidRangeError):
            kl_upper_bound_trace(eye, eye, lr, batch, eye)


class TestDominance:
    def test_reference_instance(self):
        # scalar pre-training covariance tuned so its divergence term is 1
        sigma_val = brentq(lambda s: s - 1.0 - math.log(s) - 1.0, 1.5, 10.0, xtol=1e-14)
        sigma_pt = make_spd([[sigma_val]])
        pair = DomainPair(make_spd([[1.0]]), make_spd([[1.0]]), np.array([1.0]))
        report = dominance_report(
            sigma_pt, SampleSpec(10**6, 0.05), pair, SampleSpec(10**3, 0.05)
        )
        assert report.pt_term == pytest.approx(DOMINANCE_PT, rel=1e-9)
        assert report.ft_term == pytest.approx(DOMINANCE_FT, rel=1e-12)
        assert report.ratio == pytest.approx(DOMINANCE_RATIO, rel=1e-9)
        assert abs(report.ratio - 25.35) <= 0.01

    def test_equal_budgets_give_unit_ratio(self):
        pair = identity_pair(1, [1.0])
        sigma_val = brentq(lambda s: s - 1.0 - math.log(s) - 1.0, 1.5, 10.0, xtol=1e-14)
        sigma_pt = make_spd([[sigma_val]])
        spec = SampleSpec(5000, 0.05)
        report = dominance_report(sigma_pt, spec, pair, spec)
        assert report.ratio == pytest.approx(1.0, rel=1e-9)

    def test_ratio_increases_with_pretraining_data(self):
        pair = identity_pair(1, [1.0])
        sigma_pt = make_spd([[2.5]])
        ratios = [
            dominance_report(
                sigma_pt, SampleSpec(n_pt, 0.05), pair, SampleSpec(1000, 0.05)
            ).ratio
            for n_pt in (10**3, 10**4, 10**5, 10**6, 10**7)
        ]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))


class TestBoundReport:
    def test_serialization_keys(self):
        report = pretrain_bound(make_spd(np.eye(2)), SampleSpec(100, 0.05))
        payload = report.as_dict()
        assert list(payload) == ["kl_term", "complexity_term", "paper_literal_kl", "notes"]

    def test_negative_complexity_rejected(self):
        with pytest.raises(InvalidSpecError):
            BoundReport(kl_term=0.0, complexity_term=-1.0, paper_literal_kl=0.0)


def _reference_survey(
    dims,
    pairs_per_dim: int = 100,
    seed: int = 0,
    eigenvalue_low: float = 0.2,
    eigenvalue_high: float = 5.0,
    shift_scale: float = 1.0,
) -> list[dict]:
    """The pair-by-pair body lemma2_survey had before it was stacked, verbatim."""
    if pairs_per_dim < 1:
        raise InvalidRangeError(f"pairs_per_dim must be >= 1, got {pairs_per_dim}")
    rows = []
    for d in dims:
        holds = 0
        min_margin = math.inf
        for i in range(pairs_per_dim):
            pair = DomainPair(
                sigma_pt=random_spd(d, eigenvalue_low, eigenvalue_high,
                                    child_seed(seed, d, i, 0)),
                sigma_ft=random_spd(d, eigenvalue_low, eigenvalue_high,
                                    child_seed(seed, d, i, 1)),
                shift=shift_scale * make_rng(seed, d, i, 2).standard_normal(d),
            )
            result = lemma2_check(pair)
            holds += int(result.holds)
            min_margin = min(min_margin, result.margin)
        rows.append({
            "dim": int(d),
            "pairs": int(pairs_per_dim),
            "holds": int(holds),
            "holds_fraction": holds / pairs_per_dim,
            "min_margin": float(min_margin),
        })
    return rows


def _outcome(survey, *args):
    """The rows' JSON text, or the class and message of the error raised."""
    try:
        return json.dumps(survey(*args))
    except OupacError as exc:
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32),
    dims=st.lists(st.integers(1, 48), min_size=1, max_size=3, unique=True),
    pairs=st.integers(1, 20),
    low=st.floats(1e-3, 10.0),
    ratio=st.floats(1.0, 1e3),
    shift_scale=st.floats(1e-3, 1e2),
)
@example(seed=5, dims=[1, 33], pairs=20, low=0.2, ratio=25.0, shift_scale=1.0)
@example(seed=9, dims=[64], pairs=3, low=1e-3, ratio=1e3, shift_scale=1e2)
def test_stacked_survey_matches_the_pair_by_pair_loop(seed, dims, pairs, low, ratio,
                                                       shift_scale):
    args = (dims, pairs, seed, low, low * ratio, shift_scale)
    assert json.dumps(lemma2_survey(*args)) == json.dumps(_reference_survey(*args))


def _group_sizes(monkeypatch) -> list[int]:
    """The number of pairs of each group that lemma2_survey evaluates, as it runs."""
    sizes = []
    run = bounds._survey_group
    monkeypatch.setattr(bounds, "_survey_group",
                        lambda d, pairs, *rest: sizes.append(len(pairs)) or run(d, pairs, *rest))
    return sizes


@pytest.mark.parametrize("group_floats", [1, 2 * 7 * 7 * 3, 10**12])
def test_survey_does_not_depend_on_the_group_size(monkeypatch, group_floats):
    args = ((1, 2, 7, 40), 20, 3, 0.1, 8.0, 1.5)
    want = json.dumps(lemma2_survey(*args))
    monkeypatch.setattr(linalg, "GROUP_FLOATS", group_floats)
    sizes = _group_sizes(monkeypatch)
    assert json.dumps(lemma2_survey(*args)) == want
    # one group per pair; 20 pairs of 2 floats, 20 of 8, 3 per group of d = 7
    # (2 * 49 floats), one per group of d = 40; one group per dimension
    assert sizes == {1: [1] * 80, 294: [20, 20] + [3] * 6 + [2] + [1] * 20,
                     10**12: [20] * 4}[group_floats]


@pytest.mark.parametrize("group_floats", [linalg.GROUP_FLOATS, 1])
@pytest.mark.parametrize("shift_scale", [1.0, 1e160])
def test_survey_raises_what_the_loop_raises_first(monkeypatch, group_floats, shift_scale):
    # eigenvalues in [1e-11, 2e-10] straddle the strict check's tolerance 1e-10:
    # which pair fails first depends on the seed, and the message prints its
    # smallest eigenvalue; with a huge shift a pair before it may overflow first
    monkeypatch.setattr(linalg, "GROUP_FLOATS", group_floats)
    sizes = _group_sizes(monkeypatch)
    seen = set()
    for seed in range(12):
        args = ((1, 2), 6, seed, 1e-11, 2e-10, shift_scale)
        want = _outcome(_reference_survey, *args)
        sizes.clear()
        assert _outcome(lemma2_survey, *args) == want
        # a group of one pair each, or all six pairs and then a replay of one each
        assert sizes[0] == (1 if group_floats == 1 else 6)
        assert set(sizes[1:]) <= {1}
        seen.add(want)
    assert {outcome[0] for outcome in seen} == (
        {NotPositiveDefiniteError} if shift_scale == 1.0
        else {NotPositiveDefiniteError, NumericalInconsistencyError})
    assert len(seen) > 3


@pytest.mark.parametrize("dims, low, high", [((3,), 0.0, 1.0), ((3,), 2.0, 1.0),
                                             ((2, 0), 0.2, 5.0), ((0,), -1.0, 5.0)])
def test_survey_rejects_a_bad_range_as_the_loop_does(dims, low, high):
    want = _outcome(_reference_survey, dims, 4, 0, low, high, 1.0)
    assert want[0] is InvalidRangeError
    assert _outcome(lemma2_survey, dims, 4, 0, low, high, 1.0) == want


def _reference_random_spd(dim, eigenvalue_low, eigenvalue_high, seed) -> np.ndarray:
    """The one-matrix body random_spd had before the stacked draw, verbatim
    from its draws on (range checks left out)."""
    rng = make_rng(seed)
    gauss = rng.standard_normal((dim, dim))
    q_fac, r_fac = np.linalg.qr(gauss)
    signs = np.sign(np.diag(r_fac))
    signs[signs == 0] = 1.0
    q_fac = q_fac * signs  # Haar measure needs the R-sign correction
    eigenvalues = rng.uniform(eigenvalue_low, eigenvalue_high, size=dim)
    entries = (q_fac * eigenvalues) @ q_fac.T
    return make_spd(entries).entries


@pytest.mark.parametrize("dim", [1, 2, 9, 40])
def test_random_spd_is_an_item_of_the_stacked_draw(dim):
    seeds = [child_seed(7, dim, i, 0) for i in range(5)]
    entries = _make_spd_stack(_random_spd_entries(dim, 0.3, 4.0, seeds))
    for seed, item in zip(seeds, entries):
        want = _reference_random_spd(dim, 0.3, 4.0, seed).tobytes()
        assert random_spd(dim, 0.3, 4.0, seed).entries.tobytes() == want
        assert item.tobytes() == want


def test_one_group_makes_the_same_decompositions_for_any_pair_count(monkeypatch):
    counts = {}

    def counting(name):
        original = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted

    names = ("qr", "eigvalsh", "cholesky", "solve")
    for name in names:
        monkeypatch.setattr(np.linalg, name, counting(name))
    seen = []
    for pairs in (8, 40):
        counts.update(dict.fromkeys(names, 0))
        lemma2_survey(dims=(2, 33), pairs_per_dim=pairs, seed=1)
        seen.append(dict(counts))
    assert seen[0] == seen[1] == {"qr": 2, "eigvalsh": 2, "cholesky": 4, "solve": 2}


@pytest.mark.parametrize("count, dim", [(3000, 1), (1000, 4)])
def test_stacked_discrepancies_equal_per_pair_calls_bit_for_bit(count, dim):
    seeds = [child_seed(11, dim, i) for i in range(2 * count)]
    entries = _make_spd_stack(_random_spd_entries(dim, 0.2, 5.0, seeds))
    shifts = make_rng(12).standard_normal((count, dim))
    stacked = bounds._discrepancies(entries[0::2], entries[1::2], shifts)
    traces, _, mahas = gaussian_pair_terms(entries[1::2], entries[0::2], shifts)
    for i in range(count):
        pair = DomainPair(make_spd(entries[2 * i]), make_spd(entries[2 * i + 1]), shifts[i])
        assert bounds._pair_discrepancies(pair) == tuple(value[i] for value in stacked)
        # D~ in Python floats with libm's log, as the formula always was: numpy's
        # SIMD log differs in the last bit for a few traces in 1000 near 1 (d = 1)
        trace, maha = float(traces[i]), float(mahas[i])
        assert stacked[2][i] == math.log(trace) + trace + maha + dim * math.log(dim) - dim


def test_overflowing_pair_raises_without_a_warning():
    pair = random_pair(3, 4, shift_scale=1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate in (lemma2_check, discrepancy_d, discrepancy_d_tilde,
                         lambda p: finetune_bound(p, SampleSpec(100, 0.05)),
                         lambda p: lemma2_survey((1, 3), 4, shift_scale=1e160)):
            with pytest.raises(NumericalInconsistencyError, match="not finite"):
                evaluate(pair)
