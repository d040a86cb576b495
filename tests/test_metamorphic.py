"""Metamorphic properties: transformations whose effect on the outputs the
mathematics fixes, checked on random well-conditioned inputs.

- Rotation: for an orthogonal Q, mapping A -> Q A Q^T, B -> B Q^T, every
  covariance S -> Q S Q^T and every vector v -> Q v leaves KL, D, the
  paper-literal D, D~, the bound reports and the step radius unchanged,
  and maps the Lyapunov and Stein solutions to Q S Q^T.
- Noise scale: scaling the noise covariance by a power of two, up to
  2^+-1000, scales both stationary laws by it, bit for bit; scaling the
  Hessian by 2^k scales the Lyapunov solution by 2^-k, bit for bit; and at
  every scale the trace bound on the Lyapunov solution S is
  KL(N(0, S) || N(0, I)).
- Identity: the KL and the D of a domain paired with itself are 0.
- Data order: permuting a dataset's rows leaves its empirical quadratic
  unchanged to rounding.
- Chain under rotation: with the same draws, the chain of (Q A Q^T, Q m,
  B Q^T) started at Q x0 records Q times the states of (A, m, B) from x0.
- Translation: shifting every minimizer by c, up to |c| = 1e300, leaves the
  chain covariances of ``simulate`` and ``two-stage`` unchanged and shifts
  their means by c, and so does the library's ``simulate_chain`` ->
  ``estimate_stationary``.

Each tolerance is fixed from the dimension d, the condition number kappa
of the inputs and the unit roundoff eps (``EPS``) before any example runs,
and for translation from rho^(burn-in steps), the factor by which the
fine-tuning chain forgets the part of its start that rounding loses.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oupac import (
    Dataset,
    DomainPair,
    GaussianMeasure,
    QuadraticLoss,
    RegressionTask,
    SampleSpec,
    SgdDynamics,
    SymmetricMatrix,
    discrepancy_d,
    discrepancy_d_tilde,
    empirical_quadratic,
    estimate_stationary,
    finetune_bound,
    generate_dataset,
    kl_divergence,
    kl_upper_bound_trace,
    make_spd,
    pretrain_bound,
    random_spd,
    solve_continuous_lyapunov,
    simulate_chain,
    stability_check,
    standard_gaussian,
    stationary_from_dynamics,
    stein_stationary_covariance,
    two_stage_run,
)
from oupac import diffusion, matrixio
from oupac.gaussian import gaussian_pair_terms, sample
from oupac.rng import child_seed, make_rng

EPS = np.finfo(float).eps

SPEC = SampleSpec(1000, 0.05)

DIMS = st.integers(1, 8)
SEEDS = st.integers(0, 2**32 - 1)
KAPPAS = st.floats(1.0, 100.0)


def _orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    q_fac, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q_fac


def _rotated(m, q: np.ndarray):
    return make_spd(q @ m.entries @ q.T)


def _cond(m) -> float:
    return float(m.eigenvalues[-1] / m.eigenvalues[0])


def _spd_pair(dim: int, kappa: float, seed: int):
    """Two covariances with eigenvalues in [low, low * kappa], low drawn from
    [0.01, 100], so that each condition number is at most kappa."""
    low = 10.0 ** make_rng(seed, 2).uniform(-2.0, 2.0)
    return tuple(random_spd(dim, low, low * kappa, child_seed(seed, side)) for side in (0, 1))


def _pair_values(pair: DomainPair) -> dict:
    """KL(N(shift, Sft) || N(0, Spt)), the discrepancies and both bound reports."""
    ft, pt = finetune_bound(pair, SPEC), pretrain_bound(pair.sigma_pt, SPEC)
    return {
        "kl": kl_divergence(GaussianMeasure(pair.shift, pair.sigma_ft),
                            GaussianMeasure(np.zeros(pair.dim), pair.sigma_pt)),
        "d": discrepancy_d(pair),
        "d_literal": discrepancy_d(pair, paper_literal=True),
        "d_tilde": discrepancy_d_tilde(pair),
        "ft_kl_term": ft.kl_term,
        "ft_literal": ft.paper_literal_kl,
        "ft_complexity": ft.complexity_term,
        "pt_kl_term": pt.kl_term,
        "pt_literal": pt.paper_literal_kl,
        "pt_complexity": pt.complexity_term,
    }


def _pair_tolerances(pair: DomainPair, values: dict, kappa: float) -> dict:
    """The rotation tolerance of each of ``_pair_values``.

    Rotating rounds every input: each entry of Q S Q^T and of Q shift is
    within about 2 d eps of its exact value, relative to the matrix or
    vector.  To first order, such a change moves each term of a divergence
    by at most kappa times that relative change times the term's size, and
    the kernel's own rounding on either side is of the same form.  So a
    value that sums the terms tr(Sp^-1 Sq), d, the Mahalanobis term and
    the log-determinant ratio moves by at most 4 d kappa eps times the sum
    of their magnitudes (KL, half of it; D~ has |log tr| and d log d in
    place of the log-determinant ratio; the pre-training report pairs S
    with the N(0, I) prior).  A complexity term sqrt((kl_term / 2 + c) /
    (2N - 1)) moves by its derivative times its kl_term's tolerance, plus
    a few roundings of the square root."""
    d = pair.dim
    unit = 4.0 * d * kappa * EPS
    trace, log_det_ratio, maha = map(float, gaussian_pair_terms(
        pair.sigma_ft, pair.sigma_pt, pair.shift))
    terms = trace + d + maha + abs(log_det_ratio)
    pt_terms = float(np.trace(pair.sigma_pt.entries)) + d + abs(pair.sigma_pt.log_det)
    tol = {
        "kl": unit * terms / 2.0,
        "d_tilde": unit * (abs(math.log(trace)) + trace + maha + d * math.log(d) + d),
    }
    tol["d"] = tol["d_literal"] = tol["ft_kl_term"] = tol["ft_literal"] = unit * terms
    tol["pt_kl_term"] = tol["pt_literal"] = unit * pt_terms
    for stage in ("ft", "pt"):
        term = values[f"{stage}_complexity"]
        slope = 1.0 / (4.0 * (2 * SPEC.sample_size - 1) * term)
        tol[f"{stage}_complexity"] = slope * tol[f"{stage}_kl_term"] + 4.0 * EPS * term
    return tol


@settings(max_examples=80, deadline=None, derandomize=True)
@given(dim=DIMS, kappa=KAPPAS, seed=SEEDS)
def test_divergences_and_bounds_are_rotation_invariant(dim, kappa, seed):
    sigma_pt, sigma_ft = _spd_pair(dim, kappa, seed)
    rng = make_rng(seed, 3)
    shift = rng.standard_normal(dim)
    q = _orthogonal(rng, dim)
    pair = DomainPair(sigma_pt, sigma_ft, shift)
    turned = DomainPair(_rotated(sigma_pt, q), _rotated(sigma_ft, q), q @ shift)
    values, turned_values = _pair_values(pair), _pair_values(turned)
    tolerances = _pair_tolerances(pair, values, max(_cond(sigma_pt), _cond(sigma_ft)))
    for key, value in values.items():
        assert abs(turned_values[key] - value) <= tolerances[key], key


def _stage(dim: int, kappa: float, seed: int):
    """A Hessian of condition at most kappa, a noise factor, a minimizer and
    a rate that keeps the chain stable (lr * lambda_max in [0.05, 1.9])."""
    rng = make_rng(seed, 4)
    hessian = random_spd(dim, 1.0, kappa, child_seed(seed, 5))
    lr = rng.uniform(0.05, 1.9) / hessian.eigenvalues[-1]
    return hessian, rng.standard_normal((dim, dim)), rng.standard_normal(dim), lr


def _frobenius(entries: np.ndarray) -> float:
    return float(np.linalg.norm(entries, "fro"))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dim=DIMS, kappa=KAPPAS, seed=SEEDS, batch=st.integers(1, 16))
def test_stationary_solutions_rotate_and_the_radius_is_invariant(dim, kappa, seed, batch):
    hessian, factor, minimizer, lr = _stage(dim, kappa, seed)
    q = _orthogonal(make_rng(seed, 6), dim)
    loss, dyn = QuadraticLoss(hessian, minimizer), SgdDynamics(lr, batch, factor)
    turned_loss = QuadraticLoss(_rotated(hessian, q), q @ minimizer)
    turned_dyn = SgdDynamics(lr, batch, factor @ q.T)

    radius = stability_check(loss, dyn).spectral_radius
    turned_radius = stability_check(turned_loss, turned_dyn).spectral_radius
    # each eigenvalue of A moves by about 4 d eps ||A|| between the two
    assert abs(turned_radius - radius) <= 4 * dim * EPS * (1.0 + lr * hessian.eigenvalues[-1])

    # Lyapunov: rotating changes A and C each by about 2 d eps, relative, and
    # a relative change of either moves S by at most d kappa(A) times it
    lyapunov = stationary_from_dynamics(hessian, minimizer, dyn.noise_cov, lr, batch)
    turned = stationary_from_dynamics(turned_loss.hessian, turned_loss.minimizer,
                                      turned_dyn.noise_cov, lr, batch)
    want = q @ lyapunov.covariance.entries @ q.T
    assert (_frobenius(turned.covariance.entries - want)
            <= 4 * dim**2 * _cond(hessian) * EPS * _frobenius(want))
    assert np.array_equal(turned.mean, q @ minimizer)

    # Stein: the same rule, with the Stein amplification 1 / (1 - rho^2) in
    # place of kappa(A)
    stein = stein_stationary_covariance(hessian, dyn.noise_cov, lr, batch)
    turned_stein = stein_stationary_covariance(turned_loss.hessian, turned_dyn.noise_cov,
                                               lr, batch)
    want = q @ stein.entries @ q.T
    assert (_frobenius(turned_stein.entries - want)
            <= 4 * dim**2 * EPS * _frobenius(want) / (1.0 - radius**2))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(dim=DIMS, kappa=KAPPAS, seed=SEEDS, power=st.integers(-1000, 1000),
       batch=st.integers(1, 16))
@example(dim=8, kappa=100.0, seed=1, power=-1000, batch=16)
@example(dim=8, kappa=100.0, seed=1, power=1000, batch=1)
def test_stationary_solutions_scale_with_the_noise_bit_for_bit(dim, kappa, seed, power, batch):
    # every check is scale-free (the SPD check relative, the solves' backward
    # error), so the laws scale over the float range: the noise's entries stay
    # normal at 2^-1000 and its Gram finite at 2^1000
    hessian, factor, minimizer, lr = _stage(dim, kappa, seed)
    noise = factor.T @ factor
    scale = 2.0**power
    scaled = SymmetricMatrix(scale * noise)
    noise = SymmetricMatrix(noise)
    lyapunov = stationary_from_dynamics(hessian, minimizer, noise, lr, batch)
    scaled_lyapunov = stationary_from_dynamics(hessian, minimizer, scaled, lr, batch)
    assert np.array_equal(scaled_lyapunov.covariance.entries,
                          scale * lyapunov.covariance.entries)
    stein = stein_stationary_covariance(hessian, noise, lr, batch)
    scaled_stein = stein_stationary_covariance(hessian, scaled, lr, batch)
    assert np.array_equal(scaled_stein.entries, scale * stein.entries)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(dim=DIMS, kappa=KAPPAS, seed=SEEDS, power=st.integers(-400, 400))
@example(dim=8, kappa=100.0, seed=1, power=-400)
@example(dim=8, kappa=100.0, seed=1, power=400)
def test_lyapunov_solution_scales_inversely_with_the_hessian_bit_for_bit(dim, kappa, seed,
                                                                         power):
    # A -> 2^k A maps the eigenbasis, lam -> 2^k lam and the denominators
    # lam_i + lam_j -> 2^k (lam_i + lam_j) exactly, so X -> 2^-k X, while
    # LAPACK's eigh scales A by nothing but a power of two (it held up to
    # 2^+-400 here, and broke from about 2^+-450 on)
    hessian, factor, _, lr = _stage(dim, kappa, seed)
    q = SymmetricMatrix(lr * factor.T @ factor)
    scale = 2.0**power
    scaled = make_spd(scale * hessian.entries)
    assert np.array_equal(scaled.eigh[0], scale * hessian.eigh[0])
    assert np.array_equal(scaled.eigh[1], hessian.eigh[1])
    want = solve_continuous_lyapunov(hessian, q).entries / scale
    assert np.array_equal(solve_continuous_lyapunov(scaled, q).entries, want)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(dim=DIMS, kappa=KAPPAS, seed=SEEDS, power=st.integers(-20, 30),
       batch=st.integers(1, 4))
def test_trace_bound_is_the_stationary_kl_at_every_noise_scale(dim, kappa, seed, power,
                                                               batch):
    # A S + S A = (lr / b) sC gives tr S = (lr / b) tr(A^-1 sC) / 2 exactly, so
    # the trace bound on the solution S_s is KL(N(0, S_s) || N(0, I)) at every s.
    # Hessian eigenvalues in [1, kappa] with top t, lr t in [0.05, 1.9], noise
    # eigenvalues in [l, l kappa] with l in t^2 [0.1, 1]: every eigenvalue of
    # S_1 is at least 0.05 * 0.1 / (2 * 4) = 6e-4, so S_s stays above the SPD
    # check's absolute floor of 1e-10 down to s = 2^-20 (a factor 6 to spare)
    hessian = random_spd(dim, 1.0, kappa, child_seed(seed, 5))
    rng = make_rng(seed, 8)
    top = hessian.eigenvalues[-1]
    lr = rng.uniform(0.05, 1.9) / top
    low = top**2 * 10.0 ** rng.uniform(-1.0, 0.0)
    noise = random_spd(dim, low, low * kappa, child_seed(seed, 9))
    scaled = make_spd(2.0**power * noise.entries)
    sigma = stationary_from_dynamics(hessian, np.zeros(dim), scaled, lr, batch).covariance
    bound = kl_upper_bound_trace(hessian, scaled, lr, batch, sigma)
    kl = kl_divergence(GaussianMeasure(np.zeros(dim), sigma), standard_gaussian(dim))
    # the two traces differ by the solves' rounding, at most d kappa(A) eps
    # relative each, a few times over; the log-determinant is the same number
    # on both sides, and each side sums its terms to a few eps of their size
    terms = 0.5 * (float(np.trace(sigma.entries)) + abs(sigma.log_det) + dim)
    assert abs(bound - kl) <= 4 * dim * kappa * EPS * terms


@settings(max_examples=80, deadline=None, derandomize=True)
@given(dim=DIMS, kappa=KAPPAS, seed=SEEDS)
def test_a_domain_paired_with_itself_has_zero_divergence(dim, kappa, seed):
    sigma, _ = _spd_pair(dim, kappa, seed)
    mean = make_rng(seed, 3).standard_normal(dim)
    measure = GaussianMeasure(mean, sigma)
    assert abs(kl_divergence(measure, measure)) <= dim * EPS
    assert abs(discrepancy_d(DomainPair(sigma, sigma, np.zeros(dim)))) <= dim * EPS


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dim=DIMS, extra_rows=st.integers(1, 60), seed=SEEDS)
def test_empirical_quadratic_ignores_the_order_of_the_rows(dim, extra_rows, seed):
    rng = make_rng(seed, 7)
    task = RegressionTask(rng.standard_normal(dim), random_spd(dim, 0.5, 2.0, seed), 1.0)
    n = dim + extra_rows
    data = generate_dataset(task, n, seed)
    order = rng.permutation(n)
    base = empirical_quadratic(data)
    turned = empirical_quadratic(Dataset(data.features[order], data.targets[order], seed))

    x, y = data.features, data.targets
    # each computation of a sum of n products is within gamma_n of |X|^T |X|
    gamma = n * EPS / (1.0 - n * EPS)
    assert np.all(np.abs(turned.hessian.entries - base.hessian.entries)
                  <= 2.0 * (gamma + EPS) * (np.abs(x).T @ np.abs(x)) / n)
    # those changes, through H^-1 on the normal equations, and the two solves
    theta = base.minimizer
    lam = base.hessian.eigenvalues
    kappa = lam[-1] / lam[0]
    moment = np.linalg.norm(np.abs(x).T @ np.abs(y)) / (n * lam[0])
    assert (np.linalg.norm(turned.minimizer - theta)
            <= 4 * (n + dim) * EPS * (dim * kappa * np.linalg.norm(theta) + moment))
    # each residual to gamma_(d+1) of |y| + |X| |theta|, and its square sum to gamma_n
    scale = np.sum((np.abs(y) + np.abs(x) @ np.abs(theta)) ** 2) / n
    assert abs(turned.offset - base.offset) <= 4 * (n + dim) * EPS * scale


@settings(max_examples=24, deadline=None, derandomize=True)
@given(dim=st.sampled_from([2, 10, 32]), kappa=st.floats(1.0, 10.0), seed=SEEDS)
def test_chain_states_rotate_with_the_stage(dim, kappa, seed):
    # lr * lambda_max in [0.2, 1] puts the step map's radius at 1 - lr *
    # lambda_min, so a rounding change of A, about d eps ||A|| from the
    # rotation and the eigensolver, moves a state by at most kappa(A) times
    # it, relative to the states' scale
    rng = make_rng(seed, 11)
    hessian = random_spd(dim, 1.0, kappa, child_seed(seed, 12))
    lr = rng.uniform(0.2, 1.0) / hessian.eigenvalues[-1]
    loss = QuadraticLoss(hessian, rng.standard_normal(dim))
    dyn = SgdDynamics(lr, 1, rng.standard_normal((dim, dim)))
    init = rng.standard_normal(dim)
    q = _orthogonal(make_rng(seed, 13), dim)
    turned_loss = QuadraticLoss(_rotated(hessian, q), q @ loss.minimizer)
    turned_dyn = SgdDynamics(lr, 1, dyn.noise_factor @ q.T)
    steps = 2 * matrixio._block_rows(dim)  # states in three blocks
    states = np.concatenate(list(simulate_chain(init, loss, dyn, steps, 1, seed).state_blocks()))
    turned = np.concatenate(list(
        simulate_chain(q @ init, turned_loss, turned_dyn, steps, 1, seed).state_blocks()))
    want = states @ q.T
    assert (np.max(np.abs(turned - want))
            <= 4 * dim * _cond(hessian) * EPS * np.max(np.abs(want)))


def _chain_stage(dim: int, kappa: float, seed: int, stage: int):
    """A loss and dynamics whose step map has radius at most 0.98: Hessian
    eigenvalues in [1, kappa] with kappa <= 10 and lr * lambda_max in
    [0.2, 1.8], a noise factor near 2 I and a minimizer near the origin."""
    rng = make_rng(seed, 8, stage)
    hessian = random_spd(dim, 1.0, kappa, child_seed(seed, 9, stage))
    lr = rng.uniform(0.2, 1.8) / hessian.eigenvalues[-1]
    factor = rng.standard_normal((dim, dim)) + 2.0 * np.eye(dim)
    return QuadraticLoss(hessian, rng.standard_normal(dim)), SgdDynamics(lr, 1, factor)


def _shifted(loss: QuadraticLoss, shift: np.ndarray) -> QuadraticLoss:
    return QuadraticLoss(loss.hessian, loss.minimizer + shift)


@pytest.mark.parametrize("size", [1e8, 1e16, 1e20, 1e300])
def test_library_chain_covariance_is_the_origin_chains_far_from_it(size):
    # a chain started at its minimizer scans the same records wherever the
    # minimizer lies, so simulate_chain -> estimate_stationary, the estimator
    # of every chain command, keeps the bits of the chain at the origin
    loss, dyn = _chain_stage(3, 4.0, 1, 0)
    origin = QuadraticLoss(loss.hessian, np.zeros(3))
    moved = _shifted(origin, size * np.array([2.0, -1.0, 2.0]) / 3.0)
    run = dict(total_steps=20_000, stride=1, seed=1)
    want = estimate_stationary(simulate_chain(origin.minimizer, origin, dyn, **run), 5000)
    got = estimate_stationary(simulate_chain(moved.minimizer, moved, dyn, **run), 5000)
    assert got.sample_count == want.sample_count
    assert np.array_equal(got.covariance.entries, want.covariance.entries)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dim=st.integers(1, 6), kappa=st.floats(1.0, 10.0), seed=SEEDS,
       size=st.sampled_from([1e8, 1e16, 1e100, 1e300]),
       init_mode=st.sampled_from(["analytic_sample", "chain_continue"]))
def test_chain_moments_shift_with_the_minimizers(dim, kappa, seed, size, init_mode):
    pt_loss, pt_dyn = _chain_stage(dim, kappa, seed, 0)
    ft_loss, ft_dyn = _chain_stage(dim, kappa, seed, 1)
    direction = make_rng(seed, 10).standard_normal(dim)
    shift = size * direction / np.linalg.norm(direction)
    rho = max(stability_check(loss, dyn).spectral_radius
              for loss, dyn in ((pt_loss, pt_dyn), (ft_loss, ft_dyn)))
    # a burn-in of half the records, at stride 1, is `burn` steps, after
    # which the fine-tuning start's offset has shrunk by rho^burn <= 1e-20
    burn = math.ceil(math.log(1e-20) / math.log(rho))
    replicas = 2
    run = dict(pt_steps=2 * burn, ft_steps=2 * burn, replicas=replicas, stride=1,
               master_seed=seed, init_mode=init_mode)
    base = two_stage_run(pt_loss, pt_dyn, ft_loss, ft_dyn, **run)
    moved = two_stage_run(_shifted(pt_loss, shift), pt_dyn, _shifted(ft_loss, shift), ft_dyn,
                          **run)
    simulated = [estimate_stationary(simulate_chain(loss.minimizer, loss, pt_dyn, 2 * burn, 1,
                                                    seed))
                 for loss in (pt_loss, _shifted(pt_loss, shift))]

    # a chain started at its minimizer scans the same records wherever the
    # minimizer lies, so its covariance keeps its bits; its mean is m + V ybar,
    # which rounds at the scale of m
    for got, want in [(moved.pt_estimate, base.pt_estimate), simulated[::-1]]:
        assert np.array_equal(got.covariance.entries, want.covariance.entries)
        assert np.all(np.abs(got.mean - (want.mean + shift))
                      <= 2 * EPS * (np.abs(got.mean) + np.abs(want.mean)))

    # the fine-tuning start m_pt + s (s the analytic draw's offset or the final
    # pre-training deviation) loses to rounding at most |m_pt| + |s| + |m_ft|
    # of its offset from m_ft, elementwise; with twice that as d0, record k
    # moves by at most rho^k d0, and by Cauchy-Schwarz against the centred
    # records (sum of squares (n - 1) tr S) the covariance by the terms below;
    # the scans' and rotations' own rounding adds 8 d eps sqrt(tr S) to a
    # record (`jitter`)
    offsets = []
    for replica in range(replicas):
        if init_mode == "analytic_sample":
            stationary = stationary_from_dynamics(pt_loss.hessian, pt_loss.minimizer,
                                                  pt_dyn.noise_cov, pt_dyn.lr, 1)
            start = sample(stationary, 1, child_seed(seed, replica, 1))[0]
        else:
            chain = simulate_chain(pt_loss.minimizer, pt_loss, pt_dyn, 2 * burn, 2 * burn,
                                   child_seed(seed, replica, 0))
            start = list(chain.state_blocks())[-1][-1]
        offsets.append(np.linalg.norm(np.abs(pt_loss.minimizer)
                                      + np.abs(start - pt_loss.minimizer)
                                      + np.abs(ft_loss.minimizer)))
    d0 = 2.0 * max(offsets)
    want = base.ft_estimate
    n = want.sample_count
    trace = float(np.trace(want.covariance.entries))
    decay = rho**burn
    jitter = 8 * dim * EPS * math.sqrt(trace)
    drift = replicas * decay * d0 / ((1.0 - rho) * n) + jitter
    spread = math.sqrt(replicas / (1.0 - rho**2)) * decay * d0 + math.sqrt(n) * jitter
    got = moved.ft_estimate
    assert (_frobenius(got.covariance.entries - want.covariance.entries)
            <= (2 * math.sqrt((n - 1) * trace) * spread + spread**2) / (n - 1))
    assert np.all(np.abs(got.mean - (want.mean + shift))
                  <= 2 * EPS * (np.abs(got.mean) + np.abs(want.mean)) + drift)
