"""Discrete mean-reverting SGD simulator on quadratic losses.

The constant-rate SGD recursion on a quadratic loss is a linear
stochastic recursion (discrete Ornstein-Uhlenbeck chain)::

    x' = x - lr * A (x - minimizer) + (lr / sqrt(batch_size)) * B^T z,
    z ~ N(0, I)

This module simulates that chain, checks its stability, estimates its
stationary moments, and runs the two-stage pipeline in which a second
(fine-tuning) chain starts from the stationary state of the first.

The chain's exact stationary covariance X solves the Stein equation ``X
= (I - lr A) X (I - lr A) + (lr^2/batch) C``, ``C = B^T B``; divided by
lr, ``A X + X A - lr A X A = (lr/batch) C``, the continuous-time model's
Lyapunov equation (its small-rate limit) with one more term.  X exists
exactly when ``lr * lambda_max(A) < 2``.  Simulations here are compared
against it (simulator ground truth).

The chain is evaluated exactly in A's eigenbasis, on the deviation from
the minimizer: with ``A = V diag(lam) V^T`` it splits into d scalar
recursions ``y' = (1 - lr*lam) * y + V^T kick`` for ``y = V^T (x -
minimizer)``, which a log-depth prefix scan evaluates block by block
(Blelloch 1990, "Prefix sums and their applications").  It reads the
same noise stream as a step-by-step ``sgd_step`` loop and agrees with
that loop to rounding, and reruns stay byte-identical.  The scan runs on
contiguous scratch memory prebuilt once per stage (``_ScanPlan``), at
most ``(4097 + 2 * 512) * d`` floats: 0.41 MB at d = 10 and 5.2 MB at
d = 128; its output is bit-identical to the broadcast scan of earlier
versions.

A chain runs on the caller's thread, at the caller's OpenBLAS thread
count (the CLI holds it to one, :mod:`oupac._threads`).  Its peak memory
is its records, ``(total_steps // stride + 1) * d`` floats in the scan's
coordinates, one chunk of normals and its kicked copy, ``2 * NOISE_CHUNK
* d`` floats at most, and the scan's scratch.  The records are capped at
``linalg.RECORD_FLOATS`` floats, checked before any chain runs.

Chain moments are taken in the scan's coordinates, where a chain far
from the origin keeps its noise, and rotated back once
(:func:`_stage_estimate`), by ``estimate_stationary`` and
``two_stage_run`` alike.  ``two_stage_run`` folds each chain's moments
into one running pool per stage (:func:`_merged`), so it holds one
chain's records at a time and ``replicas`` sizes no array.  A
``Trajectory`` keeps the scan's records as they are, with no copy, and
they are the one records-sized array of a chain:
:meth:`Trajectory.state_blocks` rotates them back one block of rows at a
time, the rows :mod:`oupac.matrixio` renders at a time, and the
``simulate`` command writes each block of its CSV as it comes.  It peaks
at its records plus the larger of one chunk of normals with its kicked
copy and the centred post-burn-in copy its moments take: 61.4 MB for the
40 MB of records of 500000 steps at stride 1 and d = 10 (``tracemalloc``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Literal, NamedTuple

import numpy as np

from .errors import (DimensionMismatchError, InvalidRangeError, NumericalInconsistencyError,
                     TooFewSamplesError, UnstableDynamicsError, _integer, _real, _shown,
                     _typed)
from .gaussian import MomentEstimate, check_rate, sample, stationary_from_dynamics
from .linalg import SpdMatrix, SymmetricMatrix, _check_held, _finite, _frozen_vector, _read_only
from .matrixio import _block_rows
from .rng import child_seed, make_rng

#: Steps of simulation noise generated per chunk (bounds peak memory).
NOISE_CHUNK = 1 << 17

#: Steps per prefix-scan block; the scan makes log2(SCAN_BLOCK) passes over it.
SCAN_BLOCK = 512


@dataclass(frozen=True, eq=False)
class QuadraticLoss:
    """Quadratic loss ``offset + 0.5 (x - minimizer)^T A (x - minimizer)``."""

    hessian: SpdMatrix
    minimizer: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        _typed(self.hessian, SpdMatrix, "hessian")
        minimizer = _frozen_vector(self.minimizer, "minimizer")
        if minimizer.shape[0] != self.hessian.dim:
            raise DimensionMismatchError(
                f"minimizer has dimension {minimizer.shape[0]}, hessian is "
                f"{self.hessian.dim}x{self.hessian.dim}"
            )
        object.__setattr__(self, "minimizer", minimizer)
        object.__setattr__(self, "offset", _real(self.offset, "offset"))

    @property
    def dim(self) -> int:
        return self.hessian.dim

    @np.errstate(over="ignore", invalid="ignore")  # a value that is not finite raises
    def value(self, theta: np.ndarray) -> float:
        return _finite(float(_quadratic_values(self.hessian.entries, self.minimizer, self.offset,
                                               np.asarray(theta, dtype=float))), "loss value")

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return self.hessian.entries @ (np.asarray(theta, dtype=float) - self.minimizer)


def _quadratic_values(hessian, minimizer, offset, theta: np.ndarray) -> np.ndarray:
    """``offset + 0.5 (theta - minimizer)^T A (theta - minimizer)``, each
    argument with leading stack axes or one for all."""
    delta = theta - minimizer
    return offset + 0.5 * (delta[..., None, :] @ hessian @ delta[..., :, None])[..., 0, 0]


@dataclass(frozen=True, eq=False)
class SgdDynamics:
    """Learning rate, batch size, and gradient-noise factor B.

    The single-sample gradient-noise covariance ``C = B^T B`` is
    computed once and cached.  The simulated chain adds
    ``(lr / sqrt(batch_size)) * B^T z`` per step, whose covariance is
    ``(lr^2 / batch_size) * C`` for any square B, symmetric or not.  C
    is a :class:`SymmetricMatrix`, not an :class:`SpdMatrix`: only its
    entries are read, so a rank-deficient B (semidefinite C) is allowed.
    """

    lr: float
    batch_size: int
    noise_factor: np.ndarray
    noise_cov: SymmetricMatrix = field(init=False)

    def __post_init__(self):
        lr, batch_size = check_rate(self.lr, self.batch_size)
        object.__setattr__(self, "lr", lr)
        object.__setattr__(self, "batch_size", batch_size)
        factor = np.asarray(self.noise_factor, dtype=float)
        if factor.ndim != 2 or factor.shape[0] != factor.shape[1]:
            raise DimensionMismatchError(
                f"noise factor must be square, got shape {factor.shape}"
            )
        factor = factor.copy()
        factor.flags.writeable = False
        object.__setattr__(self, "noise_factor", factor)
        with np.errstate(over="ignore", invalid="ignore"):  # SymmetricMatrix rejects an overflow
            gram = factor.T @ factor
        object.__setattr__(self, "noise_cov", SymmetricMatrix(gram))

    @property
    def dim(self) -> int:
        return self.noise_factor.shape[0]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded states of a simulated chain.

    ``records`` holds the initial state plus every ``stride``-th state,
    ``total_steps // stride + 1`` rows in all, in the scan's coordinates
    ``y = V^T (x - minimizer)``, V the Hessian's eigenbasis ``basis``; the
    array is taken over, not copied, so the caller's array becomes
    read-only.  ``basis``, ``minimizer`` and ``init`` are kept as read-only
    copies.  No other records-sized array is kept: :meth:`state_blocks`
    yields the states in the original coordinates a block at a time.
    """

    records: np.ndarray
    basis: np.ndarray
    minimizer: np.ndarray
    init: np.ndarray
    stride: int
    total_steps: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "stride", _integer(self.stride, "stride"))
        object.__setattr__(self, "total_steps", _integer(self.total_steps, "total_steps", 0))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))
        records = np.asarray(self.records, dtype=float)
        dim = records.shape[1] if records.ndim == 2 else -1
        rows = self.total_steps // self.stride + 1
        fields = {"records": (records, (rows, dim)),
                  "basis": (np.array(self.basis, dtype=float), (dim, dim)),
                  "minimizer": (_frozen_vector(self.minimizer, "minimizer"), (dim,)),
                  "init": (_frozen_vector(self.init, "init"), (dim,))}
        for name, (value, shape) in fields.items():
            if value.shape != shape:
                raise DimensionMismatchError(
                    f"trajectory {name} has shape {value.shape}, expected {_shown(shape)} for "
                    f"{_shown(self.total_steps)} steps at stride {_shown(self.stride)}")
            object.__setattr__(self, name, _read_only(value))

    def state_blocks(self) -> Iterator[np.ndarray]:
        """The records in the original coordinates, ``minimizer + V y`` with
        row 0 the exact ``init``, as consecutive blocks of the rows that
        ``matrixio`` renders at a time; each block is a fresh array."""
        rows = _block_rows(self.init.shape[0])
        for start in range(0, self.record_count, rows):
            block = self.records[start:start + rows] @ self.basis.T + self.minimizer
            if start == 0:
                block[0] = self.init
            yield block

    @property
    def record_count(self) -> int:
        return self.records.shape[0]


class StabilityReport(NamedTuple):
    stable: bool
    spectral_radius: float


class TwoStageResult(NamedTuple):
    pt_estimate: MomentEstimate
    ft_estimate: MomentEstimate


def _check_dims(loss: QuadraticLoss, dyn: SgdDynamics) -> None:
    if loss.dim != dyn.dim:
        raise DimensionMismatchError(
            f"loss dimension {loss.dim} != dynamics dimension {dyn.dim}"
        )


def sgd_step(
    state: np.ndarray,
    loss: QuadraticLoss,
    dyn: SgdDynamics,
    noise_draw: np.ndarray,
) -> np.ndarray:
    """One SGD update from ``state`` given a standard-normal draw."""
    _check_dims(_typed(loss, QuadraticLoss, "loss"), _typed(dyn, SgdDynamics, "dyn"))
    state = np.asarray(state, dtype=float)
    noise_draw = np.asarray(noise_draw, dtype=float)
    if state.shape != (loss.dim,) or noise_draw.shape != (loss.dim,):
        raise DimensionMismatchError(
            f"state/noise shapes {state.shape}/{noise_draw.shape} do not match "
            f"dimension {loss.dim}"
        )
    drift = dyn.lr * loss.gradient(state)
    kick = (dyn.lr / np.sqrt(float(dyn.batch_size))) * (dyn.noise_factor.T @ noise_draw)
    return state - drift + kick


def stability_check(loss: QuadraticLoss, dyn: SgdDynamics) -> StabilityReport:
    """Spectral radius of the step map ``I - lr*A`` and its verdict.

    The chain has a stationary distribution iff the radius is strictly
    below 1 (equivalently ``lr * lambda_max(A) < 2``); the boundary
    case is reported unstable.
    """
    _check_dims(_typed(loss, QuadraticLoss, "loss"), _typed(dyn, SgdDynamics, "dyn"))
    radius = float(_step_radius(dyn.lr, loss.hessian.eigenvalues))
    return StabilityReport(stable=radius < 1.0, spectral_radius=radius)


def _step_radius(lr: float, eigenvalues: np.ndarray) -> np.ndarray:
    """Spectral radius of ``I - lr*A`` from A's eigenvalues ``(..., d)``; inf
    where ``lr * lambda`` overflows."""
    with np.errstate(over="ignore"):
        return np.max(np.abs(1.0 - lr * eigenvalues), axis=-1)


def _require_stable(loss: QuadraticLoss, dyn: SgdDynamics) -> None:
    report = stability_check(loss, dyn)
    if not report.stable:
        # below lr * lambda_max = 2 a radius of 1 is 1 - lr*lambda rounded to 1
        too_large = dyn.lr * float(loss.hessian.eigenvalues[-1]) >= 2.0
        cause = ("lr too large for this Hessian" if too_large else
                 "1 - lr*lambda rounds to 1 in float64: lr too small for this Hessian")
        raise UnstableDynamicsError(
            f"stability_check failed: spectral radius of the step map is "
            f"{report.spectral_radius:.6g} >= 1 ({cause})"
        )


class _ScanPlan:
    """The eigenbasis scan of one stage ``(loss, dyn)``, built once and
    reused by every chain of that stage.

    Holds ``A``'s eigenbasis (the Hessian's kept ``eigh``), the factors
    ``mu = 1 - lr * lam``, the rotated noise kick, and a contiguous ``rows
    x d`` scratch block, rows = ``SCAN_BLOCK``, with a temporary of the
    same shape.  For each scan level ``shift = 1, 2, 4, ...`` it prebuilds
    the views
    ``(work[:-shift], power, tmp[:rows - shift], work[shift:])``, where
    ``power`` is ``mu ** shift`` (by repeated squaring) tiled to ``rows -
    shift`` rows, so a level is two ufunc calls over contiguous memory.
    The products and sums are those of a broadcast scan of the same
    blocks, in the same order, so the bits do not depend on this layout.

    Scratch memory is ``(4097 + 2 * rows) * d`` floats: 0.41 MB
    at d = 10 and 5.2 MB at d = 128, under 4% of the 134 MB noise chunk
    there.
    """

    def __init__(self, loss: QuadraticLoss, dyn: SgdDynamics):
        lam, self.basis = loss.hessian.eigh
        self.minimizer = loss.minimizer
        self.mu = 1.0 - dyn.lr * lam
        rows = SCAN_BLOCK
        # row k of z @ kick is (lr/sqrt(b)) B^T z_k, rotated into the eigenbasis
        self.kick = ((dyn.lr / np.sqrt(float(dyn.batch_size))) * dyn.noise_factor) @ self.basis
        self.work = work = np.empty((rows, loss.dim))
        tmp = np.empty((rows, loss.dim))
        self.levels = []
        power = self.mu
        shift = 1
        while shift < rows:
            self.levels.append((shift, work[:-shift], np.tile(power, (rows - shift, 1)),
                                tmp[:rows - shift], work[shift:]))
            shift *= 2
            if shift < rows:
                power = power * power

    def scan(self, block: np.ndarray, carry: np.ndarray) -> np.ndarray:
        """Rows ``y_1 .. y_n`` of the recursion ``y_{j+1} = mu * y_j +
        block[j]`` started at ``y_0 = carry``, as a view of the scratch
        block that the next call overwrites."""
        n = block.shape[0]
        work = self.work[:n]
        head = self.mu * carry  # before the copy: carry may view work
        work[:] = block
        work[0] += head
        levels = self.levels
        if n < SCAN_BLOCK:
            levels = [(shift, src[:n - shift], power[:n - shift], tmp[:n - shift],
                       dst[:n - shift]) for shift, src, power, tmp, dst in levels if shift < n]
        for _, src, power, tmp, dst in levels:
            np.multiply(src, power, out=tmp)
            np.add(dst, tmp, out=dst)
        return work


def _run_chain(
    init: np.ndarray,
    plan: _ScanPlan,
    total_steps: int,
    stride: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Scan the chain in the eigenbasis (module docstring) with ``plan``'s
    stage for ``total_steps`` steps, drawing its standard normals from
    ``rng`` ``NOISE_CHUNK`` steps at a time; return (records, final_state):
    the records in the scan's coordinates ``y = V^T (x - minimizer)``, the
    initial state's first, and the final state in the original ones."""
    dim = plan.mu.shape[0]
    records = np.empty((total_steps // stride + 1, dim))
    records[0] = carry = (np.asarray(init, dtype=float) - plan.minimizer) @ plan.basis
    next_record = 1
    for step in range(0, total_steps, NOISE_CHUNK):
        noise = rng.standard_normal((min(NOISE_CHUNK, total_steps - step), dim)) @ plan.kick
        for start in range(0, noise.shape[0], SCAN_BLOCK):
            block = plan.scan(noise[start:start + SCAN_BLOCK], carry)
            carry = block[-1]
            # block row j is step step + start + j + 1
            kept = block[(-(step + start + 1)) % stride::stride]
            records[next_record:next_record + kept.shape[0]] = kept
            next_record += kept.shape[0]
        del noise  # freed before the next chunk is drawn
    return records, carry @ plan.basis.T + plan.minimizer


def _merged(pool: tuple | None, moments: tuple) -> tuple[int, np.ndarray, np.ndarray]:
    """A stage's running pool of (count, mean, centred scatter), None while
    empty, with one chain's ``moments`` folded in by the pairwise update of
    Chan, Golub and LeVeque (1983, "Algorithms for computing the sample
    variance")."""
    if pool is None:
        return moments
    (count_a, mean_a, scatter_a), (count_b, mean_b, scatter_b) = pool, moments
    count = count_a + count_b
    with np.errstate(over="ignore", invalid="ignore"):
        delta = mean_b - mean_a
        scatter = scatter_a + scatter_b + np.outer(delta, delta) * (count_a * count_b / count)
        return count, mean_a + delta * (count_b / count), scatter


def _centred_moments(samples: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Count, mean and centred scatter ``sum_k (y_k - mean)(y_k - mean)^T`` of
    the rows ``y_k`` of a ``(n, d)`` array, n >= 1, with no overflow warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = samples.mean(axis=0)
        centred = samples - mean
        return samples.shape[0], mean, centred.T @ centred


def _stage_estimate(pool: tuple, basis: np.ndarray, minimizer: np.ndarray) -> MomentEstimate:
    """The moments of a pool of (count, mean ``ybar``, centred scatter ``S``)
    in the scan coordinates of ``basis`` V and ``minimizer`` m, rotated back
    once, as mean ``m + V ybar`` and covariance ``V S V^T / (n - 1)``.
    Raises if one overflows."""
    count, mean, scatter = pool
    with np.errstate(over="ignore", invalid="ignore"):
        mean = minimizer + basis @ mean
        cov = basis @ scatter @ basis.T / (count - 1)
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise NumericalInconsistencyError(
            "chain moments: the mean or covariance of the records overflows float64")
    return MomentEstimate(mean, SymmetricMatrix(cov), count)


def simulate_chain(
    init: np.ndarray,
    loss: QuadraticLoss,
    dyn: SgdDynamics,
    total_steps: int,
    stride: int = 10,
    seed: int = 0,
) -> Trajectory:
    """Simulate the SGD chain for ``total_steps`` updates.

    Records the initial state and every ``stride``-th state thereafter;
    deterministic for a fixed seed.  Raises
    :class:`UnstableDynamicsError` when ``stability_check`` fails.
    """
    _check_dims(_typed(loss, QuadraticLoss, "loss"), _typed(dyn, SgdDynamics, "dyn"))
    init = _frozen_vector(init, "init")
    if init.shape[0] != loss.dim:
        raise DimensionMismatchError(
            f"init has dimension {init.shape[0]}, loss has {loss.dim}"
        )
    total_steps, stride, _ = _check_run(total_steps, stride, None, 1, loss.dim, "total_steps")
    _require_stable(loss, dyn)
    plan = _ScanPlan(loss, dyn)
    records, _ = _run_chain(init, plan, total_steps, stride, make_rng(seed))
    return Trajectory(records, plan.basis, plan.minimizer, init, stride, total_steps, seed)


def estimate_stationary(traj: Trajectory, burn_in_records: int | None = None) -> MomentEstimate:
    """Moments of the post-burn-in records of a trajectory, taken in its
    scan's coordinates and rotated back once (:func:`_stage_estimate`).

    ``burn_in_records`` defaults to half the recorded trajectory; at
    least two records must survive the cut.
    """
    cut = _burn_in_cut(_typed(traj, Trajectory, "traj").record_count, burn_in_records, 2)
    return _stage_estimate(_centred_moments(traj.records[cut:]), traj.basis, traj.minimizer)


def _burn_in_cut(count: int, burn_in: int | None, need: int) -> int:
    """How many of ``count`` records ``burn_in`` (default: half of them)
    discards; raises unless ``burn_in`` is a non-negative integer, or if
    fewer than ``need`` records remain."""
    cut = count // 2 if burn_in is None else _integer(burn_in, "burn_in_records", 0)
    if count - cut < need:
        raise TooFewSamplesError(
            f"{max(count - cut, 0)} records left after burn-in of {_shown(cut)}; need >= {need}"
        )
    return cut


def _check_run(total_steps: int, stride: int, burn_in: int | None, need: int, dim: int,
               name: str) -> tuple[int, int, int]:
    """Reject a run length (the option ``name``), stride or burn-in before
    any chain runs; return the run length, the stride and how many records
    the chain keeps after the burn-in: a chain records ``total_steps //
    stride + 1`` states of ``dim`` floats, at most ``RECORD_FLOATS`` in
    all, and at least ``need`` must survive the burn-in."""
    total_steps, stride = _integer(total_steps, name), _integer(stride, "stride")
    count = total_steps // stride + 1
    _check_held(name + "={} at stride {} records", count * dim, dim, total_steps, stride)
    return total_steps, stride, count - _burn_in_cut(count, burn_in, need)


InitMode = Literal["analytic_sample", "chain_continue"]


def two_stage_run(
    pt_loss: QuadraticLoss,
    pt_dyn: SgdDynamics,
    ft_loss: QuadraticLoss,
    ft_dyn: SgdDynamics,
    pt_steps: int,
    ft_steps: int,
    replicas: int,
    stride: int = 10,
    burn_in: int | None = None,
    master_seed: int = 0,
    init_mode: InitMode = "analytic_sample",
) -> TwoStageResult:
    """Pre-train then fine-tune; pool stationary moments over replicas.

    Each replica runs an independent pre-training chain (started at the
    pre-training minimizer) and a fine-tuning chain whose initial state
    is either a draw from the analytic stationary Gaussian of the
    pre-training dynamics (``"analytic_sample"``) or the final
    pre-training state (``"chain_continue"``).  Per-replica seeds are
    derived from ``master_seed`` by the documented hashing rule.  Each
    chain keeps only the moments of its post-burn-in records, in its
    scan's coordinates, and the moments merge into one pool per stage in
    replica order (:func:`_merged`), so memory does not grow with
    ``replicas``.

    ``burn_in`` counts records per replica and stage; it defaults to
    half of each trajectory's records, and at least one must survive it.
    """
    _check_dims(_typed(pt_loss, QuadraticLoss, "pt_loss"), _typed(pt_dyn, SgdDynamics, "pt_dyn"))
    _check_dims(_typed(ft_loss, QuadraticLoss, "ft_loss"), _typed(ft_dyn, SgdDynamics, "ft_dyn"))
    replicas = _integer(replicas, "replicas", 2)
    pt_steps, stride, pt_kept = _check_run(pt_steps, stride, burn_in, 1, pt_loss.dim, "pt_steps")
    ft_steps, _, ft_kept = _check_run(ft_steps, stride, burn_in, 1, ft_loss.dim, "ft_steps")
    if init_mode not in ("analytic_sample", "chain_continue"):
        raise InvalidRangeError(f"unknown init_mode {init_mode!r}")
    if pt_loss.dim != ft_loss.dim:
        raise DimensionMismatchError(
            f"stage dimensions disagree: {pt_loss.dim} vs {ft_loss.dim}"
        )
    _require_stable(pt_loss, pt_dyn)
    _require_stable(ft_loss, ft_dyn)

    if init_mode == "analytic_sample":
        pt_stationary = stationary_from_dynamics(
            pt_loss.hessian, pt_loss.minimizer, pt_dyn.noise_cov,
            pt_dyn.lr, pt_dyn.batch_size,
        )
    pt_plan = _ScanPlan(pt_loss, pt_dyn)
    ft_plan = _ScanPlan(ft_loss, ft_dyn)
    pt_pool = ft_pool = None
    for replica in range(replicas):
        records, ft_init = _run_chain(pt_loss.minimizer, pt_plan, pt_steps, stride,
                                      make_rng(master_seed, replica, 0))
        pt_pool = _merged(pt_pool, _centred_moments(records[-pt_kept:]))
        del records  # one chain's records are held at a time
        if init_mode == "analytic_sample":
            ft_init = sample(pt_stationary, 1, child_seed(master_seed, replica, 1))[0]
        records, _ = _run_chain(ft_init, ft_plan, ft_steps, stride,
                                make_rng(master_seed, replica, 2))
        ft_pool = _merged(ft_pool, _centred_moments(records[-ft_kept:]))
        del records
    return TwoStageResult(_stage_estimate(pt_pool, pt_plan.basis, pt_plan.minimizer),
                          _stage_estimate(ft_pool, ft_plan.basis, ft_plan.minimizer))
