"""Discrete mean-reverting SGD simulator on quadratic losses.

The constant-rate SGD recursion on a quadratic loss is a linear
stochastic recursion (discrete Ornstein-Uhlenbeck chain)::

    x' = x - lr * A (x - minimizer) + (lr / sqrt(batch_size)) * B^T z,
    z ~ N(0, I)

This module simulates that chain, checks its stability, estimates its
stationary moments, and runs the two-stage pipeline in which a second
(fine-tuning) chain starts from the stationary state of the first.

The discrete chain's exact stationary covariance solves the Stein
equation for ``(I - lr*A, (lr^2/batch) * B^T B)``; the continuous-time
model's covariance solves the Lyapunov equation with right-hand side
``(lr/batch) * C``.  Simulations here are compared against the Stein
solution (simulator ground truth), with the Lyapunov solution as the
small-rate limit.

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

A chain runs on the caller's thread with OpenBLAS held to one thread
(:mod:`oupac._threads`).  Its peak memory is its records,
``(total_steps // stride + 1) * d`` floats, one chunk of normals and
its kicked copy, ``2 * NOISE_CHUNK * d`` floats at most, and the scan's
scratch; once the last chunk is freed, the rotation back into the
original basis takes one records-sized temporary.  The records are
capped at ``linalg.RECORD_FLOATS`` floats, checked before any chain
runs.  The ``simulate`` command holds one chain's records and then one
block of its CSV text at a time (:mod:`oupac.matrixio`); ``two-stage``
holds the records of every replica and stage, the chunks of one chain
at a time, and a small JSON text.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Literal, NamedTuple

import numpy as np

from ._threads import _one_blas_thread
from .errors import (DimensionMismatchError, InvalidRangeError, TooFewSamplesError,
                     UnstableDynamicsError)
from .gaussian import (MomentEstimate, check_rate, empirical_moments, sample,
                       stationary_from_dynamics)
from .linalg import RECORD_FLOATS, SpdMatrix, _frozen_vector, make_spd
from .rng import child_seed, make_rng

#: Steps of simulation noise generated per chunk (bounds peak memory).
NOISE_CHUNK = 1 << 17

#: Steps per prefix-scan block; the scan makes log2(SCAN_BLOCK) passes over it.
SCAN_BLOCK = 512

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True, eq=False)
class QuadraticLoss:
    """Quadratic loss ``offset + 0.5 (x - minimizer)^T A (x - minimizer)``."""

    hessian: SpdMatrix
    minimizer: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        minimizer = _frozen_vector(self.minimizer, "minimizer")
        if minimizer.shape[0] != self.hessian.dim:
            raise DimensionMismatchError(
                f"minimizer has dimension {minimizer.shape[0]}, hessian is "
                f"{self.hessian.dim}x{self.hessian.dim}"
            )
        object.__setattr__(self, "minimizer", minimizer)

    @property
    def dim(self) -> int:
        return self.hessian.dim

    def value(self, theta: np.ndarray) -> float:
        return float(_quadratic_values(self.hessian.entries, self.minimizer, self.offset,
                                       np.asarray(theta, dtype=float)))

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
    ``(lr^2 / batch_size) * C`` for any square B, symmetric or not.  A
    rank-deficient B (semidefinite C) is allowed.
    """

    lr: float
    batch_size: int
    noise_factor: np.ndarray
    noise_cov: SpdMatrix = field(init=False)

    def __post_init__(self):
        check_rate(self.lr, self.batch_size)
        factor = np.asarray(self.noise_factor, dtype=float)
        if factor.ndim != 2 or factor.shape[0] != factor.shape[1]:
            raise DimensionMismatchError(
                f"noise factor must be square, got shape {factor.shape}"
            )
        factor = factor.copy()
        factor.flags.writeable = False
        object.__setattr__(self, "noise_factor", factor)
        object.__setattr__(
            self, "noise_cov", make_spd(factor.T @ factor, strictness="semidefinite")
        )

    @property
    def dim(self) -> int:
        return self.noise_factor.shape[0]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded states of a simulated chain.

    ``states`` holds the initial state plus every ``stride``-th state,
    ``total_steps // stride + 1`` records in all.
    """

    states: np.ndarray
    stride: int
    total_steps: int
    seed: int

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        expected = self.total_steps // self.stride + 1
        if states.shape[0] != expected:
            raise DimensionMismatchError(
                f"trajectory has {states.shape[0]} records, expected {expected} "
                f"for {self.total_steps} steps at stride {self.stride}"
            )
        states = states.copy()
        states.flags.writeable = False
        object.__setattr__(self, "states", states)

    @property
    def record_count(self) -> int:
        return self.states.shape[0]


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
    _check_dims(loss, dyn)
    state = np.asarray(state, dtype=float)
    noise_draw = np.asarray(noise_draw, dtype=float)
    if state.shape != (loss.dim,) or noise_draw.shape != (loss.dim,):
        raise DimensionMismatchError(
            f"state/noise shapes {state.shape}/{noise_draw.shape} do not match "
            f"dimension {loss.dim}"
        )
    drift = dyn.lr * loss.gradient(state)
    kick = (dyn.lr / np.sqrt(dyn.batch_size)) * (dyn.noise_factor.T @ noise_draw)
    return state - drift + kick


def stability_check(loss: QuadraticLoss, dyn: SgdDynamics) -> StabilityReport:
    """Spectral radius of the step map ``I - lr*A`` and its verdict.

    The chain has a stationary distribution iff the radius is strictly
    below 1 (equivalently ``lr * lambda_max(A) < 2``); the boundary
    case is reported unstable.
    """
    _check_dims(loss, dyn)
    radius = float(_step_radius(dyn.lr, np.linalg.eigvalsh(loss.hessian.entries)))
    return StabilityReport(stable=radius < 1.0, spectral_radius=radius)


def _step_radius(lr: float, eigenvalues: np.ndarray) -> np.ndarray:
    """Spectral radius of ``I - lr*A`` from A's eigenvalues ``(..., d)``."""
    return np.max(np.abs(1.0 - lr * eigenvalues), axis=-1)


def _require_stable(loss: QuadraticLoss, dyn: SgdDynamics, allow_unstable: bool) -> None:
    report = stability_check(loss, dyn)
    if not report.stable and not allow_unstable:
        # below lr * lambda_max = 2 a radius of 1 is 1 - lr*lambda rounded to 1
        too_large = dyn.lr * np.linalg.eigvalsh(loss.hessian.entries)[-1] >= 2.0
        cause = ("lr too large for this Hessian" if too_large else
                 "1 - lr*lambda rounds to 1 in float64: lr too small for this Hessian")
        raise UnstableDynamicsError(
            f"stability_check failed: spectral radius of the step map is "
            f"{report.spectral_radius:.6g} >= 1 ({cause})"
        )


def _check_run_length(total_steps: int, stride: int, dim: int,
                      name: str = "total_steps") -> None:
    """Reject a run of ``total_steps`` (the option ``name``) at ``stride``
    whose ``total_steps // stride + 1`` records of ``dim`` floats would
    exceed ``RECORD_FLOATS``, before anything is allocated."""
    if total_steps < 1:
        raise InvalidRangeError(f"{name} must be >= 1, got {total_steps}")
    if stride < 1:
        raise InvalidRangeError(f"stride must be >= 1, got {stride}")
    floats = (total_steps // stride + 1) * dim
    if floats > RECORD_FLOATS:
        raise InvalidRangeError(
            f"{name}={total_steps} at stride {stride} records {floats} floats "
            f"({8 * floats} bytes) at dimension {dim}; at most {RECORD_FLOATS} "
            f"({8 * RECORD_FLOATS} bytes) are held"
        )


def _scan_rows(radius: float) -> int:
    """Rows per scan block: ``SCAN_BLOCK``, halved while the largest power
    the scan takes, ``radius ** (rows // 2)``, would overflow."""
    rows = SCAN_BLOCK
    while radius > 1.0 and rows > 1 and rows // 2 * math.log(radius) > _LOG_FLOAT_MAX:
        rows //= 2
    return rows


class _ScanPlan:
    """The eigenbasis scan of one stage ``(loss, dyn)``, built once and
    reused by every chain of that stage.

    Holds ``A``'s eigenbasis, the factors ``mu = 1 - lr * lam``, the
    rotated noise kick, and a contiguous ``rows x d`` scratch block with
    a temporary of the same shape.  For each scan level ``shift = 1, 2,
    4, ...`` it prebuilds the views ``(work[:-shift], power, tmp[:rows -
    shift], work[shift:])``, where ``power`` is ``mu ** shift`` (by
    repeated squaring) tiled to ``rows - shift`` rows, so a level is two
    ufunc calls over contiguous memory.  The products and sums are those
    of a broadcast scan of the same blocks, in the same order, so the
    bits do not depend on this layout.

    Scratch memory is ``(4097 + 2 * rows) * d`` floats at most: 0.41 MB
    at d = 10 and 5.2 MB at d = 128, under 4% of the 134 MB noise chunk
    there.
    """

    def __init__(self, loss: QuadraticLoss, dyn: SgdDynamics):
        lam, self.basis = np.linalg.eigh(loss.hessian.entries)
        self.minimizer = loss.minimizer
        self.mu = 1.0 - dyn.lr * lam
        self.rows = rows = _scan_rows(float(np.max(np.abs(self.mu))))
        # row k of z @ kick is (lr/sqrt(b)) B^T z_k, rotated into the eigenbasis
        self.kick = ((dyn.lr / np.sqrt(dyn.batch_size)) * dyn.noise_factor) @ self.basis
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
        if n < self.rows:
            levels = [(shift, src[:n - shift], power[:n - shift], tmp[:n - shift],
                       dst[:n - shift]) for shift, src, power, tmp, dst in levels if shift < n]
        for _, src, power, tmp, dst in levels:
            np.multiply(src, power, out=tmp)
            np.add(dst, tmp, out=dst)
        return work


def _normal_chunks(rng: np.random.Generator, total_steps: int,
                   dim: int) -> Iterator[np.ndarray]:
    """A chain's standard normal draws, ``NOISE_CHUNK`` steps at a time."""
    for step in range(0, total_steps, NOISE_CHUNK):
        yield rng.standard_normal((min(NOISE_CHUNK, total_steps - step), dim))


def _run_chain(
    init: np.ndarray,
    plan: _ScanPlan,
    total_steps: int,
    stride: int,
    normals: Iterator[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Scan the chain in the eigenbasis (module docstring) with ``plan``'s
    stage, taking from ``normals`` the chunks of ``_normal_chunks`` for
    ``total_steps`` steps; return (records, final_state)."""
    dim = plan.mu.shape[0]
    records = np.empty((total_steps // stride + 1, dim))
    records[0] = init
    carry = (np.asarray(init, dtype=float) - plan.minimizer) @ plan.basis
    step = 0
    next_record = 1
    while step < total_steps:
        noise = next(normals) @ plan.kick
        chunk = noise.shape[0]
        for start in range(0, chunk, plan.rows):
            block = plan.scan(noise[start:start + plan.rows], carry)
            carry = block[-1]
            # block row j is step step + start + j + 1
            kept = block[(-(step + start + 1)) % stride::stride]
            records[next_record:next_record + kept.shape[0]] = kept
            next_record += kept.shape[0]
        step += chunk
    del noise  # the rotation back below needs one records-sized temporary
    np.add(records[1:] @ plan.basis.T, plan.minimizer, out=records[1:])
    return records, carry @ plan.basis.T + plan.minimizer


def simulate_chain(
    init: np.ndarray,
    loss: QuadraticLoss,
    dyn: SgdDynamics,
    total_steps: int,
    stride: int = 10,
    seed: int = 0,
    allow_unstable: bool = False,
) -> Trajectory:
    """Simulate the SGD chain for ``total_steps`` updates.

    Records the initial state and every ``stride``-th state thereafter;
    deterministic for a fixed seed.  Raises
    :class:`UnstableDynamicsError` when ``stability_check`` fails,
    unless ``allow_unstable`` is set.
    """
    _check_dims(loss, dyn)
    init = np.asarray(init, dtype=float).reshape(-1)
    if init.shape[0] != loss.dim:
        raise DimensionMismatchError(
            f"init has dimension {init.shape[0]}, loss has {loss.dim}"
        )
    _check_run_length(total_steps, stride, loss.dim)
    _require_stable(loss, dyn, allow_unstable)
    plan = _ScanPlan(loss, dyn)
    with _one_blas_thread():
        records, _ = _run_chain(init, plan, total_steps, stride,
                                _normal_chunks(make_rng(seed), total_steps, loss.dim))
    return Trajectory(records, stride=stride, total_steps=total_steps, seed=seed)


def estimate_stationary(traj: Trajectory, burn_in_records: int | None = None) -> MomentEstimate:
    """Moments of the post-burn-in records of a trajectory.

    ``burn_in_records`` defaults to half the recorded trajectory; at
    least two records must survive the cut.
    """
    return empirical_moments(_after_burn_in(traj.states, burn_in_records, 2))


def _after_burn_in(records: np.ndarray, burn_in: int | None, need: int) -> np.ndarray:
    """The records after the first ``burn_in`` (default: half of them); raises
    for a negative ``burn_in`` or if fewer than ``need`` records remain."""
    return records[_burn_in_cut(records.shape[0], burn_in, need):]


def _burn_in_cut(count: int, burn_in: int | None, need: int) -> int:
    """How many of ``count`` records ``burn_in`` discards (``_after_burn_in``)."""
    cut = count // 2 if burn_in is None else burn_in
    if cut < 0:
        raise InvalidRangeError(f"burn_in_records must be >= 0, got {cut}")
    if count - cut < need:
        raise TooFewSamplesError(
            f"{max(count - cut, 0)} records left after burn-in of {cut}; need >= {need}"
        )
    return cut


def _check_run(total_steps: int, stride: int, burn_in: int | None, need: int, dim: int,
               name: str) -> None:
    """Reject a run length (the option ``name``), stride or burn-in before
    any chain runs: the chain records ``total_steps // stride + 1`` states
    of ``dim`` floats, at most ``RECORD_FLOATS`` in all, and at least
    ``need`` must survive the burn-in."""
    _check_run_length(total_steps, stride, dim, name)
    _burn_in_cut(total_steps // stride + 1, burn_in, need)


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
    derived from ``master_seed`` by the documented hashing rule, and
    pooling concatenates post-burn-in records in replica order, so the
    result does not depend on scheduling.

    ``burn_in`` counts records per replica and stage; it defaults to
    half of each trajectory's records, and at least one must survive it.
    """
    if replicas < 2:
        raise InvalidRangeError(f"replicas must be >= 2, got {replicas}")
    _check_run(pt_steps, stride, burn_in, 1, pt_loss.dim, "pt_steps")
    _check_run(ft_steps, stride, burn_in, 1, ft_loss.dim, "ft_steps")
    if init_mode not in ("analytic_sample", "chain_continue"):
        raise InvalidRangeError(f"unknown init_mode {init_mode!r}")
    _check_dims(pt_loss, pt_dyn)
    _check_dims(ft_loss, ft_dyn)
    if pt_loss.dim != ft_loss.dim:
        raise DimensionMismatchError(
            f"stage dimensions disagree: {pt_loss.dim} vs {ft_loss.dim}"
        )
    _require_stable(pt_loss, pt_dyn, allow_unstable=False)
    _require_stable(ft_loss, ft_dyn, allow_unstable=False)

    ft_inits = None
    if init_mode == "analytic_sample":
        pt_stationary = stationary_from_dynamics(
            pt_loss.hessian, pt_loss.minimizer, pt_dyn.noise_cov,
            pt_dyn.lr, pt_dyn.batch_size,
        )
        # drawn before the chains, with OpenBLAS unpinned: the bits of a
        # Cholesky factor can depend on its thread count
        ft_inits = [sample(pt_stationary, 1, child_seed(master_seed, replica, 1))[0]
                    for replica in range(replicas)]

    pt_plan = _ScanPlan(pt_loss, pt_dyn)
    ft_plan = _ScanPlan(ft_loss, ft_dyn)
    pt_blocks = []
    ft_blocks = []
    with _one_blas_thread():
        # every chain's draws in chain order, each generator made at its first draw
        normals = itertools.chain.from_iterable(
            _normal_chunks(make_rng(master_seed, replica, stage), steps, pt_loss.dim)
            for replica in range(replicas) for stage, steps in ((0, pt_steps), (2, ft_steps)))
        for replica in range(replicas):
            pt_records, pt_final = _run_chain(pt_loss.minimizer, pt_plan, pt_steps, stride,
                                              normals)
            ft_init = pt_final if ft_inits is None else ft_inits[replica]
            ft_records, _ = _run_chain(ft_init, ft_plan, ft_steps, stride, normals)
            pt_blocks.append(_after_burn_in(pt_records, burn_in, 1))
            ft_blocks.append(_after_burn_in(ft_records, burn_in, 1))

    return TwoStageResult(
        pt_estimate=empirical_moments(np.concatenate(pt_blocks, axis=0)),
        ft_estimate=empirical_moments(np.concatenate(ft_blocks, axis=0)),
    )
