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
that loop to rounding, and reruns stay byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, NamedTuple

import numpy as np

from .errors import (DimensionMismatchError, InvalidRangeError, TooFewSamplesError,
                     UnstableDynamicsError)
from .gaussian import (MomentEstimate, check_rate, empirical_moments, sample,
                       stationary_from_dynamics)
from .linalg import SpdMatrix, make_spd
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
        minimizer = np.asarray(self.minimizer, dtype=float).reshape(-1).copy()
        if minimizer.shape[0] != self.hessian.dim:
            raise DimensionMismatchError(
                f"minimizer has dimension {minimizer.shape[0]}, hessian is "
                f"{self.hessian.dim}x{self.hessian.dim}"
            )
        minimizer.flags.writeable = False
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
        raise UnstableDynamicsError(
            f"stability_check failed: spectral radius of the step map is "
            f"{report.spectral_radius:.6g} >= 1 (lr too large for this Hessian)"
        )


def _check_run_length(total_steps: int, stride: int) -> None:
    if total_steps < 1:
        raise InvalidRangeError(f"total_steps must be >= 1, got {total_steps}")
    if stride < 1:
        raise InvalidRangeError(f"stride must be >= 1, got {stride}")


def _scan_rows(radius: float) -> int:
    """Rows per scan block: ``SCAN_BLOCK``, halved while the largest power
    the scan takes, ``radius ** (rows // 2)``, would overflow."""
    rows = SCAN_BLOCK
    while radius > 1.0 and rows > 1 and rows // 2 * math.log(radius) > _LOG_FLOAT_MAX:
        rows //= 2
    return rows


def _scan(block: np.ndarray, mu: np.ndarray, carry: np.ndarray) -> None:
    """In place, row j of ``block`` becomes ``y_{j+1}`` of the recursion
    ``y_{j+1} = mu * y_j + block[j]`` started at ``y_0 = carry``."""
    block[0] += mu * carry
    power = mu
    shift = 1
    while shift < block.shape[0]:
        block[shift:] += power * block[:-shift]
        shift *= 2
        if shift < block.shape[0]:
            power = power * power


def _run_chain(
    init: np.ndarray,
    loss: QuadraticLoss,
    dyn: SgdDynamics,
    total_steps: int,
    stride: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Scan the chain in the eigenbasis (module docstring); return
    (records, final_state)."""
    dim = loss.dim
    lam, basis = np.linalg.eigh(loss.hessian.entries)
    mu = 1.0 - dyn.lr * lam
    rows = _scan_rows(float(np.max(np.abs(mu))))
    # row k of z @ kick is (lr/sqrt(b)) B^T z_k, rotated into the eigenbasis
    kick = ((dyn.lr / np.sqrt(dyn.batch_size)) * dyn.noise_factor) @ basis
    records = np.empty((total_steps // stride + 1, dim))
    records[0] = init
    carry = (np.asarray(init, dtype=float) - loss.minimizer) @ basis
    step = 0
    next_record = 1
    while step < total_steps:
        chunk = min(NOISE_CHUNK, total_steps - step)
        noise = rng.standard_normal((chunk, dim)) @ kick
        for start in range(0, chunk, rows):
            block = noise[start:start + rows]
            _scan(block, mu, carry)
            carry = block[-1]
            # block row j is step step + start + j + 1
            kept = block[(-(step + start + 1)) % stride::stride]
            records[next_record:next_record + kept.shape[0]] = kept
            next_record += kept.shape[0]
        step += chunk
    records[1:] = records[1:] @ basis.T + loss.minimizer
    return records, carry @ basis.T + loss.minimizer


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
    _check_run_length(total_steps, stride)
    _require_stable(loss, dyn, allow_unstable)
    records, _ = _run_chain(init, loss, dyn, total_steps, stride, make_rng(seed))
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


def _check_run(total_steps: int, stride: int, burn_in: int | None, need: int) -> None:
    """Reject a run length, stride or burn-in before any chain runs: the
    chain records ``total_steps // stride + 1`` states, and at least ``need``
    must survive the burn-in."""
    _check_run_length(total_steps, stride)
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
    _check_run(pt_steps, stride, burn_in, 1)
    _check_run(ft_steps, stride, burn_in, 1)
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

    if init_mode == "analytic_sample":
        pt_stationary = stationary_from_dynamics(
            pt_loss.hessian, pt_loss.minimizer, pt_dyn.noise_cov,
            pt_dyn.lr, pt_dyn.batch_size,
        )

    pt_blocks = []
    ft_blocks = []
    for replica in range(replicas):
        pt_rng = make_rng(master_seed, replica, 0)
        pt_records, pt_final = _run_chain(
            pt_loss.minimizer, pt_loss, pt_dyn, pt_steps, stride, pt_rng
        )
        if init_mode == "analytic_sample":
            ft_init = sample(pt_stationary, 1, child_seed(master_seed, replica, 1))[0]
        else:
            ft_init = pt_final
        ft_rng = make_rng(master_seed, replica, 2)
        ft_records, _ = _run_chain(ft_init, ft_loss, ft_dyn, ft_steps, stride, ft_rng)
        pt_blocks.append(_after_burn_in(pt_records, burn_in, 1))
        ft_blocks.append(_after_burn_in(ft_records, burn_in, 1))

    return TwoStageResult(
        pt_estimate=empirical_moments(np.concatenate(pt_blocks, axis=0)),
        ft_estimate=empirical_moments(np.concatenate(ft_blocks, axis=0)),
    )
