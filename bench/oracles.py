"""Output oracles, run after the timed phase.

``check(op, outcome, ctx)`` returns a list of ``(category,
message)`` problems; an op passes when the list is empty.  The
references come from outside the code path under test where one exists
(scipy solvers, numpy closed forms, the analytic chain statistics), and
from replaying public functions where the check is about agreement.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from oupac import bounds, diffusion, gaussian, linalg, rng

from ops import Outcome

#: Per-op probability that a correct chain fails the covariance check.
CHAIN_FALSE_ALARM = 1e-6
#: Documented solver residual tolerance: ||R||_F <= RTOL * (1 + ||Q||_F).
RESIDUAL_RTOL = 1e-10
REPLAY_RTOL = 1e-12
IDENTITY_RTOL = 1e-9
ECHO_RTOL = 1e-12
MC_SIGMAS = 5.0


@dataclass
class Context:
    """The workload's ops and a reader for the payload an op wrote."""

    ops: Sequence
    payload: Callable[[object], bytes]


def check(op, outcome: Outcome, ctx: Context) -> list[tuple[str, str]]:
    if outcome.error:
        return [(outcome.error.split(":", 1)[0], f"raised {outcome.error}")]
    if op.argv and outcome.rc != 0:
        return [("exit-code", f"exit {outcome.rc}: {outcome.stderr.strip()[:200]}")]
    try:
        return CHECKS[op.kind](op, outcome, ctx)
    except (ValueError, KeyError, TypeError, IndexError, json.JSONDecodeError) as exc:
        return [("schema", f"unreadable output: {type(exc).__name__}: {exc}")]


def _rel_close(value: float, reference: float, rtol: float) -> bool:
    return abs(value - reference) <= rtol * max(abs(reference), 1e-300)


def _gaussian_kl(mean_q, cov_q, mean_p, cov_p) -> float:
    """KL(N(mq, Sq) || N(mp, Sp)) by slogdet and a dense solve."""
    dim = len(mean_q)
    shift = np.asarray(mean_p) - np.asarray(mean_q)
    trace = float(np.trace(np.linalg.solve(cov_p, cov_q)))
    maha = float(shift @ np.linalg.solve(cov_p, shift))
    logdet = np.linalg.slogdet(cov_p)[1] - np.linalg.slogdet(cov_q)[1]
    return 0.5 * (trace - dim + maha + logdet)


# ---------------------------------------------------------------------------
# chain


def stationary_reference(stage: dict) -> tuple[np.ndarray, np.ndarray]:
    """Step map M and the Stein solution of the documented per-step noise
    covariance (lr^2 / b) B^T B, solved by scipy."""
    dim = len(stage["minimizer"])
    step_map = np.eye(dim) - stage["eta"] * stage["hessian"]
    factor = stage["noise_factor"]
    noise = (stage["eta"] ** 2 / stage["batch"]) * factor.T @ factor
    return step_map, scipy.linalg.solve_discrete_lyapunov(step_map, noise)


def covariance_sd(step_map: np.ndarray, cov: np.ndarray, stride: int, count: int) -> np.ndarray:
    """Standard deviation of each sample-covariance entry of ``count``
    records taken every ``stride`` steps of the stationary chain.

    Bartlett's formula with the chain's exact autocovariances
    Gamma(k) = M^(stride k) S:  n Var(C_ij) = sum over all lags k of
    Gamma_ii(k) Gamma_jj(k) + Gamma_ij(k) Gamma_ji(k).
    """
    lag_map = np.linalg.matrix_power(step_map, stride)
    radius = max(float(np.max(np.abs(np.linalg.eigvalsh(lag_map)))), 1e-300)
    lags = int(math.ceil(math.log(1e-14) / math.log(radius))) if radius < 1 else 1
    total = np.outer(np.diag(cov), np.diag(cov)) + cov * cov
    gamma = cov
    for _ in range(max(lags, 1)):
        gamma = lag_map @ gamma
        total += 2.0 * (np.outer(np.diag(gamma), np.diag(gamma)) + gamma * gamma.T)
    return np.sqrt(total / count)


def covariance_threshold(dim: int, count_eff: float) -> float:
    """z threshold so that a correct chain fails with probability below
    CHAIN_FALSE_ALARM: a union bound over the d(d+1)/2 entries, with a
    Cornish-Fisher term for the skew of a covariance estimate from
    ``count_eff`` effective samples."""
    entries = dim * (dim + 1) // 2
    z = statistics.NormalDist().inv_cdf(1.0 - CHAIN_FALSE_ALARM / (2 * entries))
    skew = math.sqrt(8.0 / max(count_eff, 1.0))
    return z + skew / 6.0 * (z * z - 1.0)


def _covariance_problems(label: str, cov: np.ndarray, count: int, stage: dict,
                         stride: int) -> list[tuple[str, str]]:
    if not np.all(np.isfinite(cov)):
        return [("non-finite", f"{label}: covariance has non-finite entries")]
    step_map, reference = stationary_reference(stage)
    sd = covariance_sd(step_map, reference, stride, count)
    base = np.sqrt(np.outer(np.diag(reference), np.diag(reference)) + reference**2)
    count_eff = float(np.min((base / sd) ** 2))
    z = np.abs(cov - reference) / sd
    limit = covariance_threshold(len(reference), count_eff)
    worst = float(np.max(z))
    if not worst <= limit:
        return [("stationary-covariance",
                 f"{label}: covariance entry off the Stein(B^T B) solution by "
                 f"{worst:.3g} sd > {limit:.3g} (effective samples {count_eff:.0f})")]
    return []


def _mean_problems(label: str, mean: np.ndarray, cov: np.ndarray, count: int,
                   stage: dict, stride: int) -> list[tuple[str, str]]:
    """The stationary mean is the minimizer whatever the noise covariance,
    so the chain's own covariance ``cov`` sets the standard error.

    The variance of a mean of ``count`` records every ``stride`` steps
    is at most V / count, with the long-run covariance
    V = S + L (I - L)^-1 S + S (I - L)^-T L^T and L = M^stride.  The
    threshold is a union bound over the coordinates, widened for the
    error of estimating V from ``count`` records.
    """
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
        return [("non-finite", f"{label}: mean or covariance has non-finite entries")]
    step_map, _ = stationary_reference(stage)
    lag_map = np.linalg.matrix_power(step_map, stride)
    carry = lag_map @ np.linalg.solve(np.eye(len(mean)) - lag_map, cov)
    long_run = np.diag(cov + carry + carry.T)
    count_eff = float(np.min(count * np.diag(cov) / long_run))
    z = statistics.NormalDist().inv_cdf(1.0 - CHAIN_FALSE_ALARM / (2 * len(mean)))
    limit = z / max(1.0 - z / math.sqrt(2.0 * count_eff), 0.5)
    worst = float(np.max(np.abs(mean - stage["minimizer"]) / np.sqrt(long_run / count)))
    if not worst <= limit:
        return [("stationary-mean", f"{label}: mean off the minimizer by {worst:.3g} sd "
                                    f"> {limit:.3g} (effective samples {count_eff:.0f})")]
    return []


def _replay(stage: dict, init: np.ndarray, steps: int, stride: int, noise):
    """Run the chain with public sgd_step on the generator's noise stream."""
    loss = diffusion.QuadraticLoss(linalg.make_spd(stage["hessian"]), stage["minimizer"])
    dyn = diffusion.SgdDynamics(stage["eta"], stage["batch"], stage["noise_factor"])
    state = np.asarray(init, float)
    records = [state]
    done = 0
    while done < steps:
        chunk = min(diffusion.NOISE_CHUNK, steps - done)
        for draw in noise.standard_normal((chunk, len(state))):
            state = diffusion.sgd_step(state, loss, dyn, draw)
            done += 1
            if done % stride == 0:
                records.append(state)
    return np.array(records), state, loss, dyn


def _agree(label: str, got: np.ndarray, want: np.ndarray) -> list[tuple[str, str]]:
    got = np.asarray(got, float)
    if got.shape != want.shape:
        return [("replay", f"{label}: shape {got.shape}, replay {want.shape}")]
    scale = max(float(np.max(np.abs(want))), 1e-300)
    err = float(np.max(np.abs(got - want)))
    if not err <= REPLAY_RTOL * scale:  # NaN fails
        return [("replay", f"{label}: differs from the sgd_step replay by {err:.3g} "
                           f"(scale {scale:.3g})")]
    return []


def _check_simulate(op, outcome, ctx) -> list[tuple[str, str]]:
    d = op.data
    rows = list(csv.reader(io.StringIO(ctx.payload(op).decode())))
    header = ["step"] + [f"theta_{i}" for i in range(d["dim"])]
    records = d["steps"] // d["stride"] + 1
    if rows[0] != header or len(rows) != records + 1:
        return [("schema", f"csv header {rows[0][:3]}... with {len(rows) - 1} rows, "
                           f"expected {records}")]
    table = np.array(rows[1:], dtype=float)
    if not np.array_equal(table[:, 0], np.arange(records) * d["stride"]):
        return [("schema", "step column is not 0, stride, 2*stride, ...")]
    if not np.all(np.isfinite(table)):
        return [("non-finite", "csv holds non-finite values")]
    states = table[:, 1:]
    kept = states[records // 2:]
    cov = np.cov(kept, rowvar=False).reshape(d["dim"], d["dim"])
    problems = _covariance_problems("simulate", cov, len(kept), d, d["stride"])
    problems += _mean_problems("simulate", kept.mean(axis=0), cov, len(kept), d, d["stride"])
    if d["replay"]:
        replay, *_ = _replay(d, d["minimizer"], d["steps"], d["stride"],
                             rng.make_rng(d["seed"]))
        problems += _agree("simulate records", states, replay)
    return problems


def _check_two_stage(op, outcome, ctx) -> list[tuple[str, str]]:
    d = op.data
    doc = json.loads(ctx.payload(op))
    if set(doc) != {"pt", "ft", "init_mode", "replicas", "seed"} or (
            doc["init_mode"], doc["replicas"], doc["seed"]) != (
            d["init_mode"], d["replicas"], d["seed"]):
        return [("schema", f"payload keys/echo mismatch: {sorted(doc)}")]
    problems = []
    estimates = {}
    for stage in ("pt", "ft"):
        records = d[stage]["steps"] // d["stride"] + 1
        count = d["replicas"] * (records - records // 2)
        block = doc[stage]
        mean = np.array(block["mean"], float)
        cov = np.array(block["covariance"], float)
        if block["sample_count"] != count or cov.shape != (d["dim"], d["dim"]):
            problems.append(("schema", f"{stage}: sample_count {block['sample_count']} "
                                       f"!= {count} or bad covariance shape"))
            continue
        estimates[stage] = (mean, cov)
        problems += _covariance_problems(f"two-stage {stage}", cov, count, d[stage],
                                         d["stride"])
        problems += _mean_problems(f"two-stage {stage}", mean, cov, count, d[stage],
                                   d["stride"])
    if d["replay"] and len(estimates) == 2:
        problems += _replay_two_stage(d, estimates)
    return problems


def _replay_two_stage(d: dict, estimates: dict) -> list[tuple[str, str]]:
    blocks = {"pt": [], "ft": []}
    for replica in range(d["replicas"]):
        pt_records, pt_final, pt_loss, pt_dyn = _replay(
            d["pt"], d["pt"]["minimizer"], d["pt"]["steps"], d["stride"],
            rng.make_rng(d["seed"], replica, 0))
        if d["init_mode"] == "analytic_sample":
            stationary = gaussian.stationary_from_dynamics(
                pt_loss.hessian, pt_loss.minimizer, pt_dyn.noise_cov, pt_dyn.lr,
                pt_dyn.batch_size)
            init = gaussian.sample(stationary, 1, rng.child_seed(d["seed"], replica, 1))[0]
        else:
            init = pt_final
        ft_records, *_ = _replay(d["ft"], init, d["ft"]["steps"], d["stride"],
                                 rng.make_rng(d["seed"], replica, 2))
        for stage, records in (("pt", pt_records), ("ft", ft_records)):
            blocks[stage].append(records[len(records) // 2:])
    problems = []
    for stage, (mean, cov) in estimates.items():
        pooled = np.concatenate(blocks[stage])
        problems += _agree(f"two-stage {stage} mean", mean, pooled.mean(axis=0))
        problems += _agree(f"two-stage {stage} covariance", cov,
                           np.cov(pooled, rowvar=False).reshape(cov.shape))
    return problems


# ---------------------------------------------------------------------------
# survey


def _check_lemma(op, outcome, ctx) -> list[tuple[str, str]]:
    d = op.data
    rows = json.loads(ctx.payload(op))
    keys = {"dim", "pairs", "holds", "holds_fraction", "min_margin"}
    if [row.get("dim") for row in rows] != d["dims"] or any(set(r) != keys for r in rows):
        return [("schema", f"rows for dims {[r.get('dim') for r in rows]}, "
                           f"expected {d['dims']}")]
    problems = []
    for row in rows:
        dim = row["dim"]
        if (row["pairs"] != d["pairs"] or not 0 <= row["holds"] <= row["pairs"]
                or row["holds_fraction"] != row["holds"] / row["pairs"]
                or not math.isfinite(row["min_margin"])):
            problems.append(("schema", f"dim {dim}: inconsistent row {row}"))
            continue
        holds, margin = 0, math.inf
        for i in range(d["pairs"]):
            pair = _survey_pair(d, dim, i)
            result = bounds.lemma2_check(pair)
            holds += int(result.holds)
            margin = min(margin, result.margin)
            kl = _gaussian_kl(pair.shift, pair.sigma_ft.entries, np.zeros(dim),
                              pair.sigma_pt.entries)
            if not _rel_close(result.d_value, 2.0 * kl, IDENTITY_RTOL):
                problems.append(("identity", f"dim {dim} pair {i}: D={result.d_value!r} "
                                             f"!= 2*KL={2 * kl!r}"))
        if holds != row["holds"] or not _rel_close(row["min_margin"], margin, IDENTITY_RTOL):
            problems.append(("recompute", f"dim {dim}: row {row} but recomputed "
                                          f"holds={holds} min_margin={margin!r}"))
    return problems


def _survey_pair(d: dict, dim: int, i: int):
    """The i-th surveyed pair, rebuilt by lemma2_survey's seeding rule."""
    seed = d["seed"]
    return bounds.DomainPair(
        sigma_pt=linalg.random_spd(dim, d["eig_low"], d["eig_high"],
                                   rng.child_seed(seed, dim, i, 0)),
        sigma_ft=linalg.random_spd(dim, d["eig_low"], d["eig_high"],
                                   rng.child_seed(seed, dim, i, 1)),
        shift=d["shift_scale"] * rng.make_rng(seed, dim, i, 2).standard_normal(dim),
    )


def _complexity(kl_term: float, n: int, delta: float) -> float:
    return math.sqrt((kl_term / 2 + math.log(1 / delta) + math.log(n) + 2) / (2 * n - 1))


def _check_dominance(op, outcome, ctx) -> list[tuple[str, str]]:
    d = op.data
    doc = json.loads(ctx.payload(op))
    dim = len(d["shift"])
    kl_pt = 2 * _gaussian_kl(np.zeros(dim), d["sigma_pt"], np.zeros(dim), np.eye(dim))
    kl_ft = 2 * _gaussian_kl(d["shift"], d["sigma_ft"], np.zeros(dim), d["sigma_pt"])
    pt, ft = doc["pt_report"], doc["ft_report"]
    expected = [
        ("pt kl_term", pt["kl_term"], kl_pt, IDENTITY_RTOL),
        ("ft kl_term", ft["kl_term"], kl_ft, IDENTITY_RTOL),
        ("pt_term", doc["pt_term"], _complexity(pt["kl_term"], d["n_pt"], d["delta"]),
         ECHO_RTOL),
        ("ft_term", doc["ft_term"], _complexity(ft["kl_term"], d["n_ft"], d["delta"]),
         ECHO_RTOL),
        ("ratio", doc["ratio"], doc["ft_term"] / doc["pt_term"], ECHO_RTOL),
        ("pt_report term", pt["complexity_term"], doc["pt_term"], ECHO_RTOL),
        ("ft_report term", ft["complexity_term"], doc["ft_term"], ECHO_RTOL),
    ]
    problems = [("identity", f"{name}: {got!r} != {want!r}")
                for name, got, want, rtol in expected if not _rel_close(got, want, rtol)]
    if (doc["n_pt"], doc["n_ft"], doc["delta"]) != (d["n_pt"], d["n_ft"], d["delta"]):
        problems.append(("schema", "n_pt/n_ft/delta not echoed"))
    return problems


def _check_kl(op, outcome, ctx) -> list[tuple[str, str]]:
    d = op.data
    doc = json.loads(ctx.payload(op))
    closed, estimate, se = doc["closed_form"], doc["mc_estimate"], doc["mc_std_error"]
    problems = []
    if (doc["mc_draws"], doc["seed"]) != (d["mc_draws"], d["seed"]) or not (
            math.isfinite(se) and se > 0):
        problems.append(("schema", f"bad echo or standard error: {doc}"))
    reference = _gaussian_kl(d["mean_q"], d["cov_q"], d["mean_p"], d["cov_p"])
    if not _rel_close(closed, reference, IDENTITY_RTOL):
        problems.append(("identity", f"closed form {closed!r} != {reference!r}"))
    if not abs(closed - estimate) <= MC_SIGMAS * se:  # NaN fails
        problems.append(("monte-carlo", f"|closed - mc| = {abs(closed - estimate):.3g} "
                                        f"> {MC_SIGMAS} * {se:.3g}"))
    return problems


# ---------------------------------------------------------------------------
# regression


def _summary_ok(summary: dict) -> bool:
    values = [summary[k] for k in ("min", "max", "mean", "median", "std")]
    return (all(math.isfinite(v) for v in values) and summary["std"] >= 0
            and summary["min"] <= summary["median"] <= summary["max"]
            and summary["min"] <= summary["mean"] <= summary["max"])


def _check_validity(op, outcome, ctx) -> list[tuple[str, str]]:
    d = op.data
    if d["format"] == "json":
        doc = json.loads(ctx.payload(op))
        if (doc["trials"], doc["n"]) != (d["trials"], d["n"]) or not (
                0 <= doc["violation_count"] <= d["trials"]):
            return [("schema", f"bad echo or violation count: {doc['violation_count']}")]
        if not (_summary_ok(doc["gaps"]) and _summary_ok(doc["bounds"])
                and doc["bounds"]["min"] > 0 and doc["note"]):
            return [("schema", "gap/bound summaries are not finite and ordered")]
        return []
    rows = list(csv.reader(io.StringIO(ctx.payload(op).decode())))
    if rows[0] != ["seed", "n", "gap", "bound", "violated"] or len(rows) != d["trials"] + 1:
        return [("schema", f"csv header {rows[0]} with {len(rows) - 1} rows")]
    gaps, bounds, violated = [], [], 0
    for seed, n, gap, bound, flag in rows[1:]:
        gap, bound = float(gap), float(bound)
        if int(n) != d["n"] or flag not in ("true", "false") or not (
                math.isfinite(gap) and math.isfinite(bound) and bound > 0):
            return [("schema", f"bad row {seed},{n},{gap},{bound},{flag}")]
        if (flag == "true") != (gap > bound):
            return [("consistency", f"row {seed}: violated={flag} but gap {gap} "
                                    f"bound {bound}")]
        gaps.append(gap)
        bounds.append(bound)
        violated += flag == "true"
    twin = next(o for o in ctx.ops if o.kind == "validity"
                and o.data["pair"] == d["pair"] and o.data["format"] == "json")
    doc = json.loads(ctx.payload(twin))
    problems = []
    if doc["violation_count"] != violated:
        problems.append(("consistency", f"json violation_count {doc['violation_count']} "
                                        f"!= {violated} violated csv rows"))
    for name, values in (("gaps", gaps), ("bounds", bounds)):
        if not _rel_close(doc[name]["mean"], statistics.fmean(values), ECHO_RTOL):
            problems.append(("consistency", f"json {name} mean != mean of csv rows"))
    return problems


def _check_scaling(op, outcome, ctx) -> list[tuple[str, str]]:
    rows = json.loads(ctx.payload(op))
    ns = op.data["ns"]
    if [row["n"] for row in rows] != ns:
        return [("schema", f"rows for n={[row['n'] for row in rows]}, expected {ns}")]
    bound = {row["n"]: row["mean_bound"] for row in rows}
    problems = []
    for row in rows:
        if not (math.isfinite(row["mean_bound"]) and row["mean_bound"] > 0
                and math.isfinite(row["mean_gap"])):
            problems.append(("schema", f"n={row['n']}: non-finite row {row}"))
        want = bound[4 * row["n"]] / row["mean_bound"] if 4 * row["n"] in bound else None
        got = row["ratio_bound_4n"]
        if (want is None) != (got is None) or (
                want is not None and not _rel_close(got, want, ECHO_RTOL)):
            problems.append(("consistency", f"n={row['n']}: ratio_bound_4n {got!r}, "
                                            f"expected {want!r}"))
    return problems


# ---------------------------------------------------------------------------
# solve


def _check_stein(op, outcome, ctx) -> list[tuple[str, str]]:
    d = op.data
    x, m, q = outcome.result, d["M"], d["Q"]
    budget = RESIDUAL_RTOL * (1.0 + np.linalg.norm(q))
    residual = np.linalg.norm(x - m @ x @ m.T - q)
    reference = scipy.linalg.solve_discrete_lyapunov(m, q)
    # (I - M (x) M)^-1 has norm 1 / (1 - rho^2) for symmetric M.
    limit = 2.0 * budget / (1.0 - d["rho"] ** 2)
    return _solver_problems("stein", x, residual, budget, reference, limit)


def _check_lyapunov(op, outcome, ctx) -> list[tuple[str, str]]:
    d = op.data
    x, a, q = outcome.result, d["A"], d["Q"]
    budget = RESIDUAL_RTOL * (1.0 + np.linalg.norm(q))
    residual = np.linalg.norm(a @ x + x @ a - q)
    reference = scipy.linalg.solve_continuous_lyapunov(a, q)
    limit = 2.0 * budget / (2.0 * np.linalg.eigvalsh(a)[0])
    return _solver_problems("lyapunov", x, residual, budget, reference, limit)


def _solver_problems(label, x, residual, budget, reference, limit) -> list[tuple[str, str]]:
    if x is None or not np.all(np.isfinite(x)) or not np.array_equal(x, x.T):
        return [("schema", f"{label}: solution is not a finite symmetric matrix")]
    problems = []
    if residual > budget:
        problems.append(("residual", f"{label}: residual {residual:.3g} > {budget:.3g}"))
    gap = np.linalg.norm(x - reference)
    if gap > limit:
        problems.append(("reference", f"{label}: {gap:.3g} from scipy, limit {limit:.3g}"))
    return problems


CHECKS = {
    "simulate": _check_simulate,
    "two-stage": _check_two_stage,
    "lemma-survey": _check_lemma,
    "dominance": _check_dominance,
    "kl": _check_kl,
    "validity": _check_validity,
    "scaling": _check_scaling,
    "stein": _check_stein,
    "lyapunov": _check_lyapunov,
}
