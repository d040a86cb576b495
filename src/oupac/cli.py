"""Command-line front end.

Every subcommand is a reproducible, config-driven experiment: all
randomness derives from the single ``--seed`` flag through the hashing
rule in :mod:`oupac.rng`, flags override config-file values, and
repeated runs with the same configuration produce byte-identical
output files.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure
(the message names the operation that failed).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import matrixio
from .bounds import (
    DomainPair,
    SampleSpec,
    dominance_report,
    finetune_bound,
    lemma2_survey,
    mcallester_bound,
    pretrain_bound,
)
from .diffusion import (
    QuadraticLoss,
    SgdDynamics,
    estimate_stationary,
    simulate_chain,
    stability_check,
    two_stage_run,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidRangeError,
    InvalidSpecError,
    OupacError,
    TooFewSamplesError,
)
from .gaussian import (
    GaussianMeasure,
    check_rate,
    kl_divergence,
    mc_kl_estimate,
    standard_gaussian,
)
from .linalg import SymmetricMatrix, make_spd, solve_continuous_lyapunov, solve_discrete_stein
from .regression import (
    RegressionTask,
    bound_validity_experiment,
    scaling_experiment,
)

#: Bad user input (exit 2) as opposed to numerical failure (exit 3).
_VALIDATION_ERRORS = (ConfigError, DimensionMismatchError, InvalidRangeError,
                      InvalidSpecError, TooFewSamplesError)

FLOAT_FORMAT = "%.17g"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return FLOAT_FORMAT % value
    if value is None:
        return ""
    return str(value)


def _parse_vector(text: str) -> np.ndarray:
    vector = matrixio.parse_vector(text.replace(",", " "))
    if vector.size == 0:
        raise ConfigError(f"empty vector value {text!r}")
    return vector


def _parse_dims(text: str) -> list[int]:
    text = str(text)
    try:
        if "-" in text:
            lo, hi = text.split("-", 1)
            dims = list(range(int(lo), int(hi) + 1))
        else:
            dims = [int(t) for t in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"could not parse dims {text!r}") from exc
    if not dims or any(d < 1 for d in dims):
        raise ConfigError(f"dims must be positive, got {text!r}")
    return dims


def _parse_ns(text: str) -> list[int]:
    try:
        return [int(t) for t in str(text).replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"could not parse sample sizes {text!r}") from exc


def _csv_text(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buffer.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers: params dict -> (summary line, payload text in the
# requested format)


def _run_lyapunov(params: dict) -> tuple[str, str]:
    a = make_spd(matrixio.read_matrix(params["a"]))
    q = SymmetricMatrix(matrixio.read_matrix(params["q"]))
    check_rate(params["eta"], params["batch"])
    rhs = SymmetricMatrix((params["eta"] / params["batch"]) * q.entries)
    solution = solve_continuous_lyapunov(a, rhs)
    trace = float(np.trace(solution.entries))
    summary = (
        f"lyapunov: dim={a.dim} stationary covariance solved, "
        f"trace={_fmt(trace)}"
    )
    return summary, matrixio.format_matrix(solution.entries)


def _load_dynamics(params: dict, prefix: str = "") -> tuple[QuadraticLoss, SgdDynamics]:
    def key(name: str) -> str:
        return f"{prefix}{name}" if prefix else name

    hessian = make_spd(matrixio.read_matrix(params[key("hessian")]))
    minimizer = _parse_vector(str(params[key("minimizer")]))
    noise_factor = matrixio.read_matrix(params[key("noise_factor")])
    loss = QuadraticLoss(hessian, minimizer)
    dyn = SgdDynamics(params[key("eta")], params[key("batch")], noise_factor)
    return loss, dyn


def _run_simulate(params: dict) -> tuple[str, str]:
    loss, dyn = _load_dynamics(params)
    report = stability_check(loss, dyn)
    trajectory = simulate_chain(loss.minimizer, loss, dyn, total_steps=params["steps"],
                                stride=params["stride"], seed=params["seed"])
    estimate = estimate_stationary(trajectory, params.get("burn_in"))
    step_map = np.eye(loss.dim) - dyn.lr * loss.hessian.entries
    per_step_cov = (dyn.lr**2 / dyn.batch_size) * dyn.noise_cov.entries
    stein = solve_discrete_stein(step_map, SymmetricMatrix(per_step_cov))
    gap = np.linalg.norm(estimate.covariance.entries - stein.entries, "fro")
    rel_gap = gap / max(np.linalg.norm(stein.entries, "fro"), np.finfo(float).tiny)
    summary = (
        f"simulate: steps={trajectory.total_steps} records={trajectory.record_count} "
        f"spectral_radius={_fmt(report.spectral_radius)} "
        f"empirical_vs_stein_rel_frobenius={_fmt(float(rel_gap))}"
    )
    header = ["step"] + [f"theta_{i}" for i in range(loss.dim)]
    rows = [
        [i * trajectory.stride] + list(state)
        for i, state in enumerate(trajectory.states)
    ]
    return summary, _csv_text(header, rows)


def _run_two_stage(params: dict) -> tuple[str, str]:
    pt_loss, pt_dyn = _load_dynamics(params, "pt_")
    ft_loss, ft_dyn = _load_dynamics(params, "ft_")
    result = two_stage_run(
        pt_loss, pt_dyn, ft_loss, ft_dyn, pt_steps=params["pt_steps"],
        ft_steps=params["ft_steps"], replicas=params["replicas"], stride=params["stride"],
        burn_in=params["burn_in"], master_seed=params["seed"], init_mode=params["init_mode"],
    )
    payload = {
        "pt": _moments_payload(result.pt_estimate),
        "ft": _moments_payload(result.ft_estimate),
        "init_mode": params["init_mode"],
        "replicas": params["replicas"],
        "seed": params["seed"],
    }
    ft_mean = ", ".join(_fmt(v) for v in result.ft_estimate.mean)
    summary = (
        f"two-stage: pooled pt_records={result.pt_estimate.sample_count} "
        f"ft_records={result.ft_estimate.sample_count} ft_mean=[{ft_mean}]"
    )
    return summary, _json_text(payload)


def _moments_payload(estimate) -> dict:
    return {
        "mean": list(estimate.mean),
        "covariance": [list(row) for row in estimate.covariance.entries],
        "sample_count": estimate.sample_count,
    }


def _run_kl(params: dict) -> tuple[str, str]:
    mean_q, cov_q = matrixio.read_gaussian(params["q"])
    mean_p, cov_p = matrixio.read_gaussian(params["p"])
    q = GaussianMeasure(mean_q, make_spd(cov_q))
    p = GaussianMeasure(mean_p, make_spd(cov_p))
    closed = kl_divergence(q, p)
    estimate, std_error = mc_kl_estimate(q, p, params["mc_draws"], params["seed"])
    payload = {
        "closed_form": closed,
        "mc_estimate": estimate,
        "mc_std_error": std_error,
        "mc_draws": params["mc_draws"],
        "seed": params["seed"],
    }
    summary = (
        f"kl: closed_form={_fmt(closed)} mc_estimate={_fmt(estimate)} "
        f"mc_std_error={_fmt(std_error)}"
    )
    return summary, _json_text(payload)


def _run_bound(params: dict) -> tuple[str, str]:
    spec = SampleSpec(params["n"], params["delta"])
    value = mcallester_bound(params["kl"], spec)
    payload = {
        "kl": params["kl"],
        "n": params["n"],
        "delta": params["delta"],
        "complexity_term": value,
    }
    return f"bound: complexity_term={_fmt(value)}", _json_text(payload)


def _run_lemma_survey(params: dict) -> tuple[str, str]:
    dims = _parse_dims(params["dims"])
    rows = lemma2_survey(
        dims=dims,
        pairs_per_dim=params["pairs_per_dim"],
        seed=params["seed"],
        eigenvalue_low=params["eig_low"],
        eigenvalue_high=params["eig_high"],
        shift_scale=params["shift_scale"],
    )
    total = sum(r["pairs"] for r in rows)
    holds = sum(r["holds"] for r in rows)
    summary = (
        f"lemma-survey: pairs={total} holds={holds} "
        f"overall_fraction={_fmt(holds / total)}"
    )
    if params["format"] == "csv":
        header = ["dim", "pairs", "holds", "holds_fraction", "min_margin"]
        return summary, _csv_text(header, [[row[k] for k in header] for row in rows])
    return summary, _json_text(rows)


def _run_dominance(params: dict) -> tuple[str, str]:
    sigma_pt = make_spd(matrixio.read_matrix(params["sigma_pt"]))
    sigma_ft = make_spd(matrixio.read_matrix(params["sigma_ft"]))
    shift = _parse_vector(str(params["shift"]))
    pair = DomainPair(sigma_pt, sigma_ft, shift)
    spec_pt = SampleSpec(params["n_pt"], params["delta"])
    spec_ft = SampleSpec(params["n_ft"], params["delta"])
    report = dominance_report(sigma_pt, spec_pt, pair, spec_ft)
    payload = {
        "pt_term": report.pt_term,
        "ft_term": report.ft_term,
        "ratio": report.ratio,
        "n_pt": params["n_pt"],
        "n_ft": params["n_ft"],
        "delta": params["delta"],
        "pt_report": pretrain_bound(sigma_pt, spec_pt).as_dict(),
        "ft_report": finetune_bound(pair, spec_ft).as_dict(),
    }
    summary = (
        f"dominance: pt_term={_fmt(report.pt_term)} ft_term={_fmt(report.ft_term)} "
        f"ratio={_fmt(report.ratio)}"
    )
    return summary, _json_text(payload)


def _build_task_and_dynamics(params: dict) -> tuple[RegressionTask, SgdDynamics]:
    weights = _parse_vector(str(params["weights"]))
    dim = weights.shape[0]
    if params.get("feature_cov") is not None:
        feature_cov = make_spd(matrixio.read_matrix(params["feature_cov"]))
    else:
        feature_cov = make_spd(np.eye(dim))
    task = RegressionTask(weights, feature_cov, params["noise_std"], params["n"])
    dyn = SgdDynamics(params["eta"], params["batch"], params["noise_scale"] * np.eye(dim))
    return task, dyn


def _run_validity(params: dict) -> tuple[str, str]:
    task, dyn = _build_task_and_dynamics(params)
    spec = SampleSpec(task.sample_size, params["delta"])
    result = bound_validity_experiment(
        task, dyn, spec, standard_gaussian(task.dim),
        trials=params["trials"], master_seed=params["seed"],
    )
    payload = {
        "violation_count": result.violation_count,
        "trials": params["trials"],
        "n": task.sample_size,
        "delta": params["delta"],
        "gaps": result.gaps,
        "bounds": result.bounds,
        "note": result.note,
    }
    summary = (
        f"validity: trials={params['trials']} violations={result.violation_count} "
        f"mean_gap={_fmt(result.gaps['mean'])} mean_bound={_fmt(result.bounds['mean'])}"
    )
    if params["format"] == "csv":
        rows = [[r.seed, r.sample_size, r.gap, r.bound_value, r.violated]
                for r in result.records]
        return summary, _csv_text(["seed", "n", "gap", "bound", "violated"], rows)
    return summary, _json_text(payload)


def _run_scaling(params: dict) -> tuple[str, str]:
    task, dyn = _build_task_and_dynamics({**params, "n": 1})
    ns = _parse_ns(params["ns"])
    rows = scaling_experiment(
        task, ns, dyn, params["delta"],
        master_seed=params["seed"], trials_per_n=params["trials"],
    )
    summary = (
        f"scaling: sizes={len(rows)} n_min={rows[0]['n']} n_max={rows[-1]['n']} "
        f"mean_bound_at_n_max={_fmt(rows[-1]['mean_bound'])}"
    )
    if params["format"] == "csv":
        header = ["n", "mean_bound", "mean_gap", "ratio_bound_4n"]
        return summary, _csv_text(header, [[row[k] for k in header] for row in rows])
    return summary, _json_text(rows)


# ---------------------------------------------------------------------------
# option tables

_COMMON_DEFAULTS = {"seed": 0, "output": None, "format": None, "config": None}
_SEED_OPTION = dict(type=int, help="master seed for all randomness (default 0)")

_COMMANDS: dict[str, dict] = {
    "lyapunov": {
        "run": _run_lyapunov,
        "help": "solve the stationary-covariance equation A*X + X*A = (eta/batch)*Q",
        "options": {
            "a": dict(help="matrix file: strict SPD coefficient A"),
            "q": dict(help="matrix file: symmetric right-hand side Q"),
            "eta": dict(type=float, help="learning rate scaling (default 1)"),
            "batch": dict(type=int, help="batch size scaling (default 1)"),
        },
        "required": ("a", "q"),
        "defaults": {"eta": 1.0, "batch": 1},
        "formats": ("matrix",),
    },
    "simulate": {
        "run": _run_simulate,
        "help": "simulate the SGD chain and compare moments to the exact solution",
        "options": {
            "hessian": dict(help="matrix file: loss Hessian"),
            "minimizer": dict(help="vector: loss minimizer, e.g. '0,0'"),
            "noise_factor": dict(help="matrix file: gradient-noise factor B"),
            "eta": dict(type=float, help="learning rate"),
            "batch": dict(type=int, help="batch size"),
            "steps": dict(type=int, help="number of SGD updates"),
            "stride": dict(type=int, help="record every stride-th state (default 10)"),
            "burn_in": dict(type=int, help="records to discard (default: half)"),
        },
        "required": ("hessian", "minimizer", "noise_factor", "eta", "batch", "steps"),
        "defaults": {"stride": 10, "burn_in": None},
        "formats": ("csv",),
    },
    "two-stage": {
        "run": _run_two_stage,
        "help": "pre-train then fine-tune; pool stationary moments over replicas",
        "options": {
            "pt_hessian": dict(help="matrix file: pre-training Hessian"),
            "pt_minimizer": dict(help="vector: pre-training minimizer"),
            "pt_noise_factor": dict(help="matrix file: pre-training noise factor"),
            "pt_eta": dict(type=float, help="pre-training learning rate"),
            "pt_batch": dict(type=int, help="pre-training batch size"),
            "pt_steps": dict(type=int, help="pre-training steps per replica"),
            "ft_hessian": dict(help="matrix file: fine-tuning Hessian"),
            "ft_minimizer": dict(help="vector: fine-tuning minimizer"),
            "ft_noise_factor": dict(help="matrix file: fine-tuning noise factor"),
            "ft_eta": dict(type=float, help="fine-tuning learning rate"),
            "ft_batch": dict(type=int, help="fine-tuning batch size"),
            "ft_steps": dict(type=int, help="fine-tuning steps per replica"),
            "replicas": dict(type=int, help="independent replicas (default 4)"),
            "stride": dict(type=int, help="record every stride-th state (default 10)"),
            "burn_in": dict(type=int, help="records to discard per stage (default: half)"),
            "init_mode": dict(choices=["analytic_sample", "chain_continue"],
                              help="fine-tuning initial state rule"),
        },
        "required": (
            "pt_hessian", "pt_minimizer", "pt_noise_factor", "pt_eta", "pt_batch",
            "pt_steps", "ft_hessian", "ft_minimizer", "ft_noise_factor", "ft_eta",
            "ft_batch", "ft_steps",
        ),
        "defaults": {"replicas": 4, "stride": 10, "burn_in": None,
                     "init_mode": "analytic_sample"},
        "formats": ("json",),
    },
    "kl": {
        "run": _run_kl,
        "help": "closed-form and Monte-Carlo KL divergence side by side",
        "options": {
            "q": dict(help="Gaussian fixture file for the first measure"),
            "p": dict(help="Gaussian fixture file for the second measure"),
            "mc_draws": dict(type=int, help="Monte-Carlo draws (default 100000)"),
        },
        "required": ("q", "p"),
        "defaults": {"mc_draws": 100_000},
        "formats": ("json",),
    },
    "bound": {
        "run": _run_bound,
        "help": "evaluate the PAC-Bayes complexity term",
        "options": {
            "kl": dict(type=float, help="KL divergence value (nonnegative)"),
            "n": dict(type=int, help="sample size"),
            "delta": dict(type=float, help="confidence level in (0, 1]"),
        },
        "required": ("kl", "n", "delta"),
        "defaults": {},
        "formats": ("json",),
    },
    "lemma-survey": {
        "run": _run_lemma_survey,
        "help": "random survey of the two domain discrepancies' ordering",
        "options": {
            "dims": dict(help="dimension range, e.g. '1-10' (default)"),
            "pairs_per_dim": dict(type=int, help="pairs per dimension (default 100)"),
            "eig_low": dict(type=float, help="smallest covariance eigenvalue (default 0.2)"),
            "eig_high": dict(type=float, help="largest covariance eigenvalue (default 5)"),
            "shift_scale": dict(type=float, help="std of the random shift (default 1)"),
        },
        "required": (),
        "defaults": {"dims": "1-10", "pairs_per_dim": 100, "eig_low": 0.2,
                     "eig_high": 5.0, "shift_scale": 1.0},
        "formats": ("json", "csv"),
    },
    "dominance": {
        "run": _run_dominance,
        "help": "compare pre-training and fine-tuning complexity terms",
        "options": {
            "sigma_pt": dict(help="matrix file: source stationary covariance"),
            "sigma_ft": dict(help="matrix file: target stationary covariance"),
            "shift": dict(help="vector: minimizer shift, e.g. '1,0'"),
            "n_pt": dict(type=int, help="pre-training sample size"),
            "n_ft": dict(type=int, help="fine-tuning sample size"),
            "delta": dict(type=float, help="confidence level (default 0.05)"),
        },
        "required": ("sigma_pt", "sigma_ft", "shift", "n_pt", "n_ft"),
        "defaults": {"delta": 0.05},
        "formats": ("json",),
    },
    "validity": {
        "run": _run_validity,
        "help": "count bound violations over independent regression trials",
        "options": {
            "weights": dict(help="vector: true regression weights (default '0.3,-0.2')"),
            "feature_cov": dict(help="matrix file: feature covariance (default identity)"),
            "noise_std": dict(type=float, help="observation noise std (default 1)"),
            "n": dict(type=int, help="training sample size (default 100)"),
            "trials": dict(type=int, help="independent trials (default 200)"),
            "delta": dict(type=float, help="confidence level (default 0.05)"),
            "eta": dict(type=float, help="learning rate (default 0.1)"),
            "batch": dict(type=int, help="batch size (default 10)"),
            "noise_scale": dict(type=float, help="gradient-noise factor scale (default 1)"),
        },
        "required": (),
        "defaults": {"weights": "0.3,-0.2", "feature_cov": None, "noise_std": 1.0,
                     "n": 100, "trials": 200, "delta": 0.05, "eta": 0.1,
                     "batch": 10, "noise_scale": 1.0},
        "formats": ("json", "csv"),
    },
    "scaling": {
        "run": _run_scaling,
        "help": "mean bound and mean gap against growing sample size",
        "options": {
            "ns": dict(help="comma-separated sample sizes, strictly increasing"),
            "trials": dict(type=int, help="trials per sample size (default 20)"),
            "weights": dict(help="vector: true regression weights (default '0.3,-0.2')"),
            "feature_cov": dict(help="matrix file: feature covariance (default identity)"),
            "noise_std": dict(type=float, help="observation noise std (default 1)"),
            "delta": dict(type=float, help="confidence level (default 0.05)"),
            "eta": dict(type=float, help="learning rate (default 0.1)"),
            "batch": dict(type=int, help="batch size (default 10)"),
            "noise_scale": dict(type=float, help="gradient-noise factor scale (default 1)"),
        },
        "required": ("ns",),
        "defaults": {"trials": 20, "weights": "0.3,-0.2", "feature_cov": None,
                     "noise_std": 1.0, "delta": 0.05, "eta": 0.1, "batch": 10,
                     "noise_scale": 1.0},
        "formats": ("json", "csv"),
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oupac",
        description=(
            "Stationary-covariance solvers, SGD-chain simulation, Gaussian KL "
            "divergences, PAC-Bayes bounds, and generalization-gap experiments. "
            "Values may come from a JSON --config file (keys are the long option "
            "names with underscores); command-line flags take precedence."
        ),
    )
    subparsers = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, spec in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=spec["help"], description=spec["help"])
        for opt, kwargs in spec["options"].items():
            flag = "--" + opt.replace("_", "-")
            sub.add_argument(flag, default=argparse.SUPPRESS, dest=opt, **kwargs)
        sub.add_argument("--config", default=argparse.SUPPRESS,
                         help="JSON file with option values (flags override)")
        sub.add_argument("--seed", default=argparse.SUPPRESS, **_SEED_OPTION)
        sub.add_argument("--output", default=argparse.SUPPRESS,
                         help="write results to this file (default: stdout)")
        if len(spec["formats"]) > 1:
            sub.add_argument("--format", choices=list(spec["formats"]),
                             default=argparse.SUPPRESS,
                             help=f"output format (default {spec['formats'][0]})")
    return parser


def _load_config(path: str, options: dict[str, dict]) -> dict:
    """Option values from a JSON config, each non-null value converted by its
    option's ``type`` from its text, as argparse converts a flag's text."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - set(options) - set(_COMMON_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        convert = options.get(key, {}).get("type")
        if convert is not None and value is not None:
            try:
                raw[key] = convert(str(value))
            except ValueError as exc:
                raise ConfigError(f"invalid {convert.__name__} value {value!r} "
                                  f"for config key {key!r}") from exc
    return raw


def _merge_params(name: str, args: argparse.Namespace) -> dict:
    spec = _COMMANDS[name]
    cli_values = {k: v for k, v in vars(args).items() if k != "subcommand"}
    params = {**_COMMON_DEFAULTS, **spec["defaults"]}
    if "format" not in spec["defaults"]:
        params["format"] = spec["formats"][0]
    if "config" in cli_values:
        params.update(_load_config(cli_values["config"],
                                   {**spec["options"], "seed": _SEED_OPTION}))
    params.update(cli_values)
    missing = [k for k in spec["required"] if params.get(k) is None]
    if missing:
        raise ConfigError(f"missing required options for {name}: {sorted(missing)}")
    if params["format"] not in spec["formats"]:
        raise ConfigError(
            f"format {params['format']!r} not supported by {name}; "
            f"choose from {list(spec['formats'])}"
        )
    return params


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.print_help()
        return 2
    name = args.subcommand
    try:
        params = _merge_params(name, args)
        summary, payload = _COMMANDS[name]["run"](params)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OupacError as exc:
        print(f"error in {name}: {exc}", file=sys.stderr)
        return 3
    print(summary)
    if params["output"] is not None:
        Path(params["output"]).write_text(payload)
    else:
        sys.stdout.write(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
