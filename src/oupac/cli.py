"""Command-line front end.

Every subcommand is a reproducible, config-driven experiment: all
randomness derives from the single ``--seed`` flag through the hashing
rule in :mod:`oupac.rng`, flags override config-file values, and
repeated runs with the same configuration produce byte-identical
output files.

Flags are ``--key=value`` or ``--key value`` with the full long name;
a value that starts with ``-`` needs ``=``.  A call made only of such
flags is read straight from the option table (:func:`_table_args`);
abbreviations, ``--help`` and parse errors go through argparse.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure
(the message names the operation that failed).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import matrixio
from .bounds import (
    DomainPair,
    SampleSpec,
    _dominance,
    finetune_bound,
    lemma2_survey,
    mcallester_bound,
    pretrain_bound,
)
from .diffusion import (
    QuadraticLoss,
    SgdDynamics,
    _check_run,
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
    _stationary_rhs,
    check_rate,
    kl_divergence,
    mc_kl_estimate,
    standard_gaussian,
    stein_stationary_covariance,
)
from .linalg import SymmetricMatrix, make_spd, solve_continuous_lyapunov
from .regression import (
    RegressionTask,
    bound_validity_experiment,
    scaling_experiment,
)

if TYPE_CHECKING:
    import argparse

#: Bad user input (exit 2) as opposed to numerical failure (exit 3).
_VALIDATION_ERRORS = (ConfigError, DimensionMismatchError, InvalidRangeError,
                      InvalidSpecError, TooFewSamplesError)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return matrixio.FLOAT_FORMAT % value
    if value is None:
        return ""
    return str(value)


# ---------------------------------------------------------------------------
# option parsers: each converts a flag's text, a config-file value or a
# default, raising ConfigError, ValueError or OSError on a bad value


def _int(value) -> int:
    return int(str(value))


def _float(value) -> float:
    number = float(str(value))
    if not math.isfinite(number):
        raise ConfigError(f"non-finite value {value!r}")
    return number


def _choice(*names: str) -> Callable[[object], str]:
    def parse(value) -> str:
        if value not in names:
            raise ConfigError(f"invalid choice {value!r}; choose from {list(names)}")
        return value
    return parse


def _vector(value) -> np.ndarray:
    """Comma-separated numbers, or a JSON array of numbers from a config file."""
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    vector = matrixio.parse_vector(text.replace(",", " "))
    if vector.size == 0:
        raise ConfigError(f"empty vector value {value!r}")
    return vector


def _ints(value) -> list[int]:
    """Comma- or space-separated integers, at least one."""
    ints = [int(t) for t in str(value).replace(",", " ").split()]
    if not ints:
        raise ConfigError(f"no integers in {value!r}")
    return ints


def _dims(value) -> list[int]:
    """A range 'lo-hi' or a list of dimensions."""
    lo, is_range, hi = str(value).partition("-")
    dims = list(range(int(lo), int(hi) + 1)) if is_range else _ints(value)
    if not dims:
        raise ConfigError(f"dims range {value!r} is empty")
    if any(d < 1 for d in dims):
        raise ConfigError(f"dims must be positive, got {value!r}")
    return dims


def _matrix_file(value) -> np.ndarray:
    # matrixio's attribute is read at each call, so a wrapper put on it sees the call
    return matrixio.read_matrix(str(value))


def _gaussian_file(value) -> tuple[np.ndarray, np.ndarray]:
    return matrixio.read_gaussian(str(value))


def _csv_text(header: list[str], rows: list[list]) -> str:
    # the bytes csv.writer makes: no field _fmt makes holds a comma, quote or
    # newline, and no table here has a single column, so none is quoted
    return "".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows])


def _trajectory_csv(states: np.ndarray, stride: int) -> Iterator[str]:
    """``_csv_text`` of each record's step and state: the header, then one
    text a block of rows, each rendered when it is asked for."""
    yield ",".join(["step"] + [f"theta_{i}" for i in range(states.shape[1])]) + "\n"
    steps = np.arange(states.shape[0], dtype=np.int64) * stride
    yield from matrixio._block_texts(states, ",", steps)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers: params dict -> (summary line, the pieces of the
# payload text in the requested format)


def _run_lyapunov(params: dict) -> tuple[str, Iterable[str]]:
    a = make_spd(params["a"])
    q = SymmetricMatrix(params["q"])
    check_rate(params["eta"], params["batch"])
    solution = solve_continuous_lyapunov(a, _stationary_rhs(q, params["eta"], params["batch"]))
    trace = float(np.trace(solution.entries))
    summary = (
        f"lyapunov: dim={a.dim} stationary covariance solved, "
        f"trace={_fmt(trace)}"
    )
    return summary, [matrixio.format_matrix(solution.entries)]


def _load_dynamics(params: dict, prefix: str = "") -> tuple[QuadraticLoss, SgdDynamics]:
    loss = QuadraticLoss(make_spd(params[prefix + "hessian"]), params[prefix + "minimizer"])
    dyn = SgdDynamics(params[prefix + "eta"], params[prefix + "batch"],
                      params[prefix + "noise_factor"])
    return loss, dyn


def _run_simulate(params: dict) -> tuple[str, Iterable[str]]:
    loss, dyn = _load_dynamics(params)
    report = stability_check(loss, dyn)
    _check_run(params["steps"], params["stride"], params["burn_in"], 2, loss.dim, "steps")
    trajectory = simulate_chain(loss.minimizer, loss, dyn, total_steps=params["steps"],
                                stride=params["stride"], seed=params["seed"])
    estimate = estimate_stationary(trajectory, params["burn_in"])
    stein = stein_stationary_covariance(loss.hessian, dyn.noise_cov, dyn.lr, dyn.batch_size)
    gap = np.linalg.norm(estimate.covariance.entries - stein.entries, "fro")
    rel_gap = gap / max(np.linalg.norm(stein.entries, "fro"), np.finfo(float).tiny)
    summary = (
        f"simulate: steps={trajectory.total_steps} records={trajectory.record_count} "
        f"spectral_radius={_fmt(report.spectral_radius)} "
        f"empirical_vs_stein_rel_frobenius={_fmt(float(rel_gap))}"
    )
    return summary, _trajectory_csv(trajectory.states, trajectory.stride)


def _run_two_stage(params: dict) -> tuple[str, Iterable[str]]:
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
    return summary, [_json_text(payload)]


def _moments_payload(estimate) -> dict:
    return {
        "mean": list(estimate.mean),
        "covariance": [list(row) for row in estimate.covariance.entries],
        "sample_count": estimate.sample_count,
    }


def _run_kl(params: dict) -> tuple[str, Iterable[str]]:
    mean_q, cov_q = params["q"]
    mean_p, cov_p = params["p"]
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
    return summary, [_json_text(payload)]


def _run_bound(params: dict) -> tuple[str, Iterable[str]]:
    spec = SampleSpec(params["n"], params["delta"])
    value = mcallester_bound(params["kl"], spec)
    payload = {
        "kl": params["kl"],
        "n": params["n"],
        "delta": params["delta"],
        "complexity_term": value,
    }
    return f"bound: complexity_term={_fmt(value)}", [_json_text(payload)]


def _run_lemma_survey(params: dict) -> tuple[str, Iterable[str]]:
    rows = lemma2_survey(
        dims=params["dims"],
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
        return summary, [_csv_text(header, [[row[k] for k in header] for row in rows])]
    return summary, [_json_text(rows)]


def _run_dominance(params: dict) -> tuple[str, Iterable[str]]:
    sigma_pt = make_spd(params["sigma_pt"])
    sigma_ft = make_spd(params["sigma_ft"])
    pair = DomainPair(sigma_pt, sigma_ft, params["shift"])
    spec_pt = SampleSpec(params["n_pt"], params["delta"])
    spec_ft = SampleSpec(params["n_ft"], params["delta"])
    pt_report = pretrain_bound(sigma_pt, spec_pt)
    ft_report = finetune_bound(pair, spec_ft)
    report = _dominance(pt_report, ft_report)
    payload = {
        "pt_term": report.pt_term,
        "ft_term": report.ft_term,
        "ratio": report.ratio,
        "n_pt": params["n_pt"],
        "n_ft": params["n_ft"],
        "delta": params["delta"],
        "pt_report": pt_report.as_dict(),
        "ft_report": ft_report.as_dict(),
    }
    summary = (
        f"dominance: pt_term={_fmt(report.pt_term)} ft_term={_fmt(report.ft_term)} "
        f"ratio={_fmt(report.ratio)}"
    )
    return summary, [_json_text(payload)]


def _build_task_and_dynamics(params: dict, sample_size: int) -> tuple[RegressionTask, SgdDynamics]:
    dim = params["weights"].shape[0]
    feature_cov = params["feature_cov"]
    feature_cov = make_spd(np.eye(dim) if feature_cov is None else feature_cov)
    task = RegressionTask(params["weights"], feature_cov, params["noise_std"], sample_size)
    dyn = SgdDynamics(params["eta"], params["batch"], params["noise_scale"] * np.eye(dim))
    return task, dyn


def _run_validity(params: dict) -> tuple[str, Iterable[str]]:
    task, dyn = _build_task_and_dynamics(params, params["n"])
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
        return summary, [_csv_text(["seed", "n", "gap", "bound", "violated"], rows)]
    return summary, [_json_text(payload)]


def _run_scaling(params: dict) -> tuple[str, Iterable[str]]:
    # scaling_experiment sets the sample size of each run; the task's is a placeholder
    task, dyn = _build_task_and_dynamics(params, params["ns"][0])
    rows = scaling_experiment(
        task, params["ns"], dyn, params["delta"],
        master_seed=params["seed"], trials_per_n=params["trials"],
    )
    summary = (
        f"scaling: sizes={len(rows)} n_min={rows[0]['n']} n_max={rows[-1]['n']} "
        f"mean_bound_at_n_max={_fmt(rows[-1]['mean_bound'])}"
    )
    if params["format"] == "csv":
        header = ["n", "mean_bound", "mean_gap", "ratio_bound_4n"]
        return summary, [_csv_text(header, [[row[k] for k in header] for row in rows])]
    return summary, [_json_text(rows)]


# ---------------------------------------------------------------------------
# option tables: each option's parser, default and help, stated once


class _Option(NamedTuple):
    """An option's parser, default (``...`` marks a required option) and help."""

    parse: Callable[[object], object]
    default: object
    help: str


_COMMON = {
    "seed": _Option(_int, 0, "master seed for all randomness"),
    "output": _Option(str, None, "write results to this file (default: stdout)"),
}

_JSON_OR_CSV = {"format": _Option(_choice("json", "csv"), "json", "output format: json or csv")}


def _sgd_stage(prefix: str = "", stage: str = "") -> dict[str, _Option]:
    """One SGD chain's options; ``two-stage`` prefixes them ``pt_``/``ft_``."""
    return {
        prefix + "hessian": _Option(_matrix_file, ..., f"matrix file: {stage}loss Hessian"),
        prefix + "minimizer": _Option(_vector, ..., f"vector: {stage}loss minimizer, e.g. '0,0'"),
        prefix + "noise_factor": _Option(_matrix_file, ...,
                                         f"matrix file: {stage}gradient-noise factor B"),
        prefix + "eta": _Option(_float, ..., f"{stage}learning rate"),
        prefix + "batch": _Option(_int, ..., f"{stage}batch size"),
        prefix + "steps": _Option(_int, ..., f"number of {stage}SGD updates"),
    }


_CHAIN_RECORDS = {
    "stride": _Option(_int, 10, "record every stride-th state"),
    "burn_in": _Option(_int, None, "records to discard (default: half)"),
}

_REGRESSION = {
    "weights": _Option(_vector, "0.3,-0.2", "vector: true regression weights"),
    "feature_cov": _Option(_matrix_file, None,
                           "matrix file: feature covariance (default identity)"),
    "noise_std": _Option(_float, 1.0, "observation noise std"),
    "delta": _Option(_float, 0.05, "confidence level"),
    "eta": _Option(_float, 0.1, "learning rate"),
    "batch": _Option(_int, 10, "batch size"),
    "noise_scale": _Option(_float, 1.0, "gradient-noise factor scale"),
}

_COMMANDS: dict[str, dict] = {
    "lyapunov": {
        "run": _run_lyapunov,
        "help": "solve the stationary-covariance equation A*X + X*A = (eta/batch)*Q",
        "options": {
            "a": _Option(_matrix_file, ..., "matrix file: strict SPD coefficient A"),
            "q": _Option(_matrix_file, ..., "matrix file: symmetric right-hand side Q"),
            "eta": _Option(_float, 1.0, "learning rate scaling"),
            "batch": _Option(_int, 1, "batch size scaling"),
            **_COMMON,
        },
    },
    "simulate": {
        "run": _run_simulate,
        "help": "simulate the SGD chain and compare moments to the exact solution",
        "options": {**_sgd_stage(), **_CHAIN_RECORDS, **_COMMON},
    },
    "two-stage": {
        "run": _run_two_stage,
        "help": "pre-train then fine-tune; pool stationary moments over replicas",
        "options": {
            **_sgd_stage("pt_", "pre-training "),
            **_sgd_stage("ft_", "fine-tuning "),
            "replicas": _Option(_int, 4, "independent replicas"),
            **_CHAIN_RECORDS,
            "init_mode": _Option(_choice("analytic_sample", "chain_continue"), "analytic_sample",
                                 "fine-tuning start: analytic_sample or chain_continue"),
            **_COMMON,
        },
    },
    "kl": {
        "run": _run_kl,
        "help": "closed-form and Monte-Carlo KL divergence side by side",
        "options": {
            "q": _Option(_gaussian_file, ..., "Gaussian fixture file: first measure"),
            "p": _Option(_gaussian_file, ..., "Gaussian fixture file: second measure"),
            "mc_draws": _Option(_int, 100_000, "Monte-Carlo draws"),
            **_COMMON,
        },
    },
    "bound": {
        "run": _run_bound,
        "help": "evaluate the PAC-Bayes complexity term",
        "options": {
            "kl": _Option(_float, ..., "KL divergence value (nonnegative)"),
            "n": _Option(_int, ..., "sample size"),
            "delta": _Option(_float, ..., "confidence level in (0, 1]"),
            **_COMMON,
        },
    },
    "lemma-survey": {
        "run": _run_lemma_survey,
        "help": "random survey of the two domain discrepancies' ordering",
        "options": {
            "dims": _Option(_dims, "1-10", "dimension range or list, e.g. '1-10' or '2,5'"),
            "pairs_per_dim": _Option(_int, 100, "pairs per dimension"),
            "eig_low": _Option(_float, 0.2, "smallest covariance eigenvalue"),
            "eig_high": _Option(_float, 5.0, "largest covariance eigenvalue"),
            "shift_scale": _Option(_float, 1.0, "std of the random shift"),
            **_COMMON,
            **_JSON_OR_CSV,
        },
    },
    "dominance": {
        "run": _run_dominance,
        "help": "compare pre-training and fine-tuning complexity terms",
        "options": {
            "sigma_pt": _Option(_matrix_file, ..., "matrix file: source stationary covariance"),
            "sigma_ft": _Option(_matrix_file, ..., "matrix file: target stationary covariance"),
            "shift": _Option(_vector, ..., "vector: minimizer shift, e.g. '1,0'"),
            "n_pt": _Option(_int, ..., "pre-training sample size"),
            "n_ft": _Option(_int, ..., "fine-tuning sample size"),
            "delta": _Option(_float, 0.05, "confidence level"),
            **_COMMON,
        },
    },
    "validity": {
        "run": _run_validity,
        "help": "count bound violations over independent regression trials",
        "options": {
            "n": _Option(_int, 100, "training sample size"),
            "trials": _Option(_int, 200, "independent trials"),
            **_REGRESSION,
            **_COMMON,
            **_JSON_OR_CSV,
        },
    },
    "scaling": {
        "run": _run_scaling,
        "help": "mean bound and mean gap against growing sample size",
        "options": {
            "ns": _Option(_ints, ..., "comma-separated sample sizes, strictly increasing"),
            "trials": _Option(_int, 20, "trials per sample size"),
            **_REGRESSION,
            **_COMMON,
            **_JSON_OR_CSV,
        },
    },
}


def _help(option: _Option) -> str:
    if option.default is ... or option.default is None:
        return option.help
    default = option.default
    return f"{option.help} (default {'%g' % default if isinstance(default, float) else default})"


def _build_parser(chosen: str | None = None) -> argparse.ArgumentParser:
    """The full parser: every subcommand, with options for ``chosen`` only."""
    import argparse  # a well-formed call never builds a parser (_table_args)

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
        if name != chosen:  # a call parses no other subcommand's options
            continue
        # argparse only collects the text; _merge_params converts it
        for key, option in spec["options"].items():
            sub.add_argument("--" + key.replace("_", "-"), dest=key,
                             default=argparse.SUPPRESS, help=_help(option))
        sub.add_argument("--config", default=argparse.SUPPRESS,
                         help="JSON file with option values (flags override)")
    return parser


def _table_args(name: str, words: list[str]) -> dict[str, str] | None:
    """The flag texts of a well-formed call of ``name``, read straight from
    its option table, or None for anything else.

    Each flag is ``--key=value``, or ``--key value`` with a value that does
    not start with ``-``, for an exact long option name or ``--config``; a
    repeated flag's last value wins.  On such a call this is the dict of
    argparse's Namespace; help, an abbreviation, ``--``, a stray word or a
    missing value are left to :func:`_build_parser`.
    """
    keys = {"--" + key.replace("_", "-"): key for key in _COMMANDS[name]["options"]}
    keys["--config"] = "config"
    flags = {}
    words = iter(words)
    for word in words:
        flag, has_value, value = word.partition("=")
        if flag not in keys:
            return None
        if not has_value:
            value = next(words, "-")  # a missing value fails as a dash does
            if value.startswith("-"):
                return None
        flags[keys[flag]] = value
    return flags


def _load_config(path: str, options: dict[str, _Option]) -> dict:
    """The option values of a JSON config file; a null value keeps the default."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - set(options)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return {key: value for key, value in raw.items() if value is not None}


def _merge_params(name: str, flags: dict[str, str]) -> dict:
    """Option values by precedence default < config < flag, each converted by
    its option's parser: the one conversion path for every value."""
    options = _COMMANDS[name]["options"]
    given = dict(flags)
    raw = {key: option.default for key, option in options.items()}
    if "config" in given:
        raw.update(_load_config(given.pop("config"), options))
    raw.update(given)
    missing = sorted(key for key, value in raw.items() if value is ...)
    if missing:
        raise ConfigError(f"missing required options for {name}: {missing}")
    params = {}
    for key, value in raw.items():
        try:
            params[key] = None if value is None else options[key].parse(value)
        except (ConfigError, ValueError, OSError) as exc:
            raise ConfigError(f"--{key.replace('_', '-')}: {exc}") from exc
    return params


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    name = argv[0] if argv else None
    flags = _table_args(name, argv[1:]) if name in _COMMANDS else None
    if flags is None:
        # no subcommand, an unknown one, help, an abbreviation or a parse
        # error: argparse resolves the call, or prints its help or error
        # text and exits, as it always has
        parser = _build_parser(name)
        flags = vars(parser.parse_args(argv))
        name = flags.pop("subcommand")
        if name is None:
            parser.print_help()
            return 2
    try:
        params = _merge_params(name, flags)
        summary, pieces = _COMMANDS[name]["run"](params)
        if params["output"] is not None:
            _write_output(params["output"], pieces)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OupacError as exc:
        print(f"error in {name}: {exc}", file=sys.stderr)
        return 3
    print(summary)
    if params["output"] is None:
        sys.stdout.writelines(pieces)
    return 0


def _write_output(path: str, pieces: Iterable[str]) -> None:
    """Write a payload's pieces to the file ``path`` as they come, none
    joined to another; if a write fails, remove the partial file."""
    try:
        out = open(path, "w")
    except OSError as exc:
        raise ConfigError(f"--output: {exc}") from exc
    try:
        with out:
            out.writelines(pieces)
    except BaseException as exc:
        if os.path.isfile(path):  # never a device or a pipe that --output names
            with contextlib.suppress(OSError):
                os.remove(path)
        if isinstance(exc, OSError):
            raise ConfigError(f"--output: {exc}") from exc
        raise


if __name__ == "__main__":
    sys.exit(main())
