"""Command-line front end.

Every subcommand is a reproducible, config-driven experiment: flags
override config-file values, and repeated runs with the same
configuration produce byte-identical output files.  The six subcommands
that draw (``simulate``, ``two-stage``, ``kl``, ``lemma-survey``,
``validity`` and ``scaling``) derive all their randomness from the
single ``--seed`` option through the hashing rule in :mod:`oupac.rng`;
``lyapunov``, ``bound`` and ``dominance`` draw nothing and take no seed,
so ``--seed`` there, as a flag or a config key, exits 2.

Every call is read from the option table (:func:`_table_args`): flags
are ``--key=value`` or ``--key value`` with the full long name, and a
value that starts with ``-`` needs ``=``.  Anything else, such as an
abbreviated flag, is an invalid configuration.  ``-h``/``--help`` prints
help generated from the same table.

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
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import _threads, matrixio
from .bounds import (
    DomainPair,
    SampleSpec,
    _check_survey_dim,
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
from .linalg import SymmetricMatrix, _frobenius, make_spd, solve_continuous_lyapunov
from .regression import (
    RegressionTask,
    bound_validity_experiment,
    scaling_experiment,
)

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
    """Comma- or space-separated integers, or a JSON array of integers from
    a config file; at least one."""
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    ints = [int(t) for t in text.replace(",", " ").split()]
    if not ints:
        raise ConfigError(f"no integers in {value!r}")
    return ints


def _dims(value) -> list[int]:
    """A range 'lo-hi' or a list of dimensions (a JSON array from a config
    file is a list); the top of a range that is not empty is checked
    against the survey's size limit before the range is built."""
    lo, is_range, hi = str(value).partition("-")
    if is_range and not isinstance(value, list):
        lo, hi = int(lo), int(hi)
        if hi >= lo:
            _check_survey_dim(hi)
        dims = list(range(lo, hi + 1))
    else:
        dims = _ints(value)
    if not dims:
        raise ConfigError(f"dims range {value!r} is empty")
    return dims


def _path(value) -> str:
    """A file name: a flag's text or a config file's string, never a number,
    list or other JSON value that would name a file by its text."""
    if not isinstance(value, str):
        raise ConfigError(f"a file name must be a string, got {value!r}")
    return value


def _matrix_file(value) -> np.ndarray:
    # matrixio's attribute is read at each call, so a wrapper put on it sees the call
    return matrixio.read_matrix(_path(value))


def _gaussian_file(value) -> tuple[np.ndarray, np.ndarray]:
    return matrixio.read_gaussian(_path(value))


def _csv_text(header: list[str], rows: list[list]) -> str:
    # the bytes csv.writer makes: no field _fmt makes holds a comma, quote or
    # newline, and no table here has a single column, so none is quoted
    return "".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows])


def _trajectory_csv(blocks: Iterable[np.ndarray], dim: int, stride: int) -> Iterator[str]:
    """``_csv_text`` of each record's step and state: the header, then one
    text a block of ``dim``-column rows, each rendered when it is asked for."""
    yield ",".join(["step"] + [f"theta_{i}" for i in range(dim)]) + "\n"
    start = 0
    for block in blocks:
        steps = np.arange(start, start + block.shape[0], dtype=np.int64) * stride
        start += block.shape[0]
        yield matrixio.format_rows(block, ",", steps)


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
    steps, stride, burn_in = params["steps"], params["stride"], params["burn_in"]
    _check_run(steps, stride, burn_in, 2, loss.dim, "steps")  # before the chain runs
    trajectory = simulate_chain(loss.minimizer, loss, dyn, steps, stride, params["seed"])
    estimate = estimate_stationary(trajectory, burn_in)
    stein = stein_stationary_covariance(loss.hessian, dyn.noise_cov, dyn.lr, dyn.batch_size)
    gap = _frobenius(estimate.covariance.entries - stein.entries)
    rel_gap = gap / max(_frobenius(stein.entries), np.finfo(float).tiny)
    summary = (
        f"simulate: steps={trajectory.total_steps} records={trajectory.record_count} "
        f"spectral_radius={_fmt(report.spectral_radius)} "
        f"empirical_vs_stein_rel_frobenius={_fmt(float(rel_gap))}"
    )
    return summary, _trajectory_csv(trajectory.state_blocks(), loss.dim, trajectory.stride)


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
    pair = DomainPair(make_spd(params["sigma_pt"]), make_spd(params["sigma_ft"]), params["shift"])
    spec_pt = SampleSpec(params["n_pt"], params["delta"])
    spec_ft = SampleSpec(params["n_ft"], params["delta"])
    pt_report = pretrain_bound(pair.sigma_pt, spec_pt)
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


def _build_task_and_dynamics(params: dict) -> tuple[RegressionTask, SgdDynamics]:
    dim = params["weights"].shape[0]
    feature_cov = params["feature_cov"]
    feature_cov = make_spd(np.eye(dim) if feature_cov is None else feature_cov)
    task = RegressionTask(params["weights"], feature_cov, params["noise_std"])
    dyn = SgdDynamics(params["eta"], params["batch"], params["noise_scale"] * np.eye(dim))
    return task, dyn


def _run_validity(params: dict) -> tuple[str, Iterable[str]]:
    spec = SampleSpec(params["n"], params["delta"])
    task, dyn = _build_task_and_dynamics(params)
    result = bound_validity_experiment(
        task, dyn, spec, standard_gaussian(task.dim),
        trials=params["trials"], master_seed=params["seed"],
    )
    payload = {
        "violation_count": result.violation_count,
        "trials": params["trials"],
        "n": spec.sample_size,
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
        rows = [[r.seed, spec.sample_size, r.gap, r.bound_value, r.violated]
                for r in result.records]
        return summary, [_csv_text(["seed", "n", "gap", "bound", "violated"], rows)]
    return summary, [_json_text(payload)]


def _run_scaling(params: dict) -> tuple[str, Iterable[str]]:
    task, dyn = _build_task_and_dynamics(params)
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


_OUTPUT = {"output": _Option(_path, None, "write results to this file (default: stdout)")}

#: The options of a command that draws: only these take a seed.
_SEEDED = {"seed": _Option(_int, 0, "master seed for all randomness"), **_OUTPUT}

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
            **_OUTPUT,
        },
    },
    "simulate": {
        "run": _run_simulate,
        "help": "simulate the SGD chain and compare moments to the exact solution",
        "options": {**_sgd_stage(), **_CHAIN_RECORDS, **_SEEDED},
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
            **_SEEDED,
        },
    },
    "kl": {
        "run": _run_kl,
        "help": "closed-form and Monte-Carlo KL divergence side by side",
        "options": {
            "q": _Option(_gaussian_file, ..., "Gaussian fixture file: first measure"),
            "p": _Option(_gaussian_file, ..., "Gaussian fixture file: second measure"),
            "mc_draws": _Option(_int, 100_000, "Monte-Carlo draws"),
            **_SEEDED,
        },
    },
    "bound": {
        "run": _run_bound,
        "help": "evaluate the PAC-Bayes complexity term",
        "options": {
            "kl": _Option(_float, ..., "KL divergence value (nonnegative)"),
            "n": _Option(_int, ..., "sample size"),
            "delta": _Option(_float, ..., "confidence level in (0, 1]"),
            **_OUTPUT,
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
            "shift_scale": _Option(_float, 1.0, "ignored: the margin does not read the shift"),
            **_SEEDED,
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
            **_OUTPUT,
        },
    },
    "validity": {
        "run": _run_validity,
        "help": "count bound violations over independent regression trials",
        "options": {
            "n": _Option(_int, 100, "training sample size"),
            "trials": _Option(_int, 200, "independent trials"),
            **_REGRESSION,
            **_SEEDED,
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
            **_SEEDED,
            **_JSON_OR_CSV,
        },
    },
}


def _help(option: _Option) -> str:
    if option.default is ... or option.default is None:
        return option.help
    default = option.default
    return f"{option.help} (default {'%g' % default if isinstance(default, float) else default})"


_DESCRIPTION = """\
Stationary-covariance solvers, SGD-chain simulation, Gaussian KL
divergences, PAC-Bayes bounds, and generalization-gap experiments.
Values may come from a JSON --config file (keys are the long option
names with underscores); command-line flags take precedence.
'oupac SUBCOMMAND --help' lists a subcommand's flags."""

def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _help_text(name: str | None) -> str:
    """The help of subcommand ``name``, each flag with its help, or of the
    program for None, each subcommand with its help: both from ``_COMMANDS``."""
    if name is None:
        head = _DESCRIPTION + "\n\nsubcommands:"
        rows = {command: spec["help"] for command, spec in _COMMANDS.items()}
    else:
        head = _COMMANDS[name]["help"] + "\n\noptions:"
        rows = {_flag(key): _help(option) for key, option in _COMMANDS[name]["options"].items()}
        rows["--config"] = "JSON file with option values (flags override)"
    width = max(map(len, rows))
    return (f"usage: oupac {name or 'SUBCOMMAND'} [--flag VALUE ...]\n\n{head}"
            + "".join(f"\n  {left:<{width}}  {right}" for left, right in rows.items()) + "\n")


def _table_args(name: str, words: list[str]) -> dict[str, str]:
    """The flag texts of a call of ``name``, read from its option table.

    Each flag is ``--key=value``, or ``--key value`` with a value that does
    not start with ``-``, for an exact long option name or ``--config``; a
    repeated flag's last value wins.  Anything else (an abbreviation,
    ``--``, a stray word or a missing value) raises :class:`ConfigError`.
    """
    keys = {_flag(key): key for key in _COMMANDS[name]["options"]}
    keys["--config"] = "config"
    flags = {}
    words = iter(words)
    for word in words:
        flag, has_value, value = word.partition("=")
        if flag not in keys:
            raise ConfigError(f"unrecognized argument {word!r} (see 'oupac {name} --help')")
        if not has_value:
            value = next(words, "-")  # a missing value fails as a dash does
            if value.startswith("-"):
                raise ConfigError(f"{flag} needs a value (write {flag}=VALUE for one "
                                  f"that starts with '-')")
        flags[keys[flag]] = value
    return flags


def _load_config(path: str, options: dict[str, _Option]) -> dict:
    """The option values of a JSON config file; a null value keeps the default."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # absent, a directory, not UTF-8, a NUL in the path
        raise ConfigError(f"--config: {exc}") from exc
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ConfigError(f"--config: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("--config: the file must hold a JSON object")
    unknown = set(raw) - set(options)
    if unknown:
        raise ConfigError(f"--config: unknown keys: {sorted(unknown)}")
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
            raise ConfigError(f"{_flag(key)}: {exc}") from exc
    return params


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand, or print help, and return the exit code, with
    OpenBLAS held to one thread throughout (:mod:`oupac._threads`)."""
    with _threads._one_blas_thread():
        argv = sys.argv[1:] if argv is None else argv
        name = argv[0] if argv else None
        if not argv or {"-h", "--help"}.intersection(argv):
            print(_help_text(name if name in _COMMANDS else None), end="")
            return 0 if argv else 2
        try:
            if name not in _COMMANDS:
                raise ConfigError(f"unknown subcommand {name!r}; choose from {list(_COMMANDS)}")
            params = _merge_params(name, _table_args(name, argv[1:]))
            summary, pieces = _COMMANDS[name]["run"](params)
            if params["output"] is not None:
                _write_output(params["output"], pieces)
        except _VALIDATION_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except OupacError as exc:
            print(f"error in {name}: {exc}", file=sys.stderr)
            return 3
        try:
            print(summary)
            if params["output"] is None:
                sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except OSError as exc:  # stdout to os.devnull: the flush at exit cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                return 1
            print(f"error: standard output: {exc}", file=sys.stderr)
            return 2
        return 0


def _write_output(path: str, pieces: Iterable[str]) -> None:
    """Write a payload's pieces to the file ``path`` as they come, none
    joined to another; if a write fails, remove the partial file."""
    try:
        out = open(path, "w")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
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
