"""The argument contract of the public API: every callable of
``oupac.__all__`` that takes an integer, a real, a sequence of integers, a
typed matrix or a value of one of the package's types returns or raises an
:class:`OupacError` when one argument is replaced by a wrong-typed,
non-finite or huge value, the hand-written checks that
``oupac.errors._integer``, ``_real`` and ``_typed`` replaced stay gone, and
no size check formats its own numbers."""

import ast
import inspect
import math
import warnings
from functools import cache
from pathlib import Path

import numpy as np
import pytest

import oupac
from oupac import (
    Dataset,
    DomainPair,
    GaussianMeasure,
    QuadraticLoss,
    RegressionTask,
    SampleSpec,
    SgdDynamics,
    SymmetricMatrix,
    make_spd,
    simulate_chain,
    standard_gaussian,
)
from oupac.errors import OupacError

SRC = Path(__file__).resolve().parents[1] / "src" / "oupac"

BAD_INTS = [10.0, 2.5, True, math.nan, math.inf, -math.inf, "3", np.array([1, 2])]
BAD_REALS = [True, math.nan, math.inf, -math.inf, "0.1", np.array([0.1, 0.2])]
BAD_MATRICES = [np.eye(2), np.ones(3)]
#: the package's value types, each read by attribute
PACKAGE_TYPES = ["GaussianMeasure", "QuadraticLoss", "SgdDynamics", "SampleSpec", "DomainPair",
                 "RegressionTask", "Dataset", "Trajectory"]
BAD_VALUES = {"int": BAD_INTS, "int | None": BAD_INTS, "float": BAD_REALS,
              "SpdMatrix": BAD_MATRICES, "SymmetricMatrix": BAD_MATRICES,
              **dict.fromkeys(PACKAGE_TYPES, [None, np.eye(2)])}

#: result records: they hold what a computation returned and check no argument
RECORDS = {"BoundReport", "TrialRecord", "ValidityResult", "MomentEstimate"}


@cache
def _valid_calls() -> dict:
    """One valid positional argument tuple per walked callable, at d = 2 and
    sizes that run in milliseconds."""
    eye = make_spd(np.eye(2))
    loss = QuadraticLoss(eye, np.zeros(2))
    dyn = SgdDynamics(0.1, 1, np.eye(2))
    task = RegressionTask(np.array([0.5, -1.0]), eye, 0.3)
    g = standard_gaussian(2)
    pair = DomainPair(eye, eye, np.zeros(2))
    spec = SampleSpec(100, 0.05)
    return {
        "DomainPair": (eye, eye, np.zeros(2)),
        "SampleSpec": (100, 0.05),
        "discrepancy_d": (pair,),
        "discrepancy_d_tilde": (pair,),
        "dominance_report": (pair, spec, spec),
        "finetune_bound": (pair, spec),
        "finetune_bound_dimension": (pair, spec),
        "kl_upper_bound_trace": (eye, dyn.noise_cov, 0.1, 1, eye),
        "lemma2_check": (pair,),
        "lemma2_survey": ((1, 2), 2),
        "mcallester_bound": (0.5, spec),
        "pretrain_bound": (eye, spec),
        "QuadraticLoss": (eye, np.zeros(2), 0.5),
        "SgdDynamics": (0.1, 1, np.eye(2)),
        "Trajectory": (np.zeros((3, 2)), np.eye(2), np.zeros(2), np.zeros(2), 1, 2, 0),
        "estimate_stationary": (simulate_chain(np.zeros(2), loss, dyn, 20, 1), 5),
        "sgd_step": (np.zeros(2), loss, dyn, np.zeros(2)),
        "simulate_chain": (np.zeros(2), loss, dyn, 20, 1, 0),
        "stability_check": (loss, dyn),
        "two_stage_run": (loss, dyn, loss, dyn, 20, 20, 2, 1, 5, 0),
        "GaussianMeasure": (np.zeros(2), eye),
        "kl_divergence": (g, g),
        "log_density": (g, np.zeros((1, 2))),
        "mc_kl_estimate": (g, g, 1000, 0),
        "sample": (g, 3, 0),
        "standard_gaussian": (2,),
        "stationary_from_dynamics": (eye, np.zeros(2), dyn.noise_cov, 0.1, 1),
        "stein_stationary_covariance": (eye, dyn.noise_cov, 0.1, 1),
        "log_det": (eye,),
        "random_spd": (2, 0.5, 2.0, 0),
        "solve_continuous_lyapunov": (eye, SymmetricMatrix(np.eye(2))),
        "solve_discrete_stein": (0.5 * np.eye(2), SymmetricMatrix(np.eye(2))),
        "Dataset": (np.eye(2), np.zeros(2), 0),
        "RegressionTask": (np.array([0.5, -1.0]), eye, 0.3),
        "bound_validity_experiment": (task, dyn, SampleSpec(4, 0.05), g, 10, 0),
        "empirical_quadratic": (Dataset(np.eye(2), np.zeros(2), 0),),
        "expected_risk_gaussian": (loss, g),
        "generate_dataset": (task, 4, 0),
        "population_quadratic": (task,),
        "scaling_experiment": (task, [4, 16], dyn, 0.05, 0, 2),
        "child_seed": (7, 1, 2),
        "make_rng": (7, 1, 2),
    }


def _walked_parameters(name: str) -> list[inspect.Parameter]:
    """The parameters of ``name`` that the walk replaces: an integer, a real,
    a sequence of integers (``Sequence[int]`` or ``*path: int``), a typed
    matrix or a value of a package type."""
    params = inspect.signature(getattr(oupac, name)).parameters.values()
    return [p for p in params if p.annotation in BAD_VALUES or p.annotation == "Sequence[int]"]


def _cases():
    for name in _valid_calls():
        for param in _walked_parameters(name):
            sequence = param.annotation == "Sequence[int]" or param.kind is param.VAR_POSITIONAL
            for index, bad in enumerate(BAD_INTS if sequence else BAD_VALUES[param.annotation]):
                yield pytest.param(name, param.name, sequence, bad,
                                   id=f"{name}-{param.name}-{index}")


def test_the_table_holds_every_public_callable_the_walk_reaches():
    walked = {name for name in oupac.__all__ if callable(getattr(oupac, name))
              and not (isinstance(getattr(oupac, name), type)
                       and issubclass(getattr(oupac, name), BaseException))
              and _walked_parameters(name)}
    assert set(_valid_calls()) == walked - RECORDS


@pytest.mark.parametrize("name", list(_valid_calls()))
def test_each_valid_call_returns(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        getattr(oupac, name)(*_valid_calls()[name])


@pytest.mark.parametrize("name, param, sequence, bad", list(_cases()))
def test_a_bad_argument_returns_or_raises_an_oupac_error(name, param, sequence, bad):
    function = getattr(oupac, name)
    bound = inspect.signature(function).bind(*_valid_calls()[name])
    bound.apply_defaults()
    if sequence:  # one entry replaced
        bound.arguments[param] = (bad, *bound.arguments[param][1:])
    else:
        bound.arguments[param] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            function(*bound.args, **bound.kwargs)
        except OupacError:
            pass


@pytest.mark.parametrize("call", [
    lambda: GaussianMeasure(np.zeros(2), np.eye(2)),
    lambda: DomainPair(np.eye(2), make_spd(np.eye(2)), np.zeros(2)),
    lambda: oupac.kl_divergence(standard_gaussian(2), np.eye(2)),
], ids=["gaussian", "domain-pair", "kl"])
def test_a_plain_array_for_a_typed_argument_names_both_types(call):
    with pytest.raises(oupac.InvalidRangeError, match=r"must be a \w+, got ndarray$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: SampleSpec(10**5000, 0.1), "^sample_size must be below 2\\*\\*1024, got an integer "
                                        "of 16610 bits$"),
    (lambda: SgdDynamics(10**5000, 1, np.eye(2)), "^lr must be a finite real number, got an "
                                                  "integer of 16610 bits$"),
    (lambda: oupac.child_seed(-10**5000), "^seed must be a non-negative integer, got a negative "
                                          "integer of 16610 bits$"),
    (lambda: oupac.child_seed(7, 10**5000), "^a seed must have at most 4300 digits, got an "
                                            "integer of 16610 bits$"),
    (lambda: _with("lemma2_survey", 0, (10**5000,)),
     "^dims: one pair's covariances hold an integer of 33221 bits floats \\(an integer of 33224 "
     "bits bytes\\) at dimension an integer of 16610 bits; at most"),
    (lambda: _with("lemma2_survey", 1, 10**5000),
     "^pairs_per_dim: the margins hold an integer of 16611 bits floats \\(an integer of 16614 "
     "bits bytes\\) at dimension 2; at most"),
    (lambda: _with("simulate_chain", 3, 10**5000),
     "^total_steps=an integer of 16610 bits at stride 1 records an integer of 16611 bits floats"),
    (lambda: _with("mc_kl_estimate", 2, 10**5000),
     "^Monte-Carlo KL with an integer of 16610 bits draws holds an integer of 16610 bits floats"),
    (lambda: _with("Trajectory", 5, 10**5000),
     "^trajectory records has shape \\(3, 2\\), expected \\(an integer of 16610 bits, 2\\) for an "
     "integer of 16610 bits steps at stride 1$"),
    (lambda: _with("estimate_stationary", 1, 10**5000),
     "^0 records left after burn-in of an integer of 16610 bits; need >= 2$"),
    (lambda: _with("two_stage_run", 8, 10**5000),
     "^0 records left after burn-in of an integer of 16610 bits; need >= 1$"),
    (lambda: _with("scaling_experiment", 1, [10**5000, 4]),
     "^ns must be strictly increasing, got \\[an integer of 16610 bits, 4\\]$"),
], ids=["sample-size", "lr", "negative-seed", "seed-path", "survey-dim", "survey-pairs",
        "chain-steps", "mc-kl-draws", "trajectory-steps", "estimate-burn-in", "two-stage-burn-in",
        "scaling-ns"])
def test_an_integer_too_long_to_print_is_named_by_its_bit_length(call, message):
    # Python refuses to print an int of more than 4300 digits (by default),
    # so a message that printed it would raise a bare ValueError
    with pytest.raises(OupacError, match=message):
        call()


def _with(name: str, index: int, value):
    """The walked callable ``name`` on its valid call, argument ``index`` replaced."""
    args = list(_valid_calls()[name])
    args[index] = value
    return getattr(oupac, name)(*args)


@pytest.mark.parametrize("name, index, message", [
    ("random_spd", 0, "^dim: the covariance holds an integer of 2658 bits floats"),
    ("standard_gaussian", 0, "^dim: the covariance holds an integer of 2658 bits floats"),
    ("sample", 1, "^count=an integer of 1329 bits: the draws hold an integer of 1330 bits floats"),
    ("generate_dataset", 1, "^sample_size=an integer of 1329 bits: the dataset holds an integer "
                            "of 1331 bits floats"),
], ids=["random-spd", "standard-gaussian", "sample", "generate-dataset"])
def test_a_size_too_large_to_hold_is_refused_before_anything_is_drawn(name, index, message):
    # numpy would refuse the shape with a bare ValueError ("Maximum allowed
    # dimension exceeded"); each size is checked against RECORD_FLOATS first
    with pytest.raises(oupac.InvalidRangeError, match=message + ".* are held$"):
        _with(name, index, 10**400)


def _formatted_size_messages(tree: ast.Module) -> list[str]:
    """The ``_check_held`` calls that pass an f-string, a ``.format`` call or a
    ``%`` format: each would print its numbers before the check could refuse
    one too long to print, where ``_check_held`` prints them through
    ``errors._shown``."""
    found = []
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and ast.unparse(call.func).endswith("_check_held")):
            continue
        for node in [sub for arg in call.args for sub in ast.walk(arg)]:
            if (isinstance(node, ast.JoinedStr)
                    or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "format"
                    or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                    and isinstance(node.left, ast.Constant) and isinstance(node.left.value, str)):
                found.append(ast.unparse(call))
                break
    return found


def test_the_size_message_guard_finds_each_formatted_message():
    source = """
_check_held(f"n={n} holds", n, d)
linalg._check_held("n={} holds".format(n), n, d)
_check_held("n=%d holds" % n, n, d)
_check_held("n={} holds", n, d, n)
_check_held(name + "={} holds", n * d, d, n)
"""
    assert _formatted_size_messages(ast.parse(source)) == [
        "_check_held(f'n={n} holds', n, d)", "linalg._check_held('n={} holds'.format(n), n, d)",
        "_check_held('n=%d holds' % n, n, d)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_size_message_prints_its_numbers_itself(path):
    assert _formatted_size_messages(ast.parse(path.read_text())) == []


def _int_names(function: ast.FunctionDef) -> set[str]:
    """The parameters of ``function`` annotated as an integer or a sequence
    of them, and the comprehension variables that run over the latter."""
    names = {arg.arg for arg in [*function.args.args, *function.args.kwonlyargs]
             if arg.annotation is not None and "int" in ast.unparse(arg.annotation)}
    for node in ast.walk(function):
        if isinstance(node, ast.comprehension) and ast.unparse(node.iter) in names:
            names.add(ast.unparse(node.target))
    return names


def _retired_checks(tree: ast.Module) -> list[str]:
    """Hand-written argument checks that the ``errors`` helpers replace:
    ``int(x) != x``, ``isinstance(x, (int, np.integer))`` and ``int(x)`` of
    an integer parameter."""
    found = []
    for function in [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]:
        int_names = _int_names(function)
        for node in ast.walk(function):
            text = ast.unparse(node)
            if isinstance(node, ast.Compare):
                sides = [ast.unparse(side) for side in [node.left, *node.comparators]]
                if any(f"int({side})" in sides for side in sides):
                    found.append(text)
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance":
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                if {"int", "np.integer"} & set(map(ast.unparse, kinds)):
                    found.append(text)
            elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "int"
                  and len(node.args) == 1 and ast.unparse(node.args[0]) in int_names):
                found.append(text)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_hand_written_integer_check_is_left(path):
    assert _retired_checks(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("source", [
    "def f(n):\n    if int(n) != n or n < 1:\n        raise ValueError",
    "def f(seed):\n    return isinstance(seed, (int, np.integer))",
    "def f(count: int):\n    return np.empty(int(count))",
    "def f(ns: Sequence[int]):\n    return [int(n) for n in ns]",
])
def test_the_retired_check_scan_finds_each_pattern(source):
    assert len(_retired_checks(ast.parse(source))) == 1
