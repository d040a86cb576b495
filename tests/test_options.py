"""The CLI's option table as a whole: every option changes an output byte
or an exit code, only the commands that draw take a seed, and no option
text or config file, however malformed, ends a call in a traceback."""

import contextlib
import io
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oupac import cli
from oupac.matrixio import write_gaussian, write_matrix

SEEDED = {"simulate", "two-stage", "kl", "lemma-survey", "validity", "scaling"}


def _stage(prefix: str = "", minimizer: str = "0,0") -> dict[str, str]:
    return {prefix + "hessian": "<I>", prefix + "minimizer": minimizer,
            prefix + "noise_factor": "<I>", prefix + "eta": "0.1", prefix + "batch": "1",
            prefix + "steps": "100"}


#: A small valid call of each command, as option values; ``<I>``, ``<2I>``,
#: ``<G>``, ``<G2>`` and ``<out>`` name the files of the ``files`` fixture.
BASE = {
    "lyapunov": {"a": "<I>", "q": "<I>"},
    "simulate": _stage(),
    "two-stage": {**_stage("pt_"), **_stage("ft_", "1,0"), "replicas": "2"},
    "kl": {"q": "<G>", "p": "<G2>", "mc_draws": "1000"},
    "bound": {"kl": "1", "n": "10", "delta": "0.05"},
    "lemma-survey": {"dims": "1-2", "pairs_per_dim": "2"},
    "dominance": {"sigma_pt": "<I>", "sigma_ft": "<2I>", "shift": "1,0", "n_pt": "100",
                  "n_ft": "10"},
    "validity": {"trials": "10", "n": "20"},
    "scaling": {"ns": "10,40", "trials": "2"},
}


def _stage_rows(prefix: str = "") -> dict[str, tuple]:
    return {prefix + "hessian": ("<I>", "<2I>"), prefix + "minimizer": ("0,0", "1,0"),
            prefix + "noise_factor": ("<I>", "<2I>"), prefix + "eta": ("0.1", "0.2"),
            prefix + "batch": ("1", "2"), prefix + "steps": ("100", "200")}


_REGRESSION_ROWS = {"weights": (None, "0.5,0"), "feature_cov": (None, "<2I>"),
                    "noise_std": (None, "2"), "delta": (None, "0.1"), "eta": (None, "0.05"),
                    "batch": (None, "5"), "noise_scale": (None, "2")}
_SEED_AND_OUTPUT = {"seed": (None, "1"), "output": (None, "<out>")}
_FORMAT = {"format": (None, "csv")}

#: Two valid values of each (command, option) of ``cli._COMMANDS``, set on
#: the command's ``BASE`` call; None leaves the option at its default.
ROWS = {(name, key): values for name, rows in {
    "lyapunov": {"a": ("<I>", "<2I>"), "q": ("<I>", "<2I>"), "eta": (None, "0.5"),
                 "batch": (None, "2"), "output": (None, "<out>")},
    "simulate": {**_stage_rows(), "stride": (None, "2"), "burn_in": (None, "1"),
                 **_SEED_AND_OUTPUT},
    "two-stage": {**_stage_rows("pt_"), **_stage_rows("ft_"), "replicas": ("2", "3"),
                  "stride": (None, "2"), "burn_in": (None, "1"),
                  "init_mode": (None, "chain_continue"), **_SEED_AND_OUTPUT},
    "kl": {"q": ("<G>", "<G2>"), "p": ("<G2>", "<G>"), "mc_draws": ("1000", "1001"),
           **_SEED_AND_OUTPUT},
    "bound": {"kl": ("1", "2"), "n": ("10", "20"), "delta": ("0.05", "0.1"),
              "output": (None, "<out>")},
    "lemma-survey": {"dims": ("1-2", "1,3"), "pairs_per_dim": ("2", "3"),
                     "eig_low": (None, "0.3"), "eig_high": (None, "4"),
                     "shift_scale": (None, "2"), **_SEED_AND_OUTPUT, **_FORMAT},
    "dominance": {"sigma_pt": ("<I>", "<2I>"), "sigma_ft": ("<2I>", "<I>"),
                  "shift": ("1,0", "2,0"), "n_pt": ("100", "200"), "n_ft": ("10", "20"),
                  "delta": (None, "0.1"), "output": (None, "<out>")},
    "validity": {"n": ("20", "30"), "trials": ("10", "11"), **_REGRESSION_ROWS,
                 **_SEED_AND_OUTPUT, **_FORMAT},
    "scaling": {"ns": ("10,40", "10,20"), "trials": ("2", "3"), **_REGRESSION_ROWS,
                **_SEED_AND_OUTPUT, **_FORMAT},
}.items() for key, values in rows.items()}

#: The one option that changes nothing: Lemma 2's margin does not read the
#: shift.  The benchmark still passes it, so it stays until the benchmark drops it.
INERT = {("lemma-survey", "shift_scale")}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("options")
    paths = {name: root / f"{name[1:-1]}.txt" for name in ("<I>", "<2I>", "<G>", "<G2>")}
    write_matrix(paths["<I>"], np.eye(2))
    write_matrix(paths["<2I>"], 2 * np.eye(2))
    write_gaussian(paths["<G>"], np.zeros(2), np.eye(2))
    write_gaussian(paths["<G2>"], np.ones(2), 2 * np.eye(2))
    paths["<out>"] = root / "out"
    return {name: str(path) for name, path in paths.items()}


def _argv(name: str, values: dict, files: dict) -> list[str]:
    return [name] + [f"{cli._flag(key)}={files.get(value, value)}"
                     for key, value in values.items() if value is not None]


def _run(argv: list[str], out_path: str) -> tuple[int, str, str, bytes | None]:
    """Exit code, stdout, stderr and the bytes of the output file (None if
    there is none) of ``cli.main(argv)``; an exception escaping it fails
    the caller."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(out_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    try:
        with open(out_path, "rb") as payload:
            written = payload.read()
    except FileNotFoundError:
        written = None
    return code, out.getvalue(), err.getvalue(), written


_TABLE = [(name, key) for name, spec in cli._COMMANDS.items() for key in spec["options"]]


def test_every_option_of_the_table_has_a_row():
    assert set(ROWS) == set(_TABLE)
    assert len(_TABLE) == 81


@pytest.mark.parametrize("name, key", _TABLE, ids=[f"{n}-{k}" for n, k in _TABLE])
def test_each_option_changes_an_output_byte_or_the_exit_code(files, name, key):
    assert (name, key) in ROWS, "an option with no row"
    runs = []
    for value in ROWS[name, key]:
        values = {**BASE[name], "output": "<out>", key: value}
        runs.append(_run(_argv(name, values, files), files["<out>"]))
        assert runs[-1][0] == 0, runs[-1][2]
    if (name, key) in INERT:
        assert runs[0] == runs[1]
    else:
        assert runs[0] != runs[1]


def test_only_the_commands_that_draw_take_a_seed():
    assert {name for name, spec in cli._COMMANDS.items() if "seed" in spec["options"]} == SEEDED


@pytest.mark.parametrize("name", sorted(set(cli._COMMANDS) - SEEDED))
def test_a_seed_for_a_command_that_draws_nothing_exits_2(files, tmp_path, name):
    config = tmp_path / "seed.json"
    config.write_text(json.dumps({"seed": 0}))
    argv = _argv(name, {**BASE[name], "output": "<out>"}, files)
    assert _run(argv, files["<out>"])[0] == 0
    assert _run([*argv, "--seed", "0"], files["<out>"]) == (
        2, "", f"error: unrecognized argument '--seed' (see 'oupac {name} --help')\n", None)
    assert _run([*argv, f"--config={config}"], files["<out>"]) == (
        2, "", "error: --config: unknown keys: ['seed']\n", None)


@pytest.mark.parametrize("kind", ["directory", "non-utf-8"])
@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_an_unreadable_config_exits_2_with_one_error_line(files, tmp_path, name, kind):
    config = tmp_path / "config"
    if kind == "directory":
        config.mkdir()
    else:
        config.write_bytes(b"\xff\xfe")
    argv = _argv(name, {**BASE[name], "output": "<out>"}, files)
    code, out, err, written = _run([*argv, f"--config={config}"], files["<out>"])
    assert (code, out, written) == (2, "", None)
    assert err.startswith("error: --config: ") and err.count("\n") == 1, err


# ---------------------------------------------------------------------------
# malformed text for each parser, and config values of each JSON type

#: A size is either tiny or at least 1e15, which every size check refuses
#: at once; a size in between could run for minutes.
_SIZES = st.sampled_from(["-1", "0", "1", "2", "3", str(10**15), str(2**64), str(10**400)])
_JUNK = st.sampled_from(["", " ", "x", "1.5", "1e3", "0x10", "nan", "inf", "-", ",", "1-",
                         "--", "﻿1", "\x00", "1\n2", "٣"])
_NUMBERS = st.sampled_from(["0", "1", "-0.5", "2", "1e308", "-1e308", "5e-324", "nan", "inf",
                            "1e999"])


def _joined(tokens) -> st.SearchStrategy[str]:
    return st.builds(lambda parts, sep: sep.join(parts), st.lists(tokens, max_size=4),
                     st.sampled_from([",", " ", ", ", ",,", "-"]))


def _matrix_text() -> st.SearchStrategy[bytes]:
    """Matrix or Gaussian file contents: a dimension line, then rows, each
    part tiny, huge or junk, with an optional byte-order mark or bytes
    that are not UTF-8."""
    row = _joined(st.one_of(_NUMBERS, _JUNK))
    text = st.builds(lambda dim, rows: "\n".join([dim, *rows]) + "\n",
                     st.one_of(_SIZES, _JUNK), st.lists(row, max_size=4))
    prefix = st.sampled_from([b"", b"\xef\xbb\xbf", b"\xff\xfe", b"\x80"])
    return st.builds(lambda head, body: head + body.encode(), prefix, text)


_TEXT = {
    cli._vector: _joined(st.one_of(_NUMBERS, _JUNK)),
    cli._dims: _joined(st.one_of(_SIZES, _JUNK)),
    cli._ints: _joined(st.one_of(_SIZES, _JUNK)),
}
_CHOICE_TEXT = st.one_of(_JUNK, st.sampled_from(["JSON", "json ", "csv,json", "chain-continue"]))
_FILE_PARSERS = (cli._matrix_file, cli._gaussian_file)


def _text_for(parse) -> st.SearchStrategy[str] | None:
    """Malformed text for the parser ``parse``, or None for a parser that
    the extreme-value sweep of ``test_cli.py`` covers (or a file parser)."""
    if getattr(parse, "__qualname__", "").startswith("_choice."):
        return _CHOICE_TEXT
    return _TEXT.get(parse)


def _json_value(parse) -> st.SearchStrategy:
    """A config value of each JSON type; a number set as a count is tiny,
    since a huge count of replicas is valid and runs until stopped."""
    ints = st.integers(-2, 3) if parse is cli._int else st.one_of(
        st.integers(-2, 3), st.sampled_from([10**15, 2**64]))
    strings = _JUNK if _text_for(parse) is None else _text_for(parse)
    scalars = st.one_of(st.none(), st.booleans(), ints,
                        st.sampled_from([0.5, -1.5, 1e-300, 1e300]), strings)
    return st.one_of(scalars, st.lists(scalars, max_size=3),
                     st.dictionaries(st.sampled_from(["a", "seed"]), scalars, max_size=2))


#: A file option's value that names a directory.
_DIRECTORY = None


@st.composite
def _bad_call(draw):
    """``(command, key, value, config)``: one option ``key`` given
    malformed text as ``value`` (a file option the bytes of a malformed
    file, or ``_DIRECTORY``), or the JSON text ``config`` of a config file
    holding one value of any JSON type, under the key ``key``, an unknown
    key or (``key`` None) at the top."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    options = cli._COMMANDS[name]["options"]
    texts = [key for key, option in options.items()
             if _text_for(option.parse) is not None or option.parse in _FILE_PARSERS]
    if texts and draw(st.booleans()):
        key = draw(st.sampled_from(texts))
        parse = options[key].parse
        if parse in _FILE_PARSERS:
            return name, key, draw(st.one_of(st.just(_DIRECTORY), _matrix_text())), None
        return name, key, draw(_text_for(parse)), None
    key = draw(st.sampled_from([*options, "unknown", None]))
    value = draw(_json_value(options[key].parse if key in options else None))
    return name, key, None, json.dumps(value if key is None else {key: value})


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(call=_bad_call())
# a NUL in a config's output name, and a number for it, which named the file "5"
@example(call=("bound", "output", None, '{"output": "a\\u0000b"}'))
@example(call=("bound", "output", None, '{"output": 5}'))
@example(call=("bound", None, None, "null"))
@example(call=("kl", "q", b"\xff\xfe", None))
@example(call=("lyapunov", "a", _DIRECTORY, None))
def test_malformed_text_exits_0_2_or_3_with_at_most_one_error_line(files, call):
    name, key, value, config = call
    values = {**BASE[name], "output": "<out>"}
    root = os.path.dirname(files["<out>"])
    if config is not None:
        values.pop(key, None)  # a flag would override the config's value
        values["config"] = os.path.join(root, "config.json")
        with open(values["config"], "w") as config_file:
            config_file.write(config)
    elif cli._COMMANDS[name]["options"][key].parse in _FILE_PARSERS:
        values[key] = os.path.join(root, "bad-dir" if value is _DIRECTORY else "bad.txt")
        if value is _DIRECTORY:
            os.makedirs(values[key], exist_ok=True)
        else:
            with open(values[key], "wb") as bad:
                bad.write(value)
    else:
        values[key] = value
    argv = _argv(name, values, files)
    with contextlib.chdir(root):  # a config's output names a file here
        code, out, err, _ = _run(argv, files["<out>"])
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code:
        assert out == "" and err.startswith("error") and err.count("\n") == 1, err
