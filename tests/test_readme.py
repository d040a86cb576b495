"""The README's command-line examples run, exit 0 and print the same bytes
twice, and the same bytes at one and at two OpenBLAS threads.

The commands are read from the README's command-line block, so an example
that drifts from the CLI fails here.  Each input file it names gets a small
fixture; each command runs twice through ``cli.main`` in one directory, and
once as ``python -m oupac`` under ``OPENBLAS_NUM_THREADS=1`` and ``=2``.

Run as a script, ``PYTHONPATH=src python tests/test_readme.py`` prints
one line per example: the subcommand, the exit code, and the sha256 of
its stdout, its stderr and its ``--output`` file (``-`` for none), from
``python -m oupac`` on the ``src`` next to this file.  Diffing that
listing between two checkouts shows which example's bytes a change moves.
"""

import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from oupac.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"

#: Matrix and Gaussian fixture files for the file names the examples use.
FIXTURES = {
    "hessian.txt": "2\n2 0.5\n0.5 1\n",
    "noise.txt": "2\n1 0.2\n0.2 0.5\n",
    "h.txt": "2\n1 0.2\n0.2 0.5\n",
    "b.txt": "2\n0.5 0.1\n0 0.4\n",
    "posterior.txt": "2\n0.05 0.01\n0.01 0.025\n0.1 -0.2\n",
    "prior.txt": "2\n1 0\n0 1\n0 0\n",
    "s.txt": "2\n0.05 0\n0 0.025\n",
    "t.txt": "2\n0.08 0.01\n0.01 0.03\n",
}


def readme_commands() -> list[list[str]]:
    """The argv of each ``oupac ...`` line of the command-line block."""
    text = README.read_text()
    section = text[text.index("## Command-line interface"):]
    block = section[section.index("```sh\n") + len("```sh\n"):]
    block = block[:block.index("```")]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert commands and all(argv[0] == "oupac" for argv in commands)
    return [argv[1:] for argv in commands]


def _write_fixtures(argv: list[str], directory: Path) -> None:
    for name, text in FIXTURES.items():
        (directory / name).write_text(text)
    inputs = [value for flag, value in zip(argv, argv[1:])
              if value.endswith(".txt") and flag != "--output"]
    assert set(inputs) <= set(FIXTURES), f"no fixture for {set(inputs) - set(FIXTURES)}"


def _output(argv: list[str], directory: Path) -> bytes | None:
    output = dict(zip(argv, argv[1:])).get("--output")
    return (directory / output).read_bytes() if output else None


def _run(argv: list[str], capsys) -> tuple[int, str, bytes | None]:
    code = main(argv)
    return code, capsys.readouterr().out, _output(argv, Path.cwd())


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_example_runs_and_reruns_byte_identical(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_fixtures(argv, tmp_path)
    first = _run(argv, capsys)
    assert first[0] == 0
    assert first[1] and (first[2] is None or first[2])
    assert _run(argv, capsys) == first


def _python_m_oupac(argv: list[str], directory: Path, **env: str) -> subprocess.CompletedProcess:
    """``python -m oupac argv`` in ``directory`` on the ``src`` next to this file."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "oupac", *argv], cwd=directory,
                          capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path, **env})


def _run_python(argv: list[str], directory: Path, threads: int) -> tuple[bytes, bytes | None]:
    result = _python_m_oupac(argv, directory, OPENBLAS_NUM_THREADS=str(threads))
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout, _output(argv, directory)


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_example_bytes_do_not_depend_on_blas_threads(argv, tmp_path):
    runs = []
    for threads in (1, 2):
        directory = tmp_path / str(threads)
        directory.mkdir()
        _write_fixtures(argv, directory)
        runs.append(_run_python(argv, directory, threads))
    assert runs[0] == runs[1]


def print_example_digests() -> None:
    """For each README example: subcommand, exit code, and the sha256 of
    stdout, stderr and the ``--output`` file (``-`` for none)."""
    with tempfile.TemporaryDirectory() as tmp:
        for index, argv in enumerate(readme_commands()):
            directory = Path(tmp) / str(index)
            directory.mkdir()
            _write_fixtures(argv, directory)
            result = _python_m_oupac(argv, directory)
            output = _output(argv, directory)
            digests = [hashlib.sha256(data).hexdigest() if data is not None else "-"
                       for data in (result.stdout, result.stderr, output)]
            print(argv[0], result.returncode, *digests)


if __name__ == "__main__":
    print_example_digests()
