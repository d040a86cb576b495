"""The suite's own pytest settings (``pyproject.toml``)."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _run_suite(tmp_path, test_file: str, body: str) -> subprocess.CompletedProcess:
    """pytest, with the suite's settings, on one test file of ``body``."""
    (tmp_path / test_file).write_text(textwrap.dedent(body))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(tmp_path / test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )


def test_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    # reporting a falsifying example imports mypy_extensions, whose
    # DeprecationWarning the suite's filters must not turn into an error
    run = _run_suite(tmp_path, "test_falsified.py", """
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_falsified(x):
            assert x < 0
    """)
    assert "1 failed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1


def test_file_opened_and_never_closed_fails_the_test(tmp_path):
    # the file's ResourceWarning is raised in its finalizer, where no test code
    # sees it; the suite's filters turn it into a failure of the test that leaked
    run = _run_suite(tmp_path, "test_leak.py", """
        def test_leaks_a_file(tmp_path):
            path = tmp_path / "data.txt"
            path.write_text("x")
            assert open(path).read() == "x"

        def test_closes_its_file(tmp_path):
            path = tmp_path / "data.txt"
            path.write_text("x")
            with open(path) as handle:
                assert handle.read() == "x"
    """)
    assert "1 failed, 1 passed" in run.stdout
    assert "test_leaks_a_file" in run.stdout and "ResourceWarning" in run.stdout
    assert run.returncode == 1
