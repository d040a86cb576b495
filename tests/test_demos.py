"""Smoke test: every demo script runs cleanly, with the suite's warning
classes raised as errors, and writes nothing to stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: The warning classes that the suite's pytest configuration raises as errors.
WARNINGS_AS_ERRORS = [f"-Werror::{name}" for name in
                      ("RuntimeWarning", "DeprecationWarning", "FutureWarning", "ResourceWarning")]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs_without_traceback(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *WARNINGS_AS_ERRORS, str(demo)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout
