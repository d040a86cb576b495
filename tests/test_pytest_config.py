"""The suite's own pytest settings (``pyproject.toml``)."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    # reporting a falsifying example imports mypy_extensions, whose
    # DeprecationWarning the suite's filters must not turn into an error
    (tmp_path / "test_falsified.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_falsified(x):
            assert x < 0
    """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(tmp_path / "test_falsified.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "1 failed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
