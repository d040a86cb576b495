"""The package runs on numpy alone: scipy is a test and benchmark reference."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def test_numpy_is_the_only_runtime_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.split(r"[<>=!~;\[ ]", dep)[0] for dep in project["dependencies"]] == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


def _imported_modules(path: Path):
    """Top-level names of every absolute import in a source file, wherever it sits."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "oupac"}
    sources = sorted((ROOT / "src" / "oupac").glob("*.py"))
    assert len(sources) > 10
    assert [(path.name, name) for path in sources for name in _imported_modules(path)
            if name not in allowed] == []


def test_test_extra_lists_every_package_the_tests_import():
    optional = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    extra = {re.split(r"[<>=!~;\[ ]", dep)[0] for dep in optional["optional-dependencies"]["test"]}
    local = {path.stem for path in (ROOT / "tests").glob("*.py")} | {"oupac"}
    allowed = set(sys.stdlib_module_names) | local | {"numpy"} | extra
    sources = sorted((ROOT / "tests").glob("*.py"))
    assert [(path.name, name) for path in sources for name in _imported_modules(path)
            if name not in allowed] == []


def test_importing_the_package_and_its_cli_leaves_numpy_random_unimported():
    # numpy.random costs 11-17 ms to import, which every CLI call, even one
    # that draws nothing, would pay; the package imports it at its first draw
    code = ("import sys; import oupac, oupac.cli; "
            "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads, skipping ``from __future__``
    and any import whose lines carry ``# noqa: F401``."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_every_package_import_is_used():
    # __init__.py imports names only to re-export them
    sources = sorted(path for path in (ROOT / "src" / "oupac").glob("*.py")
                     if path.name != "__init__.py")
    assert len(sources) > 10
    assert {path.name: unused for path in sources
            if (unused := _unused_imports(path))} == {}


def test_all_lists_each_name_that_init_imports_once():
    # __init__.py states its exports twice, in its imports and in __all__: an
    # export added to only one of the two lists fails here
    tree = ast.parse((ROOT / "src" / "oupac" / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign) and node.targets[0].id == "__all__")
    assert len(imported) == len(set(imported)) > 0
    assert sorted(exported) == sorted(imported)
