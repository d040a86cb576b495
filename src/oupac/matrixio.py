"""Text fixture formats for matrices, vectors, and Gaussian measures.

Matrix format: first line is the dimension ``d``, followed by ``d``
rows of ``d`` space-separated decimal reals.  Writers emit 17
significant digits, enough to round-trip float64 exactly.

Gaussian fixture format: a matrix block (the covariance) followed by
one extra line holding the mean vector.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigError

FLOAT_FORMAT = "%.17g"


def format_matrix(entries: np.ndarray) -> str:
    arr = np.asarray(entries, dtype=float)
    return f"{arr.shape[0]}\n" + _format_rows(arr)


def parse_matrix(text: str) -> np.ndarray:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ConfigError("empty matrix file")
    try:
        dim = int(lines[0])
    except ValueError as exc:
        raise ConfigError(f"first line must be the dimension, got {lines[0]!r}") from exc
    if dim < 1:
        raise ConfigError(f"matrix dimension must be >= 1, got {dim}")
    if len(lines) < 1 + dim:
        raise ConfigError(f"expected {dim} matrix rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1 : 1 + dim]:
        row = _parse_floats(line)
        if len(row) != dim:
            raise ConfigError(f"expected {dim} entries per row, got {len(row)}")
        rows.append(row)
    return np.array(rows, dtype=float)


def read_matrix(path: str | Path) -> np.ndarray:
    return parse_matrix(Path(path).read_text())


def write_matrix(path: str | Path, entries: np.ndarray) -> None:
    Path(path).write_text(format_matrix(entries))


def parse_vector(text: str) -> np.ndarray:
    return np.array(_parse_floats(text), dtype=float)


def format_gaussian(mean: np.ndarray, covariance: np.ndarray) -> str:
    return format_matrix(covariance) + _format_rows(np.asarray(mean, dtype=float).reshape(1, -1))


def parse_gaussian(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(mean, covariance)`` from a Gaussian fixture."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ConfigError("empty Gaussian fixture")
    covariance = parse_matrix("\n".join(lines[:-1]))
    mean = parse_vector(lines[-1])
    if mean.shape[0] != covariance.shape[0]:
        raise ConfigError(
            f"mean length {mean.shape[0]} does not match covariance "
            f"dimension {covariance.shape[0]}"
        )
    return mean, covariance


def read_gaussian(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    return parse_gaussian(Path(path).read_text())


def write_gaussian(path: str | Path, mean: np.ndarray, covariance: np.ndarray) -> None:
    Path(path).write_text(format_gaussian(mean, covariance))


def _parse_floats(line: str) -> list[float]:
    try:
        values = [float(token) for token in line.split()]
    except ValueError as exc:
        raise ConfigError(f"could not parse numeric row {line!r}") from exc
    if not all(np.isfinite(values)):
        raise ConfigError(f"numeric row {line!r} has non-finite entries")
    return values


def _format_rows(arr: np.ndarray) -> str:
    """One line of FLOAT_FORMAT fields per row, by one format string a row."""
    row = " ".join([FLOAT_FORMAT] * arr.shape[1]) + "\n"
    return "".join(row % tuple(values) for values in arr.tolist())
