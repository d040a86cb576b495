"""Small statistics used by the benchmark: the tail-percentile rule,
span self time and ``python -X importtime`` parsing."""

from __future__ import annotations

import math
from typing import Sequence

#: Candidate percentiles for the tail latency, highest first.  The
#: ladder stops at p90: higher percentiles of a run sit in the few
#: slowest ops, which on a shared machine move with its load.
TAIL_LADDER = (90.0, 75.0, 50.0)

#: The tail percentile must leave at least this many ops above it.
MIN_OPS_BEYOND = 10


def ops_beyond(count: int, pct: float) -> int:
    """Number of order statistics strictly above the ``pct`` position."""
    return count - 1 - math.floor(pct / 100.0 * (count - 1))


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least ``MIN_OPS_BEYOND`` ops
    above it; p50 when even the median has fewer (tiny runs)."""
    for pct in TAIL_LADDER:
        if ops_beyond(count, pct) >= MIN_OPS_BEYOND:
            return pct
    return TAIL_LADDER[-1]


def self_times(spans: Sequence[tuple[float, float, int]]) -> list[float]:
    """Self time of each span given ``(start, end, parent_index)`` rows.

    A span's self time is its duration minus the durations of its
    direct children; spans of one thread nest, so children never
    overlap one another.  ``parent_index`` is -1 for a root span.
    """
    child = [0.0] * len(spans)
    for start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (start, end, _) in enumerate(spans)]


def parse_importtime(text: str) -> list[tuple[str, int, float]]:
    """Rows ``(module, level, cumulative_s)`` of ``-X importtime`` output,
    in the order printed (a package follows the modules it imported)."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name_field = fields[2].rstrip()
        indent = len(name_field) - len(name_field.lstrip(" "))
        rows.append((name_field.strip(), (indent - 1) // 2, int(fields[1]) * 1e-6))
    return rows


def package_import_s(rows: Sequence[tuple[str, int, float]], package: str) -> float:
    """Cumulative import time of ``package``: the sum over its outermost
    modules, i.e. those with no enclosing import from the package."""

    def inside(name: str) -> bool:
        return name == package or name.startswith(package + ".")

    total = 0.0
    ancestors: list[tuple[int, str]] = []
    for name, level, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        if inside(name) and not any(inside(outer) for _, outer in ancestors):
            total += cumulative
        ancestors.append((level, name))
    return total
