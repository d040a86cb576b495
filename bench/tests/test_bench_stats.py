"""Self-tests of the benchmark's statistics: run with
``python3 -m pytest bench/tests``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import numpy as np
import pytest

import stats


def test_tail_rule_picks_highest_percentile_with_ten_ops_beyond():
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(92) == 90.0
    assert stats.tail_percentile(91) == 75.0
    assert stats.tail_percentile(200) == 90.0
    assert stats.tail_percentile(10_000) == 90.0
    assert stats.tail_percentile(40) == 75.0
    assert stats.tail_percentile(5) == 50.0
    for count in (20, 57, 100, 171, 1000, 12_000):
        pct = stats.tail_percentile(count)
        assert stats.ops_beyond(count, pct) >= stats.MIN_OPS_BEYOND
        higher = [p for p in stats.TAIL_LADDER if p > pct]
        assert all(stats.ops_beyond(count, p) < stats.MIN_OPS_BEYOND for p in higher)


def test_tail_latency_on_synthetic_latencies():
    # 90 fast ops and 10 slow ones: p90 sits between the clusters, and
    # exactly ten ops lie above it.
    latencies = [0.01] * 90 + [1.0] * 10
    pct = stats.tail_percentile(len(latencies))
    assert pct == 90.0
    value = np.percentile(latencies, pct)
    assert 0.01 <= value <= 1.0
    assert sum(x > value for x in latencies) == 10
    assert np.median(latencies) == 0.01


def test_self_time_subtracts_direct_children_on_nested_trace():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9];  other root [20, 21]
    spans = [
        (0.0, 10.0, -1),
        (1.0, 4.0, 0),
        (2.0, 3.0, 1),
        (5.0, 9.0, 0),
        (20.0, 21.0, -1),
    ]
    assert stats.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])
    assert sum(stats.self_times(spans)) == pytest.approx(10.0 + 1.0)


def _importtime_line(self_us: int, cumulative_us: int, level: int, name: str) -> str:
    return f"import time: {self_us:>9} | {cumulative_us:>10} | {'  ' * level}{name}"


# Post-order, as the interpreter prints it: numpy is imported from
# inside scipy.linalg, and numpy.linalg from inside scipy._lib.
IMPORTTIME = "\n".join([
    "import time: self [us] | cumulative | imported package",
    _importtime_line(100, 100, 3, "_io"),
    _importtime_line(300, 300, 5, "numpy._core"),
    _importtime_line(200, 500, 4, "numpy"),
    _importtime_line(50, 50, 6, "numpy.linalg"),
    _importtime_line(70, 120, 5, "scipy._lib"),
    _importtime_line(80, 200, 4, "scipy"),
    _importtime_line(30, 230, 3, "scipy.linalg"),
    _importtime_line(40, 900, 2, "oupac.gaussian"),
    _importtime_line(10, 950, 1, "oupac"),
])


def test_importtime_parsing_sums_outermost_modules():
    rows = stats.parse_importtime(IMPORTTIME)
    assert len(rows) == 9
    assert rows[0] == ("_io", 3, pytest.approx(100e-6))
    assert stats.package_import_s(rows, "oupac") == pytest.approx(950e-6)
    assert stats.package_import_s(rows, "scipy") == pytest.approx(230e-6)
    # numpy.linalg sits under scipy._lib, outside any numpy import
    assert stats.package_import_s(rows, "numpy") == pytest.approx(550e-6)
