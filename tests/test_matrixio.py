"""Fixture text formats round-trip float64 exactly, and the float kernel
matches FLOAT_FORMAT on every value."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oupac import ConfigError, matrixio, random_spd
from oupac.matrixio import (
    FLOAT_FORMAT,
    format_gaussian,
    format_matrix,
    format_rows,
    parse_matrix,
    parse_gaussian,
    read_gaussian,
    read_matrix,
    write_gaussian,
    write_matrix,
)
from oupac.rng import make_rng


def test_matrix_round_trip_exact(tmp_path):
    m = random_spd(5, 0.1, 9.0, seed=1).entries
    path = tmp_path / "m.txt"
    write_matrix(path, m)
    np.testing.assert_array_equal(read_matrix(path), m)


def test_format_has_dim_header_and_17_digits():
    text = format_matrix(np.array([[1.0 / 3.0]]))
    lines = text.splitlines()
    assert lines[0] == "1"
    assert lines[1] == "0.33333333333333331"


def test_parse_rejects_malformed():
    with pytest.raises(ConfigError):
        parse_matrix("")
    with pytest.raises(ConfigError):
        parse_matrix("x\n1.0\n")
    with pytest.raises(ConfigError):
        parse_matrix("2\n1.0 2.0\n")  # missing row
    with pytest.raises(ConfigError):
        parse_matrix("2\n1.0\n2.0 3.0\n")  # short row


@pytest.mark.parametrize("text", [
    "2\n1 0\n0 1\nhello\n",
    "2\n1 0\n0 1\n0 0\n",
    "1\n1\n\n2\n",
])
def test_parse_rejects_lines_after_the_rows(text):
    with pytest.raises(ConfigError, match="expected .* matrix rows, found"):
        parse_matrix(text)


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "1e999"])
def test_parse_rejects_non_finite_entries(entry):
    row = f"1 {entry}"
    with pytest.raises(ConfigError, match=f"numeric row '{row}' has non-finite entries"):
        parse_matrix(f"2\n1 0\n{row}\n")
    with pytest.raises(ConfigError, match=f"numeric row '{row}' has non-finite entries"):
        matrixio.parse_vector(row)


@pytest.mark.parametrize("token", ["1_0", "1__0", "_1", "\u0663", "\u0661\u0662.\u0665",
                                   "1e400", "-1e400", "1e-400", "-0", "infinity", "-Infinity",
                                   "nan", "0x10", "\xa01", "1\xa0", "1e", "\ud800"])
def test_parse_reads_each_entry_as_float_does(token):
    # float() on each token of the row loop is the reference for the one
    # conversion of every entry; "\xa0" is whitespace, so "1\xa0" is "1"
    text = f"2\n1 0\n0 {token}\n"
    try:
        value = float(token)
    except ValueError:
        with pytest.raises(ConfigError, match="^could not parse numeric row '0 "):
            parse_matrix(text)
        return
    if not math.isfinite(value):
        with pytest.raises(ConfigError, match="^numeric row '0 .* has non-finite entries"):
            parse_matrix(text)
        return
    entries = parse_matrix(text)
    assert entries[1, 1] == value and np.signbit(entries[1, 1]) == np.signbit(value)
    assert entries.tolist() == [[1.0, 0.0], [0.0, value]]


@pytest.mark.parametrize("text, message", [
    ("2\n1 x\n0\n", "could not parse numeric row '1 x'"),
    ("2\n1\n0 inf\n", "expected 2 entries per row, got 1"),
    ("2\n1 0 0\nx\n", "expected 2 entries per row, got 3"),
    ("2\n1 nan\n0 x\n", "numeric row '1 nan' has non-finite entries"),
])
def test_a_malformed_file_names_its_first_bad_row(text, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        parse_matrix(text)


def test_parse_ignores_blank_lines():
    np.testing.assert_array_equal(parse_matrix("\n2\n1 0\n\n0 1\n  \n\n"), np.eye(2))


def test_gaussian_round_trip_exact(tmp_path):
    mean = make_rng(7).standard_normal(3)
    cov = random_spd(3, 0.5, 2.0, seed=8).entries
    path = tmp_path / "g.txt"
    write_gaussian(path, mean, cov)
    mean_back, cov_back = read_gaussian(path)
    np.testing.assert_array_equal(mean_back, mean)
    np.testing.assert_array_equal(cov_back, cov)


def test_format_empty_matrix_and_gaussian():
    assert format_matrix(np.zeros((0, 0))) == "0\n"
    assert format_gaussian(np.zeros(0), np.zeros((0, 0))) == "0\n\n"
    assert format_rows(np.zeros((0, 3)), ",", np.zeros(0, np.int64)) == ""


def test_gaussian_dimension_mismatch_rejected():
    with pytest.raises(ConfigError):
        parse_gaussian("2\n1 0\n0 1\n0.5\n")


def _fields(values: np.ndarray) -> list[list[str]]:
    """Reference: FLOAT_FORMAT on each value."""
    return [[FLOAT_FORMAT % v for v in row] for row in values.tolist()]


def _kernel_fields(values: np.ndarray) -> list[list[str]]:
    text = format_rows(values, ",")
    assert text.endswith("\n")
    return [line.split(",") for line in text[:-1].split("\n")]


_WINDOW_BITS = st.integers(int(np.float64(1e-10).view(np.uint64)),
                           int(np.float64(1e14).view(np.uint64)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(hnp.arrays(
    np.uint64,
    st.tuples(st.integers(1, 16), st.integers(1, 10)),
    elements=st.one_of(st.integers(0, 2**64 - 1), _WINDOW_BITS,
                       _WINDOW_BITS.map(lambda bits: bits | 2**63)),
))
def test_format_rows_matches_float_format_on_raw_bit_patterns(bits):
    values = bits.view(np.float64)
    assert _kernel_fields(values) == _fields(values)


def _ties() -> list[float]:
    """Doubles odd * 2**-(k+1) whose 17-digit rounding is an exact tie: the
    least, a middle and the greatest for each decimal exponent 16 - k of the
    window that has any."""
    ties = set()
    for k in range(3, 27):
        scale = 2 ** (k + 1)
        lo = math.ceil(Fraction(10) ** (16 - k) * scale) | 1
        hi = min(math.ceil(Fraction(10) ** (17 - k) * scale), 2**53) - 1
        hi -= 1 - hi % 2
        if lo <= hi:
            ties |= {lo / scale, ((lo + hi) // 2 | 1) / scale, hi / scale}
    return sorted(ties)


_POWERS = 10.0 ** np.arange(-12, 17)
_BOUNDARIES = np.concatenate([
    [1e-10, 1e14],
    np.nextafter([1e-10, 1e14], 0), np.nextafter([1e-10, 1e14], np.inf),
    _POWERS, np.nextafter(_POWERS, 0), np.nextafter(_POWERS, np.inf),
    _ties(),
    # doubles whose 17-digit rounding carries to a power of ten, all outside the window
    [1e-305, 1e-243, 1e-176, 1e-79, 1e-73],
    [-0.0, 0.0, 5e-324, np.nan, np.inf, -np.inf],
])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_format_rows_matches_float_format_on_boundaries(sign):
    values = (sign * _BOUNDARIES).reshape(-1, 1)
    assert _kernel_fields(values) == _fields(values)
    assert _kernel_fields(values.reshape(1, -1)) == _fields(values.reshape(1, -1))


def test_tie_candidates_are_exact_ties():
    ties = _ties()
    assert len(ties) > 40
    for value in ties:
        exponent = next(x for x in range(-10, 14) if Fraction(value) < Fraction(10) ** (x + 1))
        scaled = Fraction(value) * Fraction(10) ** (16 - exponent)
        assert scaled.denominator == 2 and 10**16 <= scaled < 10**17, value


def test_no_window_value_rounds_up_to_a_power_of_ten():
    # the kernel has no carry: check that no double in [1e-10, 1e14) lies
    # within half a 17th-digit unit below a power of ten
    for n in range(-9, 15):
        power = Fraction(10) ** n
        below = math.nextafter(float(power), 0) if Fraction(float(power)) >= power \
            else float(power)
        assert Fraction(below) < power * (1 - Fraction(1, 2 * 10**17)), n


#: Step numbers at the edges of '%d': every 10^k - 1 and 10^k, and the largest.
_STEP_EDGES = np.array(sorted({2**63 - 1} | {10**k - j for k in range(19) for j in (0, 1)}),
                       dtype=np.int64)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dim=st.integers(1, 10), rows=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_format_rows_leads_each_line_with_its_step_as_percent_d(dim, rows, seed):
    # the step column of a chain's CSV, over 1 to 4 rows, or a block's rows
    # less one, as many or one more (drawn as 5, 6 or 7)
    if rows > 4:
        rows += matrixio._block_rows(dim) - 6
    rng = make_rng(seed)
    edges = np.roll(np.resize(_STEP_EDGES, rows), rng.integers(len(_STEP_EDGES)))
    index = np.where(rng.random(rows) < 0.5, edges,
                     rng.integers(0, 2**63 - 1, rows, dtype=np.int64, endpoint=True))
    values = rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(-20, 20, (rows, dim))
    want = "".join(",".join(["%d" % step] + [FLOAT_FORMAT % v for v in row]) + "\n"
                   for step, row in zip(index.tolist(), values.tolist()))
    assert format_rows(values, ",", index) == want
