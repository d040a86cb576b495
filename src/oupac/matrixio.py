"""Text fixture formats for matrices, vectors, and Gaussian measures.

Matrix format: first line is the dimension ``d``, followed by ``d``
rows of ``d`` space-separated decimal reals and nothing else but blank
lines.  Writers emit 17 significant digits, enough to round-trip
float64 exactly.

Gaussian fixture format: a matrix block (the covariance) followed by
one extra line holding the mean vector.

Every writer here, and the trajectory CSV of the CLI, renders floats
through :func:`format_rows`, whose text is byte-identical to
``FLOAT_FORMAT % v`` for every value.  A value with 1e-10 <= |v| < 1e14
is converted exactly with integer arithmetic: with ``v = m * 2**e`` and
X its decimal exponent, the 17 significant digits are
``N = m * 5**k * 2**(e + k)`` for ``k = 16 - X``, rounded half to even
(as CPython's correctly rounded ``%`` does); no value in the window
rounds up to ``10**17``.  The digits are then laid out as ``%g`` does: fixed
notation for -4 <= X < 17, else ``e+XX``/``e-XX``, without trailing
zeros.  Every other value (zero, -0, subnormals, nan, +-inf and
magnitudes outside the window) is formatted by ``FLOAT_FORMAT %`` one
value at a time.  Rows are rendered one block of about ``_BLOCK_VALUES``
values at a time (:func:`_block_rows`), which bounds the scratch memory,
and a caller that passes ``format_rows`` one such block at a time holds
one block's text at a time; a value's text does not depend on the block
it falls in.
"""

from __future__ import annotations

import contextlib
import functools
import math
import re
from pathlib import Path

import numpy as np

from .errors import ConfigError

FLOAT_FORMAT = "%.17g"


def format_matrix(entries: np.ndarray) -> str:
    arr = np.asarray(entries, dtype=float)
    return f"{arr.shape[0]}\n" + format_rows(arr, " ")


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
    if len(lines) != 1 + dim:
        raise ConfigError(f"expected {dim} matrix rows, found {len(lines) - 1}")
    fields = [line.split() for line in lines[1:]]
    if all(len(row) == dim for row in fields):
        # one conversion of every token, which numpy makes as float() does; a
        # malformed file goes on to the row loop below, which names its first bad row
        with contextlib.suppress(ValueError):
            entries = np.array(fields, dtype=float)
            if np.isfinite(entries).all():
                return entries
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
    return format_matrix(covariance) + format_rows(np.asarray(mean).reshape(1, -1), " ")


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
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"numeric row {line!r} has non-finite entries")
    return values


def format_rows(values: np.ndarray, sep: str, index: np.ndarray | None = None) -> str:
    """One line per row of the 2-D ``values``: its FLOAT_FORMAT fields joined
    by the character ``sep``, led by that row's entry of ``index`` (integers
    in [0, 2**63)) when given.

    Byte-identical to formatting each value with FLOAT_FORMAT (module docstring).
    """
    values = np.asarray(values, dtype=float)
    if values.shape[1] == 0:  # the mean line of an empty Gaussian, say
        return "\n" * values.shape[0]
    rows = _block_rows(values.shape[1])
    if index is not None:
        index = np.asarray(index, np.int64)
    return "".join(_render_block(values[start:start + rows], ord(sep),
                                 None if index is None else index[start:start + rows])
                   for start in range(0, values.shape[0], rows))


#: About how many values are rendered at a time, in whole rows: enough to
#: spread numpy's cost per call, few enough to bound the scratch memory.
_BLOCK_VALUES = 16384


def _block_rows(dim: int) -> int:
    """Rows of ``dim`` values rendered at a time."""
    return max(1, _BLOCK_VALUES // dim)


#: Bytes per field: the longest FLOAT_FORMAT text, as in
#: "-1.2345678901234567e-308", then the delimiter.  Bytes left 0 are dropped.
_SLOT = 25
#: The window of magnitudes the integer kernel converts.
_LOW, _HIGH = 1e-10, 1e14
#: The decimal exponents of values in the window.
_EXPONENTS = range(-10, 14)


def _pattern(exponent: int) -> str:
    """FLOAT_FORMAT's layout of 17 digits ``d`` of decimal exponent
    ``exponent``, after a sign, padded with NULs to a slot."""
    if 0 <= exponent < 17:
        body = "d" * (exponent + 1) + "." + "d" * (16 - exponent)
    elif -4 <= exponent < 0:
        body = "0." + "0" * (-exponent - 1) + "d" * 17
    else:
        body = "d." + "d" * 16 + f"e{exponent:+03d}"
    return ("-" + body).ljust(_SLOT, "\0")


def _ranks(pattern: str) -> list[int]:
    """Per column, the digit that must be significant for it to be kept, or -1:
    a digit after the point, or the point itself, is kept while some digit
    from there on is significant, and every other column always."""
    ranks, digits, after_point = [], 0, False
    for cell in pattern:
        after_point |= cell == "."
        ranks.append(digits if after_point and cell in "d." else -1)
        digits += cell == "d"
    return ranks


class _Tables:
    """The kernel's lookup tables."""

    def __init__(self) -> None:
        pow5 = 5 ** np.arange(28, dtype=np.uint64)
        self.pow5_hi, self.pow5_lo = pow5 >> 32, pow5 & 0xFFFFFFFF
        digits = np.indices((10,) * 4, np.uint8).reshape(4, -1)
        #: the ASCII of 0000 to 9999, one uint32 word a number
        self.quad_words = np.ascontiguousarray(digits.T + ord("0")).view(np.uint32).ravel()
        #: their trailing zeros (4 for 0000)
        self.quad_zeros = np.logical_and.accumulate(digits[::-1] == 0).sum(axis=0, dtype=np.int8)
        self.pow10 = 10 ** np.arange(1, 19)
        patterns = [_pattern(exponent) for exponent in _EXPONENTS]
        #: per layout: its constant bytes, with a minus sign in column 0
        self.templates = np.frombuffer("".join(patterns).replace("d", "\0").encode(),
                                       np.uint8).reshape(len(patterns), _SLOT)
        #: per layout: its runs of digits, as (column, first digit, length)
        self.runs = [[(m.start(), pattern.count("d", 0, m.start()), len(m.group()))
                      for m in re.finditer("d+", pattern)] for pattern in patterns]
        keep = np.repeat(
            np.array([_ranks(p) for p in patterns])[:, None, :] < np.arange(18)[:, None], 2, axis=1)
        keep[:, 0::2, 0] = False
        #: per layout: keep masks, 255 or 0 a byte, indexed by 2 * digits + is negative
        self.masks = keep * np.uint8(255)


@functools.cache
def _tables() -> _Tables:
    """Built on first use, so that a process that never formats a float pays
    nothing for them."""
    return _Tables()


def _render_block(values: np.ndarray, sep: int, lead: np.ndarray | None) -> str:
    """``format_rows`` of one block."""
    rows, dim = values.shape
    columns = dim + (lead is not None)
    order, slots = _float_slots(values.ravel())
    out = np.empty((rows * columns, _SLOT), np.uint8)
    out[order if lead is None else order + order // dim + 1] = slots
    if lead is not None:
        out[::columns] = _integer_slots(lead)
    out[:, -1] = sep
    out.reshape(rows, -1)[:, -1] = ord("\n")
    return out.tobytes().translate(None, b"\0").decode("ascii")


def _float_slots(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, slots)``: row i of ``slots`` holds the FLOAT_FORMAT text of
    ``x[order[i]]``.  Values in the window come first, ordered stably by
    exponent, so each exponent's slots are one contiguous run."""
    magnitude = np.abs(x)
    inside = (magnitude >= _LOW) & (magnitude < _HIGH)
    exact = np.flatnonzero(inside)
    digits, exponent = _decimal17(magnitude[exact])
    by_exponent = np.argsort(exponent, kind="stable")
    exact, digits = exact[by_exponent], digits[by_exponent]
    order = np.concatenate([exact, np.flatnonzero(~inside)])
    text, kept = _digit_text(digits)
    mask_row = 2 * kept + (x[exact] < 0)
    slots = np.empty((x.size, _SLOT), np.uint8)
    stop = 0
    counts = np.bincount(exponent - _EXPONENTS[0], minlength=len(_EXPONENTS))
    tables = _tables()
    for template, runs, masks, count in zip(tables.templates, tables.runs, tables.masks, counts):
        if count:
            start, stop = stop, stop + count
            group = slots[start:stop]
            group[:] = template
            for column, digit, length in runs:
                group[:, column:column + length] = text[start:stop, 3 + digit:3 + digit + length]
            group &= masks.take(mask_row[start:stop], axis=0)
    rest = x[order[exact.size:]]
    if rest.size:
        padded = b"".join((FLOAT_FORMAT % v).encode().ljust(_SLOT, b"\0") for v in rest.tolist())
        slots[exact.size:] = np.frombuffer(padded, np.uint8).reshape(-1, _SLOT)
    return order, slots


def _decimal17(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(N, X)`` for magnitudes in the window: X is the decimal exponent
    FLOAT_FORMAT prints and N the 17-digit integer nearest
    ``magnitude * 10**(16 - X)``, ties to even."""
    bits = magnitude.view(np.uint64)
    mantissa = (bits & (2**52 - 1)) | 2**52
    exp2 = (bits >> 52).view(np.int64) - 1075
    exponent = np.floor(np.log10(magnitude)).astype(np.int64)
    floor, up = _scaled(mantissa, exp2, exponent)
    wrong = np.flatnonzero((floor < 10**16) | (floor >= 10**17))
    while wrong.size:
        exponent[wrong] += np.where(floor[wrong] < 10**16, -1, 1)
        floor[wrong], up[wrong] = _scaled(mantissa[wrong], exp2[wrong], exponent[wrong])
        wrong = wrong[(floor[wrong] < 10**16) | (floor[wrong] >= 10**17)]
    # no double in the window lies within half a unit of the 17th digit
    # below a power of ten, so rounding never carries to 10**17
    return floor + up, exponent.astype(np.int8)


def _scaled(mantissa: np.ndarray, exp2: np.ndarray, exponent: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Floor of ``mantissa * 2**exp2 * 10**(16 - exponent)`` and whether it
    rounds up (half to even), exactly: ``mantissa * 5**k`` as two 64-bit limbs
    from 32-bit halves, shifted right by ``-(exp2 + k)``, 1 to 63 bits."""
    k = 16 - exponent
    shift = (-(exp2 + k)).view(np.uint64)
    tables = _tables()
    p_hi, p_lo = tables.pow5_hi.take(k), tables.pow5_lo.take(k)
    m_hi, m_lo = mantissa >> 32, mantissa & 0xFFFFFFFF
    low_half = m_lo * p_lo
    middle = m_hi * p_lo + m_lo * p_hi
    low = low_half + (middle << 32)
    high = m_hi * p_hi + (middle >> 32) + (low < low_half)
    floor = (high << (64 - shift)) | (low >> shift)
    # the bits shifted out, as a fraction of 2**64: above half, or at half
    # with an odd floor, rounds up
    return floor, ((low << (64 - shift)) | (floor & 1)) > 2**63


def _digit_text(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ASCII of 17-digit integers, an (n, 20) byte array with the digits in
    columns 3-19, and how many digits are left after trailing zeros."""
    quads = _quads(digits.view(np.int64))
    zeros = _tables().quad_zeros.take(quads[1:])
    trailing = zeros[0]
    for group_zeros in zeros[1:]:
        trailing = group_zeros + (group_zeros == 4) * trailing
    return _quad_text(quads), 17 - trailing


def _integer_slots(values: np.ndarray) -> np.ndarray:
    """Decimal ASCII of non-negative int64 values, right-aligned in the first
    19 bytes of a slot, 0 elsewhere."""
    text = _quad_text(_quads(values))[:, 1:]
    width = 1 + np.searchsorted(_tables().pow10, values, side="right")
    slots = np.zeros((values.size, _SLOT), np.uint8)
    slots[:, :19] = text * (np.arange(19) >= 19 - width[:, None])
    return slots


def _quads(values: np.ndarray) -> np.ndarray:
    """The five 4-digit groups of non-negative int64 values, most significant
    first, one row a group."""
    quads = np.empty((5, values.size), np.intp)
    quads[0] = values // 10**16
    rest = values - quads[0] * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    quads[1] = upper // 10**4
    quads[2] = upper - quads[1] * 10**4
    quads[3] = lower // 10**4
    quads[4] = lower - quads[3] * 10**4
    return quads


def _quad_text(quads: np.ndarray) -> np.ndarray:
    """The 20 ASCII digits of ``_quads`` rows, one row of bytes a value."""
    return np.ascontiguousarray(_tables().quad_words.take(quads).T).view(np.uint8)
