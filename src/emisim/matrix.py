"""The realization-matrix CSV (UTF-8): a header of years, then one row per
realization. It is read with the line, cell and number rules of every
reader of :mod:`emisim.ingest`, by calling their one home there:
:func:`~emisim.ingest._numbered_lines`, :func:`~emisim.ingest._cells` and
:func:`~emisim.ingest._parse_float`. A block of rows in the writer's form is
read faster, by :func:`_matrix_block_values`, to the same doubles."""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import SchemaError
from .ingest import _cells, _numbered_lines, _parse_float, _parse_int, csv_text, read_text


def read_matrix_csv(path: str | Path) -> tuple[tuple[int, ...], np.ndarray]:
    """:func:`parse_matrix_csv_text` of the UTF-8 file ``path``."""
    return parse_matrix_csv_text(read_text(path))


def parse_matrix_csv_text(text: str) -> tuple[tuple[int, ...], np.ndarray]:
    """Years and realization rows of a matrix CSV: a header of strictly
    increasing years, then one row of numbers per realization; lines of
    whitespace only are skipped. Every cell reads as ``float`` reads it:
    the correctly rounded double (see :func:`_matrix_body`), which must be
    an emission, finite and at least 0. The first error raises: no data
    rows, then the header, then the first bad cell of the body."""
    lines = _numbered_lines(text)
    line, header, _ = next(lines, (0, "", 0))
    row_line, row, row_start = next(lines, (0, "", 0))
    if not row:
        raise SchemaError(line + 1, 1, "no data rows")
    years = [_parse_int(c, line, i, "year") for i, c in enumerate(_cells(line, header), 1)]
    for column, (before, year) in enumerate(zip(years, years[1:]), 2):
        if year <= before:
            raise SchemaError(line, column, f"years not strictly increasing at {year}")
    return tuple(years), _matrix_body(text, row_start, row_line, len(row) + 1, len(years))


def _other_block_values(rows: list[tuple[int, str, int]], width: int) -> np.ndarray:
    """The rows of the non-blank lines of a block not in the writer's form,
    given as :func:`~emisim.ingest._numbered_lines` yields them, read line by
    line with the readers' number rule; the first line that is not ``width``
    cells, or its first cell that is not a number, finite and at least 0,
    raises its SchemaError. (A writer-form cell has at most 19 digits and no
    sign, so it is always finite and at least 0.)"""
    values = (_parse_emission(cell, line, column)
              for line, text, _ in rows
              for column, cell in enumerate(_cells(line, text, width), 1))
    return np.fromiter(values, float, len(rows) * width).reshape(len(rows), width)


def _parse_emission(cell: str, line: int, column: int) -> float:
    value = _parse_float(cell, line, column)
    if value < 0.0:
        raise SchemaError(line, column, f"{cell!r} is negative")
    return value


# ---------------------------------------------------------------------------
# Matrix CSV writing and reading: repr's digits, and exact decimals, found
# with fixed-width integer arithmetic
# ---------------------------------------------------------------------------

# Cells per block: the block's arrays stay in cache. 8192 was the fastest
# of 2048 to 32768 on an 8000 x 16 ensemble, for writing and for reading.
_MATRIX_BLOCK_CELLS = 8192
_U64 = np.uint64
_POW10 = np.array([10**i for i in range(20)], dtype=_U64)
_POW10_FLOAT = _POW10.astype(np.float64)  # exact: 5**19 < 2**53
_POW5 = np.array([5**i for i in range(20)], dtype=_U64)
# bytes are held as (character - "0") % 256 while a block is built or read,
# so that a digit is its value
_POINT, _COMMA, _NEWLINE, _NUL = ((ord(c) - ord("0")) % 256 for c in ".,\n\0")


def _decade_tables() -> tuple[np.ndarray, np.ndarray]:
    """Two tables indexed by the biased exponent of a double x in
    [2**-10, 2**50), 2**E <= x < 2**(E + 1): the decade d of 2**E, with
    10**d <= 2**E < 10**(d + 1), and 10**(d + 1) rounded to a double. x lies
    in decade d + 1 if it is at least that double, else in d. The compare is
    exact: 10**-3 to 10**-1 round up, so no double lies between one of them
    and its double."""
    decade, next_power = np.zeros(2048, dtype=np.int64), np.zeros(2048)
    for e2 in range(-10, 50):
        d = len(str(2**e2)) - 1 if e2 >= 0 else len(str(5**-e2)) - 1 + e2
        decade[1023 + e2], next_power[1023 + e2] = d, float(f"1e{d + 1}")
    return decade, next_power


_DECADE, _NEXT_POWER = _decade_tables()


def _offset(x: np.ndarray, n: np.ndarray,
            places: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(d, five, s, m)``: where the integers n sit relative to the doubles x
    scaled by ``10**places``, exactly, in uint64 arithmetic.

    With x = m * 2**e for an integer m in [2**52, 2**53) and f places, x
    scaled by 10**f is S = m * 5**f * 2**(e + f), and half an ulp of x
    scaled the same way is H = 5**f * 2**(e + f - 1). With s = 1 - e - f,
    the int64 ``d = n * 2**s - 2 * m * 5**f`` is 2**s * (n - S), and
    ``five = 5**f`` (< 2**45) is 2**s * H. The arithmetic wraps, so d is
    exact wherever s is in [0, 64) and |d| < 2**63; an s below 0 wraps to
    2**64 - |s|. n lies strictly inside the rounding interval (S - H, S + H)
    of x where |d| < five.
    """
    bits = x.view(_U64)
    m = (bits & _U64(2**52 - 1)) | _U64(2**52)
    s = _U64(1076) - (bits >> _U64(52)) - places.astype(_U64)  # e = exponent bits - 1075
    five = _POW5[places]
    return ((n << s) - _U64(2) * m * five).view(np.int64), five, s, m


def matrix_csv_text(years: Iterable[int], matrix: np.ndarray) -> str:
    """The matrix CSV of ``matrix``, one row per realization under a header
    of ``years``, with each cell written as ``repr`` writes it: the shortest
    decimal that reads back as the same double. :func:`parse_matrix_csv_text`
    reads it back bit for bit.

    The text is made one block of rows at a time. For a cell in
    [1e-3, 1e15), or zero, numpy finds repr's digits over the whole block
    (see :func:`_repr_digits`); any other cell, and one whose digits the
    fixed-width arithmetic cannot certify, is written by ``repr`` itself.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    step = max(1, _MATRIX_BLOCK_CELLS // matrix.shape[1])
    blocks = (_matrix_block_text(np.ascontiguousarray(matrix[i:i + step]))
              for i in range(0, len(matrix), step))
    # each block is decoded on its own: no bytes copy of the whole text is made
    return "".join(chain((csv_text(map(str, years), ()),), blocks))


def _matrix_block_text(block: np.ndarray) -> str:
    """The CSV rows of a C-contiguous block of the matrix."""
    rows, width = block.shape
    x = block.ravel()
    digits, decade, fallback = _repr_digits(x)
    # Each cell's decimal at fixed places: the whole digits down to 10**0, the
    # point, the fraction digits down to the block's last place, and the
    # separator. A keep mask drops each cell's leading whole zeros and the
    # fraction's trailing zeros, and one boolean index compacts the block.
    places = 16 - decade  # fraction digits of the 17-digit ``digits``
    frac_places = int(places.max())
    unit = _POW10[places]
    whole = digits // unit
    whole_cols = _digit_columns(whole, max(int(decade.max()), 0) + 1)
    frac_cols = _digit_columns((digits - whole * unit) * _POW10[frac_places - places], frac_places)
    point = len(whole_cols)
    chars = np.empty((x.size, point + frac_places + 2), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    for j, col in enumerate(whole_cols[:-1]):
        chars[:, j] = col
        keep[:, j] = decade >= point - 1 - j
    chars[:, point - 1] = whole_cols[-1]
    chars[:, point] = _POINT
    nonzero_after = np.zeros(x.size, dtype=bool)  # the first fraction digit always stays
    for j in range(frac_places - 1, -1, -1):
        chars[:, point + 1 + j] = frac_cols[j]
        if j:
            nonzero_after |= frac_cols[j] != 0
            keep[:, point + 1 + j] = nonzero_after
    chars.reshape(rows, width, -1)[:, :, -1] = _COMMA
    chars.reshape(rows, width, -1)[:, -1, -1] = _NEWLINE
    has_fallback = fallback.any()
    if has_fallback:  # a NUL byte holds the place of each repr
        keep[fallback, :-1] = False
        keep[fallback, 0] = True
        chars[fallback, 0] = _NUL
    text = chars[keep]
    text += ord("0")
    text = text.tobytes().decode("ascii")
    if not has_fallback:
        return text
    reprs = map(repr, x[fallback].tolist())
    return "".join(chain.from_iterable(zip(text.split("\0"), chain(reprs, ("",)))))


def _digit_columns(values: np.ndarray, count: int) -> list[np.ndarray]:
    """The ``count`` decimal digits of each of ``values`` < 10**count, most
    significant first, as uint8 columns, found nine at a time in uint32."""
    cols = []
    while count > 0:
        n = min(9, count)
        if count > n:
            values, chunk = values // _POW10[n], values
            chunk = (chunk - values * _POW10[n]).astype(np.uint32)
        else:
            chunk = values.astype(np.uint32)
        for _ in range(n):
            quotient = chunk // np.uint32(10)
            cols.append((chunk - quotient * np.uint32(10)).astype(np.uint8))
            chunk = quotient
        count -= n
    return cols[::-1]


def _repr_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(digits, decade, fallback)`` for the flat float64 array ``x``.

    For a cell ``x >= 0`` that ``fallback`` leaves out, repr's digits are
    the leading digits of the 17-digit integer ``digits`` (0 for zero) and
    ``10**decade <= x < 10**(decade + 1)``. ``fallback`` marks every cell
    outside [1e-3, 1e15) but +0.0, every power of two (its rounding interval
    is not symmetric), and every cell where :func:`_closest_shortest` cannot
    certify repr's choice.

    In [1e-3, 1e15), with f = 16 - decade, ``S = x * 10**f`` lies in [1e16,
    1e17), and the float product is an integer n within 8 of it.
    :func:`_offset` gives d = 2**s * (n - S) and 5**f = 2**s * H, with
    2 <= s <= 44, so S = n - d / 2**s and half an ulp H = 5**f / 2**s hold
    exactly in 64.64 fixed point.
    """
    fast = (x >= 1e-3) & (x < 1e15) & ((x.view(_U64) & _U64(2**52 - 1)) != 0)
    xs = np.where(fast, x, 1.5)  # keeps the arithmetic below in range for every cell
    biased = (xs.view(_U64) >> _U64(52)).view(np.int64)
    decade = _DECADE[biased] + (xs >= _NEXT_POWER[biased])
    places = 16 - decade
    near = (xs * _POW10_FLOAT[places]).astype(_U64)
    d, five, s, _ = _offset(xs, near, places)
    low, up = (_U64(1) << s) - _U64(1), _U64(64) - s  # the fraction's bits, and their shift
    a = near + ((-d) >> s.view(np.int64)).view(_U64)
    r = ((-d).view(_U64) & low) << up
    digits, certified = _closest_shortest(a, r, five >> s, (five & low) << up)
    zero = x.view(_U64) == 0
    digits[zero] = 0
    return digits, decade, ~(fast & certified | zero)


def _closest_shortest(a: np.ndarray, r: np.ndarray, h_whole: np.ndarray,
                      h_frac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(digits, certified)``: the integer repr's digits come from, for
    ``S = a + r / 2**64`` in [1e16, 1e17) and its rounding interval
    (S - H, S + H), ``H = h_whole + h_frac / 2**64`` in (0.55, 11.2).

    repr takes the shortest decimal inside the interval, and of those the
    closest to S:

    * multiples of 100 (15 digits or fewer) lie further apart than 2H, so at
      most one lies inside;
    * failing that, the closest multiple of 10 (16 digits), if it lies inside;
    * failing that, the closest integer (17 digits), which always does.

    A cell is not ``certified`` where an end of the interval is an integer
    (a candidate on it reads back by the parity of x), where S lies halfway
    between two candidates, or where the candidate is 10**17, a carry into
    the next decade.
    """
    hi_frac = r + h_frac
    hi = a + h_whole + (hi_frac < r)  # the whole parts of S + H and S - H
    lo = a - h_whole - (r < h_frac)
    certified = (hi_frac != 0) & (r != h_frac)
    by100 = hi // _U64(100) * _U64(100)
    in100, in10 = by100 > lo, hi // _U64(10) * _U64(10) > lo
    quotient = a // _U64(10)
    rem = a - quotient * _U64(10)
    half = _U64(2**63)
    # a tie may round either way: it is not certified
    digits = np.where(in100, by100, np.where(in10, (quotient + (rem >= 5)) * _U64(10),
                                             a + (r >= half)))
    certified &= np.where(in100, by100 != _U64(10**17),
                          np.where(in10, (rem != 5) | (r != 0), r != half))
    return digits, certified


def _matrix_body(text: str, start: int, line: int, row_chars: int, width: int) -> np.ndarray:
    """The rows of ``width`` numbers in the matrix CSV ``text`` from offset
    ``start``, the start of file line ``line``, on. A line that is not
    ``width`` numbers, each finite and at least 0, raises its SchemaError.

    The text is read one block of about ``_MATRIX_BLOCK_CELLS`` cells at a
    time, ``row_chars`` characters a row, a slice that ends at a line feed,
    so that no copy of the whole text is made: a block in the writer's form
    by :func:`_matrix_block_values`, any other line by line by
    :func:`_other_block_values`. A block ends just after a line feed, so that
    its lines are the file's; a writer-form block has one row per line feed.
    """
    step = max(1, _MATRIX_BLOCK_CELLS // width) * row_chars
    # one row at most per line: the line feeds, and a last line without one
    out = np.empty((text.count("\n", start) + (not text.endswith("\n")), width))
    rows = 0
    while start < len(text):
        end = text.find("\n", start + step - 1) + 1 or len(text)
        block = text[start:end]
        start = end
        values = _matrix_block_values(block, width)
        if values is None:
            values = _other_block_values(list(_numbered_lines(block, line)), width)
            line += block.count("\n")  # blank lines too
        else:
            line += len(values)  # a writer-form block has one row per line feed
        out[rows:rows + len(values)] = values
        rows += len(values)
    # no view of ``out`` is left, so it can shrink in place
    out.resize((rows, width), refcheck=False)
    return out


def _matrix_block_values(block: str, width: int) -> np.ndarray | None:
    """The rows of ``block``, whole lines of a matrix CSV, if each of them is
    ``width`` cells in the writer's form, separated by commas and ended by a
    line feed: digits, a point and digits, at most 19 digits in all, not
    counting a whole part that is one "0". None for any other block.

    Without its point, a cell's digits are an integer n < 10**19, read
    exactly, and the cell is n / 10**f for its f fraction digits:

    * where n < 2**53, ``float(n) / 10.0**f`` is the double ``float`` reads,
      because it is one correctly rounded division of two exact doubles
      (Clinger, "How to read floating point numbers accurately", 1990);
    * any other cell takes the same quotient as its candidate, then the
      candidate's neighbour towards n, and keeps the first that
      :func:`_certified` shows to be correctly rounded;
    * a cell that neither is, such as a tie or a power of two, is read by
      ``float``.
    """
    if not (block.endswith("\n") and block.isascii()):
        return None
    raw = block.encode("ascii")
    chars = np.frombuffer(raw, dtype=np.uint8) - np.uint8(ord("0"))
    marks = np.flatnonzero(chars > 9)  # points, separators and any other byte
    line_marks = np.full(2 * width, _COMMA, dtype=np.uint8)
    line_marks[::2], line_marks[-1] = _POINT, _NEWLINE
    if (marks.size % line_marks.size
            or not (chars[marks].reshape(-1, line_marks.size) == line_marks).all()):
        return None
    runs = np.empty_like(marks)  # digits before each mark
    runs[0] = marks[0]
    np.subtract(marks[1:], marks[:-1] + 1, out=runs[1:])
    runs = runs.reshape(-1, 2)
    whole, frac = runs[:, 0], runs[:, 1]
    lone_zero = (whole == 1) & (chars[marks[::2] - 1] == 0)
    # at most 19 digits, so that no integer overflows: fromstring would
    # saturate silently
    if runs.min() < 1 or (whole + frac - lone_zero).max() > 19:
        return None
    n = np.fromstring(raw.replace(b".", b"").replace(b"\n", b","), dtype=_U64, sep=",")
    x = n.astype(np.float64) / _POW10_FLOAT[frac]
    hard = np.flatnonzero(n >= _U64(2**53))
    if hard.size:
        n, places = n[hard], frac[hard]
        candidate = x[hard]
        certified, below = _certified(candidate, n, places)
        if (miss := np.flatnonzero(~certified)).size:
            neighbour = np.nextafter(candidate[miss], np.where(below[miss], 0.0, np.inf))
            fixed = _certified(neighbour, n[miss], places[miss])[0]
            candidate[miss[fixed]] = neighbour[fixed]
            certified[miss[fixed]] = True
        x[hard] = candidate
        for i in hard[~certified].tolist():
            x[i] = float(block[marks[2 * i] - whole[i]:marks[2 * i + 1]])
    return x.reshape(-1, width)


def _certified(x: np.ndarray, n: np.ndarray, places: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(certified, below)`` for doubles x within a few ulps of the
    decimals ``n / 10**places``, n < 2**64: ``certified`` where x is the
    decimal correctly rounded, ``below`` where n lies below the upper end of
    the rounding interval of x, both by :func:`_offset`. For an x a few ulps
    off, |d| is a few times 5**f < 2**45, far below 2**63. A decimal on an
    end is a tie, which rounds by the parity of x, and a power of two has an
    interval that is not symmetric: neither is certified.
    """
    d, five, s, m = _offset(x, n, places)
    below = d < five.view(np.int64)
    return (m != _U64(2**52)) & (s < _U64(64)) & (d > -five.view(np.int64)) & below, below
