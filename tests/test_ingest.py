import json
import math
import re
import tracemalloc
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from emisim.core import AnnualSeries, ScenarioFamily, SimulationConfig, Unit
from emisim import cli
from emisim.errors import DriverTableError, EmisimError, SchemaError
from emisim.ingest import (
    InferenceEnergyTable,
    InferenceTask,
    _plain_number,
    bundle_from_dict,
    bundled_ai_co2_bundle,
    bundled_data_text,
    bundled_driver_table,
    bundled_inference_table,
    cagr_project,
    cagr_value,
    csv_text,
    doubling_project,
    equivalent_homes,
    inference_energy,
    load_bundle,
    parse_driver_csv,
    parse_driver_csv_text,
    parse_inference_table_text,
    read_json,
    read_text,
    series_to_csv_text,
)
from emisim import matrix as matrix_module
from emisim.matrix import (
    _certified,
    _closest_shortest,
    _offset,
    _repr_digits,
    matrix_csv_text,
    parse_matrix_csv_text,
    read_matrix_csv,
)

DRIVER_HEADER = "year,semis_twh,dc_twh,mix_factor,ai_share,co2_mt"


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------

def test_bundled_table_parses():
    table = bundled_driver_table()
    assert len(table) == 16
    rows = {r.year: r for r in table.rows}
    assert rows[2030].dc_twh == 918.0
    assert rows[2035].co2_mt == 123.0


def test_header_typo_reports_line_one():
    text = "yeer,semis_twh,dc_twh,mix_factor,ai_share,co2_mt\n2020,91,269,0.62,0.02,1.03\n"
    with pytest.raises(SchemaError) as exc:
        parse_driver_csv_text(text)
    assert exc.value.line == 1
    assert exc.value.column == 1


def test_empty_file_is_schema_error():
    with pytest.raises(SchemaError) as exc:
        parse_driver_csv_text("")
    assert "no data rows" in str(exc.value)
    with pytest.raises(SchemaError) as exc:
        parse_driver_csv_text(DRIVER_HEADER + "\n")
    assert "no data rows" in str(exc.value)


def test_bad_cell_reports_line_and_column():
    text = DRIVER_HEADER + "\n2020,91,269,0.62,0.02,1.03\n2021,101,abc,0.59,0.03,2.07\n"
    with pytest.raises(SchemaError) as exc:
        parse_driver_csv_text(text)
    assert exc.value.line == 3
    assert exc.value.column == 3


def test_short_row_rejected():
    text = DRIVER_HEADER + "\n2020,91,269,0.62\n"
    with pytest.raises(SchemaError) as exc:
        parse_driver_csv_text(text)
    assert exc.value.line == 2


def test_value_range_violations_surface_from_validation():
    text = DRIVER_HEADER + "\n2020,91,269,1.3,0.02,1.03\n"
    with pytest.raises(DriverTableError, match="mix_factor = 1.3 outside"):
        parse_driver_csv_text(text)


@pytest.mark.parametrize(
    "parse,text,line,column",
    [
        (parse_driver_csv_text,
         "\n" + DRIVER_HEADER + "\n2020,91,269,0.62,0.02,1.03\n\n\n2021,101,abc,0.59,0.03,2.07\n",
         6, 3),
        (parse_driver_csv_text, "\n\n" + DRIVER_HEADER + "\n\n", 4, 1),
        (parse_driver_csv_text, DRIVER_HEADER + "\n\n2020,91,269\n", 3, 3),
        (parse_inference_table_text,
         "task,energy_wh\n\ntext_generation,47\n\n\nsummarization,-\n", 6, 2),
        (parse_inference_table_text, "task,energy_wh\n\n", 2, 1),
        (parse_inference_table_text, "\ntask,energy\ntext_generation,1\n", 2, 2),
        # a task the table does not know, and a second row for one task
        (parse_inference_table_text, "task,energy_wh\n\nmind_reading,1\n", 3, 1),
        (parse_inference_table_text,
         bundled_data_text("inference_energy.csv") + "\ntext-generation,1\n", 9, 1),
        (parse_matrix_csv_text, "2020,2021\n1,2\n\n3,x\n", 4, 2),
        (parse_matrix_csv_text, "\n2020,2021\n1,2\n\n3\n4,5\n", 5, 1),
        (parse_matrix_csv_text, "\n2020,20x1\n1,2\n", 2, 2),
        (parse_matrix_csv_text, "\n2020,2021\n\n", 3, 1),
        # a header with a column more or less than the format's
        (parse_driver_csv_text, "\n" + DRIVER_HEADER + ",note\n2020,91,269,0.62,0.02,1.03\n", 2, 6),
        (parse_driver_csv_text, DRIVER_HEADER.rsplit(",", 1)[0] + "\n2020,91,269,0.62,0.02\n", 1, 6),
        (parse_inference_table_text, "task,energy_wh,note\ntext_generation,47,x\n", 1, 2),
        # a line of commas is no blank line
        (parse_driver_csv_text, DRIVER_HEADER + "\n \t\n,,,,,\n2020,91,269,0.62,0.02,1.03\n", 3, 1),
        # int() and float() read digit-group underscores and non-ASCII digits;
        # the formats take neither
        (parse_driver_csv_text, DRIVER_HEADER + "\n2_020,91,269,0.62,0.02,1.03\n", 2, 1),
        (parse_driver_csv_text,
         DRIVER_HEADER + "\n\u0662\u0660\u0662\u0660,91,269,0.62,0.02,1.03\n", 2, 1),
        (parse_driver_csv_text, DRIVER_HEADER + "\n2020,91,2\u0666\u0669,0.62,0.02,1.03\n", 2, 3),
        (parse_driver_csv_text, DRIVER_HEADER + "\n2020,9_1,269,0.62,0.02,1.03\n", 2, 2),
        (parse_inference_table_text, "task,energy_wh\ntext_generation,4_7\n", 2, 2),
        (parse_inference_table_text, "task,energy_wh\ntext_generation,\u0664\u0667\n", 2, 2),
        (parse_matrix_csv_text, "2_020,2021\n1,2\n", 1, 1),
        (parse_matrix_csv_text, "\n2020,\u0662\u0660\u0662\u0661\n1,2\n", 2, 2),
        (parse_matrix_csv_text, "2020,2021\n1_5,2\n", 2, 1),
        (parse_matrix_csv_text, "2020,2021\n1,\u0662\n", 2, 2),
        # a matrix cell is finite, as a driver value is; over 19 digits is
        # not the writer's form, so the line-by-line reader sees that cell too
        *((parse_matrix_csv_text, f"2020,2021\n1.5,2.5\n\n3.5,{cell}\n", 4, 2)
          for cell in ("nan", "-nan", "inf", "-Infinity", "1e999", "9" * 400 + ".5")),
    ],
)
def test_parse_errors_count_blank_lines(parse, text, line, column):
    with pytest.raises(SchemaError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (line, column)


# each reader's text with one numeric cell left open, in column 2 of the
# given file line, and a whole number that fills it validly
_ONE_CELL_OPEN = {
    "driver": (parse_driver_csv_text, DRIVER_HEADER + "\n\n2020,{},269,0.62,0.02,1.03\n", 3, "91"),
    "inference-energy": (parse_inference_table_text,
                         bundled_data_text("inference_energy.csv").replace(",63\n", ",{}\n"),
                         6, "63"),
    "matrix": (parse_matrix_csv_text, "2020,2021,2022\n1.5,2.5,3.5\n \n4.5,{},6.5\n", 4, "55"),
}
_LONG = 131_073  # one over the csv module's default field size limit


def _parsed(parse, text):
    """What ``parse`` reads from ``text``, a matrix as its years and bytes."""
    out = parse(text)
    return (out[0], out[1].tobytes()) if parse is parse_matrix_csv_text else out


@pytest.mark.parametrize("reader", list(_ONE_CELL_OPEN))
@pytest.mark.parametrize(
    "cell,error",
    [
        # no quoting: a quote is part of the cell, which is then no number
        ('"{}"', "is not a number"),
        ('"{}', "is not a number"),
        # a CR is no line break, and sheds at a cell's edge as a space does
        ("{}\r", None),
        ("\r {}\r\r", None),
        ("{}\r5", "is not a number"),
        # no field limit: a cell of any length is read by its content
        ("{}".ljust(_LONG, "x"), "is not a number"),
        ("x" * _LONG, "is not a number"),
        ("{}.".ljust(_LONG, "0"), None),
    ],
    ids=["quoted", "open-quote", "cr-after", "cr-around", "cr-inside", "long-bad-tail",
         "long-letters", "long-zeros"],
)
def test_readers_share_one_cell_rule(reader, cell, error):
    parse, text, line, valid = _ONE_CELL_OPEN[reader]
    cell = cell.format(valid)
    changed = text.format(cell)
    if error is None:
        assert _parsed(parse, changed) == _parsed(parse, text.format(valid))
        return
    with pytest.raises(SchemaError) as exc:
        parse(changed)
    assert (exc.value.line, exc.value.column) == (line, 2)
    assert exc.value.reason.endswith(f"{cell.strip()!r} {error}")


@pytest.mark.parametrize("reader", list(_ONE_CELL_OPEN))
def test_readers_skip_whitespace_lines_around_the_header(reader):
    # lines of whitespace only, before the header and between it and the
    # first row, are blank: skipped, but counted in an error's line
    parse, text, line, valid = _ONE_CELL_OPEN[reader]
    blank = " \t\n\x0c\n"

    def padded(cell):
        header, rest = text.format(cell).split("\n", 1)
        return f"{blank}{header}\n{blank}{rest}"

    assert _parsed(parse, padded(valid)) == _parsed(parse, text.format(valid))
    with pytest.raises(SchemaError) as exc:
        parse(padded("x"))
    assert (exc.value.line, exc.value.column) == (line + 2 * blank.count("\n"), 2)
    assert exc.value.reason.endswith("'x' is not a number")


@pytest.mark.parametrize("reader", list(_ONE_CELL_OPEN))
def test_readers_take_no_quoted_header(reader):
    parse, text, _, valid = _ONE_CELL_OPEN[reader]
    header, rest = text.format(valid).split("\n", 1)
    first = header.split(",")[0]
    with pytest.raises(SchemaError) as exc:
        parse(f'"{first}"{header[len(first):]}\n{rest}')
    assert (exc.value.line, exc.value.column) == (1, 1)
    assert f"'\"{first}\"'" in exc.value.reason


_TEXT_PARSERS = [
    parse_driver_csv_text,
    parse_inference_table_text,
    parse_matrix_csv_text,
]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["", DRIVER_HEADER + "\n", "task,energy_wh\n", "2020,2021\n"]),
    st.text(st.sampled_from(list("0123456789,.-+eEinfax_ \t\r\n\"")) | st.characters(),
            max_size=150),
)
@example("task,energy_wh\n", "text_generation,1\rsummarization,2\n")
@example(DRIVER_HEADER + "\n", "2020," + "9" * 131_073 + ",1,1,1,1\n")
def test_text_parsers_raise_only_emisim_or_value_errors(header, body):
    # the CLI ends either with exit 2 and one line; anything else is a traceback
    for parse in _TEXT_PARSERS:
        try:
            parse(header + body)
        except (EmisimError, ValueError):
            pass


@pytest.mark.parametrize("row,reason", [
    ("text-generation,1", "task 'text_generation' repeats an earlier row"),
    ("mind reading,1", "unknown task 'mind reading'"),
])
def test_inference_table_names_the_task_it_refuses(row, reason, capsys):
    text = bundled_data_text("inference_energy.csv") + row + "\n"
    with pytest.raises(SchemaError) as exc:
        parse_inference_table_text(text)
    assert exc.value.reason == reason
    with mock.patch.object(cli, "bundled_inference_table",
                           lambda: parse_inference_table_text(text)):
        assert cli.main(["inference-energy", "text_generation"]) == 2
    assert capsys.readouterr().err == f"error: SchemaError: {exc.value}\n"


def test_whitespace_lines_are_blank():
    table = parse_driver_csv_text(
        " \t\n" + DRIVER_HEADER + "\n\x0c\n2020,91,269,0.62,0.02,1.03\n\u3000 \n")
    assert [row.year for row in table.rows] == [2020]


# characters that str.splitlines, unlike the readers, ends a line at
_NOT_LINE_BREAKS = "\x0b\x0c\x85\u2028"


@pytest.mark.parametrize(
    "read,text",
    [
        (parse_driver_csv,
         DRIVER_HEADER + "\n2020,91\x0b,269\x0c,0.62,\x850.02,\u20281.03\n\x0b \x85\u2028\n"
         "2021,101,bad,0.59,0.03,2.07\n"),
        (lambda path: parse_inference_table_text(read_text(path)),
         "task,energy_wh\n\x0ctext_generation,47\u2028\n\x85\x0b\nsummarization\x85,bad\n"),
        (read_matrix_csv, "2020,2021\x0c\n1.5\x0b,2.5\u2028\n\x85 \x0c\n1.5,\x85bad\n"),
    ],
    ids=["driver", "inference-energy", "matrix"],
)
def test_readers_end_a_line_at_lf_alone(tmp_path, read, text):
    assert all(c in text for c in _NOT_LINE_BREAKS)
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode("utf-8"))
    offset = text.index("bad")
    line_start = text.rfind("\n", 0, offset) + 1
    with pytest.raises(SchemaError) as exc:
        read(path)
    assert (exc.value.line, exc.value.column) == (
        text.count("\n", 0, offset) + 1, text.count(",", line_start, offset) + 1)


def test_csv_text_ends_every_line_with_lf():
    text = csv_text(("year", "value"), [("2020", "1.5"), ["2021", "2"]])
    assert text == "year,value\n2020,1.5\n2021,2\n"
    assert csv_text(iter(["year"]), iter([])) == "year\n"


def test_matrix_csv_bad_line_found_in_a_long_file():
    rows = [f"{i},{i + 0.5}" for i in range(1000)]
    for bad in (0, 1, 499, 500, 998, 999):
        lines = list(rows)
        lines[bad] = "1.0,1_0"
        with pytest.raises(SchemaError) as exc:
            parse_matrix_csv_text("2020,2021\n" + "\n".join(lines) + "\n")
        assert (exc.value.line, exc.value.column) == (bad + 2, 2)
    years, matrix = parse_matrix_csv_text("2020,2021\n\n" + "\n".join(rows) + "\n")
    assert years == (2020, 2021)
    assert matrix.shape == (1000, 2) and matrix[999, 1] == 999.5


# ---------------------------------------------------------------------------
# Matrix CSV writing
# ---------------------------------------------------------------------------

def _repr_matrix_text(years, matrix):
    """The matrix CSV with every cell written by repr: the writer's reference."""
    return csv_text(map(str, years), (map(repr, row) for row in matrix.tolist()))


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=12),
              elements=st.floats(min_value=0.0, allow_infinity=False)),
       st.booleans())
def test_matrix_csv_text_is_repr_of_every_cell(matrix, fortran_order):
    if fortran_order:
        matrix = np.asfortranarray(matrix)
    years = range(2020, 2020 + matrix.shape[1])
    text = matrix_csv_text(years, matrix)
    assert text == _repr_matrix_text(years, matrix)
    assert np.array_equal(parse_matrix_csv_text(text)[1], matrix)


def _edge_values(rng, n):
    """``n`` doubles from 1e-5 to 1e17 in classes that reach each branch of
    the writer: random magnitudes and mantissas, zeros, powers of two,
    integers, short decimals, the neighbours of every power of ten, and
    mantissas with few bits (which put S halfway between two 17-digit
    decimals)."""
    exponent = rng.uniform(-5, 17, n)
    x = 10.0**exponent
    x[1::9] = 0.0
    x[2::9] = 2.0 ** np.round(exponent[2::9] * 3.33)
    x[3::9] = np.round(x[3::9])
    x[4::9] = np.round(x[4::9], 3)
    near = 10.0 ** np.round(exponent[5::9])
    x[5::9] = np.nextafter(near, np.where(rng.random(near.size) < 0.5, 0.0, np.inf))
    x[6::9] = rng.integers(1, 2**20, x[6::9].size) * 2.0 ** rng.integers(-40, 30, x[6::9].size)
    x[7::9] = rng.integers(2**52, 2**53, x[7::9].size) * 2.0 ** rng.integers(-70, 0, x[7::9].size)
    return x


def test_matrix_csv_text_matches_repr_on_a_seeded_sweep():
    rng = np.random.default_rng(20261019)
    for _ in range(10):  # 1.2M values, in blocks that keep memory small
        matrix = _edge_values(rng, 120_000).reshape(-1, 16)
        assert matrix_csv_text(range(16), matrix) == _repr_matrix_text(range(16), matrix)


def test_writer_offsets_fit_64_bits_at_the_ends_of_every_binade():
    # The writer's cells in [1e-3, 1e15) lie in the binades [2**E, 2**(E + 1)),
    # -10 <= E < 50, each cut into at most two decades by the next power of
    # ten. At both ends of each part: 1 <= s <= 59 (here 2 to 44), so that
    # 64 - s is a shift, and |d| <= 8 * 2**s < 2**63, so that the wrapping d
    # is exact; and the digits are repr's.
    ends = []
    for e2 in range(-10, 50):
        cut = matrix_module._NEXT_POWER[1023 + e2]
        bounds = [2.0**e2, 2.0**(e2 + 1)]
        if bounds[0] < cut < bounds[1]:
            bounds.insert(1, cut)
        for low, high in zip(bounds, bounds[1:]):
            ends += [low if low == cut else np.nextafter(low, np.inf), np.nextafter(high, 0.0)]
    x = np.array([v for v in ends if 1e-3 <= v < 1e15])
    digits, decade, fallback = _repr_digits(x)
    assert len(set(decade.tolist())) == 18 and not fallback.any()
    places = 16 - decade
    near = (x * matrix_module._POW10_FLOAT[places]).astype(np.uint64)
    d, _, s, _ = _offset(x, near, places)
    s = s.astype(np.int64)
    assert (s.min(), s.max()) == (2, 44)
    assert (np.abs(d) <= np.int64(8) << s).all()
    for value, n, exponent in zip(x.tolist(), digits.tolist(), decade.tolist()):
        assert Decimal(n).scaleb(exponent - 16) == Decimal(repr(value))


def test_matrix_writer_falls_back_to_repr_where_it_cannot_certify():
    cells = {
        "tie": 1 + 2**-17,  # S = x * 1e16 lies halfway between two integers
        "power of two": 0.5,
        "below range": 1e-4,
        "above range": 1e15,
        "subnormal": 5e-324,
        "negative zero": -0.0,
        "certified": 123.456,
        "zero": 0.0,
    }
    x = np.array(list(cells.values()))
    fallback = _repr_digits(x)[2]
    assert dict(zip(cells, fallback.tolist())) == {name: name not in ("certified", "zero")
                                                   for name in cells}
    assert matrix_csv_text(range(len(x)), x[None]) == _repr_matrix_text(range(len(x)), x[None])
    # doubles never put a candidate on an end of the interval or carry it
    # into the next decade, so these S and H are made up:
    u64 = np.uint64
    a = np.array([10**16 + 12345, 10**16 + 12345, 10**17 - 3, 10**16 + 12349], dtype=u64)
    r = np.array([2**62, 2**62 + 5, 1, 2**40 + 7], dtype=u64)
    h_whole = np.array([3, 3, 5, 3], dtype=u64)
    h_frac = np.array([2**62, 3 * 2**62 - 5, 2**40, 2**50], dtype=u64)
    digits, certified = _closest_shortest(a, r, h_whole, h_frac)
    # S - H and S + H are integers; 10**17 lies inside; 10**16 + 12350 lies inside
    assert certified.tolist() == [False, False, False, True]
    assert digits[2] == 10**17 and digits[3] == 10**16 + 12350


# ---------------------------------------------------------------------------
# Matrix CSV reading
# ---------------------------------------------------------------------------

def _loadtxt_matrix(text):
    """The matrix CSV reader before it read in blocks, the reader's reference:
    np.loadtxt over the non-blank lines, each ended by LF alone, with every
    cell finite and at least 0. Where that fails, the error is searched for
    one line at a time and, in a line of the right width, one cell at a time:
    "no data rows" first, then the header, then the body."""
    rows = [(n, ln) for n, ln in enumerate(text.split("\n"), start=1) if ln.strip()]
    if len(rows) < 2:
        raise SchemaError(rows[0][0] + 1 if rows else 1, 1, "no data rows")
    (line, header), rows = rows[0], rows[1:]
    years = []
    for column, cell in enumerate(header.split(","), start=1):
        if not re.fullmatch("[+-]?[0-9]+", cell.strip()):
            raise SchemaError(line, column, f"year {cell.strip()!r} is not an integer")
        years.append(int(cell))
    for column, (before, year) in enumerate(zip(years, years[1:]), start=2):
        if year <= before:
            raise SchemaError(line, column, f"years not strictly increasing at {year}")
    width = len(years)
    try:
        matrix = np.loadtxt([ln for _, ln in rows], delimiter=",", comments=None, ndmin=2)
        if matrix.shape[1] == width and np.isfinite(matrix).all() and (matrix >= 0.0).all():
            return tuple(years), matrix
    except ValueError:
        pass
    for line, row in rows:
        cells = row.split(",")
        if len(cells) != width:
            raise SchemaError(line, len(cells), f"expected {width} cells, got {len(cells)}")
        for column, cell in enumerate(cells, start=1):
            try:
                value = np.loadtxt([cell], delimiter=",", comments=None) if cell.strip() else None
            except ValueError:
                value = None
            if value is None:
                raise SchemaError(line, column, f"{cell.strip()!r} is not a number")
            if not np.isfinite(value):
                raise SchemaError(line, column, f"{cell.strip()!r} is not finite")
            if value < 0.0:
                raise SchemaError(line, column, f"{cell.strip()!r} is negative")
    raise AssertionError("np.loadtxt read every line alone but not all of them together")


def _read_outcome(parse, text):
    """The years and the matrix bytes ``parse`` reads, or where it fails."""
    try:
        years, matrix = parse(text)
    except SchemaError as exc:
        return exc.line, exc.column
    return years, matrix.shape, matrix.tobytes()


_MATRIX_CHARS = "0123456789.,\n-"


@st.composite
def _matrix_texts(draw):
    """Texts over the characters of the writer's form: writer output of a
    matrix, the same with a few characters changed or with a "-" before some
    whole cells, or any such text."""
    kind = draw(st.sampled_from(["writer", "changed", "signed", "any"]))
    if kind == "any":
        header = draw(st.sampled_from(["", "2020\n", "2020,2021\n", "2020,2021,2022\n"]))
        return header + draw(st.text(_MATRIX_CHARS, max_size=200))
    cells = st.floats(1e-3, 1e15, exclude_max=True) | st.floats(0.0, allow_infinity=False)
    matrix = draw(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=8),
                         elements=cells))
    text = matrix_csv_text(range(2020, 2020 + matrix.shape[1]), matrix)
    if kind == "changed":
        at, cut = draw(st.integers(0, len(text))), draw(st.integers(0, 3))
        text = text[:at] + draw(st.text(_MATRIX_CHARS, max_size=3)) + text[at + cut:]
    if kind == "signed":  # "-0.0" too, where a zero cell is signed
        header, *rows = text.splitlines()
        signs = iter(draw(st.lists(st.booleans(), min_size=matrix.size, max_size=matrix.size)))
        rows = (",".join("-" * next(signs) + cell for cell in row.split(",")) for row in rows)
        text = "".join(line + "\n" for line in (header, *rows))
    return text


@settings(max_examples=500, deadline=None)
@given(_matrix_texts(), st.sampled_from([1, 3, 16, matrix_module._MATRIX_BLOCK_CELLS]))
# a tie and a power of two
@example("2020,2021\n562949953421312.0625,1.0000000000000000\n", 2)
@example("2020,2021\n0.0012345678901234567,00000000000001.00000000000000000001\n", 2)
# 19 digits, and 20 that do not fit in 64 bits
@example("2020,2021\n9999999999999999.999,99999999999.999999999\n", 2)
@example("2020,2021\n0.9999999999999999999,9.9999999999999999999\n", 2)
@example("\n \n2020\n1.5\n\n2.5\n", 1)
@example("2020,2021\n1.5,2.5\n \n2.5,3.5\n", 2)  # a line of spaces, a block of its own
@example("2020,2021,2022\n1.,.5,.\n", 3)  # runs without digits
@example("2020\n1.5\n2.5", 1)
# a bad cell on the first line of a block after the first
@example("2020,2021\n" + "1.5,2.5\n" * 8 + "1.5,x\n", 16)
@example("2020,2021\n1.5,2.5\n1.5,2.5\n1.5,x.5\n", 1)
# a negative cell on a line of a block after the first, before a bad cell
@example("2020,2021\n" + "1.5,2.5\n" * 8 + "-0.0,2.5\n1.5,-2.5\n3,x\n", 16)
# characters that are no line break inside a failing block, and one after
# such a block
@example("2020,2021\n1,2\r3,x\n", 2)
@example("2020,2021\n1,2\x0b3,x\n", 2)
@example("2020,2021\n1,2\u20283,x\n", 2)
@example("2020,2021\n1,2\r3,4\n5,x\n", 1)
@example("2020,2021\n1,2\n\n3,4\n5,x\n", 1)  # a blank line in a block before the error
@example("\n \n", 1)  # blank lines only
@example("2020,2021\n\n1.5,2.5\n1.5,x\n", 2)  # a blank line right after the header
def test_matrix_reader_matches_loadtxt(text, block_cells):
    with mock.patch.object(matrix_module, "_MATRIX_BLOCK_CELLS", block_cells):
        assert _read_outcome(parse_matrix_csv_text, text) == _read_outcome(_loadtxt_matrix, text)


# digits, number letters, whitespace that str.strip and loadtxt may treat
# differently (the characters other rules end a line at among it), control
# characters, and non-ASCII digits
_CELL_CHARS = ("0123456789.+-eEnaif_ \t\x00\x1f\xa0\u3000\u0661"
               "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")


_NUMBER_CELLS = st.from_regex(
    r"[ \t\x00\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000]{0,2}"
    r"[+-]?([0-9\u0661_]+\.?[0-9]*|\.[0-9]+|nan|inf|infinity)"
    r"([eE][+-]?[0-9]{1,3})?[ \t\x00\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000]{0,2}", fullmatch=True)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.text(_CELL_CHARS, max_size=8) | _NUMBER_CELLS, min_size=1, max_size=3),
       st.integers(1, 3))
@example(["1e3", " -inf", "nan\t"], 3)
@example(["1_0"], 1)
@example(["\u0661"], 1)
@example(["\xa01.5\u3000"], 1)
@example(["\x001"], 1)
@example(["1", " "], 2)  # a blank cell
def test_loadtxt_accepts_the_cells_the_readers_number_rule_accepts(cells, width):
    # the matrix reader reads each line of a block of other lines with
    # _plain_number, its reference _loadtxt_matrix with np.loadtxt: both
    # must accept the same lines and read the same values
    line = ",".join(cells)
    assume(line.strip())  # the reader passes no blank line, and loadtxt warns on one
    try:
        loaded = np.loadtxt([line], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        loaded = None
    try:
        read = np.array([[_plain_number(cell.strip(), float) for cell in cells]])
    except ValueError:
        read = None
    accepted = [x is not None and x.shape == (1, width) for x in (loaded, read)]
    assert accepted[0] == accepted[1]
    if accepted[0]:  # bit for bit, but any NaN equals any NaN
        assert np.where(np.isnan(loaded), np.nan, loaded).tobytes() == \
            np.where(np.isnan(read), np.nan, read).tobytes()


def test_matrix_csv_reads_back_bit_for_bit_on_a_seeded_sweep():
    rng = np.random.default_rng(20261020)
    for _ in range(10):  # 1.2M values
        x = _edge_values(rng, 120_000)
        # below 1e-3 and from 1e15 on, repr writes an exponent, more than 19
        # digits or 16 whole digits: those cells go last, so that the blocks
        # before them are in the writer's plain form
        x = x[np.argsort((x != 0) & ((x < 1e-3) | (x >= 1e15)), kind="stable")].reshape(-1, 16)
        assert parse_matrix_csv_text(matrix_csv_text(range(16), x))[1].tobytes() == x.tobytes()


def _reader_path(cell):
    """Whether the reader's Clinger path reads ``cell`` (n < 2**53), and
    else whether :func:`_certified` certifies its candidate quotient, or a
    neighbour of that candidate."""
    whole, frac = cell.split(".")
    n, places = np.array([int(whole + frac)], np.uint64), np.array([len(frac)])
    candidate = n.astype(np.float64) / np.float64(10**len(frac))
    down, up = np.nextafter(candidate, 0.0), np.nextafter(candidate, np.inf)
    return (n[0] < 2**53, _certified(candidate, n, places)[0][0],
            _certified(down, n, places)[0][0] or _certified(up, n, places)[0][0])


def test_matrix_reader_takes_each_path():
    cells = {
        "1.0000000000000000": (False, False, False),  # a power of two: float
        "123.456": (True, True, False),  # an exact quotient
        "275.30285650729843": (False, True, False),  # the quotient, certified
        "1.3271517125308803": (False, False, True),  # its neighbour, certified
        # ties, which float rounds to even, each way, from a quotient above
        # and below
        "562949953421312.0625": (False, False, False),
        "562949953421312.1875": (False, False, False),
        "562949953421312.3125": (False, False, False),
        "562949953421312.4375": (False, False, False),
    }
    assert {cell: _reader_path(cell) for cell in cells} == cells
    text = "2020\n" + "".join(f"{cell}\n" for cell in cells)
    with mock.patch.object(matrix_module, "float", create=True, wraps=float) as read_by_float:
        assert parse_matrix_csv_text(text)[1].ravel().tolist() == [float(c) for c in cells]
    assert [c.args[0] for c in read_by_float.call_args_list] == [
        cell for cell, path in cells.items() if not any(path)]


def test_matrix_reader_reads_a_block_of_other_lines_line_by_line():
    rng = np.random.default_rng(3)
    matrix = rng.lognormal(4.0, 1.0, (20_000, 4))
    text = matrix_csv_text(range(2020, 2024), matrix)
    # a sign, an exponent and a line of whitespace in the middle of the file
    middle = text.index("\n", len(text) // 2) + 1
    text = text[:middle] + "+7,1e3,0.5,2.0\n \n1.5,2.5,3.5,4.5\n" + text[middle:]
    with (mock.patch.object(matrix_module, "_matrix_block_values",
                            wraps=matrix_module._matrix_block_values) as blocks,
          mock.patch.object(matrix_module, "_other_block_values",
                            wraps=matrix_module._other_block_values) as other):
        years, parsed = parse_matrix_csv_text(text)
    assert blocks.call_count >= 8 and other.call_count == 1
    assert parsed.tobytes() == _loadtxt_matrix(text)[1].tobytes()
    row = text[:middle].count("\n") - 1
    assert np.array_equal(parsed[row:row + 2], [[7.0, 1e3, 0.5, 2.0], [1.5, 2.5, 3.5, 4.5]])


def _large_matrix_text():
    matrix = np.random.default_rng(7).lognormal(4.0, 0.5, (100_000, 16))
    return matrix, matrix_csv_text(range(2020, 2036), matrix)


def test_matrix_reader_peak_memory_is_bounded():
    matrix, text = _large_matrix_text()
    tracemalloc.start()
    try:
        parsed = parse_matrix_csv_text(text)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed.tobytes() == matrix.tobytes()
    assert peak <= 2 * matrix.nbytes


def test_matrix_reader_raises_a_late_error_in_one_pass():
    # a bad last cell is found in the block that holds it, at no more memory
    # than reading the file
    matrix, text = _large_matrix_text()
    text = text[:-2] + "x\n"
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError) as exc:
            parse_matrix_csv_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (exc.value.line, exc.value.column) == (100_001, 16)
    assert peak <= 2 * matrix.nbytes


def test_matrix_reader_raises_an_early_error_within_one_block():
    matrix, text = _large_matrix_text()
    second = text.index("\n") + 1
    with (mock.patch.object(matrix_module, "_matrix_block_values",
                            wraps=matrix_module._matrix_block_values) as blocks,
          mock.patch.object(matrix_module, "_other_block_values",
                            wraps=matrix_module._other_block_values) as other,
          pytest.raises(SchemaError) as exc):
        parse_matrix_csv_text(text[:second] + "x" + text[second + 1:])
    assert (exc.value.line, exc.value.column, blocks.call_count, other.call_count) == (2, 1, 1, 1)
    # the search reads the lines of that block alone: those that start in its
    # first block_rows first-row lengths of text
    block_rows = matrix_module._MATRIX_BLOCK_CELLS // matrix.shape[1]
    step = block_rows * (text.index("\n", second) + 1 - second)
    assert len(other.call_args.args[0]) <= text.count("\n", second, second + step - 1) + 1


def test_matrix_blocks_are_sized_from_the_first_data_row():
    matrix = np.random.default_rng(5).lognormal(4.0, 0.5, (5_000, 16))
    text = matrix_csv_text(range(2020, 2036), matrix)
    header = text.index("\n") + 1
    calls = []
    for variant in (text, text[:header] + "\n" + text[header:]):
        with mock.patch.object(matrix_module, "_matrix_block_values",
                               wraps=matrix_module._matrix_block_values) as blocks:
            assert parse_matrix_csv_text(variant)[1].tobytes() == matrix.tobytes()
        calls.append(blocks.call_count)
    assert 1 < calls[0] == calls[1] <= 2 * -(-matrix.size // matrix_module._MATRIX_BLOCK_CELLS)


def test_driver_json_alternative(tmp_path):
    rows = [
        dict(zip(DRIVER_HEADER.split(","), (2020, 91, 269, 0.62, 0.02, 1.03))),
        dict(zip(DRIVER_HEADER.split(","), (2021, 101, 300, 0.59, 0.03, 2.07))),
    ]
    path = tmp_path / "drivers.json"
    path.write_text(json.dumps({"rows": rows}))
    table = parse_driver_csv(path)
    assert table.years == (2020, 2021)


_JSON_READERS = [
    parse_driver_csv,
    # as --halfwidths is read
    lambda path: read_json(path, lambda hw: SimulationConfig(halfwidths=hw).halfwidths),
    load_bundle,
]
# numbers that no int or float holds, at the edges of the ones that fit
_json_numbers = (st.integers(min_value=-(10**20), max_value=10**20) | st.floats()
                 | st.sampled_from([10**400, -(10**400), 1e308, 2020, 0.5]))
_json_leaves = st.none() | st.booleans() | _json_numbers | st.text(max_size=8)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                  max_size=4),
    max_leaves=12,
)
# documents shaped like each reader's input, so that conversion runs deep
_points = st.lists(st.lists(_json_numbers, min_size=2, max_size=2) | _json_values, max_size=4)
_driver_rows = st.lists(st.fixed_dictionaries({k: _json_numbers | _json_values
                                                for k in DRIVER_HEADER.split(",")}), max_size=3)
_trajectory = st.fixed_dictionaries({
    "name": st.sampled_from(["Surge", "Horizon"]) | _json_values,
    "family": st.sampled_from(["Shell", "IEA"]) | _json_values,
    "unit": st.sampled_from(["MtCO2", "TWh", "fraction"]) | _json_values,
    "points": _points,
})
_series_form = st.fixed_dictionaries({"unit": st.sampled_from(["TWh", "fraction"]) | _json_values,
                                      "points": _points})
_json_documents = (
    _json_values
    | st.fixed_dictionaries({"rows": _driver_rows}) | _driver_rows
    | _series_form | st.fixed_dictionaries({"dc_twh": _series_form}) | _points
    | st.fixed_dictionaries({"trajectories": st.lists(_trajectory, max_size=3)})
)


@settings(max_examples=300, deadline=None)
@given(_json_documents.map(json.dumps) | st.text(max_size=40))
@example("[" * 100_000)
@example('{"rows": [{"year": 1e999, "semis_twh": 1, "dc_twh": 1, "mix_factor": 0.5, '
         '"ai_share": 0.5, "co2_mt": 1}]}')
@example('{"trajectories": [{"name": "Surge", "family": "Shell", "unit": "MtCO2", '
         '"points": [[2020, ' + "9" * 400 + ']]}]}')
def test_json_readers_raise_only_emisim_or_value_errors(tmp_path_factory, text):
    # the CLI ends either with exit 2 and one line; anything else is a
    # traceback or exit 4
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(text, encoding="utf-8")
    for read in _JSON_READERS:
        try:
            read(path)
        except (EmisimError, ValueError):
            pass


# ---------------------------------------------------------------------------
# Round trips on bundled data
# ---------------------------------------------------------------------------

def _cell(value):
    """A number as the bundled CSV files write it: a whole one without a point."""
    return str(int(value)) if float(value).is_integer() else repr(value)


def test_driver_table_roundtrip_byte_exact():
    raw = bundled_data_text("table2.csv")
    rows = ([_cell(getattr(r, k)) for k in DRIVER_HEADER.split(",")]
            for r in parse_driver_csv_text(raw).rows)
    assert csv_text(DRIVER_HEADER.split(","), rows) == raw


def test_inference_table_roundtrip_byte_exact():
    raw = bundled_data_text("inference_energy.csv")
    table = bundled_inference_table()
    rows = ((t.value, _cell(table.energy(t))) for t in InferenceTask)
    assert csv_text(("task", "energy_wh"), rows) == raw


def test_bundle_roundtrip_byte_exact():
    # every field the reader keeps, written back in the file's own form
    raw = bundled_data_text("ai_co2_scenarios.json")
    doc = {"trajectories": [
        {"name": t.name, "family": t.family.value, "unit": t.series.unit.value,
         "points": [list(p) for p in t.series.points], "provenance": t.provenance}
        for t in bundle_from_dict(json.loads(raw)).trajectories]}
    assert json.dumps(doc, indent=2) + "\n" == raw


def test_series_csv_roundtrip():
    series = AnnualSeries(Unit.TWH, ((2020, 1.5), (2021, 2.0), (2022, 482.5)))
    assert series_to_csv_text(series) == "year,value\n2020,1.5\n2021,2.0\n2022,482.5\n"


# ---------------------------------------------------------------------------
# Bundled scenario trajectories
# ---------------------------------------------------------------------------

def test_bundled_scenarios_cover_2020_2035():
    bundle = bundled_ai_co2_bundle()
    assert sorted(t.name for t in bundle.trajectories) == [
        "Abundance Without Boundaries",
        "Energy Crisis",
        "Limits To Growth",
        "Sustainable AI",
    ]
    for t in bundle.trajectories:
        assert t.family is ScenarioFamily.AI_STUDY
        assert t.series.years == tuple(range(2020, 2036))
        assert "interpolated" in t.provenance


def test_bundled_scenario_anchor_values():
    by_name = {t.name: t.series for t in bundled_ai_co2_bundle().trajectories}
    assert by_name["Sustainable AI"].value_at(2030) == 115.0
    assert by_name["Sustainable AI"].value_at(2035) == 115.0
    assert by_name["Limits To Growth"].value_at(2035) == 115.0
    assert by_name["Abundance Without Boundaries"].value_at(2035) == 240.0
    assert by_name["Energy Crisis"].value_at(2030) == 130.0
    assert by_name["Energy Crisis"].value_at(2035) == 35.0


# ---------------------------------------------------------------------------
# Growth projections
# ---------------------------------------------------------------------------

def test_cagr_matches_quoted_growth_case():
    series = cagr_project(152.0, 0.15, 7, start_year=2023)
    final = series.value_at(2030)
    assert 400.0 <= final <= 408.0
    assert abs(final - 403.0) / 403.0 <= 0.01
    # repeated-multiplication oracle
    expected = 152.0
    for _ in range(7):
        expected *= 1.15
    assert final == pytest.approx(expected, rel=1e-12)


def test_cagr_low_growth_case_oracle():
    final = cagr_project(152.0, 0.037, 7).values[-1]
    expected = 152.0
    for _ in range(7):
        expected *= 1.037
    assert final == pytest.approx(expected, rel=1e-12)
    assert final == pytest.approx(196.0, abs=0.2)


def test_cagr_zero_rate_is_constant():
    series = cagr_project(100.0, 0.0, 5)
    assert set(series.values) == {100.0}
    assert series.years == (0, 1, 2, 3, 4, 5)


def test_cagr_semigroup_law():
    for rate in (-0.2, 0.0, 0.037, 0.15):
        for m, n in ((3, 4), (1, 9), (5, 5)):
            chained = cagr_project(cagr_project(152.0, rate, m).values[-1], rate, n).values[-1]
            direct = cagr_project(152.0, rate, m + n).values[-1]
            assert abs(chained - direct) / direct <= 1e-12


def test_cagr_domain():
    with pytest.raises(ValueError):
        cagr_project(0.0, 0.1, 5)
    with pytest.raises(ValueError):
        cagr_project(100.0, -1.0, 5)
    with pytest.raises(ValueError):
        cagr_project(100.0, 0.1, -1)
    for base, rate in ((math.inf, 0.1), (math.nan, 0.1), (100.0, math.nan), (100.0, math.inf)):
        with pytest.raises(ValueError):
            cagr_project(base, rate, 5)
    # the power overflows at 1.1 ** 7448, the product at 1e300 * 2 ** 28
    for base, rate, years, first in ((1.0, 0.1, 100_000, 7448), (1e300, 1.0, 100, 28)):
        with pytest.raises(OverflowError, match=f"projection overflows after {first} years"):
            cagr_project(base, rate, years)
    with pytest.raises(OverflowError, match="projection overflows after 100000000 years"):
        cagr_value(1.0, 0.1, 100_000_000)


@pytest.mark.parametrize("years,count", [(10**16 - 1, "9999999999999999"), (10**16, "about 1e16"),
                                         (10**400, "about 1e400"), (10**5000, "about 1e5000")],
                         ids=["1e16-1", "1e16", "1e400", "1e5000"])
def test_cagr_overflow_names_a_count_past_1e16_by_its_size(years, count):
    # 10**5000 has more digits than int allows str to write
    with pytest.raises(OverflowError) as info:
        cagr_value(1.0, 0.5, years)
    assert str(info.value) == f"projection overflows after {count} years"


def test_doubling_project():
    assert doubling_project(1.0, 3.4, 12.0) == pytest.approx(
        math.exp(math.log(2.0) * 12.0 / 3.4), rel=1e-12
    )
    assert doubling_project(1.0, 3.4, 12.0) == pytest.approx(11.55, abs=0.01)
    assert doubling_project(7.5, 3.4, 0.0) == 7.5
    assert doubling_project(7.5, 3.4, 3.4) == 15.0
    rejected = ((1.0, 0.0, 12.0), (math.inf, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, -math.inf))
    for args in rejected:
        with pytest.raises(ValueError):
            doubling_project(*args)
    # the power overflows in the first two, the product in the last
    for args in ((1.0, 1.0, 3000.0), (1.0, 1e-300, 1.0), (1e300, 1.0, 1000.0)):
        with pytest.raises(OverflowError, match="projection overflows"):
            doubling_project(*args)


def test_projection_of_a_tiny_base_outweighs_an_overflowing_power():
    # the float power overflows, the product does not: 60-digit references
    with localcontext(prec=60):
        cases = ((cagr_value(1e-300, 0.1, 7500), Decimal(1e-300) * (1 + Decimal(0.1)) ** 7500),
                 (doubling_project(1e-300, 1.0, 1030.0), Decimal(1e-300) * Decimal(2) ** 1030))
        for got, exact in cases:
            assert abs(Decimal(got) - exact) <= Decimal("1e-12") * exact
    assert round(cases[0][0], -6) == 27_870_000_000 and round(cases[1][0], -6) == 11_505_000_000
    # the mirror: a large base outweighs a power that underflows to 0.0 or to
    # a subnormal with few digits left
    doublings = -824.4537129326167 / 0.7684820997130858
    with localcontext(prec=60):
        cases = ((cagr_value(1e300, -0.9, 400), Decimal(1e300) * (1 - Decimal(0.9)) ** 400),
                 (cagr_value(1e300, -0.9, 320), Decimal(1e300) * (1 - Decimal(0.9)) ** 320),
                 (doubling_project(1e300, 1.0, -1100.0), Decimal(1e300) * Decimal(2) ** -1100),
                 (doubling_project(4.574204648629793e+197, 0.7684820997130858, -824.4537129326167),
                  Decimal(4.574204648629793e+197) * Decimal(2) ** Decimal(doublings)))
        for got, exact in cases:
            assert abs(Decimal(got) - exact) <= Decimal("1e-12") * exact
    # a normal power keeps the plain product's bytes
    assert cagr_value(1e300, -0.9, 300) == 1e300 * (1.0 - 0.9) ** 300
    assert doubling_project(1e300, 1.0, -1000.0) == 1e300 * 2.0 ** -1000.0


# ---------------------------------------------------------------------------
# Equivalences
# ---------------------------------------------------------------------------

def test_equivalent_homes_quoted_factor():
    assert equivalent_homes(100.0) == 13.5e6
    assert equivalent_homes(0.0) == 0.0
    assert math.copysign(1.0, equivalent_homes(-0.0)) == 1.0
    assert equivalent_homes(126.0) == 17_010_000.0


def test_equivalent_homes_negative():
    with pytest.raises(ValueError, match="emissions must be >= 0"):
        equivalent_homes(-1.0)


def test_equivalent_homes_rejects_non_finite_and_overflow():
    for co2 in (math.inf, math.nan):
        with pytest.raises(ValueError):
            equivalent_homes(co2)
    with pytest.raises(OverflowError):
        equivalent_homes(1e305)


def test_equivalent_homes_linear_on_exact_inputs():
    # integer Mt values keep every product and sum exact in float64
    for a in (0.0, 1.0, 37.0, 126.0, 1024.0):
        for b in (0.0, 2.0, 99.0, 512.0):
            assert equivalent_homes(a + b) == equivalent_homes(a) + equivalent_homes(b)


# ---------------------------------------------------------------------------
# Inference energy
# ---------------------------------------------------------------------------

def test_inference_energy_values():
    assert inference_energy("image_generation", 1) == 2907.0
    assert inference_energy(InferenceTask.TEXT_GENERATION, 10) == 470.0
    assert inference_energy("summarization", 0) == 0.0
    assert inference_energy("Text-Classification", 3) == 6.0


def test_inference_energy_errors():
    with pytest.raises(ValueError, match="unknown task 'mind_reading'"):
        inference_energy("mind_reading", 1)
    with pytest.raises(ValueError, match="count must be >= 0"):
        inference_energy("text_generation", -1)
    with pytest.raises(OverflowError, match="inference energy overflows"):
        inference_energy("text_generation", 10**400)


def test_inference_table_sanity():
    table = bundled_inference_table()
    assert set(table.energies) == set(InferenceTask)
    assert all(table.energy(t) > 0 for t in InferenceTask)
    text_total = (
        table.energy(InferenceTask.TEXT_CLASSIFICATION)
        + table.energy(InferenceTask.TEXT_GENERATION)
        + table.energy(InferenceTask.SUMMARIZATION)
    )
    assert text_total < table.energy(InferenceTask.IMAGE_GENERATION)


_ALL_TASKS = dict.fromkeys(InferenceTask, 1.0)


@pytest.mark.parametrize("energies,reason", [
    ({t: 1.0 for t in list(InferenceTask)[1:]},
     r"must cover all tasks; missing \['text_classification'\]"),
    ({**_ALL_TASKS, InferenceTask.SUMMARIZATION: 0.0}, "energy for summarization must be > 0"),
    ({**_ALL_TASKS, InferenceTask.IMAGE_GENERATION: -2.0}, "energy for image_generation must be > 0"),
])
def test_inference_table_rejects_invalid_energies(energies, reason):
    with pytest.raises(ValueError, match=reason):
        InferenceEnergyTable(energies)
