import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emisim.core import AlignmentGroup, ScenarioFamily, Unit, align_scenarios
from emisim.errors import (
    EmisimError,
    FractionOutOfRangeError,
    NegativeInputError,
    SchemaError,
    UnknownTaskError,
)
from emisim.ingest import (
    InferenceTask,
    bundle_from_dict,
    bundle_to_json_text,
    bundled_ai_co2_bundle,
    bundled_data_text,
    bundled_driver_table,
    bundled_inference_table,
    cagr_project,
    csv_text,
    doubling_project,
    driver_table_to_csv_text,
    equivalent_homes,
    inference_energy,
    inference_table_to_csv_text,
    parse_driver_csv,
    parse_driver_csv_text,
    parse_inference_table_text,
    parse_matrix_csv_text,
    parse_series_csv,
    parse_series_csv_text,
    series_to_csv_text,
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
    with pytest.raises(FractionOutOfRangeError):
        parse_driver_csv_text(text)


def test_series_csv_parse_and_errors():
    series = parse_series_csv_text("year,value\n2020,1.5\n2021,2\n", Unit.TWH)
    assert series.points == ((2020, 1.5), (2021, 2.0))
    with pytest.raises(SchemaError):
        parse_series_csv_text("", Unit.TWH)
    with pytest.raises(SchemaError) as exc:
        parse_series_csv_text("year,val\n2020,1\n", Unit.TWH)
    assert exc.value.line == 1 and exc.value.column == 2


@pytest.mark.parametrize(
    "parse,text,line,column",
    [
        (parse_driver_csv_text,
         "\n" + DRIVER_HEADER + "\n2020,91,269,0.62,0.02,1.03\n\n\n2021,101,abc,0.59,0.03,2.07\n",
         6, 3),
        (parse_driver_csv_text, "\n\n" + DRIVER_HEADER + "\n\n", 4, 1),
        (parse_driver_csv_text, DRIVER_HEADER + "\n\n2020,91,269\n", 3, 3),
        (lambda text: parse_series_csv_text(text, Unit.TWH), "year,value\n\n2020,1\n\n2021,x\n", 5, 2),
        (lambda text: parse_series_csv_text(text, Unit.TWH), "\nyear,val\n2020,1\n", 2, 2),
        (lambda text: parse_series_csv_text(text, Unit.TWH), "\n\nyear,value\n2021,1\n2020,2\n", 5, 2),
        (lambda text: parse_series_csv_text(text, Unit.FRACTION), "year,value\n\n2020,1.5\n", 3, 2),
        (parse_inference_table_text,
         "task,energy_wh\n\ntext_generation,47\n\n\nsummarization,-\n", 6, 2),
        (parse_inference_table_text, "task,energy_wh\n\n", 2, 1),
        (parse_matrix_csv_text, "2020,2021\n1,2\n\n3,x\n", 4, 2),
        (parse_matrix_csv_text, "\n2020,2021\n1,2\n\n3\n4,5\n", 5, 1),
        (parse_matrix_csv_text, "\n2020,20x1\n1,2\n", 2, 2),
        (parse_matrix_csv_text, "\n2020,2021\n\n", 3, 1),
        # the csv module's own errors: a bare CR inside a line, an oversized cell
        (parse_driver_csv_text, DRIVER_HEADER + "\n\n2020,91\r,269,0.62,0.02,1.03\n", 3, 1),
        (lambda text: parse_series_csv_text(text, Unit.TWH), "year,value\n2020,1\r2021,2\n", 2, 1),
        (parse_inference_table_text, "task,energy_wh\n\n" + "x" * 131_073 + ",1\n", 3, 1),
    ],
)
def test_parse_errors_count_blank_lines(parse, text, line, column):
    with pytest.raises(SchemaError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (line, column)


_TEXT_PARSERS = [
    parse_driver_csv_text,
    lambda text: parse_series_csv_text(text, Unit.TWH),
    parse_inference_table_text,
    parse_matrix_csv_text,
]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["", DRIVER_HEADER + "\n", "year,value\n", "task,energy_wh\n", "2020,2021\n"]),
    st.text(st.sampled_from(list("0123456789,.-+eEinfax_ \t\r\n\"")) | st.characters(),
            max_size=150),
)
@example("year,value\n", "2020,1\r2021,2\n")
@example(DRIVER_HEADER + "\n", "2020," + "9" * 131_073 + ",1,1,1,1\n")
def test_text_parsers_raise_only_emisim_or_value_errors(header, body):
    # the CLI ends either with exit 2 and one line; anything else is a traceback
    for parse in _TEXT_PARSERS:
        try:
            parse(header + body)
        except (EmisimError, ValueError):
            pass


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


def test_driver_json_alternative(tmp_path):
    rows = [
        dict(zip(DRIVER_HEADER.split(","), (2020, 91, 269, 0.62, 0.02, 1.03))),
        dict(zip(DRIVER_HEADER.split(","), (2021, 101, 300, 0.59, 0.03, 2.07))),
    ]
    path = tmp_path / "drivers.json"
    path.write_text(json.dumps({"rows": rows}))
    table = parse_driver_csv(path)
    assert table.years == (2020, 2021)


def test_series_json_alternative(tmp_path):
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"unit": "MtCO2", "points": [[2020, 1.0], [2021, 2.0]]}))
    series = parse_series_csv(path, Unit.TWH)
    assert series.unit is Unit.MT_CO2
    assert series.points == ((2020, 1.0), (2021, 2.0))


# ---------------------------------------------------------------------------
# Round trips on bundled data
# ---------------------------------------------------------------------------

def test_driver_table_roundtrip_byte_exact():
    raw = bundled_data_text("table2.csv")
    assert driver_table_to_csv_text(parse_driver_csv_text(raw)) == raw


def test_inference_table_roundtrip_byte_exact():
    raw = bundled_data_text("inference_energy.csv")
    table = bundled_inference_table()
    assert inference_table_to_csv_text(table) == raw


def test_bundle_roundtrip_byte_exact():
    raw = bundled_data_text("ai_co2_scenarios.json")
    assert bundle_to_json_text(bundle_from_dict(json.loads(raw))) == raw


def test_series_csv_roundtrip():
    text = "year,value\n2020,1.5\n2021,2\n2022,482.5\n"
    assert series_to_csv_text(parse_series_csv_text(text, Unit.TWH)) == text


# ---------------------------------------------------------------------------
# Bundled scenario trajectories
# ---------------------------------------------------------------------------

def test_bundled_scenarios_align_and_cover_2020_2035():
    bundle = bundled_ai_co2_bundle()
    assert sorted(bundle.names()) == [
        "Abundance Without Boundaries",
        "Energy Crisis",
        "Limits To Growth",
        "Sustainable AI",
    ]
    aligned = align_scenarios(list(bundle.trajectories))
    groups = {t.name: t.alignment for t in aligned}
    assert groups["Energy Crisis"] is AlignmentGroup.BASELINE_CRISIS
    assert groups["Abundance Without Boundaries"] is AlignmentGroup.SURGE
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
    for base, rate, years in ((1.0, 0.1, 100_000), (1e300, 1.0, 100)):
        with pytest.raises(OverflowError):
            cagr_project(base, rate, years)


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
    for args in ((1.0, 1.0, 3000.0), (1e300, 1.0, 1000.0)):
        with pytest.raises(OverflowError):
            doubling_project(*args)


# ---------------------------------------------------------------------------
# Equivalences
# ---------------------------------------------------------------------------

def test_equivalent_homes_quoted_factor():
    assert equivalent_homes(100.0) == 13.5e6
    assert equivalent_homes(0.0) == 0.0
    assert equivalent_homes(126.0) == 17_010_000.0


def test_equivalent_homes_negative():
    with pytest.raises(NegativeInputError):
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
    with pytest.raises(UnknownTaskError):
        inference_energy("mind_reading", 1)
    with pytest.raises(NegativeInputError):
        inference_energy("text_generation", -1)


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
