"""CSV loading, column selection, summaries, and standardization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcageom.errors import DataError
from pcageom.ingest import (
    MAX_COLUMNS,
    ddof_for,
    load_csv,
    parse_column_spec,
    standardize,
    summarize,
)

from conftest import REF_IRIS_MEANS


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


BASIC = "1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,9.0\n10.0,11.0,12.0\n"


def test_parse_column_spec_indices_and_ranges():
    assert parse_column_spec("1-4") == [1, 2, 3, 4]
    assert parse_column_spec("2") == [2]
    assert parse_column_spec("1,3-4") == [1, 3, 4]


def test_parse_column_spec_names_pass_through():
    assert parse_column_spec("Sepal Length,Petal Width") == ["Sepal Length", "Petal Width"]
    # a dashed token with non-numeric halves is a name, not a range
    assert parse_column_spec("a-b") == ["a-b"]


def test_parse_column_spec_rejects_garbage():
    with pytest.raises(DataError, match="backwards"):
        parse_column_spec("4-1")
    with pytest.raises(DataError, match="empty"):
        parse_column_spec(",,")


def test_parse_column_spec_takes_only_ascii_digits_as_indices():
    # superscripts and other non-ASCII digits are names, not indices
    assert parse_column_spec("²") == ["²"]
    assert parse_column_spec("1-²") == ["1-²"]
    assert parse_column_spec("\u0663") == ["\u0663"]
    assert parse_column_spec("007") == [7]


def test_parse_column_spec_bounds_indices():
    assert parse_column_spec(f"{MAX_COLUMNS - 1}-{MAX_COLUMNS}") == [MAX_COLUMNS - 1, MAX_COLUMNS]
    for spec in (str(MAX_COLUMNS + 1), "1-99999999999", "9" * 5000):
        with pytest.raises(DataError, match="exceeds"):
            parse_column_spec(spec)


@settings(max_examples=300, deadline=None)
@given(st.text())
@example("²")
@example("1-²")
@example("3-1")
@example("1-99999999999")
def test_parse_column_spec_parses_or_raises_data_error(spec):
    try:
        out = parse_column_spec(spec)
    except DataError:
        return
    assert out and all(isinstance(t, str) or 0 <= t <= MAX_COLUMNS for t in out)


def test_ddof_for():
    assert ddof_for("population") == 0
    assert ddof_for("sample") == 1
    with pytest.raises(ValueError):
        ddof_for("bessel")


def test_load_csv_basic(tmp_path):
    data = load_csv(write_csv(tmp_path, BASIC))
    assert data.n_rows == 4 and data.n_cols == 3
    assert data.column_names == ["col1", "col2", "col3"]
    assert data.labels is None
    np.testing.assert_array_equal(data.values[0], [1.0, 2.0, 3.0])


def test_load_csv_header_and_name_selection(tmp_path):
    p = write_csv(tmp_path, "a,b,c\n" + BASIC)
    data = load_csv(p, columns=["c", "a"], header=True)
    assert data.column_names == ["c", "a"]
    np.testing.assert_array_equal(data.values[:, 0], [3.0, 6.0, 9.0, 12.0])


def test_load_csv_label_column(tmp_path):
    p = write_csv(tmp_path, "id,x,y\nr1,1,2\nr2,3,4\nr3,5,6\n")
    data = load_csv(p, label_column="id", header=True)
    assert data.labels == ["r1", "r2", "r3"]
    assert data.column_names == ["x", "y"]
    with pytest.raises(DataError, match="both data and label"):
        load_csv(p, columns=["id", "x"], label_column="id", header=True)


def test_load_csv_errors_carry_row_and_column(tmp_path):
    p = write_csv(tmp_path, "a,b\n1,2\n3,oops\n5,6\n")
    with pytest.raises(DataError, match=r"row 3, column 'b'"):
        load_csv(p, header=True)
    p = write_csv(tmp_path, "a,b\n1,2\n3,\n5,6\n", name="gap.csv")
    with pytest.raises(DataError, match=r"missing value at row 3"):
        load_csv(p, header=True)


def test_load_csv_shape_errors(tmp_path):
    with pytest.raises(DataError, match="at least 3 data rows"):
        load_csv(write_csv(tmp_path, "1,2\n3,4\n"))
    with pytest.raises(DataError, match="at least 2 numeric columns"):
        load_csv(write_csv(tmp_path, BASIC), columns=[1])
    with pytest.raises(DataError, match="row 2 has 2 fields"):
        load_csv(write_csv(tmp_path, "1,2,3\n4,5\n6,7,8\n"))
    with pytest.raises(DataError, match="selected twice"):
        load_csv(write_csv(tmp_path, BASIC), columns=[1, 1])
    with pytest.raises(DataError, match="no column named"):
        load_csv(write_csv(tmp_path, BASIC), columns=["nope"])
    with pytest.raises(DataError, match="out of range"):
        load_csv(write_csv(tmp_path, BASIC), columns=[1, 9])
    with pytest.raises(DataError, match="cannot read"):
        load_csv(tmp_path / "absent.csv")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400", " NaN ", "-1E999"])
def test_load_csv_rejects_non_finite_cells(tmp_path, cell):
    p = write_csv(tmp_path, f"1,2\n3,{cell}\n5,6\n7,8\n")
    with pytest.raises(DataError, match=rf"non-finite value '{cell.strip()}' at row 2, column 'col2'"):
        load_csv(p)


def test_load_csv_rejects_non_utf8(tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"a,b\n1,2\n3,\xe4\n5,6\n")
    with pytest.raises(DataError, match=r"latin1\.csv is not valid UTF-8"):
        load_csv(p, header=True)


def test_load_csv_rejects_a_field_past_the_csv_limit(tmp_path):
    p = write_csv(tmp_path, "1,2\n3," + "4" * 200_000 + "\n5,6\n")
    with pytest.raises(DataError, match="not valid CSV"):
        load_csv(p)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=200), st.text(max_size=200),
                 st.lists(st.lists(st.sampled_from(["1", "2.5", "-3", "nan", "inf", "1e400",
                                                     "", " ", "x", "²", '"4"']),
                                   min_size=1, max_size=4), max_size=6)
                 .map(lambda rows: "\n".join(",".join(r) for r in rows))),
       st.booleans())
@example(b"a,b\n1,2\n3,\xe4\n5,6\n", True)
@example("1,2\n3,nan\n5,6\n7,8\n", False)
@example("1,2\n3,1e400\n5,6\n7,8\n", False)
@example(BASIC, False)
def test_load_csv_loads_or_raises_data_error(tmp_path_factory, content, header):
    p = tmp_path_factory.getbasetemp() / "data.csv"
    p.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    try:
        data = load_csv(p, header=header)
    except DataError:
        return
    assert data.n_rows >= 3 and data.n_cols >= 2 and np.all(np.isfinite(data.values))


def test_summarize_matches_numpy(tmp_path):
    data = load_csv(write_csv(tmp_path, BASIC))
    for divisor, ddof in (("population", 0), ("sample", 1)):
        for j, s in enumerate(summarize(data, divisor)):
            col = data.values[:, j]
            assert s.mean == pytest.approx(col.mean(), abs=1e-15)
            assert s.variance == pytest.approx(col.var(ddof=ddof), abs=1e-15)
            assert s.std == pytest.approx(col.std(ddof=ddof), abs=1e-15)
            assert s.n == 4 and s.divisor == divisor


def test_standardize_centers_and_scales(iris_standardized):
    z = iris_standardized.values
    assert np.abs(z.mean(axis=0)).max() < 1e-10
    assert np.abs(z.var(axis=0) - 1.0).max() < 1e-10


def test_standardize_sample_divisor(iris_raw):
    z = standardize(iris_raw, "sample").values
    assert np.abs(z.var(axis=0, ddof=1) - 1.0).max() < 1e-10


def test_standardize_rejects_constant_column(tmp_path):
    p = write_csv(tmp_path, "1,5\n2,5\n3,5\n")
    with pytest.raises(DataError, match="zero variance"):
        standardize(load_csv(p))


def test_loading_is_deterministic(tmp_path):
    p = write_csv(tmp_path, BASIC)
    a, b = load_csv(p), load_csv(p)
    assert np.array_equal(a.values, b.values)
    assert a.column_names == b.column_names


def test_iris_fixture_shape_and_means(iris_raw):
    assert iris_raw.n_rows == 150 and iris_raw.n_cols == 4
    np.testing.assert_allclose(iris_raw.values.mean(axis=0), REF_IRIS_MEANS, atol=1e-12)
