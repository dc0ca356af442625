"""CSV loading, column selection, summaries, and standardization."""

import ast
import bz2
import csv
import gzip
import lzma
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from pcageom import ingest
from pcageom.errors import DataError
from pcageom.ingest import (
    MAX_COLUMNS,
    DataMatrix,
    ddof_for,
    load_csv,
    parse_column_spec,
    standardize,
    summarize,
)

from conftest import REF_IRIS_MEANS, offset_columns
from oracles import expression_standardize, handle_load_csv, reference_load_csv


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
    np.testing.assert_array_equal(data.values[0], [1.0, 2.0, 3.0])


def test_load_csv_header_and_name_selection(tmp_path):
    p = write_csv(tmp_path, "a,b,c\n" + BASIC)
    data = load_csv(p, columns=["c", "a"], header=True)
    assert data.column_names == ["c", "a"]
    np.testing.assert_array_equal(data.values[:, 0], [3.0, 6.0, 9.0, 12.0])


def test_load_csv_label_column(tmp_path):
    p = write_csv(tmp_path, "id,x,y\nr1,1,2\nr2,3,4\nr3,5,6\n")
    data = load_csv(p, label_column="id", header=True)
    assert data.column_names == ["x", "y"]
    np.testing.assert_array_equal(data.values, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
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
    p.write_bytes(b"\xef")  # the first byte of a byte-order mark, and nothing else
    with pytest.raises(DataError, match="not valid UTF-8: unexpected end of data"):
        load_csv(p)


def test_load_csv_rejects_a_field_past_the_csv_limit(tmp_path):
    p = write_csv(tmp_path, "1,2\n3," + "4" * 200_000 + "\n5,6\n")
    with pytest.raises(DataError, match="not valid CSV"):
        load_csv(p)


def test_a_long_cell_that_is_not_data_hides_no_fault(tmp_path):
    limit = csv.field_size_limit()
    label = "r" * 200_000
    p = write_csv(tmp_path, f"id,a,b\nr1,1,2\n{label},3,4\nr3,oops,7\n")
    with pytest.raises(DataError, match=r"non-numeric value 'oops' at row 4, column 'a'$"):
        load_csv(p, label_column="id", header=True)
    # the first row is read under the csv module's limit either way
    p = write_csv(tmp_path, f"id,{label}\nr1,1\nr2,3\nr3,5\n", name="head.csv")
    with pytest.raises(DataError, match=r"field larger than field limit \(131072\) in row 1$"):
        load_csv(p, header=True)
    assert csv.field_size_limit() == limit


def test_load_csv_reads_a_finite_number_past_the_csv_limit(tmp_path):
    # NumPy's parser has no field limit; the csv module's 131,072 applies
    # only to the first row, the one row it reads, label cells included
    long = "0." + "0" * 200_000 + "1"
    p = write_csv(tmp_path, f"id,a,b\nr1,1,2\nr2,3,{long}\nr3,5,7\n")
    data = load_csv(p, columns=["a", "b"], header=True)
    assert data.values[1, 1] == float(long) == 0.0
    data = load_csv(p, label_column="id", header=True)
    assert data.values[1, 1] == 0.0 and data.column_names == ["a", "b"]
    label = "r" * 200_000
    p = write_csv(tmp_path, f"id,a,b\nr1,1,2\n{label},3,4\nr3,5,7\n", name="label.csv")
    data = load_csv(p, label_column="id", header=True)
    assert data.column_names == ["a", "b"]
    np.testing.assert_array_equal(data.values, [[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])


def test_load_csv_skips_a_utf8_byte_order_mark(tmp_path):
    p = tmp_path / "excel.csv"
    p.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n3,4\n5,7\n")
    data = load_csv(p, columns=["a", "b"], header=True)
    assert data.column_names == ["a", "b"]
    p.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n5,7\n")
    np.testing.assert_array_equal(load_csv(p).values[:, 0], [1.0, 3.0, 5.0])


@pytest.mark.parametrize("cell", ["1_0", "\u0661", "\u0661.5"])
def test_load_csv_rejects_what_only_float_reads(tmp_path, cell):
    p = write_csv(tmp_path, f"1,2\n3,{cell}\n5,7\n")
    assert reference_load_csv(p).values[1, 1] == float(cell)
    with pytest.raises(DataError, match=rf"non-numeric value '{cell}' at row 2, column 'col2'"):
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


BOM = "\ufeff".encode("utf-8")
NUMBERS = ["1", "2.5", "-3", " 4 ", "1e5", ".5", "7.", '"8"', "+9", "\u00a07"]
ODD = ["nan", "inf", "1e400", "", " ", "x", "#", "#1", '"1,5"', '"a""b"', "1_0", "\u0661",
       "\u0661.5"]
NAMES = ["a", "b", " c ", '"a"', "col1", ""]


@st.composite
def csv_files(draw):
    """Mostly rectangular files of numbers, with odd cells, ragged and
    blank lines, an optional name row and a byte-order mark mixed in."""
    width = draw(st.integers(1, 4))
    cell = st.sampled_from(NUMBERS * 8 + ODD)
    row = st.lists(cell, min_size=width, max_size=width)
    if draw(st.integers(0, 3)):
        rows = draw(st.lists(row, min_size=3, max_size=7))
    else:
        rows = draw(st.lists(row | st.lists(cell, max_size=5), max_size=7))
    if draw(st.booleans()):
        rows.insert(0, draw(st.lists(st.sampled_from(NAMES), min_size=width, max_size=width)))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(",".join(row) for row in rows) + draw(st.sampled_from(["", end]))
    return (BOM if draw(st.booleans()) else b"") + text.encode("utf-8")


def _outcome(load, path, **kwargs):
    try:
        return load(path, **kwargs)
    except DataError as exc:
        return str(exc)


def _only_float_reads(new, ref):
    """Whether ``new`` rejects a cell that ``float`` reads but NumPy does
    not, while ``ref`` loaded or also stopped at a cell."""
    m = re.fullmatch(r"ingest: non-numeric value ('.*') at row \d+, column '.*'", new, re.S)
    if m is None or isinstance(ref, str) and not re.search(r" value.* at row \d+, column ", ref):
        return False
    cell = ast.literal_eval(m[1])
    float(cell)  # raises unless float reads the cell
    return not cell.isascii() or "_" in cell


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.binary(max_size=120), st.text(max_size=120).map(str.encode), csv_files()),
       st.booleans(),
       st.none() | st.lists(st.sampled_from([1, 2, 3, 5, "a", "b", "col1", "col2"]),
                            min_size=1, max_size=3),
       st.none() | st.sampled_from([1, 3, "a", "col3"]))
@example(b"1,2\n3,4\n5,6,7\n8,9\n", False, [1, 2], None)
@example(b"a,b\n1,2\n\n3,4\n5,6\n", True, None, None)
@example(b"a,b\n1,2\n \n3,4\n5,6\n", True, None, None)
@example(b"1,2\n3,#\n5,6\n", False, None, None)
@example(b'1,"2"\n3,"4"\n5,"6"\n', False, None, None)
@example(b"a,b\r\n1,2\r\n3,4\r\n5,6\r\n", True, None, None)
@example(b"id,x,y\nr1,1,2\nr2,3,4\nr3,5,7\n", True, None, "id")
@example(b'id,x,y\n"r,1",1,2\nr2,3,4\nr3,5,7\n', True, None, "id")
@example(b'x,id,y\n1,"a""b",2\n3,r2,4\n5,r3,7\n', True, None, "id")
@example(b'1,2,"r\n1"\n3,4,r2\n5,7,r3\n', False, None, 3)
@example(b"1,r1,2\n3, r2 ,4\n5,r3,7\n", False, [1, 3], 2)
@example(BOM + b"a,b\n1,2\n3,4\n5,7\n", True, ["a"], None)
@example(b'\n"a\nb",c\n1,2\n3,4\n5,7\n', True, None, None)
@example(b"a,b\n\n", True, None, None)
@example(b"\xef", False, None, None)
def test_load_csv_matches_the_float_loop(tmp_path_factory, content, header, columns, label):
    """NumPy's parser gives the values, names and errors of the
    cell-by-cell loop it replaced, except for the documented cases: a
    byte-order mark is not part of the first cell, and cells only
    ``float`` reads (``1_0``, non-ASCII digits) are non-numeric."""
    p = tmp_path_factory.getbasetemp() / "diff.csv"
    kwargs = dict(columns=columns, label_column=label, header=header)
    p.write_bytes(content.removeprefix(BOM))
    ref = _outcome(reference_load_csv, p, **kwargs)
    p.write_bytes(content)
    new = _outcome(load_csv, p, **kwargs)
    if isinstance(new, str):
        assert new == ref or _only_float_reads(new, ref), (new, ref)
        return
    assert not isinstance(ref, str), ref
    assert new.values.dtype == ref.values.dtype and new.values.shape == ref.values.shape
    assert new.values.tobytes() == ref.values.tobytes()
    assert new.column_names == ref.column_names


@pytest.mark.parametrize("name", ["data.csv.gz", "data.csv.bz2", "data.xz", "data.csv.LZMA",
                                  "data.GZ"])
def test_load_csv_refuses_compressed_names_before_reading(tmp_path, name):
    suffix = name[name.rindex("."):]
    match = rf"has the compressed-file suffix '\{suffix}'; decompress it first"
    with pytest.raises(DataError, match=match):
        load_csv(tmp_path / name)  # absent: nothing is opened
    p = write_csv(tmp_path, "a,b\n" + BASIC, name=name)  # plain text NumPy would decompress
    with pytest.raises(DataError, match=match):
        load_csv(p, header=True)


@pytest.mark.parametrize("suffix, compress", [(".gz", gzip.compress), (".bz2", bz2.compress),
                                              (".xz", lzma.compress)])
def test_load_csv_refuses_a_compressed_file(tmp_path, suffix, compress):
    p = tmp_path / f"data.csv{suffix}"
    p.write_bytes(compress(BASIC.encode("utf-8")))
    with pytest.raises(DataError, match=rf"data\.csv\{suffix} has the compressed-file suffix"):
        load_csv(p)


NUMERIC = ["1", "-2.5", "1e3", ".5", '"3"', '" 4 "', '"5\n"', '"6\r\n"']
ODD_NUMERIC = ["nan", "inf", "", " ", "x"]
LABELS = ["r1", " r2 ", '"r,3"', '"r\n4"', '"r\r\n5"', '"r\r6"', '""', '"a""b"']
HEADERS = ["a", "b", '"a,b"', '"h\nc"', '"h\r\nd"', '"h\re"']


@st.composite
def loader_cases(draw):
    """A file of numbers with an optional column of text labels, and the
    arguments to load it with: quoted cells, line breaks of every kind
    inside and between rows, blank lines, ragged rows, odd cells."""
    n_data = draw(st.integers(2, 4))
    label_at = draw(st.none() | st.integers(0, n_data))
    width = n_data + (label_at is not None)
    header = draw(st.booleans())
    cell = st.sampled_from(NUMERIC * 20 + ODD_NUMERIC)
    lines = []
    if header:
        names = draw(st.lists(st.sampled_from(HEADERS), min_size=width, max_size=width,
                              unique=True))
        if label_at is not None:
            names[label_at] = "lab"
        lines.append(names)
    for _ in range(draw(st.integers(2, 6))):
        row = draw(st.lists(cell, min_size=width, max_size=width))
        if label_at is not None:
            row[label_at] = draw(st.sampled_from(LABELS))
        lines.append(row)
    if not draw(st.integers(0, 7)):  # one ragged row
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = lines[at][:-1] if draw(st.booleans()) else [*lines[at], "1"]
    lines = [",".join(row) for row in lines]
    for _ in range(draw(st.integers(0, 2))):  # blank lines, before the header too
        lines.insert(draw(st.integers(0, len(lines))), "")
    end = st.sampled_from(["\n", "\r\n", "\r"])
    if draw(st.booleans()):
        ends = draw(st.lists(end, min_size=len(lines), max_size=len(lines)))
    else:
        ends = [draw(end)] * len(lines)
    text = "".join(line + e for line, e in zip(lines, ends))
    if draw(st.booleans()):  # no final line break
        text = text[:-len(ends[-1])]
    content = (BOM if draw(st.booleans()) else b"") + text.encode("utf-8")

    label = None if label_at is None else draw(st.sampled_from([label_at + 1, "lab"][:header + 1]))
    data = [i + 1 for i in range(width) if i != label_at]
    columns = draw(st.sampled_from([None] * 3 + [data, data[::-1], data[:1], [*data, data[0]]]))
    return content, header, columns, label


@settings(max_examples=400, deadline=None)
@given(loader_cases())
@example((b'1,2,"r\r\n1"\r\n3,4,r2\r\n5,7,r3\r\n', False, None, 3))
@example((b'1,2,"r\r1"\r3,4,r2\r5,7,r3\r', False, None, 3))
@example((b'\r\na,"h\r\nd",lab\r\n\r\n1,2,r1\r\n3,4,r2\r\n5,7,r3', True, None, "lab"))
@example((BOM + b'a,b\r1,"2"\r3," 4 "\r\r5,"6\n"', True, None, None))
def test_load_csv_matches_the_handle_loader(tmp_path_factory, case):
    """Reading the path gives the values, names and errors that reading
    the open handle gave, line breaks inside quoted cells included."""
    content, header, columns, label = case
    p = tmp_path_factory.getbasetemp() / "handle.csv"
    p.write_bytes(content)
    kwargs = dict(columns=columns, label_column=label, header=header)
    old, new = _outcome(handle_load_csv, p, **kwargs), _outcome(load_csv, p, **kwargs)
    if isinstance(old, str) or isinstance(new, str):
        assert new == old
        return
    assert new.values.dtype == old.values.dtype and new.values.shape == old.values.shape
    assert new.values.tobytes() == old.values.tobytes()
    assert new.column_names == old.column_names


def test_summarize_matches_numpy(tmp_path):
    # a per-column loop of 1-D reductions is the reference, bit for bit
    rng = np.random.default_rng(11)
    tall = rng.standard_normal((10_000, 24)) * rng.uniform(0.1, 100.0, 24) + rng.uniform(-50.0, 50.0, 24)
    for data in (
        load_csv(write_csv(tmp_path, BASIC)),
        DataMatrix(values=tall, column_names=[f"v{j}" for j in range(24)]),
    ):
        for divisor, ddof in (("population", 0), ("sample", 1)):
            z = standardize(data, divisor).values
            for j, s in enumerate(summarize(data, divisor)):
                col = data.values[:, j]
                var = float(np.var(col, ddof=ddof))
                assert (s.mean, s.variance, s.std) == (float(np.mean(col)), var, float(np.sqrt(var)))
                assert z[:, j].tobytes() == ((col - s.mean) / s.std).tobytes()


def summary_fields(summaries):
    return [s.name for s in summaries], np.array(
        [[s.mean, s.std, s.variance] for s in summaries]).tobytes()


@pytest.mark.parametrize("divisor", ["population", "sample"])
@pytest.mark.parametrize("rows, n_cols", [
    (1000, ingest._BLOCK // 1000 - 1), (1000, ingest._BLOCK // 1000),
    (1000, ingest._BLOCK // 1000 + 1), (1000, 3 * (ingest._BLOCK // 1000) + 1),
    (ingest._BLOCK + 1, 3),  # a column longer than a block is a block of its own
])
def test_blocked_summaries_are_the_one_copy_summaries(rows, n_cols, divisor):
    # columns far from zero, so that any change in summation order moves bits
    rng = np.random.default_rng(rows + n_cols)
    values = (rng.standard_normal((rows, n_cols)) * rng.uniform(0.1, 100.0, n_cols)
              + rng.uniform(-1e6, 1e6, n_cols))
    data = DataMatrix(values=values, column_names=[f"v{j}" for j in range(n_cols)])
    got = summarize(data, divisor)
    assert summary_fields(got) == summary_fields(oracles.one_copy_summarize(data, divisor))


def test_summarize_copies_one_block_of_columns_at_a_time():
    values = np.random.default_rng(2).standard_normal((10_000, 24))
    data = DataMatrix(values=values, column_names=[f"v{j}" for j in range(24)])
    summarize(data)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        summarize(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a block is alive until the next one is copied
    block = (ingest._BLOCK // 10_000) * 10_000 * 8
    assert block <= values.nbytes / 8 and peak < 2.5 * block, f"peak {peak} B for blocks of {block} B"


@settings(max_examples=300, deadline=None)
@given(offset_columns(), st.sampled_from(["population", "sample"]))
@example(np.array([[-0.0, 1.0], [-0.0, 2.0], [-0.0, 4.0]]), "population")
@example(np.array([[1e8, -0.0], [1e8 + 1.0, 0.0], [1e8 + 3.0, -0.0]]), "sample")
def test_standardize_matches_the_expression_bitwise(values, divisor):
    """Dividing the centered copy in place gives the bits of the one
    expression it replaced, and the same zero-variance error."""
    data = DataMatrix(values=values, column_names=[f"v{j}" for j in range(values.shape[1])])
    try:
        expected = expression_standardize(data, divisor)
    except DataError as exc:
        with pytest.raises(DataError, match=re.escape(str(exc))):
            standardize(data, divisor)
        return
    z = standardize(data, divisor).values
    assert z.dtype == expected.dtype and z.tobytes() == expected.tobytes()


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
    p = write_csv(tmp_path, "a,b,c,d\n1,5,7,9\n2,5,7,8\n3,5,7,7\n", "two.csv")
    with pytest.raises(DataError, match="column 'b' has zero variance"):
        standardize(load_csv(p, header=True))
    # three cells of 0.1 have an inexact mean and a std of 1.4e-17, not 0
    p = write_csv(tmp_path, "a,b\n1,0.1\n2,0.1\n3,0.1\n", "tenths.csv")
    with pytest.raises(DataError, match="column 'b' has zero variance"):
        standardize(load_csv(p, header=True))


def test_loading_is_deterministic(tmp_path):
    p = write_csv(tmp_path, BASIC)
    a, b = load_csv(p), load_csv(p)
    assert np.array_equal(a.values, b.values)
    assert a.column_names == b.column_names


def test_iris_fixture_shape_and_means(iris_raw):
    assert iris_raw.n_rows == 150 and iris_raw.n_cols == 4
    np.testing.assert_allclose(iris_raw.values.mean(axis=0), REF_IRIS_MEANS, atol=1e-12)
