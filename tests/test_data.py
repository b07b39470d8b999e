import csv
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import ColumnRole, DataError, Dataset, SchemaError, load_csv, parse_schema, save_csv, split, validate
from fairaudit import data as data_module
from fairaudit.data import IGNORED, NUMERIC, READ_CHUNK_ROWS, WRITE_CHUNK_ROWS
from fairaudit.rng import CounterRng

from conftest import binary_dataset, check_guard

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
SCHEMA = {
    "x": {"role": "numeric"},
    "s": {"role": "sensitive", "protected": "0"},
    "y": {"role": "decision", "positive": "1"},
}


def write_csv(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_four_rows(tmp_path):
    path = write_csv(tmp_path, "x,s,y\n1.5,0,1\n2.0,1,0\n-3,0,1\n0.25,1,1\n")
    d = load_csv(path, SCHEMA)
    assert d.n == 4
    assert d.schema["x"].kind == "numeric"
    assert d.values("x").tolist() == [1.5, 2.0, -3.0, 0.25]
    assert d.protected_mask().tolist() == [True, False, True, False]
    assert d.positive_decision_mask().tolist() == [True, False, True, True]


def test_load_csv_schema_mismatch(tmp_path):
    path = write_csv(tmp_path, "x,s,y\n1,0,1\n2,1,0\n")
    bad = dict(SCHEMA)
    bad["z"] = {"role": "numeric"}
    with pytest.raises(SchemaError):
        load_csv(path, bad)


def test_load_csv_three_valued_sensitive(tmp_path):
    path = write_csv(tmp_path, "x,s,y\n1,0,1\n2,1,0\n3,2,1\n")
    with pytest.raises(DataError, match="binary"):
        load_csv(path, SCHEMA)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        load_csv(tmp_path / "absent.csv", SCHEMA)


def test_load_csv_bad_numeric_reports_position(tmp_path):
    path = write_csv(tmp_path, "x,s,y\n1,0,1\noops,1,0\n")
    with pytest.raises(DataError, match=r"row 3.*'x'"):
        load_csv(path, SCHEMA)


def test_load_csv_missing_sensitive_rejected(tmp_path):
    path = write_csv(tmp_path, "x,s,y\n1,0,1\n2,,0\n")
    with pytest.raises(DataError, match="missing"):
        load_csv(path, SCHEMA)


def test_load_csv_undeclared_column_ignored(tmp_path):
    path = write_csv(tmp_path, "x,s,y,note\n1,0,1,hello\n2,1,0,there\n")
    d = load_csv(path, SCHEMA)
    assert d.schema["note"].kind == "ignored"


def test_load_csv_quoted_fields(tmp_path):
    path = write_csv(tmp_path, 'x,s,y\n1,"group, a",1\n2,"group, b",0\n')
    d = load_csv(path, {"x": "numeric", "s": {"role": "sensitive", "protected": "group, a"},
                        "y": {"role": "decision", "positive": "1"}})
    assert d.values("s").tolist() == ["group, a", "group, b"]


def test_declared_modality_must_be_observed():
    with pytest.raises(DataError, match="not among observed"):
        Dataset(
            {"s": ColumnRole("sensitive", protected="Z"), "y": ColumnRole("decision", positive="1")},
            {"s": ["a", "b"], "y": ["1", "0"]},
        )


def test_exactly_one_sensitive_column():
    with pytest.raises(SchemaError, match="sensitive"):
        Dataset({"x": ColumnRole("numeric")}, {"x": [1.0, 2.0]})


def test_round_trip_is_idempotent(tmp_path):
    path = write_csv(tmp_path, "x,s,y\n1.25,0,1\n,1,0\n-0.75,0,1\n3e-7,1,1\n")
    d1 = load_csv(path, SCHEMA)
    out = tmp_path / "out.csv"
    save_csv(d1, out)
    d2 = load_csv(out, SCHEMA)
    assert d1 == d2
    # and a second round trip is byte-stable
    out2 = tmp_path / "out2.csv"
    save_csv(d2, out2)
    assert out.read_text() == out2.read_text()


def save_csv_reference(d, path):
    """The per-row writer that save_csv replaced, kept as its byte-level oracle."""
    names = list(d.schema)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        cols = [d.values(n) for n in names]
        numeric = [d.schema[n].kind == "numeric" for n in names]
        for i in range(d.n):
            row = []
            for col, is_num in zip(cols, numeric):
                v = col[i]
                if is_num:
                    row.append("" if np.isnan(v) else repr(float(v)))
                else:
                    row.append(str(v))
            writer.writerow(row)


def test_save_csv_bytes_match_per_row_reference(tmp_path):
    n = 2 * WRITE_CHUNK_ROWS + 123  # three chunks, the last one short
    rng = CounterRng(5)
    x = rng.normals(n) * 10.0 ** np.floor(rng.uniforms(n) * 40 - 20)
    x[rng.uniforms(n) < 0.1] = np.nan
    x[:5] = [-0.0, np.inf, -np.inf, 5e-324, 0.1 + 0.2]
    texts = np.array(["plain", "a,b", 'say "hi"', "two\nlines", "cr\rlf\r\n", "café ☕ 東京", "",
                      " pad "])
    pick = (rng.uniforms(n) * len(texts)).astype(int)
    d = Dataset(
        {
            "x": ColumnRole("numeric"),
            "c": ColumnRole("categorical"),
            "note": ColumnRole("ignored"),
            "s": ColumnRole("sensitive", protected="Ä"),
            "y": ColumnRole("decision", positive="1"),
        },
        {
            "x": x,
            "c": texts[pick],  # unicode ndarray
            "note": [str(v) for v in texts[::-1][pick]],  # list of str
            "s": np.where(rng.uniforms(n) < 0.5, "Ä", 'b,"q"'),
            "y": np.where(rng.uniforms(n) < 0.3, "1", "0"),
        },
    )
    save_csv(d, tmp_path / "new.csv")
    save_csv_reference(d, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# cells that test every quoting rule: commas, quotes, CR, LF, edge spaces, empties, non-ASCII
_WRITE_TEXTS = st.text(st.sampled_from(['a', ' ', ',', '"', '\r', '\n', 'é', '東', '😀']), max_size=6)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_save_csv_bytes_match_csv_writer(tmp_path_factory, data):
    n = data.draw(st.integers(1, 30))
    names = data.draw(st.permutations(["x", "c", "note", "s"]))[:data.draw(st.integers(1, 4))]
    if "s" not in names:
        names[0] = "s"
    labels = data.draw(st.lists(_WRITE_TEXTS.filter(bool), min_size=1, max_size=2, unique=True))
    columns = {
        "x": data.draw(st.lists(st.floats(), min_size=n, max_size=n)),
        "c": data.draw(st.lists(_WRITE_TEXTS, min_size=n, max_size=n)),
        "note": data.draw(st.lists(_WRITE_TEXTS, min_size=n, max_size=n)),
        "s": data.draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n)),
    }
    roles = {"x": ColumnRole("numeric"), "c": ColumnRole("categorical"), "note": ColumnRole("ignored"),
             "s": ColumnRole("sensitive", protected=columns["s"][0])}
    d = Dataset({name: roles[name] for name in names}, {name: columns[name] for name in names})
    out = tmp_path_factory.mktemp("write")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_module, "WRITE_CHUNK_ROWS", data.draw(st.integers(1, 8)))
        save_csv(d, out / "new.csv")
    save_csv_reference(d, out / "ref.csv")
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()


def test_with_values_refuses_an_empty_cell_of_a_one_column_table():
    # a one-column table is its sensitive column, so save_csv never writes an empty one-column row
    d = Dataset({"s": ColumnRole("sensitive", protected="P")}, {"s": ["P", "N"]})
    with pytest.raises(DataError, match="column 's' \\(sensitive\\) has 1 missing values"):
        d.with_values("s", ["P", ""])


# any text a UTF-8 CSV can carry: no lone surrogates, no NUL
_cell_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                     max_size=6)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_save_then_load_round_trips(tmp_path_factory, data):
    n = data.draw(st.integers(1, 25))
    x = data.draw(st.lists(st.floats(), min_size=n, max_size=n))
    c = data.draw(st.lists(_cell_text, min_size=n, max_size=n))
    labels = data.draw(st.lists(_cell_text.filter(bool), min_size=1, max_size=2, unique=True))
    s = data.draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
    schema = {
        "x": ColumnRole("numeric"),
        "c": ColumnRole("categorical"),
        "s": ColumnRole("sensitive", protected=s[0]),
    }
    d = Dataset(schema, {"x": x, "c": c, "s": s})
    out = tmp_path_factory.mktemp("rt") / "d.csv"
    save_csv(d, out)
    back = load_csv(out, schema)
    assert back == d
    present = ~np.isnan(d.values("x"))  # a missing cell carries no sign
    assert np.array_equal(np.signbit(back.values("x")[present]), np.signbit(d.values("x")[present]))


def test_columns_are_immutable():
    d = binary_dataset(2, 2, 2, 2)
    with pytest.raises(ValueError):
        d.values("y")[0] = "0"


def test_modality_counts_are_sorted_and_count_missing_cells():
    d = Dataset({"c": ColumnRole("categorical"), "s": ColumnRole("sensitive", protected="P")},
                {"c": ["b", "", "a", "b", ""], "s": ["P", "N", "P", "N", "P"]})
    assert list(d.modality_counts("c").items()) == [("", 2), ("a", 1), ("b", 2)]
    assert list(d.modality_counts("s").items()) == [("N", 2), ("P", 3)]


def test_with_values_leaves_original_untouched():
    d = binary_dataset(2, 2, 2, 2)
    before = d.values("y").tolist()
    d2 = d.with_values("y", ["0"] * d.n)
    assert d.values("y").tolist() == before
    assert d2.values("y").tolist() == ["0"] * d.n


def test_parse_schema_shorthand_and_errors():
    roles = parse_schema({"x": "numeric", "s": {"role": "sensitive", "protected": "f"}})
    assert roles["x"].kind == "numeric"
    with pytest.raises(SchemaError):
        parse_schema({"s": {"protected": "f"}})
    with pytest.raises(SchemaError):
        parse_schema({"s": {"role": "sensitive", "protected": "f", "bogus": 1}})


def test_parse_schema_rejects_a_non_object():
    with pytest.raises(SchemaError, match="schema must be a JSON object"):
        parse_schema(["s", "y"])


def load_csv_reference(path, schema):
    """The row-wise reader that load_csv replaced, kept as its oracle."""
    roles = schema if all(isinstance(v, ColumnRole) for v in schema.values()) else parse_schema(schema)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty, header row required") from None
        rows = list(reader)

    duplicates = sorted({name for name in header if header.count(name) > 1})
    if duplicates:
        raise DataError(f"{path}: duplicate column names {duplicates} in header")
    unknown = [name for name in roles if name not in header]
    if unknown:
        raise SchemaError(f"{path}: schema names {unknown} not in header {header}")
    full_schema = {name: roles.get(name, ColumnRole(IGNORED)) for name in header}

    columns = {name: [] for name in header}
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i + 2} has {len(row)} fields, expected {len(header)}")
        for name, cell in zip(header, row):
            if full_schema[name].kind == NUMERIC:
                if cell == "":
                    columns[name].append(float("nan"))
                else:
                    try:
                        columns[name].append(float(cell))
                    except ValueError:
                        raise DataError(
                            f"{path}: row {i + 2}, column {name!r}: "
                            f"cannot parse {cell!r} as a number"
                        ) from None
            else:
                columns[name].append(cell)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return Dataset(full_schema, columns)


def load_csv_by_csv_module(path, schema):
    """load_csv with numpy's reader turned off, so that the csv module reads every record."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_module, "_read_columns", lambda fh, numeric: None)
        return load_csv(path, schema)


def _load_outcome(loader, path, schema):
    """The dataset a loader returns, or the type and message of the DataError it raises."""
    try:
        return loader(path, schema)
    except DataError as e:
        return type(e), str(e)


def assert_same_load(path, schema):
    """load_csv reads the file as the row-wise reference and the csv module's route do, or fails as they do."""
    got = _load_outcome(load_csv, path, schema)
    for reference in (load_csv_reference, load_csv_by_csv_module):
        want = _load_outcome(reference, path, schema)
        if isinstance(want, tuple) or isinstance(got, tuple):
            assert got == want
            continue
        assert got == want and list(got.schema) == list(want.schema)
        for name in want.schema:  # same dtypes and the same bytes, NaN payloads and signed zeros included
            assert got.values(name).dtype == want.values(name).dtype
            assert got.values(name).tobytes() == want.values(name).tobytes()


_CLEAN_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", "nan", "-nan", "inf", "-inf", " 1.5 ", "1_0", "-0.0", "1e400"]),
    st.floats().map(lambda v: repr(v).center(34)),  # past numpy's cell width, and float() takes it
)
_NUMBERS = _CLEAN_NUMBERS | st.sampled_from(["١٢", " "])
_NOT_NUMBERS = st.sampled_from(["oops", "1_", "1.2.3", "--1", "0x10", "1,5", "\x00"])
# quotes, commas, CR/LF, NUL, a BOM and non-ASCII: anything a UTF-8 CSV can carry
_TEXTS = st.text(st.sampled_from(['a', 'Z', ' ', ',', '"', '\n', '\r', '\x00', '\ufeff', 'é', '東', '😀']),
                 max_size=5)
_LONG_TEXTS = st.text(st.sampled_from(['a', ' ', ',', '"', '\n', 'é']), min_size=31, max_size=34)


TABLE_SCHEMA = {"x": "numeric", "z": "numeric", "c": "categorical",
                "s": {"role": "sensitive", "protected": "P"}, "y": {"role": "decision", "positive": "1"}}


@st.composite
def csv_tables(draw):
    """(header, rows): a CSV table for TABLE_SCHEMA, with ragged records and non-numbers in any chunk."""
    header = draw(st.permutations(["x", "z", "c", "s", "y", "note"]))
    header = header[:draw(st.sampled_from([6] * 8 + [5, 4]))]  # may drop a declared column
    if draw(st.integers(0, 19)) == 0:
        header.append(draw(st.sampled_from(header)))  # a duplicate name
    labels = ("P", draw(st.sampled_from(["N", "p", "P,Q", "Pé", ""])))
    clean = draw(st.booleans())  # half the tables hold only cells that numpy's reader reads itself
    numbers = _CLEAN_NUMBERS if clean else _NUMBERS
    texts = _TEXTS.filter(lambda t: "\x00" not in t) if clean else _TEXTS
    cells = {"x": numbers, "z": numbers, "c": texts, "note": texts | _LONG_TEXTS,
             "s": st.sampled_from(labels), "y": st.sampled_from(["1", "0"])}
    rows = [[draw(cells[name]) for name in header] for _ in range(draw(st.integers(0, 12)))]
    if clean:
        return header, rows
    numeric_at = [i for i, name in enumerate(header) if name in ("x", "z")]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if rows and numeric_at else 0):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.sampled_from(numeric_at))] = draw(_NOT_NUMBERS)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if draw(st.booleans()):
            del row[draw(st.integers(0, len(row))):]
        else:
            row.append(draw(_TEXTS))
    return header, rows


@settings(max_examples=300, deadline=None)
@given(table=csv_tables(), chunk=st.integers(2, 3), quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
       bom=st.booleans())
def test_chunked_load_csv_matches_row_wise_reference(tmp_path_factory, table, chunk, quoting, bom):
    header, rows = table
    path = tmp_path_factory.mktemp("load") / "d.csv"
    with open(path, "w", newline="", encoding="utf-8-sig" if bom else "utf-8") as fh:
        csv.writer(fh, quoting=quoting).writerows([header, *rows])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_module, "READ_CHUNK_ROWS", chunk)
        assert_same_load(path, TABLE_SCHEMA)


# raw cells where a tokenizer might part from the csv module: stray and doubled quotes, quoted
# line ends, comment marks, odd spaces and line separators, an unterminated quote, a NUL
_RAW_CELLS = st.sampled_from(['a', 'a"b', '"ab"c', '"a""b"', '"two\nlines"', '"cr\r\nlf"', '"x\ry"', ' a ',
                              ' "a"', '#x', '""', '"', '"abc', '\u00a0', '\u2028', '\x00', 'P', '', 'a\x00'])
_RAW_NUMBERS = st.sampled_from(["1.5", "", " 1_000 ", "inf", '"2.5"', "-0.0", " ", "1\x00"]) | _RAW_CELLS
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


def _is_float(cell: str) -> bool:
    """Whether ``cell`` reads as a number, or is empty (a missing value)."""
    try:
        return cell == "" or float(cell.strip('"')) == float(cell.strip('"'))
    except ValueError:
        return False


_CLEAN_RAW_CELLS = _RAW_CELLS.filter(lambda c: "\x00" not in c and c.count('"') % 2 == 0)


@st.composite
def raw_csv_texts(draw):
    """A CSV text for the columns x (numeric), c and s, written cell by cell from raw fragments."""
    clean = draw(st.booleans())  # half the texts hold only records that numpy's reader reads itself
    lines = ["x,c,s" + draw(_LINE_ENDS)]
    for _ in range(draw(st.integers(0, 8))):
        if not clean and draw(st.integers(0, 14)) == 0:
            lines.append(draw(_LINE_ENDS))  # a blank line
            continue
        if clean:
            cells = [draw(_RAW_NUMBERS.filter(_is_float)), draw(_CLEAN_RAW_CELLS),
                     draw(st.sampled_from(["P", "N"]))]
        else:
            cells = [draw(_RAW_NUMBERS), draw(_RAW_CELLS), draw(st.sampled_from(["P", "N"]) | _RAW_CELLS)]
        if not clean and draw(st.integers(0, 9)) == 0:
            cells.append("")  # a trailing comma
        lines.append(",".join(cells) + draw(_LINE_ENDS))
    text = "".join(lines)
    return text[:-1] if draw(st.booleans()) else text  # the last line may have no line end


@settings(max_examples=400, deadline=None)
@given(text=raw_csv_texts(), chunk=st.integers(2, 3), bom=st.booleans())
def test_load_csv_reads_raw_texts_as_the_csv_module_does(tmp_path_factory, text, chunk, bom):
    path = tmp_path_factory.mktemp("raw") / "d.csv"
    path.write_bytes(("\ufeff" if bom else "").encode() + text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_module, "READ_CHUNK_ROWS", chunk)
        assert_same_load(path, {"x": "numeric", "c": "categorical", "s": {"role": "sensitive", "protected": "P"}})


def load_by_numpy(path, schema):
    """load_csv that fails if numpy's reader hands the file back to the csv module."""
    def refuse(*args):
        raise AssertionError("numpy's reader handed the file to the csv module")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_module, "_read_records", refuse)
        return load_csv(path, schema)


def write_rows(path, header, rows, encoding="utf-8"):
    with open(path, "w", newline="", encoding=encoding) as fh:
        csv.writer(fh).writerows([header, *rows])
    return path


XS_SCHEMA = {"x": "numeric", "s": {"role": "sensitive", "protected": "P"}}


def test_load_csv_takes_the_spellings_float_takes(tmp_path):
    path = write_csv(tmp_path, 'x,s\n1_000,P\ninf,N\n"2.5",P\n -1e3 ,N\n,P\n')
    assert_same_load(path, XS_SCHEMA)
    assert load_by_numpy(path, XS_SCHEMA).values("x").tolist()[:4] == [1000.0, float("inf"), 2.5, -1000.0]


def test_load_csv_refuses_a_whitespace_only_numeric_cell(tmp_path):
    path = write_csv(tmp_path, "x,s\n1,P\n  ,N\n")
    assert_same_load(path, XS_SCHEMA)
    with pytest.raises(DataError, match=r"row 3, column 'x': cannot parse '  ' as a number"):
        load_csv(path, XS_SCHEMA)


def test_load_csv_drops_a_byte_order_mark(tmp_path):
    path = write_rows(tmp_path / "bom.csv", ["x", "s"], [["1.5", "P"], ["", "N"]], encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbfx,s")
    assert_same_load(path, XS_SCHEMA)
    assert list(load_by_numpy(path, XS_SCHEMA).schema) == ["x", "s"]


def test_load_csv_reads_whole_chunks_and_a_quoted_newline_at_a_chunk_end(tmp_path):
    n = 2 * READ_CHUNK_ROWS  # the file ends exactly where a chunk does
    rows = [[repr(i / 7), "P" if i % 3 else "N", f"note {i}"] for i in range(n)]
    rows[READ_CHUNK_ROWS - 1][2] = "two\nlines"  # the first chunk's last record spans two lines
    path = write_rows(tmp_path / "d.csv", ["x", "s", "note"], rows)
    assert_same_load(path, XS_SCHEMA)
    d = load_by_numpy(path, XS_SCHEMA)
    assert d.n == n
    assert d.values("note")[READ_CHUNK_ROWS - 1:READ_CHUNK_ROWS + 1].tolist() == ["two\nlines", f"note {READ_CHUNK_ROWS}"]


@pytest.mark.parametrize("where", ["first", "last"])
def test_load_csv_keeps_a_long_text_cell_whole(tmp_path, where):
    n = 2 * READ_CHUNK_ROWS + 57  # three chunks, the last one short
    rows = [[repr(i / 7) if i % 50 else "", "P" if i % 3 else "N", "ab"] for i in range(n)]
    long = 'a long note, "quoted", past any fixed width ' * 3
    at = 1 if where == "first" else n - 2
    rows[at][2] = long
    rows[at][0] = "  " + repr(1 / 3).ljust(40)  # a long numeric cell too
    path = write_rows(tmp_path / "d.csv", ["x", "s", "note"], rows)
    assert_same_load(path, XS_SCHEMA)
    d = load_by_numpy(path, XS_SCHEMA)
    assert d.values("note")[at] == long and d.values("note").dtype == np.dtype(f"U{len(long)}")
    assert d.values("x")[at] == 1 / 3 and np.isnan(d.values("x")[0])


@pytest.mark.parametrize("extra", [0, 1])
def test_load_csv_keeps_the_csv_field_size_limit(tmp_path, extra):
    limit = csv.field_size_limit()
    path = write_rows(tmp_path / "d.csv", ["s", "note"], [["P", "a"], ["N", "b" * (limit + extra)]])
    schema = {"s": {"role": "sensitive", "protected": "P"}}
    if not extra:
        assert_same_load(path, schema)
        return
    assert _load_outcome(load_csv, path, schema) == _load_outcome(load_csv_by_csv_module, path, schema)
    with pytest.raises(DataError, match="line 3: field larger than field limit"):
        load_csv(path, schema)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("text, chunk, error", [pytest.param(*case, id=case[0]) for case in [
    ("x,s\n1_0,P\n,N\n", READ_CHUNK_ROWS, None),
    ("x,s\n1,P\noops,N\n", READ_CHUNK_ROWS, "pipe.csv: row 3, column 'x': cannot parse 'oops' as a number"),
    # chunks of two records: the bad one, row 7, is the second of the third chunk
    ("x,s\n1,P\n2,N\n3,P\n4,N\n5,P\nsix,N\n7,P\n", 2, "pipe.csv: row 7, column 'x': cannot parse 'six' as a number"),
]])
def test_load_csv_reads_a_pipe_in_one_pass(tmp_path, monkeypatch, text, chunk, error):
    # a pipe cannot be read twice, so the csv module reads it from the start
    monkeypatch.setattr(data_module, "READ_CHUNK_ROWS", chunk)
    write_csv(tmp_path, text)
    os.mkfifo(tmp_path / "pipe.csv")
    writer = threading.Thread(target=(tmp_path / "pipe.csv").write_text, args=(text,), daemon=True)
    writer.start()
    got = _load_outcome(load_csv, tmp_path / "pipe.csv", XS_SCHEMA)
    writer.join(timeout=10)
    assert not writer.is_alive()
    want = _load_outcome(load_csv, tmp_path / "d.csv", XS_SCHEMA)
    assert got == want if isinstance(want, Dataset) else got == (want[0], want[1].replace("d.csv", "pipe.csv"))
    assert error is None if isinstance(got, Dataset) else got[1].endswith(error)


def benchmark_style_rows(n: int, seed: int = 0) -> list[list[str]]:
    """Rows shaped like the benchmark's tables: numerics with about 1% empty cells, quoted notes."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    x[rng.random((n, 3)) < 0.01] = np.nan
    words = ["alpha", "beta, gamma", 'say "hi"', "plain", 'a "b, c"', "x,y,z"]
    return [["" if v != v else repr(v) for v in row] +
            [f"m{rng.integers(8)}", "P" if rng.random() < 0.4 else "N", "yes" if rng.random() < 0.5 else "no",
             "good" if rng.random() < 0.5 else "bad", f"note {rng.integers(1000)}, {words[rng.integers(6)]}"]
            for row in x.tolist()]


def test_numpys_reader_reads_hand_csv_and_a_benchmark_style_table(tmp_path):
    hand = GOLDEN_INPUTS / "hand.csv"
    schema = json.loads((GOLDEN_INPUTS / "hand-schema.json").read_text(encoding="utf-8"))
    assert load_by_numpy(hand, schema) == load_csv_reference(hand, schema)
    path = write_rows(tmp_path / "bench.csv", ["x1", "x2", "x3", "cat", "s", "y", "t", "note"],
                      benchmark_style_rows(10_000))
    schema = {"x1": "numeric", "x2": "numeric", "x3": "numeric", "cat": "categorical",
              "s": {"role": "sensitive", "protected": "P"}, "y": {"role": "decision", "positive": "yes"},
              "t": {"role": "outcome", "positive": "good"}}
    d = load_by_numpy(path, schema)
    assert d == load_csv_reference(path, schema) and d.n == 10_000
    assert 0 < int(np.isnan(d.values("x1")).sum()) < 300  # empty numeric cells in every chunk


def test_load_csv_names_the_bad_record_in_the_last_chunk(tmp_path):
    n = 2 * READ_CHUNK_ROWS + 57  # three chunks, the last one short
    rows = [[repr(i / 7), "P" if i % 3 else "N", str(i % 2), "café"] for i in range(n)]
    rows[5][0] = ""  # a missing cell
    rows[9][3] = "two\nlines"  # one record over two file lines: rows count records
    path = tmp_path / "d.csv"
    schema = {"x": "numeric", "s": {"role": "sensitive", "protected": "P"}}

    def load(rows):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["x", "s", "y", "note"], *rows])
        assert_same_load(path, schema)
        return load_csv(path, schema)

    assert load(rows).n == n
    with pytest.raises(DataError, match=rf"row {n - 18}, column 'x': cannot parse '1.5x' as a number"):
        load([*rows[:n - 20], ["1.5x", "P", "1", ""], *rows[n - 19:]])
    with pytest.raises(DataError, match=rf"row {n + 1} has 5 fields, expected 4"):
        load([*rows[:-1], [*rows[-1], ""]])


def test_load_csv_names_duplicate_header_columns(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("s,s,y\nP,N,1\nN,P,0\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"duplicate column names \['s'\] in header"):
        load_csv(path, {"s": {"role": "sensitive", "protected": "P"}})


# -- split -----------------------------------------------------------------------


def ten_row_dataset():
    return binary_dataset(3, 2, 3, 2)  # 5 protected, 5 non-protected


def test_split_sizes_and_determinism():
    d = ten_row_dataset()
    train, test = split(d, 0.3, seed=7)
    assert (train.n, test.n) == (7, 3)
    train2, test2 = split(d, 0.3, seed=7)
    assert train == train2 and test == test2


def test_split_seed_sensitivity():
    d = ten_row_dataset()
    # different seeds generally pick different rows
    picks = set()
    for s in (7, 8, 9, 10):
        _, test = split(d, 0.3, seed=s)
        picks.add(tuple(test.values("s").tolist() + test.values("y").tolist()))
    assert len(picks) > 1


def test_split_single_row_errors():
    d = Dataset(
        {"s": ColumnRole("sensitive", protected="P"), "y": ColumnRole("decision", positive="1")},
        {"s": ["P"], "y": ["1"]},
    )
    with pytest.raises(DataError):
        split(d, 0.5, seed=0)


def test_split_tiny_group_errors():
    d = binary_dataset(1, 0, 5, 5)
    with pytest.raises(DataError, match="fewer than 2"):
        split(d, 0.3, seed=0)


def test_split_partition_and_stratification_property():
    rng = CounterRng(99)
    for trial in range(20):
        n1 = 2 + int(float(rng.uniforms(1)[0]) * 20)
        n2 = 2 + int(float(rng.uniforms(1)[0]) * 20)
        a = max(1, n1 // 2)
        c = max(1, n2 // 2)
        d = binary_dataset(a, n1 - a, c, n2 - c)
        frac = 0.1 + 0.8 * float(rng.uniforms(1)[0])
        train, test = split(d, frac, seed=trial)
        assert train.n + test.n == d.n
        for part in (train, test):
            labels = set(part.values("s").tolist())
            assert labels == {"P", "N"}
        # partition: group/decision counts add up
        for s_label in ("P", "N"):
            for y_label in ("1", "0"):
                total = np.count_nonzero((d.values("s") == s_label) & (d.values("y") == y_label))
                got = sum(
                    np.count_nonzero((p.values("s") == s_label) & (p.values("y") == y_label))
                    for p in (train, test)
                )
                assert got == total


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_protected=st.integers(2, 30),
       n_other=st.sampled_from([0]) | st.integers(2, 30),  # one modality, or two
       test_fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2**63))
def test_split_invariants(data, n_protected, n_other, test_fraction, seed):
    n = n_protected + n_other
    s = data.draw(st.permutations(["P"] * n_protected + ["N"] * n_other))
    d = Dataset(
        {"row": ColumnRole("numeric"), "s": ColumnRole("sensitive", protected="P"),
         "y": ColumnRole("decision", positive="1")},
        {"row": np.arange(n), "s": s, "y": ["1", "0"] * (n // 2) + ["1"] * (n % 2)},
    )
    train, test = split(d, test_fraction, seed)
    train_rows = train.values("row").astype(int).tolist()
    test_rows = test.values("row").astype(int).tolist()
    assert not set(train_rows) & set(test_rows)
    assert sorted(train_rows + test_rows) == list(range(n))
    assert train_rows == sorted(train_rows) and test_rows == sorted(test_rows)
    observed = set(d.values("s").tolist())
    assert set(train.values("s").tolist()) == observed == set(test.values("s").tolist())
    again_train, again_test = split(d, test_fraction, seed)
    assert again_train == train and again_test == test


def clamped_test_counts(sizes: list[int], test_size: int) -> list[int]:
    """Per-group test counts by split's count logic as it was when it still clamped
    the total test size to [1, n-1] before the per-group clamps."""
    n = sum(sizes)
    test_size = max(1, min(n - 1, test_size))
    quotas = [test_size * size / n for size in sizes]
    counts = [int(np.floor(q)) for q in quotas]
    order = sorted(range(len(sizes)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in order[:test_size - sum(counts)]:
        counts[i] += 1
    counts = [max(1, min(size - 1, c)) for size, c in zip(sizes, counts)]
    for i, size in enumerate(sizes):
        counts[i] = max(1, min(size - 1, counts[i] + test_size - sum(counts)))
    return counts


def test_split_counts_match_the_clamped_reference_exhaustively():
    # The test size enters split only as round(n * test_fraction), so one
    # fraction per rounded size in 0..n covers every fraction there is.
    for n in range(2, 37):
        for n_protected in [n] + list(range(2, n - 1)):  # one modality, or two
            sizes = [n_protected, n - n_protected] if n_protected < n else [n]
            s = ["P"] * n_protected + ["N"] * (n - n_protected)
            y = ["1", "0"] * (n // 2) + ["1"] * (n % 2)
            d = Dataset({"s": ColumnRole("sensitive", protected="P"),
                         "y": ColumnRole("decision", positive="1")}, {"s": s, "y": y})
            for test_size in range(n + 1):
                fraction = min(max(test_size, 0.4), n - 0.4) / n
                assert int(round(n * fraction)) == test_size
                _, test = split(d, fraction, seed=n)
                protected = int(np.count_nonzero(test.values("s") == "P"))
                got = [protected, test.n - protected] if len(sizes) == 2 else [test.n]
                assert got == clamped_test_counts(sizes, test_size), (sizes, test_size)


# -- validate --------------------------------------------------------------------


def test_validate_balanced():
    report = validate(binary_dataset(25, 25, 25, 25))
    assert report["group_sizes"] == {"protected": 50, "non_protected": 50}
    assert report["flags"] == []


def test_validate_every_row_protected():
    d = Dataset(
        {"s": ColumnRole("sensitive", protected="P"), "y": ColumnRole("decision", positive="1")},
        {"s": ["P", "P", "P"], "y": ["1", "0", "1"]},
    )
    assert "empty non-protected group" in validate(d)["flags"]


def test_validate_counts_missing_cells(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("x,s,y\n1,0,1\n,1,0\n,0,1\n,1,1\n5,0,0\n", encoding="utf-8")
    d = load_csv(path, SCHEMA)
    assert validate(d)["columns"]["x"]["missing"] == 3


def test_checking_binary_roles_imports_no_masked_arrays():
    # np.unique without counts asks np.ma.is_masked, whose first call imports numpy.ma;
    # hand.csv has a categorical column, whose modalities train_logistic counts
    schema = json.loads((GOLDEN_INPUTS / "hand-schema.json").read_text(encoding="utf-8"))
    code = ("import sys; from fairaudit import apply_repair, fit_repair, load_csv, train_logistic; "
            "seen = lambda: 'numpy.ma' in sys.modules; before = seen(); "
            f"d = load_csv({str(GOLDEN_INPUTS / 'hand.csv')!r}, {schema!r}); loaded = seen(); "
            "train_logistic(d); trained = seen(); apply_repair(fit_repair(d, ['age', 'income']), d, 1.0); "
            "print(before, loaded, trained, seen())")
    env = {**os.environ, "PYTHONPATH": str(Path(data_module.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["False"] * 4


# -- guards ----------------------------------------------------------------------

_S = ColumnRole("sensitive", protected="P")
_Y = ColumnRole("decision", positive="1")

# every guard that no other test reaches, with its message: (id, call, error, message)
GUARDS = [
    ("role-unknown-kind", lambda: ColumnRole("bogus"), SchemaError, "unknown column role 'bogus'"),
    ("role-decision-without-positive", lambda: ColumnRole("decision"), SchemaError,
     "decision role requires a 'positive' modality"),
    ("role-protected-on-categorical", lambda: ColumnRole("categorical", protected="F"), SchemaError,
     "the 'protected' modality belongs to the sensitive role, not categorical"),
    ("schema-numeric-descriptor", lambda: parse_schema({"x": 3}), SchemaError,
     "column 'x': descriptor must be a string or object"),
    ("dataset-names-mismatched", lambda: Dataset({"s": _S}, {"t": ["P"]}), SchemaError,
     "schema and columns must cover the same names"),
    ("dataset-columns-unequal", lambda: Dataset({"s": _S, "y": _Y}, {"s": ["P", "N"], "y": ["1"]}), DataError,
     "column 'y' has 1 entries, expected 2"),
    ("dataset-no-row", lambda: Dataset({"s": _S}, {"s": []}), DataError, "dataset must contain at least one row"),
    ("dataset-two-decisions", lambda: Dataset({"s": _S, "y": _Y, "z": _Y}, {"s": ["P"], "y": ["1"], "z": ["1"]}),
     SchemaError, "at most one decision column allowed, found 2"),
    ("values-unknown-name", lambda: binary_dataset(1, 1, 1, 1).values("z"), SchemaError, "no column named 'z'"),
    ("with-values-unknown-name", lambda: binary_dataset(1, 1, 1, 1).with_values("z", ["1"] * 4), SchemaError,
     "no column named 'z'"),
    ("with-values-wrong-length", lambda: binary_dataset(1, 1, 1, 1).with_values("y", ["1"] * 3), DataError,
     "replacement for 'y' has 3 entries, expected 4"),
    # the rules that a row subset keeps hold for a replaced binary column too
    ("with-values-binary-missing-cell", lambda: binary_dataset(1, 1, 1, 1).with_values("y", ["1", "", "", "0"]),
     DataError, "column 'y' (decision) has 2 missing values"),
    ("with-values-binary-third-label", lambda: binary_dataset(1, 1, 1, 1).with_values("s", ["P", "N", "Q", "P"]),
     DataError, "column 's' (sensitive) must be binary, found 3 distinct values"),
    ("split-fraction-0", lambda: split(binary_dataset(2, 2, 2, 2), 0.0, 0), DataError,
     "test_fraction must be in (0, 1), got 0.0"),
    ("split-fraction-1", lambda: split(binary_dataset(2, 2, 2, 2), 1.0, 0), DataError,
     "test_fraction must be in (0, 1), got 1.0"),
    # the rows of the other group alone: a flag in the report, not an error
    ("validate-empty-protected-group", lambda: validate(binary_dataset(1, 1, 1, 1).take([2, 3]))["flags"], None,
     "empty protected group"),
]


@pytest.mark.parametrize("call, error, message", [pytest.param(*row[1:], id=row[0]) for row in GUARDS])
def test_guard_message(call, error, message):
    check_guard(call, error, message)
