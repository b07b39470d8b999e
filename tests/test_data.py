import numpy as np
import pytest

from fairaudit import ColumnRole, DataError, Dataset, SchemaError, load_csv, parse_schema, save_csv, split, validate
from fairaudit.rng import CounterRng

from conftest import binary_dataset

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


def test_columns_are_immutable():
    d = binary_dataset(2, 2, 2, 2)
    with pytest.raises(ValueError):
        d.values("y")[0] = "0"


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
        n1 = 2 + int(rng.uniform() * 20)
        n2 = 2 + int(rng.uniform() * 20)
        a = max(1, n1 // 2)
        c = max(1, n2 // 2)
        d = binary_dataset(a, n1 - a, c, n2 - c)
        frac = 0.1 + 0.8 * rng.uniform()
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
