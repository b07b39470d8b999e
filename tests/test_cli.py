import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import GeneratorSpec, load_csv, parse_schema
from fairaudit.cli import main

# numpy's warnings reach stderr ahead of the "fairaudit" line, which pytest's capture would hide
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

GOLDEN = Path(__file__).parent / "golden"
SCHEMA_OBJ = {
    "s": {"role": "sensitive", "protected": "P"},
    "y": {"role": "decision", "positive": "1"},
}


def write_table_csv(path, a, b, c, d):
    rows = [("s", "y")] + [("P", "1")] * a + [("P", "0")] * b + [("N", "1")] * c + [("N", "0")] * d
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.fixture()
def table_files(tmp_path):
    data = tmp_path / "d.csv"
    schema = tmp_path / "s.json"
    write_table_csv(data, 40, 60, 60, 40)
    schema.write_text(json.dumps(SCHEMA_OBJ), encoding="utf-8")
    return data, schema


def test_audit_worked_example(table_files, tmp_path):
    data, schema = table_files
    out = tmp_path / "report.json"
    code = main(["audit", "--data", str(data), "--schema", str(schema),
                 "--level", "0.95", "--threshold", "0.8",
                 "--out", str(out), "--no-timestamp"])
    assert code == 3  # audit completed, four-fifths rule failed
    report = json.loads(out.read_text())
    assert report["metrics"]["disparate_impact"]["value"] == pytest.approx(2 / 3)
    assert report["intervals"]["disparate_impact"]["lo"] == pytest.approx(0.500, abs=0.005)
    assert report["intervals"]["disparate_impact"]["hi"] == pytest.approx(0.890, abs=0.005)
    assert report["verdict"]["point"] == "fail"
    assert report["verdict"]["interval"] == "inconclusive"
    assert report["meta"]["orientation"]["ratios"] == "protected / non-protected"


def test_audit_pass_exits_zero(tmp_path):
    data = tmp_path / "fair.csv"
    schema = tmp_path / "s.json"
    write_table_csv(data, 50, 50, 50, 50)
    schema.write_text(json.dumps(SCHEMA_OBJ), encoding="utf-8")
    out = tmp_path / "r.json"
    code = main(["audit", "--data", str(data), "--schema", str(schema),
                 "--out", str(out), "--no-timestamp"])
    assert code == 0
    assert json.loads(out.read_text())["verdict"]["point"] == "pass"


def test_unknown_flag_usage_error(table_files, capsys):
    data, schema = table_files
    code = main(["audit", "--data", str(data), "--schema", str(schema), "--bogus"])
    assert code == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_data_file_exits_two(tmp_path, capsys):
    schema = tmp_path / "s.json"
    schema.write_text(json.dumps(SCHEMA_OBJ), encoding="utf-8")
    code = main(["audit", "--data", str(tmp_path / "absent.csv"), "--schema", str(schema)])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_validate_subcommand(table_files, tmp_path):
    data, schema = table_files
    out = tmp_path / "v.json"
    assert main(["validate", "--data", str(data), "--schema", str(schema),
                 "--out", str(out), "--no-timestamp"]) == 0
    report = json.loads(out.read_text())
    assert report["dataset"]["group_sizes"] == {"protected": 100, "non_protected": 100}


def test_report_byte_identical_with_no_timestamp(table_files, tmp_path):
    data, schema = table_files
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        main(["audit", "--data", str(data), "--schema", str(schema),
              "--out", str(out), "--no-timestamp"])
    assert out1.read_bytes() == out2.read_bytes()


def test_timestamp_present_by_default(table_files, tmp_path):
    data, schema = table_files
    out = tmp_path / "r.json"
    main(["audit", "--data", str(data), "--schema", str(schema), "--out", str(out)])
    assert "timestamp" in json.loads(out.read_text())["meta"]


def _numeric_leaves(obj, acc):
    if isinstance(obj, dict):
        for v in obj.values():
            _numeric_leaves(v, acc)
    elif isinstance(obj, list):
        for v in obj:
            _numeric_leaves(v, acc)
    elif isinstance(obj, bool):
        pass
    elif isinstance(obj, (int, float)):
        acc.add(format(obj, ".6g") if isinstance(obj, float) else str(obj))
    elif isinstance(obj, str):
        acc.add(obj)  # numeric-looking labels (e.g. modality "1") pass through verbatim


def test_markdown_numbers_all_present_in_json(table_files, tmp_path):
    data, schema = table_files
    out = tmp_path / "r.json"
    main(["audit", "--data", str(data), "--schema", str(schema),
          "--out", str(out), "--format", "both", "--no-timestamp"])
    report = json.loads(out.read_text())
    rendered = set()
    _numeric_leaves(report, rendered)
    md = (tmp_path / "r.md").read_text()
    for line in md.splitlines():
        match = re.match(r"\s*- .+?: (.+)$", line)
        if not match:
            continue
        for token in match.group(1).split(", "):
            try:
                float(token)
            except ValueError:
                continue
            assert token in rendered, f"markdown value {token!r} not in JSON report"


def test_full_pipeline_synth_train_fliptest_explain(tmp_path):
    gen_csv = tmp_path / "gen.csv"
    gen_schema = tmp_path / "gen-schema.json"
    model_path = tmp_path / "model.json"

    assert main(["synth", "--n", "2500", "--seed", "5", "--target-di", "0.6",
                 "--data", str(gen_csv), "--schema-out", str(gen_schema),
                 "--out", str(tmp_path / "synth.json"), "--no-timestamp"]) == 0
    synth_report = json.loads((tmp_path / "synth.json").read_text())
    assert synth_report["synth"]["true_di"] == pytest.approx(0.6, abs=1e-9)

    assert main(["train", "--data", str(gen_csv), "--schema", str(gen_schema),
                 "--model", str(model_path), "--include-sensitive",
                 "--replicates", "3", "--seed", "1",
                 "--out", str(tmp_path / "train.json"), "--no-timestamp"]) == 0
    train_report = json.loads((tmp_path / "train.json").read_text())
    assert "s=P" in train_report["model"]["weights"]
    assert "cv_error" in train_report

    assert main(["fliptest", "--data", str(gen_csv), "--schema", str(gen_schema),
                 "--model", str(model_path),
                 "--out", str(tmp_path / "flip.json"), "--no-timestamp"]) == 0
    flip_report = json.loads((tmp_path / "flip.json").read_text())
    assert not flip_report["fliptest"]["vacuous"]
    assert flip_report["fliptest"]["flip_rate"] > 0.05

    assert main(["explain", "--data", str(gen_csv), "--schema", str(gen_schema),
                 "--model", str(model_path), "--row", "2", "--replicates", "3",
                 "--seed", "0", "--out", str(tmp_path / "explain.json"),
                 "--no-timestamp"]) == 0
    explain_report = json.loads((tmp_path / "explain.json").read_text())
    assert set(explain_report["explain"]["permutation_importance"]["importances"]) == {"x1", "x2", "s"}
    assert "local_surrogate" in explain_report["explain"]


def test_synth_spec_file_with_flag_override(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n": 300, "seed": 11, "group_bias": -0.4}))
    out = tmp_path / "synth.json"
    assert main(["synth", "--spec", str(spec_path), "--n", "120",
                 "--data", str(tmp_path / "g.csv"), "--out", str(out),
                 "--no-timestamp"]) == 0
    spec_echo = json.loads(out.read_text())["synth"]["spec"]
    assert spec_echo["n"] == 120  # flag wins
    assert spec_echo["seed"] == 11  # file value kept
    assert spec_echo["group_bias"] == -0.4


def test_repair_lambda_zero_identity(tmp_path):
    gen_csv = tmp_path / "gen.csv"
    gen_schema = tmp_path / "gen-schema.json"
    main(["synth", "--n", "400", "--seed", "8", "--data", str(gen_csv),
          "--schema-out", str(gen_schema), "--out", str(tmp_path / "s.json"),
          "--no-timestamp"])
    repaired_csv = tmp_path / "rep.csv"
    assert main(["repair", "--data", str(gen_csv), "--schema", str(gen_schema),
                 "--features", "x1,x2", "--lambda", "0",
                 "--repaired-out", str(repaired_csv),
                 "--out", str(tmp_path / "rep.json"), "--no-timestamp"]) == 0
    schema = parse_schema(json.loads(gen_schema.read_text()))
    original = load_csv(gen_csv, schema)
    repaired = load_csv(repaired_csv, schema)
    assert np.array_equal(original.values("x1"), repaired.values("x1"))
    assert np.array_equal(original.values("x2"), repaired.values("x2"))
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["repair"]["distortion"]["overall"] == 0.0


def test_repair_reports_before_after_di(tmp_path):
    gen_csv = tmp_path / "gen.csv"
    gen_schema = tmp_path / "gen-schema.json"
    main(["synth", "--n", "4000", "--seed", "5", "--target-di", "0.6",
          "--data", str(gen_csv), "--schema-out", str(gen_schema),
          "--out", str(tmp_path / "s.json"), "--no-timestamp"])
    assert main(["repair", "--data", str(gen_csv), "--schema", str(gen_schema),
                 "--features", "x1,x2", "--lambda", "1",
                 "--repaired-out", str(tmp_path / "rep.csv"), "--seed", "2",
                 "--plan-out", str(tmp_path / "plan.json"),
                 "--out", str(tmp_path / "rep.json"), "--no-timestamp"]) == 0
    effect = json.loads((tmp_path / "rep.json").read_text())["repair"]["effect"]
    assert effect["model_di_after"] > effect["model_di_before"]
    assert abs(effect["model_di_after"] - 1.0) < 0.15
    assert (tmp_path / "plan.json").exists()


def test_markdown_only_format(table_files, tmp_path):
    data, schema = table_files
    out = tmp_path / "report.md"
    main(["audit", "--data", str(data), "--schema", str(schema),
          "--out", str(out), "--format", "md", "--no-timestamp"])
    text = out.read_text()
    assert text.startswith("# fairaudit report: audit")
    assert "disparate_impact" in text


def test_stdout_emission(table_files, capsys):
    data, schema = table_files
    code = main(["audit", "--data", str(data), "--schema", str(schema), "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["verdict"]["point"] == "fail"


def test_declaring_the_other_label_protected_swaps_the_groups(tmp_path):
    """Declaring M protected in place of F on the hand table swaps every group pair and inverts the DI."""
    schema = json.loads((GOLDEN / "inputs" / "hand-schema.json").read_text(encoding="utf-8"))
    reports = []
    for protected in ("F", "M"):
        schema["sex"]["protected"] = protected
        (tmp_path / f"{protected}.json").write_text(json.dumps(schema), encoding="utf-8")
        out = tmp_path / f"audit-{protected}.json"
        main(["audit", "--data", str(GOLDEN / "inputs" / "hand.csv"), "--schema", str(tmp_path / f"{protected}.json"),
              "--out", str(out), "--no-timestamp"])
        reports.append(json.loads(out.read_text(encoding="utf-8")))
    f, m = reports
    assert [m["contingency"][k] for k in "abcd"] == [f["contingency"][k] for k in "cdab"]
    assert (m["confusion"]["protected"], m["confusion"]["non_protected"]) == (
        f["confusion"]["non_protected"], f["confusion"]["protected"])
    di_f, di_m = f["metrics"]["disparate_impact"]["value"], m["metrics"]["disparate_impact"]["value"]
    assert (round(di_f, 4), round(di_m, 3)) == (0.6901, 1.449)
    assert m["metrics"]["risk_difference"]["value"] == -f["metrics"]["risk_difference"]["value"]
    ci_f, ci_m = f["intervals"]["disparate_impact"], m["intervals"]["disparate_impact"]
    for x, y in ((ci_f["lo"], ci_m["hi"]), (ci_f["hi"], ci_m["lo"])):
        assert abs(x * y - 1.0) <= math.ulp(1.0)


def test_fliptest_of_the_protected_rows_alone_flips_as_in_the_whole_table(tmp_path):
    model = json.loads((GOLDEN / "expected" / "model-hand.json").read_text(encoding="utf-8"))
    add_sex_indicator(model)
    (tmp_path / "m.json").write_text(json.dumps(model), encoding="utf-8")
    rows = list(csv.reader(io.StringIO((GOLDEN / "inputs" / "hand.csv").read_text(encoding="utf-8"))))
    sex = rows[0].index("sex")
    protected = [i for i, row in enumerate(rows[1:]) if row[sex] == "F"]
    with open(tmp_path / "f.csv", "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerows([rows[0], *(rows[1 + i] for i in protected)])
    flips = []
    for data in (GOLDEN / "inputs" / "hand.csv", tmp_path / "f.csv"):
        out = tmp_path / "flips.json"
        assert main(["fliptest", "--data", str(data), "--schema", str(GOLDEN / "inputs" / "hand-schema.json"),
                     "--model", str(tmp_path / "m.json"), "--out", str(out), "--no-timestamp"]) == 0
        flips.append(json.loads(out.read_text(encoding="utf-8"))["fliptest"])
    whole, part = flips
    assert part["n"] == len(protected) == 115
    assert part["to_positive"] == [k for k, i in enumerate(protected) if i in whole["to_positive"]]
    assert part["to_negative"] == [k for k, i in enumerate(protected) if i in whole["to_negative"]] == []
    assert part["flips_to_positive"] > 0  # swapping the table's labels finds none: it holds one label


# -- exit-code contract: malformed invocations --------------------------------------

GEN = ["--data", "gen.csv", "--schema", "gen-schema.json"]
HAND = ["--data", "hand.csv", "--schema", "hand-schema.json"]
HAND_INF = ["--data", "hand-inf.csv", "--schema", "hand-schema.json"]  # age of data row 4 is inf

MALFORMED = [
    # (id, argv, exit code, stderr fragment)
    ("schema-json-list", ["audit", "--data", "gen.csv", "--schema", "list.json"],
     2, "schema must be a JSON object"),
    ("spec-json-list", ["synth", "--spec", "list.json", "--data", "o.csv"],
     2, "generator spec must be a JSON object"),
    ("model-without-encoding", ["fliptest", *GEN, "--model", "no-encoding.json"],
     2, "malformed model file"),
    ("model-json-list", ["explain", *GEN, "--model", "list.json"], 2, "malformed model file"),
    ("schema-not-json", ["audit", "--data", "gen.csv", "--schema", "bad.json"],
     2, "schema file bad.json is not JSON"),
    ("spec-not-json", ["synth", "--spec", "bad.json", "--data", "o.csv"],
     2, "generator spec file bad.json is not JSON"),
    ("model-not-json", ["explain", *GEN, "--model", "bad.json"], 2, "model file bad.json is not JSON"),
    ("unwritable-out", ["audit", *GEN, "--out", "nodir/r.json"], 2, "nodir/r.json"),
    ("unwritable-repaired-out", ["repair", *GEN, "--features", "x1",
                                 "--repaired-out", "nodir/r.csv"], 2, "nodir/r.csv"),
    ("unwritable-model", ["train", *GEN, "--model", "nodir/m.json", "--replicates", "0"],
     2, "nodir/m.json"),
    ("unwritable-plan-out", ["repair", *GEN, "--features", "x1", "--repaired-out", "r.csv",
                             "--plan-out", "nodir/p.json"], 2, "nodir/p.json"),
    ("unwritable-schema-out", ["synth", "--n", "20", "--data", "o.csv",
                               "--schema-out", "nodir/s.json"], 2, "nodir/s.json"),
    # a late output must not fail after earlier outputs were written
    ("train-unwritable-out", ["train", *GEN, "--model", "m.json", "--replicates", "0",
                              "--out", "nodir/t.json"], 2, "nodir/t.json"),
    ("repair-unwritable-out", ["repair", *GEN, "--features", "x1", "--repaired-out", "r.csv",
                               "--plan-out", "p.json", "--out", "nodir/r.json"], 2, "nodir/r.json"),
    ("synth-unwritable-out", ["synth", "--n", "20", "--data", "o.csv", "--schema-out", "s.json",
                              "--out", "nodir/s.json"], 2, "nodir/s.json"),
    ("duplicate-header", ["validate", "--data", "dup.csv", "--schema", "dup-schema.json"],
     2, "duplicate column names ['s'] in header"),
    ("oversized-field", ["validate", "--data", "big.csv", "--schema", "dup-schema.json"],
     2, "big.csv: line 3: field larger than field limit"),
    ("empty-csv", ["validate", "--data", "empty.csv", "--schema", "hand-schema.json"],
     2, "empty.csv: file is empty, header row required"),
    ("model-names-unknown-column", ["fliptest", "--data", "hand.csv", "--schema", "hand-schema.json",
                                    "--model", "bogus.json"], 2, "malformed model file bogus.json"),
    ("model-mean-null", ["fliptest", *HAND, "--model", "mean-null.json"], 2,
     "malformed model file mean-null.json"),
    ("model-sd-null", ["explain", *HAND, "--model", "sd-null.json"], 2, "malformed model file sd-null.json"),
    ("model-sd-zero", ["fliptest", *HAND, "--model", "sd-zero.json"], 2, "malformed model file sd-zero.json"),
    ("model-sd-infinite", ["explain", *HAND, "--model", "sd-inf.json"], 2, "malformed model file sd-inf.json"),
    ("model-sd-subnormal", ["explain", *HAND, "--model", "sd-subnormal.json", "--row", "0"], 2,
     "numeric column 'age' overflows when standardized by the model's sd"),
    ("model-sd-subnormal-no-row", ["explain", *HAND, "--model", "sd-subnormal.json"], 2,
     "numeric column 'age' overflows when standardized by the model's sd"),
    ("explain-kernel-width-without-row", ["explain", *HAND, "--model", "model-hand.json",
                                          "--kernel-width", "1"], 2, "--row"),
    ("explain-samples-without-row", ["explain", *HAND, "--model", "model-hand.json", "--samples", "50"],
     2, "--row"),
    ("train-inf-cell", ["train", *HAND_INF, "--model", "m.json"], 2,
     "numeric column 'age' holds infinite values"),
    # seed 7 puts that row in the holdout, which is scored after the fit: still no model file
    ("train-inf-cell-in-holdout", ["train", *HAND_INF, "--model", "m.json", "--seed", "7", "--replicates", "0"],
     2, "numeric column 'age' holds infinite values"),
    ("explain-inf-cell", ["explain", *HAND_INF, "--model", "model-hand.json"], 2,
     "numeric column 'age' holds infinite values"),
    # without a role in the schema, age loads as ignored text, with empty cells
    ("model-numeric-feature-not-numeric", ["explain", "--data", "hand.csv", "--schema", "hand-no-age.json",
                                           "--model", "model-hand.json"], 2,
     "model feature 'age' is numeric, but the table's column 'age' is ignored"),
    # no decision column, so no baseline training refuses the cell first
    ("repair-infinite-cell", ["repair", "--data", "hand-inf.csv", "--schema", "hand-no-decision.json",
                              "--features", "age", "--lambda", "1", "--repaired-out", "r.csv"], 2,
     "numeric column 'age' holds infinite values"),
    ("model-nested-weights-fliptest", ["fliptest", *HAND, "--model", "nested.json"], 2,
     "malformed model file nested.json"),
    ("model-nested-weights-explain", ["explain", *HAND, "--model", "nested.json"], 2,
     "malformed model file nested.json"),
    ("model-weights-short", ["fliptest", *HAND, "--model", "weights-short.json"], 2,
     "malformed model file weights-short.json: DataError: weight vector length does not match encoding dimension"),
    ("model-weights-nan", ["fliptest", *HAND, "--model", "weights-nan.json"], 2,
     "malformed model file weights-nan.json: DataError: model parameters must be finite"),
    ("model-format-unknown", ["fliptest", *HAND, "--model", "format-2.json"], 2,
     "malformed model file format-2.json: DataError: unsupported model format 'fairaudit-model/2'"),
    ("spec-seed-float", ["synth", "--spec", "seed-float.json", "--data", "o.csv"], 2,
     "malformed generator spec file seed-float.json"),
    ("spec-seed-null", ["synth", "--spec", "seed-null.json", "--data", "o.csv"], 2,
     "malformed generator spec file seed-null.json"),
    ("spec-n-float", ["synth", "--spec", "n-float.json", "--data", "o.csv"], 2,
     "malformed generator spec file n-float.json"),
    ("spec-n-bool", ["synth", "--spec", "n-bool.json", "--data", "o.csv"], 2,
     "malformed generator spec file n-bool.json"),
    ("spec-short-pair", ["synth", "--spec", "short-pair.json", "--data", "o.csv"], 2,
     "malformed generator spec file short-pair.json"),
    ("level-out-of-range", ["audit", "--data", "absent.csv", "--schema", "absent.json",
                            "--level", "1.5"], 1, "--level"),
    ("level-not-a-number", ["audit", *HAND, "--level", "abc"], 1, "--level: must be in (0, 1), got 'abc'"),
    ("rule-threshold-out-of-range", ["audit", *GEN, "--threshold", "1.5"], 1, "(0, 1]"),
    ("score-threshold-out-of-range", ["fliptest", *GEN, "--model", "m.json",
                                      "--threshold", "1"], 1, "(0, 1)"),
    # a negative exponent-form value is the flag's value, not an unknown option
    ("lambda-below-0-bare-message", ["repair", *HAND, "--features", "age", "--repaired-out", "r.csv",
                                     "--lambda", "-5e-324"], 1, "--lambda: must be in [0, 1], got '-5e-324'"),
    # the flip is defined by the model's indicator, so a table that does not match it is refused
    ("fliptest-model-of-another-sensitive-column", ["fliptest", "--data", "hand.csv", "--schema", "perf-schema.json",
                                                    "--model", "sex.json"], 2,
     "the model's sensitive column 'sex' is not the table's, 'performed'"),
    ("fliptest-protected-label-on-no-row", ["fliptest", "--data", "fm.csv", "--schema", "fm-schema.json",
                                            "--model", "sex.json"], 2,
     "no row has the model's protected label 'F', but 'sex' holds ['female', 'male']"),
    ("audit-model-protected-label-on-no-row", ["audit", "--data", "fm.csv", "--schema", "fm-schema.json",
                                               "--model", "sex.json"], 2,
     "no row has the model's protected label 'F', but 'sex' holds ['female', 'male']"),
    ("model-column-under-two-kinds", ["fliptest", *HAND, "--model", "sex-twice.json"], 2,
     "malformed model file sex-twice.json: DataError: encoding names ['sex'] under more than one kind"),
    ("model-sensitive-not-in-source-order", ["fliptest", *HAND, "--model", "sex-unordered.json"], 2,
     "malformed model file sex-unordered.json: DataError: encoding.source_order"),
    # a numeric feature named as region's dummy column for "north": its weight could not be told apart
    ("model-feature-name-clash", ["explain", *HAND, "--model", "region-clash.json", "--row", "0"], 2,
     "malformed model file region-clash.json: DataError: design-matrix feature names ['region=north'] are not unique"),
    ("schema-protected-list", ["validate", "--data", "hand.csv", "--schema", "protected-list.json"], 2,
     "the 'protected' modality must be a string, got ['F']"),
    ("schema-positive-number", ["validate", "--data", "hand.csv", "--schema", "positive-number.json"], 2,
     "the 'positive' modality must be a string, got 1"),
    # a key of another role would be ignored, so it is refused
    ("schema-positive-on-numeric", ["validate", "--data", "hand.csv", "--schema", "age-positive.json"], 2,
     "the 'positive' modality belongs to the decision or outcome role, not numeric"),
    ("repair-feature-twice", ["repair", *GEN, "--features", "x1,x1", "--repaired-out", "r.csv"], 2,
     "features ['x1'] are listed more than once"),
    # only the subcommands that draw take a seed
    ("audit-takes-no-seed", ["audit", *HAND, "--seed", "3"], 1, "unrecognized arguments: --seed 3"),
    ("validate-takes-no-seed", ["validate", *HAND, "--seed", "3"], 1, "unrecognized arguments: --seed 3"),
    ("fliptest-takes-no-seed", ["fliptest", *HAND, "--model", "model-hand.json", "--seed", "3"], 1,
     "unrecognized arguments: --seed 3"),
    ("synth-one-row", ["synth", "--n", "1", "--data", "o.csv"], 2,
     "the n=1 rows drawn with seed 0 hold one sensitive group, not both"),
    ("synth-one-group", ["synth", "--n", "3", "--seed", "1", "--protected-fraction", "0.99", "--data", "o.csv"], 2,
     "the n=3 rows drawn with seed 1 hold one sensitive group, not both"),
    # each of these sends numpy's reader back to the csv module, whose message names the record
    ("csv-nul-in-numeric-cell", ["validate", "--data", "nul.csv", "--schema", "hand-schema.json"], 2,
     "nul.csv: row 3, column 'age': cannot parse '47.8\\x00' as a number"),
    ("csv-not-utf8", ["validate", "--data", "latin1.csv", "--schema", "hand-schema.json"], 2,
     "'utf-8' codec can't decode byte 0xe9 in position 7531: invalid continuation byte"),
    ("csv-blank-line-after-row-5000", ["audit", "--data", "blank.csv", "--schema", "hand-schema.json"], 2,
     "blank.csv: row 5002 has 0 fields, expected 7"),
    ("csv-ragged-row-after-row-5000", ["audit", "--data", "ragged.csv", "--schema", "hand-schema.json"], 2,
     "ragged.csv: row 5002 has 8 fields, expected 7"),
    ("missing-data", ["audit", "--schema", "gen-schema.json"], 1, "--data"),
    ("missing-synth-data", ["synth", "--n", "20"], 1, "--data"),
    ("missing-schema", ["validate", "--data", "gen.csv"], 1, "--schema"),
    ("missing-model", ["explain", *GEN], 1, "--model"),
    ("missing-features", ["repair", *GEN], 1, "--features"),
    ("synth-takes-no-schema", ["synth", "--data", "o.csv", "--schema", "gen-schema.json"],
     1, "--schema"),
]


def add_sex_indicator(model: dict, weight: float = -1.5) -> None:
    """Make a hand-table model file group-aware: an indicator of sex == F, last in the design matrix."""
    model["encoding"]["sensitive"] = {"name": "sex", "protected": "F"}
    model["encoding"]["source_order"].append("sex")
    model["weights"].append(weight)


@pytest.fixture()
def malformed_inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--n", "200", "--seed", "1", "--data", "gen.csv",
                 "--schema-out", "gen-schema.json", "--out", "synth.json"]) == 0
    (tmp_path / "list.json").write_text("[1, 2]", encoding="utf-8")
    (tmp_path / "bad.json").write_text("not json", encoding="utf-8")
    (tmp_path / "no-encoding.json").write_text(json.dumps({
        "format": "fairaudit-model/1", "intercept": 0.0, "weights": [], "converged": True,
        "target_column": "y", "config": {}}), encoding="utf-8")
    (tmp_path / "dup.csv").write_text("s,s,y\nP,N,1\nN,P,0\n", encoding="utf-8")
    (tmp_path / "dup-schema.json").write_text(json.dumps(SCHEMA_OBJ), encoding="utf-8")
    (tmp_path / "big.csv").write_text("s,y\nP,1\nN," + "0" * (csv.field_size_limit() + 1) + "\n",
                                      encoding="utf-8")
    (tmp_path / "empty.csv").write_text("", encoding="utf-8")
    for name in ("hand.csv", "hand-schema.json"):
        shutil.copy(GOLDEN / "inputs" / name, tmp_path / name)
    shutil.copy(GOLDEN / "expected" / "model-hand.json", tmp_path / "model-hand.json")
    lines = (GOLDEN / "inputs" / "hand.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    (tmp_path / "nul.csv").write_text("".join([*lines[:2], lines[2].replace("47.8", "47.8\x00", 1), *lines[3:]]),
                                      encoding="utf-8")
    (tmp_path / "latin1.csv").write_bytes(
        "".join([*lines[:200], "34.6,43.17,south,M,yes,yes,café\n", *lines[200:]]).encode("latin-1"))
    body = lines[1:] * 25  # 6000 rows: the bad record is in the second chunk
    (tmp_path / "blank.csv").write_text("".join([lines[0], *body[:5000], "\n", *body[5000:]]), encoding="utf-8")
    (tmp_path / "ragged.csv").write_text(
        "".join([lines[0], *body[:5000], body[5000].rstrip("\n") + ",extra\n", *body[5001:]]), encoding="utf-8")
    lines[4] = "inf" + lines[4][lines[4].index(","):]
    (tmp_path / "hand-inf.csv").write_text("".join(lines), encoding="utf-8")
    for name, column in (("hand-no-decision.json", "hired"), ("hand-no-age.json", "age")):
        schema = json.loads((GOLDEN / "inputs" / "hand-schema.json").read_text(encoding="utf-8"))
        del schema[column]
        (tmp_path / name).write_text(json.dumps(schema), encoding="utf-8")
    schema = json.loads((GOLDEN / "inputs" / "hand-schema.json").read_text(encoding="utf-8"))
    edits = {"perf-schema.json": {"sex": "categorical", "performed": {"role": "sensitive", "protected": "yes"}},
             "fm-schema.json": {"sex": {"role": "sensitive", "protected": "female"}},
             "protected-list.json": {"sex": {"role": "sensitive", "protected": ["F"]}},
             "positive-number.json": {"hired": {"role": "decision", "positive": 1}},
             "age-positive.json": {"age": {"role": "numeric", "positive": "yes"}}}
    for name, edit in edits.items():
        (tmp_path / name).write_text(json.dumps({**schema, **edit}), encoding="utf-8")
    rows = list(csv.reader(io.StringIO((GOLDEN / "inputs" / "hand.csv").read_text(encoding="utf-8"))))
    sex = rows[0].index("sex")
    for row in rows[1:]:
        row[sex] = {"F": "female", "M": "male"}[row[sex]]
    with open(tmp_path / "fm.csv", "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerows(rows)
    model_edits = {
        "bogus.json": lambda m: m["encoding"]["source_order"].insert(1, "bogus"),
        "mean-null.json": lambda m: m["encoding"]["numeric"]["age"].update(mean=None),
        "sd-null.json": lambda m: m["encoding"]["numeric"]["age"].update(sd=None),
        "sd-zero.json": lambda m: m["encoding"]["numeric"]["income"].update(sd=0),
        "sd-inf.json": lambda m: m["encoding"]["numeric"]["income"].update(sd=float("inf")),
        # positive and finite, so the file loads, but age standardizes to infinite values
        "sd-subnormal.json": lambda m: m["encoding"]["numeric"]["age"].update(sd=5e-324),
        "nested.json": lambda m: m.update(weights=[[w] for w in m["weights"]]),
        "weights-short.json": lambda m: m["weights"].pop(),
        "weights-nan.json": lambda m: m["weights"].__setitem__(0, float("nan")),  # json writes NaN, and reads it
        "format-2.json": lambda m: m.update(format="fairaudit-model/2"),
        "sex.json": add_sex_indicator,
        # the file of a group-aware model with sex also declared categorical: encode would read it as sex=M
        "sex-twice.json": lambda m: (add_sex_indicator(m), m["encoding"]["categorical"].update(
            sex={"name": "sex", "modalities": ["F", "M"]})),
        # a sensitive spec that source_order leaves out: no indicator column to flip
        "sex-unordered.json": lambda m: m["encoding"].update(sensitive={"name": "sex", "protected": "F"}),
        "region-clash.json": lambda m: (m["encoding"]["numeric"].update(
            {"region=north": {"name": "region=north", "mean": 0.0, "sd": 1.0}}),
            m["encoding"]["source_order"].insert(0, "region=north"), m["weights"].insert(0, 0.5)),
    }
    for name, edit in model_edits.items():
        model = json.loads((GOLDEN / "expected" / "model-hand.json").read_text(encoding="utf-8"))
        edit(model)
        (tmp_path / name).write_text(json.dumps(model), encoding="utf-8")
    specs = {"seed-float.json": {"seed": 0.0}, "seed-null.json": {"seed": None}, "n-float.json": {"n": 1.0},
             "n-bool.json": {"n": True}, "short-pair.json": {"mu_protected": [1.0]}}
    for name, spec in specs.items():
        (tmp_path / name).write_text(json.dumps(spec), encoding="utf-8")


@pytest.mark.parametrize("argv, code, fragment",
                         [pytest.param(*row[1:], id=row[0]) for row in MALFORMED])
def test_malformed_invocation_exit_code(malformed_inputs, capsys, argv, code, fragment):
    capsys.readouterr()
    before = sorted(os.listdir())
    assert main(argv) == code  # an escaping exception fails the test here
    err = capsys.readouterr().err
    assert err.startswith("fairaudit")
    assert "Traceback" not in err
    assert fragment in err
    assert sorted(os.listdir()) == before  # no output file was created


# every CLI guard at its exact bound: (id, argv, exit code)
BOUNDS = [
    ("level-0", ["audit", *HAND, "--level", "0"], 1),
    ("level-1", ["audit", *HAND, "--level", "1"], 1),
    ("rule-threshold-1", ["audit", *HAND, "--threshold", "1"], 3),
    ("rule-threshold-0", ["audit", *HAND, "--threshold", "0"], 1),
    ("test-fraction-0", ["train", *HAND, "--model", "m.json", "--test-fraction", "0"], 1),
    ("test-fraction-1", ["train", *HAND, "--model", "m.json", "--test-fraction", "1"], 1),
    ("replicates-minus-1", ["train", *HAND, "--model", "m.json", "--replicates", "-1"], 1),
    ("replicates-0", ["train", *HAND, "--model", "m.json", "--replicates", "0"], 0),
    ("replicates-1", ["train", *HAND, "--model", "m.json", "--replicates", "1"], 1),
    ("replicates-2", ["train", *HAND, "--model", "m.json", "--replicates", "2"], 0),
    # read as int() reads every other integer flag: a sign is a spelling, a superscript digit is not
    ("replicates-plus-3", ["train", *HAND, "--model", "m.json", "--replicates", "+3"], 0),
    ("replicates-superscript-2", ["train", *HAND, "--model", "m.json", "--replicates", "²"], 1),
    ("score-threshold-0", ["fliptest", *HAND, "--model", "model-hand.json", "--threshold", "0"], 1),
    ("lambda-1", ["repair", *HAND, "--features", "age", "--repaired-out", "r.csv", "--lambda", "1"], 0),
    ("lambda-minus-0", ["repair", *HAND, "--features", "age", "--repaired-out", "r.csv",
                        "--lambda", "-0.0"], 0),
    ("lambda-above-1", ["repair", *HAND, "--features", "age", "--repaired-out", "r.csv",
                        "--lambda", "1.0000000000000002"], 1),
    # the = form and the bare form read the same value: a negative float in any spelling is not an option
    ("lambda-below-0", ["repair", *HAND, "--features", "age", "--repaired-out", "r.csv", "--lambda=-5e-324"], 1),
    ("lambda-below-0-bare", ["repair", *HAND, "--features", "age", "--repaired-out", "r.csv",
                             "--lambda", "-5e-324"], 1),
    ("lambda-nan", ["repair", *HAND, "--features", "age", "--repaired-out", "r.csv", "--lambda", "nan"], 1),
    ("explain-replicates-0", ["explain", *HAND, "--model", "model-hand.json", "--replicates", "0"], 1),
    ("explain-replicates-1", ["explain", *HAND, "--model", "model-hand.json", "--replicates", "1"], 0),
    ("explain-row-minus-1", ["explain", *HAND, "--model", "model-hand.json", "--row", "-1"], 1),
    ("explain-row-0", ["explain", *HAND, "--model", "model-hand.json", "--row", "0"], 0),
    ("explain-row-n", ["explain", *HAND, "--model", "model-hand.json", "--row", "240"], 2),  # n is data
    ("explain-samples-9", ["explain", *HAND, "--model", "model-hand.json", "--row", "0", "--samples", "9"], 1),
    # 10 passes the flag's bound; the hand model reads two numeric features, so it needs 20
    ("explain-samples-10", ["explain", *HAND, "--model", "model-hand.json", "--row", "0", "--samples", "10"], 2),
    ("explain-samples-20", ["explain", *HAND, "--model", "model-hand.json", "--row", "0", "--samples", "20"], 0),
    ("explain-kernel-width-minus-1", ["explain", *HAND, "--model", "model-hand.json", "--row", "0",
                                      "--kernel-width", "-1"], 1),
    ("explain-kernel-width-0", ["explain", *HAND, "--model", "model-hand.json", "--row", "0",
                                "--kernel-width", "0"], 1),
    ("explain-kernel-width-1", ["explain", *HAND, "--model", "model-hand.json", "--row", "0",
                                "--kernel-width", "1"], 0),
    ("explain-kernel-width-nan", ["explain", *HAND, "--model", "model-hand.json", "--row", "0",
                                  "--kernel-width", "nan"], 1),
    ("synth-n-0", ["synth", "--n", "0", "--data", "o.csv"], 1),
    ("synth-n-1", ["synth", "--n", "1", "--data", "o.csv"], 2),  # one row holds one group
    ("synth-n-2", ["synth", "--n", "2", "--data", "o.csv"], 0),
    ("synth-protected-fraction-0", ["synth", "--n", "20", "--protected-fraction", "0", "--data", "o.csv"], 1),
    ("synth-protected-fraction-1", ["synth", "--n", "20", "--protected-fraction", "1", "--data", "o.csv"], 1),
    ("synth-protected-fraction-1.5", ["synth", "--n", "20", "--protected-fraction", "1.5", "--data", "o.csv"], 1),
    ("synth-group-bias-exponent", ["synth", "--n", "50", "--group-bias", "-1e-3", "--data", "o.csv"], 0),
    ("synth-group-bias-inf", ["synth", "--n", "20", "--group-bias", "inf", "--data", "o.csv"], 1),
    ("synth-group-bias-minus-inf", ["synth", "--n", "20", "--group-bias", "-inf", "--data", "o.csv"], 1),
    ("synth-group-bias-nan", ["synth", "--n", "20", "--group-bias", "nan", "--data", "o.csv"], 1),
    ("synth-target-di-0", ["synth", "--n", "20", "--target-di", "0", "--data", "o.csv"], 1),
    ("synth-target-di-minus-1", ["synth", "--n", "20", "--target-di", "-1", "--data", "o.csv"], 1),
    ("synth-target-di-nan", ["synth", "--n", "20", "--target-di", "nan", "--data", "o.csv"], 1),
    # above 0 passes the flag; whether a group bias reaches it depends on the spec, which is data
    ("synth-target-di-smallest-positive", ["synth", "--n", "20", "--target-di", "5e-324", "--data", "o.csv"], 2),
    ("synth-target-di-1e9", ["synth", "--n", "20", "--target-di", "1e9", "--data", "o.csv"], 2),
]


@pytest.mark.parametrize("argv, code", [pytest.param(*row[1:], id=row[0]) for row in BOUNDS])
def test_cli_guard_at_its_bound(malformed_inputs, argv, code):
    assert main([*argv, "--no-timestamp"]) == code


# -- exit-code contract: generated inputs ----------------------------------------------

_FUZZ_CELLS = {
    "labels": st.sampled_from(["P", "N"]),
    "bits": st.sampled_from(["0", "1"]),
    "numbers": st.one_of(st.floats().map(repr), st.sampled_from(["", "nan", "-inf", " 1 ", "1_0", "x1"])),
    "any": st.one_of(
        st.text(st.sampled_from(['P', '0', '1', '.', 'e', '-', ',', '"', '\n', '\r', '\x00', ' ', 'é']),
                max_size=4),
        st.just("9" * (csv.field_size_limit() + 1)),  # past the csv module's field limit
    ),
}
_FUZZ_ROLES = st.one_of(
    st.sampled_from(["numeric", "categorical", "ignored", "bogus", {"role": "sensitive"}, {"positive": "1"}]),
    st.builds(lambda role, label: {"role": role, "protected" if role == "sensitive" else "positive": label},
              st.sampled_from(["sensitive", "decision", "outcome"]), st.sampled_from(["P", "N", "1", "0", ""])),
)


@st.composite
def fuzz_inputs(draw):
    """(CSV bytes, schema object): a table that is often valid and often not, in any of many ways."""
    header = draw(st.permutations(["s", "y", "x", "t", "c"]))[:draw(st.sampled_from([5, 5, 4, 3, 1]))]
    if draw(st.integers(0, 4)) == 0:
        header.append(draw(st.sampled_from([*header, "", "z"])))
    usual = {"s": "labels", "y": "bits", "t": "bits"}
    kinds = [usual.get(name) if name in usual and draw(st.integers(0, 4))
             else draw(st.sampled_from(list(_FUZZ_CELLS))) for name in header]
    rows = [[draw(_FUZZ_CELLS[k]) for k in kinds] for _ in range(draw(st.integers(0, 10)))]
    for row in rows:
        if draw(st.integers(0, 9)) == 0:  # a ragged record
            del row[draw(st.integers(0, len(row))):]
            row.extend(draw(st.lists(_FUZZ_CELLS["any"], max_size=2)))
    text = io.StringIO()
    if draw(st.booleans()):
        csv.writer(text).writerows([header, *rows])
    else:  # no quoting at all: stray quotes and bare line breaks reach the reader as they are
        text.write("".join(",".join(row) + "\n" for row in [header, *rows]))
    prefix = draw(st.sampled_from([b"\xef\xbb\xbf", b"\xff"])) if draw(st.integers(0, 4)) == 0 else b""
    schema = {"s": {"role": "sensitive", "protected": "P"}, "y": {"role": "decision", "positive": "1"}}
    if draw(st.booleans()):
        schema.update(draw(st.dictionaries(st.sampled_from(["s", "y", "x", "t", "c", "z"]), _FUZZ_ROLES,
                                           max_size=2)))
    return prefix + text.getvalue().encode("utf-8"), schema


# a valid model over two of the fuzzed columns (x numeric, c categorical) that targets the decision y
_FUZZ_MODEL = {
    "format": "fairaudit-model/1", "intercept": 0.1, "weights": [0.5, -0.25], "converged": True,
    "target_column": "y", "config": {"target": "decision"},
    "encoding": {"source_order": ["x", "c"], "numeric": {"x": {"name": "x", "mean": 0.0, "sd": 1.0}},
                 "categorical": {"c": {"name": "c", "modalities": ["0", "1"]}}, "sensitive": None},
}


def _assert_exit_code_contract(argv, codes=(0, 2)):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)  # an escaping exception fails the test here
    assert code in codes, argv
    # an error names the program; 3 is a verdict, which the report carries
    assert code != 2 or err.getvalue().startswith("fairaudit"), err.getvalue()
    assert "Traceback" not in err.getvalue()


@settings(max_examples=80, deadline=None)
@given(inputs=fuzz_inputs())
def test_generated_inputs_keep_the_exit_code_contract(tmp_path_factory, inputs):
    work = tmp_path_factory.mktemp("fuzz")
    (work / "d.csv").write_bytes(inputs[0])
    (work / "s.json").write_text(json.dumps(inputs[1]), encoding="utf-8")
    (work / "m.json").write_text(json.dumps(_FUZZ_MODEL), encoding="utf-8")
    common = ["--data", str(work / "d.csv"), "--schema", str(work / "s.json"), "--no-timestamp"]
    model = ["--model", str(work / "m.json")]
    _assert_exit_code_contract(["validate", *common])
    _assert_exit_code_contract(["audit", *common, "--out", str(work / "r.json")], (0, 2, 3))
    for argv in (["train", *common, "--model", str(work / "t.json"), "--replicates", "2"],
                 ["fliptest", *common, *model],
                 ["explain", *common, *model, "--replicates", "2", "--row", "0", "--samples", "20"],
                 ["repair", *common, "--features", "x", "--repaired-out", str(work / "r.csv")]):
        _assert_exit_code_contract(argv)


_SPEC_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.floats(), st.text(max_size=3),
                         st.lists(st.one_of(st.floats(-3, 3), st.none()), max_size=3))


@st.composite
def fuzz_specs(draw):
    """A generator spec object: each field valid, or of a wrong type, shape or range."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_SPEC_VALUES)  # not an object
    valid = {f.name: f.default for f in fields(GeneratorSpec)} | {"n": 30, "seed": 5}
    names = draw(st.lists(st.sampled_from([*valid, "bogus"]), unique=True, max_size=4))
    return {name: draw(st.one_of(st.just(valid.get(name)), _SPEC_VALUES)) for name in names}


@settings(max_examples=60, deadline=None)
@given(spec=fuzz_specs(), target_di=st.sampled_from([None, "0.7", "0", "1e9"]))
def test_generated_specs_keep_the_exit_code_contract(tmp_path_factory, spec, target_di):
    work = tmp_path_factory.mktemp("spec")
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    argv = ["synth", "--spec", str(work / "spec.json"), "--data", str(work / "o.csv"), "--no-timestamp"]
    extra = [] if target_di is None else ["--target-di", target_di]
    # 0 is out of the flag's range, refused before the spec file is read
    _assert_exit_code_contract(argv + extra, (1,) if target_di == "0" else (0, 2))


# -- metamorphic relations: an input change whose effect on the report is known ---------


def _rows_shuffled(records, seed):
    header, *rows = records
    return [header, *(rows[i] for i in np.random.default_rng(seed).permutation(len(rows)))]


def _columns_reversed(records, _seed):
    return [record[::-1] for record in records]


# (id, transform of the CSV records, how the reports compare: "bytes", or "parsed" for equal JSON values)
RELATIONS = [
    ("rows-shuffled", _rows_shuffled, "bytes"),
    ("columns-reversed", _columns_reversed, "parsed"),  # report keys follow the header's order
]


def _validate_and_audit(work: Path, csv_bytes: bytes, schema: dict) -> list:
    """(exit code, report bytes or None) of `validate` and of `audit` on one table."""
    work.mkdir(parents=True)
    (work / "d.csv").write_bytes(csv_bytes)
    (work / "s.json").write_text(json.dumps(schema), encoding="utf-8")
    runs = []
    for sub in ("validate", "audit"):
        out = work / f"{sub}.json"
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([sub, "--data", str(work / "d.csv"), "--schema", str(work / "s.json"),
                         "--out", str(out), "--no-timestamp"])
        runs.append((code, out.read_bytes() if code in (0, 3) else None))
    return runs


def _check_relation(work: Path, csv_bytes: bytes, schema: dict, transform, compare: str, seed: int) -> bool:
    """Whether `validate` ran on the table; if it did, assert that the relation holds."""
    before = _validate_and_audit(work / "before", csv_bytes, schema)
    if before[0][0] != 0:
        return False
    bom = b"\xef\xbb\xbf" if csv_bytes.startswith(b"\xef\xbb\xbf") else b""
    records = list(csv.reader(io.StringIO(csv_bytes[len(bom):].decode("utf-8"), newline="")))
    text = io.StringIO()
    csv.writer(text).writerows(transform(records, seed))
    after = _validate_and_audit(work / "after", bom + text.getvalue().encode("utf-8"), schema)
    for (code, report), (code_after, report_after) in zip(before, after):
        assert code_after == code
        if compare == "bytes" or report is None:
            assert report_after == report
        else:
            assert json.loads(report_after) == json.loads(report)
    return True


@pytest.mark.parametrize("transform, compare", [pytest.param(*row[1:], id=row[0]) for row in RELATIONS])
def test_relation_on_the_hand_table(tmp_path, transform, compare):
    schema = json.loads((GOLDEN / "inputs" / "hand-schema.json").read_text(encoding="utf-8"))
    csv_bytes = (GOLDEN / "inputs" / "hand.csv").read_bytes()
    for seed in range(3):
        assert _check_relation(tmp_path / str(seed), csv_bytes, schema, transform, compare, seed)


@pytest.mark.parametrize("transform, compare", [pytest.param(*row[1:], id=row[0]) for row in RELATIONS])
@settings(max_examples=200, deadline=None)  # about one generated table in ten is valid
@given(inputs=fuzz_inputs(), seed=st.integers(0, 2**32 - 1))
def test_relation_on_generated_tables(tmp_path_factory, transform, compare, inputs, seed):
    _check_relation(tmp_path_factory.mktemp("relation"), *inputs, transform, compare, seed)
