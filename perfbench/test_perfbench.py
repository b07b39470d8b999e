"""Self-test of the benchmark: smoke runs at tiny n, and checks that catch corruption."""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OP_METRICS = {
    "audit_gate": {"cmd.validate_s", "cmd.audit_s", "cmd.fliptest_s"},
    "model_cv": {"cmd.train_s", "cmd.explain_s"},
    "repair_roundtrip": {"cmd.synth_s", "cmd.repair_s"},
    "library_crosscheck": {"lib.bootstrap_ci_s", "lib.auc_s"},
}


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def test_benchmark_json_lists_what_the_run_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: unit for name, unit, _, _ in run.PER_LAYER}
    manifest = json.loads((HERE / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest["per_layer_moves"]) == {name for name, _, _, _ in run.PER_LAYER}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_metric(workload):
    result, summary = run.run(ROOT, workload, seed=3, seconds=0, trace=False, smoke=True)
    assert result["correct"] and result["failed"] == 0, summary
    assert _units(result["metrics"]) == dict(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {line.split()[0] for line in summary[1:]}
    assert OP_METRICS[workload] | {"fail_ratio"} | dict(run.END_TO_END).keys() <= printed

    result, summary = run.run(ROOT, workload, seed=3, seconds=0, trace=True, smoke=True)
    assert result["correct"], summary
    assert _units(result["metrics"]) == {name: unit for name, unit, _, _ in run.PER_LAYER}
    assert not any(line.startswith("  absent functions") for line in summary)


def _corrupt_after(monkeypatch, tag: str, corrupt) -> None:
    spawn = run.Bench.spawn

    def spawn_then_corrupt(self, argv, name):
        outcome = spawn(self, argv, name)
        if name == tag:
            corrupt(self)
        return outcome

    monkeypatch.setattr(run.Bench, "spawn", spawn_then_corrupt)


def _edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text(encoding="utf-8"))
    edit(obj)
    path.write_text(json.dumps(obj), encoding="utf-8")


def test_contingency_off_by_one_is_a_failure(monkeypatch):
    def corrupt(b):
        _edit_json(b.path("audit.json"), lambda r: r["contingency"].update(a=r["contingency"]["a"] + 1))
    _corrupt_after(monkeypatch, "cmd.audit_s", corrupt)
    result, summary = run.run(ROOT, "audit_gate", seed=3, seconds=0, trace=False, smoke=True)
    assert not result["correct"] and result["failed"] == 1
    assert any("contingency a=" in line for line in summary)


def test_wrong_auc_is_a_failure(monkeypatch):
    def corrupt(b):
        _edit_json(b.path("library.json"), lambda r: r["values"].update(auc=r["values"]["auc"] + 1e-9))
    _corrupt_after(monkeypatch, "lib.pass", corrupt)
    result, summary = run.run(ROOT, "library_crosscheck", seed=3, seconds=0, trace=False, smoke=True)
    assert not result["correct"] and result["failed"] == 1
    assert any("auc" in line for line in summary if line.startswith("check failed"))


def test_repair_check_compares_every_other_cell(tmp_path):
    table = gen.make_table(50, gen.stream(1, 1), 0.0)
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    gen.write_csv(table, src, gen.stream(1, 2))
    shutil.copy(src, out)
    assert run.check_repair(src, out, ("x1", "x2")) == []
    header, rows = gen.read_csv(out)
    rows[7][header.index("note")] += "!"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    assert run.check_repair(src, out, ("x1", "x2"))
    assert run.check_repair(src, src, ("x1",)) == []


def test_unconverged_training_is_a_failure():
    report = {"model": {"converged": True}, "cv_error": {"replicates": 10, "rate": 0.2}}
    assert run.check_train(report, 10) == []
    report["model"]["converged"] = False
    assert run.check_train(report, 10)


def test_tracer_skips_a_missing_function_and_restores_the_package(monkeypatch):
    import fairaudit.cli
    import fairaudit.data

    original = fairaudit.data.load_csv
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("fairaudit.model", "no_such_function", "model.no_such_function"),
        ("fairaudit.no_such_module", "f", "nowhere.f"),
    ))
    t = tracer.Tracer().install()
    try:
        assert t.absent == ["model.no_such_function", "nowhere.f"]
        assert fairaudit.cli.load_csv is fairaudit.data.load_csv is not original
    finally:
        t.remove()
    assert fairaudit.cli.load_csv is fairaudit.data.load_csv is original


def test_absent_function_reads_null_in_the_trace_and_zero_in_the_result():
    p = run.Pass(op_s={"cmd.train_s": 1.0}, rows=1,
                 spans=[{"spans": [], "counts": {}, "absent": ["model.loss_and_gradient"]}])
    values = run.layer_values(p)
    assert values["model.loss_evals"] is None
    assert values["model.train_logistic.calls"] == 0
    result, summary = run._summarise("model_cv", [(p, False), (p, True)], [], 0, 2, True)
    assert result["metrics"]["model.loss_evals"] == {"value": 0, "unit": "count"}
    assert any(line.split()[:3] == ["model.loss_evals", "count", "absent"] for line in summary)


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["d", 5.0, 6.0, 0]]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
