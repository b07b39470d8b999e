"""Benchmark of the fairaudit CLI and library.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout: the package is imported from
``src/``. Inputs are generated from ``--seed`` by ``gen.py``. Operations run
one after another (closed loop, one client) and passes over the workload
repeat until ``--seconds`` have been measured. Every output is checked
against an oracle that the benchmark computes itself. Each metric is printed
with its unit, median and sample count; the last line of standard output is
one JSON object: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1`` (whose spans also go to ``perfbench/_out/``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import gen  # noqa: E402
from tracer import TARGETS, self_times  # noqa: E402

WORKLOADS = ("audit_gate", "model_cv", "repair_roundtrip", "library_crosscheck")
# input sizes per workload; "smoke" is the tiny variant the self-test runs
SIZES = {
    "full": {"audit_n": 100_000, "audit_train_n": 5_000, "cv_n": 5_000,
             "synth_n": 100_000, "repair_n": 5_000, "boot_n": 10_000, "B": 1_000,
             "auc_n": 1_000_000, "setup_runs": 7, "min_passes": 3},
    "smoke": {"audit_n": 400, "audit_train_n": 300, "cv_n": 300,
              "synth_n": 300, "repair_n": 300, "boot_n": 400, "B": 100,
              "auc_n": 2_000, "setup_runs": 1, "min_passes": 1},
}
END_TO_END = (("setup_s", "s"), ("total_s", "s"), ("rows_per_s", "rows/s"), ("peak_rss_mb", "MB"))
DEADLINE_S = 150.0  # stop starting passes after this; the run must end within 180 s
FOUR_FIFTHS = 0.8


def _layer_metrics() -> tuple[tuple[str, str, str, str], ...]:
    """(metric, unit, kind, source) for every per-layer metric.

    kind: "s" total span time, "calls", "rss" rise of ru_maxrss, "count" a
    tracer counter, "self" a layer's summed self time, "derived" computed here.
    """
    m = [
        ("data.load_csv.s", "s", "s", "data.load_csv"),
        ("data.load_csv.calls", "count", "calls", "data.load_csv"),
        ("data.load_csv.rss_rise_mb", "MB", "rss", "data.load_csv"),
        ("data.Dataset.s", "s", "s", "data.Dataset"),
        ("data.save_csv.s", "s", "s", "data.save_csv"),
        ("data.save_csv.bytes", "bytes", "count", "data.save_csv"),
        ("data.with_values.s", "s", "s", "data.with_values"),
        ("data.split.s", "s", "s", "data.split"),
        ("data.take.calls", "count", "calls", "data.take"),
        ("data.take.s", "s", "s", "data.take"),
        ("data.validate.s", "s", "s", "data.validate"),
        ("model.train_logistic.s", "s", "s", "model.train_logistic"),
        ("model.train_logistic.calls", "count", "calls", "model.train_logistic"),
        ("model.train_logistic.rss_rise_mb", "MB", "rss", "model.train_logistic"),
        ("model.loss_evals", "count", "calls", "model.loss_and_gradient"),
        ("model.sigmoid.s", "s", "s", "model.sigmoid"),
        ("model.cross_validate.s", "s", "s", "model.cross_validate"),
        ("model.encode.s", "s", "s", "model.encode"),
        ("model.encode.calls", "count", "calls", "model.encode"),
        ("model.predict_scores.s", "s", "s", "model.predict_scores"),
        ("model.predict_scores.calls", "count", "calls", "model.predict_scores"),
        ("model.load_model.s", "s", "s", "model.load_model"),
        ("metrics.contingency.s", "s", "s", "metrics.contingency"),
        ("metrics.group_confusion.s", "s", "s", "metrics.group_confusion"),
        ("metrics.auc.s", "s", "s", "metrics.auc"),
        ("inference.bootstrap_ci.s", "s", "s", "inference.bootstrap_ci"),
        ("inference.bootstrap.replicates", "count", "count", "inference.bootstrap_ci"),
        ("inference.bootstrap.failed", "count", "count", "inference.bootstrap_ci"),
        ("inference.bootstrap.useful_ratio", "1", "derived", "inference.bootstrap_ci"),
        ("inference.di_ci_delta.s", "s", "s", "inference.di_ci_delta"),
        ("audit.flip_test.s", "s", "s", "audit.flip_test"),
        ("audit.swap_sensitive.s", "s", "s", "audit.swap_sensitive"),
        ("repair.fit_repair.s", "s", "s", "repair.fit_repair"),
        ("repair.apply_repair.s", "s", "s", "repair.apply_repair"),
        ("repair.save_plan.s", "s", "s", "repair.save_plan"),
        ("repair.clamped", "count", "count", "repair.apply_repair"),
        ("explain.permutation_importance.s", "s", "s", "explain.permutation_importance"),
        ("explain.local_surrogate.s", "s", "s", "explain.local_surrogate"),
        ("synth.solve_group_bias.s", "s", "s", "synth.solve_group_bias"),
        ("synth.true_disparate_impact.calls", "count", "calls", "synth.true_disparate_impact"),
        ("synth.generate.s", "s", "s", "synth.generate"),
        ("rng.u64_block.s", "s", "s", "rng.u64_block"),
        ("rng.u64_block.calls", "count", "calls", "rng.u64_block"),
        ("cli.main.s", "s", "s", "cli.main"),
        ("cli.emit.s", "s", "s", "cli.emit"),
        ("cli.render_markdown.s", "s", "s", "cli.render_markdown"),
        ("cli.report_bytes", "bytes", "derived", ""),
    ]
    for layer in dict.fromkeys(name.split(".")[0] for _, _, name in TARGETS):
        m.append((f"{layer}.self_s", "s", "self", layer))
    m.append(("trace.overhead_s", "s", "derived", ""))
    return tuple(m)


PER_LAYER = _layer_metrics()


class SetupError(Exception):
    """The workload's inputs could not be prepared."""


@dataclass
class Op:
    """One operation of a pass: a CLI subcommand, or the library pass."""

    name: str  # metric name of its wall time, e.g. "cmd.audit_s"
    args: list[str]  # CLI arguments, or the library child's arguments
    rows: int  # input rows, for rows_per_s
    check: Callable[[dict, "Outcome"], list[str]]
    report: Path | None = None  # JSON report to load for the check
    outputs: tuple[Path, ...] = ()  # files whose bytes must repeat across passes
    expect_exit: int = 0
    library: bool = False


@dataclass
class Outcome:
    seconds: float
    exit_code: int
    peak_rss_mb: float
    stderr: str
    report: dict | None = None
    times: dict = field(default_factory=dict)  # library: in-process call times


class Bench:
    """One run of one workload in a scratch directory inside the checkout."""

    def __init__(self, root: Path, workload: str, seed: int, smoke: bool):
        self.seed = seed
        self.size = SIZES["smoke" if smoke else "full"]
        self.work = HERE / "_work" / f"{workload}-{seed}-{os.getpid()}"
        # bytecode is cached under perfbench/, as an installed package would have it,
        # whatever the caller's PYTHONDONTWRITEBYTECODE says
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env.update(PYTHONPATH=str(root / "src"), PYTHONPYCACHEPREFIX=str(HERE / "_pycache"))
        self.entry = _entry_point(root)
        self.started = time.perf_counter()
        self.hashes: dict[Path, str] = {}

    def path(self, name: str) -> Path:
        return self.work / name

    # -- processes ---------------------------------------------------------------

    def spawn(self, argv: list[str], tag: str) -> Outcome:
        """Run one child process to completion; wall time and peak RSS via wait4."""
        out, err = self.path(f"{tag}.stdout"), self.path(f"{tag}.stderr")
        timeout = max(1.0, DEADLINE_S + 20.0 - (time.perf_counter() - self.started))
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=self.work, env=self.env)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: take the child down too
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(seconds, proc.returncode, usage.ru_maxrss / 1024.0,
                       err.read_text(encoding="utf-8", errors="replace"))

    def cli_argv(self, args: list[str], spans: Path | None = None) -> list[str]:
        if spans is not None:
            return [sys.executable, str(HERE / "child.py"), "--spans", str(spans),
                    "cli", self.entry, *args]
        module, _, function = self.entry.partition(":")
        code = f"import sys; from {module} import {function}; sys.exit({function}())"
        return [sys.executable, "-c", code, *args]

    def setup_cli(self, args: list[str]) -> None:
        """Run a CLI step of the set-up, which must succeed and is not timed."""
        o = self.spawn(self.cli_argv(args), "setup")
        if o.exit_code != 0:
            raise SetupError(f"set-up step {args[0]} exited {o.exit_code}: {o.stderr[-2000:]}")

    def run_op(self, op: Op, spans: Path | None, seen: dict) -> tuple[Outcome, list[str]]:
        for path in (op.report, *op.outputs):
            if path is not None:
                path.unlink(missing_ok=True)  # a stale file must not pass for this run's output
        if op.library:
            argv = [sys.executable, str(HERE / "child.py")]
            argv += ["--spans", str(spans)] if spans else []
            o = self.spawn(argv + ["lib", *op.args], op.name)
        else:
            o = self.spawn(self.cli_argv(op.args, spans), op.name)
        problems = []
        if o.exit_code != op.expect_exit:
            problems.append(f"exit code {o.exit_code}, expected {op.expect_exit}: {o.stderr[-500:]}")
        if "Traceback (most recent call last)" in o.stderr:
            problems.append("traceback on stderr")
        if op.report is not None and not problems:
            try:
                o.report = json.loads(op.report.read_text(encoding="utf-8"))
            except (OSError, ValueError) as e:
                problems.append(f"unreadable report: {e}")
        if op.library and o.report is not None:
            o.times = o.report.get("times", {})
        if not problems:
            seen[op.name] = o.report
            try:
                problems += op.check(seen, o)
            except Exception as e:  # a malformed output is a failed operation, not a crash
                problems.append(f"check raised {type(e).__name__}: {e}")
            problems += self._same_bytes(op)
        return o, problems

    def _same_bytes(self, op: Op) -> list[str]:
        """Outputs of ``--no-timestamp`` runs on the same inputs hash identically."""
        problems = []
        for path in op.outputs:
            if not path.exists():
                problems.append(f"missing output {path.name}")
                continue
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if self.hashes.setdefault(path, digest) != digest:
                problems.append(f"{path.name} differs from the first pass")
        return problems

    def measure_setup(self, library_args: list[str] | None) -> list[float]:
        """Cold starts: ``--version``, or import plus load_csv for the library."""
        if library_args is None:
            argv = self.cli_argv(["--version"])
        else:
            data, schema = library_args[0], library_args[1]
            code = ("import json, sys, fairaudit; "
                    "fairaudit.load_csv(sys.argv[1], json.load(open(sys.argv[2])))")
            argv = [sys.executable, "-c", code, data, schema]
        self.spawn(argv, "warmup")  # fills the bytecode cache
        samples = []
        for _ in range(self.size["setup_runs"]):
            o = self.spawn(argv, "setup")
            if o.exit_code != 0:
                raise SetupError(f"cold start exited {o.exit_code}: {o.stderr[-2000:]}")
            samples.append(o.seconds)
        return samples


def _entry_point(root: Path) -> str:
    """The ``fairaudit`` console script as declared in pyproject.toml."""
    with open(root / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["fairaudit"]


# -- output checks ---------------------------------------------------------------


def check_validate(report: dict, table: gen.Table) -> list[str]:
    ds = report["dataset"]
    problems = []
    if ds["n"] != table.n:
        problems.append(f"validate n={ds['n']}, expected {table.n}")
    n1 = int(table.protected.sum())
    if ds["group_sizes"] != {"protected": n1, "non_protected": table.n - n1}:
        problems.append(f"validate group sizes {ds['group_sizes']}")
    for name in gen.NUMERICS:
        missing = int(np.count_nonzero(np.isnan(table.numerics[name])))
        if ds["columns"][name]["missing"] != missing:
            problems.append(f"validate {name} missing={ds['columns'][name]['missing']}, expected {missing}")
    return problems


def expected_audit_exit(table: gen.Table) -> int:
    di = gen.disparate_impact(gen.contingency(table.protected, table.decision))
    return 3 if di < FOUR_FIFTHS else 0


def check_audit(report: dict, table: gen.Table) -> list[str]:
    """Contingency counts exactly, DI to 1e-12, flip indices in range."""
    oracle = gen.contingency(table.protected, table.decision)
    problems = [f"contingency {k}={report['contingency'][k]}, expected {v}"
                for k, v in oracle.items() if report["contingency"][k] != v]
    di = report["metrics"]["disparate_impact"]["value"]
    if not abs(di - gen.disparate_impact(oracle)) <= 1e-12:
        problems.append(f"disparate_impact {di}, expected {gen.disparate_impact(oracle)}")
    return problems + check_flips(report["fliptest"], table.n)


def check_flips(ft: dict, n: int) -> list[str]:
    problems = []
    for side in ("to_positive", "to_negative"):
        idx = ft[side]
        if ft[f"flips_{side}"] != len(idx):
            problems.append(f"flips_{side}={ft[f'flips_{side}']} but {len(idx)} indices")
        if any(not 0 <= i < n for i in idx) or idx != sorted(set(idx)):
            problems.append(f"{side} indices out of range or not sorted and unique")
    return problems


def check_fliptest(report: dict, audit: dict | None, n: int) -> list[str]:
    ft = report["fliptest"]
    problems = check_flips(ft, n)
    if audit is None:
        return problems + ["no audit report in this pass to compare flips with"]
    for key in ("flips_to_positive", "flips_to_negative", "to_positive", "to_negative"):
        if ft[key] != audit["fliptest"][key]:
            problems.append(f"fliptest {key} differs from audit's")
    return problems


def check_train(report: dict, replicates: int) -> list[str]:
    problems = []
    if report["model"]["converged"] is not True:
        problems.append("train did not converge")
    if report["cv_error"]["replicates"] != replicates:
        problems.append(f"cv replicates {report['cv_error']['replicates']}")
    if not 0.0 <= report["cv_error"]["rate"] <= 1.0:
        problems.append(f"cv error {report['cv_error']['rate']}")
    return problems


def check_explain(report: dict, row: int, wanted: set[str]) -> list[str]:
    ex = report["explain"]
    problems = []
    if ex["local_surrogate"]["row"] != row:
        problems.append(f"surrogate row {ex['local_surrogate']['row']}, expected {row}")
    if set(ex["permutation_importance"]["importances"]) != wanted:
        problems.append(f"importances for {sorted(ex['permutation_importance']['importances'])}")
    return problems


def check_synth(report: dict, csv_path: Path, n: int, target_di: float) -> list[str]:
    """Row count, exact DI to 1e-9 of the target, empirical DI recounted from the CSV."""
    header, rows = gen.read_csv(csv_path)
    problems = []
    if len(rows) != n:
        problems.append(f"synth wrote {len(rows)} rows, expected {n}")
    syn = report["synth"]
    if not abs(syn["true_di"] - target_di) <= 1e-9:
        problems.append(f"synth true_di {syn['true_di']}, target {target_di}")
    s, y = header.index("s"), header.index("y")
    protected = np.array([r[s] == "P" for r in rows])
    positive = np.array([r[y] == "1" for r in rows])
    di = gen.disparate_impact(gen.contingency(protected, positive))
    if not abs(syn["empirical_di"] - di) <= 1e-12:
        problems.append(f"synth empirical_di {syn['empirical_di']}, recount {di}")
    return problems


def check_repair(src: Path, repaired: Path, features: tuple[str, ...]) -> list[str]:
    """n rows kept; every other column equal to the input, cell for cell."""
    header, rows = gen.read_csv(src)
    out_header, out_rows = gen.read_csv(repaired)
    if out_header != header:
        return [f"repaired header {out_header}, expected {header}"]
    if len(out_rows) != len(rows):
        return [f"repaired CSV has {len(out_rows)} rows, expected {len(rows)}"]
    problems = []
    for j, name in enumerate(header):
        numeric = name in gen.NUMERICS
        for i, (a, b) in enumerate(zip(rows, out_rows)):
            x, y = a[j], b[j]
            if name in features:
                same = (x == "") == (y == "")
            elif numeric:
                same = x == y or (x != "" and y != "" and float(x) == float(y))
            else:
                same = x == y
            if not same:
                problems.append(f"repaired column {name} row {i}: {y!r}, input {x!r}")
                break
    return problems


def check_library(values: dict, table: gen.Table, auc_oracle: float, B: int) -> list[str]:
    problems = []
    points = {"di": gen.disparate_impact(gen.contingency(table.protected, table.decision)),
              "eo": gen.equal_opportunity(table)}
    for key, point in points.items():
        iv = values[key]
        if not iv["lo"] <= point <= iv["hi"]:
            problems.append(f"bootstrap {key} interval [{iv['lo']}, {iv['hi']}] misses {point}")
        if iv["replicates"] != B:
            problems.append(f"bootstrap {key} replicates {iv['replicates']}, expected {B}")
    if not abs(values["auc"] - auc_oracle) <= 1e-12:
        problems.append(f"auc {values['auc']}, expected {auc_oracle}")
    return problems


# -- workloads ---------------------------------------------------------------------


def _cli_common(data: Path, schema: Path, report: Path) -> list[str]:
    return ["--data", str(data), "--schema", str(schema), "--out", str(report), "--no-timestamp"]


def _inputs(b: Bench, n: int, index: int, name: str, bias: float,
            schema: dict = gen.SCHEMA) -> tuple[gen.Table, Path, Path]:
    table = gen.make_table(n, gen.stream(b.seed, index), bias)
    data, schema_path = b.path(f"{name}.csv"), b.path("schema.json")
    gen.write_csv(table, data, gen.stream(b.seed, index + 100))
    gen.write_schema(schema_path, schema)
    return table, data, schema_path


def setup_audit_gate(b: Bench) -> list[Op]:
    """validate, audit --model --format both, fliptest: the CI-gate use."""
    n = b.size["audit_n"]
    bias = float(gen.stream(b.seed, 0).uniform(-0.8, 0.3))
    table, data, schema = _inputs(b, n, 1, "data", bias)
    _, train_data, _ = _inputs(b, b.size["audit_train_n"], 2, "train", bias)
    model = b.path("model.json")
    b.setup_cli(["train", *_cli_common(train_data, schema, b.path("setup-train.json")),
                 "--model", str(model), "--include-sensitive", "--replicates", "0"])
    reports = {k: b.path(f"{k}.json") for k in ("validate", "audit", "fliptest")}
    return [
        Op("cmd.validate_s", ["validate", *_cli_common(data, schema, reports["validate"])],
           n, lambda seen, o: check_validate(o.report, table),
           reports["validate"], (reports["validate"],)),
        Op("cmd.audit_s", ["audit", *_cli_common(data, schema, reports["audit"]),
                           "--model", str(model), "--format", "both"],
           n, lambda seen, o: check_audit(o.report, table),
           reports["audit"], (reports["audit"], reports["audit"].with_suffix(".md")),
           expect_exit=expected_audit_exit(table)),
        Op("cmd.fliptest_s", ["fliptest", *_cli_common(data, schema, reports["fliptest"]),
                              "--model", str(model)],
           n, lambda seen, o: check_fliptest(o.report, seen.get("cmd.audit_s"), n),
           reports["fliptest"], (reports["fliptest"],)),
    ]


def setup_model_cv(b: Bench) -> list[Op]:
    """train --include-sensitive with 10 CV replicates, then explain --row.

    The categorical is left out of the schema here: with its one-hot columns,
    gradient descent takes about 1.9k loss evaluations per fit and the count
    moves by +-8% from seed to seed; without them about 240, within +-2%.
    """
    n = b.size["cv_n"]
    roles = {k: v for k, v in gen.SCHEMA.items() if k != "cat"}
    _, data, schema = _inputs(b, n, 1, "data", -0.5, roles)
    model, row = b.path("model.json"), int(gen.stream(b.seed, 0).integers(n))
    train_report, explain_report = b.path("train.json"), b.path("explain.json")
    seed = str(b.seed % 1000)
    return [
        Op("cmd.train_s", ["train", *_cli_common(data, schema, train_report),
                           "--model", str(model), "--include-sensitive", "--seed", seed],
           n, lambda seen, o: check_train(o.report, 10), train_report, (train_report, model)),
        Op("cmd.explain_s", ["explain", *_cli_common(data, schema, explain_report),
                             "--model", str(model), "--row", str(row), "--seed", seed],
           n, lambda seen, o: check_explain(o.report, row, set(roles) - {"y", "t"}),
           explain_report, (explain_report,)),
    ]


def setup_repair_roundtrip(b: Bench) -> list[Op]:
    """synth --target-di to its own path, then repair --plan-out on a generated input."""
    n_synth, n = b.size["synth_n"], b.size["repair_n"]
    target = round(float(gen.stream(b.seed, 0).uniform(0.55, 0.95)), 6)
    _, data, schema = _inputs(b, n, 1, "data", -0.5)
    synth_csv, synth_report = b.path("synth.csv"), b.path("synth.json")
    repaired, plan, repair_report = b.path("repaired.csv"), b.path("plan.json"), b.path("repair.json")
    features = ("x1", "x2")
    seed = str(b.seed % 1000)
    return [
        Op("cmd.synth_s", ["synth", "--n", str(n_synth), "--seed", seed, "--target-di", str(target),
                           "--data", str(synth_csv), "--schema-out", str(b.path("synth-schema.json")),
                           "--out", str(synth_report), "--no-timestamp"],
           n_synth, lambda seen, o: check_synth(o.report, synth_csv, n_synth, target),
           synth_report, (synth_report, synth_csv)),
        Op("cmd.repair_s", ["repair", *_cli_common(data, schema, repair_report),
                            "--features", ",".join(features), "--repaired-out", str(repaired),
                            "--plan-out", str(plan), "--seed", seed],
           n, lambda seen, o: check_repair(data, repaired, features),
           repair_report, (repair_report, repaired, plan)),
    ]


def setup_library_crosscheck(b: Bench) -> list[Op]:
    """bootstrap_ci for DI and EO at n=1e4, then auc on tied scores, in one process."""
    n, B = b.size["boot_n"], b.size["B"]
    table, data, schema = _inputs(b, n, 1, "data", -0.5)
    scores, outcomes = gen.tied_scores(b.size["auc_n"], gen.stream(b.seed, 2))
    np.save(b.path("scores.npy"), scores)
    np.save(b.path("outcomes.npy"), outcomes)
    auc_oracle = gen.auc(scores, outcomes)
    result = b.path("library.json")
    args = [str(data), str(schema), str(b.path("scores.npy")), str(b.path("outcomes.npy")),
            str(b.seed % 1000), str(B), str(result)]
    return [Op("lib.pass", args, 2 * n + len(scores),
               lambda seen, o: check_library(o.report["values"], table, auc_oracle, B),
               result, library=True)]


SETUP = {
    "audit_gate": setup_audit_gate,
    "model_cv": setup_model_cv,
    "repair_roundtrip": setup_repair_roundtrip,
    "library_crosscheck": setup_library_crosscheck,
}


# -- passes and metrics ------------------------------------------------------------


@dataclass
class Pass:
    rows: int = 0
    peak_rss_mb: float = 0.0
    op_s: dict = field(default_factory=dict)
    report_bytes: int = 0
    spans: list = field(default_factory=list)  # tracer dumps, traced passes only


def run_pass(b: Bench, ops: list[Op], traced: bool, index: int, log: list[str]) -> tuple[Pass, int]:
    p, failed, seen = Pass(), 0, {}
    for op in ops:
        spans = b.path(f"spans-{index}-{op.name}.json") if traced else None
        o, problems = b.run_op(op, spans, seen)
        if op.library:
            p.op_s.update(o.times)
        else:
            p.op_s[op.name] = o.seconds
            p.report_bytes += sum(path.stat().st_size for path in (op.report, op.report.with_suffix(".md"))
                                  if path is not None and path.exists())
        p.rows += op.rows
        p.peak_rss_mb = max(p.peak_rss_mb, o.peak_rss_mb)
        if spans is not None and spans.exists():
            p.spans.append(json.loads(spans.read_text(encoding="utf-8")))
        if problems:
            failed += 1
            log.extend(f"{op.name}: {msg}" for msg in problems)
    return p, failed


def layer_values(p: Pass) -> dict:
    """Per-layer metrics of one traced pass; None where the function is absent."""
    absent = {name for dump in p.spans for name in dump["absent"]}
    totals: dict[str, float] = {}
    for dump in p.spans:
        for (name, start, end, _), own in zip(dump["spans"], self_times(dump["spans"])):
            totals[name + ".s"] = totals.get(name + ".s", 0.0) + (end - start)
            layer = name.split(".")[0] + ".self_s"
            totals[layer] = totals.get(layer, 0.0) + own
        for key, value in dump["counts"].items():
            totals[key] = totals.get(key, 0) + value
    out = {}
    for metric, _, kind, source in PER_LAYER:
        if source and kind != "self" and source in absent:
            out[metric] = None
        elif kind == "s":
            out[metric] = totals.get(source + ".s", 0.0)
        elif kind == "calls":
            out[metric] = totals.get(source + ".calls", 0)
        elif kind == "rss":
            out[metric] = totals.get(source + ".rss_rise_mb", 0.0)
        elif kind == "count":
            out[metric] = totals.get(metric, 0)
        elif kind == "self":
            out[metric] = totals.get(metric, 0.0)
    if "inference.bootstrap_ci" not in absent:
        tried = totals.get("inference.bootstrap.replicates", 0)
        useful = tried - totals.get("inference.bootstrap.failed", 0)
        out["inference.bootstrap.useful_ratio"] = useful / tried if tried else 0.0
    out["cli.report_bytes"] = p.report_bytes
    return out


def _median(values: list) -> float | None:
    """Median of the values present; None when the function was absent throughout."""
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the summary lines."""
    b = Bench(root, workload, seed, smoke)
    b.work.mkdir(parents=True, exist_ok=True)
    try:
        ops = SETUP[workload](b)
        library = ops[0].args if ops[0].library else None
        setup = [] if trace else b.measure_setup(library)
        passes: list[tuple[Pass, bool]] = []
        failed = attempted = 0
        log: list[str] = []
        start = time.perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1  # traced passes alternate with plain ones
            p, bad = run_pass(b, ops, traced, len(passes), log)
            passes.append((p, traced))
            failed, attempted = failed + bad, attempted + len(ops)
            elapsed = time.perf_counter() - start
            enough = len(passes) >= (2 if trace else b.size["min_passes"])
            if (enough and elapsed >= seconds) or time.perf_counter() - b.started > DEADLINE_S:
                break
        result, summary = _summarise(workload, passes, setup, failed, attempted, trace)
        if trace:
            summary.append(f"  spans written to {write_trace(workload, seed, passes)}")
        return result, summary + [f"check failed: {line}" for line in log[:50]]
    finally:
        shutil.rmtree(b.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            b.work.parent.rmdir()  # only when no other run is using it


def write_trace(workload: str, seed: int, passes: list[tuple[Pass, bool]]) -> Path:
    """The last traced pass: per-layer values (null where absent) and every span."""
    last = [p for p, t in passes if t][-1]
    spans = [{"op": i, "name": name, "start": start, "end": end, "parent": parent, "self": own}
             for i, dump in enumerate(last.spans)
             for (name, start, end, parent), own in zip(dump["spans"], self_times(dump["spans"]))]
    out = HERE / "_out" / f"trace-{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": workload, "seed": seed,
                               "per_layer": layer_values(last), "spans": spans}), encoding="utf-8")
    return out


def typical_pass(passes: list[Pass]) -> dict[str, float]:
    """Median wall time of each operation over the passes.

    Their sum is the reported ``total_s``: a slow outlier on one operation
    then moves one median, not every pass total it lands in.
    """
    names = dict.fromkeys(k for p in passes for k in p.op_s)
    return {k: statistics.median(p.op_s[k] for p in passes if k in p.op_s) for k in names}


def _summarise(workload, passes, setup, failed, attempted, trace):
    plain = [p for p, t in passes if not t]
    traced = [p for p, t in passes if t]
    summary = [f"workload {workload}: {len(plain)} plain and {len(traced)} traced passes, "
               f"{attempted} operations, {failed} failed"]
    metrics: dict = {}
    if trace:
        per_pass = [layer_values(p) for p in traced]
        values = {m: _median([v[m] for v in per_pass]) for m in per_pass[0]}
        values["trace.overhead_s"] = (sum(typical_pass(traced).values())
                                      - sum(typical_pass(plain).values()))
        for metric, unit, _, _ in PER_LAYER:
            v = values[metric]
            summary.append(f"  {metric:40s} {unit:7s} " + ("absent" if v is None else f"{v:.6g}")
                           + f"  (median of {len(per_pass)})")
            # the result line carries numbers only; an absent function reads 0 there
            metrics[metric] = {"value": 0 if v is None else v, "unit": unit}
        absent = sorted({name for p in traced for dump in p.spans for name in dump["absent"]})
        if absent:
            summary.append(f"  absent functions: {', '.join(absent)}")
    else:
        ops = typical_pass(plain)
        total = sum(ops.values())
        values = {
            "setup_s": (statistics.median(setup), len(setup)),
            "total_s": (total, len(plain)),
            "rows_per_s": (plain[0].rows / total, len(plain)),
            "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in plain), len(plain)),
            **{name: (v, len(plain)) for name, v in sorted(ops.items())},
            "fail_ratio": (failed / attempted, attempted),
        }
        units = dict(END_TO_END, fail_ratio="1")
        for name, (v, count) in values.items():
            summary.append(f"  {name:24s} {units.get(name, 's'):7s} median {v:.6g}  (n={count})")
        metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, summary


def _terminated(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through spawn, which stops its child


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one pass (self-test)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminated)
    root = Path.cwd()
    if not (root / "src" / "fairaudit" / "__init__.py").is_file() or not (root / "pyproject.toml").is_file():
        print(f"perfbench: {root} is not a fairaudit source checkout (no src/fairaudit)", file=sys.stderr)
        return 2
    results = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result, summary = run(root, workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        except SetupError as e:
            print(f"perfbench: {workload}: {e}", file=sys.stderr)
            return 1
        print("\n".join(summary), flush=True)
        results[workload] = result
    if len(results) > 1:  # one object for all: metric names prefixed by workload
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{name}": m for w, r in results.items()
                              for name, m in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
