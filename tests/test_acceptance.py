"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a PASS line once its assertions hold, so running

    pytest tests/test_acceptance.py -v -s

shows one line per criterion (or the assertion that broke it). The module can
also be executed directly: python tests/test_acceptance.py
"""

import json
from dataclasses import replace

import numpy as np
import pytest

import fairaudit as fa
from fairaudit.inference import di_ci_delta
from fairaudit.metrics import GroupConfusion, base_rates, contingency
from fairaudit.model import FeatureEncoding, LogisticModel, NumericSpec, loss_and_gradient
from fairaudit.rng import CounterRng, derive_seed
from fairaudit.synth import GeneratorSpec

from conftest import binary_dataset, feature_dataset
from test_metrics import auc_pair_count, brute_force_disparity, identity_residual, implied_fpr
from test_repair import ks_statistic


def _pass(n, name):
    print(f"PASS criterion {n}: {name}")


def tuned_spec(n: int, seed: int) -> GeneratorSpec:
    base = GeneratorSpec(n=n, seed=seed)
    return replace(base, group_bias=fa.solve_group_bias(base, 0.60))


def test_criterion_01_formula_conformance():
    rng = CounterRng(101)
    for trial in range(20):
        a, b, c, d = (1 + int(float(rng.uniforms(1)[0]) * 80) for _ in range(4))
        got = fa.disparity_metrics(base_rates(fa.ContingencyTable(a, b, c, d)))
        expected = brute_force_disparity(a, b, c, d)
        for name, value in expected.items():
            assert abs(got[name].value - value) <= 1e-12
        assert abs(got["odds_ratio"].value * got["relative_chance"].value
                   - got["disparate_impact"].value) <= 1e-12
    _pass(1, "disparity formulas match the brute-force proportion oracle to 1e-12")


def test_criterion_02_eighty_percent_rule_fidelity():
    cases = [
        (0.7999999, "fail"),
        (0.8, "pass"),  # exactly at the threshold passes, by the >= convention
        (0.8000001, "pass"),
        (0.6667, "fail"),
        (1.0, "pass"),
        (1.3, "pass"),
        (0.05, "fail"),
    ]
    for value, expected in cases:
        est = fa.MetricEstimate("disparate_impact", value)
        assert fa.eighty_percent_verdict(est, 0.8) == expected
    _pass(2, "four-fifths verdicts match the rule on boundary cases")


def test_criterion_03_ci_coverage():
    spec = tuned_spec(n=2000, seed=0)
    true_di = fa.true_disparate_impact(spec)
    covered = 0
    replicates = 500
    for i in range(replicates):
        d, _ = fa.generate(replace(spec, seed=derive_seed(7, i)))
        iv = di_ci_delta(contingency(d), 0.95)
        covered += iv.lo <= true_di <= iv.hi
    coverage = covered / replicates
    assert 0.93 <= coverage <= 0.97, f"coverage {coverage}"
    _pass(3, f"95% delta interval covers the true DI in {coverage:.1%} of 500 replicates")


def test_criterion_04_delta_bootstrap_agreement():
    d = binary_dataset(400, 600, 600, 400)  # the (40,60,60,40) shape at n=2000
    boot = fa.bootstrap_ci(fa.disparate_impact_statistic, d, B=20000, seed=1)
    delta = di_ci_delta(contingency(d), 0.95)
    assert abs(boot.lo - delta.lo) < 0.05
    assert abs(boot.hi - delta.hi) < 0.05
    _pass(4, "delta and percentile-bootstrap endpoints agree within 0.05")


def test_criterion_05_repair_efficacy():
    spec = tuned_spec(n=10000, seed=5)
    d, true_di = fa.generate(spec)
    plan = fa.fit_repair(d, ["x1", "x2"])

    # lambda = 1: a sensitive-blind model trained on repaired features decides fairly
    repaired = fa.apply_repair(plan, d, 1.0)
    m = fa.train_logistic(repaired, include_sensitive=False)
    decisions = fa.decide(fa.predict_scores(m, repaired), 0.5)
    protected = repaired.protected_mask()
    model_di = decisions[protected].mean() / decisions[~protected].mean()
    assert 0.95 <= model_di <= 1.05, f"model DI {model_di}"

    # lambda = 0: untouched data still carries the injected bias
    untouched = fa.apply_repair(plan, d, 0.0)
    assert untouched == d
    assert abs(fa.disparate_impact_statistic(untouched) - true_di) <= 0.03

    # displacement is linear in lambda
    full = fa.repair_distortion(d, repaired, ["x1", "x2"])["overall"]
    for lam in (0.25, 0.5, 0.75):
        partial = fa.repair_distortion(d, fa.apply_repair(plan, d, lam), ["x1", "x2"])["overall"]
        assert abs(partial - lam * full) < 1e-12
    _pass(5, f"lambda=1 repair yields model DI {model_di:.4f}; lambda=0 keeps the bias; "
             "distortion linear in lambda")


def test_criterion_06_repair_distributional_check():
    spec = tuned_spec(n=20000, seed=8)  # ~10000 rows per group
    d, _ = fa.generate(spec)
    repaired = fa.apply_repair(fa.fit_repair(d, ["x1", "x2"]), d, 1.0)
    protected = repaired.protected_mask()
    for name in ("x1", "x2"):
        stat = ks_statistic(repaired.values(name)[protected], repaired.values(name)[~protected])
        assert stat < 0.02, f"{name}: KS {stat}"
    _pass(6, "group-conditional repaired features agree to KS < 0.02 per feature")


def test_criterion_07_flip_test():
    spec = tuned_spec(n=10000, seed=5)
    d, _ = fa.generate(spec)
    aware = fa.train_logistic(d, include_sensitive=True)
    result = fa.flip_test(aware, d, 0.5)
    assert result.flip_rate > 0.05, f"flip rate {result.flip_rate}"
    assert not result.vacuous

    blind = fa.train_logistic(d, include_sensitive=False)
    vacuous = fa.flip_test(blind, d, 0.5)
    assert vacuous.vacuous and vacuous.flip_count == 0
    _pass(7, f"group-aware model flips {result.flip_rate:.1%} of rows; "
             "sensitive-blind model reports a vacuous zero-flip probe")


def test_criterion_08_impossibility_identity():
    rng = CounterRng(808)
    for trial in range(1000):
        cells = [1 + int(float(rng.uniforms(1)[0]) * 60) for _ in range(4)]
        g = GroupConfusion(*cells)
        assert abs(identity_residual(g)) < 1e-12
    grid = np.linspace(0.02, 0.98, 49)
    implied = [implied_fpr(p, 0.7, 0.6) for p in grid]
    assert all(b > a for a, b in zip(implied, implied[1:]))
    _pass(8, "identity residual < 1e-12 on 1000 matrices; implied FPR increasing in base rate")


def test_criterion_09_auc_oracle():
    rng = CounterRng(909)
    for trial in range(50):
        n = 2 + int(float(rng.uniforms(1)[0]) * 198)
        scores = np.floor(rng.uniforms(n) * 8) / 8  # coarse grid forces ties
        outcomes = rng.uniforms(n) < 0.5
        if outcomes.all() or not outcomes.any():
            outcomes[0] = ~outcomes[0]
        assert fa.auc(scores, outcomes).value == auc_pair_count(scores.tolist(), outcomes.tolist())
    _pass(9, "rank-based AUC equals the exhaustive pair-count oracle exactly, ties included")


def test_criterion_10_gradient_check():
    rng = CounterRng(1010)
    X = rng.normals(150).reshape(50, 3)
    y = (rng.uniforms(50) < 0.5).astype(float)
    step = 1e-5
    worst = 0.0
    for point in range(10):
        params = rng.normals(4)
        _, grad = loss_and_gradient(params, X, y, 1e-3)
        for j in range(4):
            e = np.zeros(4)
            e[j] = step
            lp, _ = loss_and_gradient(params + e, X, y, 1e-3)
            lm, _ = loss_and_gradient(params - e, X, y, 1e-3)
            numeric = (lp - lm) / (2 * step)
            worst = max(worst, abs(grad[j] - numeric) / max(abs(numeric), 1e-12))
    assert worst < 1e-5, f"max relative error {worst}"
    _pass(10, f"analytic gradient matches central differences (max rel err {worst:.2e})")


def test_criterion_11_explanation_sanity():
    rng = CounterRng(1111)
    n = 2000
    x = rng.normals(n) * 2 + 1
    z = rng.normals(n)
    y = np.where(rng.uniforms(n) < 0.5, "1", "0")
    s = np.where(rng.uniforms(n) < 0.5, "a", "b")
    d = feature_dataset(x, y, s, extra={"z": z})

    enc = FeatureEncoding(
        source_order=("x", "z"),
        numeric={"x": NumericSpec("x", float(np.mean(x)), float(np.std(x))),
                 "z": NumericSpec("z", float(np.mean(z)), float(np.std(z)))},
        categorical={}, sensitive=None,
    )
    m = LogisticModel(encoding=enc, weights=np.array([1.0, 0.0]), intercept=0.0,
                      target="auto", target_column="y", converged=True)

    pi = fa.permutation_importance(m, d, repeats=10, seed=0)
    assert abs(pi.importances["z"]) < 0.01  # zero-weight feature
    assert abs(pi.importances["s"]) < 0.01  # not consumed at all

    row = int(np.argmin(np.abs(x - np.mean(x))))
    ls = fa.local_surrogate(m, row, d, n_samples=3000, seed=0)
    score = fa.predict_scores(m, d.take([row]))[0]
    derivative = score * (1 - score) * 1.0 / enc.numeric["x"].sd
    assert abs(ls.coefficients["x"] - derivative) <= 0.10 * abs(derivative)
    _pass(11, "zero-weight importance < 0.01; surrogate slope within 10% of the "
              "analytic logistic derivative")


def test_criterion_12_determinism(tmp_path):
    # synthetic generation
    spec = GeneratorSpec(n=500, seed=42)
    runs = []
    for _ in range(2):
        d, true_di = fa.generate(spec)
        path = tmp_path / "gen.csv"
        fa.save_csv(d, path)
        runs.append((path.read_bytes(), true_di))
    assert runs[0] == runs[1]

    # bootstrap
    d = binary_dataset(40, 60, 60, 40)
    boots = [fa.bootstrap_ci(fa.disparate_impact_statistic, d, B=200, seed=3) for _ in range(2)]
    assert boots[0] == boots[1]

    # monte-carlo cross-validation
    gen, _ = fa.generate(GeneratorSpec(n=400, seed=9))
    cvs = [fa.cross_validate(gen, replicates=3, test_fraction=0.3, seed=4) for _ in range(2)]
    assert cvs[0] == cvs[1]

    # permutation importance and local surrogate
    m = fa.train_logistic(gen, include_sensitive=False)
    pis = [fa.permutation_importance(m, gen, repeats=3, seed=5) for _ in range(2)]
    assert pis[0] == pis[1]
    surs = [fa.local_surrogate(m, 7, gen, n_samples=300, seed=6) for _ in range(2)]
    assert surs[0] == surs[1]

    # CLI JSON reports, byte for byte, without timestamps
    from fairaudit.cli import main

    data_csv = tmp_path / "d.csv"
    fa.save_csv(d, data_csv)
    schema = tmp_path / "s.json"
    schema.write_text(json.dumps({"s": {"role": "sensitive", "protected": "P"},
                                  "y": {"role": "decision", "positive": "1"}}))
    reports = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code = main(["audit", "--data", str(data_csv), "--schema", str(schema),
                     "--out", str(out), "--no-timestamp"])
        assert code == 3
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    _pass(12, "synth, bootstrap, CV, permutation, surrogate and CLI reports are "
              "byte-identical across reruns with the same seed")


if __name__ == "__main__":
    import sys
    import traceback

    failures = 0
    for name, fn in sorted(globals().items()):
        if not name.startswith("test_criterion"):
            continue
        try:
            if "tmp_path" in fn.__code__.co_varnames[: fn.__code__.co_argcount]:
                import tempfile
                from pathlib import Path

                with tempfile.TemporaryDirectory() as tmp:
                    fn(Path(tmp))
            else:
                fn()
        except Exception:
            failures += 1
            print(f"FAIL {name}")
            traceback.print_exc()
    sys.exit(1 if failures else 0)
