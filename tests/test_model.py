import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import (
    ColumnRole,
    DataError,
    Dataset,
    cross_validate,
    decide,
    load_csv,
    predict_scores,
    train_logistic,
)
from fairaudit import test_error as holdout_error
from fairaudit.model import (
    L2,
    MAX_ITER,
    TOL,
    FeatureEncoding,
    LogisticModel,
    SensitiveSpec,
    _newton,
    build_encoding,
    encode,
    load_model,
    loss_and_gradient,
    model_from_dict,
    model_to_dict,
    score_matrix,
    sigmoid,
)
from fairaudit.rng import CounterRng

from conftest import check_guard, feature_dataset


def separable_toy(n_half=10):
    # x < 0 -> 0, x > 0 -> 1, margin 1
    x = np.concatenate([np.linspace(-5, -1, n_half), np.linspace(1, 5, n_half)])
    y = np.array(["0"] * n_half + ["1"] * n_half)
    s = np.array(["a", "b"] * n_half)
    return feature_dataset(x, y, s)


def hand_model(weight: float, intercept: float) -> LogisticModel:
    enc = FeatureEncoding(
        source_order=("s",), numeric={}, categorical={},
        sensitive=SensitiveSpec("s", "a"),
    )
    return LogisticModel(
        encoding=enc, weights=np.array([weight]), intercept=intercept,
        target="auto", target_column="y", converged=True,
    )


# -- encoding ---------------------------------------------------------------------


def test_encoding_standardizes_and_imputes():
    d = Dataset(
        {"x": ColumnRole("numeric"), "s": ColumnRole("sensitive", protected="a"),
         "y": ColumnRole("decision", positive="1")},
        {"x": [1.0, 3.0, float("nan"), 4.0], "s": ["a", "b", "a", "b"],
         "y": ["1", "0", "1", "0"]},
    )
    enc = build_encoding(d)
    spec = enc.numeric["x"]
    assert spec.mean == pytest.approx(8 / 3)
    X = encode(enc, d)
    assert X[2, 0] == 0.0  # imputed to the mean, standardized to zero
    assert np.mean(X[[0, 1, 3], 0]) == pytest.approx(0.0)


def test_encoding_one_hot_lexicographic_reference():
    d = Dataset(
        {"c": ColumnRole("categorical"), "s": ColumnRole("sensitive", protected="a"),
         "y": ColumnRole("decision", positive="1")},
        {"c": ["red", "blue", "green", "blue"], "s": ["a", "b", "a", "b"],
         "y": ["1", "0", "1", "0"]},
    )
    enc = build_encoding(d)
    assert enc.categorical["c"].modalities == ("blue", "green", "red")
    assert enc.feature_names == ["c=green", "c=red"]  # "blue" is the reference
    X = encode(enc, d)
    assert X[0].tolist() == [0.0, 1.0]
    assert X[1].tolist() == [0.0, 0.0]
    assert X[2].tolist() == [1.0, 0.0]


def test_training_refuses_two_features_of_one_name():
    # numeric "a=b" and the dummy of categorical "a" for its modality "b" would both be named "a=b"
    d = Dataset(
        {"a=b": ColumnRole("numeric"), "a": ColumnRole("categorical"), "s=P": ColumnRole("numeric"),
         "s": ColumnRole("sensitive", protected="P"), "y": ColumnRole("decision", positive="1")},
        {"a=b": [1.0, 2.0, 3.0, 4.0], "a": ["a", "b", "a", "b"], "s=P": [4.0, 2.0, 3.0, 1.0],
         "s": ["P", "N", "P", "N"], "y": ["1", "0", "0", "1"]},
    )
    check_guard(lambda: train_logistic(d), DataError, "design-matrix feature names ['a=b'] are not unique")
    check_guard(lambda: train_logistic(d, include_sensitive=True), DataError,
                "design-matrix feature names ['a=b', 's=P'] are not unique")


def test_encoding_drops_constant_column_with_warning():
    d = Dataset(
        {"x": ColumnRole("numeric"), "z": ColumnRole("numeric"),
         "s": ColumnRole("sensitive", protected="a"), "y": ColumnRole("decision", positive="1")},
        {"x": [1.0, 2.0, 3.0, 4.0], "z": [7.0, 7.0, 7.0, 7.0],
         "s": ["a", "b", "a", "b"], "y": ["1", "0", "1", "0"]},
    )
    with pytest.warns(UserWarning, match="constant"):
        enc = build_encoding(d)
    assert "z" in enc.dropped
    assert enc.feature_names == ["x"]


def test_training_drops_an_all_missing_column_with_warning(tmp_path):
    golden = Path(__file__).parent / "golden" / "inputs"
    header, *rows = (golden / "hand.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    assert header.startswith("age,")
    blanked = "".join("," + row.split(",", 1)[1] for row in rows)
    (tmp_path / "hand.csv").write_text(header + blanked, encoding="utf-8")
    schema = json.loads((golden / "hand-schema.json").read_text(encoding="utf-8"))
    d = load_csv(tmp_path / "hand.csv", schema)
    assert d.missing_mask("age").all()
    with pytest.warns(UserWarning, match="^numeric column 'age' is entirely missing; dropped$"):
        m = train_logistic(d)
    assert m.encoding.dropped == ("age",)
    assert "age" not in m.encoding.feature_names


def test_encoding_unknown_modality_warns_and_zero_codes():
    d = separable_toy()
    m = train_logistic(d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        score = predict_scores(m, d.take([10]))[0]  # the row with x = 1.0
    assert 0.0 < score < 1.0


def test_encode_counts_unseen_modalities_but_not_missing_cells():
    schema = {"r": ColumnRole("categorical"), "s": ColumnRole("sensitive", protected="a"),
              "y": ColumnRole("decision", positive="1")}
    train = Dataset(schema, {"r": ["east", "west", "", "east"], "s": ["a", "b", "a", "b"],
                             "y": ["1", "0", "1", "0"]})
    enc = build_encoding(train)
    assert enc.categorical["r"].modalities == ("east", "west")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # "" is a missing cell, not a modality
        X = encode(enc, train)
    assert X[:, 0].tolist() == [0.0, 1.0, 0.0, 0.0]
    fresh = Dataset(schema, {"r": ["north", "", "south", "north", "west"], "s": ["a", "b", "a", "b", "a"],
                             "y": ["1", "0", "1", "0", "1"]})
    with pytest.warns(UserWarning, match="^column 'r': 3 values outside the training modalities"):
        X = encode(enc, fresh)
    assert X[:, 0].tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]


def test_sensitive_indicator_encoding():
    d = separable_toy()
    enc = build_encoding(d, include_sensitive=True)
    assert enc.feature_names == ["x", "s=a"]
    X = encode(enc, d)
    assert X[0, 1] == 1.0 and X[1, 1] == 0.0


@pytest.mark.parametrize("cell", [np.inf, -np.inf])
def test_infinite_numeric_cell_is_refused_where_fitted_and_where_encoded(cell):
    d = separable_toy()
    x = d.values("x").copy()
    x[3] = cell
    bad = d.with_values("x", x)
    enc = build_encoding(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any mean or sd is taken
        for fit_or_encode in (build_encoding, lambda t: encode(enc, t)):
            with pytest.raises(DataError, match="numeric column 'x' holds infinite values"):
                fit_or_encode(bad)


# -- training ---------------------------------------------------------------------


def test_separable_toy_reaches_zero_training_error():
    d = separable_toy()
    m = train_logistic(d)
    assert holdout_error(m, d).rate == 0.0


def test_constant_target_closed_form():
    d = separable_toy()
    const = d.with_values("y", ["1"] * d.n)
    m = train_logistic(const)
    assert np.all(m.weights == 0.0)
    assert m.intercept == pytest.approx(math.log((1 - 1e-6) / 1e-6))
    assert m.converged


def test_loss_non_increasing_over_iterations(monkeypatch):
    rng = CounterRng(8)
    x = rng.normals(60)
    y = np.where(rng.uniforms(60) < 0.4, "1", "0")
    s = np.where(rng.uniforms(60) < 0.5, "a", "b")
    d = feature_dataset(x, y, s)
    enc = build_encoding(d)
    X = encode(enc, d)
    target = d.positive_decision_mask().astype(float)

    losses = []
    for cap in range(1, 25):
        monkeypatch.setattr("fairaudit.model.MAX_ITER", cap)
        m = train_logistic(d)
        assert m.converged == (cap >= 3)  # Newton converges in three steps on this table
        params = np.concatenate([[m.intercept], m.weights])
        losses.append(loss_and_gradient(params, X, target, L2)[0])
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_newton_halves_a_step_that_raises_the_loss(monkeypatch):
    # a full Newton step from these four rows overshoots: the loss rises, and only the halved step is
    # taken; a loop that takes every full step does not converge within MAX_ITER
    X = np.array([[0.0, 2.0], [30.0, 2.0], [0.0, 30.0], [30.0, 0.0]])
    y = np.array([1.0, 0.0, 0.0, 1.0])
    losses = []

    def recorded(*args):
        loss, grad = loss_and_gradient(*args)
        losses.append(loss)
        return loss, grad

    monkeypatch.setattr("fairaudit.model.loss_and_gradient", recorded)
    _, converged = _newton(X, y)
    assert converged
    assert any(b > a for a, b in zip(losses, losses[1:]))  # a rejected full step


def test_gradient_matches_central_differences():
    rng = CounterRng(12)
    X = rng.normals(150).reshape(50, 3)
    y = (rng.uniforms(50) < 0.5).astype(float)
    step = 1e-5
    for point in range(10):
        params = rng.normals(4)
        _, grad = loss_and_gradient(params, X, y, 1e-3)
        for j in range(4):
            e = np.zeros(4)
            e[j] = step
            lp, _ = loss_and_gradient(params + e, X, y, 1e-3)
            lm, _ = loss_and_gradient(params - e, X, y, 1e-3)
            numeric = (lp - lm) / (2 * step)
            rel = abs(grad[j] - numeric) / max(abs(numeric), 1e-12)
            assert rel < 1e-5


def gradient_descent_reference(X, y, l2, tol=1e-6, max_iter=5000):
    """The solver train_logistic used before Newton, kept as an oracle: full-batch
    gradient descent from zero, halving a learning rate that never grows again
    whenever a step would raise the loss. Returns (params, loss)."""
    params = np.zeros(X.shape[1] + 1)
    lr = 1.0
    loss, grad = loss_and_gradient(params, X, y, l2)
    for _ in range(max_iter):
        if float(np.max(np.abs(grad))) < tol:
            break
        while lr >= 1e-14:
            candidate = params - lr * grad
            new_loss, new_grad = loss_and_gradient(candidate, X, y, l2)
            if new_loss <= loss:
                break
            lr *= 0.5
        else:
            break
        params, loss, grad = candidate, new_loss, new_grad
    return params, loss


def seeded_mixed_dataset(seed: int, n: int, modalities: int) -> Dataset:
    """Two numerics (one with missing cells), a categorical and a noisy logistic target."""
    rng = CounterRng(seed)
    x1 = rng.normals(n)
    x2 = rng.normals(n) * 3.0 + 1.0
    x2[rng.uniforms(n) < 0.1] = np.nan
    codes = (rng.uniforms(n) * modalities).astype(int)
    region = np.array(["east", "north", "south", "west"])[codes]
    s = np.where(np.arange(n) % 2 == 0, "a", "b")
    z = 0.8 * x1 - 0.5 * np.nan_to_num(x2 - 1.0) / 3.0 + 0.4 * codes - 0.6 * (s == "a")
    y = np.where(rng.uniforms(n) < 1.0 / (1.0 + np.exp(-z)), "1", "0")
    y[:2] = ["1", "0"]  # both classes present
    schema = {"x1": ColumnRole("numeric"), "x2": ColumnRole("numeric"),
              "r": ColumnRole("categorical"), "s": ColumnRole("sensitive", protected="a"),
              "y": ColumnRole("decision", positive="1")}
    return Dataset(schema, {"x1": x1, "x2": x2, "r": region, "s": s, "y": y})


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 150), modalities=st.integers(1, 4),
       include_sensitive=st.booleans())
def test_newton_matches_gradient_descent_reference(seed, n, modalities, include_sensitive):
    d = seeded_mixed_dataset(seed, n, modalities)
    m = train_logistic(d, include_sensitive=include_sensitive)
    X = encode(m.encoding, d)
    y = d.positive_decision_mask().astype(float)
    params = np.r_[m.intercept, m.weights]
    loss, grad = loss_and_gradient(params, X, y, L2)
    _, reference_loss = gradient_descent_reference(X, y, L2, TOL, MAX_ITER)
    assert m.converged
    assert float(np.max(np.abs(grad))) < TOL
    # Both solvers stop anywhere inside max|g| < tol, which leaves up to a few
    # 1e-12 of loss above the optimum (at a penalty of 0.1, seed=13775077, n=40
    # and one modality stopped 1.45e-12 above the reference). The Newton
    # decrement g'H^-1 g / 2 measures that remainder, so compare the optimum
    # Newton's point predicts.
    Xa = np.column_stack([np.ones(len(y)), X])
    p = 1.0 / (1.0 + np.exp(-(Xa @ params)))
    hessian = (Xa.T * (p * (1.0 - p))) @ Xa / len(y) + np.diag(np.r_[0.0, np.full(X.shape[1], L2)])
    remainder = 0.5 * float(grad @ np.linalg.lstsq(hessian, grad, rcond=None)[0])
    assert loss - remainder <= reference_loss + 1e-12


def test_duplicated_column_without_penalty_converges_to_equal_weights():
    rng = CounterRng(17)
    x = rng.normals(80)
    y = np.where(rng.uniforms(80) < 1.0 / (1.0 + np.exp(-x)), "1", "0")
    s = np.where(rng.uniforms(80) < 0.5, "a", "b")
    d = feature_dataset(x, y, s, extra={"x_twin": x.copy()})
    m = train_logistic(d)  # the penalty splits the shared weight evenly between the twins
    assert m.converged
    assert m.weights[0] == pytest.approx(m.weights[1], rel=1e-9)


def masked_sigmoid_reference(z):
    """The masked-branch form sigmoid had before it computed both branches at once."""
    z = np.clip(z, -700.0, 700.0)
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, 5e-324, 1.0 - 1e-16)


def test_sigmoid_bit_identical_to_masked_reference():
    z = np.concatenate([CounterRng(5).normals(5000) * 40.0,
                        [0.0, -0.0, 1e-300, -1e-300, 36.8, -36.8, 700.0, -700.0, 745.2, -745.2, 1e308,
                         -1e308, np.inf, -np.inf]])
    assert np.array_equal(sigmoid(z), masked_sigmoid_reference(z))


def test_needs_enough_rows():
    d = Dataset(
        {"x": ColumnRole("numeric"), "s": ColumnRole("sensitive", protected="a"),
         "y": ColumnRole("decision", positive="1")},
        {"x": [0.0, 1.0], "s": ["a", "b"], "y": ["1", "0"]},
    )
    with pytest.raises(DataError, match="rows"):
        train_logistic(d, include_sensitive=True)  # 2 features, 2 rows


# -- prediction -----------------------------------------------------------------------


# hand_model's design matrix is the one indicator column s == "a"


def test_score_matrix_zero_model_is_half():
    m = hand_model(0.0, 0.0)
    assert score_matrix(m, np.array([[1.0]]))[0] == 0.5


def test_score_matrix_worked_value():
    m = hand_model(4.0, -2.0)
    a, b = score_matrix(m, np.array([[1.0], [0.0]]))
    assert a == pytest.approx(1 / (1 + math.exp(-2)))
    assert b == pytest.approx(1 / (1 + math.exp(2)))


def test_score_matrix_stable_underflow():
    m = hand_model(-600.0, 0.0)
    score = score_matrix(m, np.array([[1.0]]))[0]
    assert 0.0 < score < 1e-200 and math.isfinite(score)


def test_decide_boundary_convention():
    assert bool(decide(0.5, 0.5))
    assert bool(decide(0.8808, 0.5))
    assert not bool(decide(0.1192, 0.5))
    with pytest.raises(ValueError):
        decide(0.5, 1.0)


def test_predict_monotone_in_positive_weight_feature():
    d = separable_toy()
    m = train_logistic(d)
    xs = np.linspace(-3, 3, 21)
    grid = feature_dataset(xs, np.resize(["0", "1"], len(xs)), np.resize(["a", "b"], len(xs)))
    scores = predict_scores(m, grid)
    assert all(b > a for a, b in zip(scores, scores[1:]))


def test_standardization_invariance_under_rescaling():
    rng = CounterRng(21)
    x = rng.normals(80) * 2 + 1
    y = np.where(rng.uniforms(80) < 1 / (1 + np.exp(-x)), "1", "0")
    s = np.where(rng.uniforms(80) < 0.5, "a", "b")
    d = feature_dataset(x, y, s)
    d_scaled = d.with_values("x", x * 37.5)
    m = train_logistic(d)
    m_scaled = train_logistic(d_scaled)
    assert np.allclose(predict_scores(m, d), predict_scores(m_scaled, d_scaled), atol=1e-8)


# -- error estimation --------------------------------------------------------------------


def test_error_constant_model_on_balanced_data():
    d = separable_toy()
    m = hand_model(0.0, 0.3)  # always scores 0.574 -> always positive
    m = LogisticModel(encoding=build_encoding(d), weights=np.array([0.0]), intercept=0.3,
                      target="auto", target_column="y", converged=True)
    assert holdout_error(m, d).rate == 0.5


def test_error_complement_under_label_flip():
    d = separable_toy()
    m = train_logistic(d)
    flipped = d.with_values("y", np.where(d.values("y") == "1", "0", "1"))
    assert holdout_error(m, flipped).rate == pytest.approx(1.0 - holdout_error(m, d).rate)


def test_error_requires_target_column():
    d = separable_toy()
    m = train_logistic(d)
    no_target = Dataset(
        {"x": ColumnRole("numeric"), "s": ColumnRole("sensitive", protected="a")},
        {"x": d.values("x"), "s": d.values("s")},
    )
    with pytest.raises(DataError, match="target"):
        holdout_error(m, no_target)


def test_cross_validate_separable():
    d = separable_toy(20)
    est = cross_validate(d, replicates=10, test_fraction=0.3, seed=4)
    assert est.rate == 0.0
    assert est.sd == 0.0
    assert est.scheme == "monte-carlo-cv"


def test_cross_validate_noise_target_near_half():
    rng = CounterRng(33)
    n = 2000
    d = feature_dataset(rng.normals(n), np.where(rng.uniforms(n) < 0.5, "1", "0"),
                        np.where(rng.uniforms(n) < 0.5, "a", "b"))
    est = cross_validate(d, replicates=20, test_fraction=0.3, seed=5)
    assert est.rate == pytest.approx(0.5, abs=0.05)


def test_cross_validate_deterministic():
    d = separable_toy(15)
    a = cross_validate(d, replicates=5, test_fraction=0.3, seed=9)
    b = cross_validate(d, replicates=5, test_fraction=0.3, seed=9)
    assert a == b


# -- serialization --------------------------------------------------------------------------


def test_model_round_trip_preserves_scores():
    d = separable_toy()
    m = train_logistic(d, include_sensitive=True)
    clone = model_from_dict(json.loads(json.dumps(model_to_dict(m))))
    assert np.array_equal(predict_scores(m, d), predict_scores(clone, d))
    assert clone.target == m.target
    assert clone.encoding == m.encoding


def test_load_model_ignores_retired_gradient_descent_keys(tmp_path):
    d = separable_toy()
    m = train_logistic(d, include_sensitive=True)
    current = model_to_dict(m)
    legacy = json.loads(json.dumps(current))
    legacy["config"].update(learning_rate=1.0, init_scale=0.0, seed=0)
    for name, obj in (("current.json", current), ("legacy.json", legacy)):
        (tmp_path / name).write_text(json.dumps(obj), encoding="utf-8")
    old, new = load_model(tmp_path / "legacy.json"), load_model(tmp_path / "current.json")
    assert old.target == new.target == m.target
    assert np.array_equal(predict_scores(old, d), predict_scores(new, d))


def test_load_model_reads_only_the_target_of_the_recorded_settings(tmp_path):
    d = separable_toy()
    m = train_logistic(d, include_sensitive=True, target="decision")
    obj = model_to_dict(m)
    assert obj["config"] == {"max_iter": MAX_ITER, "l2": L2, "tol": TOL, "target": "decision"}
    other_penalty = json.loads(json.dumps(obj))
    other_penalty["config"]["l2"] = 0.01  # provenance of a file trained elsewhere
    no_target = json.loads(json.dumps(obj))
    del no_target["config"]["target"]
    for name, content, target in (("l2.json", other_penalty, "decision"), ("no-target.json", no_target, "auto")):
        path = tmp_path / name
        path.write_text(json.dumps(content), encoding="utf-8")
        loaded = load_model(path)
        assert loaded.target == target
        assert np.array_equal(predict_scores(loaded, d), predict_scores(m, d))


def test_load_model_rejects_malformed_files(tmp_path):
    m = train_logistic(separable_toy())
    obj = model_to_dict(m)
    del obj["encoding"]
    for name, content in (("no-encoding.json", obj), ("list.json", [1, 2])):
        path = tmp_path / name
        path.write_text(json.dumps(content), encoding="utf-8")
        with pytest.raises(DataError, match="malformed model file"):
            load_model(path)


# every guard that no other test reaches, with its message: (id, call, error, message)
GUARDS = [
    ("train-unknown-target", lambda: train_logistic(separable_toy(), target="bogus"), DataError,
     "unknown training target 'bogus'"),
    ("cross-validate-1-replicate", lambda: cross_validate(separable_toy(), 1, 0.3, 0), DataError,
     "cross-validation requires at least 2 replicates, got 1"),
]


@pytest.mark.parametrize("call, error, message", [pytest.param(*row[1:], id=row[0]) for row in GUARDS])
def test_guard_message(call, error, message):
    check_guard(call, error, message)
