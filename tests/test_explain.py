import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import (
    ColumnRole, DataError, Dataset, local_surrogate, permutation_importance, predict_score, train_logistic,
)
from fairaudit.model import (
    FeatureEncoding, LogisticModel, NumericSpec, decide, predict_scores, target_mask,
)
from fairaudit.rng import CounterRng, derive_seed

from conftest import feature_dataset


def two_feature_dataset(n=500, seed=1):
    rng = CounterRng(seed)
    x = rng.normals(n)
    z = rng.normals(n)
    y = np.where(x > 0, "1", "0")  # x separates perfectly, z is noise
    s = np.where(rng.uniforms(n) < 0.5, "a", "b")
    return feature_dataset(x, y, s, extra={"z": z})


def linear_hand_model(d, weights):
    enc = FeatureEncoding(
        source_order=("x", "z"),
        numeric={
            "x": NumericSpec("x", float(np.mean(d.values("x"))), float(np.std(d.values("x")))),
            "z": NumericSpec("z", float(np.mean(d.values("z"))), float(np.std(d.values("z")))),
        },
        categorical={},
        sensitive=None,
    )
    return LogisticModel(encoding=enc, weights=np.asarray(weights, dtype=float),
                         intercept=0.0, target="auto", target_column="y",
                         converged=True)


# -- permutation importance ------------------------------------------------------------


def test_zero_weight_feature_importance_is_zero():
    d = two_feature_dataset()
    m = linear_hand_model(d, [2.0, 0.0])
    pi = permutation_importance(m, d, repeats=3, seed=0)
    assert pi.importances["z"] == 0.0
    assert abs(pi.importances["s"]) == 0.0  # not consumed at all


def test_separating_feature_importance_near_half():
    d = two_feature_dataset(n=2000, seed=7)
    m = train_logistic(d)
    pi = permutation_importance(m, d, repeats=10, seed=0)
    assert pi.baseline_accuracy > 0.97
    assert pi.importances["x"] == pytest.approx(pi.baseline_accuracy - 0.5, abs=0.05)
    assert abs(pi.importances["z"]) < 0.02


def test_dominant_feature_ranking_stable_across_repeat_counts():
    d = two_feature_dataset(n=600, seed=9)
    m = train_logistic(d)
    one = permutation_importance(m, d, repeats=1, seed=4)
    ten = permutation_importance(m, d, repeats=10, seed=4)
    for pi in (one, ten):
        assert max(pi.importances, key=pi.importances.get) == "x"


def test_permutation_importance_deterministic():
    d = two_feature_dataset(n=300, seed=2)
    m = train_logistic(d)
    a = permutation_importance(m, d, repeats=5, seed=11)
    b = permutation_importance(m, d, repeats=5, seed=11)
    assert a == b


def permutation_importance_reference(m, d, threshold=0.5, repeats=10, seed=0):
    """Importances by re-encoding a permuted copy of the dataset per repeat."""
    y = target_mask(m, d)
    baseline = float(np.mean(decide(predict_scores(m, d), threshold) == y))
    importances = {}
    for fi, name in enumerate(d.numeric_features + d.categorical_features + [d.sensitive_column]):
        accs = []
        for r in range(repeats):
            rng = CounterRng(derive_seed(derive_seed(seed, fi), r))
            permuted = d.with_values(name, d.values(name)[rng.permutation(d.n)])
            accs.append(float(np.mean(decide(predict_scores(m, permuted), threshold) == y)))
        importances[name] = baseline - float(np.mean(accs))
    return baseline, importances


@pytest.mark.parametrize("include_sensitive", [False, True])
def test_permutation_importance_bit_identical_to_reencoding(include_sensitive):
    rng = CounterRng(23)
    n = 400
    x = rng.normals(n)
    s = np.where(rng.uniforms(n) < 0.4, "a", "b")
    c = np.array(["lo", "mid", "hi", ""])[(rng.uniforms(n) * 4).astype(int)]
    y = np.where(x + (s == "a") + (c == "hi") + rng.normals(n) > 0.5, "1", "0")
    d = feature_dataset(x, y, s, extra={"flat": np.ones(n)})  # "flat" is dropped, no block
    d = Dataset({**d.schema, "c": ColumnRole("categorical"), "one": ColumnRole("categorical")},
                {**{k: d.values(k) for k in d.schema}, "c": c, "one": np.full(n, "only")})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the constant column is dropped with a warning
        m = train_logistic(d, include_sensitive=include_sensitive)
    pi = permutation_importance(m, d, repeats=4, seed=3)
    reference = permutation_importance_reference(m, d, repeats=4, seed=3)
    assert (pi.baseline_accuracy, pi.importances) == reference
    assert pi.importances["flat"] == 0.0 and pi.importances["one"] == 0.0


def test_permutation_importance_validates_repeats():
    d = two_feature_dataset(n=100)
    m = train_logistic(d)
    with pytest.raises(DataError):
        permutation_importance(m, d, repeats=0)


# -- local surrogate ---------------------------------------------------------------------


def test_surrogate_slope_matches_analytic_derivative():
    d = two_feature_dataset(n=400, seed=3)
    m = linear_hand_model(d, [1.0, 0.4])
    # probe the row closest to the feature means, where the score is mid-range
    enc_x = (d.values("x") - m.encoding.numeric["x"].mean) / m.encoding.numeric["x"].sd
    enc_z = (d.values("z") - m.encoding.numeric["z"].mean) / m.encoding.numeric["z"].sd
    row = int(np.argmin(enc_x**2 + enc_z**2))
    ls = local_surrogate(m, row, d, n_samples=3000, seed=0)
    score = predict_score(m, {"x": float(d.values("x")[row]), "z": float(d.values("z")[row])})
    for name, w in (("x", 1.0), ("z", 0.4)):
        derivative = score * (1 - score) * w / m.encoding.numeric[name].sd
        assert ls.coefficients[name] == pytest.approx(derivative, rel=0.10)
    assert ls.r_squared > 0.9


def test_surrogate_constant_model():
    d = two_feature_dataset(n=200, seed=4)
    m = linear_hand_model(d, [0.0, 0.0])
    ls = local_surrogate(m, 0, d, n_samples=200, seed=0)
    assert abs(ls.coefficients["x"]) < 1e-6
    assert abs(ls.coefficients["z"]) < 1e-6
    assert ls.r_squared == 0.0


def test_surrogate_narrower_kernel_fits_nonlinear_score_better():
    d = two_feature_dataset(n=300, seed=6)
    m = linear_hand_model(d, [4.0, 0.0])  # steep: strongly nonlinear locally
    row = int(np.argmax(np.abs(d.values("x"))))  # saturated region
    wide, narrow = [], []
    for seed in range(10):
        wide.append(local_surrogate(m, row, d, n_samples=400, kernel_width=1.5, seed=seed).r_squared)
        narrow.append(local_surrogate(m, row, d, n_samples=400, kernel_width=0.75, seed=seed).r_squared)
    assert np.mean(narrow) >= np.mean(wide) - 1e-9


def test_surrogate_deterministic_and_validated():
    d = two_feature_dataset(n=120, seed=8)
    m = linear_hand_model(d, [1.0, -0.5])
    a = local_surrogate(m, 5, d, n_samples=200, seed=3)
    b = local_surrogate(m, 5, d, n_samples=200, seed=3)
    assert a == b
    local_surrogate(m, 5, d, n_samples=20, seed=3)  # exactly 10 samples per feature
    with pytest.raises(DataError, match="need n_samples >= 20, got 19"):
        local_surrogate(m, 5, d, n_samples=19, seed=3)
    for width in (0.0, float("nan")):
        with pytest.raises(DataError, match="kernel width must be positive"):
            local_surrogate(m, 5, d, n_samples=200, kernel_width=width, seed=3)
    with pytest.raises(DataError, match="row"):
        local_surrogate(m, d.n, d, n_samples=200, seed=3)


def test_surrogate_sign_matches_model_weight_sign():
    d = two_feature_dataset(n=400, seed=10)
    m = linear_hand_model(d, [0.9, -0.6])
    rng = CounterRng(14)
    rows = (rng.uniforms(20) * d.n).astype(int)
    for row in rows:
        ls = local_surrogate(m, int(row), d, n_samples=300, seed=1)
        assert ls.coefficients["x"] > 0
        assert ls.coefficients["z"] < 0


def with_numeric_spec(m, name, mean, sd):
    """``m`` with feature ``name`` standardized by ``mean`` and ``sd``."""
    numeric = {**m.encoding.numeric, name: NumericSpec(name, mean, sd)}
    return dataclasses.replace(m, encoding=dataclasses.replace(m.encoding, numeric=numeric))


def test_surrogate_fits_a_model_whose_mean_and_sd_are_huge():
    d = two_feature_dataset(n=120, seed=8)
    m = with_numeric_spec(linear_hand_model(d, [1.0, -0.5]), "x", 1e300, 1e300)
    ls = local_surrogate(m, 5, d, n_samples=200, seed=3)
    assert np.all(np.isfinite([ls.intercept, *ls.coefficients.values()]))
    assert ls.r_squared > 0.9


def test_surrogate_refuses_a_rank_deficient_kernel():
    d = two_feature_dataset(n=120, seed=8)
    m = linear_hand_model(d, [1.0, -0.5])
    with pytest.raises(DataError, match="row 5: kernel width 0.02 gives a rank-deficient fit"):
        local_surrogate(m, 5, d, n_samples=200, kernel_width=0.02, seed=3)


def test_surrogate_refuses_non_finite_raw_coefficients():
    d = two_feature_dataset(n=120, seed=8)
    m = linear_hand_model(d, [1.0, -0.5])
    # load_model accepts this sd; the row's own mean standardizes it to 0, so encode does not overflow
    tiny = with_numeric_spec(m, "x", float(d.values("x")[5]), 5e-324)
    with np.errstate(over="ignore"), \
            pytest.raises(DataError, match="row 5: raw-unit coefficients are not finite"):
        local_surrogate(tiny, 5, d, n_samples=200, seed=3)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["x", "z"]), c=st.floats(1e-3, 1e3), row=st.integers(0, 119))
def test_surrogate_is_affine_equivariant(name, c, row):
    """Scaling one feature's data, model mean and model sd by c divides its coefficient by c.

    The standardized design is the same up to rounding, so nothing else moves.
    """
    d = two_feature_dataset(n=120, seed=8)
    m = linear_hand_model(d, [1.0, -0.5])
    spec = m.encoding.numeric[name]
    scaled = local_surrogate(with_numeric_spec(m, name, c * spec.mean, c * spec.sd), row,
                             d.with_values(name, c * d.values(name)), n_samples=200, seed=3)
    ls = local_surrogate(m, row, d, n_samples=200, seed=3)
    other = "z" if name == "x" else "x"
    assert scaled.coefficients[name] * c == pytest.approx(ls.coefficients[name], rel=1e-12)
    assert scaled.coefficients[other] == pytest.approx(ls.coefficients[other], rel=1e-12)
    assert scaled.intercept == pytest.approx(ls.intercept, rel=1e-12)
    assert scaled.r_squared == pytest.approx(ls.r_squared, rel=1e-12)
