import numpy as np
import pytest

from fairaudit import flip_test, predict_score, train_logistic
from fairaudit.audit import swap_sensitive
from fairaudit.model import FeatureEncoding, LogisticModel, NumericSpec, SensitiveSpec
from fairaudit.rng import CounterRng

from conftest import feature_dataset


def sensitive_only_model(weight: float, intercept: float) -> LogisticModel:
    enc = FeatureEncoding(source_order=("s",), numeric={}, categorical={},
                          sensitive=SensitiveSpec("s", "a"))
    return LogisticModel(encoding=enc, weights=np.array([weight]), intercept=intercept,
                         target="auto", target_column="y", converged=True)


def mixed_model(w_x: float, w_s: float, x_mean=0.0, x_sd=1.0) -> LogisticModel:
    enc = FeatureEncoding(source_order=("x", "s"),
                          numeric={"x": NumericSpec("x", x_mean, x_sd)},
                          categorical={}, sensitive=SensitiveSpec("s", "a"))
    return LogisticModel(encoding=enc, weights=np.array([w_x, w_s]), intercept=0.0,
                         target="auto", target_column="y", converged=True)


def probe_dataset(n=40, seed=2):
    rng = CounterRng(seed)
    x = rng.normals(n)
    s = np.where(rng.uniforms(n) < 0.5, "a", "b")
    y = np.where(rng.uniforms(n) < 0.5, "1", "0")
    return feature_dataset(x, y, s)


# -- flip test -------------------------------------------------------------------


def test_flip_every_row_on_pure_group_model():
    # protected rows score logistic(-2) = 0.1192, others logistic(2) = 0.8808
    d = probe_dataset()
    m = sensitive_only_model(-4.0, 2.0)
    result = flip_test(m, d, 0.5)
    protected = d.protected_mask()
    assert result.flip_rate == 1.0
    assert sorted(result.to_positive) == np.flatnonzero(protected).tolist()
    assert sorted(result.to_negative) == np.flatnonzero(~protected).tolist()
    assert not result.vacuous


def test_flip_zero_weight_on_sensitive_gives_no_flips():
    d = probe_dataset()
    m = mixed_model(1.3, 0.0)
    result = flip_test(m, d, 0.5)
    assert result.flip_count == 0
    assert not result.vacuous


def test_flip_vacuous_when_model_ignores_sensitive():
    d = probe_dataset()
    m = train_logistic(d, include_sensitive=False)
    result = flip_test(m, d, 0.5)
    assert result.vacuous
    assert result.flip_count == 0


def test_flip_is_involution_with_directions_reversed():
    d = probe_dataset(n=60, seed=5)
    m = mixed_model(0.8, 1.1)
    forward = flip_test(m, d, 0.5)
    backward = flip_test(m, swap_sensitive(d), 0.5)
    assert forward.to_positive == backward.to_negative
    assert forward.to_negative == backward.to_positive


def test_flip_matches_row_by_row_rescoring_oracle():
    d = probe_dataset(n=50, seed=9)
    m = mixed_model(0.9, -0.7)
    result = flip_test(m, d, 0.5)

    protected, other = d.sensitive_modalities()
    to_positive, to_negative = [], []
    for i in range(d.n):
        row = {"x": float(d.values("x")[i]), "s": str(d.values("s")[i])}
        swapped = dict(row, s=other if row["s"] == protected else protected)
        before = predict_score(m, row) >= 0.5
        after = predict_score(m, swapped) >= 0.5
        if not before and after:
            to_positive.append(i)
        elif before and not after:
            to_negative.append(i)
    assert result.to_positive == to_positive
    assert result.to_negative == to_negative


def test_flip_threshold_validation():
    with pytest.raises(ValueError):
        flip_test(mixed_model(1.0, 1.0), probe_dataset(), threshold=0.0)

