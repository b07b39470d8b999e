import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import ColumnRole, DataError, Dataset, flip_test, predict_scores, train_logistic
from fairaudit.audit import swap_sensitive
from fairaudit.model import (
    CategoricalSpec,
    FeatureEncoding,
    LogisticModel,
    NumericSpec,
    SensitiveSpec,
    encode,
)
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


def swap_labels(d: Dataset) -> Dataset:
    """The table with its two sensitive labels exchanged: the flip made on the data, not on the matrix."""
    protected, other = d.sensitive_modalities()
    values = d.values(d.sensitive_column)
    return d.with_values(d.sensitive_column, np.where(values == protected, other, protected))


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
    backward = flip_test(m, swap_labels(d), 0.5)
    assert forward.to_positive == backward.to_negative
    assert forward.to_negative == backward.to_positive


def test_flip_matches_row_by_row_rescoring_oracle():
    d = probe_dataset(n=50, seed=9)
    m = mixed_model(0.9, -0.7)
    result = flip_test(m, d, 0.5)

    protected, other = d.sensitive_modalities()
    to_positive, to_negative = [], []
    for i in range(d.n):
        row = d.take([i])
        swapped = row.with_values("s", [other if row.values("s")[0] == protected else protected])
        before = predict_scores(m, row)[0] >= 0.5
        after = predict_scores(m, swapped)[0] >= 0.5
        if not before and after:
            to_positive.append(i)
        elif before and not after:
            to_negative.append(i)
    assert result.to_positive == to_positive
    assert result.to_negative == to_negative


def test_flip_threshold_validation():
    with pytest.raises(ValueError):
        flip_test(mixed_model(1.0, 1.0), probe_dataset(), threshold=0.0)


# -- the matrix flip against the table-level swap ------------------------------------------

REGIONS = ("", "east", "north", "west", "south")  # "" is a missing cell


@st.composite
def flip_cases(draw):
    """A two-label table with a numeric and a categorical feature, and a model that reads all three."""
    n = draw(st.integers(2, 30))
    x = draw(st.lists(st.one_of(st.none(), st.floats(-5, 5)), min_size=n, max_size=n))
    region = draw(st.lists(st.sampled_from(REGIONS), min_size=n, max_size=n))
    s = draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n).filter(lambda v: {"a", "b"} <= set(v)))
    schema = {"x": ColumnRole("numeric"), "r": ColumnRole("categorical"),
              "s": ColumnRole("sensitive", protected=draw(st.sampled_from("ab"))),
              "y": ColumnRole("decision", positive="1")}
    d = Dataset(schema, {"x": [np.nan if v is None else v for v in x], "r": region, "s": s, "y": ["1"] * n})
    # the model has not seen every region ("south" is unseen), and the sensitive column goes first, middle or last
    modalities = tuple(sorted(draw(st.sets(st.sampled_from(REGIONS[1:4]), min_size=1))))
    order = draw(st.permutations(("x", "r", "s")))
    enc = FeatureEncoding(source_order=tuple(order), numeric={"x": NumericSpec("x", 0.25, 1.5)},
                          categorical={"r": CategoricalSpec("r", modalities)}, sensitive=SensitiveSpec("s", "a"))
    weights = draw(st.lists(st.floats(-3, 3), min_size=enc.dimension, max_size=enc.dimension))
    m = LogisticModel(encoding=enc, weights=np.array(weights), intercept=draw(st.floats(-2, 2)),
                      target="auto", target_column="y", converged=True)
    return m, d


@settings(max_examples=150, deadline=None)
@given(flip_cases(), st.sampled_from([0.3, 0.5, 0.7]))
def test_matrix_flip_equals_table_swap(case, threshold):
    m, d = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # unseen regions
        swapped = swap_labels(d)
        flipped = swap_sensitive(m.encoding, encode(m.encoding, d))
        assert flipped.tobytes() == encode(m.encoding, swapped).tobytes()
        before = predict_scores(m, d) >= threshold
        after = predict_scores(m, swapped) >= threshold
        result = flip_test(m, d, threshold)
        assert result.to_positive == np.flatnonzero(~before & after).tolist()
        assert result.to_negative == np.flatnonzero(before & ~after).tolist()
        # a batch of one group flips as those rows do in the whole table
        carries = d.values("s") == "a"
        for rows in (np.flatnonzero(carries), np.flatnonzero(~carries)):
            part = flip_test(m, d.take(rows), threshold)
            assert part.to_positive == [k for k, i in enumerate(rows) if i in result.to_positive]
            assert part.to_negative == [k for k, i in enumerate(rows) if i in result.to_negative]


def test_protected_only_batch_gets_real_flips():
    d = probe_dataset()
    m = sensitive_only_model(-4.0, 2.0)
    protected = np.flatnonzero(d.protected_mask())
    result = flip_test(m, d.take(protected), 0.5)
    assert result.to_positive == list(range(len(protected)))  # each protected row scores 0.8808 as non-protected
    assert result.to_negative == []


def test_flip_finds_the_indicator_wherever_the_sensitive_column_is_encoded():
    d = probe_dataset(n=30, seed=4)
    enc = FeatureEncoding(source_order=("s", "x"), numeric={"x": NumericSpec("x", 0.0, 1.0)},
                          categorical={}, sensitive=SensitiveSpec("s", "a"))
    X = encode(enc, d)
    flipped = swap_sensitive(enc, X)
    assert np.array_equal(flipped[:, 0], 1.0 - X[:, 0])
    assert np.array_equal(flipped[:, 1], X[:, 1])
    assert np.array_equal(X[:, 0], d.protected_mask())  # the input is not changed


def test_flip_warns_once_about_unseen_modalities():
    d = Dataset({"r": ColumnRole("categorical"), "s": ColumnRole("sensitive", protected="a"),
                 "y": ColumnRole("decision", positive="1")},
                {"r": ["u", "v", "w", "u"], "s": ["a", "b", "a", "b"], "y": ["1", "0", "1", "0"]})
    enc = FeatureEncoding(source_order=("r", "s"), numeric={}, categorical={"r": CategoricalSpec("r", ("u", "v"))},
                          sensitive=SensitiveSpec("s", "a"))
    m = LogisticModel(encoding=enc, weights=np.array([1.0, -2.0]), intercept=0.5,
                      target="auto", target_column="y", converged=True)
    with pytest.warns(UserWarning, match="1 values outside the training modalities") as record:
        flip_test(m, d, 0.5)
    assert len(record) == 1


def test_flip_refuses_a_model_of_another_sensitive_column():
    m = mixed_model(1.0, 1.0)
    other = Dataset({"x": ColumnRole("categorical"), "s": ColumnRole("numeric"),
                     "y": ColumnRole("sensitive", protected="1")},
                    {"x": ["a", "b"], "s": [0.0, 1.0], "y": ["1", "0"]})
    with pytest.raises(DataError, match="^the model's sensitive column 's' is not the table's, 'y'$"):
        flip_test(m, other, 0.5)


def test_flip_refuses_a_protected_label_that_no_row_carries():
    d = probe_dataset()
    relabelled = Dataset({"x": ColumnRole("numeric"), "s": ColumnRole("sensitive", protected="female"),
                          "y": ColumnRole("decision", positive="1")},
                         {"x": d.values("x"), "s": np.where(d.protected_mask(), "female", "male"),
                          "y": d.values("y")})
    with pytest.raises(DataError, match=r"^no row has the model's protected label 'a', but 's' holds \['female', 'male'\]$"):
        flip_test(mixed_model(1.0, 1.0), relabelled, 0.5)
    # with one label on every row, the rows are the model's non-protected group, and all flip to protected
    males = relabelled.take(np.flatnonzero(~d.protected_mask()))
    result = flip_test(sensitive_only_model(-4.0, 2.0), males, 0.5)
    assert result.to_negative == list(range(males.n))
