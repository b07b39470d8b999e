import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import ColumnRole, DataError, Dataset, apply_repair, fit_repair, repair_distortion
from fairaudit.repair import QuantileMap, load_plan, plan_from_dict, plan_to_dict, save_plan
from fairaudit.rng import CounterRng

from conftest import check_guard


def toy_dataset():
    return Dataset(
        {"x": ColumnRole("numeric"), "s": ColumnRole("sensitive", protected="a")},
        {"x": [0.0, 1.0, 2.0, 10.0, 11.0, 12.0], "s": ["a", "a", "a", "b", "b", "b"]},
    )


def random_dataset(n=400, seed=0, gap=2.0):
    rng = CounterRng(seed)
    protected = rng.uniforms(n) < 0.4
    x = rng.normals(n) + np.where(protected, 0.0, gap)
    z = rng.uniforms(n) * 10
    return Dataset(
        {"x": ColumnRole("numeric"), "z": ColumnRole("numeric"),
         "s": ColumnRole("sensitive", protected="p")},
        {"x": x, "z": z, "s": np.where(protected, "p", "q")},
    )


def ks_statistic(u: np.ndarray, v: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic by direct CDF comparison."""
    pooled = np.sort(np.concatenate([u, v]))
    cdf_u = np.searchsorted(np.sort(u), pooled, side="right") / len(u)
    cdf_v = np.searchsorted(np.sort(v), pooled, side="right") / len(v)
    return float(np.max(np.abs(cdf_u - cdf_v)))


# -- fitting ------------------------------------------------------------------------


def test_fit_toy_target_quantiles():
    plan = fit_repair(toy_dataset(), ["x"])
    assert plan.target_quantile("x", [0.0, 0.5, 1.0]).tolist() == [5.0, 6.0, 7.0]


def test_fit_identical_groups_target_equals_both():
    d = Dataset(
        {"x": ColumnRole("numeric"), "s": ColumnRole("sensitive", protected="a")},
        {"x": [1.0, 2.0, 3.0, 1.0, 2.0, 3.0], "s": ["a", "a", "a", "b", "b", "b"]},
    )
    plan = fit_repair(d, ["x"])
    u = np.linspace(0, 1, 11)
    assert np.allclose(plan.target_quantile("x", u), plan.maps["x"][0].quantile(u))


def test_fit_single_value_group_errors():
    d = Dataset(
        {"x": ColumnRole("numeric"), "s": ColumnRole("sensitive", protected="a")},
        {"x": [1.0, 2.0, 3.0], "s": ["a", "b", "b"]},
    )
    with pytest.raises(DataError, match="at least 2"):
        fit_repair(d, ["x"])
    # the empty group is named by its role, not by the protected label repeated
    with pytest.raises(DataError, match="^feature 'x': other group has 0 non-missing values"):
        fit_repair(d.with_values("s", ["a", "a", "a"]), ["x"])


def test_fit_rejects_non_numeric():
    with pytest.raises(DataError, match="numeric"):
        fit_repair(toy_dataset(), ["s"])


def test_fit_and_apply_refuse_an_infinite_cell():
    d = toy_dataset()
    plan = fit_repair(d, ["x"])
    for x in (np.inf, -np.inf):
        bad = d.with_values("x", np.where(np.arange(d.n) == 4, x, d.values("x")))
        with pytest.raises(DataError, match="numeric column 'x' holds infinite values"):
            fit_repair(bad, ["x"])
        with pytest.raises(DataError, match="numeric column 'x' holds infinite values"):
            apply_repair(plan, bad, 0.5)


# -- application --------------------------------------------------------------------


def test_apply_lambda_zero_is_bitwise_identity():
    d = toy_dataset()
    plan = fit_repair(d, ["x"])
    assert apply_repair(plan, d, 0.0) == d


def test_apply_lambda_one_toy_transport():
    d = toy_dataset()
    repaired = apply_repair(plan := fit_repair(d, ["x"]), d, 1.0)
    assert repaired.values("x").tolist() == [5.0, 6.0, 7.0, 5.0, 6.0, 7.0]


def test_apply_half_lambda_interpolates():
    d = toy_dataset()
    repaired = apply_repair(fit_repair(d, ["x"]), d, 0.5)
    assert repaired.values("x")[0] == pytest.approx(2.5)


def test_apply_preserves_other_columns_and_missing():
    d = Dataset(
        {"x": ColumnRole("numeric"), "z": ColumnRole("numeric"),
         "s": ColumnRole("sensitive", protected="a")},
        {"x": [0.0, 1.0, 2.0, 10.0, 11.0, 12.0, float("nan")],
         "z": [5.0] * 7, "s": ["a", "a", "a", "b", "b", "b", "a"]},
    )
    plan = fit_repair(d, ["x"])
    repaired = apply_repair(plan, d, 1.0)
    assert np.array_equal(repaired.values("z"), d.values("z"))
    assert np.isnan(repaired.values("x")[6])
    assert np.array_equal(repaired.values("s"), d.values("s"))


def test_apply_out_of_support_clamps_with_warning():
    d = toy_dataset()
    plan = fit_repair(d, ["x"])
    fresh = Dataset(
        {"x": ColumnRole("numeric"), "s": ColumnRole("sensitive", protected="a")},
        {"x": [-100.0, 200.0], "s": ["a", "b"]},
    )
    with pytest.warns(UserWarning, match="clamped"):
        repaired = apply_repair(plan, fresh, 1.0)
    assert repaired.values("x")[0] == 5.0  # lowest target order statistic
    assert repaired.values("x")[1] == 7.0


def test_apply_to_its_own_fit_data_clamps_nothing():
    # the fit data holds both support edges of each group; values exactly on an
    # edge are inside the support, so nothing is counted as clamped
    d = random_dataset(seed=5)
    plan = fit_repair(d, ["x", "z"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        apply_repair(plan, d, 1.0)
    edges = Dataset(
        {"x": ColumnRole("numeric"), "s": ColumnRole("sensitive", protected="a")},
        {"x": [0.0, 2.0, 10.0, 12.0, -0.5, 12.5, 1.0], "s": ["a", "a", "b", "b", "a", "b", "b"]},
    )
    with pytest.warns(UserWarning, match="^3 values outside the fit-time support"):
        apply_repair(fit_repair(toy_dataset(), ["x"]), edges, 1.0)


def test_apply_monotone_within_group():
    d = random_dataset(seed=11)
    plan = fit_repair(d, ["x"])
    for lam in (0.25, 0.75, 1.0):
        repaired = apply_repair(plan, d, lam)
        for label in ("p", "q"):
            mask = d.values("s") == label
            order = np.argsort(d.values("x")[mask], kind="stable")
            out = repaired.values("x")[mask][order]
            assert np.all(np.diff(out) >= -1e-12)


def test_apply_lambda_one_aligns_group_distributions():
    d = random_dataset(n=2000, seed=13)
    plan = fit_repair(d, ["x"])
    repaired = apply_repair(plan, d, 1.0)
    mask = d.values("s") == "p"
    stat = ks_statistic(repaired.values("x")[mask], repaired.values("x")[~mask])
    n_min = min(mask.sum(), (~mask).sum())
    assert stat <= 2.0 / n_min + 0.02


def test_apply_validates_lambda_and_features():
    d = toy_dataset()
    plan = fit_repair(d, ["x"])
    with pytest.raises(DataError):
        apply_repair(plan, d, 1.5)
    other = Dataset(
        {"w": ColumnRole("numeric"), "s": ColumnRole("sensitive", protected="a")},
        {"w": [1.0, 2.0], "s": ["a", "b"]},
    )
    with pytest.raises(DataError, match="lacks"):
        apply_repair(plan, other, 1.0)


def relabelled(d, protected, mapping):
    s = np.array([mapping[v] for v in d.values("s")])
    return Dataset({"x": ColumnRole("numeric"), "s": ColumnRole("sensitive", protected=protected)},
                   {"x": d.values("x"), "s": s})


def test_apply_refuses_labels_other_than_the_plan():
    d = toy_dataset()
    plan = fit_repair(d, ["x"])
    with pytest.raises(DataError, match=re.escape("sensitive labels ('b', 'a') (protected first) "
                                                  "are not the repair plan's ('a', 'b')")):
        apply_repair(plan, relabelled(d, "b", {"a": "a", "b": "b"}), 1.0)  # the other label declared protected
    for protected, mapping in (("a", {"a": "a", "b": "c"}), ("A", {"a": "A", "b": "B"})):
        with pytest.raises(DataError, match="are not the repair plan's"):
            apply_repair(plan, relabelled(d, protected, mapping), 1.0)


def test_apply_to_a_batch_of_one_group():
    d = toy_dataset()
    plan = fit_repair(d, ["x"])
    batch = d.take([0, 1, 2])  # protected rows only
    repaired = apply_repair(plan, batch, 1.0)
    assert repaired.values("x").tolist() == [5.0, 6.0, 7.0]
    assert repaired.values("x").tolist() == apply_repair(plan, d, 1.0).values("x")[:3].tolist()


# -- distortion ---------------------------------------------------------------------


def test_distortion_zero_at_lambda_zero():
    d = toy_dataset()
    plan = fit_repair(d, ["x"])
    report = repair_distortion(d, apply_repair(plan, d, 0.0), ["x"])
    assert report["overall"] == 0.0


def test_distortion_toy_value():
    d = toy_dataset()
    plan = fit_repair(d, ["x"])
    report = repair_distortion(d, apply_repair(plan, d, 1.0), ["x"])
    assert report["per_feature"]["x"] == pytest.approx(5.0)


def test_distortion_linear_in_lambda():
    d = random_dataset(n=600, seed=17)
    plan = fit_repair(d, ["x", "z"])
    full = repair_distortion(d, apply_repair(plan, d, 1.0), ["x", "z"])["overall"]
    for lam in (0.125, 0.25, 0.5, 0.875):
        partial = repair_distortion(d, apply_repair(plan, d, lam), ["x", "z"])["overall"]
        assert abs(partial - lam * full) < 1e-12


def test_distortion_shape_mismatch():
    d = toy_dataset()
    with pytest.raises(DataError):
        repair_distortion(d, d.take([0, 1, 2]), ["x"])


# -- properties under hypothesis ----------------------------------------------------------

_VALUES = st.sampled_from([-3.0, -1.5, 0.0, 0.25, 2.0, 7.0]) | st.floats(-1e3, 1e3, allow_subnormal=False)


@st.composite
def repair_tables(draw) -> Dataset:
    """Two numeric features over two groups, with ties and missing cells; every
    group has at least 2 values of each feature, so a plan can be fitted."""
    columns: dict[str, list] = {"x": [], "z": [], "s": []}
    for label in ("p", "q"):
        size = draw(st.integers(2, 25))
        for name in ("x", "z"):
            values = draw(st.lists(_VALUES, min_size=size, max_size=size))
            missing = draw(st.lists(st.booleans(), min_size=size, max_size=size))
            missing[:2] = [False, False]
            columns[name] += [np.nan if gone else v for v, gone in zip(values, missing)]
        columns["s"] += [label] * size
    order = draw(st.permutations(range(len(columns["s"]))))
    return Dataset({"x": ColumnRole("numeric"), "z": ColumnRole("numeric"),
                    "s": ColumnRole("sensitive", protected="p")},
                   {name: [values[i] for i in order] for name, values in columns.items()})


@settings(max_examples=40, deadline=None)
@given(fit=repair_tables(), fresh=repair_tables(), lam=st.floats(0.0, 1.0))
def test_repair_properties(fit, fresh, lam):
    plan = fit_repair(fit, ["x", "z"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fresh values outside the fit support clamp
        assert apply_repair(plan, fresh, 0.0) == fresh
        for d in (fit, fresh):
            repaired = apply_repair(plan, d, lam)
            for name in ("x", "z"):
                for label in ("p", "q"):
                    x = d.values(name)[d.values("s") == label]
                    out = repaired.values(name)[d.values("s") == label]
                    ok = ~np.isnan(x)
                    order = np.argsort(x[ok], kind="stable")
                    assert np.all(np.diff(out[ok][order]) >= 0.0)  # ties may stay tied
                    assert np.array_equal(np.isnan(out), ~ok)
    # Each displacement is exact up to rounding of the blend, about 1e-16 of
    # the value it moves, so the relative bound needs that much absolute slack.
    full = repair_distortion(fit, apply_repair(plan, fit, 1.0), ["x", "z"])
    part = repair_distortion(fit, apply_repair(plan, fit, lam), ["x", "z"])
    slack = 1e-15 * max(np.nanmax(np.abs(fit.values(name))) for name in ("x", "z"))
    for name in ("x", "z"):
        assert part["per_feature"][name] == pytest.approx(lam * full["per_feature"][name], rel=1e-12, abs=slack)


# -- serialization ---------------------------------------------------------------------


def test_plan_round_trip(tmp_path):
    d = random_dataset(n=300, seed=19)
    x = d.values("x").copy()
    x[0] = np.nan  # a group size may exceed its sample count
    d = d.with_values("x", x)
    plan = fit_repair(d, ["x", "z"])
    clone = plan_from_dict(json.loads(json.dumps(plan_to_dict(plan))))
    u = np.linspace(0, 1, 23)
    for name in ("x", "z"):
        assert np.array_equal(plan.target_quantile(name, u), clone.target_quantile(name, u))
    path = tmp_path / "plan.json"
    save_plan(plan, path)
    loaded = load_plan(path)
    assert apply_repair(loaded, d, 0.6) == apply_repair(plan, d, 0.6)


def test_load_plan_names_a_broken_or_missing_file(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"repair plan file {path} is not JSON")):
        load_plan(path)
    with pytest.raises(DataError, match="no such repair plan file"):
        load_plan(tmp_path / "absent.json")


def test_load_plan_rejects_malformed_files(tmp_path):
    no_samples = plan_to_dict(fit_repair(toy_dataset(), ["x"]))
    del no_samples["samples"]
    for name, content in (("list.json", [1, 2]), ("empty.json", {}), ("no-samples.json", no_samples)):
        path = tmp_path / name
        path.write_text(json.dumps(content), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"malformed repair plan file {path}: ")):
            load_plan(path)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda plan: plan["group_sizes"].update(protected=0, other=0), id="sizes-zero"),
    pytest.param(lambda plan: plan["group_sizes"].update(protected=-5), id="size-negative"),
    pytest.param(lambda plan: plan["group_sizes"].update(protected=2), id="size-below-samples"),
    pytest.param(lambda plan: plan["group_sizes"].update(protected=3.7), id="size-float"),
    pytest.param(lambda plan: plan["group_sizes"].update(protected=True), id="size-bool"),
    pytest.param(lambda plan: plan["samples"]["x"].update(other=[10.0, 11.0, float("inf")]), id="sample-infinite"),
])
def test_load_plan_rejects_sizes_and_samples_it_cannot_apply(tmp_path, edit):
    """Group sizes are the barycenter weights and count at least each map's samples; samples are finite."""
    plan = plan_to_dict(fit_repair(toy_dataset(), ["x"]))  # 3 rows and 3 samples per group
    edit(plan)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"malformed repair plan file {path}: DataError: ")):
        load_plan(path)


def test_load_plan_refuses_a_feature_listed_twice(tmp_path):
    """A plan file is held to fit_repair's rule: each feature once."""
    plan = plan_to_dict(fit_repair(toy_dataset(), ["x"]))
    plan["features"] = ["x", "x"]
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(
            f"malformed repair plan file {path}: DataError: features ['x'] are listed more than once")):
        load_plan(path)


def test_load_plan_reads_numeric_string_samples_as_numbers(tmp_path):
    """A map keeps the float64 array it checks, read-only; a sample that is no number is refused."""
    d = toy_dataset()
    plan = plan_to_dict(fit_repair(d, ["x"]))
    plan["samples"]["x"]["other"] = [str(v) for v in plan["samples"]["x"]["other"]]
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    loaded = load_plan(path)
    for qmap in loaded.maps["x"]:
        assert qmap.values.dtype == np.float64 and not qmap.values.flags.writeable
    assert apply_repair(loaded, d, 0.5) == apply_repair(fit_repair(d, ["x"]), d, 0.5)
    plan["samples"]["x"]["other"][1] = "eleven"
    path.write_text(json.dumps(plan), encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"malformed repair plan file {path}: ValueError: ")):
        load_plan(path)


def test_quantile_map_leaves_the_given_array_writeable():
    given = np.array([1.0, 2.0])
    QuantileMap(given)
    given[0] = 0.0  # the map holds a read-only view, not the caller's array


def test_fit_once_apply_many():
    train = random_dataset(n=500, seed=23)
    fresh = random_dataset(n=200, seed=29)
    plan = fit_repair(train, ["x"])
    repaired = apply_repair(plan, fresh, 1.0)
    assert repaired.n == fresh.n
    # repaired values live inside the barycenter's range
    lo = plan.target_quantile("x", 0.0)
    hi = plan.target_quantile("x", 1.0)
    values = repaired.values("x")
    assert values.min() >= lo - 1e-12 and values.max() <= hi + 1e-12


def test_quantile_map_validation():
    with pytest.raises(DataError):
        QuantileMap(np.array([1.0]))
    with pytest.raises(DataError):
        QuantileMap(np.array([2.0, 1.0]))
    for bad in ([1.0, np.nan], [1.0, np.inf], [-np.inf, 1.0]):
        with pytest.raises(DataError, match="must be sorted and finite"):
            QuantileMap(np.array(bad))


# every guard that no other test reaches, with its message: (id, call, error, message)
GUARDS = [
    ("fit-no-feature", lambda: fit_repair(toy_dataset(), []), DataError, "no features listed for repair"),
    ("distortion-no-comparable-value",
     lambda: repair_distortion(toy_dataset(), toy_dataset().with_values("x", [np.nan] * 6), ["x"]), DataError,
     "feature 'x' has no comparable values"),
]


@pytest.mark.parametrize("call, error, message", [pytest.param(*row[1:], id=row[0]) for row in GUARDS])
def test_guard_message(call, error, message):
    check_guard(call, error, message)
