"""Geometric repair of numeric features.

Each group's feature distribution is moved along the line toward a common
target whose quantile function is the size-weighted average of the two group
quantile functions (the 1-d Wasserstein-2 barycenter, which minimizes total
squared displacement). The partial-repair parameter lambda trades fairness
against fidelity: 0 leaves the data untouched, 1 maps both groups fully onto
the target.

Ranks use the mid-distribution function so ties are handled deterministically;
quantile functions interpolate linearly between order statistics at mid
plotting positions (i - 0.5)/m and clamp beyond the fit-time extremes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import NUMERIC, Dataset, read_json, write_json
from .errors import DataError


@dataclass(frozen=True)
class QuantileMap:
    """Empirical quantile function of one feature within one group."""

    values: np.ndarray  # sorted ascending, finite; kept as a read-only float64 view

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).view()
        if len(v) < 2:
            raise DataError("a quantile map needs at least 2 values")
        if not np.isfinite(v).all() or np.any(np.diff(v) < 0):
            raise DataError("quantile map values must be sorted and finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return len(self.values)

    def positions(self) -> np.ndarray:
        m = self.size
        return (np.arange(m) + 0.5) / m

    def quantile(self, u) -> np.ndarray:
        """Q(u) with linear interpolation, constant beyond the end positions."""
        return np.interp(np.asarray(u, dtype=np.float64), self.positions(), self.values)

    def rank(self, x) -> np.ndarray:
        """Mid-distribution rank: (#{< x} + 0.5 #{= x}) / m."""
        x = np.asarray(x, dtype=np.float64)
        lo = np.searchsorted(self.values, x, side="left")
        hi = np.searchsorted(self.values, x, side="right")
        return (lo + hi) / (2.0 * self.size)


GROUPS = ("protected", "other")  # the order of every pair in a plan, and their names in its file


@dataclass(frozen=True)
class RepairPlan:
    """Fitted per-feature transport maps toward the weighted barycenter; each pair follows GROUPS."""

    features: tuple[str, ...]
    labels: tuple[str, str]  # the sensitive column's fit-time labels
    sizes: tuple[int, int]  # fit-time group row counts; barycenter weights
    maps: dict[str, tuple[QuantileMap, QuantileMap]]

    def __post_init__(self):
        if repeated := sorted({name for name in self.features if self.features.count(name) > 1}):
            raise DataError(f"features {repeated} are listed more than once")

    def target_quantile(self, feature: str, u) -> np.ndarray:
        qp, qn = (qmap.quantile(u) for qmap in self.maps[feature])
        n1, n2 = self.sizes
        return (n1 * qp + n2 * qn) / (n1 + n2)


def _group_masks(d: Dataset, features) -> tuple[np.ndarray, np.ndarray]:
    """The two groups' row masks, once every feature is a numeric column without infinite cells."""
    for name in features:
        role = d.schema.get(name)
        if role is None or role.kind != NUMERIC:
            raise DataError(f"dataset lacks numeric feature {name!r}")
        if np.isinf(d.values(name)).any():
            raise DataError(f"numeric column {name!r} holds infinite values, which repair cannot map")
    protected = d.protected_mask()
    return protected, ~protected


def fit_repair(d: Dataset, features: list[str]) -> RepairPlan:
    """Fit group quantile maps for the listed numeric features."""
    if not features:
        raise DataError("no features listed for repair")
    masks = _group_masks(d, features)
    maps: dict[str, tuple[QuantileMap, QuantileMap]] = {}
    for name in features:
        samples = [np.sort(d.values(name)[mask & ~d.missing_mask(name)]) for mask in masks]
        for group, sample in zip(GROUPS, samples):
            if len(sample) < 2:
                raise DataError(f"feature {name!r}: {group} group has {len(sample)} "
                                "non-missing values, need at least 2")
        maps[name] = tuple(map(QuantileMap, samples))
    sizes = tuple(int(np.count_nonzero(mask)) for mask in masks)
    return RepairPlan(tuple(features), d.sensitive_modalities(), sizes, maps)


def apply_repair(plan: RepairPlan, d: Dataset, lam: float) -> Dataset:
    """Blend each value with its barycenter image: x' = (1 - lam) x + lam Q_T(F_g(x)).

    Only the plan's features change; missing cells stay missing. Values outside
    the fit-time support are clamped to the nearest order statistic of the
    target (their rank saturates at 0 or 1); the clamped count is reported as
    a warning, not an error. The sensitive labels must be the plan's; one group alone applies.
    """
    if not 0.0 <= lam <= 1.0:
        raise DataError(f"lambda must be in [0, 1], got {lam}")
    masks = _group_masks(d, plan.features)
    labels = d.sensitive_modalities()  # (protected, protected) when only that group is present
    if labels[0] != plan.labels[0] or labels[1] not in plan.labels:
        raise DataError(f"sensitive labels {labels} (protected first) are not the repair plan's {plan.labels}")
    out, clamped = d, 0
    for name in plan.features:
        values = np.array(d.values(name), dtype=np.float64)
        for mask, qmap in zip(masks, plan.maps[name]):
            idx = np.flatnonzero(mask & ~np.isnan(values))
            if len(idx) == 0:
                continue
            x = values[idx]
            clamped += int(np.count_nonzero((x < qmap.values[0]) | (x > qmap.values[-1])))
            target = plan.target_quantile(name, qmap.rank(x))
            values[idx] = (1.0 - lam) * x + lam * target
        out = out.with_values(name, values)
    if clamped:
        warnings.warn(f"{clamped} values outside the fit-time support were clamped")
    return out


def repair_distortion(original: Dataset, repaired: Dataset, features: list[str]) -> dict:
    """Mean absolute displacement per feature, plus their overall average."""
    if original.n != repaired.n or original.schema != repaired.schema:
        raise DataError("original and repaired datasets must share shape and schema")
    per_feature: dict[str, float] = {}
    for name in features:
        x = original.values(name)
        y = repaired.values(name)
        ok = ~np.isnan(x) & ~np.isnan(y)
        if not ok.any():
            raise DataError(f"feature {name!r} has no comparable values")
        per_feature[name] = float(np.mean(np.abs(y[ok] - x[ok])))
    return {
        "per_feature": per_feature,
        "overall": float(np.mean(list(per_feature.values()))),
    }


# -- serialization -----------------------------------------------------------------


def plan_to_dict(plan: RepairPlan) -> dict:
    return {
        "format": "fairaudit-repair/1",
        "features": list(plan.features),
        **{f"{group}_label": label for group, label in zip(GROUPS, plan.labels)},
        "group_sizes": dict(zip(GROUPS, plan.sizes)),
        "samples": {
            name: {group: [float(v) for v in qmap.values] for group, qmap in zip(GROUPS, plan.maps[name])}
            for name in plan.features
        },
    }


def plan_from_dict(obj: dict) -> RepairPlan:
    if obj.get("format") != "fairaudit-repair/1":
        raise DataError(f"unsupported repair plan format {obj.get('format')!r}")
    features = tuple(obj["features"])
    sizes = tuple(obj["group_sizes"][group] for group in GROUPS)
    maps = {name: tuple(QuantileMap(np.asarray(obj["samples"][name][group])) for group in GROUPS)
            for name in features}
    for i, (group, size) in enumerate(zip(GROUPS, sizes)):
        if not isinstance(size, int) or isinstance(size, bool) or any(size < pair[i].size for pair in maps.values()):
            raise DataError(f"{group} group size {size!r} must be an integer no smaller than its sample count")
    return RepairPlan(features, tuple(str(obj[f"{group}_label"]) for group in GROUPS), sizes, maps)


def save_plan(plan: RepairPlan, path: str | Path) -> None:
    write_json(plan_to_dict(plan), path)


def load_plan(path: str | Path) -> RepairPlan:
    return read_json(path, "repair plan", plan_from_dict)
