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

from .data import Dataset, read_json, write_json
from .errors import DataError


@dataclass(frozen=True)
class QuantileMap:
    """Empirical quantile function of one feature within one group."""

    values: np.ndarray  # sorted ascending, no NaN

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if len(v) < 2:
            raise DataError("a quantile map needs at least 2 values")
        if np.any(np.isnan(v)) or np.any(np.diff(v) < 0):
            raise DataError("quantile map values must be sorted and non-missing")

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


@dataclass(frozen=True)
class RepairPlan:
    """Fitted per-feature transport maps toward the weighted barycenter."""

    features: tuple[str, ...]
    protected_label: str
    other_label: str
    n_protected: int  # fit-time group row counts; barycenter weights
    n_other: int
    protected_maps: dict[str, QuantileMap]
    other_maps: dict[str, QuantileMap]

    def target_quantile(self, feature: str, u) -> np.ndarray:
        qp = self.protected_maps[feature].quantile(u)
        qn = self.other_maps[feature].quantile(u)
        total = self.n_protected + self.n_other
        return (self.n_protected * qp + self.n_other * qn) / total


def fit_repair(d: Dataset, features: list[str]) -> RepairPlan:
    """Fit group quantile maps for the listed numeric features."""
    if not features:
        raise DataError("no features listed for repair")
    protected_label, other_label = d.sensitive_modalities()
    protected = d.protected_mask()
    n1 = int(np.count_nonzero(protected))
    n2 = d.n - n1

    protected_maps: dict[str, QuantileMap] = {}
    other_maps: dict[str, QuantileMap] = {}
    for name in features:
        role = d.schema.get(name)
        if role is None or role.kind != "numeric":
            raise DataError(f"{name!r} is not a numeric feature of the dataset")
        values = d.values(name)
        for mask, maps, label in ((protected, protected_maps, protected_label),
                                  (~protected, other_maps, other_label)):
            sample = values[mask]
            sample = sample[~np.isnan(sample)]
            if len(sample) < 2:
                raise DataError(
                    f"feature {name!r}: group {label!r} has {len(sample)} "
                    "non-missing values, need at least 2"
                )
            maps[name] = QuantileMap(np.sort(sample))

    return RepairPlan(
        features=tuple(features),
        protected_label=protected_label,
        other_label=other_label,
        n_protected=n1,
        n_other=n2,
        protected_maps=protected_maps,
        other_maps=other_maps,
    )


def apply_repair(plan: RepairPlan, d: Dataset, lam: float) -> Dataset:
    """Blend each value with its barycenter image: x' = (1 - lam) x + lam Q_T(F_g(x)).

    Only the plan's features change; missing cells stay missing. Values outside
    the fit-time support are clamped to the nearest order statistic of the
    target (their rank saturates at 0 or 1); the clamped count is reported as
    a warning, not an error.
    """
    if not 0.0 <= lam <= 1.0:
        raise DataError(f"lambda must be in [0, 1], got {lam}")
    protected = d.protected_mask()
    out = d
    clamped = 0
    for name in plan.features:
        role = d.schema.get(name)
        if role is None or role.kind != "numeric":
            raise DataError(f"dataset lacks numeric feature {name!r} from the plan")
        values = np.array(d.values(name), dtype=np.float64)
        for mask, qmap in ((protected, plan.protected_maps[name]),
                           (~protected, plan.other_maps[name])):
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
        "protected_label": plan.protected_label,
        "other_label": plan.other_label,
        "group_sizes": {"protected": plan.n_protected, "other": plan.n_other},
        "samples": {
            name: {
                "protected": [float(v) for v in plan.protected_maps[name].values],
                "other": [float(v) for v in plan.other_maps[name].values],
            }
            for name in plan.features
        },
    }


def plan_from_dict(obj: dict) -> RepairPlan:
    if obj.get("format") != "fairaudit-repair/1":
        raise DataError(f"unsupported repair plan format {obj.get('format')!r}")
    features = tuple(obj["features"])
    return RepairPlan(
        features=features,
        protected_label=str(obj["protected_label"]),
        other_label=str(obj["other_label"]),
        n_protected=int(obj["group_sizes"]["protected"]),
        n_other=int(obj["group_sizes"]["other"]),
        protected_maps={
            name: QuantileMap(np.asarray(obj["samples"][name]["protected"]))
            for name in features
        },
        other_maps={
            name: QuantileMap(np.asarray(obj["samples"][name]["other"]))
            for name in features
        },
    )


def save_plan(plan: RepairPlan, path: str | Path) -> None:
    write_json(plan_to_dict(plan), path)


def load_plan(path: str | Path) -> RepairPlan:
    return read_json(path, "repair plan", plan_from_dict)
