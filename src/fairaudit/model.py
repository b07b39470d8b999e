"""Baseline logistic-regression learner: the audit subject.

Deliberately dependency-free and deterministic: damped Newton (IRLS) on the
mean log loss plus an L2 = 1e-3 penalty on the weights, from zero, halving each
step until the loss does not increase, for at most MAX_ITER = 5000 steps or until
the gradient max-norm is below TOL = 1e-6 (fixed settings; only the training
target is chosen), and an explicit feature encoding (standardized numerics with
mean imputation, one-hot categoricals against a lexicographic reference, and an
optional protected-group indicator so discriminating models can be constructed
on purpose for flip-test demonstrations).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import CATEGORICAL, DECISION, NUMERIC, OUTCOME, Dataset, read_json, split, write_json
from .errors import DataError
from .rng import derive_seed


@dataclass(frozen=True)
class NumericSpec:
    name: str
    mean: float  # training mean, also the imputation value
    sd: float  # training standard deviation, > 0


@dataclass(frozen=True)
class CategoricalSpec:
    name: str
    modalities: tuple[str, ...]  # sorted; modalities[0] is the reference


@dataclass(frozen=True)
class SensitiveSpec:
    name: str
    protected: str  # encoded as indicator(value == protected)


@dataclass(frozen=True)
class FeatureEncoding:
    """Deterministic mapping from dataset columns to a design matrix."""

    source_order: tuple[str, ...]
    numeric: dict[str, NumericSpec]
    categorical: dict[str, CategoricalSpec]
    sensitive: SensitiveSpec | None
    dropped: tuple[str, ...] = ()

    def __post_init__(self):
        names = self.feature_names
        if clash := sorted({f for f in names if names.count(f) > 1}):
            raise DataError(f"design-matrix feature names {clash} are not unique")
        specs = [*self.numeric, *self.categorical, *([self.sensitive.name] if self.sensitive else [])]
        if twice := sorted({c for c in specs if specs.count(c) > 1}):
            raise DataError(f"encoding names {twice} under more than one kind")
        if sorted(self.source_order) != sorted(specs):
            raise DataError(f"encoding.source_order {list(self.source_order)} must name each of {sorted(specs)} once")

    def column_features(self, col: str) -> list[str]:
        """Names of the design-matrix columns that one source column encodes to."""
        if col in self.numeric:
            return [col]
        if col in self.categorical:
            return [f"{col}={m}" for m in self.categorical[col].modalities[1:]]
        if self.sensitive is not None and col == self.sensitive.name:
            return [f"{col}={self.sensitive.protected}"]
        return []

    @property
    def feature_names(self) -> list[str]:
        return [name for col in self.source_order for name in self.column_features(col)]

    @property
    def dimension(self) -> int:
        return len(self.feature_names)

    @property
    def blocks(self) -> dict[str, slice]:
        """Each source column that encodes to at least one design-matrix column -> the slice of them."""
        blocks, stop = {}, 0
        for col in self.source_order:
            if width := len(self.column_features(col)):
                blocks[col] = slice(stop, stop + width)
                stop += width
        return blocks


def _numeric_feature(d: Dataset, name: str) -> np.ndarray:
    """A numeric feature's cells as floats, NaN where missing; another role or an infinite cell is refused."""
    if name in d.schema and d.schema[name].kind != NUMERIC:
        raise DataError(f"model feature {name!r} is numeric, but the table's column {name!r} is {d.schema[name].kind}")
    values = d.values(name)
    if np.isinf(values).any():
        raise DataError(f"numeric column {name!r} holds infinite values, which a model cannot encode")
    return values


def build_encoding(d: Dataset, include_sensitive: bool = False) -> FeatureEncoding:
    """Fit the encoding on a training dataset."""
    numeric: dict[str, NumericSpec] = {}
    categorical: dict[str, CategoricalSpec] = {}
    dropped: list[str] = []
    order: list[str] = []

    for name, role in d.schema.items():
        if role.kind == NUMERIC:
            values = _numeric_feature(d, name)
            ok = ~np.isnan(values)
            if not ok.any():
                warnings.warn(f"numeric column {name!r} is entirely missing; dropped")
                dropped.append(name)
                continue
            mean = float(np.mean(values[ok]))
            sd = float(np.std(values[ok]))
            if sd == 0.0:
                warnings.warn(f"numeric column {name!r} is constant; dropped")
                dropped.append(name)
                continue
            numeric[name] = NumericSpec(name, mean, sd)
            order.append(name)
        elif role.kind == CATEGORICAL:
            modalities = tuple(m for m in d.modality_counts(name) if m)  # sorted; "" is a missing cell
            categorical[name] = CategoricalSpec(name, modalities)
            order.append(name)

    sensitive = None
    if include_sensitive:
        s_name = d.sensitive_column
        sensitive = SensitiveSpec(s_name, str(d.schema[s_name].protected))
        order.append(s_name)

    return FeatureEncoding(
        source_order=tuple(order),
        numeric=numeric,
        categorical=categorical,
        sensitive=sensitive,
        dropped=tuple(dropped),
    )


def encode(enc: FeatureEncoding, d: Dataset) -> np.ndarray:
    """Design matrix for a dataset under a fitted encoding."""
    X = np.empty((d.n, enc.dimension))
    blocks = enc.blocks
    for name in enc.source_order:
        if name in enc.numeric:
            spec = enc.numeric[name]
            x = np.array(_numeric_feature(d, name))
            x[np.isnan(x)] = spec.mean
            with np.errstate(over="ignore", invalid="ignore"):
                z = (x - spec.mean) / spec.sd
            if not np.isfinite(z).all():
                raise DataError(f"numeric column {name!r} overflows when standardized by the model's sd")
            X[:, blocks[name].start] = z
        elif name in enc.categorical:
            spec = enc.categorical[name]
            values = d.values(name)
            known = np.isin(values, spec.modalities) | (values == "")
            if not known.all():
                warnings.warn(
                    f"column {name!r}: {int(np.count_nonzero(~known))} values outside "
                    "the training modalities encoded as all-zeros"
                )
            # a one-modality column has no block, but its unknown labels are still counted
            X[:, blocks.get(name, slice(0, 0))] = values[:, None] == np.array(spec.modalities[1:], dtype=str)
        else:
            X[:, blocks[name].start] = d.values(name) == enc.sensitive.protected
    return X


# -- the model ---------------------------------------------------------------------


MAX_ITER = 5000
L2 = 1e-3
TOL = 1e-6  # gradient max-norm convergence threshold


@dataclass(frozen=True)
class LogisticModel:
    encoding: FeatureEncoding
    weights: np.ndarray
    intercept: float
    target: str  # "auto" | "decision" | "outcome"
    target_column: str
    converged: bool

    def __post_init__(self):
        if len(self.weights) != self.encoding.dimension:
            raise DataError("weight vector length does not match encoding dimension")
        if not np.all(np.isfinite(self.weights)) or not math.isfinite(self.intercept):
            raise DataError("model parameters must be finite")


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function with outputs kept inside (0, 1)."""
    ez = np.exp(-np.abs(np.clip(z, -700.0, 700.0)))  # e^-|z| never overflows
    out = np.where(z >= 0, 1.0, ez) / (1.0 + ez)
    return np.clip(out, 5e-324, 1.0 - 1e-16)


def loss_and_gradient(params: np.ndarray, X: np.ndarray, y: np.ndarray, l2: float) -> tuple[float, np.ndarray]:
    """Penalized mean log loss and its gradient; params = [intercept, weights...].

    The intercept is not penalized.
    """
    b, w = params[0], params[1:]
    z = b + X @ w
    # mean(log(1 + e^z) - y z), stable for large |z|
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * l2 * float(w @ w)
    resid = sigmoid(z) - y
    grad = np.empty_like(params)
    grad[0] = float(np.mean(resid))
    grad[1:] = X.T @ resid / len(y) + l2 * w
    return loss, grad


def _resolve_target(d: Dataset, choice: str) -> tuple[str, np.ndarray]:
    if choice == "auto":
        choice = DECISION if d.decision_column is not None else OUTCOME
    if choice not in (DECISION, OUTCOME):
        raise DataError(f"unknown training target {choice!r}")
    name = d.decision_column if choice == DECISION else d.outcome_column
    if name is None:
        raise DataError(f"dataset has no {choice} column to train on")
    mask = d.positive_decision_mask() if choice == DECISION else d.positive_outcome_mask()
    return name, mask.astype(np.float64)


def _newton(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, bool]:
    """Damped Newton (IRLS) from zero; returns (params, converged)."""
    Xa = np.column_stack([np.ones(len(y)), X])
    penalty = np.diag(np.r_[0.0, np.full(X.shape[1], L2)])
    params = np.zeros(X.shape[1] + 1)
    loss, grad = loss_and_gradient(params, X, y, L2)
    for _ in range(MAX_ITER):
        if float(np.max(np.abs(grad))) < TOL:
            break
        p = sigmoid(Xa @ params)
        hessian = (Xa.T * (p * (1.0 - p))) @ Xa / len(y) + penalty
        # H is positive definite as L2 > 0; lstsq, not solve, keeps the corpus weights bit-exact
        step = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        scale = 1.0
        while scale >= 1e-14:
            candidate = params - scale * step
            new_loss, new_grad = loss_and_gradient(candidate, X, y, L2)
            if new_loss <= loss:
                break
            scale *= 0.5  # damp on any loss increase
        else:
            break  # no step along the Newton direction lowers the loss
        params, loss, grad = candidate, new_loss, new_grad
    return params, float(np.max(np.abs(grad))) < TOL


def train_logistic(d: Dataset, include_sensitive: bool = False, target: str = "auto") -> LogisticModel:
    """Fit the baseline by damped Newton steps (IRLS) from zero parameters."""
    target_name, y = _resolve_target(d, target)
    enc = build_encoding(d, include_sensitive=include_sensitive)
    if enc.dimension == 0:
        raise DataError("degenerate encoding: no usable feature columns")
    if d.n < enc.dimension + 1:
        raise DataError(f"need at least {enc.dimension + 1} rows to fit {enc.dimension} features")
    X = encode(enc, d)

    rate = float(np.mean(y))
    if rate in (0.0, 1.0):
        # constant target: the optimum is the constant class
        clipped = min(max(rate, 1e-6), 1.0 - 1e-6)
        params = np.r_[math.log(clipped / (1.0 - clipped)), np.zeros(enc.dimension)]
        converged = True
    else:
        params, converged = _newton(X, y)
    weights = params[1:].copy()
    weights.flags.writeable = False
    return LogisticModel(
        encoding=enc,
        weights=weights,
        intercept=float(params[0]),
        target=target,
        target_column=target_name,
        converged=converged,
    )


def score_matrix(m: LogisticModel, X: np.ndarray) -> np.ndarray:
    return sigmoid(m.intercept + X @ m.weights)


def predict_scores(m: LogisticModel, d: Dataset) -> np.ndarray:
    """Probability scores for every row of a dataset."""
    return score_matrix(m, encode(m.encoding, d))


def decide(score, threshold: float = 0.5):
    """Binary decision: positive iff score >= threshold (ties positive)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    return np.asarray(score) >= threshold


@dataclass(frozen=True)
class ErrorEstimate:
    rate: float
    sd: float | None
    scheme: str  # "holdout" | "monte-carlo-cv"
    replicates: int
    seed: int | None = None


def target_mask(m: LogisticModel, d: Dataset) -> np.ndarray:
    """Positive rows of the model's training target in a dataset."""
    role = d.schema.get(m.target_column)
    if role is None or role.kind not in (DECISION, OUTCOME):
        raise DataError(f"dataset lacks the model's target column {m.target_column!r}")
    return d.values(m.target_column) == role.positive


def test_error(m: LogisticModel, d: Dataset, threshold: float = 0.5) -> ErrorEstimate:
    """Misclassification rate of thresholded scores against the model's target."""
    y = target_mask(m, d)
    decisions = decide(predict_scores(m, d), threshold)
    rate = float(np.mean(decisions != y))
    return ErrorEstimate(rate=rate, sd=None, scheme="holdout", replicates=1)


def cross_validate(d: Dataset, replicates: int, test_fraction: float, seed: int,
                   target: str = "auto",
                   include_sensitive: bool = False,
                   threshold: float = 0.5) -> ErrorEstimate:
    """Monte-Carlo cross-validation: repeated stratified splits, mean test error."""
    if replicates < 2:
        raise DataError(f"cross-validation requires at least 2 replicates, got {replicates}")
    rates = []
    for i in range(replicates):
        train_d, test_d = split(d, test_fraction, derive_seed(seed, i))
        m = train_logistic(train_d, include_sensitive=include_sensitive, target=target)
        rates.append(test_error(m, test_d, threshold).rate)
    rates_arr = np.asarray(rates)
    return ErrorEstimate(
        rate=float(np.mean(rates_arr)),
        sd=float(np.std(rates_arr, ddof=1)),
        scheme="monte-carlo-cv",
        replicates=replicates,
        seed=seed,
    )


# -- serialization -----------------------------------------------------------------


def model_to_dict(m: LogisticModel) -> dict:
    return {
        "format": "fairaudit-model/1",
        "intercept": m.intercept,
        "weights": [float(w) for w in m.weights],
        "converged": m.converged,
        "target_column": m.target_column,
        "config": {"max_iter": MAX_ITER, "l2": L2, "tol": TOL, "target": m.target},
        "encoding": asdict(m.encoding),  # tuples serialize as JSON lists
    }


def model_from_dict(obj: dict) -> LogisticModel:
    if obj.get("format") != "fairaudit-model/1":
        raise DataError(f"unsupported model format {obj.get('format')!r}")
    enc_obj = obj["encoding"]
    enc = FeatureEncoding(
        source_order=tuple(enc_obj["source_order"]),
        numeric={k: NumericSpec(v["name"], float(v["mean"]), float(v["sd"]))
                 for k, v in enc_obj["numeric"].items()},
        categorical={
            k: CategoricalSpec(v["name"], tuple(v["modalities"]))
            for k, v in enc_obj["categorical"].items()
        },
        sensitive=SensitiveSpec(**enc_obj["sensitive"]) if enc_obj["sensitive"] else None,
        dropped=tuple(enc_obj.get("dropped", ())),
    )
    if bad := [k for k, v in enc.numeric.items() if not (math.isfinite(v.mean) and 0.0 < v.sd < math.inf)]:
        raise DataError(f"encoding.numeric {bad} need a finite mean and a finite sd > 0")
    weights = np.asarray(obj["weights"], dtype=np.float64)
    if weights.ndim != 1:
        raise DataError(f"weights must be a flat list of numbers, got shape {weights.shape}")
    weights.flags.writeable = False
    return LogisticModel(
        encoding=enc,
        weights=weights,
        intercept=float(obj["intercept"]),
        # the other recorded solver settings are provenance, not inputs
        target=str(obj["config"].get("target", "auto")),
        target_column=str(obj["target_column"]),
        converged=bool(obj["converged"]),
    )


def save_model(m: LogisticModel, path: str | Path) -> None:
    write_json(model_to_dict(m), path)


def load_model(path: str | Path) -> LogisticModel:
    return read_json(path, "model", model_from_dict)
