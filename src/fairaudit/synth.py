"""Deterministic synthetic generator with an analytically known disparate impact.

Rows carry two unit-variance Gaussian features with group-dependent means.
Decisions are Bernoulli draws of a logistic score over the features plus a
group-bias term for protected rows; outcomes are Bernoulli draws of a separate
logistic score with a per-group base-rate offset. Because the linear score of
a Gaussian row is itself Gaussian, the exact positive-decision probability of
each group is a one-dimensional integral of the logistic function against a
normal density, evaluated here by 200-node Gauss-Legendre quadrature
(error well below 1e-6). That integral is the ground truth the estimators
are checked against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .data import Dataset, parse_schema
from .errors import DataError
from .model import sigmoid
from .rng import CounterRng

PROTECTED_LABEL = "P"
OTHER_LABEL = "N"
_QUAD_NODES = 200
_BIAS_LO, _BIAS_HI = -20.0, 20.0  # the group-bias range solve_group_bias searches

# role declaration of every generated table, in JSON form (``synth --schema-out``)
SCHEMA = {
    "x1": {"role": "numeric"},
    "x2": {"role": "numeric"},
    "s": {"role": "sensitive", "protected": PROTECTED_LABEL},
    "y": {"role": "decision", "positive": "1"},
    "t": {"role": "outcome", "positive": "1"},
}


@dataclass(frozen=True)
class GeneratorSpec:
    n: int
    seed: int
    protected_fraction: float = 0.5
    mu_protected: tuple[float, float] = (0.0, 0.0)
    mu_other: tuple[float, float] = (0.25, 0.25)
    decision_weights: tuple[float, float] = (2.0, 2.0)
    decision_intercept: float = -0.5
    group_bias: float = 0.0  # added to the decision score of protected rows
    outcome_weights: tuple[float, float] = (1.0, 1.0)
    outcome_offset_protected: float = 0.0
    outcome_offset_other: float = 0.0

    def __post_init__(self):
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (self.n, self.seed)):
            raise DataError(f"n and seed must be integers, got n={self.n!r}, seed={self.seed!r}")
        pairs = (self.mu_protected, self.mu_other, self.decision_weights, self.outcome_weights)
        if any(len(pair) != 2 for pair in pairs):
            raise DataError("mu_protected, mu_other, decision_weights and outcome_weights need 2 entries each")
        if self.n < 1:
            raise DataError(f"n must be >= 1, got {self.n}")
        if not 0.0 < self.protected_fraction < 1.0:
            raise DataError(f"protected_fraction must be in (0, 1), got {self.protected_fraction}")
        params = (*(x for pair in pairs for x in pair), self.decision_intercept, self.group_bias,
                  self.outcome_offset_protected, self.outcome_offset_other)
        if not all(math.isfinite(p) for p in params):
            raise DataError("generator parameters must be finite")


def spec_from_dict(obj: dict) -> GeneratorSpec:
    """Build a spec from a JSON-style object; list values become tuples."""
    known = {f.name for f in fields(GeneratorSpec)}
    unknown = set(obj) - known
    if unknown:
        raise DataError(f"unknown generator fields {sorted(unknown)}")
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()}
    try:
        return GeneratorSpec(**kwargs)
    except TypeError as e:
        raise DataError(f"invalid generator spec: {e}") from None


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built on first use; callers share them."""
    return np.polynomial.legendre.leggauss(_QUAD_NODES)


def mean_sigmoid_normal(mean: float, sd: float) -> float:
    """E[sigmoid(Z)] for Z ~ N(mean, sd^2), by Gauss-Legendre quadrature."""
    if sd == 0.0:
        return float(sigmoid(np.array([mean]))[0])
    nodes, weights = _legendre_rule()
    # integrate over +-10 sd; the omitted tail mass is ~1.5e-23
    half = 10.0 * sd
    t = mean + half * nodes
    density = np.exp(-0.5 * ((t - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
    return float(np.sum(weights * sigmoid(t) * density) * half)


def _decision_score_stats(spec: GeneratorSpec, protected: bool) -> tuple[float, float]:
    w = np.asarray(spec.decision_weights)
    mu = np.asarray(spec.mu_protected if protected else spec.mu_other)
    mean = float(w @ mu) + spec.decision_intercept + (spec.group_bias if protected else 0.0)
    sd = float(np.sqrt(np.sum(w**2)))  # unit-variance independent features
    return mean, sd


def true_group_rates(spec: GeneratorSpec) -> tuple[float, float]:
    """Exact (protected, non-protected) positive-decision probabilities."""
    return (
        mean_sigmoid_normal(*_decision_score_stats(spec, protected=True)),
        mean_sigmoid_normal(*_decision_score_stats(spec, protected=False)),
    )


def true_disparate_impact(spec: GeneratorSpec) -> float:
    rate_p, rate_n = true_group_rates(spec)
    return rate_p / rate_n


def solve_group_bias(spec: GeneratorSpec, target_di: float) -> float:
    """Group-bias value whose exact disparate impact equals ``target_di``.

    The disparate impact is strictly increasing in the bias term, so plain
    bisection converges; the result is accurate to ~1e-12 in the bias.
    """
    if not target_di > 0:  # NaN too: it brackets nothing, and bisection would run to the lower end
        raise DataError(f"target disparate impact must be positive, got {target_di}")

    def di(bias: float) -> float:
        return true_disparate_impact(replace(spec, group_bias=bias))

    lo, hi = _BIAS_LO, _BIAS_HI
    if di(lo) > target_di or di(hi) < target_di:
        raise DataError(f"target {target_di} not bracketed by bias range [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # lo and hi are adjacent doubles: the midpoint can only repeat
        if di(mid) - target_di <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def generate(spec: GeneratorSpec) -> tuple[Dataset, float]:
    """Draw a dataset from a generator configuration, with its exact disparate impact.

    The draw order is fixed (group uniforms, feature normals, decision
    uniforms, outcome uniforms), so a seed pins the dataset bit-for-bit.
    """
    rng = CounterRng(spec.seed)
    n = spec.n
    protected = rng.uniforms(n) < spec.protected_fraction
    if protected.all() or not protected.any():
        raise DataError(f"the n={n} rows drawn with seed {spec.seed} hold one sensitive group, not both")
    x = rng.normals(2 * n).reshape(n, 2)
    mu = np.where(protected[:, None], spec.mu_protected, spec.mu_other)
    x = x + mu

    w_dec = np.asarray(spec.decision_weights)
    z_dec = x @ w_dec + spec.decision_intercept + spec.group_bias * protected
    decision = rng.uniforms(n) < sigmoid(z_dec)

    w_out = np.asarray(spec.outcome_weights)
    offset = np.where(protected, spec.outcome_offset_protected, spec.outcome_offset_other)
    z_out = x @ w_out + offset
    outcome = rng.uniforms(n) < sigmoid(z_out)

    columns = {
        "x1": x[:, 0],
        "x2": x[:, 1],
        "s": np.where(protected, PROTECTED_LABEL, OTHER_LABEL),
        "y": np.where(decision, "1", "0"),
        "t": np.where(outcome, "1", "0"),
    }
    return Dataset(parse_schema(SCHEMA), columns), true_disparate_impact(spec)
