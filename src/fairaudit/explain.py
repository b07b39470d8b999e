"""Explanation aids: global permutation importance and a local linear surrogate.

Permutation importance is the mean decrease in decision accuracy when one
column is randomly permuted. The surrogate approximates the model's
probability score around one instance by weighted least squares on Gaussian
perturbations of the numeric features; the approximation is local by
construction and meaningless globally, which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError
from .model import LogisticModel, decide, encode, score_matrix, target_mask
from .rng import CounterRng, derive_seed


@dataclass(frozen=True)
class PermutationImportance:
    baseline_accuracy: float
    repeats: int
    seed: int
    importances: dict[str, float]  # baseline accuracy minus mean permuted accuracy


@dataclass(frozen=True)
class LocalSurrogate:
    row: int
    intercept: float
    coefficients: dict[str, float]  # per numeric feature, in raw feature units
    kernel_width: float
    n_samples: int
    seed: int
    r_squared: float  # weighted; 0 for zero-variance targets


def permutation_importance(m: LogisticModel, d: Dataset, threshold: float = 0.5,
                           repeats: int = 10, seed: int = 0) -> PermutationImportance:
    """Mean decrease in accuracy over ``repeats`` random permutations per column.

    Every feature column plus the sensitive column is probed, whether or not
    the model consumes it; a column the model ignores scores exactly zero.
    """
    if repeats < 1:
        raise DataError(f"repeats must be >= 1, got {repeats}")
    y = target_mask(m, d)
    X = encode(m.encoding, d)
    baseline = float(np.mean(decide(score_matrix(m, X), threshold) == y))

    # encoding is row-wise, so permuting a column's rows permutes exactly its
    # block of design-matrix columns; a column with no block scores 0.0 undrawn
    blocks = m.encoding.blocks

    columns = d.numeric_features + d.categorical_features + [d.sensitive_column]
    importances = dict.fromkeys(columns, 0.0)
    for fi, name in enumerate(columns):  # each column's sub-seed follows its index, drawn or not
        if name in blocks:
            permuted = X.copy()
            accs = []
            for r in range(repeats):
                rng = CounterRng(derive_seed(derive_seed(seed, fi), r))
                permuted[:, blocks[name]] = X[rng.permutation(d.n), blocks[name]]
                accs.append(float(np.mean(decide(score_matrix(m, permuted), threshold) == y)))
            importances[name] = baseline - float(np.mean(accs))
    return PermutationImportance(
        baseline_accuracy=baseline,
        repeats=repeats,
        seed=seed,
        importances=importances,
    )


def local_surrogate(m: LogisticModel, row: int, d: Dataset, n_samples: int = 1000,
                    kernel_width: float | None = None, seed: int = 0) -> LocalSurrogate:
    """Weighted linear fit of the model score around one row.

    Numeric features are perturbed with independent Gaussians whose scale is
    the training standard deviation; categorical values are held fixed. Sample
    weights decay as exp(-dist^2 / width^2) in standardized Euclidean
    distance from the instance. Coefficients are per raw feature unit.
    """
    if not 0 <= row < d.n:
        raise DataError(f"row index {row} out of range for n={d.n}")
    # each numeric feature, in source order, and its column in the design matrix
    numeric = {name: block.start for name, block in m.encoding.blocks.items() if name in m.encoding.numeric}
    if not numeric:
        raise DataError("model consumes no numeric features; nothing to perturb")
    if n_samples < 10 * len(numeric):
        raise DataError(f"need n_samples >= {10 * len(numeric)}, got {n_samples}")
    if kernel_width is None:
        kernel_width = 0.75 * np.sqrt(len(numeric))
    if not kernel_width > 0:
        raise DataError(f"kernel width must be positive, got {kernel_width}")

    # base encoded row (imputation and dummies included)
    base = encode(m.encoding, d.take([row]))[0]
    positions = list(numeric.values())
    means = np.array([m.encoding.numeric[n].mean for n in numeric])
    sds = np.array([m.encoding.numeric[n].sd for n in numeric])

    rng = CounterRng(derive_seed(seed, row))
    offsets = rng.normals(n_samples * len(numeric)).reshape(n_samples, len(numeric))

    X_enc = np.tile(base, (n_samples, 1))
    X_enc[:, positions] = base[positions] + offsets  # standardized perturbed numerics
    scores = score_matrix(m, X_enc)

    dist_sq = np.sum(offsets**2, axis=1)
    w = np.exp(-dist_sq / kernel_width**2)

    # LIME's fit: scores on the standardized offsets, which are N(0, 1) and
    # well conditioned whatever the model's means and sds; then raw units
    A = np.column_stack([np.ones(n_samples), offsets])
    root_w = np.sqrt(w)
    beta, _, rank, _ = np.linalg.lstsq(A * root_w[:, None], scores * root_w, rcond=None)
    if rank < A.shape[1]:
        raise DataError(f"local surrogate of row {row}: kernel width {kernel_width} "
                        f"gives a rank-deficient fit (rank {rank} of {A.shape[1]})")
    slopes = beta[1:] / sds
    intercept = beta[0] - slopes @ (base[positions] * sds + means)
    if not np.all(np.isfinite(np.append(slopes, intercept))):
        raise DataError(f"local surrogate of row {row}: raw-unit coefficients are not finite")

    fitted = A @ beta
    w_mean = float(np.sum(w * scores) / np.sum(w))
    ss_tot = float(np.sum(w * (scores - w_mean) ** 2))
    ss_res = float(np.sum(w * (scores - fitted) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0

    return LocalSurrogate(
        row=row,
        intercept=float(intercept),
        coefficients={name: float(b) for name, b in zip(numeric, slopes)},
        kernel_width=float(kernel_width),
        n_samples=n_samples,
        seed=seed,
        r_squared=r2,
    )
