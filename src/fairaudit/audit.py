"""Individual-level discrimination probes.

The flip test re-scores every row with the model's protected-group indicator
flipped and records the rows whose hard decision changes. Counts are reported
raw, with row indices, and never filtered for statistical significance: a
single flipped individual is a finding in its own right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError
from .model import FeatureEncoding, LogisticModel, decide, encode, score_matrix


@dataclass(frozen=True)
class FlipTestResult:
    n: int
    to_positive: list[int]  # row indices whose decision improved when swapped
    to_negative: list[int]
    vacuous: bool = False  # model does not consume the sensitive column

    @property
    def flip_count(self) -> int:
        return len(self.to_positive) + len(self.to_negative)

    @property
    def flip_rate(self) -> float:
        return self.flip_count / self.n


def swap_sensitive(enc: FeatureEncoding, X: np.ndarray) -> np.ndarray:
    """Copy of a design matrix with the protected-group indicator column flipped."""
    j = enc.blocks[enc.sensitive.name].start
    flipped = X.copy()
    flipped[:, j] = 1.0 - X[:, j]
    return flipped


def flip_test(m: LogisticModel, d: Dataset, threshold: float = 0.5) -> FlipTestResult:
    """Decisions before and after flipping the model's protected-group indicator of every row.

    If the model does not consume the sensitive column the probe is vacuous:
    no row can flip, and the result says so instead of pretending to clear
    the model.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    s = m.encoding.sensitive
    if s is None:
        return FlipTestResult(n=d.n, to_positive=[], to_negative=[], vacuous=True)
    if s.name != d.sensitive_column:
        raise DataError(f"the model's sensitive column {s.name!r} is not the table's, {d.sensitive_column!r}")
    if not (d.values(s.name) == s.protected).any() and len(labels := list(d.modality_counts(s.name))) == 2:
        raise DataError(f"no row has the model's protected label {s.protected!r}, but {s.name!r} holds {labels}")

    X = encode(m.encoding, d)
    before = decide(score_matrix(m, X), threshold)
    after = decide(score_matrix(m, swap_sensitive(m.encoding, X)), threshold)
    to_positive = np.flatnonzero(~before & after)
    to_negative = np.flatnonzero(before & ~after)
    return FlipTestResult(
        n=d.n,
        to_positive=to_positive.tolist(),
        to_negative=to_negative.tolist(),
    )
