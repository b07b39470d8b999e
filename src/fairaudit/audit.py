"""Individual-level discrimination probes.

The flip test re-scores every row with the two sensitive modalities swapped
and records the rows whose hard decision changes. Counts are reported raw,
with row indices, and never filtered for statistical significance: a single
flipped individual is a finding in its own right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .model import LogisticModel, decide, predict_scores


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


def swap_sensitive(d: Dataset) -> Dataset:
    """Copy of the dataset with the two sensitive modalities exchanged."""
    protected, other = d.sensitive_modalities()
    values = d.values(d.sensitive_column)
    swapped = np.where(values == protected, other, protected)
    return d.with_values(d.sensitive_column, swapped)


def flip_test(m: LogisticModel, d: Dataset, threshold: float = 0.5) -> FlipTestResult:
    """Decisions before and after swapping the sensitive modality of every row.

    If the model does not consume the sensitive column the probe is vacuous:
    no row can flip, and the result says so instead of pretending to clear
    the model.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if not m.uses_sensitive:
        return FlipTestResult(n=d.n, to_positive=[], to_negative=[], vacuous=True)

    before = decide(predict_scores(m, d), threshold)
    after = decide(predict_scores(m, swap_sensitive(d)), threshold)
    to_positive = np.flatnonzero(~before & after)
    to_negative = np.flatnonzero(before & ~after)
    return FlipTestResult(
        n=d.n,
        to_positive=to_positive.tolist(),
        to_negative=to_negative.tolist(),
    )

