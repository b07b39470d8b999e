"""Group disparity measures over a 2x2 contingency table, per-group confusion
matrices and their gaps, and the Mann-Whitney AUC.

Orientation convention used throughout: ratios are protected / non-protected
and differences are protected - non-protected. Reports must state this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError


@dataclass(frozen=True)
class ContingencyTable:
    """Counts a..d of positive/negative decisions by protected/non-protected group."""

    a: int  # protected, positive decision
    b: int  # protected, negative decision
    c: int  # non-protected, positive decision
    d: int  # non-protected, negative decision

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.d) < 0:
            raise DataError("contingency counts must be non-negative")
        if self.n < 1:
            raise DataError("contingency table must count at least one row")

    @property
    def n1(self) -> int:
        return self.a + self.b

    @property
    def n2(self) -> int:
        return self.c + self.d

    @property
    def m1(self) -> int:
        return self.a + self.c

    @property
    def m2(self) -> int:
        return self.b + self.d

    @property
    def n(self) -> int:
        return self.a + self.b + self.c + self.d


@dataclass(frozen=True)
class GroupRates:
    """Positive-decision rates: p1 protected, p2 non-protected, p overall."""

    p1: float
    p2: float
    p: float
    corrected: bool = False


@dataclass(frozen=True)
class MetricEstimate:
    """A named point statistic; an interval around it is an ``IntervalEstimate``.

    ``value`` is None when the statistic is undefined on the given data
    (zero denominator).
    """

    name: str
    value: float | None
    corrected: bool = False


@dataclass(frozen=True)
class IntervalEstimate:
    """Confidence interval for a named statistic."""

    statistic: str
    method: str  # "delta" | "bootstrap"
    level: float
    lo: float
    hi: float
    replicates: int | None = None  # bootstrap only
    seed: int | None = None  # bootstrap only

    @staticmethod
    def check_level(level: float) -> None:
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {level}")

    def __post_init__(self):
        self.check_level(self.level)
        if self.lo > self.hi:
            raise ValueError(f"{self.statistic}: lo {self.lo} > hi {self.hi}")


def _group_counts(d: Dataset, code: np.ndarray, k: int, what: str) -> np.ndarray:
    """Counts of each value 0..k-1 of a per-row code within each group: row 0 protected, row 1 the others."""
    counts = np.bincount(code + k * ~d.protected_mask(), minlength=2 * k).reshape(2, k)
    if not counts.sum(axis=1).all():
        raise DataError(f"{what} requires both sensitive groups to be nonempty")
    return counts


def contingency(d: Dataset, positive: np.ndarray | None = None) -> ContingencyTable:
    """Count decisions by group. Both groups must be nonempty.

    ``positive`` is a boolean mask of positive decisions, such as a model's,
    that stands in for the dataset's decision column.
    """
    if positive is None:
        positive = d.positive_decision_mask()
    (neg1, pos1), (neg2, pos2) = _group_counts(d, positive, 2, "contingency").tolist()
    return ContingencyTable(a=pos1, b=neg1, c=pos2, d=neg2)


def corrected_rates(a, c, n1, n2):
    """Group positive rates (p1, p2, corrected) of a of n1 and c of n2, elementwise: where a or c is 0,
    both get the +0.5/+1 zero-cell correction (x + 0.5) / (n + 1), which keeps ratios finite."""
    corrected = (a == 0) | (c == 0)
    p1 = np.where(corrected, (a + 0.5) / (n1 + 1), a / n1)
    p2 = np.where(corrected, (c + 0.5) / (n2 + 1), c / n2)
    return p1, p2, corrected


def base_rates(t: ContingencyTable) -> GroupRates:
    """Group positive rates, zero cells corrected by ``corrected_rates``; the overall rate p is exact."""
    if t.n1 < 1 or t.n2 < 1:
        raise DataError("both groups must be nonempty")
    p1, p2, corrected = corrected_rates(t.a, t.c, t.n1, t.n2)
    return GroupRates(p1=float(p1), p2=float(p2), p=t.m1 / t.n, corrected=bool(corrected))


def disparity_metrics(r: GroupRates) -> dict[str, MetricEstimate]:
    """The four classical disparity measures from the group rates.

    risk_difference   p1 - p2
    disparate_impact  p1 / p2
    relative_chance   (1 - p1) / (1 - p2)
    odds_ratio        disparate_impact / relative_chance
    """
    if not (0.0 < r.p1 < 1.0) or not (0.0 < r.p2 < 1.0):
        raise DataError(
            f"degenerate group rates p1={r.p1}, p2={r.p2}: "
            "ratios are undefined at 0 or 1"
        )
    di = r.p1 / r.p2
    cr = (1.0 - r.p1) / (1.0 - r.p2)
    values = {
        "risk_difference": r.p1 - r.p2,
        "disparate_impact": di,
        "relative_chance": cr,
        "odds_ratio": di / cr,
    }
    return {
        name: MetricEstimate(name, value, corrected=r.corrected)
        for name, value in values.items()
    }


def eighty_percent_verdict(di: MetricEstimate | IntervalEstimate, threshold: float = 0.8) -> str:
    """Four-fifths rule verdict: 'pass', 'fail' or 'inconclusive'.

    An interval fails when it lies wholly below the threshold, passes when it
    lies wholly at or above it, and is inconclusive otherwise. A
    ``MetricEstimate`` is judged as the interval [value, value], so a value
    exactly at the threshold passes.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    lo, hi = (di.value, di.value) if isinstance(di, MetricEstimate) else (di.lo, di.hi)
    if lo is None:
        raise DataError("verdict requires a defined disparate-impact estimate")
    if hi < threshold:
        return "fail"
    if lo >= threshold:
        return "pass"
    return "inconclusive"


# -- confusion matrices ----------------------------------------------------------


def _rate(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


@dataclass(frozen=True)
class GroupConfusion:
    """Confusion counts of one sensitive group: decision vs outcome."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def tpr(self) -> float | None:
        return _rate(self.tp, self.tp + self.fn)

    @property
    def fpr(self) -> float | None:
        return _rate(self.fp, self.fp + self.tn)

    @property
    def fnr(self) -> float | None:
        return _rate(self.fn, self.tp + self.fn)

    @property
    def ppv(self) -> float | None:
        return _rate(self.tp, self.tp + self.fp)

    @property
    def accuracy(self) -> float | None:
        return _rate(self.tp + self.tn, self.total)

    @property
    def base_rate(self) -> float | None:
        """Outcome-positive fraction of the group."""
        return _rate(self.tp + self.fn, self.total)


def group_confusion(d: Dataset) -> tuple[GroupConfusion, GroupConfusion]:
    """(protected, non-protected) confusion matrices of decision against outcome."""
    decision = d.positive_decision_mask()
    outcome = d.positive_outcome_mask()
    counts = _group_counts(d, 2 * decision + outcome, 4, "group confusion")  # columns: tn, fn, fp, tp
    return tuple(GroupConfusion(tp=tp, fp=fp, tn=tn, fn=fn) for tn, fn, fp, tp in counts.tolist())


def confusion_gaps(pair: tuple[GroupConfusion, GroupConfusion]) -> dict[str, MetricEstimate]:
    """Cross-group gaps in confusion rates.

    Equal opportunity and conditional precision are reported as ratios
    (protected / non-protected, comparable to the 0.8 convention); error rates
    as differences (protected - non-protected). Both forms are included. An
    entry is undefined (value None) when a needed rate has a zero denominator.
    """
    p, q = pair

    def gap(name: str, rate: str) -> MetricEstimate:
        x, y = getattr(p, rate), getattr(q, rate)
        ratio = name.endswith("_ratio")
        if x is None or y is None or (ratio and y == 0):
            return MetricEstimate(name, None)
        return MetricEstimate(name, x / y if ratio else x - y)

    table = (
        ("equal_opportunity_ratio", "tpr"),
        ("precision_ratio", "ppv"),
        ("fpr_difference", "fpr"),
        ("fnr_difference", "fnr"),
        ("accuracy_difference", "accuracy"),
        ("equal_opportunity_difference", "tpr"),
        ("precision_difference", "ppv"),
        ("fpr_ratio", "fpr"),
        ("fnr_ratio", "fnr"),
    )
    return {name: gap(name, rate) for name, rate in table}


# -- AUC --------------------------------------------------------------------------


def auc(scores, outcomes) -> MetricEstimate:
    """Mann-Whitney AUC: P(score_pos > score_neg) with ties counted 1/2.

    Counted with two sorts and two binary searches; the count is an integer, so it
    matches the exhaustive pair count exactly. Outcomes must be boolean or 0/1.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(outcomes)
    if s.shape != y.shape or s.ndim != 1:
        raise DataError("scores and outcomes must be 1-d sequences of equal length")
    if not np.all(np.isfinite(s)):
        raise DataError("scores must be finite")
    pos = y.astype(bool, copy=False)
    if not np.array_equal(pos, y):
        raise DataError("outcomes must be boolean or 0/1")
    hits, neg = s[pos], s[~pos]
    if len(hits) == 0 or len(neg) == 0:
        raise DataError("AUC requires at least one positive and one negative outcome")
    hits.sort()
    neg.sort()
    # each positive counts the negatives below it twice and the tied ones once (-0.0 ties 0.0)
    twice = int(np.searchsorted(neg, hits, "left").sum() + np.searchsorted(neg, hits, "right").sum())
    return MetricEstimate("auc", twice / 2.0 / (len(hits) * len(neg)))
