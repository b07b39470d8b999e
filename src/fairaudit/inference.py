"""Confidence intervals for disparity ratios.

Two routes are provided on purpose: a closed-form delta-method interval on the
log ratio scale, and a seeded stratified bootstrap that serves as a transparent
cross-check of the delta interval rather than as a production interval.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from statistics import NormalDist
from typing import Callable

import numpy as np

from .data import Dataset
from .errors import DataError
from .metrics import (ContingencyTable, GroupConfusion, IntervalEstimate, base_rates, contingency, corrected_rates,
                      group_confusion)
from .rng import resample_blocks

BOOTSTRAP_CHUNK_DRAWS = 1 << 16  # indices per chunk of replicates: 2**20 ran slower, with more RSS


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (Wichura's AS241, through the standard library)."""
    if not 0.0 < p < 1.0:  # also refuses NaN, which NormalDist.inv_cdf would return
        raise ValueError(f"quantile argument must be in (0, 1), got {p}")
    return NormalDist().inv_cdf(p)


def _log_ratio_interval(statistic: str, p1: float, p2: float, n1: int, n2: int,
                        level: float) -> IntervalEstimate:
    IntervalEstimate.check_level(level)
    if not (0.0 < p1 and 0.0 < p2):
        raise DataError(f"degenerate rates p1={p1}, p2={p2} after correction")
    se = math.sqrt((1.0 - p1) / (n1 * p1) + (1.0 - p2) / (n2 * p2))
    z = normal_quantile((1.0 + level) / 2.0)
    log_ratio, half = math.log(p1 / p2), z * se
    return IntervalEstimate(statistic, "delta", level, math.exp(log_ratio - half), math.exp(log_ratio + half))


def di_ci_delta(t: ContingencyTable, level: float = 0.95) -> IntervalEstimate:
    """Delta-method interval for the disparate-impact ratio on the log scale."""
    if t.n1 < 2 or t.n2 < 2:
        raise DataError("interval requires at least 2 rows per group")
    r = base_rates(t)
    return _log_ratio_interval("disparate_impact", r.p1, r.p2, t.n1, t.n2, level)


def eo_ci_delta(pair: tuple[GroupConfusion, GroupConfusion], level: float = 0.95) -> IntervalEstimate:
    """Delta-method interval for the equal-opportunity (TPR) ratio.

    Same form as the disparate-impact interval, applied to the outcome-positive
    sub-population: rates become group TPRs and sizes the outcome-positive counts.
    """
    p, q = pair
    m1, m2 = p.tp + p.fn, q.tp + q.fn
    if m1 < 2 or m2 < 2:
        raise DataError("interval requires at least 2 outcome-positive rows per group")
    return _log_ratio_interval("equal_opportunity_ratio", p.tp / m1, q.tp / m2, m1, m2, level)


# -- bootstrap --------------------------------------------------------------------


def disparate_impact_statistic(d: Dataset) -> float:
    """Point disparate impact of a dataset's decisions (zero cells corrected)."""
    r = base_rates(contingency(d))
    return r.p1 / r.p2


def equal_opportunity_statistic(d: Dataset) -> float:
    """Ratio of group true-positive rates of a dataset's decisions."""
    p, q = group_confusion(d)
    if p.tpr is None or q.tpr is None or q.tpr == 0:
        raise DataError("TPR undefined in a group")
    return p.tpr / q.tpr


def _di_from_counts(sums, n1, n2):
    p1, p2, _ = corrected_rates(*sums.T, n1, n2)
    return p1 / p2


def _eo_from_counts(sums, n1, n2):
    (tp1, tp2), (m1, m2) = (sums & 0xFFFFFFFF).T, (sums >> 32).T
    return np.where((m1 == 0) | (tp2 == 0), np.nan, (tp1 / m1) / (tp2 / m2))


def _count_form(statistic: Callable[[Dataset], float], d: Dataset, order: np.ndarray):
    """(table, form) of a built-in statistic: its value is ``form`` of the sums of ``table`` (one entry per
    row of ``order``) over each group, and of n1, n2; NaN where undefined. EO packs two bits in an entry."""
    if statistic is disparate_impact_statistic:
        return d.positive_decision_mask()[order].astype(np.int64), _di_from_counts
    if statistic is equal_opportunity_statistic:
        outcome = d.positive_outcome_mask()[order].astype(np.int64)
        return (d.positive_decision_mask()[order] & outcome) + (outcome << 32), _eo_from_counts
    return None, None


def bootstrap_ci(statistic: Callable[[Dataset], float], d: Dataset, B: int, seed: int,
                 level: float = 0.95, name: str | None = None) -> IntervalEstimate:
    """Percentile bootstrap interval, stratified by sensitive group.

    Each replicate resamples rows with replacement within each group, so the
    group sizes n1, n2 are held fixed. Replicate i draws from a sub-seed
    derived from (seed, i), making the result independent of execution order.
    The built-in statistics are counted over chunks of replicates, bit-identical
    to evaluating them on each resample; any other callable gets each resample
    from ``Dataset.take``. Replicates where the statistic raises DataError or
    is NaN are dropped with a warning, and more than 10% of them raise.
    """
    IntervalEstimate.check_level(level)
    if isinstance(B, bool) or not isinstance(B, (int, np.integer)) or B < 100:
        raise DataError(f"bootstrap requires an integer B >= 100, got {B!r}")
    protected = d.protected_mask()
    groups = [g for g in (np.flatnonzero(protected), np.flatnonzero(~protected)) if len(g) > 0]
    order, sizes, values, form = np.concatenate(groups), [len(g) for g in groups], np.empty(B), None
    with contextlib.suppress(DataError):  # a missing column: each resample fails below
        table, form = _count_form(statistic, d, order) if len(groups) == 2 else (None, None)
    for start, block in resample_blocks(seed, sizes, B, max(1, BOOTSTRAP_CHUNK_DRAWS // d.n)):
        if form is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                sums = np.add.reduceat(table.take(block), [0, sizes[0]], axis=1)
                values[start:start + len(block)] = form(sums, *sizes)
            continue
        for i, row in enumerate(order.take(block), start):
            try:
                values[i] = statistic(d.take(row))
            except DataError:
                values[i] = np.nan
    defined = values[~np.isnan(values)]
    failures = B - len(defined)
    if failures > 0.10 * B:
        raise DataError(f"statistic undefined on {failures}/{B} resamples ({failures / B:.1%} > 10%)")
    if failures:
        warnings.warn(f"statistic undefined on {failures}/{B} resamples; dropped", stacklevel=2)
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(defined, [alpha, 1.0 - alpha], method="linear")
    return IntervalEstimate(name or getattr(statistic, "__name__", "statistic"), "bootstrap", level,
                            float(lo), float(hi), replicates=B, seed=seed)
