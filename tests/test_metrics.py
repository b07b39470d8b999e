import contextlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fairaudit import (
    ColumnRole,
    ContingencyTable,
    DataError,
    Dataset,
    GroupConfusion,
    GroupRates,
    IntervalEstimate,
    MetricEstimate,
    auc,
    base_rates,
    confusion_gaps,
    contingency,
    di_ci_delta,
    disparity_metrics,
    eighty_percent_verdict,
    group_confusion,
)
from fairaudit.metrics import corrected_rates
from fairaudit.rng import CounterRng

from conftest import binary_dataset, check_guard, confusion_dataset


# -- contingency -------------------------------------------------------------------


def test_contingency_direct_count():
    d = binary_dataset(1, 1, 2, 0)  # decisions [1,0,1,1], sensitive [P,P,N,N]
    t = contingency(d)
    assert (t.a, t.b, t.c, t.d) == (1, 1, 2, 0)
    assert (t.n1, t.n2, t.m1, t.m2, t.n) == (2, 2, 3, 1, 4)


def test_contingency_all_positive():
    t = contingency(binary_dataset(5, 0, 5, 0))
    assert (t.a, t.b, t.c, t.d) == (5, 0, 5, 0)


def test_contingency_empty_group_errors():
    d = Dataset(
        {"s": ColumnRole("sensitive", protected="P"), "y": ColumnRole("decision", positive="1")},
        {"s": ["P", "P"], "y": ["1", "0"]},
    )
    with pytest.raises(DataError, match="nonempty"):
        contingency(d)


CONFUSION_SCHEMA = {"s": ColumnRole("sensitive", protected="P"), "y": ColumnRole("decision", positive="1"),
                    "t": ColumnRole("outcome", positive="1")}


def contingency_reference(d, positive=None):
    """Counts by one boolean mask per group and one count_nonzero per cell."""
    protected = d.protected_mask()
    if positive is None:
        positive = d.positive_decision_mask()
    n1 = int(np.count_nonzero(protected))
    n2 = d.n - n1
    if n1 == 0 or n2 == 0:
        raise DataError("contingency requires both sensitive groups to be nonempty")
    a = int(np.count_nonzero(protected & positive))
    c = int(np.count_nonzero(~protected & positive))
    return ContingencyTable(a=a, b=n1 - a, c=c, d=n2 - c)


def group_confusion_reference(d):
    """Confusion counts by masking each group, then one count_nonzero per cell."""
    protected = d.protected_mask()
    decision = d.positive_decision_mask()
    outcome = d.positive_outcome_mask()
    if not protected.any() or protected.all():
        raise DataError("group confusion requires both sensitive groups to be nonempty")

    def counts(mask):
        dec, out = decision[mask], outcome[mask]
        return GroupConfusion(tp=int(np.count_nonzero(dec & out)), fp=int(np.count_nonzero(dec & ~out)),
                              tn=int(np.count_nonzero(~dec & ~out)), fn=int(np.count_nonzero(~dec & out)))

    return counts(protected), counts(~protected)


def _result(f, *args):
    try:
        return f(*args)
    except DataError as e:
        return f"DataError: {e}"


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), max_size=30), data=st.data())
def test_one_pass_counts_equal_the_per_mask_counts(rows, data):
    # each label occurs once up front, so the table builds; take then may empty a group
    s, y, t = zip((True, True, True), (False, False, False), *rows)
    d = Dataset(CONFUSION_SCHEMA, {"s": np.where(s, "P", "N"), "y": np.where(y, "1", "0"), "t": np.where(t, "1", "0")})
    sub = d.take(data.draw(st.lists(st.integers(0, d.n - 1), min_size=1, max_size=40)))
    positive = np.array(data.draw(st.lists(st.booleans(), min_size=sub.n, max_size=sub.n)))
    assert _result(contingency, sub) == _result(contingency_reference, sub)
    assert _result(contingency, sub, positive) == _result(contingency_reference, sub, positive)
    assert _result(group_confusion, sub) == _result(group_confusion_reference, sub)


def test_one_pass_counts_refuse_an_emptied_group():
    d = confusion_dataset((1, 1, 1, 1), (1, 1, 1, 1))
    for rows in ([0, 1, 2, 3], [4, 5, 6, 7]):
        with pytest.raises(DataError, match="^contingency requires both sensitive groups to be nonempty$"):
            contingency(d.take(rows))
        with pytest.raises(DataError, match="^group confusion requires both sensitive groups to be nonempty$"):
            group_confusion(d.take(rows))


# -- base rates --------------------------------------------------------------------


def test_base_rates_exact():
    r = base_rates(ContingencyTable(40, 60, 60, 40))
    assert (r.p1, r.p2, r.p, r.corrected) == (0.4, 0.6, 0.5, False)


def test_base_rates_symmetric():
    r = base_rates(ContingencyTable(5, 5, 5, 5))
    assert r.p1 == r.p2 == r.p == 0.5


def test_base_rates_zero_cell_correction():
    r = base_rates(ContingencyTable(0, 10, 5, 5))
    assert r.corrected
    assert r.p1 == pytest.approx(0.5 / 11)
    assert r.p2 == pytest.approx(5.5 / 11)
    assert r.p == 0.25  # overall rate stays exact


def test_base_rates_reconstruction_invariant():
    rng = CounterRng(3)
    for trial in range(50):
        a, b, c, d = (1 + int(float(rng.uniforms(1)[0]) * 50) for _ in range(4))
        r = base_rates(ContingencyTable(a, b, c, d))
        assert not r.corrected
        assert round(r.p1 * (a + b)) == a
        assert round(r.p2 * (c + d)) == c


# -- disparity metrics ---------------------------------------------------------------


def test_corrected_rates_on_count_arrays_equal_base_rates_bit_for_bit():
    tables = [(a, n1, c, n2) for n1 in range(1, 9) for n2 in range(1, 9)
              for a in range(n1 + 1) for c in range(n2 + 1)]
    tables += [(0, 2**40, 3, 7), (2**40 - 1, 2**40, 2**52, 2**52 + 1)]
    a, n1, c, n2 = (np.array(col, dtype=np.int64) for col in zip(*tables))
    p1, p2, corrected = corrected_rates(a, c, n1, n2)
    assert corrected.any() and not corrected.all()  # zero cells included
    for i, (ai, n1i, ci, n2i) in enumerate(tables):
        r = base_rates(ContingencyTable(ai, n1i - ai, ci, n2i - ci))
        assert (p1[i].hex(), p2[i].hex(), bool(corrected[i])) == (r.p1.hex(), r.p2.hex(), r.corrected)


def brute_force_disparity(a, b, c, d):
    """Oracle: rebuild rows and count proportions by explicit iteration."""
    rows = [("P", 1)] * a + [("P", 0)] * b + [("N", 1)] * c + [("N", 0)] * d
    n1 = sum(1 for g, _ in rows if g == "P")
    n2 = sum(1 for g, _ in rows if g == "N")
    p1 = sum(1 for g, y in rows if g == "P" and y == 1) / n1
    p2 = sum(1 for g, y in rows if g == "N" and y == 1) / n2
    return {
        "risk_difference": p1 - p2,
        "disparate_impact": p1 / p2,
        "relative_chance": (1 - p1) / (1 - p2),
        "odds_ratio": (p1 / p2) / ((1 - p1) / (1 - p2)),
    }


def test_disparity_against_brute_force_oracle():
    rng = CounterRng(17)
    for trial in range(20):
        a, b, c, d = (1 + int(float(rng.uniforms(1)[0]) * 80) for _ in range(4))
        got = disparity_metrics(base_rates(ContingencyTable(a, b, c, d)))
        expected = brute_force_disparity(a, b, c, d)
        for name, value in expected.items():
            assert got[name].value == pytest.approx(value, abs=1e-12)
        # product identity: OR * CR = DI exactly as computed reals
        assert abs(got["odds_ratio"].value * got["relative_chance"].value
                   - got["disparate_impact"].value) < 1e-12


def test_disparity_worked_example():
    got = disparity_metrics(GroupRates(p1=0.4, p2=0.6, p=0.5))
    assert got["risk_difference"].value == pytest.approx(-0.2)
    assert got["disparate_impact"].value == pytest.approx(2 / 3)
    assert got["relative_chance"].value == pytest.approx(1.5)
    assert got["odds_ratio"].value == pytest.approx(4 / 9)


def test_disparity_identity_at_equal_rates():
    got = disparity_metrics(GroupRates(p1=0.37, p2=0.37, p=0.37))
    assert got["risk_difference"].value == 0.0
    assert got["disparate_impact"].value == 1.0
    assert got["relative_chance"].value == 1.0
    assert got["odds_ratio"].value == 1.0


def test_disparity_corrected_case():
    r = base_rates(ContingencyTable(0, 10, 5, 5))
    got = disparity_metrics(r)
    assert got["disparate_impact"].value == pytest.approx(0.5 / 5.5)
    assert got["disparate_impact"].corrected


def test_disparity_group_swap_inverts_ratios():
    rng = CounterRng(23)
    for trial in range(20):
        a, b, c, d = (1 + int(float(rng.uniforms(1)[0]) * 60) for _ in range(4))
        fwd = disparity_metrics(base_rates(ContingencyTable(a, b, c, d)))
        rev = disparity_metrics(base_rates(ContingencyTable(c, d, a, b)))
        assert rev["disparate_impact"].value == pytest.approx(1 / fwd["disparate_impact"].value)
        assert rev["relative_chance"].value == pytest.approx(1 / fwd["relative_chance"].value)
        assert rev["odds_ratio"].value == pytest.approx(1 / fwd["odds_ratio"].value)
        assert rev["risk_difference"].value == pytest.approx(-fwd["risk_difference"].value)


def test_disparity_degenerate_rates_error():
    with pytest.raises(DataError, match="degenerate"):
        disparity_metrics(GroupRates(p1=1.0, p2=1.0, p=1.0))


def _disparity_or_none(d):
    try:
        return disparity_metrics(base_rates(contingency(d)))
    except DataError:  # degenerate rates: both orientations must refuse
        return None


@settings(max_examples=200, deadline=None)
@given(n1=st.integers(1, 60), n2=st.integers(1, 60), data=st.data())
def test_swapping_the_declared_protected_label_inverts_di_and_negates_rd(n1, n2, data):
    a, c = data.draw(st.integers(0, n1)), data.draw(st.integers(0, n2))  # 0 takes the zero-cell correction
    assume(a + c > 0)  # the declared positive decision must occur
    d = binary_dataset(a, n1 - a, c, n2 - c)  # protected "P", the other group "N"
    swapped = Dataset({**d.schema, "s": ColumnRole("sensitive", protected="N")},
                      {name: d.values(name) for name in d.schema})
    fwd, rev = _disparity_or_none(d), _disparity_or_none(swapped)
    assert (fwd is None) == (rev is None)
    if fwd is None:
        return
    di, di_swapped = fwd["disparate_impact"].value, rev["disparate_impact"].value
    assert abs(di * di_swapped - 1.0) < 1e-12  # relative error of di_swapped against 1 / di
    assert rev["risk_difference"].value == -fwd["risk_difference"].value
    assert rev["disparate_impact"].corrected == fwd["disparate_impact"].corrected == (a == 0 or c == 0)


# -- verdict ---------------------------------------------------------------------------


def test_verddict_point_mode_table():
    from fairaudit import MetricEstimate

    cases = [(0.6667, "fail"), (1.0, "pass"), (0.8, "pass"), (0.79999, "fail"), (0.80001, "pass")]
    for value, expected in cases:
        est = MetricEstimate("disparate_impact", value)
        assert eighty_percent_verdict(est, 0.8) == expected


def test_verdict_interval_mode():
    def interval(lo, hi):
        return IntervalEstimate("disparate_impact", "delta", 0.95, lo, hi)

    assert eighty_percent_verdict(interval(0.500, 0.890), 0.8) == "inconclusive"
    assert eighty_percent_verdict(interval(0.4, 0.6), 0.8) == "fail"
    assert eighty_percent_verdict(interval(0.85, 0.95), 0.8) == "pass"


def test_verdict_interval_lower_end_at_threshold_passes():
    at = IntervalEstimate("disparate_impact", "delta", 0.95, 0.8, 0.9)
    assert eighty_percent_verdict(at, 0.8) == "pass"


@settings(max_examples=200, deadline=None)
@given(value=st.floats(min_value=0.0, max_value=10.0, exclude_min=True),
       threshold=st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0, exclude_min=True)))
def test_verdict_of_a_point_equals_the_verdict_of_its_degenerate_interval(value, threshold):
    point = eighty_percent_verdict(MetricEstimate("disparate_impact", value), threshold)
    degenerate = IntervalEstimate("disparate_impact", "delta", 0.95, value, value)
    assert point == eighty_percent_verdict(degenerate, threshold)
    assert point == ("fail" if value < threshold else "pass")


def test_verdict_invariant_under_group_size_rescaling():
    for k in (2, 3, 10):
        small = disparity_metrics(base_rates(ContingencyTable(4, 6, 6, 4)))
        big = disparity_metrics(base_rates(ContingencyTable(4 * k, 6 * k, 6 * k, 4 * k)))
        assert (eighty_percent_verdict(small["disparate_impact"])
                == eighty_percent_verdict(big["disparate_impact"]))


# -- confusion -------------------------------------------------------------------------


def test_group_confusion_hand_built():
    d = confusion_dataset((2, 3, 1, 4), (5, 2, 2, 1))
    p, q = group_confusion(d)
    assert (p.tp, p.fp, p.tn, p.fn) == (2, 3, 1, 4)
    assert (q.tp, q.fp, q.tn, q.fn) == (5, 2, 2, 1)
    assert p.tpr == pytest.approx(2 / 6)
    assert p.base_rate == pytest.approx(6 / 10)


def test_group_confusion_perfect_predictor():
    d = confusion_dataset((4, 0, 6, 0), (3, 0, 7, 0))
    p, q = group_confusion(d)
    for g in (p, q):
        assert g.fp == 0 and g.fn == 0
        assert g.accuracy == 1.0


def test_group_confusion_undefined_tpr():
    d = confusion_dataset((0, 5, 5, 0), (2, 2, 2, 2))
    p, _ = group_confusion(d)
    assert p.tpr is None  # no outcome positives: 0 TP + 0 FN


def test_confusion_gaps_identical_matrices():
    d = confusion_dataset((3, 2, 4, 1), (3, 2, 4, 1))
    gaps = confusion_gaps(group_confusion(d))
    assert gaps["equal_opportunity_ratio"].value == pytest.approx(1.0)
    assert gaps["precision_ratio"].value == pytest.approx(1.0)
    assert gaps["fpr_difference"].value == pytest.approx(0.0)
    assert gaps["fnr_difference"].value == pytest.approx(0.0)
    assert gaps["accuracy_difference"].value == pytest.approx(0.0)


def test_confusion_gaps_worked_values():
    # TPR_P = 0.5, TPR_N = 0.8 -> equal opportunity ratio 0.625
    p = GroupConfusion(tp=5, fp=0, tn=5, fn=5)
    q = GroupConfusion(tp=8, fp=0, tn=8, fn=2)
    gaps = confusion_gaps((p, q))
    assert gaps["equal_opportunity_ratio"].value == pytest.approx(0.625)
    # FPR_P = 0.45, FPR_N = 0.23 -> difference +0.22
    p = GroupConfusion(tp=10, fp=45, tn=55, fn=10)
    q = GroupConfusion(tp=10, fp=23, tn=77, fn=10)
    gaps = confusion_gaps((p, q))
    assert gaps["fpr_difference"].value == pytest.approx(0.22)


def test_confusion_gaps_undefined_marked_not_raised():
    p = GroupConfusion(tp=0, fp=2, tn=2, fn=0)  # TPR undefined
    q = GroupConfusion(tp=2, fp=2, tn=2, fn=2)
    gaps = confusion_gaps((p, q))
    assert gaps["equal_opportunity_ratio"].value is None
    assert gaps["fpr_difference"].value is not None


def test_confusion_gaps_zero_rate_of_the_non_protected_group():
    # FPR_N = 0: the difference is defined, the ratio divides by zero
    p = GroupConfusion(tp=2, fp=1, tn=3, fn=2)
    q = GroupConfusion(tp=2, fp=0, tn=4, fn=2)
    gaps = confusion_gaps((p, q))
    assert gaps["fpr_difference"].value == pytest.approx(0.25)
    assert gaps["fpr_ratio"].value is None


# -- the impossibility identity, a check on GroupConfusion's rates --------------------


def implied_fpr(base_rate: float, ppv: float, tpr: float) -> float:
    """FPR forced by (base rate, PPV, TPR) for any exact confusion matrix (Chouldechova, 2017). It is
    strictly increasing in the base rate, so equal precision with unequal base rates forces unequal FPRs."""
    return (base_rate / (1.0 - base_rate)) * ((1.0 - ppv) / ppv) * tpr


def identity_residual(g: GroupConfusion) -> float:
    """The group's FPR minus the FPR implied by its base rate, PPV and TPR; zero up to rounding."""
    return g.fpr - implied_fpr(g.base_rate, g.ppv, g.tpr)


def test_impossibility_residual_on_random_matrices():
    rng = CounterRng(31)
    for trial in range(200):
        cells = [1 + int(float(rng.uniforms(1)[0]) * 40) for _ in range(4)]
        g = GroupConfusion(*cells)
        assert abs(identity_residual(g)) < 1e-12


def test_impossibility_residual_symmetric_matrix():
    assert identity_residual(GroupConfusion(25, 25, 25, 25)) == pytest.approx(0.0, abs=1e-15)


def test_implied_fpr_worked_values():
    assert implied_fpr(0.5, 0.7, 0.6) == pytest.approx(0.2571, abs=5e-5)
    assert implied_fpr(0.3, 0.7, 0.6) == pytest.approx(0.1102, abs=5e-5)


def test_implied_fpr_increasing_in_base_rate():
    grid = np.linspace(0.05, 0.95, 19)
    values = [implied_fpr(p, 0.7, 0.6) for p in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


# -- AUC ----------------------------------------------------------------------------------


def auc_pair_count(scores, outcomes):
    """Oracle: exhaustive O(n^2) comparison of (positive, negative) pairs."""
    pos = [s for s, y in zip(scores, outcomes) if y]
    neg = [s for s, y in zip(scores, outcomes) if not y]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def auc_rank_reference(scores, outcomes):
    """Reference: the Mann-Whitney U from average ranks, tie runs sharing their mean rank."""
    s = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(outcomes, dtype=bool)
    n_pos = int(np.count_nonzero(pos))
    n_neg = len(s) - n_pos
    order = np.argsort(s, kind="stable")
    ordered = s[order]
    start = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])  # -0.0 ties 0.0
    end = np.r_[start[1:], len(s)] - 1
    ranks = np.empty(len(s))
    ranks[order] = np.repeat(0.5 * ((start + 1) + (end + 1)), end - start + 1)
    rank_sum = float(np.sum(ranks[pos]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_value_pair_count(scores, outcomes):
    """Pair count over distinct score values, each pair weighted by its multiplicities."""
    values, inverse = np.unique(np.asarray(scores, dtype=np.float64), return_inverse=True)
    pos = np.asarray(outcomes, dtype=bool)
    n_pos = np.bincount(inverse[pos], minlength=len(values)).tolist()
    n_neg = np.bincount(inverse[~pos], minlength=len(values)).tolist()
    twice = below = 0
    for p, q in zip(n_pos, n_neg):  # ascending values: p positives beat the `below` negatives, tie q
        twice += p * (2 * below + q)
        below += q
    return twice / 2.0 / (sum(n_pos) * sum(n_neg))


def test_auc_worked_example():
    assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]).value == pytest.approx(0.75)


def test_auc_perfect_and_tied():
    assert auc([0, 0, 1, 1], [0, 0, 1, 1]).value == 1.0
    assert auc([0.3, 0.3, 0.3, 0.3], [0, 1, 0, 1]).value == 0.5


def test_auc_matches_exhaustive_oracle_exactly():
    rng = CounterRng(41)
    for trial in range(50):
        n = 2 + int(float(rng.uniforms(1)[0]) * 198)
        # coarse grid of score values forces plenty of ties
        scores = np.floor(rng.uniforms(n) * 10) / 10
        outcomes = rng.uniforms(n) < 0.5
        if outcomes.all() or not outcomes.any():
            outcomes[0] = ~outcomes[0]
        assert auc(scores, outcomes).value == auc_pair_count(scores.tolist(), outcomes.tolist())


# few distinct values, with signed zeros and subnormals
TIED_SCORES = [-2.5, -1.0, -5e-324, -0.0, 0.0, 5e-324, 0.25, 1.0, 3.0]


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(st.sampled_from(TIED_SCORES), st.booleans()),
                      min_size=2, max_size=60))
def test_auc_equals_pair_count_on_heavy_ties(pairs):
    scores, outcomes = map(list, zip(*pairs))
    assume(any(outcomes) and not all(outcomes))
    assert auc(scores, outcomes).value == auc_pair_count(scores, outcomes)


def test_auc_single_class_errors():
    with pytest.raises(DataError):
        auc([0.1, 0.2], [1, 1])


# a pool of at most 5 scores with both signed zeros: long tie runs, often a single distinct
# positive score, sometimes all scores tied
SCORE_POOLS = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=3).map(lambda v: [-0.0, 0.0, *v])


# each example draws its scores from the heavy ties above, from all finite doubles or from a small pool
@settings(max_examples=600, deadline=None)
@given(pairs=st.one_of(st.just(st.sampled_from(TIED_SCORES)), st.just(st.floats(allow_nan=False, allow_infinity=False)),
                       SCORE_POOLS.map(st.sampled_from))
       .flatmap(lambda score: st.lists(st.tuples(score, st.booleans()), min_size=2, max_size=200)))
@example(pairs=[(-1.7976931348623157e308, True), (1.7976931348623157e308, False), (-0.0, True), (0.0, False)])
@example(pairs=[(0.0, True), (-0.0, False), (-0.0, True), (0.0, False), (0.0, False)])  # all tied
@example(pairs=[(0.5, True), (0.5, True), (0.5, True), (-0.0, False), (0.5, False), (1.0, False)])
def test_auc_equals_rank_reference_bit_for_bit(pairs):
    scores, outcomes = map(list, zip(*pairs))
    assume(any(outcomes) and not all(outcomes))
    assert auc(scores, outcomes).value == auc_rank_reference(scores, outcomes)


def test_auc_on_many_rounded_scores_matches_both_references():
    rng = CounterRng(9)
    n = 200_000
    outcomes = rng.uniforms(n) < 0.3
    scores = np.round(rng.normals(n) + 0.8 * outcomes, 3)  # about 10^4 distinct values
    value = auc(scores, outcomes).value
    assert value == auc_rank_reference(scores, outcomes)
    assert value == auc_value_pair_count(scores, outcomes)
    assert 0.6 < value < 0.8


@pytest.mark.parametrize("outcomes", [[0, 2, 1], [0, -1, 1], [0, float("nan"), 1], ["0", "1", "1"],
                                      [0.0, 0.5, 1.0]])
def test_auc_refuses_outcomes_that_are_not_boolean_or_01(outcomes):
    with pytest.raises(DataError, match="outcomes must be boolean or 0/1"):
        auc([0.1, 0.2, 0.3], outcomes)


@pytest.mark.parametrize("outcomes", [[False, True, True], [0, 1, 1], np.array([0.0, 1.0, 1.0]),
                                      np.array([False, True, True])])
def test_auc_accepts_boolean_and_01_outcomes(outcomes):
    assert auc([0.1, 0.2, 0.3], outcomes).value == 1.0


# -- library guards at their exact bounds ---------------------------------------------------

_HALF = MetricEstimate("disparate_impact", 0.5)

# (id, call, exception it raises, or None when it is accepted)
BOUNDARY = [
    # a table counts at least one row
    ("contingency-one-row", lambda: ContingencyTable(1, 0, 0, 0), None),
    ("contingency-no-row", lambda: ContingencyTable(0, 0, 0, 0), DataError),
    # the ratios are undefined at a rate of 0 or 1, and defined strictly between
    ("rates-p1-0", lambda: disparity_metrics(GroupRates(p1=0.0, p2=0.5, p=0.25)), DataError),
    ("rates-p2-0", lambda: disparity_metrics(GroupRates(p1=0.5, p2=0.0, p=0.25)), DataError),
    ("rates-p1-1", lambda: disparity_metrics(GroupRates(p1=1.0, p2=0.5, p=0.75)), DataError),
    ("rates-p2-1", lambda: disparity_metrics(GroupRates(p1=0.5, p2=1.0, p=0.75)), DataError),
    ("rates-smallest-positive", lambda: disparity_metrics(GroupRates(p1=5e-324, p2=5e-324, p=5e-324)), None),
    # the four-fifths threshold lies in (0, 1]
    ("verdict-threshold-0", lambda: eighty_percent_verdict(_HALF, 0.0), ValueError),
    ("verdict-threshold-smallest-positive", lambda: eighty_percent_verdict(_HALF, 5e-324), None),
    ("verdict-threshold-1", lambda: eighty_percent_verdict(_HALF, 1.0), None),
    ("verdict-threshold-above-1", lambda: eighty_percent_verdict(_HALF, 1.0000000000000002), ValueError),
    # the delta interval needs at least 2 rows per group
    ("di-interval-2-rows-per-group", lambda: di_ci_delta(ContingencyTable(1, 1, 1, 1)), None),
    ("di-interval-1-protected-row", lambda: di_ci_delta(ContingencyTable(1, 0, 1, 1)), DataError),
    ("di-interval-1-other-row", lambda: di_ci_delta(ContingencyTable(1, 1, 1, 0)), DataError),
]


@pytest.mark.parametrize("call, error", [pytest.param(*row[1:], id=row[0]) for row in BOUNDARY])
def test_library_guard_at_its_bound(call, error):
    with pytest.raises(error) if error else contextlib.nullcontext():
        call()


# every guard that no other test reaches, with its message: (id, call, error, message)
GUARDS = [
    ("contingency-negative-count", lambda: ContingencyTable(1, -1, 1, 1), DataError,
     "contingency counts must be non-negative"),
    ("interval-lo-above-hi", lambda: IntervalEstimate("disparate_impact", "delta", 0.95, 1.0, 0.5), ValueError,
     "disparate_impact: lo 1.0 > hi 0.5"),
    ("rates-empty-group", lambda: base_rates(ContingencyTable(0, 0, 1, 1)), DataError,
     "both groups must be nonempty"),
    ("verdict-undefined-estimate", lambda: eighty_percent_verdict(MetricEstimate("disparate_impact", None)),
     DataError, "verdict requires a defined disparate-impact estimate"),
    ("auc-shapes-mismatched", lambda: auc([0.1, 0.2], [1]), DataError,
     "scores and outcomes must be 1-d sequences of equal length"),
    ("auc-score-not-finite", lambda: auc([0.1, float("inf")], [1, 0]), DataError, "scores must be finite"),
]


@pytest.mark.parametrize("call, error, message", [pytest.param(*row[1:], id=row[0]) for row in GUARDS])
def test_guard_message(call, error, message):
    check_guard(call, error, message)
