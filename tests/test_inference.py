import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import (
    ColumnRole,
    ContingencyTable,
    DataError,
    Dataset,
    GroupConfusion,
    bootstrap_ci,
    contingency,
    di_ci_delta,
    disparate_impact_statistic,
    eo_ci_delta,
    equal_opportunity_statistic,
    normal_quantile,
)
from fairaudit import inference
from fairaudit.rng import CounterRng, derive_seed

from conftest import binary_dataset, confusion_dataset, integers


# -- normal quantile ---------------------------------------------------------------


def phi_inv_oracle(p: float) -> float:
    """The standard normal quantile at 60 digits: the root of log(Phi(x) / t) in the tail t = min(p, 1 - p).

    Not sqrt(2) erfinv(2p - 1): that loses 4e-9 at p = 1 - 1e-9 in double precision, and at
    p = 1e-300 even 60 digits round 2p - 1 to -1."""
    with mpmath.workdps(60):
        tail = min(mpmath.mpf(p), 1 - mpmath.mpf(p))
        x = mpmath.findroot(lambda x: mpmath.log(mpmath.ncdf(x) / tail), -mpmath.sqrt(-2 * mpmath.log(tail)))
        return float(x if p <= 0.5 else -x)


def test_normal_quantile_against_mpmath():
    grid = [1e-300, 1e-9, 1e-6, 0.001, 0.01, 0.02425, 0.1, 0.25, 0.5,
            0.75, 0.9, 0.95, 0.975, 0.99, 0.999, 1 - 1e-6, 1 - 1e-9, 1 - 2**-53]
    for p in grid:
        assert normal_quantile(p) == pytest.approx(phi_inv_oracle(p), abs=1e-14)


def test_normal_quantile_symmetry_and_known_values():
    assert normal_quantile(0.5) == 0.0
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-8)
    assert normal_quantile(0.025) == pytest.approx(-normal_quantile(0.975), abs=1e-12)
    with pytest.raises(ValueError):
        normal_quantile(0.0)
    with pytest.raises(ValueError):
        normal_quantile(1.0)
    with pytest.raises(ValueError, match=r"must be in \(0, 1\), got nan"):
        normal_quantile(float("nan"))


# -- delta intervals -----------------------------------------------------------------


def test_di_delta_worked_example():
    iv = di_ci_delta(ContingencyTable(40, 60, 60, 40), 0.95)
    # hand computation: se = sqrt(0.6/40 + 0.4/60), interval exp(log(2/3) +- z se)
    assert iv.lo == pytest.approx(0.500, abs=0.005)
    assert iv.hi == pytest.approx(0.890, abs=0.005)
    assert iv.method == "delta"


def test_di_delta_symmetric_about_one_on_log_scale():
    iv = di_ci_delta(ContingencyTable(30, 70, 30, 70), 0.95)
    assert iv.lo * iv.hi == pytest.approx(1.0, abs=1e-12)


def test_di_delta_level_monotonicity():
    narrow = di_ci_delta(ContingencyTable(40, 60, 60, 40), 0.95)
    wide = di_ci_delta(ContingencyTable(40, 60, 60, 40), 0.99)
    assert wide.lo < narrow.lo and narrow.hi < wide.hi


def test_di_delta_width_shrinks_with_sample_size():
    base = di_ci_delta(ContingencyTable(40, 60, 60, 40), 0.95)
    scaled = di_ci_delta(ContingencyTable(160, 240, 240, 160), 0.95)
    assert scaled.hi - scaled.lo < base.hi - base.lo
    ratio = (scaled.hi - scaled.lo) / (base.hi - base.lo)
    assert ratio == pytest.approx(0.5, abs=0.15)  # expected halving, +-30%


def test_di_delta_zero_cell_uses_correction():
    iv = di_ci_delta(ContingencyTable(0, 50, 25, 25), 0.95)
    assert 0.0 < iv.lo < iv.hi
    with pytest.raises(DataError):
        di_ci_delta(ContingencyTable(1, 0, 1, 0), 0.95)  # n1, n2 < 2


def test_eo_delta_equal_tprs_contains_one():
    d = confusion_dataset((10, 3, 7, 10), (10, 4, 6, 10))
    iv = eo_ci_delta(group_confusion_pair(d), 0.95)
    assert iv.lo < 1.0 < iv.hi


def group_confusion_pair(d):
    from fairaudit import group_confusion

    return group_confusion(d)


def test_eo_delta_worked_ratio():
    # TP_P = 30 of 60 positives, TP_N = 48 of 60 positives -> ratio 0.625
    p = GroupConfusion(tp=30, fp=10, tn=10, fn=30)
    q = GroupConfusion(tp=48, fp=10, tn=10, fn=12)
    iv = eo_ci_delta((p, q), 0.95)
    se = math.sqrt(0.5 / (60 * 0.5) + 0.2 / (60 * 0.8))
    z = normal_quantile(0.975)
    assert iv.lo == pytest.approx(0.625 * math.exp(-z * se), rel=1e-12)
    assert iv.hi == pytest.approx(0.625 * math.exp(z * se), rel=1e-12)


def test_eo_delta_precondition_errors():
    with pytest.raises(DataError):
        eo_ci_delta((GroupConfusion(1, 1, 1, 0), GroupConfusion(5, 1, 1, 5)), 0.95)
    with pytest.raises(DataError):
        eo_ci_delta((GroupConfusion(0, 1, 1, 5), GroupConfusion(5, 1, 1, 5)), 0.95)
    # a group with outcome positives but no true positive has TPR 0: no log ratio
    with pytest.raises(DataError, match="degenerate rates"):
        eo_ci_delta((GroupConfusion(5, 1, 1, 5), GroupConfusion(0, 3, 3, 6)), 0.95)


# -- bootstrap ------------------------------------------------------------------------


def test_bootstrap_constant_statistic_zero_width():
    d = binary_dataset(10, 10, 10, 10)
    iv = bootstrap_ci(lambda _: 0.42, d, B=200, seed=0, name="constant")
    assert iv.lo == iv.hi == 0.42
    assert iv.statistic == "constant"


def test_bootstrap_deterministic_given_seed():
    d = binary_dataset(40, 60, 60, 40)
    a = bootstrap_ci(disparate_impact_statistic, d, B=300, seed=1)
    b = bootstrap_ci(disparate_impact_statistic, d, B=300, seed=1)
    assert (a.lo, a.hi) == (b.lo, b.hi)
    c = bootstrap_ci(disparate_impact_statistic, d, B=300, seed=2)
    assert (a.lo, a.hi) != (c.lo, c.hi)


def test_bootstrap_agrees_with_delta_moderate_n():
    d = binary_dataset(200, 300, 300, 200)
    boot = bootstrap_ci(disparate_impact_statistic, d, B=2000, seed=1)
    delta = di_ci_delta(contingency(d), 0.95)
    assert boot.lo == pytest.approx(delta.lo, abs=0.05)
    assert boot.hi == pytest.approx(delta.hi, abs=0.05)


def test_eo_bootstrap_agrees_with_delta():
    # 30/60 and 48/60 outcome-positive groups: ratio 0.625
    d = confusion_dataset((30, 10, 10, 30), (48, 10, 10, 12))
    assert equal_opportunity_statistic(d) == pytest.approx(0.625)
    boot = bootstrap_ci(equal_opportunity_statistic, d, B=2000, seed=3)
    delta = eo_ci_delta(group_confusion_pair(d), 0.95)
    assert boot.lo == pytest.approx(delta.lo, abs=0.05)
    assert boot.hi == pytest.approx(delta.hi, abs=0.05)


def test_bootstrap_requires_b_at_least_100():
    with pytest.raises(DataError):
        bootstrap_ci(disparate_impact_statistic, binary_dataset(5, 5, 5, 5), B=50, seed=0)


@pytest.mark.parametrize("B", [100.5, 200.0, True, "200", None])
def test_bootstrap_refuses_b_that_is_not_an_int(B):
    with pytest.raises(DataError, match="integer B >= 100"):
        bootstrap_ci(disparate_impact_statistic, binary_dataset(5, 5, 5, 5), B=B, seed=0)


def test_bootstrap_accepts_a_numpy_integer_b():
    d = binary_dataset(40, 60, 60, 40)
    assert bootstrap_ci(disparate_impact_statistic, d, B=np.int64(300), seed=1) == \
        bootstrap_ci(disparate_impact_statistic, d, B=300, seed=1)


@pytest.mark.parametrize("level", [2.0, 1.0, 0.0, -0.5, float("nan")])
def test_interval_routes_check_level_before_any_work(level):
    calls = []

    def counted(d):
        calls.append(1)
        return disparate_impact_statistic(d)

    with pytest.raises(ValueError, match=r"level must be in \(0, 1\), got"):
        bootstrap_ci(counted, binary_dataset(40, 60, 60, 40), B=200, seed=0, level=level)
    assert calls == []
    with pytest.raises(ValueError, match=r"level must be in \(0, 1\), got"):
        di_ci_delta(ContingencyTable(40, 60, 60, 40), level)
    with pytest.raises(ValueError, match=r"level must be in \(0, 1\), got"):
        eo_ci_delta((GroupConfusion(30, 10, 10, 30), GroupConfusion(48, 10, 10, 12)), level)


def test_bootstrap_reports_failure_fraction():
    d = binary_dataset(10, 10, 10, 10)

    def broken(_):
        raise DataError("nope")

    with pytest.raises(DataError, match="undefined on"):
        bootstrap_ci(broken, d, B=100, seed=0, name="broken")


# -- bootstrap: the per-replicate definition as the reference ---------------------------


def reference_bootstrap(statistic, d, B, seed, level=0.95, name=None):
    """One CounterRng, one ``Dataset.take`` and one statistic call per replicate."""
    protected = d.protected_mask()
    group_idx = [g for g in (np.flatnonzero(protected), np.flatnonzero(~protected)) if len(g) > 0]
    values, failures = [], 0
    for i in range(B):
        rng = CounterRng(derive_seed(seed, i))
        resample = d.take(np.concatenate([g[integers(rng, len(g), len(g))] for g in group_idx]))
        try:
            values.append(statistic(resample))
        except DataError:
            failures += 1
    if failures > 0.10 * B:
        raise DataError(f"statistic undefined on {failures}/{B} resamples ({failures / B:.1%} > 10%)")
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(np.asarray(values), [alpha, 1.0 - alpha], method="linear")
    return inference.IntervalEstimate(name or statistic.__name__, "bootstrap", level, float(lo), float(hi),
                                      replicates=B, seed=seed)


def decision_share(d):
    """A custom statistic, undefined on a resample without positive decisions."""
    share = float(np.mean(d.positive_decision_mask()))
    if share == 0.0:
        raise DataError("no positive decision")
    return share


def outcome_table(protected_rows, other_rows):
    """Dataset from (decision, outcome) bit pairs per group; the other group may be empty."""
    rows = [("P", *r) for r in protected_rows] + [("N", *r) for r in other_rows]
    # a Dataset must observe its declared modalities when built: one row that has
    # them is appended, and dropped again by the take
    extra = [("P", True, True)]
    schema = {"s": ColumnRole("sensitive", protected="P"), "y": ColumnRole("decision", positive="1"),
              "t": ColumnRole("outcome", positive="1")}
    columns = {"s": [r[0] for r in rows + extra], "y": ["1" if r[1] else "0" for r in rows + extra],
               "t": ["1" if r[2] else "0" for r in rows + extra]}
    return Dataset(schema, columns).take(np.arange(len(rows)))


def _interval_or_message(run):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return run()
        except DataError as e:
            return str(e)


_ROWS = st.tuples(st.booleans(), st.booleans())


@settings(max_examples=80, deadline=None)
@given(protected_rows=st.lists(_ROWS, min_size=0, max_size=14), other_rows=st.lists(_ROWS, max_size=14),
       statistic=st.sampled_from([disparate_impact_statistic, equal_opportunity_statistic, decision_share]),
       B=st.integers(100, 260), seed=st.integers(-(1 << 63), (1 << 64) - 1),
       chunk=st.sampled_from([1, 37, 100, 1 << 16]), level=st.sampled_from([0.8, 0.95]))
def test_bootstrap_equals_per_replicate_reference(protected_rows, other_rows, statistic, B, seed, chunk, level):
    if not protected_rows and not other_rows:
        protected_rows = [(True, True)]
    d = outcome_table(protected_rows, other_rows)
    with mock.patch.object(inference, "BOOTSTRAP_CHUNK_DRAWS", chunk):
        got = _interval_or_message(lambda: bootstrap_ci(statistic, d, B, seed, level))
    assert got == _interval_or_message(lambda: reference_bootstrap(statistic, d, B, seed, level))


def test_bootstrap_of_a_table_without_its_column_fails_every_resample():
    d = binary_dataset(5, 5, 5, 5)  # no outcome column
    with pytest.raises(DataError, match="undefined on 100/100 resamples"):
        bootstrap_ci(equal_opportunity_statistic, d, B=100, seed=0)


def failing_on_first(k):
    """A statistic that raises on its first ``k`` calls and is 1.0 after."""
    calls = []

    def statistic(_):
        calls.append(None)
        if len(calls) <= k:
            raise DataError("undefined")
        return 1.0
    return statistic


@pytest.mark.parametrize("k", [1, 10])
def test_bootstrap_failure_bound_is_ten_percent_inclusive(k):
    d = binary_dataset(10, 10, 10, 10)
    with pytest.warns(UserWarning, match=rf"^statistic undefined on {k}/100 resamples; dropped$"):
        iv = bootstrap_ci(failing_on_first(k), d, B=100, seed=0, name="flaky")
    assert (iv.lo, iv.hi, iv.replicates) == (1.0, 1.0, 100)
    with pytest.raises(DataError, match=r"undefined on 11/100 resamples \(11\.0% > 10%\)"):
        bootstrap_ci(failing_on_first(11), d, B=100, seed=0, name="flaky")


def test_bootstrap_without_failures_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bootstrap_ci(disparate_impact_statistic, binary_dataset(0, 10, 10, 10), B=100, seed=0)


def test_eo_count_form_drops_replicates_without_group_two_true_positives():
    # 3 true positives among 20 non-protected rows: a resample has none with
    # probability (17/20)^20, about 4%, so some replicates are dropped
    d = confusion_dataset((8, 2, 2, 4), (3, 1, 1, 15))
    with pytest.warns(UserWarning, match=r"statistic undefined on \d+/400 resamples; dropped"):
        iv = bootstrap_ci(equal_opportunity_statistic, d, B=400, seed=4)
    assert iv == reference_bootstrap(equal_opportunity_statistic, d, B=400, seed=4)
    # 1 of 12: a resample has none with probability (11/12)^12, about 35%
    d = confusion_dataset((8, 2, 2, 4), (1, 1, 1, 9))
    with pytest.raises(DataError, match="undefined on") as ours:
        bootstrap_ci(equal_opportunity_statistic, d, B=400, seed=4)
    with pytest.raises(DataError) as reference:
        reference_bootstrap(equal_opportunity_statistic, d, B=400, seed=4)
    assert str(ours.value) == str(reference.value)
