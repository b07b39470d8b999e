"""Fairness auditing for binary decision systems over tabular data.

Measures group disparity (contingency-table ratios with confidence
intervals and the four-fifths rule), confusion-matrix criteria, individual
flip testing, distributional feature repair, and explanation aids, with a
built-in logistic baseline so every pipeline runs end to end.
"""

from .audit import FlipTestResult, flip_test
from .data import ColumnRole, Dataset, load_csv, parse_schema, save_csv, split, validate
from .errors import DataError, SchemaError
from .explain import local_surrogate, permutation_importance
from .inference import (
    bootstrap_ci,
    di_ci_delta,
    disparate_impact_statistic,
    eo_ci_delta,
    equal_opportunity_statistic,
    normal_quantile,
)
from .metrics import (
    ContingencyTable,
    GroupConfusion,
    GroupRates,
    IntervalEstimate,
    MetricEstimate,
    auc,
    base_rates,
    confusion_gaps,
    contingency,
    disparity_metrics,
    eighty_percent_verdict,
    group_confusion,
)
from .model import (
    ErrorEstimate,
    LogisticModel,
    cross_validate,
    decide,
    load_model,
    predict_scores,
    save_model,
    test_error,
    train_logistic,
)
from .repair import RepairPlan, apply_repair, fit_repair, load_plan, repair_distortion, save_plan
from .synth import GeneratorSpec, generate, solve_group_bias, true_disparate_impact

__version__ = "0.1.0"
