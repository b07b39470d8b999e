import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from fairaudit import DataError, contingency, base_rates, disparate_impact_statistic, generate, solve_group_bias, true_disparate_impact
from fairaudit.synth import GeneratorSpec, mean_sigmoid_normal, spec_from_dict, true_group_rates


def test_symmetric_spec_has_unit_di():
    spec = GeneratorSpec(n=10000, seed=3, mu_protected=(0.1, -0.2), mu_other=(0.1, -0.2))
    assert true_disparate_impact(spec) == pytest.approx(1.0, abs=1e-12)
    d, true_di = generate(spec)
    assert disparate_impact_statistic(d) == pytest.approx(true_di, abs=0.03)


def test_quadrature_matches_mpmath_oracle():
    cases = [(0.0, 1.0), (1.3, 2.83), (-2.0, 0.5), (0.7, 4.0)]
    for mean, sd in cases:
        def integrand(t):
            return (1 / (1 + mpmath.e ** -t)) * mpmath.npdf(t, mean, sd)

        oracle = float(mpmath.quad(integrand, [mean - 12 * sd, mean, mean + 12 * sd]))
        assert mean_sigmoid_normal(mean, sd) == pytest.approx(oracle, abs=1e-9)


def test_zero_weight_decision_rule_reduces_to_sigmoid():
    spec = GeneratorSpec(n=10, seed=0, decision_weights=(0.0, 0.0), decision_intercept=0.3)
    rate_p, rate_n = true_group_rates(spec)
    assert rate_p == pytest.approx(1 / (1 + math.exp(-0.3)))
    assert rate_n == pytest.approx(rate_p)


def test_bisection_hits_target_di():
    spec = GeneratorSpec(n=100, seed=0)
    bias = solve_group_bias(spec, 0.60)
    assert true_disparate_impact(replace(spec, group_bias=bias)) == pytest.approx(0.60, abs=1e-9)
    # bias pushes the protected rate down, so it must be negative here
    assert bias < 0


def fixed_bisection_reference(spec, target_di, lo=-20.0, hi=20.0):
    """Bisection for a fixed 200 steps, the oracle of the early stop in solve_group_bias."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if true_disparate_impact(replace(spec, group_bias=mid)) - target_di <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("target_di", [0.2, 0.6, 0.8, 1.0, 1.3])
def test_early_stopped_bisection_is_bit_identical(target_di):
    spec = GeneratorSpec(n=100, seed=0)
    assert solve_group_bias(spec, target_di) == fixed_bisection_reference(spec, target_di)


def test_tuned_generator_empirical_di_close():
    spec = GeneratorSpec(n=10000, seed=5)
    spec = replace(spec, group_bias=solve_group_bias(spec, 0.60))
    d, true_di = generate(spec)
    assert true_di == pytest.approx(0.60, abs=1e-9)
    assert disparate_impact_statistic(d) == pytest.approx(true_di, abs=0.02)


def test_generate_deterministic_per_seed():
    spec = GeneratorSpec(n=500, seed=42)
    d1, _ = generate(spec)
    d2, _ = generate(spec)
    assert d1 == d2
    d3, _ = generate(replace(spec, seed=43))
    assert d1 != d3


def test_generated_features_have_declared_moments():
    spec = GeneratorSpec(n=20000, seed=1, mu_protected=(-1.0, 0.5), mu_other=(2.0, 0.0))
    d, _ = generate(spec)
    protected = d.protected_mask()
    x1 = d.values("x1")
    assert np.mean(x1[protected]) == pytest.approx(-1.0, abs=0.03)
    assert np.mean(x1[~protected]) == pytest.approx(2.0, abs=0.03)
    assert np.std(x1[protected]) == pytest.approx(1.0, abs=0.03)


def test_generated_dataset_has_all_roles():
    d, _ = generate(GeneratorSpec(n=200, seed=9))
    assert d.sensitive_column == "s"
    assert d.decision_column == "y"
    assert d.outcome_column == "t"
    assert set(np.unique(d.values("s"))) == {"P", "N"}


def test_outcome_offsets_shift_base_rates():
    spec = GeneratorSpec(n=20000, seed=2, outcome_offset_protected=1.5, outcome_offset_other=-1.5)
    d, _ = generate(spec)
    protected = d.protected_mask()
    outcome = d.positive_outcome_mask()
    assert np.mean(outcome[protected]) > np.mean(outcome[~protected]) + 0.3


def test_empirical_di_within_three_se_of_true():
    from fairaudit import di_ci_delta, normal_quantile
    from fairaudit.rng import derive_seed

    spec = GeneratorSpec(n=2000, seed=0)
    spec = replace(spec, group_bias=solve_group_bias(spec, 0.60))
    true_di = true_disparate_impact(spec)
    z95 = normal_quantile(0.975)
    hits = 0
    runs = 200
    for i in range(runs):
        d, _ = generate(replace(spec, seed=derive_seed(611, i)))
        emp = disparate_impact_statistic(d)
        iv = di_ci_delta(contingency(d), 0.95)
        se = emp * (math.log(iv.hi) - math.log(iv.lo)) / (2 * z95)
        hits += abs(emp - true_di) < 3 * se
    assert hits / runs >= 0.95


def test_spec_from_dict_round_trip():
    obj = {"n": 50, "seed": 4, "mu_protected": [0.1, 0.2], "group_bias": -0.3}
    spec = spec_from_dict(obj)
    assert spec.mu_protected == (0.1, 0.2)
    assert spec.group_bias == -0.3
    d1, _ = generate(spec)
    d2, _ = generate(GeneratorSpec(n=50, seed=4, mu_protected=(0.1, 0.2), group_bias=-0.3))
    assert d1 == d2
    with pytest.raises(DataError, match="unknown generator fields"):
        spec_from_dict({"n": 50, "seed": 0, "bogus": 1})
    with pytest.raises(DataError, match="invalid generator spec"):
        spec_from_dict({"seed": 0})  # n missing


def test_spec_validation():
    with pytest.raises(DataError):
        GeneratorSpec(n=0, seed=0)
    with pytest.raises(DataError):
        GeneratorSpec(n=10, seed=0, protected_fraction=1.0)
    with pytest.raises(DataError):
        GeneratorSpec(n=10, seed=0, group_bias=float("inf"))
    for target in (-1.0, float("nan")):
        with pytest.raises(DataError, match="must be positive"):
            solve_group_bias(GeneratorSpec(n=10, seed=0), target)
    with pytest.raises(DataError, match="bracket"):
        solve_group_bias(GeneratorSpec(n=10, seed=0), 1e9)
