import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoload import (
    ExpGrowthCost,
    ExpSaturating,
    Hyperbolic,
    PowerCost,
    ZeroCost,
    validate_curves,
)
from infoload.errors import ParameterError


def central_diff(f, i):
    h = max(1e-6, 1e-6 * i)
    return (f(i + h) - f(i - h)) / (2.0 * h)


class TestSuccessEval:
    def test_exp_saturating_at_zero(self):
        assert ExpSaturating(1.0).value(0.0) == 0.0

    def test_hyperbolic_at_half_saturation(self):
        assert Hyperbolic(1.0).value(1.0) == 0.5

    def test_exp_saturating_at_one(self):
        # series cross-check: 1 - e^{-1} = sum_{n>=1} (-1)^{n+1} / n!
        series = sum((-1.0) ** (n + 1) / math.factorial(n) for n in range(1, 20))
        value = ExpSaturating(1.0).value(1.0)
        assert value == pytest.approx(series, rel=1e-14)
        assert value == pytest.approx(0.63212, abs=1e-5)

    def test_deriv_at_zero(self):
        assert ExpSaturating(1.0).deriv(0.0) == 1.0
        assert Hyperbolic(1.0).deriv(0.0) == 1.0

    def test_exp_saturating_deriv(self):
        curve = ExpSaturating(2.0)
        assert curve.deriv(1.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)
        fd = central_diff(lambda i: curve.value(i), 1.0)
        assert curve.deriv(1.0) == pytest.approx(fd, rel=1e-5)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            ExpSaturating(0.0)
        with pytest.raises(ParameterError):
            ExpSaturating(-1.0)
        with pytest.raises(ParameterError):
            Hyperbolic(0.0)

    def test_negative_information_level_rejected(self):
        curves = (ExpSaturating(1.0), Hyperbolic(1.0), PowerCost(1.0, 2.0),
                  ExpGrowthCost(1.0, 1.0), ZeroCost())
        for curve in curves:
            for method in ("value", "deriv", "complement"):
                if not hasattr(curve, method):  # cost curves have no complement
                    continue
                for level in (-0.5, math.nan, math.inf):
                    with pytest.raises(ParameterError, match="information level must be"):
                        getattr(curve, method)(level)


class TestCostEval:
    def test_zero_family(self):
        for i in (0.0, 1.0, 1e6):
            assert ZeroCost().value(i) == 0.0
            assert ZeroCost().deriv(i) == 0.0

    def test_power(self):
        assert PowerCost(0.1, 2.0).value(1.0) == pytest.approx(0.1)
        assert PowerCost(0.1, 2.0).deriv(1.0) == pytest.approx(0.2)

    def test_exp_growth(self):
        assert ExpGrowthCost(1.0, 1.0).value(1.0) == pytest.approx(math.e - 1.0, rel=1e-12)
        assert ExpGrowthCost(1.0, 1.0).deriv(1.0) == pytest.approx(math.e, rel=1e-12)
        fd = central_diff(lambda i: ExpGrowthCost(1.0, 1.0).value(i), 1.0)
        assert ExpGrowthCost(1.0, 1.0).deriv(1.0) == pytest.approx(fd, rel=1e-5)

    def test_zero_at_origin(self):
        assert PowerCost(3.0, 1.5).value(0.0) == 0.0
        assert ExpGrowthCost(3.0, 0.5).value(0.0) == 0.0

    def test_convexity_constraint_rejected(self):
        with pytest.raises(ParameterError):
            PowerCost(1.0, 0.5)
        with pytest.raises(ParameterError):
            PowerCost(1.0, 1.0)
        with pytest.raises(ParameterError):
            PowerCost(-1.0, 2.0)
        with pytest.raises(ParameterError):
            ExpGrowthCost(0.0, 1.0)


class TestValidateCurves:
    def test_reference_pair_passes(self):
        report = validate_curves(ExpSaturating(1.0), PowerCost(0.1, 2.0), 100.0)
        assert report.passed, report.failures()
        assert not report.muthian_degenerate

    def test_zero_cost_flagged_degenerate(self):
        report = validate_curves(Hyperbolic(2.0), ZeroCost(), 100.0)
        assert report.passed
        assert report.muthian_degenerate
        assert "cost_convex" not in report.checks

    def test_bad_probe_range(self):
        with pytest.raises(ParameterError):
            validate_curves(ExpSaturating(1.0), ZeroCost(), 0.0)


def _random_success(rng):
    if rng.random() < 0.5:
        return ExpSaturating(rng.uniform(0.2, 3.0))
    return Hyperbolic(rng.uniform(0.1, 5.0))


def _random_cost(rng):
    if rng.random() < 0.5:
        return PowerCost(rng.uniform(0.01, 5.0), rng.uniform(1.2, 3.5))
    return ExpGrowthCost(rng.uniform(0.01, 2.0), rng.uniform(0.2, 2.0))


class TestSuccessProperties:
    def test_range_and_monotonicity_1000_probes(self, rng):
        for _ in range(50):
            curve = _random_success(rng)
            # stay below float saturation so strict monotonicity is observable
            upper = 30.0 / curve.rate if isinstance(curve, ExpSaturating) else 20.0
            probes = np.sort(rng.uniform(0.0, upper, size=20))
            values = [curve.value(i) for i in probes]
            assert all(0.0 <= v < 1.0 for v in values)
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_derivative_matches_finite_difference(self, rng):
        checked = 0
        while checked < 1000:
            curve = _random_success(rng)
            if isinstance(curve, ExpSaturating):
                i = rng.uniform(0.01, 5.0 / curve.rate)
            else:
                i = rng.uniform(0.01, 10.0)
            fd = central_diff(lambda x: curve.value(x), i)
            assert curve.deriv(i) == pytest.approx(fd, rel=1e-5)
            checked += 1

    def test_concavity_second_differences(self, rng):
        for _ in range(200):
            curve = _random_success(rng)
            i = rng.uniform(0.05, 10.0)
            h = max(1e-4, 1e-4 * i)
            d2 = curve.value(i + h) - 2.0 * curve.value(i) + curve.value(i - h)
            assert d2 <= 0.0

    def test_saturation_closed_form(self, rng):
        eps = 1e-6
        for _ in range(100):
            curve = _random_success(rng)
            if isinstance(curve, ExpSaturating):
                i = -math.log(eps) / curve.rate
            else:
                i = curve.half_saturation * (1.0 - eps) / eps
            assert curve.complement(i) <= eps * (1.0 + 1e-12)


class TestCostProperties:
    def test_derivative_matches_finite_difference(self, rng):
        for _ in range(1000):
            curve = _random_cost(rng)
            upper = 10.0 if isinstance(curve, PowerCost) else 20.0 / curve.rate
            i = rng.uniform(0.01, upper)
            fd = central_diff(lambda x: curve.value(x), i)
            assert curve.deriv(i) == pytest.approx(fd, rel=1e-5)

    def test_convexity_second_differences(self, rng):
        for _ in range(200):
            curve = _random_cost(rng)
            i = rng.uniform(0.05, 10.0)
            h = max(1e-4, 1e-4 * i)
            d2 = curve.value(i + h) - 2.0 * curve.value(i) + curve.value(i - h)
            assert d2 >= 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        scale=st.floats(0.01, 5.0),
        exponent=st.floats(1.2, 3.5),
        i1=st.floats(0.0, 50.0),
        i2=st.floats(0.0, 50.0),
    )
    def test_power_superadditive(self, scale, exponent, i1, i2):
        curve = PowerCost(scale, exponent)
        total = curve.value(i1 + i2)
        assert total >= curve.value(i1) + curve.value(i2) - 1e-9 * max(1.0, total)

    @settings(max_examples=200, deadline=None)
    @given(
        scale=st.floats(0.01, 2.0),
        rate=st.floats(0.2, 2.0),
        i1=st.floats(0.0, 50.0),
        i2=st.floats(0.0, 50.0),
    )
    def test_exp_growth_superadditive(self, scale, rate, i1, i2):
        curve = ExpGrowthCost(scale, rate)
        total = curve.value(i1 + i2)
        assert total >= curve.value(i1) + curve.value(i2) - 1e-9 * max(1.0, total)
