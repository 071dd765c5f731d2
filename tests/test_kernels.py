import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoload import ExpGrowthCost, ExpSaturating, Hyperbolic, PowerCost, Trader, ZeroCost, kernels
from infoload.agent import marginal_utility, utility_on_grid

from conftest import exact_h, random_trader

# float64 expm1 overflows above about 709.78, so rate 2.0 is finite up to
# i = 354.89 and +inf from 354.9; a cubic cost overflows from about i = 5.6e102
EDGE_GRIDS = (
    (ExpGrowthCost(0.01, 2.0), [0.0, 349.5, 350.0, 352.5, 354.89, 354.9, 1e6]),
    (PowerCost(1.0, 3.0), [0.0, 1e100, 1e103, 1e300]),
)

FLOAT_MAX = mpmath.mpf(sys.float_info.max)


def _success_terms(success, i):
    """(lambda, lambda') at i, in mpmath."""
    if isinstance(success, ExpSaturating):
        r = mpmath.mpf(success.rate)
        return -mpmath.expm1(-r * i), r * mpmath.exp(-r * i)
    k = mpmath.mpf(success.half_saturation)
    return i / (i + k), k / (i + k) ** 2


def _cost_terms(cost, i):
    """(xi, xi') at i in mpmath, each None where the float64 kernel must overflow.

    The kernel overflows where expm1(rate * i), exp(rate * i) or the power of i
    lies beyond the float64 range; the constant factors are applied after.
    """
    if isinstance(cost, ZeroCost):
        return mpmath.mpf(0), mpmath.mpf(0)
    s = mpmath.mpf(cost.scale)
    if isinstance(cost, PowerCost):
        e = mpmath.mpf(cost.exponent)
        value, deriv = i**e, i ** (e - 1)
    else:
        e = mpmath.mpf(cost.rate)
        value, deriv = mpmath.expm1(e * i), mpmath.exp(e * i)
    return (None if value > FLOAT_MAX else s * value,
            None if deriv > FLOAT_MAX else s * e * deriv)


def _reference(trader, i):
    """(utility, its term sum, marginal utility, its term sum) at float i, in mpmath."""
    i = mpmath.mpf(float(i))
    gain, loss = mpmath.mpf(trader.gain), mpmath.mpf(trader.loss)
    lam, lam_d = _success_terms(trader.success, i)
    cost, cost_d = _cost_terms(trader.cost, i)
    util = terms = marginal = marginal_terms = None
    if cost is not None:
        util = lam * gain - (1 - lam) * loss - cost
        terms = abs(lam * gain) + abs((1 - lam) * loss) + abs(cost)
    if cost_d is not None:
        marginal = lam_d * (gain + loss) - cost_d
        marginal_terms = abs(lam_d * (gain + loss)) + abs(cost_d)
    return util, terms, marginal, marginal_terms


def _assert_near(value, reference, terms, where):
    if reference is None:  # the float64 cost overflows
        assert value == -np.inf, where
    else:
        assert abs(mpmath.mpf(float(value)) - reference) <= 1e-13 * terms, where


@mpmath.workprec(200)
def test_kernel_matches_mpmath_oracle(rng):
    cases = [(random_trader(rng), np.linspace(0.0, rng.uniform(1.0, 30.0), 101))
             for _ in range(50)]
    cases += [(Trader(1.0, 1.0, success, cost), np.array(grid))
              for cost, grid in EDGE_GRIDS
              for success in (ExpSaturating(1.0), Hyperbolic(1.0))]
    n_overflow = 0
    for trader, grid in cases:
        util = utility_on_grid(trader, grid)
        marginal = [marginal_utility(trader, i) for i in grid.tolist()]
        for i, u, m in zip(grid, util, marginal):
            ref_u, terms_u, ref_m, terms_m = _reference(trader, i)
            _assert_near(u, ref_u, terms_u, (trader, i, "utility"))
            _assert_near(m, ref_m, terms_m, (trader, i, "marginal utility"))
            n_overflow += (ref_u is None) + (ref_m is None)
    # per success family: xi and xi' at 354.9 and 1e6, xi at 1e103 and 1e300, xi' at 1e300
    assert n_overflow == 14


def test_curve_methods_equal_the_kernel_on_columns(rng):
    # every formula is a chain of ufuncs, so a curve method (a one-element column) must
    # give the column's bits at each of these 40,000 points
    for _ in range(400):
        trader = random_trader(rng)
        levels = rng.uniform(0.0, 20.0, 100)
        for family, curve, names in (("success", trader.success, ("value", "complement", "deriv")),
                                     ("cost", trader.cost, ("value", "deriv"))):
            for name in names:
                column = getattr(kernels, f"{family}_{name}")(levels, *curve.kernel_code())
                scalar = [getattr(curve, name)(i) for i in levels.tolist()]
                assert np.array_equal(scalar, column), (curve, name)


def test_out_buffers_give_bit_identical_utilities(rng):
    # one pair of work arrays and one log of the grid reused across every family pair
    # and the overflow edges, so values left over from the previous trader must not
    # leak through, and log 0 = -inf must give a zero power cost without a warning
    grid = np.concatenate([np.linspace(0.0, 30.0, 1001), [354.89, 354.9, 1e6, 1e103, 1e300]])
    with np.errstate(divide="ignore"):
        log_grid = np.log(grid)
    out = np.full_like(grid, np.nan), np.full_like(grid, np.nan)
    for family in ("power", "exp_growth", "zero"):
        for _ in range(20):
            trader = random_trader(rng, family)
            args = (*trader.success.kernel_code(), *trader.cost.kernel_code(),
                    trader.gain, trader.loss)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fresh = kernels.utility_grid(grid, *args)
                for kwargs in ({}, {"log_grid": log_grid}):
                    util = kernels.utility_grid(grid, *args, out=out, **kwargs)
                    assert util is out[0]
                    assert util.view(np.int64).tolist() == fresh.view(np.int64).tolist(), trader


@mpmath.workprec(200)
def test_power_cost_is_within_its_log_bound_up_to_overflow(rng):
    # scale * exp(p * log i): log i is rounded, and p * log i carries that rounding into
    # the exponent as an absolute error of about |p ln i| * 2**-53, which exp turns into
    # a relative one; with the roundings of the product, exp and scale the value is
    # within (|p ln i| + 2) * 2**-52 relative of the exact cost wherever it is finite
    cases = [(1.0, 3.0, [1e100, 1e102, 5e102])]  # exp(3 * log 1e100) is 9e-14 off
    for _ in range(100):
        scale, p = rng.uniform(0.001, 5.0), 1.0 + rng.uniform(0.001, 2.0)
        # from where i ** p and the cost are normal floats to just below where one overflows
        lo, hi = (max(math.log(sys.float_info.min), math.log(sys.float_info.min / scale)) / p,
                  min(math.log(sys.float_info.max), math.log(sys.float_info.max / scale)) / p)
        cases.append((scale, p, np.exp(rng.uniform(lo, hi, 20)).tolist()
                      + [math.exp(hi) * (1 - 1e-12)]))
    for scale, p, levels in cases:
        values = kernels.cost_value(np.array(levels), kernels.COST_POWER, scale, p)
        assert np.array_equal(values, [PowerCost(scale, p).value(i) for i in levels])
        for i, value in zip(levels, values.tolist()):
            exact = mpmath.mpf(scale) * mpmath.mpf(i) ** mpmath.mpf(p)
            bound = (abs(p * math.log(i)) + 2) * 2.0**-52
            assert exact <= FLOAT_MAX and math.isfinite(value), (scale, p, i)
            assert abs(mpmath.mpf(value) - exact) <= bound * exact, (scale, p, i)


def _h_written_out(i, s_code, s_param, c_code, c_scale, c_param, gain, loss):
    """h = log lambda' + log(W + L) - log xi' as one expression per family pair."""
    level = np.log(s_param) + np.log(gain + loss) - np.log(c_scale) - np.log(c_param)
    with np.errstate(over="ignore", divide="ignore"):
        if (s_code, c_code) == (kernels.SUCCESS_EXP_SATURATING, kernels.COST_POWER):
            return level - s_param * i - (c_param - 1.0) * np.log(i)
        if (s_code, c_code) == (kernels.SUCCESS_EXP_SATURATING, kernels.COST_EXP_GROWTH):
            return level - s_param * i - c_param * i
        if c_code == kernels.COST_POWER:
            return level - 2.0 * np.log(i + s_param) - (c_param - 1.0) * np.log(i)
        return level - 2.0 * np.log(i + s_param) - c_param * i


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@pytest.mark.parametrize("s_code", [kernels.SUCCESS_EXP_SATURATING, kernels.SUCCESS_HYPERBOLIC])
@pytest.mark.parametrize("c_code", [kernels.COST_POWER, kernels.COST_EXP_GROWTH])
@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(
    _decades(-3, 3), _decades(-4, 4), _decades(-3, 1), _decades(-2, 2), _decades(-2, 2),
    _decades(-6, 3), _decades(-6, 3)), min_size=1, max_size=12))
def test_h_is_its_formula_written_out_bit_for_bit(s_code, c_code, rows):
    # columns: success param, cost scale, cost param (1 + it for a power), gain, loss,
    # and two sets of levels
    s_param, c_scale, c_param, gain, loss, levels, other_levels = map(np.array, zip(*rows))
    if c_code == kernels.COST_POWER:
        c_param = 1.0 + c_param
    args = (s_code, s_param, c_code, c_scale, c_param, gain, loss)
    h_args = kernels.log_marginal_args(*args)
    n = len(rows)
    for i in (0.0, levels, np.full(n, 1e300), other_levels, np.full(n, math.inf)):
        value = kernels.log_marginal_ratio(i, *h_args)
        expected = _h_written_out(i, *args)
        assert value.view(np.int64).tolist() == expected.view(np.int64).tolist(), i
        # h has the sign of g wherever g's two float terms are normal and not within a
        # relative 1e-12 of each other
        with np.errstate(over="ignore"):
            gain_d = kernels.success_deriv(i, s_code, s_param) * (gain + loss)
            cost_d = kernels.cost_deriv(i, c_code, c_scale, c_param)
        clear = ((np.minimum(gain_d, cost_d) > sys.float_info.min) & np.isfinite(cost_d)
                 & (abs(gain_d - cost_d) > 1e-12 * np.maximum(gain_d, cost_d)))
        assert np.array_equal(np.sign(value[clear]), np.sign(gain_d - cost_d)[clear]), i


# the accepted domain's edges: the smallest subnormal and the largest float, an exponent
# one float above 1, and gain and loss of a finite sum
TINY, HUGE = 5e-324, sys.float_info.max
EDGE_LEVELS = np.array([0.0, TINY, 1.0, HUGE, math.inf])


@pytest.mark.parametrize("s_code", [kernels.SUCCESS_EXP_SATURATING, kernels.SUCCESS_HYPERBOLIC])
@pytest.mark.parametrize("c_code", [kernels.COST_POWER, kernels.COST_EXP_GROWTH])
def test_h_at_the_edges_of_the_levels_and_the_domain(s_code, c_code):
    c_params = (math.nextafter(1.0, 2.0), HUGE) if c_code == kernels.COST_POWER else (TINY, HUGE)
    rows = np.array([(s_param, c_scale, c_param, gain, loss)
                     for s_param in (TINY, HUGE) for c_scale in (TINY, HUGE)
                     for c_param in c_params
                     for gain, loss in ((TINY, TINY), (HUGE / 2, HUGE / 2), (1.0, TINY))])
    s_param, c_scale, c_param, gain, loss = (np.ascontiguousarray(column) for column in rows.T)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # log 0 and overflow must not warn
        h_args = kernels.log_marginal_args(s_code, s_param, c_code, c_scale, c_param, gain, loss)
        values = np.array([kernels.log_marginal_ratio(np.full(len(rows), i), *h_args)
                           for i in EDGE_LEVELS])
    assert not np.isnan(values).any()
    assert np.isfinite(h_args[-2]).all()  # the level-free part
    if c_code == kernels.COST_POWER:
        assert (values[0] == math.inf).all()
    assert (values[-1] == -math.inf).all()
    if s_code == kernels.SUCCESS_HYPERBOLIC:
        # at the largest level and half-saturation, i + k overflows: h has the exact sign
        # there, where 2 log(i + k) read +inf and h -inf
        cost = PowerCost if c_code == kernels.COST_POWER else ExpGrowthCost
        corner = np.flatnonzero(s_param == HUGE)
        signs = [mpmath.sign(exact_h(Trader(gain[k], loss[k], Hyperbolic(HUGE),
                                            cost(c_scale[k], c_param[k])), HUGE))
                 for k in corner]
        assert np.sign(values[3, corner]).tolist() == signs
        assert 1 in signs and -1 in signs


@pytest.mark.parametrize("c_code", [kernels.COST_POWER, kernels.COST_EXP_GROWTH])
def test_h_keeps_its_bits_where_the_hyperbolic_sum_is_finite(c_code):
    # one row per half-saturation, in one family pair whose largest is past 2**970, so
    # the halved form is gated on: only the elements whose i + k overflows take it
    levels = np.array([0.0, 5e-324, 1.0, 1e300, 2.0**969, 1.5e308, HUGE, math.inf])
    s_param = np.array([[5e-324], [1.0], [1e300], [1e308], [HUGE]])
    # a finite cost slope at HUGE
    cost = PowerCost(1.0, 1.5) if c_code == kernels.COST_POWER else ExpGrowthCost(1.0, 0.5)
    args = (kernels.SUCCESS_HYPERBOLIC, s_param, *cost.kernel_code(), 1.0, 1.0)
    h_args = kernels.log_marginal_args(*args)
    value = kernels.log_marginal_ratio(levels, *h_args)
    with np.errstate(over="ignore"):
        finite = levels + s_param < math.inf
    assert h_args[-1] and finite.sum() == 29
    expected = _h_written_out(levels, *args)
    assert value[finite].view(np.int64).tolist() == expected[finite].view(np.int64).tolist()
    # past the sum's overflow h is finite, where the written-out form reads -inf, and
    # within rounding of the exact h (mpmath)
    wide = np.argwhere(~finite & (levels < math.inf))
    assert len(wide) == 6
    for k, j in wide.tolist():
        exact = exact_h(Trader(1.0, 1.0, Hyperbolic(s_param[k, 0]), cost), levels[j])
        assert mpmath.almosteq(value[k, j], exact, rel_eps=1e-12, abs_eps=1e-9), (k, j)
    assert (value[:, -1] == -math.inf).all()
    # a pair whose half-saturations all lie below 2**970 is not gated
    assert not kernels.log_marginal_args(*args[:1], s_param[:2], *args[2:])[-1]


@pytest.mark.parametrize("s_code", [kernels.SUCCESS_EXP_SATURATING, kernels.SUCCESS_HYPERBOLIC])
@pytest.mark.parametrize("c_code", [kernels.COST_ZERO, kernels.COST_POWER, kernels.COST_EXP_GROWTH])
def test_utility_grids_second_array_holds_the_cost(rng, s_code, c_code):
    # the oracle's scan reads out[1] as xi at its points, so it must hold cost_value's
    # bits, with one row per trader as the scan calls it and for one trader, past the
    # overflow edges and at log 0 too
    grid = np.concatenate([np.linspace(0.0, 30.0, 301), [354.89, 354.9, 1e6, 1e103, 1e300]])
    n = 8
    s_param, gain, loss = rng.uniform(0.3, 3.0, (3, n))
    c_scale, c_param = (np.zeros((2, n)) if c_code == kernels.COST_ZERO
                        else (rng.uniform(0.01, 5.0, n), rng.uniform(1.5, 3.0, n)))
    with np.errstate(over="ignore", divide="ignore"):
        log_grid = np.log(grid)
        costs = np.broadcast_to(kernels.cost_value(grid, c_code, c_scale[:, None],
                                                   c_param[:, None]), (n, len(grid)))
    out = np.full((2, n, len(grid)), np.nan)
    kernels.utility_grid(grid, s_code, s_param[:, None], c_code, c_scale[:, None],
                         c_param[:, None], gain[:, None], loss[:, None], out=out,
                         log_grid=log_grid)
    assert out[1].view(np.int64).tolist() == costs.view(np.int64).tolist()
    for k in range(n):
        row = np.full((2, len(grid)), np.nan)
        kernels.utility_grid(grid, s_code, s_param[k], c_code, c_scale[k], c_param[k],
                             gain[k], loss[k], out=row)
        assert row[1].view(np.int64).tolist() == costs[k].view(np.int64).tolist()


@mpmath.workprec(200)
def test_hyperbolic_value_and_complement_where_the_sum_overflows(rng):
    # where i + k overflows, both are at least 2**970 and the halved form stays in range,
    # where i / (i + k) and k / (i + k) would read 0
    levels = np.concatenate([[1.5e308, HUGE, HUGE, 2.0**970, 2.0**969],
                             rng.uniform(0.5, 1.0, 40) * HUGE])
    params = np.concatenate([[1e308, HUGE, 2.0**970, HUGE, HUGE],
                             rng.uniform(0.5, 1.0, 40) * HUGE])
    with np.errstate(over="ignore"):
        total = levels + params
        value = kernels.success_value(levels, kernels.SUCCESS_HYPERBOLIC, params)
        complement = kernels.success_complement(levels, kernels.SUCCESS_HYPERBOLIC, params)
    wide = total == math.inf
    assert wide.tolist() == [True] * 4 + [False] + [True] * 40
    for i, k, v, c in zip(levels.tolist(), params.tolist(), value.tolist(), complement.tolist()):
        exact = mpmath.mpf(i) / (mpmath.mpf(i) + mpmath.mpf(k))
        assert abs(v - exact) <= 2 * math.ulp(float(exact)), (i, k)
        assert abs(c - (1 - exact)) <= 2 * math.ulp(float(1 - exact)), (i, k)
    # the curve methods agree: Hyperbolic(1e308) at 1.5e308 is 0.6 and 0.4, not 0 and 0
    curve = Hyperbolic(1e308)
    assert (curve.value(1.5e308), curve.complement(1.5e308)) == (value[0], complement[0])
    assert math.isclose(value[0], 0.6, rel_tol=1e-15)
    assert math.isclose(complement[0], 0.4, rel_tol=1e-15)


def test_hyperbolic_value_and_complement_keep_their_bits_where_the_sum_is_finite():
    # one row per half-saturation, some with and some without an overflowing sum: only the
    # overflowing elements take the halved form
    levels = np.array([0.0, 5e-324, 1.0, 1e300, 2.0**969, 1.5e308, HUGE])
    params = np.array([[5e-324], [1.0], [1e300], [1e308], [HUGE]])
    with np.errstate(over="ignore"):
        finite = levels + params < math.inf
        plain = (levels / (levels + params), params / (levels + params))
        kernel = (kernels.success_value(levels, kernels.SUCCESS_HYPERBOLIC, params),
                  kernels.success_complement(levels, kernels.SUCCESS_HYPERBOLIC, params))
    assert finite.sum() == 29
    for expected, value in zip(plain, kernel):
        assert value[finite].view(np.int64).tolist() == expected[finite].view(np.int64).tolist()
        assert (value[~finite] > 0.0).all()
