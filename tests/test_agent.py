import math
import tracemalloc
import warnings
from dataclasses import fields
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infoload import (
    ExpGrowthCost,
    ExpSaturating,
    Hyperbolic,
    PowerCost,
    Regime,
    Trader,
    ZeroCost,
    expected_return,
    expected_utility,
    grid_oracle,
    marginal_utility,
    optimize_information,
    sweep_imax,
    unconstrained_optimum,
)
from infoload import COST_FAMILIES, SUCCESS_FAMILIES, Population, PopulationSpec, agent, curves
from infoload import MarketConfig, kernels, run_market, sample_population
from infoload.agent import grid_oracles, information_grid, solve_roots, utility_on_grid
from infoload.errors import NumericRangeError, ParameterError
from infoload.sweep import critical_imax_quantile, sweep_2d

from conftest import WIDE_TRADERS, log_uniform, nan_log_marginal_ratio_at, random_trader


class TestTrader:
    def test_gain_plus_loss_must_be_finite(self):
        # W + L = inf would make the marginal utility 0 * inf = nan past the slope's underflow
        with pytest.raises(ParameterError, match="gain \\+ loss"):
            Trader(1e308, 1e308, ExpSaturating(1.0), PowerCost(1.0, 2.0))
        assert Trader(1e308, 7e307, ExpSaturating(1.0), PowerCost(1.0, 2.0)).gain == 1e308


def _families_by_unique(population):
    """``Population.families``' agents and codes by two ``np.unique`` passes: the reference
    order."""
    for s_code in np.unique(population.success_code).tolist():
        success = population.success_code == s_code
        for c_code in np.unique(population.cost_code[success]).tolist():
            agents = np.flatnonzero(success & (population.cost_code == c_code))
            yield agents.tolist(), s_code, c_code


def _two_agents(**overrides):
    """Valid columns of two agents (exp-saturating/power, hyperbolic/zero), then ``overrides``."""
    columns = dict(gain=np.array([1.0, 2.0]), loss=np.array([1.0, 1.0]),
                   success_code=np.array([0, 1]), success_param=np.array([1.0, 0.5]),
                   cost_code=np.array([1, 0]), cost_scale=np.array([0.1, 0.0]),
                   cost_param=np.array([2.0, 0.0]))
    return {**columns, **overrides}


# cells of hand-built columns: valid and invalid values, exponents around 1
_CELLS = [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e308, 0.5, 1.0, math.nextafter(1.0, 0.0),
          math.nextafter(1.0, 2.0), 2.0]


_CODES = st.tuples(st.integers(0, 1), st.integers(0, 2))  # (success_code, cost_code)


@st.composite
def _rows(draw, codes=_CODES):
    """A valid trader's kernel-code row, of a family pair drawn from ``codes``, with up to
    two cells replaced: a code by one of -1..3, any other cell by one of ``_CELLS``."""
    s_code, c_code = draw(codes)
    params = (draw(st.sampled_from([0.5, 2.0])), 2.0) if c_code else (0.0, 0.0)
    row = [draw(st.sampled_from([0.5, 2.0])), 1.0, s_code, 0.5, c_code, *params]
    for j in draw(st.lists(st.integers(0, 6), max_size=2)):
        row[j] = draw(st.integers(-1, 3) if j in (2, 4) else st.sampled_from(_CELLS))
    return tuple(row)


def _row_as_trader(row):
    """The ``Trader`` whose ``from_traders`` columns are ``row``, or None if there is none."""
    gain, loss, s_code, s_param, c_code, c_scale, c_param = row
    try:
        trader = Trader(gain, loss, curves.from_kernel_code(SUCCESS_FAMILIES, s_code, s_param),
                        curves.from_kernel_code(COST_FAMILIES, c_code, c_scale, c_param))
    except (KeyError, ParameterError):  # KeyError: no family has that code
        return None
    columns = Population.from_traders([trader])
    same = all(getattr(columns, f.name)[0] == value for f, value in zip(fields(columns), row))
    return trader if same else None


class TestPopulation:
    @pytest.mark.parametrize("overrides,message", [
        ({"gain": np.array([1.0, math.nan])}, "agent 1: gain must be finite"),
        ({"cost_param": np.array([1.0, 0.0])},
         r"agent 0: cost_param \(exponent\) must be finite and exceed 1 \(convexity\), got 1.0"),
        ({"cost_code": np.array([7, 0])}, "agent 0: cost_code must be an integer code"),
        ({"success_code": np.array([0, 5])}, "agent 1: success_code must be an integer code"),
        ({"cost_code": np.array([1, -1])}, "agent 1: cost_code must be an integer code"),
        ({"cost_code": np.array([1.0, 0.0])}, "agent 0: cost_code must be an integer code"),
        ({"success_code": np.array([0.0, 1.0])}, "agent 0: success_code must be an integer code"),
        ({"cost_scale": np.array([-0.1, 0.0])}, r"agent 0: cost_scale \(scale\) must be finite"),
        ({"cost_scale": np.array([0.1, 0.5])}, "agent 1: cost_scale must be 0 for ZeroCost"),
        ({"cost_param": np.array([2.0, 3.0])}, "agent 1: cost_param must be 0 for ZeroCost"),
        ({"loss": np.array([1.0, 1e308]), "gain": np.array([1.0, 1e308])},
         r"agent 1: gain \+ loss must be finite"),
        ({"gain": np.array([1.0, 2.0, 3.0])}, "columns must be 1-D arrays of one length.*'gain'"),
        ({"cost_param": np.array([[2.0, 0.0]])}, "columns must be 1-D arrays of one length"),
        # the first bad agent is named, whatever the column order
        ({"gain": np.array([1.0, -1.0]), "cost_param": np.array([0.5, 0.0])},
         r"agent 0: cost_param \(exponent\)"),
        # on one agent, the earlier column is named
        ({"cost_scale": np.array([-0.1, 0.0]), "cost_param": np.array([0.5, 0.0])},
         r"agent 0: cost_scale \(scale\) must be finite and exceed 0, got -0.1"),
        # each row's sum is finite, though the largest gain plus the largest loss is not
        ({"gain": np.array([1e308, 1.0]), "loss": np.array([1.0, 1e308])}, None),
        # columns of one family, whose extremes serve for every row
        (dict(_two_agents(), success_code=np.zeros(3, int), cost_code=np.ones(3, int),
              **{name: np.ones(3) for name in ("gain", "loss", "success_param", "cost_scale")},
              cost_param=np.array([2.0, 2.0, 0.5])),
         r"agent 2: cost_param \(exponent\) must be finite and exceed 1 \(convexity\), got 0.5"),
    ])
    def test_hand_built_columns_are_checked(self, overrides, message):
        assert len(Population(**_two_agents())) == 2
        if message is None:
            assert len(Population(**_two_agents(**overrides))) == 2
        else:
            with pytest.raises(ParameterError, match=message):
                Population(**_two_agents(**overrides))

    def test_list_columns_are_arrays(self):
        lists = dict(gain=[1.0, 2.0], loss=[1.0, 1.0], success_code=[0, 0],
                     success_param=[1.0, 0.5], cost_code=[1, 1], cost_scale=[0.1, 0.1],
                     cost_param=[2.0, 2.0])
        assert Population(**lists)[1] == Trader(2.0, 1.0, ExpSaturating(0.5), PowerCost(0.1, 2.0))
        # mixed codes, and an out-of-domain cell among them
        mixed = {name: column.tolist() for name, column in _two_agents().items()}
        assert list(Population(**mixed)) == list(Population(**_two_agents()))
        with pytest.raises(ParameterError, match="agent 1: gain must be finite"):
            Population(**{**mixed, "gain": [1.0, -2.0]})

    def test_checked_before_any_solve(self):
        with mock.patch.object(kernels, "log_marginal_args") as h_args:
            with pytest.raises(ParameterError, match="agent 1: gain"):
                solve_roots(Population(**_two_agents(gain=np.array([1.0, math.nan]))))
        h_args.assert_not_called()

    @pytest.mark.parametrize("success", sorted(SUCCESS_FAMILIES))
    @pytest.mark.parametrize("cost", sorted(COST_FAMILIES))
    def test_sampled_populations_accepted(self, success, cost):
        spec = PopulationSpec(
            n_agents=50, gain=(0.5, 2.0), loss=(0.5, 2.0), success_family=success,
            success_param=(0.2, 2.0), cost_family=cost, cost_scale=(0.01, 1.0),
            cost_shape=(math.nextafter(1.0, 2.0), 3.0), master_seed=5)
        assert len(sample_population(spec)) == 50

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_rows(), max_size=12)
           | _CODES.flatmap(lambda codes: st.lists(_rows(st.just(codes)), max_size=12)))
    def test_accepted_iff_every_row_is_a_trader(self, rows):
        columns = [np.array([row[j] for row in rows], dtype=np.int64 if j in (2, 4) else float)
                   for j in range(7)]  # codes are integer columns
        traders = [_row_as_trader(row) for row in rows]
        try:
            population = Population(*columns)
        except ParameterError as exc:
            first = next(k for k, trader in enumerate(traders) if trader is None)
            assert str(exc).startswith(f"agent {first}: ")
        else:
            assert None not in traders
            assert list(population) == traders

    def test_columns_round_trip_to_traders(self, rng):
        traders = [random_trader(rng) for _ in range(50)]
        population = Population.from_traders(traders)
        assert len(population) == 50
        assert list(population) == traders
        assert population[-1] == traders[-1] and population[np.int64(3)] == traders[3]
        assert all(type(v) is float for v in (population[0].gain, population[0].loss))
        assert Population.from_traders(population) is population
        with pytest.raises(IndexError):
            population[50]

    def test_zero_cost_columns_are_kernel_codes(self):
        population = Population.from_traders([Trader(1.0, 2.0, Hyperbolic(0.5), ZeroCost())])
        assert population.cost_scale.tolist() == [0.0] and population.cost_param.tolist() == [0.0]
        assert population[0] == Trader(1.0, 2.0, Hyperbolic(0.5), ZeroCost())

    def test_empty(self):
        population = Population.from_traders([])
        assert len(population) == 0 and list(population) == []

    def test_families_in_np_unique_order(self, rng):
        mixed = Population.from_traders([random_trader(rng) for _ in range(300)])
        for population in (mixed, Population.from_traders([])):
            families = list(population.families())
            assert [(agents.tolist(), args[0], args[2]) for agents, args in families] == list(
                _families_by_unique(population))
            for agents, args in families:
                assert type(args[0]) is int and type(args[2]) is int
                columns = [a for a in args if isinstance(a, np.ndarray)]
                assert len(columns) == 5 and all(a.flags.c_contiguous for a in columns)
                # row j of the arguments is agent agents[j]'s kernel arguments
                rows = zip(*(a.tolist() if isinstance(a, np.ndarray) else [a] * len(agents)
                             for a in args))
                assert list(rows) == [agent._kernel_args(population[k]) for k in agents.tolist()]
        assert not mixed.gain.flags.c_contiguous  # the columns are strided views of one array
        assert len(list(mixed.families())) == 6

    def test_kernels_get_contiguous_arrays(self, rng, monkeypatch):
        # a kernel is handed fancy-indexed copies of the columns, never one of
        # from_traders' strided columns
        population = Population.from_traders([random_trader(rng) for _ in range(60)])
        calls = []

        def recording(name, kernel):
            def call(*args, **kwargs):
                arrays = [a for arg in (*args, *kwargs.values())
                          for a in (arg if isinstance(arg, tuple) else (arg,))
                          if isinstance(a, np.ndarray)]
                calls.append((name, all(a.flags.c_contiguous for a in arrays)))
                return kernel(*args, **kwargs)
            return call

        names = {"log_marginal_args", "log_marginal_ratio", "utility_grid"}
        for name in names:
            monkeypatch.setattr(kernels, name, recording(name, getattr(kernels, name)))
        run_market(MarketConfig(i_max=2.0, theta=0.5), population)
        sweep_2d(population, [0.5, 1.0, 2.0], [0.5, 1.0], 0.5)
        grid_oracles(population, 2.0, 1e-2)
        population.utility(0.5)
        assert {name for name, _ in calls} == names
        assert all(contiguous for _, contiguous in calls)


class TestExpectedReturn:
    def test_certain_success(self):
        assert expected_return(1.0, 5.0, 3.0) == 5.0

    def test_fair_bet(self):
        assert expected_return(0.5, 2.0, 2.0) == 0.0

    def test_symmetric_payoffs(self):
        assert expected_return(0.6321, 1.0, 1.0) == pytest.approx(2 * 0.6321 - 1.0)

    def test_probability_domain(self):
        with pytest.raises(ParameterError):
            expected_return(1.2, 1.0, 1.0)
        with pytest.raises(ParameterError):
            expected_return(-0.1, 1.0, 1.0)


class TestExpectedUtility:
    def test_zero_information_pays_minus_loss(self, rng):
        for _ in range(50):
            trader = random_trader(rng)
            assert expected_utility(trader, 0.0) == pytest.approx(-trader.loss, abs=1e-15)

    def test_reference_value(self, reference_trader):
        expected = (1 - math.exp(-1)) - math.exp(-1) - 0.1
        assert expected_utility(reference_trader, 1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.16424, abs=1e-5)

    def test_zero_cost_reduces_to_expected_return(self, rng):
        # the kernel's utility is W - (W + L) * (1 - lambda) - xi, so a zero cost leaves
        # that complement form bit for bit; it rounds differently from
        # lambda * W - (1 - lambda) * L, but each form is a few roundings of terms no
        # larger than W + L, so the two agree within 4 ulps of W + L
        trader = Trader(1.0, 1.0, ExpSaturating(1.0), ZeroCost())
        assert expected_utility(trader, 1.0) == pytest.approx(0.26424, abs=1e-5)
        for _ in range(100):
            t = random_trader(rng, cost_family="zero")
            i = rng.uniform(0.0, 20.0)
            u = expected_utility(t, i)
            assert u == t.gain - (t.gain + t.loss) * t.success.complement(i)
            assert u == pytest.approx(expected_return(t.success.value(i), t.gain, t.loss),
                                      rel=0.0, abs=4 * 2.0**-52 * (t.gain + t.loss))


class TestOneLevel:
    # the level check of a curve's value and deriv, as t.cost.value(-1.0) raises it
    @pytest.mark.parametrize("function", [expected_utility, marginal_utility])
    @pytest.mark.parametrize("i", [-1.0, -5e-324, math.inf, -math.inf, math.nan])
    def test_level_must_be_finite_and_non_negative(self, reference_trader, function, i):
        with pytest.raises(ParameterError, match="information level must be a finite "
                                                 "non-negative real"):
            function(reference_trader, i)


_EDGE_TRADER = Trader(1.0, 1.0, ExpSaturating(1e200), PowerCost(1.0, 2.0))


class TestErrorState:
    # each entry to the kernel sets numpy's error state, so overflow at the edge of the
    # float range warns in none of these calls: (call, its result)
    @pytest.mark.parametrize("call, expected", [
        (lambda: [ExpSaturating(1e200).value(1e200), ExpSaturating(1e200).complement(1e200),
                  ExpSaturating(1e200).deriv(1e200)], [1.0, 0.0, 0.0]),
        (lambda: [Hyperbolic(1e308).value(1.5e308), Hyperbolic(1e308).complement(1.5e308),
                  Hyperbolic(1e308).deriv(1.5e308)], [pytest.approx(0.6, rel=1e-15),
                                                      pytest.approx(0.4, rel=1e-15), 0.0]),
        (lambda: [expected_utility(_EDGE_TRADER, 1e200), marginal_utility(_EDGE_TRADER, 1e200),
                  *utility_on_grid(_EDGE_TRADER, [1e200]).tolist()],
         [-math.inf, -2e200, -math.inf]),
        (lambda: [column.tolist() for column in grid_oracles(
            [Trader(1.0, 1.0, ExpSaturating(1e307), PowerCost(1.0, 2.0))], 100.0, 1e-3)],
         [[1e-3], [pytest.approx(1.0 - 1e-6, rel=1e-12)], ["interior"]]),
        (lambda: run_market(MarketConfig(i_max=1.5e308, theta=0.5),
                            [Trader(1.0, 1.0, Hyperbolic(1e308), ZeroCost())]).u_star.tolist(),
         [pytest.approx(0.2, rel=1e-14)]),
    ], ids=["exp_saturating", "hyperbolic", "utility", "grid_oracles", "run_market"])
    def test_the_kernels_entries_do_not_warn(self, call, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert call() == expected


class TestMarginalUtility:
    def test_zero_cost_always_positive(self, rng):
        for _ in range(50):
            t = random_trader(rng, cost_family="zero")
            i = rng.uniform(0.0, 30.0)
            assert marginal_utility(t, i) > 0.0

    def test_reference_at_zero(self, reference_trader):
        assert marginal_utility(reference_trader, 0.0) == pytest.approx(2.0)

    def test_reference_root(self, reference_trader):
        assert abs(marginal_utility(reference_trader, 1.7455)) <= 1e-3

    def test_at_most_one_sign_change(self, rng):
        for _ in range(100):
            trader = random_trader(rng)
            if isinstance(trader.cost, ZeroCost):
                continue
            grid = np.linspace(0.0, 20.0, 200)
            signs = np.sign([marginal_utility(trader, i) for i in grid])
            signs = signs[signs != 0]
            changes = int(np.sum(signs[1:] != signs[:-1]))
            assert changes <= 1
            if changes == 1:
                # the single change is + to -
                first_neg = np.argmin(signs > 0)
                assert signs[0] > 0 and signs[first_neg] < 0


    def test_hyperbolic_slope_past_the_square_root_of_the_float_range(self):
        # (i + k) ** 2 overflows for k above about 1.34e154, and its inverse read 0, so
        # g was -xi' here; the exact g is about 5e-209 (its root is 1.12e184)
        trader = Trader(1.0, 1.0, Hyperbolic(1e160), PowerCost(1e-300, 1.5))
        assert 0.0 < marginal_utility(trader, 1e184) < math.inf


class TestUnconstrainedOptimum:
    def test_reference_trader(self, reference_trader):
        # oracle: dense grid search at step 1e-4
        oracle = grid_oracle(reference_trader, 5.0, 1e-4)
        i_u = unconstrained_optimum(reference_trader)
        assert math.isfinite(i_u)
        assert i_u == pytest.approx(oracle.i_star, abs=1e-3)
        assert i_u == pytest.approx(1.7455, abs=1e-3)

    def test_zero_cost_unbounded(self, rng):
        assert unconstrained_optimum(random_trader(rng, cost_family="zero")) == math.inf

    def test_high_cost_tiny_root(self):
        trader = Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(10.0, 2.0))
        oracle = grid_oracle(trader, 1.0, 1e-5)
        i_u = unconstrained_optimum(trader)
        assert i_u == pytest.approx(oracle.i_star, abs=2e-5)
        assert i_u == pytest.approx(0.09128, abs=1e-4)

    def test_root_kills_marginal_utility(self, rng):
        for _ in range(100):
            trader = random_trader(rng)
            i_u = unconstrained_optimum(trader)
            if math.isinf(i_u) or i_u == 0.0:
                continue
            assert abs(marginal_utility(trader, i_u)) <= 1e-6 * (
                trader.gain + trader.loss)


def g(trader, i):
    """The marginal utility: the vectorized kernel at one point."""
    return float(kernels.marginal_utility_grid(i, *agent._kernel_args(trader)))


def h(trader, i):
    """The sign the solver reads, ``kernels.log_marginal_ratio``, at one point, on the
    one-element columns a one-trader solve passes."""
    ((_, args),) = Population.from_traders([trader]).families()
    return kernels.log_marginal_ratio(np.array([i]), *kernels.log_marginal_args(*args)).item()


def assert_sign_change(trader, root):
    """The defining property of a root: h > 0 at it and h <= 0 one float above."""
    assert h(trader, root) > 0.0 >= h(trader, np.nextafter(root, math.inf)), (trader, root)


# g is still positive at 1e300: the success slope outweighs the cost slope up to 3.4e302,
# where the float success slope underflows to 0 (from about 5.4e301 on)
ENDLESS = Trader(1e300, 1e300, ExpSaturating(1e-300), PowerCost(1e-300, 1.5))


class TestSolveRoots:
    def test_sign_change_at_every_root(self, rng):
        traders = [random_trader(rng) for _ in range(400)]
        roots = solve_roots(traders)
        assert roots.shape == (400,) and roots.dtype == np.float64
        for trader, root in zip(traders, roots):
            if isinstance(trader.cost, ZeroCost):
                assert root == math.inf
            elif h(trader, 0.0) <= 0.0:
                assert root == 0.0
            else:
                assert_sign_change(trader, root)

    def test_origin_when_marginal_utility_starts_non_positive(self):
        trader = Trader(1.0, 1.0, ExpSaturating(1.0), ExpGrowthCost(10.0, 2.0))
        assert g(trader, 0.0) <= 0.0
        assert solve_roots([trader])[0] == 0.0

    def test_zero_cost_is_unbounded(self):
        traders = [Trader(1.0, 1.0, success, ZeroCost())
                   for success in (ExpSaturating(1.0), Hyperbolic(1.0))]
        assert solve_roots(traders).tolist() == [math.inf, math.inf]

    def test_exp_growth_cost_near_exp_overflow(self):
        # root near i = 709.5, just below where float64 exp overflows (about 709.78)
        near = Trader(1e300, 1e300, ExpSaturating(1e-3), ExpGrowthCost(7.3e-12, 1.0))
        # root past it, where the float cost slope is +inf and g reads -inf: h, linear in
        # i for an exponential pair, keeps its terms, and its root is C / (1e-3 + 1.0)
        beyond = Trader(1e300, 1e300, ExpSaturating(1e-3), ExpGrowthCost(1e-20, 1.0))
        root_near, root_beyond = solve_roots([near, beyond])
        assert 709.0 < root_near < 709.78
        assert_sign_change(near, root_near)
        assert_sign_change(beyond, root_beyond)
        with mpmath.workdps(40):
            exact = mpmath.log(mpmath.mpf(1e-3) * 2e300 / mpmath.mpf(1e-20)) / (1 + 1e-3)
        assert root_beyond == pytest.approx(float(exact), rel=1e-14)
        assert 729.0 < root_beyond and g(beyond, root_beyond) == -math.inf

    @pytest.mark.parametrize("scale", [1e-12, 1e12])
    @pytest.mark.parametrize("success", [ExpSaturating(1.0), Hyperbolic(1.0)])
    def test_extreme_cost_scales(self, success, scale):
        traders = [Trader(1.0, 1.0, success, PowerCost(scale, 2.0)),
                   Trader(1.0, 1.0, success, ExpGrowthCost(scale, 1.0))]
        for trader, root in zip(traders, solve_roots(traders)):
            if h(trader, 0.0) <= 0.0:
                assert root == 0.0
            else:
                assert 0.0 < root < math.inf
                assert_sign_change(trader, root)

    def test_nan_h_names_the_agent(self, monkeypatch):
        # family pairs go codes ascending, so the first call of h is on agents 1, 3 and 4
        # (exponential saturation) and its entry 2 is agent 4
        power = PowerCost(0.1, 2.0)
        traders = [Trader(1.0, 1.0, Hyperbolic(1.0), power) if k in (0, 2, 5)
                   else Trader(1.0, 1.0, ExpSaturating(1.0), power) for k in range(6)]
        monkeypatch.setattr(kernels, "log_marginal_ratio", nan_log_marginal_ratio_at(2))
        with pytest.raises(NumericRangeError, match="^agent 4: marginal utility is NaN"):
            solve_roots(traders)

    def test_far_root_is_returned(self, reference_trader):
        # the exact root (mpmath, 80 digits), where the float g reads -2.8e-149
        root = solve_roots([reference_trader, ENDLESS])[1]
        assert root == 3.4275693524537867e+302
        assert_sign_change(ENDLESS, root)

    def test_far_root_is_fully_informed(self, reference_trader):
        outcome = run_market(MarketConfig(i_max=2.0, theta=0.5), [reference_trader, ENDLESS])
        assert outcome.regime.tolist() == ["interior", "fully_informed"]
        assert outcome.fraction_informed == 0.5 and outcome.efficient

    def test_sweep_and_quantile_count_a_far_root(self, reference_trader):
        traders, grid = [reference_trader, ENDLESS], [1.0, 2.0, 1e300]
        roots = solve_roots(traders)
        series = sweep_imax(traders, grid, theta=0.5)
        assert [frac for _, frac, _ in series.points] == [np.mean(roots >= c) for c in grid]
        assert [frac for _, frac, _ in series.points] == [1.0, 0.5, 0.5]
        quantile = critical_imax_quantile(traders, 0.5)
        assert quantile == roots[1]
        assert [eff for _, _, eff in series.points] == [c <= quantile for c in grid]

    def test_root_at_the_largest_float(self):
        # g is positive at every finite level and -inf at +inf
        trader = Trader(1e308, 1e-300, ExpSaturating(1e-310), PowerCost(1e-300, 1.05))
        assert g(trader, np.finfo(float).max) > 0.0 > g(trader, math.inf)
        assert solve_roots([trader])[0] == np.finfo(float).max

    def test_batching_cannot_couple_agents(self, rng):
        traders = [random_trader(rng) for _ in range(60)]
        traders += [Trader(1.0, 1.0, ExpSaturating(1.0), ExpGrowthCost(10.0, 2.0)),
                    Trader(1.0, 1.0, Hyperbolic(1.0), PowerCost(1e12, 2.0))]
        traders = [traders[k] for k in rng.permutation(len(traders))]
        together = solve_roots(traders)
        alone = np.array([solve_roots([t])[0] for t in traders])
        assert together.view(np.int64).tolist() == alone.view(np.int64).tolist()

    def test_empty_population(self):
        assert solve_roots([]).shape == (0,)

    def test_columns_equal_trader_list(self, rng):
        traders = [random_trader(rng) for _ in range(300)]
        population = Population.from_traders(traders)
        assert (solve_roots(population).view(np.int64).tolist()
                == solve_roots(list(population)).view(np.int64).tolist())

    def test_scalar_api_agrees_with_the_solver_bitwise(self, rng):
        # a one-trader h must confirm every root the solver found, the scalar
        # marginal_utility must be near 0 there (h's root is a few ulps from the exact
        # one, where g's sign may differ), and expected_utility must be the grid
        # kernel's value at that point
        traders = [random_trader(rng, rng.choice(["power", "exp_growth"])) for _ in range(2000)]
        checked = 0
        for trader, root in zip(traders, solve_roots(traders).tolist()):
            if not 0.0 < root < math.inf:
                continue
            above = math.nextafter(root, math.inf)
            assert_sign_change(trader, root)
            terms = (trader.success.deriv(root) * (trader.gain + trader.loss)
                     + trader.cost.deriv(root))
            assert marginal_utility(trader, root) > -1e-13 * terms, (trader, root)
            assert marginal_utility(trader, above) < 1e-13 * terms, (trader, root)
            for i in (root, above, 2.0 * root):
                assert expected_utility(trader, i) == utility_on_grid(trader, [i])[0], (trader, i)
            checked += 1
        assert checked > 1900


FLOAT_MAX = np.finfo(float).max


@mpmath.workprec(1200)  # holds W + L exactly when gain and loss lie within 1e±150 of 1
def _exact_h(trader, i):
    """log(lambda'(i) * (W + L)) - log xi'(i) at level ``i`` (a float or an mpf) in mpmath:
    a number with the sign of the exact marginal utility g."""
    x, success, cost = mpmath.mpf(i), trader.success, trader.cost
    if isinstance(success, ExpSaturating):
        log_lam_d = mpmath.log(success.rate) - success.rate * x
    else:
        log_lam_d = mpmath.log(success.half_saturation) - 2 * mpmath.log(x + success.half_saturation)
    if isinstance(cost, PowerCost):
        log_cost_d = mpmath.log(cost.exponent) + (mpmath.mpf(cost.exponent) - 1) * mpmath.log(x)
    else:
        log_cost_d = mpmath.log(cost.rate) + cost.rate * x
    return (log_lam_d + mpmath.log(mpmath.mpf(trader.gain) + trader.loss)
            - mpmath.log(cost.scale) - log_cost_d)


def _h_slope(trader, i):
    """-dh/di at level i: ``rate`` or ``2 / (i + half_saturation)``, plus
    ``(exponent - 1) / i`` or ``rate``."""
    success, cost = trader.success, trader.cost
    a = success.rate if isinstance(success, ExpSaturating) else 2.0 / (i + success.half_saturation)
    if isinstance(cost, PowerCost):
        return a + ((cost.exponent - 1.0) / i if i else math.inf)
    return a + cost.rate


# parameters log-uniform over 300 decades of the accepted domain, exponents up to 1e10
DOMAIN_TRADERS = st.builds(
    Trader, log_uniform(-150, 150), log_uniform(-150, 150),
    st.one_of(st.builds(ExpSaturating, log_uniform(-150, 150)),
              st.builds(Hyperbolic, log_uniform(-150, 150))),
    st.one_of(st.builds(PowerCost, log_uniform(-150, 150),
                        log_uniform(-6, 10).map(lambda e: 1.0 + e)),
              st.builds(ExpGrowthCost, log_uniform(-150, 150), log_uniform(-150, 150))))


class TestRootsOverTheAcceptedDomain:
    @settings(max_examples=200, deadline=None)
    @given(trader=DOMAIN_TRADERS)
    # the float hyperbolic slope overflowed in (i + k) ** 2: root 0.0, exact 1.12e184
    @example(trader=Trader(1.0, 1.0, Hyperbolic(1e160), PowerCost(1e-300, 1.5)))
    # both float terms of g underflowed to 0: root 3.12e-7, exact 1.30e-6
    @example(trader=Trader(928812537562608.5, 2.8004041573052327e27,
                           ExpSaturating(2384572823.5708094),
                           PowerCost(6.393308899820878e-35, 217.65628483354897)))
    # scale * rate underflowed to 0: root 745.13, exact about 497
    @example(trader=Trader(1.0, 1.0, ExpSaturating(1.0), ExpGrowthCost(5e-324, 0.5)))
    # scale * exponent overflowed to +inf, and inf * 0 = NaN: root 0, exact 0.99999993
    @example(trader=Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(1e300, 1e10)))
    @example(trader=ENDLESS)
    def test_roots_match_mpmath(self, trader):
        # the exact root is the largest float where the exact g is positive; it must lie
        # within 1e-12 relative of the solver's.  h's rounding error is a few ulps of its
        # terms.  Those that grow with i move the root by a relative few ulps of log i;
        # the level-free logs and 2 log(i + k), each at most about 1,420 on this domain,
        # by at most 2e-12 over |dh/di|, which is more where h is flat.  A subnormal root
        # may be two floats off
        root = solve_roots([trader]).item()
        if _exact_h(trader, 5e-324) <= 0:  # the exact root is 0
            assert root == 0.0
            return
        tol = max(1e-12 * root, 2e-12 / _h_slope(trader, root), 2.0 * math.ulp(root))
        lo, hi = mpmath.mpf(root) - tol, mpmath.mpf(root) + tol
        assert _exact_h(trader, max(lo, 0)) > 0, (trader, root)
        assert hi >= FLOAT_MAX or _exact_h(trader, hi) <= 0, (trader, root)


def _reference_sign_change(h, agents):
    """The largest float with ``h > 0`` for the traders ``agents``, by a ``while``/``np.where``
    bisection loop: the bit-exact reference of ``solve_roots``'s walk."""
    hi = np.ones(len(agents))
    while True:
        up = h(hi) > 0.0
        if not up.any():
            break
        hi[up] *= 2.0
        if hi.max() > 1e300:
            raise NumericRangeError(f"agent {agents[np.argmax(hi)]}: bracket expansion "
                                    "overflowed while locating the optimum")
    lo = np.where(hi > 1.0, hi / 2.0, 0.0).view(np.int64)
    hi = hi.view(np.int64)
    while (hi - lo > 1).any():
        mid = lo + (hi - lo) // 2
        up = h(mid.view(np.float64)) > 0.0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return lo.view(np.float64)


def _solve_counting(population):
    """``solve_roots``'s roots of ``population`` as int64 bit patterns, and how often it
    evaluated h."""
    calls = []
    log_marginal_ratio = kernels.log_marginal_ratio

    def counting(*args):
        calls.append(None)
        return log_marginal_ratio(*args)

    with mock.patch.object(kernels, "log_marginal_ratio", counting):
        roots = solve_roots(population)
    assert len(calls) > 0
    return roots.view(np.int64).tolist(), len(calls)


_COSTLY_TRADERS = st.lists(st.builds(
    Trader, st.floats(0.1, 10.0), st.floats(0.1, 10.0),
    st.one_of(st.builds(ExpSaturating, log_uniform(-2, 2)),
              st.builds(Hyperbolic, log_uniform(-2, 2))),
    st.one_of(st.builds(PowerCost, log_uniform(-3, 3), st.floats(1.1, 3.5)),
              st.builds(ExpGrowthCost, log_uniform(-3, 3), log_uniform(-2, 1)))),
    min_size=1, max_size=16)

# one column with g(0) <= 0, whose bisection goes down at every step
_CORNER = Trader(1.0, 1.0, ExpSaturating(1.0), ExpGrowthCost(10.0, 2.0))
# roots above 1, below 1, and g(0) <= 0, within and across family pairs
_MIXED = [Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(0.1, 2.0)),
          Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(100.0, 2.0)),
          Trader(2.0, 1.0, Hyperbolic(0.5), ExpGrowthCost(0.01, 0.5)), _CORNER,
          Trader(1.0, 3.0, Hyperbolic(2.0), ExpGrowthCost(50.0, 1.0))]


class TestBisectionEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(traders=st.one_of(_COSTLY_TRADERS, WIDE_TRADERS),
           multipliers=st.sampled_from([(1.0,), (0.01, 1.0, 100.0)]))
    @example(traders=[_CORNER], multipliers=(1.0,))
    @example(traders=[Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(0.1, 2.0))],
             multipliers=(1.0,))
    @example(traders=_MIXED, multipliers=(0.01, 1.0, 100.0))
    def test_roots_equal_the_while_loop_in_63_g_calls(self, traders, multipliers):
        population = Population.from_traders(traders).scaled(multipliers)
        roots, calls = _solve_counting(population)
        assert calls == 63 * len(list(population.families()))  # one per bit below the sign
        reference = np.empty(len(population))
        for agents, args in population.families():  # every trader here is costly
            h_args = kernels.log_marginal_args(*args)
            reference[agents] = _reference_sign_change(
                lambda i: kernels.log_marginal_ratio(i, *h_args), agents)
        assert roots == reference.view(np.int64).tolist()


class TestOptimizeInformation:
    def test_zero_cost_corner(self, rng):
        for i_max in (1e-9, 0.5, 10.0):
            trader = random_trader(rng, cost_family="zero")
            out = optimize_information(trader, i_max)
            assert out.i_star == i_max
            assert out.regime is Regime.FULLY_INFORMED
            assert out.fully_informed

    def test_reference_interior(self, reference_trader):
        out = optimize_information(reference_trader, 5.0)
        assert out.regime is Regime.INTERIOR
        assert out.i_star == pytest.approx(1.7455, abs=1e-3)
        assert not out.fully_informed

    def test_reference_constrained_corner(self, reference_trader):
        # i_u ~ 1.7455 > 1, so utility is increasing on [0, 1]
        out = optimize_information(reference_trader, 1.0)
        assert out.i_star == 1.0
        assert out.regime is Regime.FULLY_INFORMED
        grid = np.linspace(0.0, 1.0, 101)
        util = utility_on_grid(reference_trader, grid)
        assert np.all(np.diff(util) > 0)

    def test_bad_i_max(self, reference_trader):
        with pytest.raises(ParameterError):
            optimize_information(reference_trader, 0.0)

    def test_constrain_clamps_each_root(self, reference_trader):
        i_u = np.array([-1.0, -0.0, 0.5, 2.0, math.inf, math.nan])
        population = Population.from_traders([reference_trader] * len(i_u))
        i_star, _, regime = agent.constrain(population, 2.0, i_u)
        assert i_star[:5].tolist() == [0.0, 0.0, 0.5, 2.0, 2.0] and not np.signbit(i_star[1])
        assert math.isnan(i_star[5])  # a NaN root stays NaN, and interior
        assert regime.tolist() == ["corner_zero", "corner_zero", "interior", "fully_informed",
                                   "fully_informed", "interior"]

    def test_dominates_every_grid_point(self, rng):
        for _ in range(50):
            trader = random_trader(rng)
            i_max = rng.uniform(0.5, 10.0)
            out = optimize_information(trader, i_max)
            assert 0.0 <= out.i_star <= i_max
            grid = np.linspace(0.0, i_max, 200)
            util = utility_on_grid(trader, grid)
            assert out.u_star >= util.max() - 1e-9


def _reference_information_grid(i_max, step):
    """``information_grid`` built whole, then its last point set: the bit-exact reference."""
    n = int(math.floor(i_max / step + 1e-9))
    grid = step * np.arange(n + 1, dtype=np.float64)
    if grid[-1] < i_max - 1e-12 * max(1.0, i_max):
        grid = np.append(grid, i_max)
    else:
        grid[-1] = i_max
    return grid


def _reference_grid_oracles(traders, i_max, step):
    """The full-grid loop of ``grid_oracles``, with one ``log`` of the whole grid: the
    bit-exact reference."""
    agent.check_i_max(i_max)
    if not (0 < step <= i_max):
        raise ParameterError(f"step must satisfy 0 < step <= i_max, got {step!r}")
    population = Population.from_traders(traders)
    grid = _reference_information_grid(i_max, step)
    with np.errstate(divide="ignore"):  # log 0 is -inf, where a power cost is 0
        log_grid = np.log(grid)
    out = np.empty_like(grid), np.empty_like(grid)
    best, u_star = np.empty(len(population), dtype=np.intp), np.empty(len(population))
    rows = zip(*(getattr(population, f.name).tolist() for f in fields(population)))
    for k, (gain, loss, *curves) in enumerate(rows):  # curves: codes and params, in kernel order
        util = kernels.utility_grid(grid, *curves, gain, loss, out=out, log_grid=log_grid)
        best[k] = np.argmax(util)  # argmax returns the first maximizer
        u_star[k] = util[best[k]]
    # the first grid point is the corner 0, the last (i_max) fully informed
    regime = np.where(best == 0, Regime.CORNER_ZERO.value, np.where(
        best == len(grid) - 1, Regime.FULLY_INFORMED.value, Regime.INTERIOR.value))
    return grid[best], u_star, regime


def _oracle_calls(traders, i_max, step):
    """``grid_oracles``'s columns, the shape of each of its kernel calls' values, and the
    length of each run of grid points that it builds."""
    shapes, built = [], []
    utility_grid, grid_points = kernels.utility_grid, agent._grid_points

    def recording(grid, *args, **kwargs):
        util = utility_grid(grid, *args, **kwargs)
        shapes.append(util.shape)
        return util

    def building(*args):
        points = grid_points(*args)
        built.append(len(points))
        return points

    with (mock.patch.object(kernels, "utility_grid", recording),
          mock.patch.object(agent, "_grid_points", building)):
        columns = grid_oracles(traders, i_max, step)
    return columns, shapes, built


def _oracle_points(traders, i_max, step):
    """``grid_oracles``'s columns, and how many points its kernel calls evaluated: a 2-D
    call counts its grid times its rows."""
    columns, shapes, _ = _oracle_calls(traders, i_max, step)
    return columns, sum(math.prod(shape) for shape in shapes)


def _scan_size(i_max, step):
    """How many points the oracle's scan evaluates: every ``ORACLE_SCAN_STRIDE``-th and the
    last, i_max, all built by one ``_grid_points`` call."""
    return len(range(agent._grid_size(i_max, step) - 1)[::agent.ORACLE_SCAN_STRIDE]) + 1


def _oracle_bits(columns):
    i_star, u_star, regime = columns
    return i_star.view(np.int64).tolist(), u_star.view(np.int64).tolist(), regime.tolist()


# gains and losses up to the overflow edge, where 2 * (gain + loss) is not finite
_PAYOFFS = st.one_of(log_uniform(-2, 2), st.floats(1e307, 8.9e307))
_ANY_TRADERS = st.lists(st.builds(
    Trader, _PAYOFFS, _PAYOFFS,
    st.one_of(st.builds(ExpSaturating, log_uniform(-2, 2)),
              st.builds(Hyperbolic, log_uniform(-2, 2))),
    st.one_of(st.builds(PowerCost, log_uniform(-6, 3), st.floats(1.05, 4.0)),
              st.builds(ExpGrowthCost, log_uniform(-6, 3), log_uniform(-2, 1)),
              st.just(ZeroCost()))),
    min_size=1, max_size=12)
# optima at 0 (_CORNER), interior and at i_max, and a 2 * (W + L) that overflows; the
# second interior optimum costs 0.7 with W + L = 2, near the (W + L) / e that bounds the cost
# at any optimum, so a prefix cut where the cost first exceeds (W + L) / 4 would miss it
_OPTIMA = [_CORNER, Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(0.1, 2.0)),
           Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(0.7, 1.05)),
           Trader(1.0, 3.0, Hyperbolic(2.0), ZeroCost()),
           Trader(2.0, 1.0, Hyperbolic(0.5), ExpGrowthCost(1e-6, 0.5)),
           Trader(8e307, 8e307, ExpSaturating(1.0), PowerCost(1e300, 3.0))]


class TestGridOracle:
    def test_zero_cost_monotone(self):
        trader = Trader(1.0, 1.0, ExpSaturating(1.0), ZeroCost())
        out = grid_oracle(trader, 10.0, 0.01)
        assert out.i_star == pytest.approx(10.0)
        assert out.fully_informed

    def test_reference_bracket(self, reference_trader):
        out = grid_oracle(reference_trader, 5.0, 1e-4)
        assert 1.7450 <= out.i_star <= 1.7460

    def test_two_point_grid(self, reference_trader):
        out = grid_oracle(reference_trader, 0.5, 0.5)
        assert out.i_star in (0.0, 0.5)

    @pytest.mark.parametrize("i_max", [math.inf, math.nan, 0.0, -1.0])
    def test_i_max_validation(self, reference_trader, i_max):
        with pytest.raises(ParameterError, match="i_max"):
            grid_oracle(reference_trader, i_max, 1.0)

    def test_step_validation(self, reference_trader):
        with pytest.raises(ParameterError):
            grid_oracle(reference_trader, 1.0, 2.0)
        with pytest.raises(ParameterError):
            grid_oracle(reference_trader, 1.0, 0.0)

    @pytest.mark.parametrize("i_max, step, field", [
        (1.0, -0.5, "step"), (-1.0, 0.1, "i_max"), (1.0, 0.0, "step"), (math.nan, 0.1, "i_max"),
        (1.0, 2.0, "step"), (1e308, 1e-3, "step"), (1.0, math.nan, "step")])
    def test_information_grid_checks_its_arguments(self, i_max, step, field):
        with pytest.raises(ParameterError, match=f"^{field} must"):
            information_grid(i_max, step)

    def test_grid_is_checked_before_any_trader_is_read(self, reference_trader):
        # 1e308 / 1e-3 overflows: the grid's length would be infinite
        with pytest.raises(ParameterError, match="finite i_max / step"):
            grid_oracles([reference_trader], 1e308, 1e-3)
        with pytest.raises(ParameterError, match="step must"):
            grid_oracles(["not a trader"], 1.0, 2.0)

    def test_grid_has_a_point_budget(self, reference_trader):
        # 9999.999 / 1e-3 steps give MAX_GRID_POINTS points and 1e4 / 1e-3 one more, counted
        # without building any
        assert agent._grid_size(9999.999, 1e-3) == agent.MAX_GRID_POINTS
        for call in (information_grid, lambda *grid: grid_oracles([reference_trader], *grid)):
            tracemalloc.start()
            try:
                with pytest.raises(ParameterError, match=r"^step must .* at most 10000000 grid "
                                   r"points, got step 0\.001 for i_max 10000\.0$"):
                    call(1e4, 1e-3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1e6

    def test_population_form_is_each_traders_argmax(self, rng):
        traders = [random_trader(rng, family) for family in ("power", "exp_growth", "zero")
                   for _ in range(10)]
        grid = information_grid(8.0, 1e-3)
        columns = grid_oracles(traders, 8.0, 1e-3)
        for trader, i_star, u_star, regime in zip(traders, *columns):
            util = utility_on_grid(trader, grid)
            best = int(np.argmax(util))
            assert (i_star, u_star) == (grid[best], util[best]), trader
            out = grid_oracle(trader, 8.0, 1e-3)
            assert (i_star, u_star, regime) == (out.i_star, out.u_star, out.regime.value)

    def test_grid_is_inclusive(self, reference_trader):
        grid = information_grid(1.0, 0.3)
        assert grid[0] == 0.0
        assert grid[-1] == 1.0
        grid = information_grid(1.0, 0.25)
        assert len(grid) == 5 and grid[-1] == 1.0
        # step * n = 0.375 lies within rounding of i_max, just below it
        i_max = 0.3750000000000001
        assert information_grid(i_max, 1e-3)[-1] == i_max
        out = grid_oracle(reference_trader, i_max, 1e-3)
        assert out.regime is Regime.FULLY_INFORMED and out.i_star == i_max


class TestGridPoints:
    @settings(max_examples=300, deadline=None)
    @given(grid=st.builds(lambda step, n, past: (step * (n + past), step), log_uniform(-4, 1),
                          st.integers(1, 5000), st.just(0.0) | st.floats(0.0, 1.0)),
           index=st.builds(slice, st.none() | st.integers(-6000, 6000),
                           st.none() | st.integers(-6000, 6000),
                           st.none() | st.integers(1, 600) | st.integers(-600, -1)))
    # step * 375 = 0.375 is within rounding of i_max: i_max replaces the last point
    @example(grid=(0.3750000000000001, 1e-3), index=slice(119, None, 256))
    @example(grid=(1.0, 0.3), index=slice(None, None, 2))  # 0.9 < 1: i_max is appended
    def test_equal_the_whole_grid_bitwise(self, grid, index):
        i_max, step = grid
        whole = _reference_information_grid(i_max, step)
        assert agent._grid_size(i_max, step) == len(whole)
        k = np.arange(len(whole))[index]
        assert agent._grid_points(i_max, step, k).view(np.int64).tolist() == (
            whole[index].view(np.int64).tolist())
        assert information_grid(i_max, step).view(np.int64).tolist() == (
            whole.view(np.int64).tolist())


class TestGridOraclePrefix:
    @settings(max_examples=200, deadline=None)
    @given(traders=_ANY_TRADERS, i_max=log_uniform(math.log10(0.05), math.log10(400.0)),
           n_steps=st.one_of(st.integers(1, 300), st.integers(300, 20_000)))
    @example(traders=_OPTIMA, i_max=5.0, n_steps=5000)
    @example(traders=_OPTIMA, i_max=100.0, n_steps=100_000)
    @example(traders=_OPTIMA, i_max=0.5, n_steps=255)  # shorter than the scan stride
    @example(traders=_OPTIMA, i_max=0.5, n_steps=1)
    # W - (W + L) * (1 - lambda) rounds to W at some grid points before others
    @example(traders=[Trader(1e307, 1.0, ExpSaturating(10**1.5), PowerCost(1.0, 2.0))],
             i_max=10**0.25, n_steps=512)
    def test_equals_the_full_grid_loop(self, traders, i_max, n_steps):
        step = i_max / n_steps
        assert _oracle_bits(grid_oracles(traders, i_max, step)) == _oracle_bits(
            _reference_grid_oracles(traders, i_max, step))

    def test_skips_costs_above_the_stake(self):
        # the optimum 1.33 has utility 0.24; the cost 0.1 * i**3 passes 1 - 0.24 at 1.97
        trader = Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(0.1, 3.0))
        grid = information_grid(100.0, 1e-3)
        columns, points = _oracle_points([trader], 100.0, 1e-3)
        assert 0 < points < 0.03 * len(grid)
        assert _oracle_bits(columns) == _oracle_bits(_reference_grid_oracles([trader], 100.0, 1e-3))

    def test_cuts_after_an_incumbent_at_the_gain(self):
        # W - (W + L) * (1 - lambda) rounds to W = 1e307 from i = 1.17 on, and every later cost
        # exceeds W - W = 0: the cut must still come after the first scan point at W
        trader = Trader(1e307, 1.0, ExpSaturating(10**1.5), PowerCost(1.0, 2.0))
        columns, points = _oracle_points([trader], 100.0, 1e-3)
        assert points < 0.03 * len(information_grid(100.0, 1e-3))
        assert _oracle_bits(columns) == _oracle_bits(_reference_grid_oracles([trader], 100.0, 1e-3))

    @pytest.mark.parametrize("trader", [
        Trader(1.0, 1.0, ExpSaturating(1.0), ZeroCost()),
        # the marginal utility 2 * exp(-5) - 2e-6 * 5 is still positive at i_max 5
        Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(1e-6, 2.0))],
        ids=["zero_cost", "rising_at_i_max"])
    def test_last_block_when_nothing_follows_the_best_scan_point(self, trader):
        columns, shapes, built = _oracle_calls([trader], 5.0, 1e-3)
        scan, size = _scan_size(5.0, 1e-3), agent._grid_size(5.0, 1e-3)
        tail = (size - 1) % agent.ORACLE_SCAN_STRIDE  # the points after the last multiple
        assert shapes == [(1, scan), (tail,)]  # the scan, then the block that i_max ends
        assert built == [scan, size]  # the grid is built up to the window's stop
        assert columns[2].tolist() == [Regime.FULLY_INFORMED.value]
        assert _oracle_bits(columns) == _oracle_bits(_reference_grid_oracles([trader], 5.0, 1e-3))

    def test_builds_the_grid_up_to_the_longest_prefix(self, rng):
        traders = [random_trader(rng, family) for family in ("power", "exp_growth")
                   for _ in range(10)] + _OPTIMA[:3]
        columns, shapes, built = _oracle_calls(traders, 100.0, 1e-3)
        start, stop, _ = agent._oracle_windows(Population.from_traders(traders), 100.0, 1e-3)
        windows = [shape[0] for shape in shapes if len(shape) == 1]
        assert windows == (stop - start).tolist()  # every window is proved
        assert built == [_scan_size(100.0, 1e-3), stop.max()]
        assert stop.max() < 0.1 * agent._grid_size(100.0, 1e-3)
        assert _oracle_bits(columns) == _oracle_bits(_reference_grid_oracles(traders, 100.0, 1e-3))

    def test_peak_memory_of_an_agent_cli_population(self):
        # the population of the benchmark's agent_cli workload: the grid has 100,001 points,
        # but only the prefix up to the largest window's end is built, 11,521 points at seed
        # 7, and the peak read 1.53 MB
        population = sample_population(PopulationSpec(
            n_agents=200, gain=(0.5, 2.0), loss=(0.5, 2.0), success_family="exp_saturating",
            success_param=(0.2, 2.0), cost_family="power", cost_scale=(0.001, 0.1),
            cost_shape=(1.5, 3.0), master_seed=7))
        tracemalloc.start()
        try:
            grid_oracles(population, 100.0, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    @pytest.mark.parametrize("cut", ["first_point_bound_0", "quarter_limit"])
    def test_unproven_cut_takes_the_whole_grid(self, rng, cut):
        traders = [random_trader(rng, family) for family in ("power", "exp_growth")
                   for _ in range(10)] + _OPTIMA

        windows = agent._oracle_windows

        def one_point(population, i_max, step):  # point 0, with an incumbent nothing reaches
            n = len(population)
            return np.zeros(n, dtype=np.intp), np.ones(n, dtype=np.intp), np.full(n, math.inf)

        def raised(population, i_max, step):  # the incumbent 3/4 of the way up to W
            start, stop, u_s = windows(population, i_max, step)
            return start, stop, np.maximum(u_s, 0.75 * population.gain + 0.25 * u_s)

        forced = one_point if cut == "first_point_bound_0" else raised
        with mock.patch.object(agent, "_oracle_windows", forced):
            columns, shapes, built = _oracle_calls(traders, 8.0, 1e-3)
        fallbacks = sum(len(shape) == 1 for shape in shapes) - len(traders)
        if cut == "first_point_bound_0":
            assert fallbacks == len(traders)
            # the one-point window, then the whole grid once, on the first fallback
            assert built == [1, agent._grid_size(8.0, 1e-3)]
        else:
            assert fallbacks > len(traders) // 2
        assert _oracle_bits(columns) == _oracle_bits(_reference_grid_oracles(traders, 8.0, 1e-3))

    @pytest.mark.parametrize("traders, i_max, step, lo, hi", [
        # the optimum 99.9 lies after the last stride multiple, 99.84: the scan's last point,
        # i_max, bounds its block
        ([Trader(1.0, 1.0, ExpSaturating(0.01), PowerCost(math.exp(-0.999) / 9990, 2.0))],
         100.0, 1e-3, 99.84, 100.0),
        # 512 steps: the last grid point is a stride multiple, and no scan point is appended
        (_OPTIMA, 0.5, 2.0**-10, 0.0, 0.5),
        # the optimum 0.25 lies before the best scan point, 0.256, in the block that ends there
        ([Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(4.0 * math.exp(-0.25), 2.0))],
         5.0, 1e-3, 0.249, 0.251),
        ([_CORNER], 5.0, 1e-3, 0.0, 0.0)],
        ids=["maximum_in_the_tail", "no_appended_scan_point", "maximum_before_the_best_scan_point",
             "corner"])
    def test_windows_at_the_edges_of_the_blocks(self, traders, i_max, step, lo, hi):
        columns, shapes, _ = _oracle_calls(traders, i_max, step)
        assert {shape[1] for shape in shapes if len(shape) == 2} == {_scan_size(i_max, step)}
        assert all(lo <= i_star <= hi for i_star in columns[0])
        assert _oracle_bits(columns) == _oracle_bits(_reference_grid_oracles(traders, i_max, step))

    def test_empty_population(self):
        assert [column.tolist() for column in grid_oracles([], 1.0, 0.1)] == [[], [], []]

    def test_kernel_points_of_an_agent_cli_population(self):
        # the windows of the agent_cli population at seed 7 hold 239,872 points, where the
        # prefixes before them held 719,872; the count is exact, so it repeats
        population = sample_population(PopulationSpec(
            n_agents=200, gain=(0.5, 2.0), loss=(0.5, 2.0), success_family="exp_saturating",
            success_param=(0.2, 2.0), cost_family="power", cost_scale=(0.001, 0.1),
            cost_shape=(1.5, 3.0), master_seed=7))
        counts = set()
        for _ in range(2):
            _, shapes, _ = _oracle_calls(population, 100.0, 1e-3)
            counts.add(sum(shape[0] for shape in shapes if len(shape) == 1))
        assert len(counts) == 1 and counts.pop() <= 250_000


class TestProperties:
    def test_oracle_equivalence(self, rng):
        step = 1e-3
        for _ in range(100):
            # zero-cost excluded: saturated success curves plateau in float,
            # leaving the argmax location (not the value) ill-defined
            trader = random_trader(rng, cost_family="power" if rng.random() < 0.5
                                   else "exp_growth")
            i_max = rng.uniform(0.1, 20.0)
            opt = optimize_information(trader, i_max)
            orc = grid_oracle(trader, i_max, step)
            assert abs(opt.i_star - orc.i_star) <= step + 1e-6
            local = max(
                abs(expected_utility(trader, min(opt.i_star + step, i_max)) - opt.u_star),
                abs(expected_utility(trader, max(opt.i_star - step, 0.0)) - opt.u_star),
            )
            assert orc.u_star <= opt.u_star + local + 1e-9

    def test_cost_scale_comparative_statics(self, rng):
        for _ in range(100):
            trader = random_trader(rng, cost_family="power")
            i_max = rng.uniform(0.5, 10.0)
            base = optimize_information(trader, i_max)
            costlier = Trader(trader.gain, trader.loss, trader.success,
                              trader.cost.scaled(rng.uniform(1.5, 10.0)))
            assert optimize_information(costlier, i_max).i_star <= base.i_star + 1e-7

    def test_payoff_scale_comparative_statics(self, rng):
        for _ in range(100):
            trader = random_trader(rng, cost_family="power")
            i_max = rng.uniform(0.5, 10.0)
            base = optimize_information(trader, i_max)
            tau = rng.uniform(1.5, 10.0)
            richer = Trader(tau * trader.gain, tau * trader.loss, trader.success, trader.cost)
            assert optimize_information(richer, i_max).i_star >= base.i_star - 1e-7

    def test_asymptotic_overload(self, rng):
        for _ in range(30):
            trader = random_trader(rng)
            if isinstance(trader.cost, ZeroCost):
                continue
            utils = [expected_utility(trader, float(2**k)) for k in range(21)]
            # eventually strictly decreasing (float may bottom out at -inf)
            assert all(b < a or b == -math.inf for a, b in zip(utils[-5:], utils[-4:]))
            # ... and below any fixed bound by the end of the doubling run
            assert utils[-1] < -1e6
