import math

import numpy as np
import pytest

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
    unconstrained_optimum,
)
from infoload import Population, kernels
from infoload.agent import information_grid, solve_roots, utility_on_grid
from infoload.errors import NumericRangeError, ParameterError

from conftest import random_trader


class TestTrader:
    def test_gain_plus_loss_must_be_finite(self):
        # W + L = inf would make the marginal utility 0 * inf = nan past the slope's underflow
        with pytest.raises(ParameterError, match="gain \\+ loss"):
            Trader(1e308, 1e308, ExpSaturating(1.0), PowerCost(1.0, 2.0))
        assert Trader(1e308, 7e307, ExpSaturating(1.0), PowerCost(1.0, 2.0)).gain == 1e308


class TestPopulation:
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
        trader = Trader(1.0, 1.0, ExpSaturating(1.0), ZeroCost())
        assert expected_utility(trader, 1.0) == pytest.approx(0.26424, abs=1e-5)
        for _ in range(100):
            t = random_trader(rng, cost_family="zero")
            i = rng.uniform(0.0, 20.0)
            assert expected_utility(t, i) == expected_return(t.success.value(i), t.gain, t.loss)


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
    """The marginal utility the solver uses: the vectorized kernel at one point."""
    return float(kernels.marginal_utility_grid(i, *trader.success.kernel_code(),
                                               *trader.cost.kernel_code(),
                                               trader.gain, trader.loss))


def assert_sign_change(trader, root):
    """The defining property of a root: g > 0 at it and g <= 0 one float above."""
    assert g(trader, root) > 0.0 >= g(trader, np.nextafter(root, math.inf)), (trader, root)


class TestSolveRoots:
    def test_sign_change_at_every_root(self, rng):
        traders = [random_trader(rng) for _ in range(400)]
        roots = solve_roots(traders)
        assert roots.shape == (400,) and roots.dtype == np.float64
        for trader, root in zip(traders, roots):
            if isinstance(trader.cost, ZeroCost):
                assert root == math.inf
            elif g(trader, 0.0) <= 0.0:
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
        # g stays positive until the cost derivative overflows to +inf
        beyond = Trader(1e300, 1e300, ExpSaturating(1e-3), ExpGrowthCost(1e-20, 1.0))
        root_near, root_beyond = solve_roots([near, beyond])
        assert 709.0 < root_near < 709.78
        assert_sign_change(near, root_near)
        assert_sign_change(beyond, root_beyond)
        with np.errstate(over="ignore"):
            assert np.isfinite(np.exp(root_beyond))
            assert np.isinf(np.exp(np.nextafter(root_beyond, math.inf)))

    @pytest.mark.parametrize("scale", [1e-12, 1e12])
    @pytest.mark.parametrize("success", [ExpSaturating(1.0), Hyperbolic(1.0)])
    def test_extreme_cost_scales(self, success, scale):
        traders = [Trader(1.0, 1.0, success, PowerCost(scale, 2.0)),
                   Trader(1.0, 1.0, success, ExpGrowthCost(scale, 1.0))]
        for trader, root in zip(traders, solve_roots(traders)):
            if g(trader, 0.0) <= 0.0:
                assert root == 0.0
            else:
                assert 0.0 < root < math.inf
                assert_sign_change(trader, root)

    def test_bracket_overflow_names_the_agent(self, reference_trader):
        # g is still positive at 2**996: the success slope outweighs the cost slope
        endless = Trader(1e300, 1e300, ExpSaturating(1e-300), PowerCost(1e-300, 1.5))
        assert g(endless, 2.0**996) > 0.0
        with pytest.raises(NumericRangeError, match="agent 1: bracket expansion overflowed"):
            solve_roots([reference_trader, endless])

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
        # the scalar marginal_utility must confirm every root the solver found,
        # and expected_utility must be the grid kernel's value at that point
        traders = [random_trader(rng, rng.choice(["power", "exp_growth"])) for _ in range(2000)]
        checked = 0
        for trader, root in zip(traders, solve_roots(traders).tolist()):
            if not 0.0 < root < math.inf:
                continue
            above = math.nextafter(root, math.inf)
            assert marginal_utility(trader, root) > 0.0 >= marginal_utility(trader, above), (
                trader, root)
            for i in (root, above, 2.0 * root):
                assert expected_utility(trader, i) == utility_on_grid(trader, [i])[0], (trader, i)
            checked += 1
        assert checked > 1900


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

    def test_dominates_every_grid_point(self, rng):
        for _ in range(50):
            trader = random_trader(rng)
            i_max = rng.uniform(0.5, 10.0)
            out = optimize_information(trader, i_max)
            assert 0.0 <= out.i_star <= i_max
            grid = np.linspace(0.0, i_max, 200)
            util = utility_on_grid(trader, grid)
            assert out.u_star >= util.max() - 1e-9


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

    def test_grid_is_inclusive(self):
        grid = information_grid(1.0, 0.3)
        assert grid[0] == 0.0
        assert grid[-1] == 1.0
        grid = information_grid(1.0, 0.25)
        assert len(grid) == 5 and grid[-1] == 1.0


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
