import math
import re
import warnings
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

import infoload.market
from infoload import (
    ExpGrowthCost,
    ExpSaturating,
    Hyperbolic,
    MarketConfig,
    MarketOutcome,
    Population,
    PopulationSpec,
    PowerCost,
    Regime,
    ReturnModel,
    Trader,
    ZeroCost,
    check_conjecture1,
    check_conjecture2,
    check_conjecture3,
    expected_utility,
    run_market,
    sample_population,
    simulate_muthian_returns,
)
from infoload.errors import ConfigError, ParameterError, PreconditionError
from infoload.agent import solve_roots
from infoload.market import MAX_AGENTS, ConjectureVerdict, _keyed_uniforms

from conftest import random_trader


def make_spec(**overrides):
    base = dict(
        n_agents=100,
        gain=(0.5, 2.0),
        loss=(0.5, 2.0),
        success_family="exp_saturating",
        success_param=(0.5, 2.0),
        cost_family="power",
        cost_scale=(0.01, 1.0),
        cost_shape=(1.5, 3.0),
        master_seed=7,
    )
    base.update(overrides)
    return PopulationSpec(**base)


def mixed_population(n=100):
    low = Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(0.001, 2.0))
    high = Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(10.0, 2.0))
    return [low] * (n // 2) + [high] * (n - n // 2)


class TestPopulationSpec:
    def test_degenerate_interval_rejected(self):
        with pytest.raises(ConfigError):
            make_spec(gain=(2.0, 1.0))

    def test_nonpositive_lower_bound_rejected(self):
        with pytest.raises(ConfigError):
            make_spec(loss=(0.0, 1.0))

    def test_power_exponent_must_exceed_one(self):
        with pytest.raises(ConfigError, match="convexity"):
            make_spec(cost_shape=(1.0, 2.0))

    def test_gain_plus_loss_must_be_finite(self):
        with pytest.raises(ConfigError, match="population.loss"):
            make_spec(gain=(0.5, 1e308), loss=(0.5, 1e308))

    def test_n_agents_positive(self):
        with pytest.raises(ConfigError):
            make_spec(n_agents=0)

    @pytest.mark.parametrize("overrides,field", [
        ({"n_agents": 2.5}, "population.n_agents"),
        ({"n_agents": 100.0}, "population.n_agents"),
        ({"n_agents": True}, "population.n_agents"),
        ({"master_seed": 1.5}, "population.master_seed"),
        ({"master_seed": True}, "population.master_seed"),
        ({"master_seed": -1}, "population.master_seed"),
        ({"master_seed": 2**64}, "population.master_seed"),
    ])
    def test_counts_and_seeds_must_be_integers(self, overrides, field):
        with pytest.raises(ConfigError, match=f"^{field}: must be an integer"):
            make_spec(**overrides)

    def test_numpy_integers_accepted(self):
        assert make_spec(n_agents=np.int64(5), master_seed=np.uint64(2**64 - 1)).n_agents == 5

    @pytest.mark.parametrize("seed", [np.uint64(7), np.int64(7), np.uint64(2**64 - 1),
                                      np.int64(2**40 + 3)])
    def test_numpy_integer_seed_samples_as_its_int(self, seed):
        spec = make_spec(n_agents=np.int64(40), master_seed=seed)
        assert type(spec.master_seed) is int and type(spec.n_agents) is int
        traders = list(sample_population(spec))
        assert traders == list(sample_population(make_spec(n_agents=40, master_seed=int(seed))))
        assert traders == reference_population(spec)

    @pytest.mark.parametrize("overrides,field", [
        ({"cost_shape": (1.5, math.inf)}, "population.cost.params.exponent"),
        ({"cost_shape": (math.nan, 2.0)}, "population.cost.params.exponent"),
        ({"cost_scale": (-1.0, 1.0)}, "population.cost.params.scale"),
        ({"success_param": (0.5, math.inf)}, "population.success.params.rate"),
        ({"gain": (0.0, 1.0)}, "population.gain"),
        ({"cost_family": "exp_growth", "cost_shape": (0.0, 1.0)}, "population.cost.params.rate"),
    ])
    def test_both_interval_ends_in_the_domain(self, overrides, field):
        with pytest.raises(ConfigError, match=f"^{field}: "):
            make_spec(**overrides)

    def test_zero_cost_ignores_cost_intervals(self):
        assert make_spec(cost_family="zero", cost_shape=(0.5, 1.0)).cost_family == "zero"

    def test_unknown_family_is_named(self):
        with pytest.raises(ConfigError) as exc:
            make_spec(success_family="nope")
        assert str(exc.value) == "population.success.family: unknown family 'nope'"

    def test_n_agents_fits_one_spawn_word(self):
        # only the spec is built: nothing is sampled or allocated
        assert make_spec(n_agents=MAX_AGENTS).n_agents == 2**32
        with pytest.raises(ConfigError, match="population.n_agents"):
            make_spec(n_agents=MAX_AGENTS + 1)


class TestSamplePopulation:
    def test_degenerate_intervals_give_fixed_trader(self):
        spec = make_spec(n_agents=1, gain=(1.0, 1.0), loss=(2.0, 2.0),
                         success_param=(1.0, 1.0), cost_scale=(0.1, 0.1),
                         cost_shape=(2.0, 2.0))
        (trader,) = sample_population(spec)
        assert trader == Trader(1.0, 2.0, ExpSaturating(1.0), PowerCost(0.1, 2.0))

    def test_determinism(self):
        spec = make_spec(n_agents=50)
        assert list(sample_population(spec)) == list(sample_population(spec))

    def test_substreams_are_order_independent(self):
        # a shorter population is a prefix: agent k depends only on (seed, k)
        long = sample_population(make_spec(n_agents=10))
        short = sample_population(make_spec(n_agents=4))
        assert list(long)[:4] == list(short)

    def test_seed_changes_population(self):
        assert list(sample_population(make_spec(master_seed=1))) != \
            list(sample_population(make_spec(master_seed=2)))

    def test_zero_cost_columns_are_kernel_codes(self):
        # the market.csv cost_scale column of a zero-cost population reads 0
        population = sample_population(make_spec(cost_family="zero"))
        assert not population.cost_scale.any() and not population.cost_param.any()
        assert population[0].cost == ZeroCost()

    def test_cost_scale_mean(self):
        traders = sample_population(make_spec(n_agents=1000, cost_scale=(0.01, 1.0)))
        scales = [t.cost.scale for t in traders]
        se = (0.99 / math.sqrt(12.0)) / math.sqrt(1000.0)
        assert abs(np.mean(scales) - 0.505) <= 3.0 * se


def substream(seed, k):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))


REFERENCE_SUCCESS = {"exp_saturating": ExpSaturating, "hyperbolic": Hyperbolic}
REFERENCE_COSTS = {"power": PowerCost, "exp_growth": ExpGrowthCost}


def reference_population(spec):
    """Per-agent reference: one SeedSequence and Generator per agent, scalar draws."""
    traders = []
    for k in range(spec.n_agents):
        rng = substream(spec.master_seed, k)

        def draw(interval):
            lo, hi = interval
            return float(lo) if lo == hi else float(rng.uniform(lo, hi))

        gain, loss, s_param, c_scale, c_shape = (
            draw(iv) for iv in (spec.gain, spec.loss, spec.success_param,
                                spec.cost_scale, spec.cost_shape))
        cost = (ZeroCost() if spec.cost_family == "zero"
                else REFERENCE_COSTS[spec.cost_family](c_scale, c_shape))
        traders.append(Trader(gain, loss, REFERENCE_SUCCESS[spec.success_family](s_param), cost))
    return traders


SEEDS = [0, 7, 2**32, 2**40 + 5, 2**64 - 1]


class TestKeyedSubstreams:
    """The vectorized draws are bit-identical to numpy's per-agent substreams."""

    @pytest.mark.parametrize("n", [1, 3000])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_uniforms_match_numpy(self, seed, n):
        expected = np.array([substream(seed, k).random(5) for k in range(n)]).T
        drawn = _keyed_uniforms(seed, n, 5)
        assert drawn.shape == (5, n)
        assert (drawn == expected).all()

    def test_no_draws(self):
        assert _keyed_uniforms(3, 4, 0).shape == (0, 4)

    @pytest.mark.parametrize("n", [1, 3000])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_population_matches_reference(self, seed, n):
        spec = make_spec(n_agents=n, master_seed=seed)
        traders = list(sample_population(spec))
        assert traders == reference_population(spec)
        assert all(type(v) is float for t in traders[:3]
                   for v in (t.gain, t.loss, t.success.rate, t.cost.scale, t.cost.exponent))

    @pytest.mark.parametrize("field", ["gain", "loss", "success_param", "cost_scale",
                                       "cost_shape"])
    def test_degenerate_interval_takes_no_draw(self, field):
        spec = make_spec(n_agents=300, master_seed=2**64 - 1, **{field: (1.5, 1.5)})
        assert list(sample_population(spec)) == reference_population(spec)

    def test_all_degenerate(self):
        spec = make_spec(n_agents=50, gain=(1.0, 1.0), loss=(2.0, 2.0),
                         success_param=(0.7, 0.7), cost_scale=(0.1, 0.1),
                         cost_shape=(2.5, 2.5))
        traders = list(sample_population(spec))
        assert traders == reference_population(spec)
        assert set(traders) == {Trader(1.0, 2.0, ExpSaturating(0.7), PowerCost(0.1, 2.5))}

    @pytest.mark.parametrize("family", ["zero", "exp_growth"])
    def test_every_family_draws_scale_and_shape(self, family):
        # a zero-cost spec built through the API still consumes the cost draws
        spec = make_spec(n_agents=300, success_family="hyperbolic", cost_family=family,
                         cost_scale=(0.1, 0.5), cost_shape=(0.5, 2.0), master_seed=2**32)
        assert list(sample_population(spec)) == reference_population(spec)


class TestRunMarket:
    def test_zero_cost_population_fully_informed(self):
        traders = sample_population(make_spec(cost_family="zero"))
        out = run_market(MarketConfig(i_max=3.0, theta=0.99), traders)
        assert out.fraction_informed == 1.0
        assert out.efficient
        assert (out.i_star == 3.0).all()

    def test_no_corner_agents_means_inefficient(self):
        traders = [Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(10.0, 2.0))] * 20
        out = run_market(MarketConfig(i_max=2.0, theta=0.5), traders)
        assert out.fraction_informed == 0.0
        assert not out.efficient

    def test_reference_mixed_population(self):
        traders = mixed_population(100)
        out = run_market(MarketConfig(i_max=2.0, theta=0.4), traders)
        assert out.fraction_informed == 0.5
        assert out.efficient
        out2 = run_market(MarketConfig(i_max=2.0, theta=0.6), traders)
        assert not out2.efficient

    def test_regime_counts_partition(self, rng):
        for _ in range(20):
            traders = [random_trader(rng) for _ in range(30)]
            out = run_market(MarketConfig(i_max=rng.uniform(0.5, 5.0), theta=0.5), traders)
            assert sum(out.counts.values()) == len(traders)
            assert out.efficient == (out.fraction_informed >= 0.5)

    def test_participation_rule_excludes_losers(self):
        # high-cost agents have u_star < 0 and drop out of the denominator
        traders = mixed_population(100)
        out = run_market(MarketConfig(i_max=2.0, theta=0.6, participation_rule=True), traders)
        assert out.n_excluded == 50
        assert out.fraction_informed == 1.0
        assert out.efficient

    def test_empty_population_rejected(self):
        with pytest.raises(PreconditionError):
            run_market(MarketConfig(i_max=1.0, theta=0.5), [])

    @pytest.mark.parametrize("rule", [False, True])
    def test_columns_equal_trader_list(self, rng, rule):
        traders = [random_trader(rng) for _ in range(200)]
        population = Population.from_traders(traders)
        config = MarketConfig(i_max=1.5, theta=0.5, participation_rule=rule)
        by_columns = run_market(config, population)
        by_traders = run_market(config, list(population))
        for field in fields(MarketOutcome):
            a, b = getattr(by_columns, field.name), getattr(by_traders, field.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.tolist() == b.tolist(), field.name
            else:
                assert type(a) is type(b) and a == b, field.name

    def test_u_star_is_the_expected_utility_at_i_star(self, rng):
        traders = [random_trader(rng) for _ in range(200)]
        out = run_market(MarketConfig(i_max=2.0, theta=0.5), traders)
        for trader, i_star, u_star in zip(traders, out.i_star.tolist(), out.u_star.tolist()):
            assert u_star == pytest.approx(expected_utility(trader, i_star), rel=1e-12, abs=1e-14)


class TestClassification:
    interior = Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(0.1, 2.0))
    corner = Trader(1.0, 1.0, ExpSaturating(1.0), ExpGrowthCost(10.0, 2.0))  # g(0) < 0
    costless = Trader(1.0, 1.0, ExpSaturating(1.0), ZeroCost())

    def test_root_at_the_ceiling_is_fully_informed(self):
        root = float(solve_roots([self.interior])[0])
        out = run_market(MarketConfig(i_max=root, theta=0.5),
                         [self.interior, self.corner, self.costless])
        assert out.i_u.tolist() == [root, 0.0, math.inf]
        assert out.i_star.tolist() == [root, 0.0, root]
        assert out.regime.tolist() == ["fully_informed", "corner_zero", "fully_informed"]
        assert out.counts == {"corner_zero": 1, "interior": 0, "fully_informed": 2}

    def test_root_below_the_ceiling_is_interior(self):
        root = float(solve_roots([self.interior])[0])
        out = run_market(MarketConfig(i_max=float(np.nextafter(root, math.inf)), theta=0.5),
                         [self.interior])
        assert out.i_star.tolist() == [root] and out.regime.tolist() == ["interior"]

    def test_zero_utility_participates(self):
        # lambda(1) = 1 / (1 + 1) = 0.5 exactly, so u_star = 0.5 - 0.5 - 0 = 0.0
        even = Trader(1.0, 1.0, Hyperbolic(1.0), ZeroCost())
        out = run_market(MarketConfig(i_max=1.0, theta=0.5, participation_rule=True),
                         [even, self.corner])
        assert out.u_star.tolist() == [0.0, -1.0]
        assert out.n_excluded == 1
        assert out.counts == {"corner_zero": 0, "interior": 0, "fully_informed": 1}
        assert out.fraction_informed == 1.0 and out.mean_utility == 0.0


class TestConjectureVerdict:
    def test_from_problems(self):
        verdict = ConjectureVerdict.from_problems
        assert verdict("c", [], "ok", counterexample=3) == ConjectureVerdict("c", True, "ok", None)
        assert verdict("c", ["a", "b"], "ok", 3) == ConjectureVerdict("c", False, "a; b", 3)
        assert verdict("c", ["a"], "ok") == ConjectureVerdict("c", False, "a", None)


class TestConjecture1:
    def test_muthian_population_passes(self):
        traders = sample_population(make_spec(cost_family="zero"))
        verdict = check_conjecture1(traders, i_max=2.0, theta=0.9)
        assert verdict.passed

    def test_tiny_i_max_still_corner(self):
        trader = Trader(1.0, 1.0, ExpSaturating(1.0), ZeroCost())
        assert check_conjecture1([trader], i_max=1e-9, theta=1.0).passed

    def test_counterexample_is_the_first_agent_short_of_i_max(self, monkeypatch):
        traders = [Trader(1.0, 1.0, ExpSaturating(1.0), ZeroCost())] * 6
        solve = infoload.market.solve_roots
        short = np.isin(np.arange(6), [3, 5])
        monkeypatch.setattr(infoload.market, "solve_roots",
                            lambda ts: np.where(short, 0.5, solve(ts)))
        verdict = check_conjecture1(traders, i_max=2.0, theta=0.5)
        assert not verdict.passed
        assert verdict.counterexample == 3
        assert verdict.detail == "agent 3 chose i_star=0.5 != i_max=2.0"

    def test_non_zero_cost_guard(self):
        traders = list(sample_population(make_spec(cost_family="zero")))
        traders.append(Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(1.0, 2.0)))
        with pytest.raises(PreconditionError):
            check_conjecture1(traders, i_max=2.0, theta=0.5)


class TestConjecture2:
    def test_reference_legs_pass(self):
        traders = mixed_population(100)
        verdict = check_conjecture2(
            (MarketConfig(i_max=2.0, theta=0.4), traders),
            (MarketConfig(i_max=2.0, theta=0.6), traders))
        assert verdict.passed

    def test_misconfigured_inefficient_leg_flagged(self):
        low_cost = [Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(0.001, 2.0))] * 20
        verdict = check_conjecture2(
            (MarketConfig(i_max=2.0, theta=0.4), mixed_population(100)),
            (MarketConfig(i_max=2.0, theta=0.6), low_cost))
        assert not verdict.passed
        assert "inefficient leg" in verdict.detail

    # every trader interior (fraction 0), every trader fully informed (fraction 1), and
    # every trader at the corner (g(0) < 0)
    high = [Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(10.0, 2.0))] * 20
    low = [Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(0.001, 2.0))] * 20
    corner = [Trader(1.0, 1.0, ExpSaturating(1.0), ExpGrowthCost(10.0, 1.0))] * 20

    @pytest.mark.parametrize("efficient, inefficient, detail", [
        (high, high, "efficient leg failed (fraction=0.0)"),
        (low, low, "efficient leg has no interior (overloaded) agent; "
                   "inefficient leg failed (fraction=1.0)"),
        (corner, low, "efficient leg failed (fraction=0.0); "
                      "efficient leg has no interior (overloaded) agent; "
                      "inefficient leg failed (fraction=1.0)"),
    ], ids=["not_efficient", "no_interior_and_efficient", "all_three"])
    def test_failure_lists_its_problems_in_order(self, efficient, inefficient, detail):
        verdict = check_conjecture2((MarketConfig(i_max=2.0, theta=0.4), efficient),
                                    (MarketConfig(i_max=2.0, theta=0.6), inefficient))
        assert verdict == ConjectureVerdict("conjecture2", False, detail, None)

    def test_mismatched_i_max_guard(self):
        traders = mixed_population(10)
        with pytest.raises(PreconditionError):
            check_conjecture2((MarketConfig(i_max=1.0, theta=0.4), traders),
                              (MarketConfig(i_max=2.0, theta=0.6), traders))


class TestConjecture3:
    def test_reference_config_passes(self):
        traders = [Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(0.01, 2.0))] * 20
        schedule = [2.0**k for k in range(15)]
        verdict = check_conjecture3(traders, theta=0.5, i_max_schedule=schedule)
        assert verdict.passed

    def test_failure_lists_its_problems_in_order(self):
        # information this cheap and this useless: everyone stays fully informed, and the
        # ceiling utility rises from -1 without turning down
        traders = [Trader(1.0, 1.0, ExpSaturating(1e-6), PowerCost(1e-12, 2.0))] * 5
        verdict = check_conjecture3(traders, theta=0.5,
                                    i_max_schedule=[2.0**k for k in range(15)])
        assert not verdict.passed and verdict.counterexample is None
        final, decreasing, bound = verdict.detail.split("; ")
        assert final == "fraction_informed at final ceiling is 1.0, not 0"
        assert decreasing == "ceiling utility not eventually decreasing"
        utility = re.fullmatch(r"ceiling utility (\S+) not below -1000000\.0", bound).group(1)
        assert float(utility) == pytest.approx(-0.9677674108816728, rel=1e-12)

    def test_zero_cost_guard(self):
        traders = [Trader(1.0, 1.0, ExpSaturating(1.0), ZeroCost())] * 5
        with pytest.raises(PreconditionError):
            check_conjecture3(traders, theta=0.5, i_max_schedule=[2.0**k for k in range(15)])

    def test_short_schedule_guard(self):
        traders = [Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(0.01, 2.0))]
        with pytest.raises(PreconditionError):
            check_conjecture3(traders, theta=0.5, i_max_schedule=[1.0])

    @pytest.mark.parametrize("schedule", [
        [-1.0] + [2.0**k for k in range(14)],
        [0.0] + [2.0**k for k in range(14)],
        [2.0**k for k in range(14)] + [math.inf],
    ])
    def test_non_positive_or_infinite_schedule_guard(self, schedule):
        traders = [Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(0.01, 2.0))]
        with pytest.raises(PreconditionError):
            check_conjecture3(traders, theta=0.5, i_max_schedule=schedule)

    @pytest.mark.parametrize("theta", [0.0, 1.5])
    def test_theta_guard(self, theta):
        traders = [Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(0.01, 2.0))]
        with pytest.raises(ConfigError, match="market.theta"):
            check_conjecture3(traders, theta=theta, i_max_schedule=[2.0**k for k in range(15)])


class TestMonotonePhase:
    def test_fraction_informed_non_increasing(self, rng):
        for _ in range(10):
            traders = [random_trader(rng) for _ in range(40)]
            grid = np.geomspace(0.1, 20.0, 15)
            fractions = [
                run_market(MarketConfig(i_max=float(g), theta=0.5), traders).fraction_informed
                for g in grid
            ]
            assert all(b <= a for a, b in zip(fractions, fractions[1:]))


class TestReturns:
    def test_degenerate_noise(self):
        sample = simulate_muthian_returns(ReturnModel(0.05, 0.0), 100, seed=1)
        assert np.all(sample.values == 0.05)
        assert sample.mean == 0.05

    def test_mean_recovers_forecast(self):
        sample = simulate_muthian_returns(ReturnModel(0.05, 0.2), 10**6, seed=20240824)
        assert abs(sample.mean - 0.05) <= 4.0 * (0.2 / 1000.0)

    def test_determinism(self):
        a = simulate_muthian_returns(ReturnModel(0.01, 0.3), 1000, seed=5)
        b = simulate_muthian_returns(ReturnModel(0.01, 0.3), 1000, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_n_guard(self):
        with pytest.raises(PreconditionError):
            simulate_muthian_returns(ReturnModel(0.0, 1.0), 0, seed=1)

    @pytest.mark.parametrize("r_of, noise_sd, n", [
        (1.7e308, 1e-300, 3),  # the sum of the draws overflows
        (1e308, 1e300, 3),  # the squared deviations overflow
        (-1.7e308, 1e300, 1000)])
    def test_finite_draws_give_a_finite_summary(self, r_of, noise_sd, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sample = simulate_muthian_returns(ReturnModel(r_of, noise_sd), n, seed=0)
        assert np.isfinite(sample.values).all()
        # within 2**-50 of the largest draw of the exact mean and sd, in rationals
        exact = [Fraction(v) for v in sample.values.tolist()]
        mean = sum(exact) / n
        sd = math.ldexp(math.sqrt(sum((v - mean) ** 2 for v in exact) / (n - 1) / 2**2000), 1000)
        tolerance = max(map(abs, exact)) / 2**50
        assert abs(Fraction(sample.mean) - mean) <= tolerance
        assert abs(Fraction(sample.sd) - Fraction(sd)) <= tolerance

    @pytest.mark.parametrize("r_of, noise_sd", [
        (math.nan, 0.2), (math.inf, 0.2), (-math.inf, 0.2),
        (0.05, math.nan), (0.05, math.inf), (0.05, -0.1),
    ])
    def test_model_rejects_non_finite_or_negative(self, r_of, noise_sd):
        with pytest.raises(ParameterError):
            ReturnModel(r_of, noise_sd)
