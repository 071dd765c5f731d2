import math

import numpy as np
import pytest

from infoload import (
    ExpSaturating,
    MarketConfig,
    PopulationSpec,
    PowerCost,
    Regime,
    ReturnModel,
    Trader,
    ZeroCost,
    check_conjecture1,
    check_conjecture2,
    check_conjecture3,
    run_market,
    sample_population,
    simulate_muthian_returns,
)
from infoload.errors import ConfigError, PreconditionError
from infoload.market import MAX_AGENTS, _keyed_uniforms, _make_cost, _make_success

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
        with pytest.raises(ConfigError):
            make_spec(cost_shape=(1.0, 2.0))

    def test_n_agents_positive(self):
        with pytest.raises(ConfigError):
            make_spec(n_agents=0)

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
        assert sample_population(spec) == sample_population(spec)

    def test_substreams_are_order_independent(self):
        # a shorter population is a prefix: agent k depends only on (seed, k)
        long = sample_population(make_spec(n_agents=10))
        short = sample_population(make_spec(n_agents=4))
        assert long[:4] == short

    def test_seed_changes_population(self):
        assert sample_population(make_spec(master_seed=1)) != \
            sample_population(make_spec(master_seed=2))

    def test_cost_scale_mean(self):
        traders = sample_population(make_spec(n_agents=1000, cost_scale=(0.01, 1.0)))
        scales = [t.cost.scale for t in traders]
        se = (0.99 / math.sqrt(12.0)) / math.sqrt(1000.0)
        assert abs(np.mean(scales) - 0.505) <= 3.0 * se


def substream(seed, k):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))


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
        traders.append(Trader(gain, loss, _make_success(spec.success_family, s_param),
                              _make_cost(spec.cost_family, c_scale, c_shape)))
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
        traders = sample_population(spec)
        assert traders == reference_population(spec)
        assert all(type(v) is float for t in traders[:3]
                   for v in (t.gain, t.loss, t.success.rate, t.cost.scale, t.cost.exponent))

    @pytest.mark.parametrize("field", ["gain", "loss", "success_param", "cost_scale",
                                       "cost_shape"])
    def test_degenerate_interval_takes_no_draw(self, field):
        spec = make_spec(n_agents=300, master_seed=2**64 - 1, **{field: (1.5, 1.5)})
        assert sample_population(spec) == reference_population(spec)

    def test_all_degenerate(self):
        spec = make_spec(n_agents=50, gain=(1.0, 1.0), loss=(2.0, 2.0),
                         success_param=(0.7, 0.7), cost_scale=(0.1, 0.1),
                         cost_shape=(2.5, 2.5))
        traders = sample_population(spec)
        assert traders == reference_population(spec)
        assert set(traders) == {Trader(1.0, 2.0, ExpSaturating(0.7), PowerCost(0.1, 2.5))}

    @pytest.mark.parametrize("family", ["zero", "exp_growth"])
    def test_every_family_draws_scale_and_shape(self, family):
        # a zero-cost spec built through the API still consumes the cost draws
        spec = make_spec(n_agents=300, success_family="hyperbolic", cost_family=family,
                         cost_scale=(0.1, 0.5), cost_shape=(0.5, 2.0), master_seed=2**32)
        assert sample_population(spec) == reference_population(spec)


class TestRunMarket:
    def test_zero_cost_population_fully_informed(self):
        traders = sample_population(make_spec(cost_family="zero"))
        out = run_market(MarketConfig(i_max=3.0, theta=0.99), traders)
        assert out.fraction_informed == 1.0
        assert out.efficient
        assert all(o.i_star == 3.0 for o in out.outcomes)

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


class TestConjecture1:
    def test_muthian_population_passes(self):
        traders = sample_population(make_spec(cost_family="zero"))
        verdict = check_conjecture1(traders, i_max=2.0, theta=0.9)
        assert verdict.passed

    def test_tiny_i_max_still_corner(self):
        trader = Trader(1.0, 1.0, ExpSaturating(1.0), ZeroCost())
        assert check_conjecture1([trader], i_max=1e-9, theta=1.0).passed

    def test_non_zero_cost_guard(self):
        traders = sample_population(make_spec(cost_family="zero"))
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
