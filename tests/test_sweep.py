import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infoload.market
import infoload.sweep
from infoload import (
    ExpGrowthCost,
    ExpSaturating,
    Hyperbolic,
    MarketConfig,
    PowerCost,
    Trader,
    ZeroCost,
    critical_imax_quantile,
    run_market,
    sweep_2d,
    sweep_imax,
    unconstrained_optimum,
    utility_curve,
)
from infoload.cli import main as cli_main
from infoload.errors import ConfigError, NumericRangeError, ParameterError, PreconditionError

from conftest import random_trader

REPO = Path(__file__).resolve().parent.parent


class TestUtilityCurve:
    def test_zero_cost_strictly_increasing(self):
        trader = Trader(1.0, 1.0, ExpSaturating(1.0), ZeroCost())
        curve = utility_curve(trader, 5.0, 501)
        assert np.all(np.diff(curve.utilities) > 0)
        assert curve.i_argmax == 5.0
        assert curve.sign_changes() == 0

    def test_reference_rise_then_fall(self, reference_trader):
        curve = utility_curve(reference_trader, 5.0, 501)
        assert curve.sign_changes() == 1
        assert curve.i_argmax == pytest.approx(1.7455, abs=0.01)

    def test_two_points(self, reference_trader):
        curve = utility_curve(reference_trader, 2.0, 2)
        assert curve.i_argmax in (0.0, 2.0)

    def test_n_points_validated(self, reference_trader):
        with pytest.raises(ConfigError):
            utility_curve(reference_trader, 2.0, 1)

    @pytest.mark.parametrize("i_max", [math.inf, math.nan, 0.0, -1.0])
    def test_i_max_validated(self, reference_trader, i_max):
        with pytest.raises(ParameterError, match="i_max"):
            utility_curve(reference_trader, i_max, 5)

    def test_grid_endpoints(self, reference_trader):
        curve = utility_curve(reference_trader, 3.0, 61)
        assert curve.grid[0] == 0.0 and curve.grid[-1] == 3.0
        assert curve.argmax_index == int(np.argmax(curve.utilities))


class TestSweepImax:
    def test_muthian_population_always_efficient(self):
        traders = [Trader(1.0, 1.0, ExpSaturating(1.0), ZeroCost())] * 10
        grid = list(np.geomspace(0.1, 10.0, 12))
        series = sweep_imax(traders, grid, theta=0.9)
        assert all(eff for _, _, eff in series.points)
        assert series.critical_i_max == grid[-1]

    def test_single_agent_flips_at_root(self, reference_trader):
        i_u = unconstrained_optimum(reference_trader)
        grid = list(np.linspace(0.5, 3.0, 26))  # step 0.1 around i_u ~ 1.7455
        series = sweep_imax([reference_trader], grid, theta=1.0)
        assert series.critical_i_max == pytest.approx(i_u, abs=0.1)
        for i_max, _, eff in series.points:
            assert eff == (i_max <= i_u)

    def test_unsorted_grid_rejected(self, reference_trader):
        with pytest.raises(ConfigError):
            sweep_imax([reference_trader], [1.0, 0.5], theta=0.5)

    @pytest.mark.parametrize("grid,theta,field", [
        ([], 0.5, "sweep.i_max_grid"),
        ([-1.0, 0.5, 1.0], 0.5, "sweep.i_max_grid"),
        ([0.0, 1.0], 0.5, "sweep.i_max_grid"),
        ([1.0, math.inf], 0.5, "sweep.i_max_grid"),
        ([math.nan, 1.0], 0.5, "sweep.i_max_grid"),
        ([1.0, 2.0], 0.0, "market.theta"),
        ([1.0, 2.0], 1.5, "market.theta"),
        ([1.0, 2.0], math.nan, "market.theta"),
    ])
    def test_bad_arguments_rejected(self, reference_trader, grid, theta, field):
        with pytest.raises(ConfigError) as exc:
            sweep_imax([reference_trader], grid, theta=theta)
        assert exc.value.field == field
        with pytest.raises(ConfigError) as exc:
            sweep_2d([reference_trader], grid, [0.5, 1.0], theta=theta)
        assert exc.value.field == field

    def test_nan_root_names_the_agent(self, rng, monkeypatch):
        traders = [random_trader(rng, cost_family="power") for _ in range(4)]
        solve = infoload.market.solve_roots
        monkeypatch.setattr(
            infoload.market, "solve_roots",
            lambda ts: np.where([t is traders[2] for t in ts], math.nan, solve(ts)))
        with pytest.raises(NumericRangeError, match="agent 2"):
            sweep_imax(traders, [0.5, 1.0], theta=0.5)

    @pytest.mark.parametrize("fractions", [[0.5, 0.7, 0.1], [0.5, math.nan, 0.1]])
    def test_non_monotone_fractions_are_numeric_errors(self, reference_trader, monkeypatch,
                                                       fractions):
        monkeypatch.setattr(infoload.sweep, "informed_fractions", lambda traders, grid: fractions)
        with pytest.raises(NumericRangeError, match="monotonicity"):
            sweep_imax([reference_trader], [1.0, 2.0, 3.0], theta=0.5)

    def test_monotone_phase_prefix(self, rng):
        for _ in range(10):
            traders = [random_trader(rng) for _ in range(30)]
            grid = list(np.geomspace(0.05, 30.0, 20))
            series = sweep_imax(traders, grid, theta=rng.uniform(0.2, 0.9))
            effs = [p[2] for p in series.points]
            assert effs == sorted(effs, reverse=True)


class TestCriticalQuantile:
    def test_order_statistic(self):
        # i_u values 1, 2, 3, 4 by construction via single-root traders is
        # overkill; the quantile is a pure order statistic, so pin it directly
        traders = []
        for target in (1.0, 2.0, 3.0, 4.0):
            # power cost with scale chosen so 2 e^{-i} = 2 c i has root target
            # => c = e^{-target} / target
            scale = math.exp(-target) / target
            traders.append(Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(scale, 2.0)))
        i_us = [unconstrained_optimum(t) for t in traders]
        assert i_us == pytest.approx([1.0, 2.0, 3.0, 4.0], rel=1e-8)
        assert critical_imax_quantile(traders, 0.5) == pytest.approx(3.0, rel=1e-8)

    def test_muthian_is_infinite(self):
        traders = [Trader(1.0, 1.0, ExpSaturating(1.0), ZeroCost())] * 4
        assert critical_imax_quantile(traders, 0.5) == math.inf

    @pytest.mark.parametrize("theta", [-0.5, 0.0, 1.5, math.nan])
    def test_theta_validated(self, reference_trader, theta):
        high_cost = Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(10.0, 2.0))
        with pytest.raises(ConfigError) as exc:
            critical_imax_quantile([reference_trader, high_cost], theta)
        assert exc.value.field == "market.theta"

    def test_empty_population_rejected(self):
        with pytest.raises(PreconditionError):
            critical_imax_quantile([], 0.5)

    def test_sweep_agrees_within_one_cell(self, rng):
        for _ in range(20):
            traders = [random_trader(rng, cost_family="power") for _ in range(50)]
            theta = rng.uniform(0.2, 0.9)
            grid = list(np.geomspace(0.05, 30.0, 30))
            series = sweep_imax(traders, grid, theta)
            q = critical_imax_quantile(traders, theta)
            if series.critical_i_max is None:
                assert q is None or q < grid[0]
            else:
                assert series.critical_i_max <= q
                later = [g for g in grid if g > series.critical_i_max]
                if later:
                    assert q < later[0]


class TestSweep2d:
    def test_identity_multiplier_matches_1d(self, rng):
        traders = [random_trader(rng, cost_family="power") for _ in range(20)]
        grid = list(np.geomspace(0.1, 10.0, 12))
        series = sweep_imax(traders, grid, theta=0.5)
        diagram = sweep_2d(traders, grid, [0.5, 1.0, 2.0], theta=0.5)
        row = list(diagram.fractions[1])
        assert row == [p[1] for p in series.points]
        assert diagram.critical_per_row[1] == series.critical_i_max

    def test_costlier_never_enlarges_efficient_region(self, rng):
        traders = [random_trader(rng, cost_family="power") for _ in range(20)]
        grid = list(np.geomspace(0.1, 10.0, 12))
        diagram = sweep_2d(traders, grid, [0.25, 1.0, 4.0, 16.0], theta=0.5)
        crits = [c if c is not None else -math.inf for c in diagram.critical_per_row]
        assert all(b <= a for a, b in zip(crits, crits[1:]))

    def test_vanishing_multiplier_approaches_muthian(self, rng):
        traders = [random_trader(rng, cost_family="power") for _ in range(10)]
        grid = list(np.geomspace(0.1, 5.0, 8))
        diagram = sweep_2d(traders, grid, [1e-9, 1.0], theta=0.9)
        assert bool(np.all(diagram.efficient[0]))

    def test_bad_multipliers_rejected(self, reference_trader):
        with pytest.raises(ConfigError):
            sweep_2d([reference_trader], [1.0, 2.0], [2.0, 1.0], theta=0.5)
        with pytest.raises(ConfigError):
            sweep_2d([reference_trader], [1.0, 2.0], [-1.0, 1.0], theta=0.5)


# ---------------------------------------------------------------------------
# the sorted-root count against the per-ceiling market it replaces

CORNER_ZERO_TRADER = Trader(1.0, 1.0, ExpSaturating(1.0), ExpGrowthCost(10.0, 2.0))

_traders = st.one_of(
    st.builds(
        Trader,
        gain=st.floats(0.5, 5.0), loss=st.floats(0.5, 5.0),
        success=st.one_of(st.builds(ExpSaturating, st.floats(0.3, 3.0)),
                          st.builds(Hyperbolic, st.floats(0.3, 3.0))),
        cost=st.one_of(st.builds(PowerCost, st.floats(0.01, 5.0), st.floats(1.5, 3.0)),
                       st.builds(ExpGrowthCost, st.floats(0.01, 2.0), st.floats(0.3, 2.0)),
                       st.just(ZeroCost()))),
    st.just(CORNER_ZERO_TRADER),
)
_thetas = st.one_of(st.just(1.0), st.just(1e-12), st.floats(0.01, 1.0))


@st.composite
def _populations(draw):
    """Traders drawn with repeats from a small pool, and ceilings that hit roots."""
    pool = draw(st.lists(_traders, min_size=1, max_size=5))
    traders = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))
    roots = [unconstrained_optimum(t) for t in traders]
    on_root = [r for r in roots if 0.0 < r < math.inf]
    ceilings = set(draw(st.lists(st.floats(1e-3, 50.0), min_size=1, max_size=8)))
    if on_root:
        ceilings |= set(draw(st.lists(st.sampled_from(on_root), max_size=3)))
    return traders, sorted(ceilings)


def _per_ceiling(traders, grid, theta):
    outs = [run_market(MarketConfig(i_max=i_max, theta=theta), traders) for i_max in grid]
    return [(i_max, out.fraction_informed, out.efficient) for i_max, out in zip(grid, outs)]


def _assert_matches_market(series, traders, grid, theta):
    expected = _per_ceiling(traders, grid, theta)
    assert series.points == expected
    assert all(type(frac) is float and type(eff) is bool for _, frac, eff in series.points)
    efficient = [i_max for i_max, _, eff in expected if eff]
    assert series.critical_i_max == (efficient[-1] if efficient else None)


class TestSortedRootsMatchMarket:
    @settings(max_examples=60, deadline=None)
    @given(population=_populations(), theta=_thetas)
    def test_sweep_imax(self, population, theta):
        traders, grid = population
        _assert_matches_market(sweep_imax(traders, grid, theta), traders, grid, theta)

    @settings(max_examples=30, deadline=None)
    @given(population=_populations(), theta=_thetas,
           mults=st.sets(st.floats(0.1, 10.0), max_size=3))
    def test_sweep_2d(self, population, theta, mults):
        traders, grid = population
        mults = sorted(mults | {1.0})
        diagram = sweep_2d(traders, grid, mults, theta)
        for r, m in enumerate(mults):
            scaled = [replace(t, cost=t.cost.scaled(m)) for t in traders]
            expected = _per_ceiling(scaled, grid, theta)
            assert diagram.fractions[r].tolist() == [frac for _, frac, _ in expected]
            assert diagram.efficient[r].tolist() == [eff for _, _, eff in expected]
            efficient = [i_max for i_max, _, eff in expected if eff]
            assert diagram.critical_per_row[r] == (efficient[-1] if efficient else None)

    @pytest.mark.parametrize("theta", [1.0, 0.5, 1e-12])
    def test_ties_infinite_and_zero_roots(self, reference_trader, theta):
        traders = ([reference_trader] * 3 + [CORNER_ZERO_TRADER] * 2
                   + [Trader(1.0, 1.0, ExpSaturating(1.0), ZeroCost())])
        i_u = unconstrained_optimum(reference_trader)
        grid = [0.5, np.nextafter(i_u, 0.0), i_u, np.nextafter(i_u, math.inf), 4.0]
        series = sweep_imax(traders, grid, theta)
        _assert_matches_market(series, traders, grid, theta)
        assert [frac for _, frac, _ in series.points] == [4 / 6, 4 / 6, 4 / 6, 1 / 6, 1 / 6]


# ---------------------------------------------------------------------------
# golden phase CSVs, recorded with the per-ceiling market sweep

SWEEP_400 = {
    "population": {"n_agents": 400, "gain": [0.5, 2.0], "loss": [0.5, 2.0],
                   "success": {"family": "exp_saturating", "params": {"rate": [0.5, 2.0]}},
                   "cost": {"family": "power",
                            "params": {"scale": [0.01, 2.0], "exponent": 2.0}}},
    "market": {"theta": 0.5},
    "sweep": {"i_max_grid": {"kind": "geometric", "start": 0.0625, "stop": 16.0, "num": 33},
              "cost_multiplier_grid": [0.25, 0.5, 1.0, 2.0, 4.0]},
}

GOLDEN_SHA256 = {
    ("reference", 0): ("66fe5abde9704f0cbef55a01f11f32cc55ea674bb40f3d3ca45c8c7880e968ff",
                       "070af007157c9b27c2c656d7f8d223c9894a1434caa9bfce49bb63ae79630b7a"),
    ("reference", 7): ("31b4b2e17fe24daeedbb19a1f5076afff0ce3825c8e9542adafdbdc659c0dc09",
                       "42f8fc9766e2ff8ee1be06d66976d70db6c98f10922b488166e7e1705e449ce2"),
    ("reference", 2**64 - 1): (
        "743c66b702d48e575256702b88e9d1eeadfbed9bc0dd2c6c75c3c420bcc86b06",
        "da8b59096342e8bcc8de779ec8f9a002dfbd097c2a321367afcb0db4b2410848"),
    ("sweep_400", 0): ("5d04c52d5920136795741e3676f0d2c4d476ea2f4645b5b2b0f5de760ee00ba3",
                       "8c78a6c9564c0afde08b4e3ca90829d79586836d45d10509539676ddccd3a36d"),
    ("sweep_400", 7): ("6ce095eeb590f142274cdd09efde2bf9347b86c8616cc82408236a55992beaec",
                       "9c74cfeffb2b565cc5cfc5e8aad8edbc6ca75f85824f73bcfb47a0820bf88f00"),
    ("sweep_400", 2**64 - 1): (
        "e00e81c0607b956fcaa13f9c40a1781baacec7330cdb6546d2c27c73c63d555c",
        "56edbac9d0f89941434096bf29ae056c62ecb67ac0adc6c8379580190e40756a"),
}


@pytest.mark.parametrize("config,seed", sorted(GOLDEN_SHA256))
def test_golden_phase_csvs(tmp_path, config, seed):
    if config == "reference":
        path = REPO / "configs" / "reference.json"
    else:
        path = tmp_path / "sweep_400.json"
        path.write_text(json.dumps(SWEEP_400))
    out = tmp_path / "out"
    assert cli_main(["sweep", "--config", str(path), "--out", str(out),
                     "--seed", str(seed)]) == 0
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("phase.csv", "phase2d.csv"))
    assert digests == GOLDEN_SHA256[config, seed]
