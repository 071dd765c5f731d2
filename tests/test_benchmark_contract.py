"""The package names the benchmark in ``perfbench/`` looks up still resolve.

``perfbench``'s own self-test would catch a renamed or removed name too, but
it runs whole CLI jobs and is not part of this suite; this check imports
nothing heavier than the package.
"""

import dataclasses
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from infoload import (
    ExpGrowthCost,
    ExpSaturating,
    Hyperbolic,
    PowerCost,
    Trader,
    ZeroCost,
    curves,
    kernels,
    sample_population,
)
from infoload.cli import parse_config
from infoload.sweep import critical_imax_quantile

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up while defined
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = _load("tracer")
    for module_name, attr, _kind in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)
    for cls_name in tracer.CURVE_CLASSES:
        cls = getattr(curves, cls_name)
        assert {"value", "deriv"} <= set(vars(cls)), cls_name


@pytest.mark.parametrize("workload", ["sweep_cli", "market_cli", "agent_cli"])
def test_sampled_population_reads_as_traders(tmp_path, workload):
    # the workload checks take len, index and iterate the population, rescale a
    # trader's cost and hand the population to the quantile oracle
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_load("workloads").get(workload, "tiny").config))
    population = sample_population(parse_config(config, seed_override=3).population)
    n = len(population)
    trader = population[n - 1]
    assert isinstance(trader, Trader)
    assert all(type(value) is float for value in (trader.gain, trader.loss,
                                                  *vars(trader.success).values(),
                                                  *vars(trader.cost).values()))
    traders = list(population)
    assert len(traders) == n and traders[-1] == trader
    assert all(isinstance(t, Trader) for t in traders)
    scaled = dataclasses.replace(trader, cost=trader.cost.scaled(2.0))
    assert scaled.cost == trader.cost.scaled(2.0) and scaled.gain == trader.gain
    assert critical_imax_quantile(population, 0.5) == critical_imax_quantile(traders, 0.5)


def test_kernel_names_resolve():
    assert isinstance(kernels.BACKEND, str)
    assert callable(kernels.utility_grid) and callable(kernels.pure_python_utility_grid)


@pytest.mark.parametrize("success", [ExpSaturating(1.0), Hyperbolic(1.0)])
@pytest.mark.parametrize("cost", [PowerCost(0.1, 2.0), ExpGrowthCost(0.1, 1.0), ZeroCost()])
def test_kernel_codes_feed_the_kernel(success, cost):
    grid = np.linspace(0.0, 2.0, 5)
    util = kernels.utility_grid(grid, *success.kernel_code(), *cost.kernel_code(), 1.0, 1.0)
    assert util.shape == grid.shape and np.all(np.isfinite(util))
