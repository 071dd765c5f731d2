"""The package names the benchmark in ``perfbench/`` looks up still resolve.

``perfbench``'s own self-test would catch a renamed or removed name too, but
it runs whole CLI jobs and is not part of this suite; this check imports
nothing heavier than the package.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from infoload import ExpGrowthCost, ExpSaturating, Hyperbolic, PowerCost, ZeroCost, curves, kernels

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = _tracer()
    for module_name, attr, _kind in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)
    for cls_name in tracer.CURVE_CLASSES:
        cls = getattr(curves, cls_name)
        assert {"value", "deriv"} <= set(vars(cls)), cls_name


def test_kernel_names_resolve():
    assert isinstance(kernels.BACKEND, str)
    assert callable(kernels.utility_grid) and callable(kernels.pure_python_utility_grid)


@pytest.mark.parametrize("success", [ExpSaturating(1.0), Hyperbolic(1.0)])
@pytest.mark.parametrize("cost", [PowerCost(0.1, 2.0), ExpGrowthCost(0.1, 1.0), ZeroCost()])
def test_kernel_codes_feed_the_kernel(success, cost):
    grid = np.linspace(0.0, 2.0, 5)
    util = kernels.utility_grid(grid, *success.kernel_code(), *cost.kernel_code(), 1.0, 1.0)
    assert util.shape == grid.shape and np.all(np.isfinite(util))
