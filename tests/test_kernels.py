import numpy as np

from infoload import (ExpGrowthCost, ExpSaturating, Hyperbolic, PowerCost, Trader,
                      expected_utility, kernels, marginal_utility)
from infoload.agent import utility_on_grid

from conftest import random_trader

# float64 expm1 overflows above about 709.78, so rate 2.0 is finite up to
# i = 354.89 and +inf from 354.9; a cubic cost overflows from about i = 5.6e102
EDGE_GRIDS = (
    (ExpGrowthCost(0.01, 2.0), [0.0, 349.5, 350.0, 352.5, 354.89, 354.9, 1e6]),
    (PowerCost(1.0, 3.0), [0.0, 1e100, 1e103, 1e300]),
)


def test_kernel_matches_scalar_path(rng):
    cases = [(random_trader(rng), np.linspace(0.0, rng.uniform(1.0, 30.0), 101))
             for _ in range(50)]
    cases += [(Trader(1.0, 1.0, success, cost), np.array(grid))
              for cost, grid in EDGE_GRIDS
              for success in (ExpSaturating(1.0), Hyperbolic(1.0))]
    for trader, grid in cases:
        marginal = kernels.marginal_utility_grid(grid, *trader.success.kernel_code(),
                                                 *trader.cost.kernel_code(),
                                                 trader.gain, trader.loss)
        for vectorized, scalar_path in ((utility_on_grid(trader, grid), expected_utility),
                                        (marginal, marginal_utility)):
            scalar = np.array([scalar_path(trader, float(i)) for i in grid])
            np.testing.assert_allclose(vectorized, scalar, rtol=1e-10, atol=1e-10)
