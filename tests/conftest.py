import math

import mpmath
import numpy as np
import pytest
from hypothesis import strategies as st

from infoload import (
    ExpGrowthCost,
    ExpSaturating,
    Hyperbolic,
    PowerCost,
    Trader,
    ZeroCost,
)
from infoload import kernels


def random_trader(rng, cost_family=None):
    """Random valid trader spanning both success families and all cost families."""
    gain = rng.uniform(0.5, 5.0)
    loss = rng.uniform(0.5, 5.0)
    if rng.random() < 0.5:
        success = ExpSaturating(rng.uniform(0.3, 3.0))
    else:
        success = Hyperbolic(rng.uniform(0.3, 3.0))
    family = cost_family or rng.choice(["power", "exp_growth", "zero"], p=[0.5, 0.35, 0.15])
    if family == "power":
        cost = PowerCost(rng.uniform(0.01, 5.0), rng.uniform(1.5, 3.0))
    elif family == "exp_growth":
        cost = ExpGrowthCost(rng.uniform(0.01, 2.0), rng.uniform(0.3, 2.0))
    else:
        cost = ZeroCost()
    return Trader(gain, loss, success, cost)


@pytest.fixture
def reference_trader():
    """Interior-optimum trader with known i_u near 1.74553."""
    return Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(0.1, 2.0))


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


def log_uniform(lo, hi):
    """Floats 10**e for e drawn from [lo, hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# traders with parameters over 4 to 8 decades, every costly family pair: roots below 1,
# above 2 (where the solve probes 2**513, past exp's overflow) and at 0 (g(0) <= 0)
WIDE_TRADERS = st.lists(st.builds(
    Trader, log_uniform(-2, 2), log_uniform(-2, 2),
    st.one_of(st.builds(ExpSaturating, log_uniform(-3, 3)),
              st.builds(Hyperbolic, log_uniform(-3, 3))),
    st.one_of(st.builds(PowerCost, log_uniform(-4, 4), st.floats(1.05, 4.0)),
              st.builds(ExpGrowthCost, log_uniform(-4, 4), log_uniform(-2, 1)))),
    min_size=1, max_size=30)


def nan_h_at(position):
    """A ``kernels.h`` whose value is NaN at entry ``position`` of its values."""
    h = kernels.h

    def nan_at(*args):
        values = h(*args)
        values[position] = math.nan
        return values
    return nan_at


@mpmath.workprec(1200)  # holds W + L exactly when gain and loss lie within 1e±150 of 1
def exact_h(trader, i):
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
