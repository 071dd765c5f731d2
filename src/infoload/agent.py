"""Single-trader expected utility and optimal-information solving.

A trader picks the information level maximizing
``lambda(i) * W - (1 - lambda(i)) * L - xi(i)`` on [0, i_max].  The marginal
utility ``g(i) = lambda'(i) * (W + L) - xi'(i)`` is strictly decreasing for any
non-zero cost curve, so the constrained optimum is ``min(i_u, i_max)`` where
``i_u`` is the unique root of g (or 0 when g(0) <= 0).  A brute-force grid
search over the same interval serves as an independent verifier.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from infoload import kernels
from infoload.curves import CostCurve, SuccessCurve, ZeroCost
from infoload.errors import NumericRangeError, ParameterError

ROOT_RTOL = 1e-9
DEFAULT_ORACLE_STEP = 1e-4


@dataclass(frozen=True)
class Trader:
    """Risk-neutral trader: payoff pair plus success and cost curves."""

    gain: float
    loss: float
    success: SuccessCurve
    cost: CostCurve

    def __post_init__(self):
        for name, v in (("gain", self.gain), ("loss", self.loss)):
            if not (math.isfinite(v) and v > 0):
                raise ParameterError(f"{name} must be a positive finite dollar amount, got {v!r}")


class Regime(str, enum.Enum):
    CORNER_ZERO = "corner_zero"
    INTERIOR = "interior"
    FULLY_INFORMED = "fully_informed"


@dataclass(frozen=True)
class UnconstrainedOptimum:
    """Root of the marginal utility; unbounded iff the cost curve is zero."""

    unbounded: bool
    i_value: Optional[float] = None

    def as_float(self) -> float:
        """Unbounded maps to +inf for order statistics and comparisons."""
        return math.inf if self.unbounded else self.i_value


@dataclass(frozen=True)
class AgentOutcome:
    i_star: float
    u_star: float
    regime: Regime
    fully_informed: bool
    i_unconstrained: Optional[float] = None  # +inf when unbounded; None for grid oracle


def expected_return(lambda_value: float, gain: float, loss: float) -> float:
    """Expected dollar return of the two-outcome bet at success probability lambda."""
    if not 0.0 <= lambda_value <= 1.0:
        raise ParameterError(f"success probability must lie in [0, 1], got {lambda_value!r}")
    return lambda_value * gain - (1.0 - lambda_value) * loss


def expected_utility(trader: Trader, i: float) -> float:
    """Expected utility at information level i: expected return net of elaboration cost."""
    lam = trader.success.value(i)
    return lam * trader.gain - (1.0 - lam) * trader.loss - trader.cost.value(i)


def marginal_utility(trader: Trader, i: float) -> float:
    """d/di of expected utility; strictly decreasing for non-zero cost curves."""
    return trader.success.deriv(i) * (trader.gain + trader.loss) - trader.cost.deriv(i)


def unconstrained_optimum(trader: Trader) -> UnconstrainedOptimum:
    """Solve g(i) = 0 by bracket doubling plus Brent root finding.

    Zero cost makes g positive everywhere (unbounded optimum); g(0) <= 0 pins
    the optimum at the origin.
    """
    if isinstance(trader.cost, ZeroCost):
        return UnconstrainedOptimum(unbounded=True)

    def g(i):
        return marginal_utility(trader, i)

    if g(0.0) <= 0.0:
        return UnconstrainedOptimum(unbounded=False, i_value=0.0)

    hi = 1.0
    while g(hi) > 0.0:
        hi *= 2.0
        if hi > 1e300:
            raise NumericRangeError("bracket expansion overflowed while locating the optimum")
    root = brentq(g, hi / 2.0 if g(hi / 2.0) > 0 else 0.0, hi, xtol=1e-12, rtol=ROOT_RTOL)
    return UnconstrainedOptimum(unbounded=False, i_value=float(root))


def optimize_information(trader: Trader, i_max: float) -> AgentOutcome:
    """Constrained optimum on [0, i_max]: min(i_u, i_max), with regime labels."""
    if not (math.isfinite(i_max) and i_max > 0):
        raise ParameterError(f"i_max must be a positive finite real, got {i_max!r}")
    i_u = unconstrained_optimum(trader).as_float()
    if i_u >= i_max:
        i_star, regime = i_max, Regime.FULLY_INFORMED
    elif i_u <= 0.0:
        i_star, regime = 0.0, Regime.CORNER_ZERO
    else:
        i_star, regime = i_u, Regime.INTERIOR
    return AgentOutcome(
        i_star=i_star,
        u_star=expected_utility(trader, i_star),
        regime=regime,
        fully_informed=regime is Regime.FULLY_INFORMED,
        i_unconstrained=i_u,
    )


def utility_on_grid(trader: Trader, grid: np.ndarray) -> np.ndarray:
    """Expected utility at every grid point, by the numpy kernel."""
    s_code, s_param = trader.success.kernel_code()
    c_code, c_scale, c_param = trader.cost.kernel_code()
    return kernels.utility_grid(grid, s_code, s_param, c_code, c_scale, c_param,
                                trader.gain, trader.loss)


def information_grid(i_max: float, step: float) -> np.ndarray:
    """Inclusive grid {0, step, 2*step, ..., i_max}."""
    n = int(math.floor(i_max / step + 1e-9))
    grid = step * np.arange(n + 1, dtype=np.float64)
    if grid[-1] < i_max - 1e-12 * max(1.0, i_max):
        grid = np.append(grid, i_max)
    else:
        grid[-1] = min(grid[-1], i_max)
    return grid


def grid_oracle(trader: Trader, i_max: float, step: float = DEFAULT_ORACLE_STEP) -> AgentOutcome:
    """Brute-force argmax of expected utility on a uniform grid (ties: smallest i)."""
    if not (0 < step <= i_max):
        raise ParameterError(f"step must satisfy 0 < step <= i_max, got {step!r}")
    grid = information_grid(i_max, step)
    util = utility_on_grid(trader, grid)
    best = int(np.argmax(util))  # argmax returns the first maximizer
    if best == 0:
        regime = Regime.CORNER_ZERO
    elif best == len(grid) - 1:
        regime = Regime.FULLY_INFORMED
    else:
        regime = Regime.INTERIOR
    return AgentOutcome(
        i_star=float(grid[best]),
        u_star=float(util[best]),
        regime=regime,
        fully_informed=regime is Regime.FULLY_INFORMED,
    )
