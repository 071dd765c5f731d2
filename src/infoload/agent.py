"""Single-trader expected utility and optimal-information solving.

A trader picks the information level maximizing
``lambda(i) * W - (1 - lambda(i)) * L - xi(i)`` on [0, i_max].  The marginal
utility ``g(i) = lambda'(i) * (W + L) - xi'(i)`` is strictly decreasing for any
non-zero cost curve, so the constrained optimum is ``min(i_u, i_max)`` where
``i_u`` is the unique root of g (or 0 when g(0) <= 0).  ``solve_roots`` finds
the roots of a whole population at once, by bracket doubling and bisection on
numpy arrays down to adjacent floats; ``unconstrained_optimum`` is one
trader's root as a float.  A ``Population`` holds many traders as float64
columns of kernel codes and parameters; the solver, ``constrain`` and
``Population.utility`` read the columns directly, a ``Trader`` sequence is
turned into columns once, and indexing rebuilds a trader's curves with
``curves.from_kernel_code``.  A brute-force grid search over the same interval
serves as an independent verifier.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import Optional, Tuple

import numpy as np

from infoload import kernels
from infoload.curves import (COST_FAMILIES, SUCCESS_FAMILIES, CostCurve, SuccessCurve,
                             from_kernel_code)
from infoload.errors import NumericRangeError, ParameterError

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
        if not math.isfinite(self.gain + self.loss):
            raise ParameterError(f"gain + loss must be finite, got {self.gain!r} + {self.loss!r}")


class Regime(str, enum.Enum):
    CORNER_ZERO = "corner_zero"
    INTERIOR = "interior"
    FULLY_INFORMED = "fully_informed"


@dataclass(frozen=True, eq=False)
class Population(Sequence):
    """Traders as columns: entry k of every array describes trader k.

    Codes and parameters are those of ``kernel_code()``, so a zero-cost
    trader has cost scale and cost param 0.0.  Indexing (and so iteration)
    gives validated ``Trader``s with Python floats, their curves looked up in
    the ``curves`` family registries.  ``sample_population`` and
    ``from_traders`` build populations from validated inputs.
    """

    gain: np.ndarray
    loss: np.ndarray
    success_code: np.ndarray
    success_param: np.ndarray
    cost_code: np.ndarray
    cost_scale: np.ndarray
    cost_param: np.ndarray

    @classmethod
    def from_traders(cls, traders: Sequence[Trader]) -> Population:
        """The columns of a ``Trader`` sequence; a ``Population`` is returned as it is."""
        if isinstance(traders, Population):
            return traders
        rows = np.array([(t.gain, t.loss, *t.success.kernel_code(), *t.cost.kernel_code())
                         for t in traders], dtype=np.float64).reshape(-1, 7)
        gain, loss, s_code, s_param, c_code, c_scale, c_param = rows.T
        return cls(gain, loss, s_code.astype(int), s_param, c_code.astype(int), c_scale, c_param)

    def __len__(self) -> int:
        return len(self.gain)

    def __getitem__(self, k) -> Trader:
        k = range(len(self))[operator.index(k)]
        gain, loss, s_code, s_param, c_code, c_scale, c_param = (
            getattr(self, f.name)[k].item() for f in fields(self))
        return Trader(gain, loss, from_kernel_code(SUCCESS_FAMILIES, s_code, s_param),
                      from_kernel_code(COST_FAMILIES, c_code, c_scale, c_param))

    def families(self):
        """(success code, cost code, agent indices) of every curve-family pair present."""
        for s_code in np.unique(self.success_code).tolist():
            success = self.success_code == s_code
            for c_code in np.unique(self.cost_code[success]).tolist():
                yield s_code, c_code, np.flatnonzero(success & (self.cost_code == c_code))

    def utility(self, i) -> np.ndarray:
        """Expected utility of trader k at level ``i[k]`` (or at ``i`` for all), by the kernel."""
        i = np.broadcast_to(np.asarray(i, dtype=np.float64), (len(self),))
        out = np.empty(len(self))
        for s_code, c_code, agents in self.families():
            out[agents] = kernels.utility_grid(
                i[agents], s_code, self.success_param[agents], c_code,
                self.cost_scale[agents], self.cost_param[agents],
                self.gain[agents], self.loss[agents])
        return out


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
    return kernels.expected_return(lambda_value, gain, loss)


def _kernel_args(trader: Trader) -> tuple:
    """The kernel arguments after the levels: codes, parameters, gain and loss."""
    return (*trader.success.kernel_code(), *trader.cost.kernel_code(), trader.gain, trader.loss)


def expected_utility(trader: Trader, i: float) -> float:
    """Expected utility at information level i: expected return net of elaboration cost."""
    return utility_on_grid(trader, [i]).item()


def marginal_utility(trader: Trader, i: float) -> float:
    """d/di of expected utility; strictly decreasing for non-zero cost curves."""
    return kernels.marginal_utility_grid([i], *_kernel_args(trader)).item()


def solve_roots(traders: Sequence[Trader]) -> np.ndarray:
    """Unconstrained optimum ``i_u`` of every trader, as one float64 array.

    ``i_u`` is the largest float at which the marginal utility g (the kernel
    ``marginal_utility_grid``) is positive; at that float g > 0 and at the next
    float g <= 0.  Zero cost gives +inf (g never turns negative) and
    g(0) <= 0 gives 0.  Each trader's root depends only on that trader.
    """
    return _solve_scaled(Population.from_traders(traders), (1.0,))[0]


def _solve_scaled(population: Population, multipliers) -> np.ndarray:
    """Roots with every cost scale times each multiplier, shape (len(multipliers), n).

    The traders of one curve-family pair, under every multiplier, are one set
    of parameter columns and one ``_sign_change`` call.
    """
    c_scale = np.multiply.outer(np.asarray(multipliers, dtype=np.float64), population.cost_scale)
    roots = np.full(c_scale.shape, math.inf)  # zero cost: g > 0 everywhere
    for s_code, c_code, agents in population.families():
        if c_code == kernels.COST_ZERO:
            continue
        cols = [c.ravel() for c in np.broadcast_arrays(
            population.success_param[agents], c_scale[:, agents], population.cost_param[agents],
            population.gain[agents], population.loss[agents])]

        def g(i):
            return kernels.marginal_utility_grid(i, s_code, cols[0], c_code, *cols[1:])

        # g(0) <= 0: the optimum is the origin; entry p of a column is agents[p % len(agents)]
        family = np.where(g(0.0) > 0.0, _sign_change(g, np.resize(agents, len(cols[0]))), 0.0)
        roots[:, agents] = family.reshape(-1, len(agents))
    return roots


def _sign_change(g, agents: np.ndarray) -> np.ndarray:
    """Largest float with g > 0, elementwise, for decreasing g.

    The bracket [lo, hi] starts at [0, 1] and hi doubles while g(hi) > 0, so
    g(lo) > 0 >= g(hi) wherever g(0) > 0.  Bisection then halves the distance
    between the float64 bit patterns of lo and hi (ordered like the
    non-negative floats they encode) until they are adjacent floats, in at
    most 63 steps.  ``agents`` names each entry in errors.
    """
    hi = np.ones(len(agents))
    while True:
        up = g(hi) > 0.0
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
        up = g(mid.view(np.float64)) > 0.0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return lo.view(np.float64)


def unconstrained_optimum(trader: Trader) -> float:
    """One trader's root ``i_u``, by ``solve_roots``: +inf for a zero cost curve."""
    return solve_roots([trader]).item()


def check_i_max(i_max: float) -> None:
    if not (math.isfinite(i_max) and i_max > 0):
        raise ParameterError(f"i_max must be a positive finite real, got {i_max!r}")


def constrain(population: Population, i_max: float,
              i_u: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimum ``i_star = min(i_u, i_max)`` of every trader, its utility and regime.

    ``i_u`` holds the traders' roots.  A root at or above the ceiling (+inf
    included) is fully informed at ``i_max``, a root at or below 0 is the
    corner 0, any other is interior.  Regimes are ``Regime`` values as str.
    """
    fully, corner = i_u >= i_max, i_u <= 0.0
    i_star = np.where(fully, i_max, np.where(corner, 0.0, i_u))
    regime = np.where(fully, Regime.FULLY_INFORMED.value,
                      np.where(corner, Regime.CORNER_ZERO.value, Regime.INTERIOR.value))
    return i_star, population.utility(i_star), regime


def optimize_information(trader: Trader, i_max: float) -> AgentOutcome:
    """Constrained optimum on [0, i_max]: min(i_u, i_max), with regime labels."""
    check_i_max(i_max)
    population = Population.from_traders([trader])
    i_u = solve_roots(population)
    (i_star,), (u_star,), (regime,) = (a.tolist() for a in constrain(population, i_max, i_u))
    return AgentOutcome(i_star=i_star, u_star=u_star, regime=Regime(regime),
                        fully_informed=regime == Regime.FULLY_INFORMED,
                        i_unconstrained=i_u.item())


def utility_on_grid(trader: Trader, grid: np.ndarray) -> np.ndarray:
    """Expected utility at every grid point, by the numpy kernel."""
    return kernels.utility_grid(grid, *_kernel_args(trader))


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
    check_i_max(i_max)
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
