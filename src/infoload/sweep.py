"""Utility curves, efficiency phase sweeps and the critical information ceiling.

The phase boundary has a closed form: the market is efficient iff at least a
theta-fraction of agents have an unconstrained optimum at or above the ceiling,
so the critical ceiling is an order statistic of the population's optima.  The
sweeps solve each root once, sort the roots and count every ceiling by binary
search; the quantile keeps its own code (a plain sort and ``ceil(theta * n)``)
as the independent oracle the sweeps are validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from infoload.agent import (Population, Trader, _solve_scaled, check_i_max, solve_roots,
                            utility_on_grid)
from infoload.market import _fractions_at, check_theta, informed_fractions
from infoload.errors import ConfigError, NumericRangeError, PreconditionError

PhasePoint = Tuple[float, float, bool]  # (i_max, fraction_informed, efficient)


@dataclass
class UtilityCurve:
    trader: Trader
    grid: np.ndarray
    utilities: np.ndarray
    argmax_index: int

    @property
    def i_argmax(self) -> float:
        return float(self.grid[self.argmax_index])

    def sign_changes(self) -> int:
        """Number of sign changes in the first differences (Fig-3 shape check)."""
        diffs = np.diff(self.utilities)
        signs = np.sign(diffs[diffs != 0])
        return int(np.sum(signs[1:] != signs[:-1]))


@dataclass
class PhaseSeries:
    points: List[PhasePoint]
    critical_i_max: Optional[float]  # largest efficient ceiling, None if never efficient


@dataclass
class PhaseDiagram:
    i_max_grid: np.ndarray
    multipliers: np.ndarray
    fractions: np.ndarray  # shape (n_multipliers, n_i_max)
    efficient: np.ndarray  # bool, same shape
    critical_per_row: List[Optional[float]]


def utility_curve(trader: Trader, i_max: float, n_points: int) -> UtilityCurve:
    """Expected utility on a uniform grid over [0, i_max], argmax annotated."""
    check_i_max(i_max)
    if n_points < 2:
        raise ConfigError("sweep.n_points", f"must be >= 2, got {n_points}")
    grid = np.linspace(0.0, i_max, n_points)
    util = utility_on_grid(trader, grid)
    return UtilityCurve(trader=trader, grid=grid, utilities=util,
                        argmax_index=int(np.argmax(util)))


def check_grid(field: str, values: Sequence[float]) -> List[float]:
    """Return ``values`` as a list; raise a config error naming ``field`` unless
    they are non-empty, strictly increasing, positive and finite."""
    grid = list(values)
    if len(grid) == 0 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(field, "grid must be non-empty and strictly increasing")
    if not all(math.isfinite(v) and v > 0 for v in grid):
        raise ConfigError(field, "grid values must be positive finite reals")
    return grid


def _series(grid: List[float], fractions: Sequence[float], theta: float) -> PhaseSeries:
    # non-increasing fractions make the efficient ceilings a prefix of the grid
    if any(not b <= a for a, b in zip(fractions, fractions[1:])):
        raise NumericRangeError("phase series violates fraction monotonicity")
    points: List[PhasePoint] = [(i_max, frac, bool(frac >= theta))
                                for i_max, frac in zip(grid, fractions)]
    critical = max((i_max for i_max, _, eff in points if eff), default=None)
    return PhaseSeries(points=points, critical_i_max=critical)


def sweep_imax(traders: Sequence[Trader], i_max_grid: Sequence[float],
               theta: float) -> PhaseSeries:
    """Fraction informed and efficiency verdict at every ceiling, and the boundary."""
    grid = check_grid("sweep.i_max_grid", i_max_grid)
    check_theta(theta)
    return _series(grid, informed_fractions(traders, grid), theta)


def critical_imax_quantile(traders: Sequence[Trader], theta: float) -> Optional[float]:
    """Exact phase boundary: the ceil(theta*n)-th largest unconstrained optimum.

    Returns inf for populations efficient at any finite ceiling and None when
    the boundary sits at 0 (never efficient).
    """
    check_theta(theta)
    if len(traders) == 0:
        raise PreconditionError("trader collection must be non-empty")
    i_us = sorted(solve_roots(traders).tolist(), reverse=True)
    k = math.ceil(theta * len(i_us))
    value = i_us[k - 1]
    return None if value == 0.0 else value


def sweep_2d(traders: Sequence[Trader], i_max_grid: Sequence[float],
             multipliers: Sequence[float], theta: float) -> PhaseDiagram:
    """Phase diagram over (information ceiling, cost-scale multiplier).

    Row r is ``sweep_imax`` of the traders with every cost scale times
    ``multipliers[r]``; all rows' roots come from one solve on scaled columns.
    """
    mults = check_grid("sweep.cost_multiplier_grid", multipliers)
    grid = check_grid("sweep.i_max_grid", i_max_grid)
    check_theta(theta)

    rows = [_series(grid, _fractions_at(roots, grid), theta)
            for roots in _solve_scaled(Population.from_traders(traders), mults)]
    return PhaseDiagram(
        i_max_grid=np.asarray(grid, dtype=float),
        multipliers=np.asarray(mults, dtype=float),
        fractions=np.asarray([[p[1] for p in row.points] for row in rows], dtype=float),
        efficient=np.asarray([[p[2] for p in row.points] for row in rows], dtype=bool),
        critical_per_row=[row.critical_i_max for row in rows],
    )
