"""Utility curves, efficiency phase sweeps, the critical information ceiling and
conjecture 3.

The phase boundary has a closed form: the market is efficient iff at least a
theta-fraction of agents have an unconstrained optimum at or above the ceiling,
so the critical ceiling is an order statistic of the population's optima.
``sweep_2d``, the one path to a phase series, counts each trader's ceilings with
g > 0 by ``agent.sign_walk``, the solver's sign search, and keeps only the phase
arithmetic; ``sweep_imax`` and
``check_conjecture3`` read its multiplier-1.0 row.  The quantile keeps its own code
(``solve_roots``, a sort and the smallest k with k / n >= theta) as the independent
oracle the sweeps are validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from infoload import curves, kernels
from infoload.agent import (Population, Trader, check_i_max, sign_walk, solve_roots,
                            utility_on_grid)
from infoload.market import ConjectureVerdict, check_grid, check_theta
from infoload.errors import ConfigError, ParameterError, PreconditionError

PhasePoint = Tuple[float, float, bool]  # (i_max, fraction_informed, efficient)
DIVERGENCE_BOUND = -1e6  # conjecture 3: utility at the last ceiling falls below this
# the most rows sweep_2d walks (agents times multipliers): a row's scaled cost and walk
# arrays take about 100 B, 150 B under one multiplier, so at most about 150 MB.  Its phase
# cells (multipliers times one more than the ceilings) are held to it too: the counts,
# their cumsum and the fractions take about 24 B a cell, so at most about 24 MB
MAX_SCALED_ROWS = 10**6


@dataclass
class UtilityCurve:
    trader: Trader
    grid: np.ndarray
    utilities: np.ndarray
    argmax_index: int


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


def sweep_imax(traders: Sequence[Trader], i_max_grid: Sequence[float],
               theta: float) -> PhaseSeries:
    """Fraction informed and efficiency verdict at every ceiling, and the boundary:
    the multiplier-1.0 row of ``sweep_2d``."""
    diagram = sweep_2d(traders, i_max_grid, [1.0], theta)
    points = list(zip(diagram.i_max_grid.tolist(), diagram.fractions[0].tolist(),
                      diagram.efficient[0].tolist()))
    return PhaseSeries(points=points, critical_i_max=diagram.critical_per_row[0])


def critical_imax_quantile(traders: Sequence[Trader], theta: float) -> Optional[float]:
    """Exact phase boundary: the k-th largest unconstrained optimum, for the
    smallest k with ``k / n >= theta`` (the comparison ``run_market`` makes).

    Returns inf for populations efficient at any finite ceiling and None when
    the boundary sits at 0 (never efficient).
    """
    check_theta(theta)
    if len(traders) == 0:
        raise PreconditionError("trader collection must be non-empty")
    i_us = sorted(solve_roots(traders).tolist(), reverse=True)
    n = len(i_us)
    # theta * n may round up past an integer (0.07 * 100): start one below its ceiling
    k = next(k for k in range(max(1, math.ceil(theta * n) - 1), n + 1) if k / n >= theta)
    value = i_us[k - 1]
    return None if value == 0.0 else value


def sweep_2d(traders: Sequence[Trader], i_max_grid: Sequence[float],
             multipliers: Sequence[float], theta: float) -> PhaseDiagram:
    """Phase diagram over (information ceiling, cost-scale multiplier).

    Row r is the phase series of the traders with every cost scale times ``multipliers[r]``.
    As g is strictly decreasing, ``count(i_u >= c)``, what ``run_market`` counts without
    its participation rule, is ``count(g(c) > 0)``: every trader is counted.
    ``agent.sign_walk`` sets each trader's count of such ceilings under every multiplier at
    once, in ``len(grid).bit_length()`` signs of h per family pair, and one ``bincount``
    turns the counts into each row's fractions.  A multiplier that takes a cost scale out
    of its domain is a ``ConfigError`` naming it and the agent, and so are more than
    ``MAX_SCALED_ROWS`` rows (agents times multipliers) or phase cells (multipliers times
    one more than the ceilings), both checked before any row is built.
    """
    mults = check_grid("sweep.cost_multiplier_grid", multipliers)
    grid = np.asarray(check_grid("sweep.i_max_grid", i_max_grid), dtype=np.float64)
    check_theta(theta)
    population = Population.from_traders(traders)
    if len(population) == 0:
        raise PreconditionError("trader collection must be non-empty")
    n, top = len(population), len(grid)
    if n * len(mults) > MAX_SCALED_ROWS:
        raise ConfigError("sweep.cost_multiplier_grid", f"{len(mults)} multipliers times {n} "
                          f"agents must be at most {MAX_SCALED_ROWS} rows")
    if len(mults) * (top + 1) > MAX_SCALED_ROWS:
        raise ConfigError("sweep.cost_multiplier_grid, sweep.i_max_grid",
                          f"{len(mults)} multipliers times {top} ceilings and one more must "
                          f"be at most {MAX_SCALED_ROWS} phase cells")
    with np.errstate(over="ignore"):
        c_scale = np.multiply.outer(mults, population.cost_scale)
    try:
        curves.check_columns(cost_code=np.tile(population.cost_code, len(mults)),
                             cost_scale=c_scale.ravel())
    except ParameterError as error:  # row r * n + k is agent k under multiplier r
        raise ConfigError("sweep.cost_multiplier_grid", f"multiplier {mults[error.agent // n]!r}, "
                          f"agent {error.agent % n}: {error.message}")
    # a count past the grid probes its end, and a zero-cost trader's +inf bits clamp to top
    counts = sign_walk(population, lambda k: grid[np.minimum(k, top) - 1], top.bit_length(), mults)
    # by_count[r, c]: the traders of row r with g > 0 at c ceilings (top: at every one)
    by_count = np.bincount((np.minimum(counts, top) + np.arange(len(mults))[:, None] * (top + 1))
                           .ravel(), minlength=len(mults) * (top + 1)).reshape(-1, top + 1)
    fractions = np.cumsum(by_count[:, :0:-1], axis=1)[:, ::-1] / n
    efficient = fractions >= theta  # a prefix of each row, as the fractions never rise
    return PhaseDiagram(
        i_max_grid=grid,
        multipliers=np.asarray(mults, dtype=float),
        fractions=fractions,
        efficient=efficient,
        critical_per_row=[grid[k - 1].item() if k else None for k in efficient.sum(1).tolist()],
    )


def check_conjecture3(traders: Sequence[Trader], theta: float,
                      i_max_schedule: Sequence[float]) -> ConjectureVerdict:
    """Unbounded information: everyone overloads and utility diverges to -inf."""
    population = Population.from_traders(traders)
    costless = np.flatnonzero(population.cost_code == kernels.COST_ZERO)
    if costless.size:
        raise PreconditionError(f"agent {costless[0]} has a zero cost curve")
    schedule = check_grid("i_max_schedule", i_max_schedule)
    if len(schedule) < 10:
        raise PreconditionError(f"i_max_schedule: needs >= 10 ceilings, got {len(schedule)}")

    fractions = sweep_2d(population, schedule, [1.0], theta).fractions[0].tolist()
    ceiling_utils = [population.utility(i_max).max().item() for i_max in schedule]

    problems = []
    if fractions[-1] != 0.0:
        problems.append(f"fraction_informed at final ceiling is {fractions[-1]}, not 0")
    tail = ceiling_utils[-3:]
    if not all(b < a for a, b in zip(tail, tail[1:])):
        problems.append("ceiling utility not eventually decreasing")
    if not ceiling_utils[-1] < DIVERGENCE_BOUND:
        problems.append(f"ceiling utility {ceiling_utils[-1]} not below {DIVERGENCE_BOUND}")
    return ConjectureVerdict.from_problems(
        "conjecture3", problems,
        f"fraction_informed falls to 0 and ceiling utility reaches "
        f"{ceiling_utils[-1]:.4g} over {len(schedule)} ceilings")
