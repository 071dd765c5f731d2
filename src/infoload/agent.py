"""Single-trader expected utility and optimal-information solving.

A trader picks the information level maximizing
``lambda(i) * W - (1 - lambda(i)) * L - xi(i)`` on [0, i_max].  The marginal
utility ``g(i) = lambda'(i) * (W + L) - xi'(i)`` is strictly decreasing for any
non-zero cost curve, so the constrained optimum is ``min(i_u, i_max)`` where
``i_u`` is the unique root of g (or 0 when g(0) <= 0).  ``solve_roots`` finds
the roots of a whole population at once, in numpy arrays, by setting each
root's float64 bit pattern one bit at a time from the top, 63 signs of g per
family pair read in log space (``kernels.log_marginal_ratio``) by ``sign_walk``;
``unconstrained_optimum`` is one trader's root as a float.  A
``Population`` holds many traders as checked columns of kernel codes and
parameters; the solver, ``constrain`` and ``Population.utility`` read the
columns directly, a ``Trader`` sequence is turned into columns once, and
indexing rebuilds a trader's curves with ``curves.from_kernel_code``.  The
solver, the sweeps, ``Population.utility`` and the oracle's scan take their kernel
arguments from ``Population.families``.  A brute-force grid search over the same interval
serves as an independent verifier: ``grid_oracles`` reads the same columns and
returns the same ``(i_star, u_star, regime)`` columns as ``constrain``, and an
``AgentOutcome`` is one trader's row of them.  It uses nothing of the solver and
skips only grid points that cannot be a first maximizer.  The utility is
``W - (W + L) * (1 - lambda) - xi`` with ``1 - lambda`` non-increasing and ``xi``
non-decreasing, so a block of points between two scan points loses at least the
complement term at its end plus the cost at its start.  A strided scan that ends at
``i_max`` gives each trader an incumbent utility ``u_s`` and a window of the blocks
whose bounds do not rule them out, as in branch and bound; the window is kept only
when its own best utility reaches ``u_s``, else the trader gets the whole grid.  The
scan builds only its own grid points, and the grid with its ``log`` is built only as
far as the largest window's end, unless some trader needs the whole grid.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import Tuple

import numpy as np

from infoload import kernels
from infoload.curves import (COST_FAMILIES, SUCCESS_FAMILIES, CostCurve, SuccessCurve,
                             check_columns, check_level, from_kernel_code)
from infoload.errors import NumericRangeError, ParameterError

# grid_oracles scans each trader at every ORACLE_SCAN_STRIDE-th grid point and at i_max,
# and bounds the utility on each block of grid points between two scan points
ORACLE_SCAN_STRIDE = 256
# the relative error of a loss term that a block's bound allows for, above the kernel's 2**-42
ORACLE_TERM_ERROR = 2.0**-32
# the most points a grid may have (``_grid_size``): the oracle's grid, its log and its two
# work arrays take 32 B a point, so at most 320 MB; 100,001 at i_max 100 and step 1e-3
MAX_GRID_POINTS = 10**7


@dataclass(frozen=True)
class Trader:
    """Risk-neutral trader: payoff pair plus success and cost curves."""

    gain: float
    loss: float
    success: SuccessCurve
    cost: CostCurve

    def __post_init__(self):
        check_columns(gain=self.gain, loss=self.loss)


class Regime(str, enum.Enum):
    CORNER_ZERO = "corner_zero"
    INTERIOR = "interior"
    FULLY_INFORMED = "fully_informed"


# the regime codes of constrain and grid_oracles: 0 corner, 1 interior, 2 fully informed
_REGIMES = np.array([regime.value for regime in Regime])


@dataclass(frozen=True, eq=False)
class Population(Sequence):
    """Traders as columns: entry k of every array describes trader k.

    Codes and parameters are those of ``kernel_code()``, so a zero-cost
    trader has cost scale and cost param 0.0.  A Population holds its columns
    as arrays (``np.asarray``, so lists are accepted) and checks them (1-D, of
    one length, in their domains by ``curves.check_columns``), so indexing (and
    so iteration) gives each row as a ``Trader`` with Python floats, its curves
    looked up in the ``curves`` family registries.
    """

    gain: np.ndarray
    loss: np.ndarray
    success_code: np.ndarray
    success_param: np.ndarray
    cost_code: np.ndarray
    cost_scale: np.ndarray
    cost_param: np.ndarray

    def __post_init__(self):
        # a column given as a list becomes an array
        vars(self).update({name: np.asarray(column) for name, column in vars(self).items()})
        shapes = {name: column.shape for name, column in vars(self).items()}
        if set(shapes.values()) != {(self.gain.size,)}:
            raise ParameterError(f"columns must be 1-D arrays of one length, got shapes {shapes}")
        check_columns(**vars(self))

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
        """Each family pair present, codes ascending: its agent indices and the kernels'
        arguments after the levels, ``(s_code, s_param, c_code, c_scale, c_param, gain, loss)``.

        Fancy indexing selects those agents' rows as contiguous copies, which
        ``test_kernels_get_contiguous_arrays`` keeps so."""
        for s_code in np.flatnonzero(np.bincount(self.success_code)).tolist():
            success = self.success_code == s_code
            for c_code in np.flatnonzero(np.bincount(self.cost_code[success])).tolist():
                agents = np.flatnonzero(success & (self.cost_code == c_code))
                yield agents, (s_code, self.success_param[agents], c_code, self.cost_scale[agents],
                               self.cost_param[agents], self.gain[agents], self.loss[agents])

    def scaled(self, multipliers) -> Population:
        """The population once per multiplier: row ``r * len(self) + k`` is trader k with its
        cost scale times ``multipliers[r]``; a scale of 0 or +inf fails the columns' check."""
        with np.errstate(over="ignore"):
            c_scale = np.multiply.outer(multipliers, self.cost_scale)
        tiled = {f.name: np.tile(getattr(self, f.name), len(c_scale)) for f in fields(self)}
        return Population(**{**tiled, "cost_scale": c_scale.ravel()})

    def utility(self, i) -> np.ndarray:
        """Expected utility of trader k at level ``i[k]`` (or at ``i`` for all), by the kernel."""
        i = np.broadcast_to(np.asarray(i, dtype=np.float64), (len(self),))
        out = np.empty(len(self))
        for agents, args in self.families():
            out[agents] = kernels.utility_grid(i[agents], *args)
        return out


@dataclass(frozen=True)
class AgentOutcome:
    """One trader's row of ``constrain``'s columns: optimum, its utility and regime."""

    i_star: float
    u_star: float
    regime: Regime

    @property
    def fully_informed(self) -> bool:
        return self.regime is Regime.FULLY_INFORMED


def _first_row(columns) -> AgentOutcome:
    """Row 0 of ``(i_star, u_star, regime)`` columns, as Python values."""
    i_star, u_star, regime = (column[0].item() for column in columns)
    return AgentOutcome(i_star, u_star, Regime(regime))


def expected_return(lambda_value: float, gain: float, loss: float) -> float:
    """Expected dollar return of the two-outcome bet at success probability lambda."""
    if not 0.0 <= lambda_value <= 1.0:
        raise ParameterError(f"success probability must lie in [0, 1], got {lambda_value!r}")
    return float(lambda_value * gain - (1.0 - lambda_value) * loss)


def _kernel_args(trader: Trader) -> tuple:
    """The kernel arguments after the levels: codes, parameters, gain and loss."""
    return (*trader.success.kernel_code(), *trader.cost.kernel_code(), trader.gain, trader.loss)


def expected_utility(trader: Trader, i: float) -> float:
    """Expected utility at information level i: expected return net of elaboration cost.
    Like a curve's ``value``, it needs a finite, non-negative i."""
    check_level(i)
    return utility_on_grid(trader, [i]).item()


def marginal_utility(trader: Trader, i: float) -> float:
    """d/di of expected utility; strictly decreasing for non-zero cost curves.  Like a
    curve's ``deriv``, it needs a finite, non-negative i."""
    check_level(i)
    return kernels.marginal_utility_grid([i], *_kernel_args(trader)).item()


def sign_walk(population: Population, levels, bits: int, n: int = 0) -> np.ndarray:
    """Each trader's largest int64 ``k < 2**bits`` with h (``kernels.log_marginal_ratio``,
    with g's sign) positive at ``levels(k)``, levels non-decreasing in k; 0 where there is
    none, and the bits of +inf for zero cost.  The solve and the sweep share it.

    Bit b is kept where h is positive at the index found so far with bit b set, from the
    top: ``bits`` calls of h per costly family pair.  A NaN h raises ``NumericRangeError``
    after the pair's walk, naming its first such row as agent ``row % n`` (row ``r * n + k``
    of ``Population.scaled`` is trader k; ``n`` 0 names the row).
    """
    found = np.full(len(population), math.inf).view(np.int64)  # zero cost: g > 0 everywhere
    for agents, args in population.families():
        if args[2] == kernels.COST_ZERO:  # the cost code
            continue
        h_args = kernels.log_marginal_args(*args)
        lo, mid, step = np.zeros((3, len(agents)), dtype=np.int64)
        up, least = np.empty(len(agents), dtype=bool), np.zeros(len(agents))
        for bit in reversed(range(bits)):
            np.bitwise_or(lo, 1 << bit, out=mid)
            h = kernels.log_marginal_ratio(levels(mid), *h_args)
            np.minimum(least, h, out=least)  # NaN from h's first NaN on
            lo |= np.left_shift(np.greater(h, 0.0, out=up), bit, out=step)
        nan = np.flatnonzero(np.isnan(least))
        if nan.size:
            raise NumericRangeError(f"agent {agents[nan[0]] % (n or len(found))}: "
                                    "marginal utility is NaN")
        found[agents] = lo
    return found


def solve_roots(traders: Sequence[Trader]) -> np.ndarray:
    """Unconstrained optimum ``i_u`` of every trader, as one float64 array.

    ``i_u`` is the largest float at which h (``kernels.log_marginal_ratio``, with the
    sign of the marginal utility g) is positive; at the next float h <= 0.  Zero cost
    gives +inf (g never turns negative) and g(0) <= 0 gives 0.  Each trader's root
    depends only on that trader.  The non-negative float64s are ordered like their bit
    patterns, all below 2**63, so ``sign_walk`` sets each root's 63 bits; a probe at +inf
    gives h = -inf, and none is a NaN pattern, as its bits below the one it sets are 0.
    """
    return sign_walk(Population.from_traders(traders), lambda k: k.view(np.float64),
                     63).view(np.float64)


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
    i_star = np.minimum(np.maximum(i_u, 0.0), i_max)  # NaN stays NaN, and -0.0 becomes 0.0
    regime = _REGIMES[1 + (i_star == i_max) - (i_star == 0.0)]  # NaN is interior
    return i_star, population.utility(i_star), regime


def optimize_information(trader: Trader, i_max: float) -> AgentOutcome:
    """Constrained optimum on [0, i_max]: min(i_u, i_max), with regime labels."""
    check_i_max(i_max)
    population = Population.from_traders([trader])
    return _first_row(constrain(population, i_max, solve_roots(population)))


def utility_on_grid(trader: Trader, grid: np.ndarray) -> np.ndarray:
    """Expected utility at every grid point, by the numpy kernel."""
    return kernels.utility_grid(grid, *_kernel_args(trader))


def _grid_size(i_max: float, step: float) -> int:
    """The length of ``information_grid(i_max, step)``, by its rule, building no point:
    ``n = floor(i_max / step)`` steps, and i_max appended unless ``step * n`` is within
    rounding of it, where i_max replaces that point.  Checks i_max, then step and that the
    length is at most ``MAX_GRID_POINTS``."""
    check_i_max(i_max)
    if 0 < step <= i_max and math.isfinite(i_max / step):
        n = int(math.floor(i_max / step + 1e-9))
        size = n + 2 if step * n < i_max - 1e-12 * max(1.0, i_max) else n + 1
        if size <= MAX_GRID_POINTS:
            return size
    raise ParameterError(f"step must satisfy 0 < step <= i_max with a finite i_max / step and "
                         f"at most {MAX_GRID_POINTS} grid points, got step {step!r} for i_max "
                         f"{i_max!r}")


def _grid_points(i_max: float, step: float, k: np.ndarray) -> np.ndarray:
    """``information_grid(i_max, step)[k]`` bit for bit, for an integer-valued index array
    ``k``, building only those points: point k is ``step * k``, but the last point is i_max."""
    return np.where(k == _grid_size(i_max, step) - 1, i_max, step * k)


def information_grid(i_max: float, step: float) -> np.ndarray:
    """Inclusive grid {0, step, 2*step, ..., i_max}; its last point is always i_max.  It
    needs a finite ``i_max > 0`` and ``0 < step <= i_max`` with ``i_max / step`` finite and
    at most ``MAX_GRID_POINTS`` points, else it raises ``ParameterError``."""
    return _grid_points(i_max, step, np.arange(_grid_size(i_max, step), dtype=np.float64))


@np.errstate(over="ignore", divide="ignore")  # log 0 is -inf, where a power cost is 0
def _oracle_windows(population: Population, i_max: float,
                    step: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each trader's window ``grid[start:stop]`` and the utility ``u_s`` that must prove it
    (``grid_oracles``).

    The scan points are every ``ORACLE_SCAN_STRIDE``-th grid point and the last, i_max;
    only they and their ``log`` are built, by ``_grid_points`` from the positions that also
    give the blocks' edges.  One 2-D ``utility_grid`` call per family pair evaluates them
    for all of its traders, the costs landing in its second array, and ``u_s`` is a
    trader's best scan utility.  Then the utility array takes the complement
    ``1 - lambda`` from one ``success_complement`` call, and the two arrays become the
    bound of each block of grid points between two consecutive scan points (the first
    block also holds point 0).  The window starts at the first block whose bound is not
    below ``u_s`` and ends with the last block whose bound is above it, and it holds the
    block of the first best scan point.
    """
    size = _grid_size(i_max, step)
    position = np.append(np.arange(0, size - 1, ORACLE_SCAN_STRIDE), size - 1)
    log_scan = np.log(scan := _grid_points(i_max, step, position))
    first_point, end_point = np.append(0, position[1:-1] + 1), position[1:] + 1
    start, stop = np.empty((2, len(population)), dtype=np.intp)
    incumbent = np.empty(len(population))
    for agents, (s_code, s_param, c_code, c_scale, c_param, gain, loss) in population.families():
        util, cost = np.empty((2, len(agents), len(scan)))
        kernels.utility_grid(scan, s_code, s_param[:, None], c_code, c_scale[:, None],
                             c_param[:, None], gain[:, None], loss[:, None], out=(util, cost),
                             log_grid=log_scan)
        rows = np.arange(len(agents))
        b_s = util.argmax(axis=1)  # the first maximizer
        u_s = util[rows, b_s][:, None]
        # lower bounds on the loss terms: T * c at each scan point into util, xi into cost; a
        # term below its family's threshold or infinite counts as 0, the least it can be
        stake = gain + loss
        kernels.success_complement(scan, s_code, s_param[:, None], out=util)
        util *= (stake * (1.0 - ORACLE_TERM_ERROR))[:, None]
        np.copyto(util, 0.0, where=util < 2.0**-1000 * (1.0 + stake.max()))
        np.copyto(cost, 0.0, where=(cost < 2.0**-1000 * (1.0 + c_scale.max())) | (cost == math.inf))
        cost *= 1.0 - ORACLE_TERM_ERROR
        # block k ends at scan point k + 1, where its complement term is, and its cost term is
        # at scan point k: one flat subtraction, whose column 0 is no block's
        np.subtract(gain[:, None], util, out=util)
        np.subtract(util.reshape(-1)[1:], cost.reshape(-1)[:-1], out=util.reshape(-1)[1:])
        bound = util[:, 1:]
        held = np.maximum(b_s - 1, 0)  # the block of the first best scan point
        below = bound < u_s
        first = np.minimum(below.argmin(axis=1), held)  # argmin: the first False
        np.less_equal(bound, u_s, out=below)
        last = bound.shape[1] - 1 - below[:, ::-1].argmin(axis=1)
        last = np.where(below[rows, last], held, np.maximum(last, held))
        start[agents], stop[agents] = first_point[first], end_point[last]
        incumbent[agents] = u_s[:, 0]
    return start, stop, incumbent


@np.errstate(over="ignore", divide="ignore")  # log 0 is -inf, where a power cost is 0
def grid_oracles(traders: Sequence[Trader], i_max: float,
                 step: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brute-force argmax of expected utility on a uniform grid (ties: smallest i) of
    every trader, as ``constrain``'s columns ``(i_star, u_star, regime)``.

    Each trader's kernel call evaluates one window of the grid, set by ``_oracle_windows``
    from a strided scan that ends at i_max, as in branch and bound, and the window is kept
    only when the utility ``u_p`` of its own first maximizer has ``u_p >= u_s``, the
    trader's best scan utility; otherwise that trader gets the whole grid.  Every point
    before the window lies in a block whose bound is below ``u_s``, so below ``u_p``, and
    every point after it in a block whose bound is at most ``u_s``, so it can at most tie
    the window's maximizer, which comes first: the argmax keeps it.  NaN fails the comparison, so it
    takes the whole grid.  ``u_s`` serves only as the threshold: no bit of the scan's
    values enters the proof.  The bound of a block of points ``(a, b]`` between two scan
    points (the first block also holds point 0, which is a):

    - With ``T = fl(W + L)``, the computed complement ``c = 1 - lambda`` and the computed
      cost ``xi``, all non-negative, the kernel's utility is ``fl(fl(W - fl(T * c)) - xi)``.
      Rounding is monotone, so if ``0 <= L1 <= fl(T * c)`` and ``0 <= L2 <= xi`` at every
      point of the block, each of its utilities, in any kernel call, is at most the bound
      ``fl(fl(W - L1) - L2)``.  So the margins below are relative to the loss terms, not
      to ``W``, and a trader whose utility rounds to ``W`` keeps its bound ``W``.
    - The exact complement is non-increasing and the exact cost non-decreasing in i (the
      domains in ``curves.BOUNDS``), so in the block they are at least their values at b
      and at a.
    - The complement: ``exp(-r * i)`` has one rounded argument, so like the cost below it
      is within ``(|x| + 2) * 2**-52`` relative of the exact value, with ``x = r * i``
      below 746 where that is normal; ``k / (i + k)`` is two correctly rounded operations,
      within ``2**-51`` relative where it is normal.  Both are within ``2**-42``.  ``L1``
      is ``P = fl(fl(T * (1 - 2**-32)) * c(b))``, at most ``T * c(b) * (1 - 2**-33)``.
      Where P is at least ``2**-1000 * (1 + T)``, the computed and exact ``c(b)`` and P
      are normal with room to spare, so at each point of the block ``c`` is at least
      ``c(b) * (1 - 2**-41)`` and ``fl(T * c)`` at least ``T * c(b) * (1 - 2**-40)``.
      The code tests P against the family pair's largest T, a higher threshold.
    - The cost: every costly family's exact cost is ``scale * e(i)`` with ``e`` increasing.
      Where the computed cost at a is finite and at least ``2**-1000 * (1 + scale)``,
      ``e`` and the cost are normal floats with room to spare, there and at every later
      point.  There the kernel's cost is +inf beyond the float range, else within
      ``(|x| + 2) * 2**-52 < 2**-42`` relative of the exact one, where the exponent ``x``
      is ``p ln i`` for a power cost (``kernels``) or ``p i`` for an exponential one,
      below 746 in size where ``e`` is normal and finite.  So at each point of the block
      the cost is at least ``xi(a) * (1 - 2**-41)``, above ``L2 = fl(xi(a) * (1 - 2**-32))``
      (``ORACLE_TERM_ERROR``).  Here too the code takes the family pair's largest scale.
    - Any other term, zero, subnormal or infinite, counts as 0, the least it can be.  A
      NaN term gives a NaN bound, which keeps its block.

    ``_grid_size`` checks i_max and step before any trader is read and gives the grid's
    length, whose last index the regime reads.  The scan and the grid take their points
    from ``_grid_points``.  The grid, its ``log`` and the two kernel work arrays, which every
    trader's utilities go into, are built from point 0 up to the largest stop, and built
    whole only at the first trader whose window is not proved.  A trader's values keep their
    bits whichever part of the grid they are evaluated on: ``_grid_points`` gives each point
    the bits of ``information_grid``'s, the kernel's per-point operations are the same, and
    ``np.log`` works elementwise, so a point's ``log`` does not depend on the array that
    holds it.  ``tests/test_agent.py`` checks this premise against a loop over the whole
    grid and one ``log`` of it.
    """
    size = _grid_size(i_max, step)
    population = Population.from_traders(traders)
    start, stop, incumbent = _oracle_windows(population, i_max, step)
    best, u_star = np.empty(len(population), dtype=np.intp), np.empty(len(population))
    grid = np.empty(0)
    rows = zip(start.tolist(), stop.tolist(), incumbent.tolist(),
               *(getattr(population, f.name).tolist() for f in fields(population)))
    for k, (lo, hi, u_s, gain, loss, *curves) in enumerate(rows):  # curves: kernel order
        for lo, hi in ((lo, hi), (0, size)):  # a window u_p does not prove: the whole grid
            if hi > len(grid):  # first up to the largest stop, then the whole grid if needed
                built = np.arange(max(hi, stop.max()), dtype=np.float64)
                log_grid = np.log(grid := _grid_points(i_max, step, built))
                util, scratch = np.empty((2, len(grid)))
            window = kernels.utility_grid(grid[lo:hi], *curves, gain, loss, out=(
                util[:hi - lo], scratch[:hi - lo]), log_grid=log_grid[lo:hi])
            j = window.argmax()  # the first maximizer
            best[k], u_star[k] = lo + j, window[j]
            if window[j] >= u_s:
                break
    # the first grid point (of at least 2) is the corner 0, the last (i_max) fully informed
    return grid[best], u_star, _REGIMES[1 + (best == size - 1) - (best == 0)]


def grid_oracle(trader: Trader, i_max: float, step: float) -> AgentOutcome:
    """``grid_oracles`` of one trader."""
    return _first_row(grid_oracles([trader], i_max, step))
