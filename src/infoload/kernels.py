"""Every curve formula, written once, and the utilities built from them.

Each formula is a numpy function of an array of levels ``i`` for the family
coded by a curve's ``kernel_code()``; parameters may be arrays that broadcast
against ``i``, one per trader.  The scalar curve API evaluates them on
one-element arrays, so it agrees bit for bit with the solver's columns
(``marginal_utility_grid``) and the oracle's grids (``utility_grid``).  A cost
or cost slope beyond the float64 range is +inf, and overflow never warns.
An ``out=`` argument runs the same ufuncs into arrays the caller owns, so the
values are bit-identical and a loop over traders allocates no grid per trader.
"""

import numpy as np

# family codes: the first entry of a curve's kernel_code()
SUCCESS_EXP_SATURATING = 0
SUCCESS_HYPERBOLIC = 1
COST_ZERO = 0
COST_POWER = 1
COST_EXP_GROWTH = 2

# constant; perfbench/worker.py records it, perfbench/run.py and compare.py match on it
BACKEND = "python"


def success_value(i, code, param, out=None):
    """Success probability: 1 - exp(-rate * i) or i / (i + half_saturation)."""
    if code == SUCCESS_EXP_SATURATING:
        return np.negative(np.expm1(np.multiply(-param, i, out=out), out=out), out=out)
    return np.divide(i, np.add(i, param, out=out), out=out)


def success_complement(i, code, param):
    """1 - success probability, computed without cancellation; positive for finite i."""
    if code == SUCCESS_EXP_SATURATING:
        return np.exp(-param * i)
    return param / (i + param)


@np.errstate(over="ignore")
def success_deriv(i, code, param):
    """First derivative of the success probability."""
    if code == SUCCESS_EXP_SATURATING:
        return param * np.exp(-param * i)
    return param / (i + param) ** 2


@np.errstate(over="ignore")
def cost_value(i, code, scale, param, out=None):
    """Elaboration cost: 0, scale * i**exponent or scale * (exp(rate * i) - 1)."""
    if code == COST_ZERO:
        if out is None:
            return np.zeros_like(i)
        out.fill(0.0)
        return out
    if code == COST_POWER:
        return np.multiply(scale, np.power(i, param, out=out), out=out)
    return np.multiply(scale, np.expm1(np.multiply(param, i, out=out), out=out), out=out)


@np.errstate(over="ignore")
def cost_deriv(i, code, scale, param):
    """First derivative of the elaboration cost."""
    if code == COST_ZERO:
        return np.zeros_like(i)
    if code == COST_POWER:
        return scale * param * np.power(i, param - 1.0)
    return scale * param * np.exp(param * i)


def expected_return(lam, gain, loss, out=None):
    """Expected dollar return of the two-outcome bet at success probability lam;
    given ``out`` (not ``lam`` itself), ``lam`` is overwritten as scratch."""
    lost = np.multiply(np.subtract(1.0, lam, out=out), loss, out=out)
    return np.subtract(np.multiply(lam, gain, out=None if out is None else lam), lost, out=out)


def utility_grid(grid, s_code, s_param, c_code, c_scale, c_param, gain, loss, out=None):
    """Expected utility at every grid point; -inf where the cost is +inf.  ``out``,
    two float64 arrays shaped like ``grid``, takes the result (first) and scratch."""
    i = np.asarray(grid, dtype=np.float64)
    util, scratch = (None, None) if out is None else out
    lam = success_value(i, s_code, s_param, out=scratch)
    util = expected_return(lam, gain, loss, out=util)
    cost = cost_value(i, c_code, c_scale, c_param, out=scratch)
    return np.subtract(util, cost, out=util)


@np.errstate(over="ignore")
def marginal_utility_grid(i, s_code, s_param, c_code, c_scale, c_param, gain, loss):
    """d/di of expected utility; -inf where the cost derivative is +inf."""
    i = np.asarray(i, dtype=np.float64)
    lam_d = success_deriv(i, s_code, s_param)
    cost_d = cost_deriv(i, c_code, c_scale, c_param)
    return lam_d * (gain + loss) - cost_d


# an alias, kept because perfbench/workloads.py checks utility_grid against it
pure_python_utility_grid = utility_grid
