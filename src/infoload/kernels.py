"""Every curve formula, written once, and the utilities built from them.

Each formula is a numpy function of an array of levels ``i`` for the family
coded by a curve's ``kernel_code()``; parameters may be arrays that broadcast
against ``i``, one per trader.  The scalar curve API evaluates them on
one-element arrays, so it agrees bit for bit with the solver's columns
(``marginal_utility``) and the oracle's grids (``utility_grid``).  A cost
or cost slope beyond the float64 range is +inf, and overflow never warns.
An ``out=`` argument runs the same ufuncs into arrays the caller owns, so the
values are bit-identical and a loop over traders allocates no grid per trader.
``utility_grid`` is the complement form ``W - (W + L) * (1 - lambda) - xi``,
with ``1 - lambda`` from ``success_complement``, so it does not cancel as
lambda -> 1.  A power cost's value is ``scale * exp(p * log i)`` everywhere;
``utility_grid`` takes a precomputed ``log_grid``, so the oracle takes one
``log`` per grid and one ``exp`` per trader.
The rounding of ``log i`` reaches the exponent multiplied by ``p``, so the
value is within ``(|p ln i| + 2) * 2**-52`` relative of the exact cost up to
its overflow point.  The slope ``cost_deriv`` keeps ``np.power``.
``marginal_utility`` builds the solver's g for one family pair: it computes the
factors free of the level once, and given ``out=`` every call of g writes into
the same two work arrays, so a bisection probe allocates nothing.  The column
and scalar slopes (``marginal_utility_grid``, ``success_deriv``,
``cost_deriv``) call the same per-family code, so each formula is written once.
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


def success_value(i, code, param):
    """Success probability: 1 - exp(-rate * i) or i / (i + half_saturation)."""
    if code == SUCCESS_EXP_SATURATING:
        return -np.expm1(-param * i)
    return i / (i + param)


def success_complement(i, code, param, out=None):
    """1 - success probability, computed without cancellation; positive for finite i."""
    if code == SUCCESS_EXP_SATURATING:
        return np.exp(np.multiply(-param, i, out=out), out=out)
    return np.divide(param, np.add(i, param, out=out), out=out)


def _success_deriv(code, param):
    """lambda' as a function of ``(i, out)``, its level-free factor computed once."""
    if code == SUCCESS_EXP_SATURATING:  # param * exp(-param * i)
        neg = -param
        return lambda i, out: np.multiply(
            param, np.exp(np.multiply(neg, i, out=out), out=out), out=out)
    # param / (i + param) ** 2
    return lambda i, out: np.divide(param, np.square(np.add(i, param, out=out), out=out), out=out)


@np.errstate(over="ignore")
def success_deriv(i, code, param):
    """First derivative of the success probability."""
    return _success_deriv(code, param)(i, None)


def _zeros(i, out):
    """Zeros shaped like ``i``, or ``out`` filled with zeros."""
    if out is None:
        return np.zeros_like(i)
    out.fill(0.0)
    return out


@np.errstate(over="ignore", divide="ignore")
def cost_value(i, code, scale, param, out=None, log_i=None):
    """Elaboration cost: 0, scale * exp(exponent * log i) (that is, scale * i**exponent)
    or scale * (exp(rate * i) - 1).  ``log_i``, if given, is ``np.log(i)``."""
    if code == COST_ZERO:
        return _zeros(i, out)
    if code == COST_POWER:
        log_i = np.log(i, out=out) if log_i is None else log_i
        return np.multiply(scale, np.exp(np.multiply(param, log_i, out=out), out=out), out=out)
    return np.multiply(scale, np.expm1(np.multiply(param, i, out=out), out=out), out=out)


def _cost_deriv(code, scale, param):
    """xi' as a function of ``(i, out)``, its level-free factors computed once."""
    if code == COST_ZERO:
        return _zeros
    factor = scale * param
    if code == COST_POWER:  # scale * param * i ** (param - 1)
        exponent = param - 1.0
        return lambda i, out: np.multiply(factor, np.power(i, exponent, out=out), out=out)
    # scale * param * exp(param * i)
    return lambda i, out: np.multiply(
        factor, np.exp(np.multiply(param, i, out=out), out=out), out=out)


@np.errstate(over="ignore")
def cost_deriv(i, code, scale, param):
    """First derivative of the elaboration cost."""
    return _cost_deriv(code, scale, param)(i, None)


def expected_return(lam, gain, loss):
    """Expected dollar return of the two-outcome bet at success probability lam."""
    return lam * gain - (1.0 - lam) * loss


def utility_grid(grid, s_code, s_param, c_code, c_scale, c_param, gain, loss, out=None,
                 log_grid=None):
    """Expected utility ``W - (W + L) * (1 - lambda) - xi`` at every grid point; -inf
    where the cost is +inf.  ``out``, two float64 arrays shaped like ``grid``, takes the
    result (first) and scratch; ``log_grid``, if given, is ``np.log(grid)``."""
    i = np.asarray(grid, dtype=np.float64)
    util, scratch = (None, None) if out is None else out
    util = success_complement(i, s_code, s_param, out=util)
    util = np.subtract(gain, np.multiply(gain + loss, util, out=util), out=util)
    cost = cost_value(i, c_code, c_scale, c_param, out=scratch, log_i=log_grid)
    return np.subtract(util, cost, out=util)


@np.errstate(over="ignore")
def marginal_utility(s_code, s_param, c_code, c_scale, c_param, gain, loss, out=None):
    """The marginal utility g(i) = lambda'(i) * (W + L) - xi'(i), as a function of the
    levels i; -inf where the cost derivative is +inf.

    The factors free of i are computed once, in the order ``success_deriv`` and
    ``cost_deriv`` use, so every value of g is theirs bit for bit.  Given ``out``, two
    float64 arrays shaped like g's values, every call of g runs its ufuncs into them
    and returns the first, which the next call overwrites.
    """
    lam_d, cost_d = _success_deriv(s_code, s_param), _cost_deriv(c_code, c_scale, c_param)
    total = gain + loss
    util, scratch = (None, None) if out is None else out

    def g(i):
        with np.errstate(over="ignore"):
            return np.subtract(np.multiply(lam_d(i, util), total, out=util),
                               cost_d(i, scratch), out=util)
    return g


def marginal_utility_grid(i, s_code, s_param, c_code, c_scale, c_param, gain, loss):
    """d/di of expected utility at every level in ``i``, by ``marginal_utility``."""
    return marginal_utility(s_code, s_param, c_code, c_scale, c_param, gain, loss)(
        np.asarray(i, dtype=np.float64))


# an alias, kept because perfbench/workloads.py checks utility_grid against it
pure_python_utility_grid = utility_grid
