"""Every curve formula, written once, and the utilities built from them.

Each formula is a numpy function of an array of levels ``i`` for the family
coded by a curve's ``kernel_code()``; parameters may be arrays that broadcast
against ``i``, one per trader.  The scalar curve API evaluates them on
one-element arrays, so it agrees bit for bit with the oracle's grids
(``utility_grid``).  A cost or cost slope beyond the float64 range is +inf.
No formula sets numpy's error state, nor do the bodies ``utility`` and ``h``:
each entry to the kernel sets it once per call to ``over="ignore", divide="ignore"``.
The entries are ``utility_grid`` and ``log_marginal_ratio``, for single calls, the curve
methods, and ``agent.grid_oracles`` and ``agent.sign_walk``, which loop over traders or
bits and call the bodies.  An ``out=`` argument runs the same ufuncs into arrays the
caller owns, so the values are bit-identical and a loop over traders allocates no grid
per trader.
``utility_grid`` is the complement form ``W - (W + L) * (1 - lambda) - xi``,
with ``1 - lambda`` from ``success_complement``, so it does not cancel as
lambda -> 1.  A power cost's value is ``scale * exp(p * log i)`` everywhere;
``utility_grid`` takes a precomputed ``log_grid``, so the oracle takes one
``log`` per grid and one ``exp`` per trader.
The rounding of ``log i`` reaches the exponent multiplied by ``p``, so the
value is within ``(|p ln i| + 2) * 2**-52`` relative of the exact cost up to
its overflow point.  The slope ``cost_deriv`` keeps ``np.power``.
The marginal utility g is ``success_deriv * (W + L) - cost_deriv``; the solver and
the sweep read its sign from ``log_marginal_ratio``, whose terms, unlike g's, stay
in the float range for all accepted parameters.
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
    return _over_sum(i, i, param)


def success_complement(i, code, param, out=None):
    """1 - success probability, computed without cancellation; positive for finite i."""
    if code == SUCCESS_EXP_SATURATING:
        return np.exp(np.multiply(-param, i, out=out), out=out)
    return _over_sum(param, i, param, out)


def _over_sum(top, i, param, out=None):
    """``top / (i + param)`` for the hyperbolic family, ``top`` being i or param.  Where
    ``i + param`` overflows, both addends are at least 2**970, so their halves are exact,
    and there it is ``(top / 2) / (i / 2 + param / 2)``: the same two roundings, in range."""
    total = np.add(i, param, out=out)
    wide = total == np.inf if np.maximum.reduce(total, axis=None) == np.inf else None
    ratio = np.divide(top, total, out=out)
    if wide is not None:
        half = np.multiply(i, 0.5) + np.multiply(param, 0.5)
        np.divide(np.multiply(top, 0.5), half, out=ratio, where=wide)
    return ratio


def success_deriv(i, code, param):
    """rate * exp(-rate * i) or half_saturation / (i + half_saturation) ** 2, divided
    twice, as the square overflows: the first derivative of the success probability."""
    if code == SUCCESS_EXP_SATURATING:
        return param * np.exp(-param * i)
    return param / (i + param) / (i + param)


def cost_value(i, code, scale, param, out=None, log_i=None):
    """Elaboration cost: 0, scale * exp(exponent * log i) (that is, scale * i**exponent)
    or scale * (exp(rate * i) - 1).  ``log_i``, if given, is ``np.log(i)``."""
    if code == COST_ZERO:
        if out is None:
            return np.zeros_like(i)
        out.fill(0.0)
        return out
    if code == COST_POWER:
        log_i = np.log(i, out=out) if log_i is None else log_i
        return np.multiply(scale, np.exp(np.multiply(param, log_i, out=out), out=out), out=out)
    return np.multiply(scale, np.expm1(np.multiply(param, i, out=out), out=out), out=out)


def cost_deriv(i, code, scale, param):
    """0, scale * exponent * i**(exponent - 1) or scale * rate * exp(rate * i): the first
    derivative of the elaboration cost."""
    if code == COST_ZERO:
        return np.zeros_like(i)
    if code == COST_POWER:
        return scale * param * np.power(i, param - 1.0)
    return scale * param * np.exp(param * i)


def utility(i, s_code, s_param, c_code, c_scale, c_param, gain, loss, out=None,
            log_grid=None):
    """Expected utility ``W - (W + L) * (1 - lambda) - xi`` at every level of the float64
    array ``i``, in the caller's error state; -inf where the cost is +inf.  ``out``, two
    float64 arrays shaped like the result, takes the result (first) and the cost ``xi``,
    which ``cost_value`` gives at every point; ``log_grid``, if given, is ``np.log(i)``."""
    util, cost = (None, None) if out is None else out
    util = success_complement(i, s_code, s_param, out=util)
    util = np.subtract(gain, np.multiply(gain + loss, util, out=util), out=util)
    cost = cost_value(i, c_code, c_scale, c_param, out=cost, log_i=log_grid)
    return np.subtract(util, cost, out=util)


@np.errstate(over="ignore", divide="ignore")
def utility_grid(grid, *args, **kwargs):
    """``utility`` at ``grid`` as a float64 array, in its own error state."""
    return utility(np.asarray(grid, dtype=np.float64), *args, **kwargs)


def log_marginal_args(s_code, s_param, c_code, c_scale, c_param, gain, loss):
    """``h``'s arguments after the levels, from the kernel arguments of a costly family
    pair: the codes, ``s_param``, b's ``factor`` (a power cost's ``exponent - 1``, formed
    here once for all of h's calls, or an exponential cost's rate), h's part free of i,
    ``C = log s_param + log(W + L) - log c_scale - log c_param``, a sum of logs, and
    ``wide``, whether a finite level can overflow ``i + half_saturation``: only where the
    half-saturation is at least 2**970, half an ulp of the largest float."""
    wide = s_code == SUCCESS_HYPERBOLIC and np.maximum.reduce(s_param, axis=None) >= 2.0**970
    factor = c_param - 1.0 if c_code == COST_POWER else c_param
    return s_code, s_param, c_code, factor, (
        np.log(s_param) + np.log(gain + loss) - np.log(c_scale) - np.log(c_param)), wide


def h(i, s_code, s_param, c_code, factor, level, wide):
    """h(i) = log lambda'(i) + log(W + L) - log xi'(i), which has g's sign, at every level
    in ``i``, in the caller's error state: ``C - a(i) - b(i)``, with ``C`` the ``level``
    of ``log_marginal_args``, ``a`` ``rate * i`` or ``2 log(i + half_saturation)`` and
    ``b`` ``factor`` times ``log i`` or ``i``.  For accepted parameters ``C`` is finite,
    ``a`` is +inf only above i = 1 and ``b`` -inf only below it, so h is never NaN; h(0)
    is +inf for a power cost and h(+inf) is -inf.  Where ``wide`` and
    ``i + half_saturation`` overflows at a finite level, both addends are at least
    2**970, so their halves are exact, and there ``log(i + half_saturation)`` is
    ``log(i / 2 + half_saturation / 2) + log 2``."""
    if s_code == SUCCESS_EXP_SATURATING:
        a = s_param * i
    else:
        a = 2.0 * np.log(i + s_param)
        if wide:
            halves = 2.0 * (np.log(np.multiply(i, 0.5) + np.multiply(s_param, 0.5)) + np.log(2.0))
            a = np.where(a == np.inf, halves, a)
    b = factor * (np.log(i) if c_code == COST_POWER else i)
    return level - a - b


# h in its own error state, for a single call
log_marginal_ratio = np.errstate(over="ignore", divide="ignore")(h)


# an alias, kept because perfbench/workloads.py checks utility_grid against it
pure_python_utility_grid = utility_grid
