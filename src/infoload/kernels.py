"""Vectorized expected utility and marginal utility.

``utility_grid`` is the kernel of the brute-force oracle; ``marginal_utility_grid``
is the function whose sign change the population root solver locates.  Curve
families arrive as the integer codes of their ``kernel_code()``, so one
vectorized expression covers every success and cost family.
"""

import numpy as np

from infoload.curves import COST_POWER, COST_ZERO, SUCCESS_EXP_SATURATING

# constant; perfbench/worker.py records it, perfbench/run.py and compare.py match on it
BACKEND = "python"


def utility_grid(grid, s_code, s_param, c_code, c_scale, c_param, gain, loss):
    """Expected utility at every grid point for one trader.

    A cost beyond the float64 range is +inf, so the utility there is -inf,
    exactly where the scalar ``expected_utility`` gives -inf.
    """
    i = np.asarray(grid, dtype=np.float64)
    if s_code == SUCCESS_EXP_SATURATING:
        lam = -np.expm1(-s_param * i)
    else:
        lam = i / (i + s_param)
    with np.errstate(over="ignore"):
        if c_code == COST_ZERO:
            cost = 0.0
        elif c_code == COST_POWER:
            cost = c_scale * np.power(i, c_param)
        else:
            cost = c_scale * np.expm1(c_param * i)
    return lam * gain - (1.0 - lam) * loss - cost


def marginal_utility_grid(i, s_code, s_param, c_code, c_scale, c_param, gain, loss):
    """d/di of expected utility, written as the scalar curves' ``deriv`` methods.

    The parameters may be arrays that broadcast against ``i``, one entry per
    trader.  A cost derivative beyond the float64 range is +inf, so the
    marginal utility there is -inf, as in the scalar ``marginal_utility``.
    """
    i = np.asarray(i, dtype=np.float64)
    with np.errstate(over="ignore"):
        if s_code == SUCCESS_EXP_SATURATING:
            lam_d = s_param * np.exp(-s_param * i)
        else:
            lam_d = s_param / (i + s_param) ** 2
        if c_code == COST_ZERO:
            cost_d = 0.0
        elif c_code == COST_POWER:
            cost_d = c_scale * c_param * np.power(i, c_param - 1.0)
        else:
            cost_d = c_scale * c_param * np.exp(c_param * i)
        return lam_d * (gain + loss) - cost_d


# an alias, kept because perfbench/workloads.py checks utility_grid against it
pure_python_utility_grid = utility_grid
