"""Parametric curve families for subjective success probability and elaboration cost.

Success curves are concave, strictly increasing, zero at the origin and
saturate at 1 only in the limit.  Cost curves are convex, strictly increasing
and zero at the origin; the degenerate zero-cost curve encodes the costless
("Muthian") scenario and is the only family allowed to break strict convexity.

The classes hold and validate parameters; the formulas live only in
``kernels``.  A curve's ``value``, ``complement`` and ``deriv`` evaluate the
kernel function of that name on a one-element array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from infoload import kernels
from infoload.errors import ParameterError
from infoload.kernels import (COST_EXP_GROWTH, COST_POWER, COST_ZERO,  # family codes
                              SUCCESS_EXP_SATURATING, SUCCESS_HYPERBOLIC)


def _at_one_level(formula):
    """A method evaluating the kernel ``formula`` at one level i, with the curve's codes."""
    def method(self, i: float) -> float:
        return formula(np.array([i], dtype=np.float64), *self.kernel_code()).item()
    return method


# each class binds value and deriv in its own namespace (perfbench/tracer.py wraps them there)
_SUCCESS_METHODS = tuple(map(_at_one_level, (kernels.success_value, kernels.success_complement,
                                             kernels.success_deriv)))
_COST_METHODS = _at_one_level(kernels.cost_value), _at_one_level(kernels.cost_deriv)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterError(msg)


@dataclass(frozen=True)
class ExpSaturating:
    """Success probability 1 - exp(-rate * i)."""

    rate: float

    def __post_init__(self):
        _require(math.isfinite(self.rate) and self.rate > 0, "rate must be a positive finite real")

    value, complement, deriv = _SUCCESS_METHODS

    def kernel_code(self):
        return SUCCESS_EXP_SATURATING, self.rate


@dataclass(frozen=True)
class Hyperbolic:
    """Success probability i / (i + half_saturation)."""

    half_saturation: float

    def __post_init__(self):
        _require(
            math.isfinite(self.half_saturation) and self.half_saturation > 0,
            "half_saturation must be a positive finite real",
        )

    value, complement, deriv = _SUCCESS_METHODS

    def kernel_code(self):
        return SUCCESS_HYPERBOLIC, self.half_saturation


@dataclass(frozen=True)
class PowerCost:
    """Elaboration cost scale * i**exponent with exponent > 1."""

    scale: float
    exponent: float

    def __post_init__(self):
        _require(math.isfinite(self.scale) and self.scale > 0, "scale must be a positive finite real")
        _require(
            math.isfinite(self.exponent) and self.exponent > 1,
            "exponent must exceed 1 (convexity)",
        )

    value, deriv = _COST_METHODS

    def kernel_code(self):
        return COST_POWER, self.scale, self.exponent

    def scaled(self, multiplier: float) -> "PowerCost":
        return PowerCost(self.scale * multiplier, self.exponent)


@dataclass(frozen=True)
class ExpGrowthCost:
    """Elaboration cost scale * (exp(rate * i) - 1)."""

    scale: float
    rate: float

    def __post_init__(self):
        _require(math.isfinite(self.scale) and self.scale > 0, "scale must be a positive finite real")
        _require(math.isfinite(self.rate) and self.rate > 0, "rate must be a positive finite real")

    value, deriv = _COST_METHODS

    def kernel_code(self):
        return COST_EXP_GROWTH, self.scale, self.rate

    def scaled(self, multiplier: float) -> "ExpGrowthCost":
        return ExpGrowthCost(self.scale * multiplier, self.rate)


@dataclass(frozen=True)
class ZeroCost:
    """Costless elaboration; the degenerate case that makes full information optimal."""

    value, deriv = _COST_METHODS

    def kernel_code(self):
        return COST_ZERO, 0.0, 0.0

    def scaled(self, multiplier: float) -> "ZeroCost":
        return self


SuccessCurve = Union[ExpSaturating, Hyperbolic]
CostCurve = Union[PowerCost, ExpGrowthCost, ZeroCost]


def eval_success(curve: SuccessCurve, i: float) -> float:
    """Evaluate the success probability at information level i (in [0, 1))."""
    return curve.value(_level(i))


def eval_success_deriv(curve: SuccessCurve, i: float) -> float:
    """Exact first derivative of the success probability."""
    return curve.deriv(_level(i))


def eval_cost(curve: CostCurve, i: float) -> float:
    """Evaluate the elaboration cost at information level i."""
    return curve.value(_level(i))


def eval_cost_deriv(curve: CostCurve, i: float) -> float:
    """Exact first derivative of the elaboration cost."""
    return curve.deriv(_level(i))


def _level(i: float) -> float:
    if not (math.isfinite(i) and i >= 0):
        raise ParameterError(f"information level must be a finite non-negative real, got {i!r}")
    return i


@dataclass
class CurveValidationReport:
    """Outcome of the numeric constraint probe over a pair of curves."""

    checks: dict = field(default_factory=dict)
    muthian_degenerate: bool = False

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def failures(self):
        return sorted(name for name, ok in self.checks.items() if not ok)


def validate_curves(success: SuccessCurve, cost: CostCurve, i_probe_max: float,
                    n_probe: int = 64) -> CurveValidationReport:
    """Probe both curves on a log-spaced grid and report constraint checks.

    Checks: zero at origin for both, positive first derivatives, concavity of
    the success curve, convexity of the cost curve (skipped for the zero-cost
    family, which is flagged degenerate) and success bounded below 1.
    """
    if not (i_probe_max > 0 and math.isfinite(i_probe_max)):
        raise ParameterError("i_probe_max must be a positive finite real")
    grid = np.geomspace(i_probe_max * 1e-6, i_probe_max, n_probe)
    lam_c = kernels.success_complement(grid, *success.kernel_code())  # 1 - lambda, stable
    lam_d = kernels.success_deriv(grid, *success.kernel_code())
    xi_d = kernels.cost_deriv(grid, *cost.kernel_code())

    report = CurveValidationReport(muthian_degenerate=isinstance(cost, ZeroCost))
    report.checks["success_zero_at_origin"] = success.value(0.0) == 0.0
    report.checks["cost_zero_at_origin"] = cost.value(0.0) == 0.0
    report.checks["success_deriv_positive"] = bool(np.all(lam_d > 0))
    report.checks["success_below_one"] = bool(np.all(lam_c > 0))
    report.checks["success_concave"] = bool(np.all(np.diff(lam_d) < 0))
    if not report.muthian_degenerate:
        report.checks["cost_deriv_positive"] = bool(np.all(xi_d > 0))
        report.checks["cost_convex"] = bool(np.all(np.diff(xi_d) > 0))
    return report
