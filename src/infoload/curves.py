"""Parametric curve families for subjective success probability and elaboration cost.

Success curves are concave, strictly increasing, zero at the origin and
saturate at 1 only in the limit.  Cost curves are convex, strictly increasing
and zero at the origin; the degenerate zero-cost curve encodes the costless
("Muthian") scenario and is the only family allowed to break strict convexity.

This is the one module that knows the families.  Each class holds and
validates its parameters and carries its ``kernels`` family code as ``code``;
its dataclass fields, in order, are its parameters and their config names
(``params_of``).  ``kernel_code()`` gives code and parameters to the formulas,
which live only in ``kernels``, and ``from_kernel_code`` turns them back into
a curve.  ``SUCCESS_FAMILIES`` and ``COST_FAMILIES`` map each config family
name to its class: a new family is one formula branch in ``kernels``, one
class here and one registry entry.  A curve's ``value``, ``complement`` and
``deriv`` evaluate the kernel function of that name on a one-element array,
at a level i that must be finite and non-negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar, Union

import numpy as np

from infoload import kernels
from infoload.errors import ParameterError


def _at_one_level(formula):
    """A method evaluating the kernel ``formula`` at one level i, with the curve's codes."""
    def method(self, i: float) -> float:
        if not (math.isfinite(i) and i >= 0):
            raise ParameterError(f"information level must be a finite non-negative real, got {i!r}")
        return formula(np.array([i], dtype=np.float64), *self.kernel_code()).item()
    return method


def params_of(cls) -> tuple:
    """A family's parameter names, in kernel and config order: its class's dataclass fields."""
    return tuple(f.name for f in fields(cls))


def _kernel_code(self) -> tuple:
    """The family code, then the parameters in field order: the kernel formulas' arguments."""
    return (self.code, *(getattr(self, name) for name in params_of(type(self))))


def _scaled(self, multiplier: float):
    """The same cost curve with its scale times ``multiplier``."""
    return replace(self, scale=self.scale * multiplier)


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

    code: ClassVar[int] = kernels.SUCCESS_EXP_SATURATING
    rate: float

    def __post_init__(self):
        _require(math.isfinite(self.rate) and self.rate > 0, "rate must be a positive finite real")

    value, complement, deriv = _SUCCESS_METHODS
    kernel_code = _kernel_code


@dataclass(frozen=True)
class Hyperbolic:
    """Success probability i / (i + half_saturation)."""

    code: ClassVar[int] = kernels.SUCCESS_HYPERBOLIC
    half_saturation: float

    def __post_init__(self):
        _require(
            math.isfinite(self.half_saturation) and self.half_saturation > 0,
            "half_saturation must be a positive finite real",
        )

    value, complement, deriv = _SUCCESS_METHODS
    kernel_code = _kernel_code


@dataclass(frozen=True)
class PowerCost:
    """Elaboration cost scale * i**exponent with exponent > 1."""

    code: ClassVar[int] = kernels.COST_POWER
    scale: float
    exponent: float

    def __post_init__(self):
        _require(math.isfinite(self.scale) and self.scale > 0, "scale must be a positive finite real")
        _require(
            math.isfinite(self.exponent) and self.exponent > 1,
            "exponent must exceed 1 (convexity)",
        )

    value, deriv = _COST_METHODS
    kernel_code = _kernel_code
    scaled = _scaled


@dataclass(frozen=True)
class ExpGrowthCost:
    """Elaboration cost scale * (exp(rate * i) - 1)."""

    code: ClassVar[int] = kernels.COST_EXP_GROWTH
    scale: float
    rate: float

    def __post_init__(self):
        _require(math.isfinite(self.scale) and self.scale > 0, "scale must be a positive finite real")
        _require(math.isfinite(self.rate) and self.rate > 0, "rate must be a positive finite real")

    value, deriv = _COST_METHODS
    kernel_code = _kernel_code
    scaled = _scaled


@dataclass(frozen=True)
class ZeroCost:
    """Costless elaboration; the degenerate case that makes full information optimal."""

    code: ClassVar[int] = kernels.COST_ZERO

    value, deriv = _COST_METHODS

    def kernel_code(self):
        return self.code, 0.0, 0.0  # the cost formulas take a scale and a param

    def scaled(self, multiplier: float) -> "ZeroCost":
        return self


SuccessCurve = Union[ExpSaturating, Hyperbolic]
CostCurve = Union[PowerCost, ExpGrowthCost, ZeroCost]

# config family name -> class
SUCCESS_FAMILIES = {"exp_saturating": ExpSaturating, "hyperbolic": Hyperbolic}
COST_FAMILIES = {"power": PowerCost, "exp_growth": ExpGrowthCost, "zero": ZeroCost}


def from_kernel_code(families: dict, code: int, *params: float):
    """The curve of ``families`` whose ``kernel_code()`` is ``(code, *params)``."""
    cls = {cls.code: cls for cls in families.values()}[code]
    return cls(*params[:len(params_of(cls))])


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


def validate_curves(success: SuccessCurve, cost: CostCurve,
                    i_probe_max: float) -> CurveValidationReport:
    """Probe both curves on a 64-point log-spaced grid and report constraint checks.

    Checks: zero at origin for both, positive first derivatives, concavity of
    the success curve, convexity of the cost curve (skipped for the zero-cost
    family, which is flagged degenerate) and success bounded below 1.
    """
    if not (i_probe_max > 0 and math.isfinite(i_probe_max)):
        raise ParameterError("i_probe_max must be a positive finite real")
    grid = np.geomspace(i_probe_max * 1e-6, i_probe_max, 64)
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
