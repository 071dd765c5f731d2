"""Parametric curve families for subjective success probability and elaboration cost.

Success curves are concave, strictly increasing, zero at the origin and
saturate at 1 only in the limit.  Cost curves are convex, strictly increasing
and zero at the origin; the degenerate zero-cost curve encodes the costless
("Muthian") scenario and is the only family allowed to break strict convexity.

This is the one module that knows the families.  Each class holds its
parameters and carries its ``kernels`` family code as ``code``; its dataclass
fields, in order, are its parameters and their config names (``params_of``).
``kernel_code()`` gives code and parameters to the formulas, which live only
in ``kernels``, and ``from_kernel_code`` turns them back into a curve.
``SUCCESS_FAMILIES`` and ``COST_FAMILIES`` map each config family name to its
class: a new family is one formula, one class (with its domain) and one
registry entry.  Each parameter's domain is one ``BOUNDS`` entry, and every
curve, ``Trader`` and ``agent.Population`` is checked against them by
``check_columns``.  A curve's ``value``, ``complement`` and ``deriv`` evaluate
the kernel function of that name on a one-element array, at a level i that
must be finite and non-negative.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, fields, replace
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


@functools.cache
def params_of(cls) -> tuple:
    """A family's parameter names, in kernel and config order: its class's dataclass fields."""
    return tuple(f.name for f in fields(cls))


def _kernel_code(self) -> tuple:
    """The family code, then the parameters in field order: the kernel formulas' arguments."""
    return (self.code, *(getattr(self, name) for name in params_of(type(self))))


def _scaled(self, multiplier: float):
    """The same cost curve with its scale times ``multiplier``."""
    return replace(self, scale=self.scale * multiplier)


# each parameter's domain: the finite reals above its bound (a half-line)
BOUNDS = {"gain": 0, "loss": 0, "rate": 0, "half_saturation": 0, "scale": 0, "exponent": 1}
# a Population's columns of each kind of curve: the family code, then the kernel parameters
_SUCCESS_COLUMNS = ("success_code", "success_param")
_COST_COLUMNS = ("cost_code", "cost_scale", "cost_param")


def in_domain(name: str, x):
    """Whether ``x``, a float or (elementwise) an array, lies in parameter ``name``'s domain."""
    return (x > BOUNDS[name]) & (x < math.inf)


def domain_rule(name: str) -> str:
    return f"must be finite and exceed {BOUNDS[name]}" + " (convexity)" * (name == "exponent")


def _extremes(x):
    """(smallest, largest) entry of ``x`` as Python numbers, None if it has none."""
    if type(x) in (float, int):
        return x, x
    x = np.asarray(x)
    if x.size == 0:
        return None
    return np.minimum.reduce(x, None).item(), np.maximum.reduce(x, None).item()


def _extremes_in_domains(columns) -> bool:
    """Whether each column's extremes lie in its domain, with one family per code
    column: a sufficient condition for every row to, whatever the number of rows."""
    extremes = {column: _extremes(x) for column, x in columns.items()}
    if None in extremes.values():
        return False
    names = {"gain": "gain", "loss": "loss"}
    for families, (code_column, *param_columns) in ((SUCCESS_FAMILIES, _SUCCESS_COLUMNS),
                                                    (COST_FAMILIES, _COST_COLUMNS)):
        if code_column in columns:
            low, high = extremes[code_column]
            cls = {cls.code: cls for cls in families.values()}.get(low)
            integer = np.asarray(columns[code_column]).dtype.kind in "iu"
            if low != high or cls is None or not integer:
                return False
            names.update(zip(param_columns, params_of(cls) + (None, None)))
    for column, name in names.items():
        if column in extremes:
            low, high = extremes[column]
            if not (low == high == 0 if name is None else in_domain(name, low) and high < math.inf):
                return False
    # the largest sum bounds every row's; Python floats overflow to inf unwarned
    return not ("gain" in columns and "loss" in columns) or (
        extremes["gain"][1] + extremes["loss"][1] < math.inf)


def check_columns(**columns) -> None:
    """Raise ``ParameterError`` at the first agent (row) and column outside its domain.

    ``columns`` are some of a ``Population``'s, as 1-D arrays or as floats (one row,
    naming no agent): ``gain`` and ``loss``, with a finite sum, and a family code with
    its parameters in the family's domains and 0 past the family's parameters.  The
    extremes of each column are tested first; per-row masks are built only when they fail.
    """
    if _extremes_in_domains(columns):
        return
    found = [(np.logical_not(in_domain(name, columns[name])), name, domain_rule(name),
              columns[name]) for name in ("gain", "loss") if name in columns]
    if "gain" in columns and "loss" in columns:
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is nan, not finite
            total = columns["gain"] + columns["loss"]
        found.append((np.logical_not(total < math.inf), "gain + loss", "must be finite", total))
    for families, (code_column, *param_columns) in ((SUCCESS_FAMILIES, _SUCCESS_COLUMNS),
                                                    (COST_FAMILIES, _COST_COLUMNS)):
        if code_column not in columns:
            continue
        code = columns[code_column]
        members = {cls: code == cls.code for cls in families.values()}
        known = functools.reduce(operator.or_, members.values())
        found.append((np.logical_not(known & (np.asarray(code).dtype.kind in "iu")), code_column,
                      f"must be an integer code in {sorted(cls.code for cls in members)}", code))
        for cls, rows in ((cls, rows) for cls, rows in members.items() if np.count_nonzero(rows)):
            for column, name in zip(param_columns, params_of(cls) + (None, None)):
                x = columns.get(column)
                if x is None:
                    continue
                if name is None:  # a kernel parameter the family does not have
                    found.append((rows & (x != 0), column, f"must be 0 for {cls.__name__}", x))
                else:
                    found.append((rows & np.logical_not(in_domain(name, x)),
                                  f"{column} ({name})", domain_rule(name), x))
    bad = [(np.argmax(out), i) for i, (out, *_) in enumerate(found) if np.count_nonzero(out)]
    if bad:
        k, i = min(bad)
        _, label, rule, values = found[i]
        where = f"agent {k}: " if np.ndim(values) else ""
        raise ParameterError(f"{where}{label} {rule}, got {np.atleast_1d(values)[k].item()!r}")


def _checked(columns: tuple):
    """A ``__post_init__`` checking a curve's ``kernel_code()`` as one row of ``columns``."""
    return lambda self: check_columns(**dict(zip(columns, self.kernel_code())))


# each class binds value and deriv in its own namespace (perfbench/tracer.py wraps them there)
_SUCCESS_METHODS = (_checked(_SUCCESS_COLUMNS), *map(_at_one_level, (
    kernels.success_value, kernels.success_complement, kernels.success_deriv)))
_COST_METHODS = (_checked(_COST_COLUMNS), *map(_at_one_level, (
    kernels.cost_value, kernels.cost_deriv)))


@dataclass(frozen=True)
class ExpSaturating:
    """Success probability 1 - exp(-rate * i)."""

    code: ClassVar[int] = kernels.SUCCESS_EXP_SATURATING
    rate: float

    __post_init__, value, complement, deriv = _SUCCESS_METHODS
    kernel_code = _kernel_code


@dataclass(frozen=True)
class Hyperbolic:
    """Success probability i / (i + half_saturation)."""

    code: ClassVar[int] = kernels.SUCCESS_HYPERBOLIC
    half_saturation: float

    __post_init__, value, complement, deriv = _SUCCESS_METHODS
    kernel_code = _kernel_code


@dataclass(frozen=True)
class PowerCost:
    """Elaboration cost scale * i**exponent with exponent > 1."""

    code: ClassVar[int] = kernels.COST_POWER
    scale: float
    exponent: float

    __post_init__, value, deriv = _COST_METHODS
    kernel_code = _kernel_code
    scaled = _scaled


@dataclass(frozen=True)
class ExpGrowthCost:
    """Elaboration cost scale * (exp(rate * i) - 1)."""

    code: ClassVar[int] = kernels.COST_EXP_GROWTH
    scale: float
    rate: float

    __post_init__, value, deriv = _COST_METHODS
    kernel_code = _kernel_code
    scaled = _scaled


@dataclass(frozen=True)
class ZeroCost:
    """Costless elaboration; the degenerate case that makes full information optimal."""

    code: ClassVar[int] = kernels.COST_ZERO

    __post_init__, value, deriv = _COST_METHODS

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
