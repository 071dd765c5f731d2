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
``check_columns``, at the extremes of each rule's rows.  A curve's ``value``,
``complement`` and ``deriv`` evaluate the kernel function of that name on a
one-element array, at a level i that must be finite and non-negative.
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


def check_level(i: float) -> None:
    if not (math.isfinite(i) and i >= 0):
        raise ParameterError(f"information level must be a finite non-negative real, got {i!r}")


def _at_one_level(formula):
    """A method evaluating the kernel ``formula`` at one level i, with the curve's codes."""
    def method(self, i: float) -> float:
        check_level(i)
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


# each rule's domain as (holds, rule): ``holds`` tests a number, or an array elementwise
_DOMAINS = {name: (functools.partial(in_domain, name), domain_rule(name)) for name in BOUNDS}
_FINITE = functools.partial(operator.gt, math.inf), "must be finite"  # inf > x


def _registry(families: dict, code_column: str, *param_columns: str) -> tuple:
    """A code column with its domain (codes 0..N-1), then each family of ``families`` with
    the (column, label, domain) of each parameter column: 0 past the family's parameters."""
    def is_code(x):
        integer = type(x) is int or np.asarray(x).dtype.kind in "iu"
        return integer & (x >= 0) & (x < len(families))
    is_zero = functools.partial(operator.eq, 0)
    params = {cls: [(column, f"{column} ({name})", _DOMAINS[name]) if name
                    else (column, column, (is_zero, f"must be 0 for {cls.__name__}"))
                    for column, name in zip(param_columns, params_of(cls) + (None, None))]
              for cls in families.values()}
    return code_column, (is_code, f"must be an integer code in {[*range(len(families))]}"), params


def check_columns(**columns) -> None:
    """Raise ``ParameterError`` at the first agent (row) and column outside its domain.

    ``columns`` are some of a ``Population``'s, as 1-D arrays or as floats (one row,
    naming no agent): ``gain`` and ``loss``, with a finite sum, and a family code with
    its parameters in the family's domains and 0 past the family's parameters.  Each
    rule holds on an interval (a ``BOUNDS`` half-line, 0, or a registry's codes 0..N-1),
    so it holds on all its rows iff it holds at their smallest and largest values; only
    a rule failing there, or covering one family of a mixed column, is searched row by
    row.  The error names the smallest failing agent, ties going to the earlier rule:
    gain, loss, gain + loss, then each code column followed by its family's parameters;
    the error's ``agent`` is that row, None when every column is a float.
    """
    extremes = {column: _extremes(x) for column, x in columns.items()}
    if None in extremes.values():
        return  # no rows
    # (label, domain, values, rows, span): rows True (all) with span their (smallest,
    # largest) value, or the mask of one family's rows in a mixed column with span None
    rules = [(name, _DOMAINS[name], columns[name], True, extremes[name])
             for name in ("gain", "loss") if name in columns]
    if "gain" in columns and "loss" in columns:
        # the largest sum bounds every row's, but may overflow where no row's does
        total = high = extremes["gain"][1] + extremes["loss"][1]  # Python floats overflow unwarned
        if not high < math.inf:
            with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is nan, not finite
                total = columns["gain"] + columns["loss"]
        rules.append(("gain + loss", _FINITE, total, True, (high, high)))
    for code_column, code_domain, families in _REGISTRIES:
        if code_column not in columns:
            continue
        code, (low, high) = columns[code_column], extremes[code_column]
        rules.append((code_column, code_domain, code, True, (low, high)))
        for cls, params in families.items():
            # a column of one code has all rows or none of a family; np.equal masks lists too
            rows = np.equal(code, cls.code) if low != high else cls.code == low
            if rows is False:
                continue
            for column, label, domain in params:
                if column in columns:
                    span = extremes[column] if rows is True else None
                    rules.append((label, domain, columns[column], rows, span))
    failures = []  # (first failing agent, rule number, label, rule, values)
    for label, (holds, rule), values, rows, span in rules:
        if span is not None and holds(span[0]) and holds(span[1]):
            continue
        out = rows & np.logical_not(holds(values))
        if out.any():
            failures.append((np.argmax(out), len(failures), label, rule, values))
    if failures:
        k, _, label, rule, values = min(failures)
        raise ParameterError(f"{label} {rule}, got {np.atleast_1d(values)[k].item()!r}",
                             int(k) if np.ndim(values) else None)


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
_REGISTRIES = [_registry(SUCCESS_FAMILIES, *_SUCCESS_COLUMNS),
               _registry(COST_FAMILIES, *_COST_COLUMNS)]


def from_kernel_code(families: dict, code: int, *params: float):
    """The curve of ``families`` whose ``kernel_code()`` is ``(code, *params)``."""
    cls = {cls.code: cls for cls in families.values()}[code]
    return cls(*params[:len(params_of(cls))])
