"""Population sampling, market-level efficiency classification and two
conjecture checks: costless information (1) and overload beside efficiency (2).
Conjecture 3, over rising ceilings, is a phase series and lives in ``sweep``.
Each check lists its problems and returns ``ConjectureVerdict.from_problems``, so a
failed check's ``detail`` is its problems joined by ``; ``.

Efficiency is structural: a market is efficient when the fraction of traders
whose constrained optimum sits at the information ceiling reaches the
threshold theta.  Heterogeneity enters through per-trader curve parameters,
chiefly the cost scale.  A ``PopulationSpec`` names its curve families as the
config does; their classes, codes and param names come from the
``curves.SUCCESS_FAMILIES`` and ``curves.COST_FAMILIES`` registries.

Agent k's parameters come from its own keyed substream,
``default_rng(SeedSequence(master_seed, spawn_key=(k,)))``, so agent k depends
only on ``(master_seed, k)``.  ``sample_population`` computes every agent's
substream at once: numpy's SeedSequence hash and PCG64 written as uint32 and
uint64 array arithmetic over k, bit-identical to numpy's own per-agent draws.

A population stays one set of columns (``agent.Population``) from sampling to
the verdict: ``run_market`` solves every root in one batched call, sets each
trader's optimum and regime by array comparison (``agent.constrain``) and its
utility by one kernel call per curve-family pair, and returns per-agent arrays.
A ``Trader`` sequence passed to any function here is turned into columns once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from infoload.agent import Population, Regime, Trader, constrain, solve_roots
from infoload.curves import (COST_FAMILIES, SUCCESS_FAMILIES, check_columns, domain_rule,
                             in_domain, params_of)
from infoload.errors import ConfigError, ParameterError, PreconditionError
from infoload.kernels import COST_ZERO

Interval = Tuple[float, float]

# the spawn key k is one uint32 word of the agent's SeedSequence entropy
MAX_AGENTS = 2**32


def _check_interval(field: str, name: str, iv: Interval) -> None:
    """Both ends of ``iv`` in parameter ``name``'s domain, a half-line, so all of ``iv``."""
    lo, hi = iv
    if not (in_domain(name, lo) & in_domain(name, hi)):
        raise ConfigError(field, f"{name} {domain_rule(name)}, got {iv!r}")
    if not lo <= hi:
        raise ConfigError(field, f"lower bound exceeds upper bound in {iv!r}")


@dataclass(frozen=True)
class PopulationSpec:
    """Recipe for a heterogeneous trader population, fully seeded."""

    n_agents: int
    gain: Interval
    loss: Interval
    success_family: str  # "exp_saturating" | "hyperbolic"
    success_param: Interval
    cost_family: str  # "power" | "exp_growth" | "zero"
    cost_scale: Interval = (1.0, 1.0)
    cost_shape: Interval = (2.0, 2.0)  # exponent for power, rate for exp_growth
    master_seed: int = 0

    def __post_init__(self):
        for name, lo, hi in (("n_agents", 1, MAX_AGENTS), ("master_seed", 0, 2**64 - 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, (int, np.integer))
                                               and lo <= value <= hi):
                raise ConfigError(f"population.{name}",
                                  f"must be an integer in [{lo}, {hi}], got {value!r}")
            object.__setattr__(self, name, int(value))  # numpy integers overflow in the hash
        _check_interval("population.gain", "gain", self.gain)
        _check_interval("population.loss", "loss", self.loss)
        try:
            check_columns(gain=self.gain[1], loss=self.loss[1])  # the largest gain + loss
        except ParameterError as exc:
            raise ConfigError("population.loss", str(exc)) from None
        for kind, families, family, intervals in (
                ("success", SUCCESS_FAMILIES, self.success_family, (self.success_param,)),
                ("cost", COST_FAMILIES, self.cost_family, (self.cost_scale, self.cost_shape))):
            if family not in families:
                raise ConfigError(f"population.{kind}.family", f"unknown family {family!r}")
            for name, iv in zip(params_of(families[family]), intervals):
                _check_interval(f"population.{kind}.params.{name}", name, iv)


@dataclass(frozen=True)
class MarketConfig:
    i_max: float
    theta: float
    participation_rule: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.i_max) and self.i_max > 0):
            raise ConfigError("market.i_max", f"must be a positive finite real, got {self.i_max}")
        check_theta(self.theta)


def check_theta(theta: float) -> None:
    if not 0 < theta <= 1:
        raise ConfigError("market.theta", f"must lie in (0, 1], got {theta}")


def check_grid(field: str, values: Sequence[float]) -> List[float]:
    """Return ``values`` as a list; raise a config error naming ``field`` unless
    they are non-empty, strictly increasing, positive and finite."""
    grid = list(values)
    if len(grid) == 0 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(field, "grid must be non-empty and strictly increasing")
    if not all(math.isfinite(v) and v > 0 for v in grid):
        raise ConfigError(field, "grid values must be positive finite reals")
    return grid


@dataclass(eq=False)
class MarketOutcome:
    """The verdict, and entry k of each array for agent k (participating or not)."""

    fraction_informed: float
    efficient: bool
    counts: dict  # Regime value -> int, over participating agents
    mean_utility: float
    n_excluded: int
    i_u: np.ndarray  # unconstrained optimum, +inf for zero cost
    i_star: np.ndarray  # min(i_u, i_max); 0 at the corner
    u_star: np.ndarray  # expected utility at i_star
    regime: np.ndarray  # Regime values as str


@dataclass(frozen=True)
class ReturnModel:
    """Security return as optimal forecast plus independent white noise."""

    r_of: float
    noise_sd: float

    def __post_init__(self):
        if not math.isfinite(self.r_of):
            raise ParameterError(f"r_of must be a finite real, got {self.r_of!r}")
        if not (math.isfinite(self.noise_sd) and self.noise_sd >= 0):
            raise ParameterError(f"noise_sd must be a non-negative finite real, got {self.noise_sd!r}")


@dataclass
class ReturnSample:
    mean: float
    sd: float
    n: int
    values: np.ndarray


@dataclass
class ConjectureVerdict:
    """A conjecture check's ``name``, whether it ``passed``, its ``detail`` text and the
    index of a ``counterexample`` agent, if any; every check builds it by ``from_problems``."""

    name: str
    passed: bool
    detail: str
    counterexample: Optional[int] = None

    @classmethod
    def from_problems(cls, name: str, problems: Sequence[str], detail: str,
                      counterexample: Optional[int] = None) -> ConjectureVerdict:
        """Failed with the problems joined by ``; ``, if any; else passed with ``detail``."""
        if problems:
            return cls(name, False, "; ".join(problems), counterexample)
        return cls(name, True, detail)


# numpy's SeedSequence (numpy/random/bit_generator.pyx) and PCG64 constants
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray,
              work: np.ndarray) -> None:
    """(hi:lo) = (hi:lo) * PCG multiplier + (inc_hi:inc_lo) mod 2**128, in place.

    The carry of the low 64x64 product comes from 32-bit limbs, in the six uint64 rows
    of ``work``."""
    a0, a1, p, q, mid, carry = work
    np.bitwise_and(lo, _MASK32, out=a0)
    np.right_shift(lo, 32, out=a1)
    np.right_shift(np.multiply(a0, _PCG_MULT_LO & _MASK32, out=p), 32, out=mid)
    np.multiply(a0, _PCG_MULT_LO >> 32, out=p)
    np.right_shift(p, 32, out=carry)
    mid += np.bitwise_and(p, _MASK32, out=p)
    np.multiply(a1, _PCG_MULT_LO & _MASK32, out=p)
    carry += np.right_shift(p, 32, out=q)
    mid += np.bitwise_and(p, _MASK32, out=p)
    carry += np.multiply(a1, _PCG_MULT_LO >> 32, out=p)
    carry += np.right_shift(mid, 32, out=mid)
    hi *= _PCG_MULT_LO
    hi += np.multiply(lo, _PCG_MULT_HI, out=p)
    hi += carry
    lo *= _PCG_MULT_LO
    lo += inc_lo
    hi += np.less(lo, inc_lo, out=p)  # the carry out of the low word
    hi += inc_hi


def _keyed_uniforms(master_seed: int, n: int, n_draws: int) -> np.ndarray:
    """``default_rng(SeedSequence(master_seed, spawn_key=(k,))).random(n_draws)``
    for every k < n at once, as row ``[:, k]`` of an (n_draws, n) array.

    The master seed's pool words do not depend on k: they are Python ints masked to 32
    bits.  Every step from the spawn word k on runs on uint32/uint64 arrays, which wrap
    without warnings.
    """
    hash_const = _INIT_A

    def hashmix(value):  # a Python int below 2**32 or a uint32 array
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):  # x a Python int below 2**32, masked first so a uint32 y can take it
        value = ((_MIX_MULT_L * x & _MASK32) - _MIX_MULT_R * y) & _MASK32
        return value ^ (value >> 16)

    # entropy: the seed's little-endian words zero-padded to the pool size, then k
    pool = [hashmix(master_seed >> 32 * i & _MASK32) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    spawn_word = np.arange(n, dtype=np.uint32)
    pool = [mix(word, hashmix(spawn_word)) for word in pool]

    # generate_state(4, uint64): eight words cycled from the pool, paired little-endian
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        words.append((value ^ (value >> 16)).astype(np.uint64))
    s_hi, s_lo, i_hi, i_lo = (words[2 * j] | (words[2 * j + 1] << 32) for j in range(4))

    # pcg_setseq_128_srandom_r: one step from inc + seed; then a step and an XSL-RR output
    # per draw, in place, the output in the rows the step has finished with
    inc_hi, inc_lo = (i_hi << 1) | (i_lo >> 63), (i_lo << 1) | 1
    lo = s_lo + inc_lo
    hi = s_hi + inc_hi + (lo < inc_lo)
    work = np.empty((6, n), dtype=np.uint64)
    x, rot, rotated = work[:3]
    _pcg_step(hi, lo, inc_hi, inc_lo, work)
    out = np.empty((n_draws, n))
    for d in range(n_draws):
        _pcg_step(hi, lo, inc_hi, inc_lo, work)
        np.bitwise_xor(hi, lo, out=x)
        np.right_shift(hi, 58, out=rot)
        np.right_shift(x, rot, out=rotated)
        np.left_shift(x, np.bitwise_and(np.subtract(64, rot, out=rot), 63, out=rot), out=x)
        x |= rotated
        np.multiply(np.right_shift(x, 11, out=x), 2.0**-53, out=out[d])
    return out


def sample_population(spec: PopulationSpec) -> Population:
    """Draw the population; agent k depends only on (master_seed, k).

    Each non-degenerate interval, in the order gain, loss, success param, cost
    scale, cost shape, takes the next uniform draw of agent k's substream as
    ``lo + (hi - lo) * u``; a degenerate interval is ``float(lo)`` and takes none.
    A zero-cost population still takes its cost draws, and its cost columns are 0.
    """
    n = spec.n_agents
    intervals = (spec.gain, spec.loss, spec.success_param, spec.cost_scale, spec.cost_shape)
    draws = iter(_keyed_uniforms(spec.master_seed, n, sum(lo != hi for lo, hi in intervals)))
    gain, loss, s_param, c_scale, c_param = [
        np.full(n, float(lo)) if lo == hi else float(lo) + (float(hi) - float(lo)) * next(draws)
        for lo, hi in intervals]
    c_code = COST_FAMILIES[spec.cost_family].code
    if c_code == COST_ZERO:
        c_scale, c_param = np.zeros(n), np.zeros(n)
    return Population(gain, loss, np.full(n, SUCCESS_FAMILIES[spec.success_family].code), s_param,
                      np.full(n, c_code), c_scale, c_param)


def run_market(config: MarketConfig, traders: Sequence[Trader]) -> MarketOutcome:
    """Solve every trader at the configured ceiling and classify efficiency."""
    population = Population.from_traders(traders)
    if len(population) == 0:
        raise PreconditionError("trader collection must be non-empty")
    i_u = solve_roots(population)
    i_star, u_star, regime = constrain(population, config.i_max, i_u)

    participating = u_star >= 0 if config.participation_rule else np.ones(len(u_star), bool)
    counts = {r.value: int(np.count_nonzero(regime[participating] == r.value)) for r in Regime}
    n_part = int(np.count_nonzero(participating))
    fraction = counts[Regime.FULLY_INFORMED.value] / n_part if n_part else 0.0
    mean_u = float(np.mean(u_star[participating])) if n_part else math.nan
    return MarketOutcome(
        fraction_informed=fraction,
        efficient=fraction >= config.theta,
        counts=counts,
        mean_utility=mean_u,
        n_excluded=len(population) - n_part,
        i_u=i_u,
        i_star=i_star,
        u_star=u_star,
        regime=regime,
    )


def check_conjecture1(traders: Sequence[Trader], i_max: float, theta: float) -> ConjectureVerdict:
    """Costless information: every trader corners at i_max and the market is efficient."""
    population = Population.from_traders(traders)
    costly = np.flatnonzero(population.cost_code != COST_ZERO)
    if costly.size:
        raise PreconditionError(f"agent {costly[0]} has a non-zero cost curve")
    outcome = run_market(MarketConfig(i_max=i_max, theta=theta), population)
    # the only failure: if every i_star == i_max > 0, every agent is fully informed and, with
    # no participation rule, fraction_informed is 1.0 >= theta, so the market is efficient
    short = np.flatnonzero(outcome.i_star != i_max)[:1].tolist()
    return ConjectureVerdict.from_problems(
        "conjecture1",
        [f"agent {k} chose i_star={outcome.i_star[k].item()} != i_max={i_max}" for k in short],
        f"all {len(population)} agents fully informed at i_max={i_max}",
        counterexample=short[0] if short else None)


def check_conjecture2(efficient_leg: Tuple[MarketConfig, Sequence[Trader]],
                      inefficient_leg: Tuple[MarketConfig, Sequence[Trader]]) -> ConjectureVerdict:
    """Overload can coexist with efficiency or break it, under the same ceiling."""
    cfg_a, traders_a = efficient_leg
    cfg_b, traders_b = inefficient_leg
    if cfg_a.i_max != cfg_b.i_max:
        raise PreconditionError("both legs must share the same i_max")
    out_a = run_market(cfg_a, traders_a)
    out_b = run_market(cfg_b, traders_b)
    interior_a = out_a.counts[Regime.INTERIOR.value]
    problems = []
    if not out_a.efficient:
        problems.append(f"efficient leg failed (fraction={out_a.fraction_informed})")
    if interior_a == 0:
        problems.append("efficient leg has no interior (overloaded) agent")
    if out_b.efficient:
        problems.append(f"inefficient leg failed (fraction={out_b.fraction_informed})")
    return ConjectureVerdict.from_problems(
        "conjecture2", problems,
        f"efficient at theta={cfg_a.theta} with {interior_a} interior agents; "
        f"inefficient at theta={cfg_b.theta}")


def simulate_muthian_returns(model: ReturnModel, n: int, seed: int) -> ReturnSample:
    """Draw n returns r_of + eps with Gaussian white noise; mean recovers r_of.  A draw
    past the float range is a ``ConfigError`` naming ``returns.noise_sd`` where the noise
    overflows, else both fields."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if model.noise_sd == 0.0:
        return ReturnSample(mean=model.r_of, sd=0.0, n=n,
                            values=np.full(n, model.r_of))
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        noise = model.noise_sd * rng.standard_normal(n)
        values = model.r_of + noise
    if not (finite := np.isfinite(values)).all():
        field = "returns.r_of, returns.noise_sd" if np.isfinite(noise).all() else "returns.noise_sd"
        raise ConfigError(field, f"{n - finite.sum()} of {n} draws r_of + noise_sd * N are not "
                          f"finite, with r_of {model.r_of!r} and noise_sd {model.noise_sd!r}")
    return ReturnSample(*_mean_and_sd(values), n=n, values=values)


def _mean_and_sd(values: np.ndarray) -> Tuple[float, float]:
    """The mean and the sample sd (0 for one value).  Where every value is finite but a
    float64 sum overflows, both come from the values scaled exactly by a power of two to
    below 1 in size, and are scaled back."""
    with np.errstate(over="ignore"):
        mean, sd = values.mean(), values.std(ddof=1) if len(values) > 1 else 0.0
        if not (math.isfinite(mean) and math.isfinite(sd)) and np.isfinite(values).all():
            shift = np.frexp(np.abs(values).max())[1]
            mean, sd = (np.ldexp(x, shift) for x in _mean_and_sd(np.ldexp(values, -shift)))
    return float(mean), float(sd)
