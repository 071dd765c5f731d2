"""Population sampling, market-level efficiency classification and the three
costless-information conjecture checks.

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
from infoload.curves import COST_FAMILIES, SUCCESS_FAMILIES, params_of
from infoload.errors import ConfigError, NumericRangeError, ParameterError, PreconditionError
from infoload.kernels import COST_ZERO

Interval = Tuple[float, float]

# the spawn key k is one uint32 word of the agent's SeedSequence entropy
MAX_AGENTS = 2**32


def _check_interval(name: str, iv: Interval) -> None:
    lo, hi = iv
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ConfigError(name, f"degenerate or non-finite interval {iv!r}")
    if lo <= 0:
        raise ConfigError(name, f"lower bound must be positive, got {lo}")


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
        if not 1 <= self.n_agents <= MAX_AGENTS:
            raise ConfigError("population.n_agents", f"must lie in [1, 2**32], got {self.n_agents}")
        _check_interval("population.gain", self.gain)
        _check_interval("population.loss", self.loss)
        if not math.isfinite(self.gain[1] + self.loss[1]):
            raise ConfigError("population.loss", "gain + loss must be finite for every agent, got "
                              f"upper bounds {self.gain[1]} + {self.loss[1]}")
        if self.success_family not in SUCCESS_FAMILIES:
            raise ConfigError("population.success.family", f"unknown family {self.success_family!r}")
        (name,) = params_of(SUCCESS_FAMILIES[self.success_family])
        _check_interval(f"population.success.params.{name}", self.success_param)
        if self.cost_family not in COST_FAMILIES:
            raise ConfigError("population.cost.family", f"unknown family {self.cost_family!r}")
        for name, iv in zip(params_of(COST_FAMILIES[self.cost_family]),
                            (self.cost_scale, self.cost_shape)):
            _check_interval(f"population.cost.params.{name}", iv)
        if self.cost_family == "power" and self.cost_shape[0] <= 1.0:
            raise ConfigError("population.cost.params.exponent", "lower bound must exceed 1 "
                              f"(cost must be convex), got {self.cost_shape[0]}")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("population.master_seed", "must be a 64-bit unsigned integer")


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


@dataclass(eq=False)
class MarketOutcome:
    """The verdict, and entry k of each array for agent k (participating or not)."""

    fraction_informed: float
    efficient: bool
    counts: dict  # Regime value -> int, over participating agents
    mean_utility: float
    n_agents: int
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
    name: str
    passed: bool
    detail: str
    counterexample: Optional[int] = None


# numpy's SeedSequence (numpy/random/bit_generator.pyx) and PCG64 constants
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _mul128(hi: np.ndarray, lo: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(hi:lo) * PCG multiplier mod 2**128; the low 64x64 product in 32-bit limbs."""
    a0, a1 = lo & _MASK32, lo >> 32
    b0, b1 = _PCG_MULT_LO & _MASK32, _PCG_MULT_LO >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return carry + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI, lo * _PCG_MULT_LO


def _add128(a_hi, a_lo, b_hi, b_lo) -> Tuple[np.ndarray, np.ndarray]:
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _keyed_uniforms(master_seed: int, n: int, n_draws: int) -> np.ndarray:
    """``default_rng(SeedSequence(master_seed, spawn_key=(k,))).random(n_draws)``
    for every k < n at once, as row ``[:, k]`` of an (n_draws, n) array.

    Every step runs on uint32/uint64 arrays, which wrap without warnings.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        value = _MIX_MULT_L * x - _MIX_MULT_R * y
        return value ^ (value >> 16)

    # entropy: the seed's little-endian words zero-padded to the pool size, then k
    seed_words = [np.array([(master_seed >> 32 * i) & _MASK32], dtype=np.uint32)
                  for i in range(_POOL_SIZE)]
    pool = [hashmix(word) for word in seed_words]
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

    # pcg_setseq_128_srandom_r, then XSL-RR of the state after each step
    inc_hi, inc_lo = (i_hi << 1) | (i_lo >> 63), (i_lo << 1) | 1
    hi, lo = _add128(*_mul128(*_add128(inc_hi, inc_lo, s_hi, s_lo)), inc_hi, inc_lo)
    out = np.empty((n_draws, n))
    for d in range(n_draws):
        hi, lo = _add128(*_mul128(hi, lo), inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        x = (x >> rot) | (x << ((64 - rot) & 63))
        out[d] = (x >> 11) * 2.0**-53
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
        n_agents=len(population),
        n_excluded=len(population) - n_part,
        i_u=i_u,
        i_star=i_star,
        u_star=u_star,
        regime=regime,
    )


def informed_fractions(traders: Sequence[Trader], i_max_grid: Sequence[float]) -> List[float]:
    """``run_market(...).fraction_informed`` (no participation rule) at every
    ceiling: count(i_u >= i_max) / n over roots solved once and sorted."""
    return _fractions_at(solve_roots(traders), i_max_grid)


def _fractions_at(roots: np.ndarray, i_max_grid: Sequence[float]) -> List[float]:
    """count(i_u >= i_max) / n at every ceiling, for the population's roots ``i_u``."""
    if len(roots) == 0:
        raise PreconditionError("trader collection must be non-empty")
    nan = np.flatnonzero(np.isnan(roots))
    if nan.size:
        raise NumericRangeError(f"agent {nan[0]}: unconstrained optimum is NaN")
    n = len(roots)
    counts = n - np.searchsorted(np.sort(roots), i_max_grid, side="left")
    return [int(c) / n for c in counts]


def check_conjecture1(traders: Sequence[Trader], i_max: float, theta: float) -> ConjectureVerdict:
    """Costless information: every trader corners at i_max and the market is efficient."""
    population = Population.from_traders(traders)
    costly = np.flatnonzero(population.cost_code != COST_ZERO)
    if costly.size:
        raise PreconditionError(f"agent {costly[0]} has a non-zero cost curve")
    outcome = run_market(MarketConfig(i_max=i_max, theta=theta), population)
    short = np.flatnonzero(outcome.i_star != i_max)
    if short.size:
        idx = int(short[0])
        return ConjectureVerdict(
            name="conjecture1", passed=False,
            detail=f"agent {idx} chose i_star={outcome.i_star[idx].item()} != i_max={i_max}",
            counterexample=idx,
        )
    if not outcome.efficient or outcome.fraction_informed != 1.0:
        return ConjectureVerdict(
            name="conjecture1", passed=False,
            detail=f"market not efficient: fraction_informed={outcome.fraction_informed}",
        )
    return ConjectureVerdict(
        name="conjecture1", passed=True,
        detail=f"all {len(population)} agents fully informed at i_max={i_max}",
    )


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
    if problems:
        return ConjectureVerdict(name="conjecture2", passed=False, detail="; ".join(problems))
    return ConjectureVerdict(
        name="conjecture2", passed=True,
        detail=(f"efficient at theta={cfg_a.theta} with {interior_a} interior agents; "
                f"inefficient at theta={cfg_b.theta}"),
    )


def check_conjecture3(traders: Sequence[Trader], theta: float,
                      i_max_schedule: Sequence[float],
                      divergence_bound: float = -1e6) -> ConjectureVerdict:
    """Unbounded information: everyone overloads and utility diverges to -inf."""
    population = Population.from_traders(traders)
    costless = np.flatnonzero(population.cost_code == COST_ZERO)
    if costless.size:
        raise PreconditionError(f"agent {costless[0]} has a zero cost curve")
    schedule = list(i_max_schedule)
    if (len(schedule) < 10 or any(b <= a for a, b in zip(schedule, schedule[1:]))
            or not all(math.isfinite(s) and s > 0 for s in schedule)):
        raise PreconditionError("schedule must be positive, increasing, length >= 10")
    check_theta(theta)

    fractions = informed_fractions(population, schedule)
    ceiling_utils = [population.utility(i_max).max().item() for i_max in schedule]

    problems = []
    # efficient is frac >= theta, so an efficient verdict after the threshold crossing
    # needs a rising fraction: this check reports it
    if any(b > a for a, b in zip(fractions, fractions[1:])):
        problems.append("fraction_informed not non-increasing")
    if fractions[-1] != 0.0:
        problems.append(f"fraction_informed at final ceiling is {fractions[-1]}, not 0")
    tail = ceiling_utils[-3:]
    if not all(b < a for a, b in zip(tail, tail[1:])):
        problems.append("ceiling utility not eventually decreasing")
    if not ceiling_utils[-1] < divergence_bound:
        problems.append(f"ceiling utility {ceiling_utils[-1]} not below {divergence_bound}")
    if problems:
        return ConjectureVerdict(name="conjecture3", passed=False, detail="; ".join(problems))
    return ConjectureVerdict(
        name="conjecture3", passed=True,
        detail=(f"fraction_informed falls to 0 and ceiling utility reaches "
                f"{ceiling_utils[-1]:.4g} over {len(schedule)} ceilings"),
    )


def simulate_muthian_returns(model: ReturnModel, n: int, seed: int) -> ReturnSample:
    """Draw n returns r_of + eps with Gaussian white noise; mean recovers r_of."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if model.noise_sd == 0.0:
        return ReturnSample(mean=model.r_of, sd=0.0, n=n,
                            values=np.full(n, model.r_of))
    rng = np.random.default_rng(seed)
    values = model.r_of + model.noise_sd * rng.standard_normal(n)
    return ReturnSample(mean=float(values.mean()),
                       sd=float(values.std(ddof=1)) if n > 1 else 0.0,
                       n=n, values=values)
