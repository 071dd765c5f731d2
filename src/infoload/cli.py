"""Command line front end: config loading, subcommand dispatch, CSV output.

Usage: infoload <subcommand> --config <path> --out <dir> [--seed <u64>]

Subcommands: agent, market, conjectures, figure3, sweep, returns.
Exit codes: 0 success, 2 config error, 3 numeric failure,
4 conjecture-check failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import copy
import datetime
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from infoload import __version__
from infoload.agent import Regime, Trader, grid_oracle, optimize_information
from infoload.curves import ExpSaturating, PowerCost
from infoload.errors import ConfigError, NumericRangeError, PreconditionError
from infoload.market import (
    MarketConfig,
    PopulationSpec,
    ReturnModel,
    check_conjecture1,
    check_conjecture2,
    check_conjecture3,
    run_market,
    sample_population,
    simulate_muthian_returns,
)
from infoload.sweep import sweep_2d, sweep_imax, utility_curve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CONJECTURE = 4
EXIT_USAGE = 64

SUBCOMMANDS = ("agent", "market", "conjectures", "figure3", "sweep", "returns")

AGENT_ORACLE_STEP = 1e-3

_CURVE_PARAM_NAMES = {
    "exp_saturating": ("rate",),
    "hyperbolic": ("half_saturation",),
    "power": ("scale", "exponent"),
    "exp_growth": ("scale", "rate"),
    "zero": (),
}

DEFAULT_CONFIG = {
    "population": {
        "n_agents": 100,
        "gain": 1.0,
        "loss": 1.0,
        "success": {"family": "exp_saturating", "params": {"rate": 1.0}},
        "cost": {"family": "power", "params": {"scale": [0.01, 1.0], "exponent": 2.0}},
        "master_seed": 0,
    },
    "market": {"i_max": 2.0, "theta": 0.5, "participation_rule": False},
    "sweep": {
        "i_max_grid": {"kind": "geometric", "start": 0.0625, "stop": 16.0, "num": 33},
        "cost_multiplier_grid": None,
        "n_points": 501,
    },
    "returns": {"r_of": 0.05, "noise_sd": 0.2, "n_draws": 10000},
}


# ---------------------------------------------------------------------------
# config parsing


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # an int beyond the float range is not a number here: float(value) would overflow
    return isinstance(value, float) or (_is_integer(value) and abs(value) <= sys.float_info.max)


def _as_interval(field: str, value) -> tuple:
    if _is_number(value):
        return (float(value), float(value))
    if isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)):
        return (float(value[0]), float(value[1]))
    raise ConfigError(field, f"expected a number or [lo, hi] pair, got {value!r}")


def _merge_section(path: str, defaults: dict, given) -> dict:
    if not isinstance(given, dict):
        raise ConfigError(path, f"expected an object, got {given!r}")
    merged = copy.deepcopy(defaults)
    for key, value in given.items():
        if key not in defaults:
            raise ConfigError(f"{path}.{key}", "unknown key")
        if isinstance(defaults[key], dict) and isinstance(value, dict) and key != "params":
            merged[key] = _merge_section(f"{path}.{key}", defaults[key], value)
        else:
            merged[key] = value
    return merged


def _parse_curve(path: str, record: dict, allowed_families) -> tuple:
    if not isinstance(record, dict) or set(record) - {"family", "params"}:
        raise ConfigError(path, "expected a record {family, params}")
    family = record.get("family")
    if family not in allowed_families:
        raise ConfigError(f"{path}.family", f"must be one of {sorted(allowed_families)}, got {family!r}")
    names = _CURVE_PARAM_NAMES[family]
    params = record.get("params", {})
    if set(params) != set(names):
        raise ConfigError(f"{path}.params", f"family {family!r} requires exactly {list(names)}")
    return family, {n: _as_interval(f"{path}.params.{n}", params[n]) for n in names}


def _parse_grid(field: str, value) -> List[float]:
    if isinstance(value, list) and all(map(_is_number, value)):
        grid = [float(v) for v in value]
    elif isinstance(value, dict):
        if set(value) != {"kind", "start", "stop", "num"}:
            raise ConfigError(field, "grid record requires exactly {kind, start, stop, num}")
        kind, start, stop, num = (value[k] for k in ("kind", "start", "stop", "num"))
        if kind not in ("geometric", "linear"):
            raise ConfigError(f"{field}.kind", f"must be 'geometric' or 'linear', got {kind!r}")
        if not (all(map(_is_number, (start, stop, num))) and num >= 1 and float(num).is_integer()):
            raise ConfigError(field, f"start and stop must be numbers, num a positive integer: {value!r}")
        if kind == "geometric" and not (start > 0 and stop > 0):
            raise ConfigError(field, "a geometric grid needs positive start and stop")
        spacing = np.geomspace if kind == "geometric" else np.linspace
        grid = list(spacing(start, stop, int(num)))
    else:
        raise ConfigError(field, f"expected a list of numbers or a grid record, got {value!r}")
    if len(grid) == 0 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(field, "grid must be non-empty and strictly increasing")
    if not all(math.isfinite(v) and v > 0 for v in grid):
        raise ConfigError(field, "grid values must be positive finite reals")
    return grid


@dataclass
class Settings:
    population: PopulationSpec
    market: MarketConfig
    i_max_grid: List[float]
    cost_multiplier_grid: Optional[List[float]]
    n_points: int
    return_model: ReturnModel
    n_draws: int
    config_sha256: str


def _build_settings(raw: dict, config_bytes: bytes, seed_override: Optional[int]) -> Settings:
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "top level must be a JSON object")
    unknown = set(raw) - set(DEFAULT_CONFIG)
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown section")
    merged = {
        name: _merge_section(name, DEFAULT_CONFIG[name], raw.get(name, {}))
        for name in DEFAULT_CONFIG
    }

    pop = merged["population"]
    s_family, s_params = _parse_curve("population.success", pop["success"],
                                     ("exp_saturating", "hyperbolic"))
    c_family, c_params = _parse_curve("population.cost", pop["cost"],
                                     ("power", "exp_growth", "zero"))
    if c_family == "power":
        scale, shape = c_params["scale"], c_params["exponent"]
    elif c_family == "exp_growth":
        scale, shape = c_params["scale"], c_params["rate"]
    else:
        scale, shape = (1.0, 1.0), (2.0, 2.0)
    if c_family == "power" and shape[0] <= 1.0:
        raise ConfigError("population.cost.params.exponent",
                          "must exceed 1 (cost must be convex)")
    if not _is_integer(pop["n_agents"]):
        raise ConfigError("population.n_agents", "must be an integer")
    seed = seed_override if seed_override is not None else pop["master_seed"]
    if not _is_integer(seed):
        raise ConfigError("population.master_seed", "must be an integer")

    spec = PopulationSpec(
        n_agents=pop["n_agents"],
        gain=_as_interval("population.gain", pop["gain"]),
        loss=_as_interval("population.loss", pop["loss"]),
        success_family=s_family,
        success_param=next(iter(s_params.values())),
        cost_family=c_family,
        cost_scale=scale,
        cost_shape=shape,
        master_seed=seed,
    )

    mkt = merged["market"]
    for key, valid in (("i_max", _is_number), ("theta", _is_number),
                       ("participation_rule", lambda v: isinstance(v, bool))):
        if not valid(mkt[key]):
            raise ConfigError(f"market.{key}", f"bad type {type(mkt[key]).__name__}")
    market = MarketConfig(i_max=float(mkt["i_max"]), theta=float(mkt["theta"]),
                          participation_rule=mkt["participation_rule"])

    swp = merged["sweep"]
    if not _is_integer(swp["n_points"]) or swp["n_points"] < 2:
        raise ConfigError("sweep.n_points", "must be an integer >= 2")
    mult_grid = swp["cost_multiplier_grid"]
    if mult_grid is not None:
        mult_grid = _parse_grid("sweep.cost_multiplier_grid", mult_grid)

    ret = merged["returns"]
    for key in ("r_of", "noise_sd"):
        if not (_is_number(ret[key]) and math.isfinite(ret[key])):
            raise ConfigError(f"returns.{key}", f"must be a finite number, got {ret[key]!r}")
    if ret["noise_sd"] < 0:
        raise ConfigError("returns.noise_sd", "must be non-negative")
    if not _is_integer(ret["n_draws"]) or ret["n_draws"] < 1:
        raise ConfigError("returns.n_draws", "must be a positive integer")

    return Settings(
        population=spec,
        market=market,
        i_max_grid=_parse_grid("sweep.i_max_grid", swp["i_max_grid"]),
        cost_multiplier_grid=mult_grid,
        n_points=swp["n_points"],
        return_model=ReturnModel(r_of=float(ret["r_of"]), noise_sd=float(ret["noise_sd"])),
        n_draws=ret["n_draws"],
        config_sha256=hashlib.sha256(config_bytes).hexdigest(),
    )


def parse_config(path, seed_override: Optional[int] = None) -> Settings:
    """Load and validate a JSON config; every model invariant is re-checked."""
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config file not found: {p}")
    data = p.read_bytes()
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ConfigError("<parse>", str(exc)) from exc
    return _build_settings(raw, data, seed_override)


# ---------------------------------------------------------------------------
# output helpers


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.12g}"
    return str(value)


def write_csv(path: Path, header: Sequence[str], rows) -> Path:
    lines = [",".join(header)]
    lines.extend(",".join(format_value(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def write_manifest(out_dir: Path, subcommand: str, settings: Settings,
                   outputs: List[Path]) -> Path:
    manifest = {
        "version": __version__,
        "config_sha256": settings.config_sha256,
        "master_seed": settings.population.master_seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "subcommand": subcommand,
        "outputs": sorted(p.name for p in outputs),
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", newline="\n")
    return path


def _cost_scale_of(trader: Trader) -> float:
    return getattr(trader.cost, "scale", 0.0)


def _agent_rows(traders, outcomes):
    for idx, (t, o) in enumerate(zip(traders, outcomes)):
        yield (idx, t.gain, t.loss, _cost_scale_of(t), o.i_unconstrained,
               o.i_star, o.regime.value, o.u_star)


# ---------------------------------------------------------------------------
# reference populations for the conjectures subcommand


def reference_mixed_population(n_agents: int = 100) -> List[Trader]:
    """Half low-cost (corner at any modest ceiling), half high-cost (overloaded)."""
    half = n_agents // 2
    low = Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(0.001, 2.0))
    high = Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(10.0, 2.0))
    return [low] * half + [high] * (n_agents - half)


def reference_overload_population(n_agents: int = 50) -> List[Trader]:
    return [Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(0.01, 2.0))] * n_agents


# ---------------------------------------------------------------------------
# subcommands


def _cmd_agent(settings: Settings, out_dir: Path) -> List[Path]:
    traders = sample_population(settings.population)
    rows = []
    for idx, trader in enumerate(traders):
        opt = optimize_information(trader, settings.market.i_max)
        oracle = grid_oracle(trader, settings.market.i_max, AGENT_ORACLE_STEP)
        gap = abs(opt.i_star - oracle.i_star)
        if gap > AGENT_ORACLE_STEP + 1e-6:
            raise NumericRangeError(
                f"agent {idx}: optimizer/oracle disagree by {gap:.3g}")
        rows.append((idx, trader.gain, trader.loss, _cost_scale_of(trader),
                     opt.i_unconstrained, opt.i_star, opt.regime.value, opt.u_star,
                     oracle.i_star))
    return [write_csv(out_dir / "agents.csv",
                      ["agent_id", "W", "L", "cost_scale", "i_u", "i_star",
                       "regime", "u_star", "oracle_i_star"], rows)]


def _cmd_market(settings: Settings, out_dir: Path) -> List[Path]:
    traders = sample_population(settings.population)
    outcome = run_market(settings.market, traders)
    per_agent = write_csv(
        out_dir / "market.csv",
        ["agent_id", "W", "L", "cost_scale", "i_u", "i_star", "regime", "u_star"],
        _agent_rows(traders, outcome.outcomes))
    summary = write_csv(
        out_dir / "market_summary.csv",
        ["fraction_informed", "efficient", "n_corner_zero", "n_interior",
         "n_fully_informed", "n_excluded", "mean_utility"],
        [(outcome.fraction_informed, outcome.efficient,
          outcome.counts[Regime.CORNER_ZERO.value],
          outcome.counts[Regime.INTERIOR.value],
          outcome.counts[Regime.FULLY_INFORMED.value],
          outcome.n_excluded, outcome.mean_utility)])
    return [per_agent, summary]


def _cmd_conjectures(settings: Settings, out_dir: Path) -> List[Path]:
    seed = settings.population.master_seed
    muthian_spec = PopulationSpec(
        n_agents=200, gain=(0.5, 2.0), loss=(0.5, 2.0),
        success_family="exp_saturating", success_param=(0.5, 2.0),
        cost_family="zero", master_seed=seed)
    v1 = check_conjecture1(sample_population(muthian_spec),
                           i_max=settings.market.i_max, theta=settings.market.theta)

    mixed = reference_mixed_population(100)
    v2 = check_conjecture2(
        (MarketConfig(i_max=2.0, theta=0.4), mixed),
        (MarketConfig(i_max=2.0, theta=0.6), mixed))

    schedule = [2.0**k for k in range(15)]
    v3 = check_conjecture3(reference_overload_population(50),
                           theta=settings.market.theta, i_max_schedule=schedule)

    verdicts = [v1, v2, v3]
    path = write_csv(out_dir / "conjectures.csv",
                     ["conjecture", "passed", "detail"],
                     [(v.name, "pass" if v.passed else "fail", f'"{v.detail}"')
                      for v in verdicts])
    if not all(v.passed for v in verdicts):
        raise _ConjectureFailure([v.name for v in verdicts if not v.passed], [path])
    return [path]


class _ConjectureFailure(Exception):
    def __init__(self, failed, outputs):
        super().__init__(f"conjecture checks failed: {', '.join(failed)}")
        self.outputs = outputs


def _cmd_figure3(settings: Settings, out_dir: Path) -> List[Path]:
    trader = sample_population(settings.population)[0]
    curve = utility_curve(trader, settings.market.i_max, settings.n_points)
    return [write_csv(out_dir / "figure3.csv", ["i", "expected_utility"],
                      zip(curve.grid, curve.utilities))]


def _cmd_sweep(settings: Settings, out_dir: Path) -> List[Path]:
    traders = sample_population(settings.population)
    grid, mults, theta = settings.i_max_grid, settings.cost_multiplier_grid, settings.market.theta
    rows = []
    if mults is not None:
        diagram = sweep_2d(traders, grid, mults, theta)
        rows = [(float(mult), float(i_max), float(diagram.fractions[r, c]),
                 bool(diagram.efficient[r, c]))
                for r, mult in enumerate(diagram.multipliers)
                for c, i_max in enumerate(diagram.i_max_grid)]
    # cost.scaled(1.0) is bit-identical to the cost itself: that row is the 1-D series
    points = [row[1:] for row in rows if row[0] == 1.0] or sweep_imax(traders, grid, theta).points
    outputs = [write_csv(out_dir / "phase.csv",
                         ["i_max", "fraction_informed", "efficient"], points)]
    if mults is not None:
        outputs.append(write_csv(
            out_dir / "phase2d.csv",
            ["cost_multiplier", "i_max", "fraction_informed", "efficient"], rows))
    return outputs


def _cmd_returns(settings: Settings, out_dir: Path) -> List[Path]:
    sample = simulate_muthian_returns(settings.return_model, settings.n_draws,
                                      seed=settings.population.master_seed)
    draws = write_csv(out_dir / "returns.csv", ["draw_index", "value"],
                      ((idx, float(v)) for idx, v in enumerate(sample.values)))
    summary = write_csv(out_dir / "returns_summary.csv", ["mean", "sd", "n"],
                        [(sample.mean, sample.sd, sample.n)])
    return [draws, summary]


_DISPATCH = {
    "agent": _cmd_agent,
    "market": _cmd_market,
    "conjectures": _cmd_conjectures,
    "figure3": _cmd_figure3,
    "sweep": _cmd_sweep,
    "returns": _cmd_returns,
}


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_error(out_dir: Optional[Path], code: int, message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    if out_dir is not None and out_dir.is_dir():
        record = {"exit_code": code, "error": message}
        (out_dir / "error.json").write_text(json.dumps(record, indent=2) + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _Parser(prog="infoload",
                     description="Information-overload market efficiency simulator")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        settings = parse_config(args.config, seed_override=args.seed)
    except (ConfigError, FileNotFoundError) as exc:
        _write_error(out_dir, EXIT_CONFIG, str(exc))
        return EXIT_CONFIG

    try:
        outputs = _DISPATCH[args.subcommand](settings, out_dir)
    except _ConjectureFailure as exc:
        write_manifest(out_dir, args.subcommand, settings, exc.outputs)
        _write_error(out_dir, EXIT_CONJECTURE, str(exc))
        return EXIT_CONJECTURE
    except (NumericRangeError, ArithmeticError) as exc:
        _write_error(out_dir, EXIT_NUMERIC, str(exc))
        return EXIT_NUMERIC
    except (ConfigError, PreconditionError) as exc:
        _write_error(out_dir, EXIT_CONFIG, str(exc))
        return EXIT_CONFIG

    write_manifest(out_dir, args.subcommand, settings, outputs)
    return EXIT_OK


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
