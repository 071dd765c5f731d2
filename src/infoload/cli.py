"""Command line front end: config loading, subcommand dispatch, CSV output.

Usage: infoload <subcommand> --config <path> --out <dir> [--seed <u64>]

Subcommands: agent, market, conjectures, figure3, sweep, returns.
Exit codes: 0 success, 2 config error, 3 numeric or internal failure,
4 conjecture-check failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import itertools
import json
import math
import reprlib
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from infoload import __version__
from infoload.agent import Population, Regime, Trader, grid_oracles
from infoload.curves import COST_FAMILIES, SUCCESS_FAMILIES, ExpSaturating, PowerCost, params_of
from infoload.errors import ConfigError, NumericRangeError, PreconditionError
from infoload.market import (
    MarketConfig,
    PopulationSpec,
    ReturnModel,
    check_conjecture1,
    check_conjecture2,
    check_grid,
    run_market,
    sample_population,
    simulate_muthian_returns,
)
from infoload.sweep import check_conjecture3, sweep_2d, utility_curve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CONJECTURE = 4
EXIT_USAGE = 64

AGENT_ORACLE_STEP = 1e-3
# the oracle's utility must beat the optimizer's by more than this many ulps of W + L
AGENT_ORACLE_ULPS = 4
CSV_CHUNK_ROWS = 1024  # rows per write, so no buffer holds a whole large table
# the largest count each config field accepts, checked before anything is built: a draw
# or a curve point is one CSV row (returns.n_draws, sweep.n_points), and a sweep grid's
# num is one axis of phase2d.csv
MAX_ROWS = 10**6
MAX_GRID_NUM = 10**4


# ---------------------------------------------------------------------------
# config parsing: one parser per dotted field path, in the FIELDS table


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # an int beyond the float range is not a number here: float(value) would overflow
    return isinstance(value, float) or (_is_integer(value) and abs(value) <= sys.float_info.max)


def _is_finite(value) -> bool:
    return _is_number(value) and math.isfinite(value)


def _number(kind: type, minimum: float = -math.inf, maximum: float = math.inf):
    """Parser of an ``int``, or of a finite number as a ``float``, from ``minimum`` to
    ``maximum``."""
    valid, rule = (_is_integer, "an integer") if kind is int else (_is_finite, "a finite number")
    rule += f" >= {minimum}" if minimum > -math.inf else ""
    rule += f" and <= {maximum}" if maximum < math.inf else ""

    def parse(field: str, value):
        if not (valid(value) and minimum <= value <= maximum):
            raise ConfigError(field, f"must be {rule}, got {reprlib.repr(value)}")
        return kind(value)
    return parse


def _flag(field: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(field, f"must be true or false, got {reprlib.repr(value)}")
    return value


def _interval(field: str, value) -> tuple:
    if _is_number(value):
        return (float(value), float(value))
    if isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)):
        return (float(value[0]), float(value[1]))
    raise ConfigError(field, f"expected a number or [lo, hi] pair, got {reprlib.repr(value)}")


def _curve(families: dict):
    """Parser of a ``{family, params}`` record into the family name and the
    intervals of its params, in the order of the family class's fields."""

    def parse(field: str, record) -> tuple:
        if not (isinstance(record, dict) and set(record) == {"family", "params"}):
            raise ConfigError(field, "expected a record {family, params}, got "
                              + reprlib.repr(record))
        family, params = record["family"], record["params"] or {}  # null or [] too: no params
        if not (isinstance(family, str) and family in families):
            raise ConfigError(f"{field}.family",
                              f"must be one of {sorted(families)}, got {reprlib.repr(family)}")
        names = params_of(families[family])
        if not (isinstance(params, dict) and set(params) == set(names)):
            raise ConfigError(f"{field}.params",
                              f"family {family!r} requires exactly {list(names)}")
        return family, tuple(_interval(f"{field}.params.{name}", params[name]) for name in names)
    return parse


def _grid(field: str, value) -> List[float]:
    if isinstance(value, list) and all(map(_is_number, value)):
        return check_grid(field, [float(v) for v in value])
    if not (isinstance(value, dict) and set(value) == {"kind", "start", "stop", "num"}):
        raise ConfigError(field, "expected a list of numbers or a grid record "
                          f"{{kind, start, stop, num}}, got {reprlib.repr(value)}")
    kind, start, stop, num = (value[k] for k in ("kind", "start", "stop", "num"))
    if kind not in ("geometric", "linear"):
        raise ConfigError(f"{field}.kind",
                          f"must be 'geometric' or 'linear', got {reprlib.repr(kind)}")
    if not (_is_finite(start) and _is_finite(stop) and _is_number(num) and num >= 1
            and float(num).is_integer()):
        raise ConfigError(field, "start and stop must be finite numbers, num a positive "
                          f"integer: {reprlib.repr(value)}")
    if num > MAX_GRID_NUM:
        raise ConfigError(f"{field}.num", f"must be at most {MAX_GRID_NUM}, got {num!r}")
    if kind == "geometric" and not (start > 0 and stop > 0):
        raise ConfigError(field, "a geometric grid needs positive start and stop")
    spacing = np.geomspace if kind == "geometric" else np.linspace
    return check_grid(field, list(spacing(float(start), float(stop), int(num))))


def _optional(parse):
    return lambda field, value: None if value is None else parse(field, value)


# Every config field: its default and the parser that checks and converts it.
# Ranges that PopulationSpec, MarketConfig or ReturnModel check under the field's
# name are left to them.
FIELDS = {
    "population.n_agents": (100, _number(int)),
    "population.gain": (1.0, _interval),
    "population.loss": (1.0, _interval),
    "population.success": ({"family": "exp_saturating", "params": {"rate": 1.0}},
                           _curve(SUCCESS_FAMILIES)),
    "population.cost": ({"family": "power", "params": {"scale": [0.01, 1.0], "exponent": 2.0}},
                        _curve(COST_FAMILIES)),
    "population.master_seed": (0, _number(int)),
    "market.i_max": (2.0, _number(float)),
    "market.theta": (0.5, _number(float)),
    "market.participation_rule": (False, _flag),
    "sweep.i_max_grid": ({"kind": "geometric", "start": 0.0625, "stop": 16.0, "num": 33}, _grid),
    "sweep.cost_multiplier_grid": (None, _optional(_grid)),
    "sweep.n_points": (501, _number(int, 2, MAX_ROWS)),
    "returns.r_of": (0.05, _number(float)),
    "returns.noise_sd": (0.2, _number(float, 0)),
    "returns.n_draws": (10000, _number(int, 1, MAX_ROWS)),
}


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


def _name(text: str) -> str:
    """An unknown section or key name as an error shows it: shortened past 40 characters."""
    return text if len(text) <= 40 else reprlib.repr(text)


def _build_settings(raw, config_bytes: bytes, seed_override: Optional[int]) -> Settings:
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "top level must be a JSON object")
    given = {}
    for name, section in raw.items():
        if not any(path.startswith(f"{name}.") for path in FIELDS):
            raise ConfigError(_name(name), "unknown section")
        if not isinstance(section, dict):
            raise ConfigError(name, f"expected an object, got {reprlib.repr(section)}")
        for key, value in section.items():
            if f"{name}.{key}" not in FIELDS:
                raise ConfigError(f"{name}.{_name(key)}", "unknown key")
            given[f"{name}.{key}"] = value
    if seed_override is not None:
        given["population.master_seed"] = seed_override
    v = {}
    for path, (default, parse) in FIELDS.items():
        value = given.get(path, default)
        if isinstance(default, dict) and isinstance(value, dict):
            # a partial record is merged over its default, but a curve record that
            # names another family takes none of the default family's params
            if value.get("family", default.get("family")) != default.get("family"):
                default = {**default, "params": {}}
            value = {**default, **value}
        v[path] = parse(path, value)

    s_family, (s_param,) = v["population.success"]
    c_family, c_params = v["population.cost"]
    spec = PopulationSpec(
        n_agents=v["population.n_agents"],
        gain=v["population.gain"],
        loss=v["population.loss"],
        success_family=s_family,
        success_param=s_param,
        cost_family=c_family,
        **dict(zip(("cost_scale", "cost_shape"), c_params)),
        master_seed=v["population.master_seed"],
    )
    return Settings(
        population=spec,
        market=MarketConfig(i_max=v["market.i_max"], theta=v["market.theta"],
                            participation_rule=v["market.participation_rule"]),
        i_max_grid=v["sweep.i_max_grid"],
        cost_multiplier_grid=v["sweep.cost_multiplier_grid"],
        n_points=v["sweep.n_points"],
        return_model=ReturnModel(r_of=v["returns.r_of"], noise_sd=v["returns.noise_sd"]),
        n_draws=v["returns.n_draws"],
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
    # RecursionError: nested too deeply; UnicodeDecodeError: bytes that are not UTF-8
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError("<parse>", str(exc)) from exc
    return _build_settings(raw, data, seed_override)


# ---------------------------------------------------------------------------
# output helpers


def _cells(column) -> tuple:
    """One column's cells and their ``%`` format: floats as ``%.12g`` (so ``inf``,
    ``-inf``, ``nan``), booleans as ``true``/``false``, anything else as ``%s``."""
    column = np.asarray(column)
    if column.dtype.kind == "b":
        return ["true" if v else "false" for v in column.tolist()], "%s"
    return column.tolist(), "%.12g" if column.dtype.kind == "f" else "%s"


def write_csv(path: Path, header: Sequence[str], columns) -> Path:
    """Write equal-length columns under ``header`` and return ``path``; each row is
    formatted with one ``%``, and the rows go to the file ``CSV_CHUNK_ROWS`` at a
    time.  Columns of unequal length raise ``ValueError`` before the file is opened."""
    cells = list(map(_cells, columns))
    lengths = {len(values) for values, _ in cells}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal length: {sorted(lengths)}")
    row = ",".join(fmt for _, fmt in cells) + "\n"
    rows = map(row.__mod__, zip(*(values for values, _ in cells)))
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        while chunk := "".join(itertools.islice(rows, CSV_CHUNK_ROWS)):
            fh.write(chunk)
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


AGENT_HEADER = ["agent_id", "W", "L", "cost_scale", "i_u", "i_star", "regime", "u_star"]


def _agent_columns(population: Population, outcome) -> list:
    return [np.arange(len(population)), population.gain, population.loss, population.cost_scale,
            outcome.i_u, outcome.i_star, outcome.regime, outcome.u_star]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_agent(settings: Settings, out_dir: Path) -> List[Path]:
    population = sample_population(settings.population)
    outcome = run_market(settings.market, population)
    step = min(AGENT_ORACLE_STEP, settings.market.i_max)  # a grid needs step <= i_max
    oracle, oracle_u, _ = grid_oracles(population, settings.market.i_max, step)
    gap = np.abs(outcome.i_star - oracle)
    # where the utility is flat in float64 (lambda saturated) the oracle's first maximizer
    # starts the flat stretch, so a far location alone is no disagreement
    stake = population.gain + population.loss
    better = oracle_u - outcome.u_star > AGENT_ORACLE_ULPS * np.spacing(stake)
    far = np.flatnonzero((gap > step + 1e-6) & better)
    if far.size:
        raise NumericRangeError(f"agent {far[0]}: optimizer/oracle disagree by {gap[far[0]]:.3g}")
    return [write_csv(out_dir / "agents.csv", AGENT_HEADER + ["oracle_i_star"],
                      _agent_columns(population, outcome) + [oracle])]


def _cmd_market(settings: Settings, out_dir: Path) -> List[Path]:
    population = sample_population(settings.population)
    outcome = run_market(settings.market, population)
    per_agent = write_csv(out_dir / "market.csv", AGENT_HEADER,
                          _agent_columns(population, outcome))
    summary = write_csv(
        out_dir / "market_summary.csv",
        ["fraction_informed", "efficient", "n_corner_zero", "n_interior",
         "n_fully_informed", "n_excluded", "mean_utility"],
        [[outcome.fraction_informed], [outcome.efficient],
         [outcome.counts[Regime.CORNER_ZERO.value]],
         [outcome.counts[Regime.INTERIOR.value]],
         [outcome.counts[Regime.FULLY_INFORMED.value]],
         [outcome.n_excluded], [outcome.mean_utility]])
    return [per_agent, summary]


def _cmd_conjectures(settings: Settings, out_dir: Path) -> List[Path]:
    seed = settings.population.master_seed
    muthian_spec = PopulationSpec(
        n_agents=200, gain=(0.5, 2.0), loss=(0.5, 2.0),
        success_family="exp_saturating", success_param=(0.5, 2.0),
        cost_family="zero", master_seed=seed)
    v1 = check_conjecture1(sample_population(muthian_spec),
                           i_max=settings.market.i_max, theta=settings.market.theta)

    # half low-cost (corner at any modest ceiling), half high-cost (overloaded)
    mixed = ([Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(0.001, 2.0))] * 50
             + [Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(10.0, 2.0))] * 50)
    v2 = check_conjecture2(
        (MarketConfig(i_max=2.0, theta=0.4), mixed),
        (MarketConfig(i_max=2.0, theta=0.6), mixed))

    schedule = [2.0**k for k in range(15)]
    overload = [Trader(1.0, 1.0, ExpSaturating(1.0), PowerCost(0.01, 2.0))] * 50
    v3 = check_conjecture3(overload, theta=settings.market.theta, i_max_schedule=schedule)

    verdicts = [v1, v2, v3]
    path = write_csv(out_dir / "conjectures.csv",
                     ["conjecture", "passed", "detail"],
                     [[v.name for v in verdicts],
                      ["pass" if v.passed else "fail" for v in verdicts],
                      [f'"{v.detail}"' for v in verdicts]])
    if not all(v.passed for v in verdicts):
        raise _ConjectureFailure([v.name for v in verdicts if not v.passed], [path])
    return [path]


class _ConjectureFailure(Exception):
    def __init__(self, failed, outputs):
        super().__init__(f"conjecture checks failed: {', '.join(failed)}")
        self.outputs = outputs


def _cmd_figure3(settings: Settings, out_dir: Path) -> List[Path]:
    # agent 0 depends only on (master_seed, 0): draw it alone
    trader = sample_population(replace(settings.population, n_agents=1))[0]
    curve = utility_curve(trader, settings.market.i_max, settings.n_points)
    return [write_csv(out_dir / "figure3.csv", ["i", "expected_utility"],
                      [curve.grid, curve.utilities])]


def _cmd_sweep(settings: Settings, out_dir: Path) -> List[Path]:
    population = sample_population(settings.population)
    mults = settings.cost_multiplier_grid
    # one sweep for the requested rows and the unit row, which is the 1-D series
    diagram = sweep_2d(population, settings.i_max_grid, sorted({1.0, *(mults or [])}),
                       settings.market.theta)
    grid = diagram.i_max_grid
    unit = int(np.searchsorted(diagram.multipliers, 1.0))
    outputs = [write_csv(out_dir / "phase.csv", ["i_max", "fraction_informed", "efficient"],
                         [grid, diagram.fractions[unit], diagram.efficient[unit]])]
    if mults is not None:
        rows = np.searchsorted(diagram.multipliers, mults)
        outputs.append(write_csv(
            out_dir / "phase2d.csv",
            ["cost_multiplier", "i_max", "fraction_informed", "efficient"],
            [np.repeat(diagram.multipliers[rows], len(grid)), np.tile(grid, len(rows)),
             diagram.fractions[rows].ravel(), diagram.efficient[rows].ravel()]))
    return outputs


def _cmd_returns(settings: Settings, out_dir: Path) -> List[Path]:
    sample = simulate_muthian_returns(settings.return_model, settings.n_draws,
                                      seed=settings.population.master_seed)
    draws = write_csv(out_dir / "returns.csv", ["draw_index", "value"],
                      [np.arange(sample.n), sample.values])
    summary = write_csv(out_dir / "returns_summary.csv", ["mean", "sd", "n"],
                        [[sample.mean], [sample.sd], [sample.n]])
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
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


_PARSER = _Parser(prog="infoload", description="Information-overload market efficiency simulator")
_PARSER.add_argument("subcommand", choices=_DISPATCH)
_PARSER.add_argument("--config", required=True)
_PARSER.add_argument("--out", required=True)
_PARSER.add_argument("--seed", type=int, default=None)


def _write_error(out_dir: Optional[Path], code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    if out_dir is not None and out_dir.is_dir():
        record = {"exit_code": code, "error": message}
        (out_dir / "error.json").write_text(json.dumps(record, indent=2) + "\n")
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        return _write_error(None, EXIT_USAGE, f"--out {args.out}: {exc.strerror or exc}")
    try:
        settings = parse_config(args.config, seed_override=args.seed)
        outputs = _DISPATCH[args.subcommand](settings, out_dir)
        write_manifest(out_dir, args.subcommand, settings, outputs)
    except _ConjectureFailure as exc:
        write_manifest(out_dir, args.subcommand, settings, exc.outputs)
        return _write_error(out_dir, EXIT_CONJECTURE, str(exc))
    except (FileNotFoundError, PreconditionError) as exc:  # a ConfigError is one too
        return _write_error(out_dir, EXIT_CONFIG, str(exc))
    except Exception as exc:  # a numeric or internal failure ends with a record, not a traceback
        return _write_error(out_dir, EXIT_NUMERIC, f"{type(exc).__name__}: {exc}")
    return EXIT_OK


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
