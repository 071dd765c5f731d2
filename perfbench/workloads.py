"""Benchmark workloads: one generated CLI config each, plus an untimed check per job.

Each workload stresses a different layer of the package:

- ``sweep_cli``: the paper's phase diagram.  ~79k ``optimize_information``
  calls per job that reuse precomputed roots, 198 small ``run_market`` calls,
  no kernel calls.  Checked against the closed-form order-statistic oracle.
- ``market_cli``: one large ``run_market`` over 10^4 agents that solves fresh
  roots; per-agent seeded sampling and the 10^4-row CSV are a large share.
  Checked against the brute-force grid oracle on a seeded sample of agents.
- ``agent_cli``: a 100k-point grid oracle per agent, so the utility kernel
  dominates.  The cost exponent is drawn from [1.5, 3.0] so that a special
  case for exponent 2 cannot pass for a general kernel gain.

The checks use the package's public API for oracles, never the code path the
job itself timed, and import every function before tracing can wrap it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from infoload import kernels
from infoload.agent import grid_oracle, information_grid
from infoload.cli import AGENT_ORACLE_STEP, parse_config
from infoload.market import sample_population
from infoload.sweep import critical_imax_quantile

MARKET_ORACLE_STEP = 1e-3
MARKET_SAMPLE = 40
KERNEL_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    subcommand: str
    config: dict
    # (config path, job output dir, job seed) -> list of problems, empty if correct
    check: Callable[[Path, Path, int], List[str]]


def _read_csv(path: Path) -> List[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _population(n_agents, success, cost) -> dict:
    return {"n_agents": n_agents, "gain": [0.5, 2.0], "loss": [0.5, 2.0],
            "success": success, "cost": cost}


# ---------------------------------------------------------------------------
# sweep_cli


def _boundary_problems(label: str, rows: List[dict], quantile) -> List[str]:
    """The last efficient ceiling must sit within one grid cell of the quantile."""
    grid = [float(r["i_max"]) for r in rows]
    efficient = [r["efficient"] == "true" for r in rows]
    actual = max((k for k, e in enumerate(efficient) if e), default=-1)
    expected = -1 if quantile is None else sum(g <= quantile for g in grid) - 1
    if abs(actual - expected) > 1:
        return [f"{label}: last efficient ceiling index {actual}, "
                f"oracle quantile {quantile!r} gives index {expected}"]
    return []


def check_sweep(config_path: Path, out_dir: Path, seed: int) -> List[str]:
    settings = parse_config(config_path, seed_override=seed)
    traders = sample_population(settings.population)
    theta = settings.market.theta
    n_grid = len(settings.i_max_grid)

    phase = _read_csv(out_dir / "phase.csv")
    phase2d = _read_csv(out_dir / "phase2d.csv")
    mults = settings.cost_multiplier_grid
    if len(phase) != n_grid or len(phase2d) != n_grid * len(mults):
        return [f"phase.csv has {len(phase)} rows, phase2d.csv {len(phase2d)}; "
                f"expected {n_grid} and {n_grid * len(mults)}"]

    problems = _boundary_problems("phase.csv", phase,
                                  critical_imax_quantile(traders, theta))
    for r, mult in enumerate(mults):
        block = phase2d[r * n_grid:(r + 1) * n_grid]
        if any(not math.isclose(float(row["cost_multiplier"]), mult, rel_tol=1e-9)
               for row in block):
            problems.append(f"phase2d.csv block {r} is not multiplier {mult}")
            continue
        scaled = [replace(t, cost=t.cost.scaled(mult)) for t in traders]
        problems += _boundary_problems(f"phase2d.csv multiplier {mult}", block,
                                       critical_imax_quantile(scaled, theta))
    return problems


# ---------------------------------------------------------------------------
# market_cli


def _regime_problem(k: int, row: dict, trader, i_max: float, step: float):
    oracle = grid_oracle(trader, i_max, step)
    i_star = float(row["i_star"])
    if abs(i_star - oracle.i_star) > step * (1 + 1e-6):
        return f"agent {k}: i_star {i_star} vs grid oracle {oracle.i_star}"
    # the oracle may label a boundary regime when the optimum is within a step of it
    near_boundary = i_star <= step or i_star >= i_max - step
    if row["regime"] != oracle.regime.value and not near_boundary:
        return f"agent {k}: regime {row['regime']} vs grid oracle {oracle.regime.value}"
    return None


def check_market(config_path: Path, out_dir: Path, seed: int) -> List[str]:
    settings = parse_config(config_path, seed_override=seed)
    traders = sample_population(settings.population)
    rows = _read_csv(out_dir / "market.csv")
    summary = _read_csv(out_dir / "market_summary.csv")
    if len(rows) != len(traders) or len(summary) != 1:
        return [f"market.csv has {len(rows)} rows for {len(traders)} agents"]
    problems = []

    i_max = settings.market.i_max
    sample = np.random.default_rng(seed).choice(len(traders), MARKET_SAMPLE, replace=False)
    for k in sorted(int(k) for k in sample):
        row, trader = rows[k], traders[k]
        if (int(row["agent_id"]) != k
                or not math.isclose(float(row["W"]), trader.gain, rel_tol=1e-9)
                or not math.isclose(float(row["L"]), trader.loss, rel_tol=1e-9)):
            problems.append(f"agent {k}: row does not describe the sampled trader")
            continue
        problem = _regime_problem(k, row, trader, i_max, MARKET_ORACLE_STEP)
        if problem:
            problems.append(problem)

    if settings.market.participation_rule:
        participating = [r for r in rows if float(r["u_star"]) >= 0]
    else:
        participating = rows
    expected = {
        "n_corner_zero": sum(r["regime"] == "corner_zero" for r in participating),
        "n_interior": sum(r["regime"] == "interior" for r in participating),
        "n_fully_informed": sum(r["regime"] == "fully_informed" for r in participating),
        "n_excluded": len(rows) - len(participating),
    }
    for key, value in expected.items():
        if int(summary[0][key]) != value:
            problems.append(f"summary {key} = {summary[0][key]}, rows give {value}")
    return problems


# ---------------------------------------------------------------------------
# agent_cli


def check_agent(config_path: Path, out_dir: Path, seed: int) -> List[str]:
    settings = parse_config(config_path, seed_override=seed)
    rows = _read_csv(out_dir / "agents.csv")
    if len(rows) != settings.population.n_agents:
        return [f"agents.csv has {len(rows)} rows for {settings.population.n_agents} agents"]
    step = AGENT_ORACLE_STEP
    problems = [f"agent {r['agent_id']}: oracle {r['oracle_i_star']} vs i_star {r['i_star']}"
                for r in rows
                if abs(float(r["oracle_i_star"]) - float(r["i_star"])) > step * (1 + 1e-6)]

    # one grid per job: selected kernel against the pure-numpy reference, and
    # the oracle column against an argmax recomputed here
    k = int(np.random.default_rng(seed).integers(len(rows)))
    trader = sample_population(settings.population)[k]
    grid = information_grid(settings.market.i_max, step)
    args = (grid, *trader.success.kernel_code(), *trader.cost.kernel_code(),
            trader.gain, trader.loss)
    selected = np.asarray(kernels.utility_grid(*args))
    reference = np.asarray(kernels.pure_python_utility_grid(*args))
    scale = float(np.max(np.abs(reference)))
    if not np.allclose(selected, reference, rtol=KERNEL_RTOL, atol=KERNEL_RTOL * scale):
        problems.append(f"agent {k}: kernel backend {kernels.BACKEND} differs from the "
                        f"pure-numpy kernel by {np.max(np.abs(selected - reference)):.3g}")
    argmax = float(grid[int(np.argmax(selected))])
    if not math.isclose(argmax, float(rows[k]["oracle_i_star"]), rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"agent {k}: oracle_i_star {rows[k]['oracle_i_star']}, "
                        f"recomputed argmax {argmax}")
    return problems


# ---------------------------------------------------------------------------
# configs; "full" is the benchmarked traffic shape, "tiny" is for the self-test

_SWEEP_GRID = {"kind": "geometric", "start": 0.0625, "stop": 16.0, "num": 33}
_TINY_SWEEP_GRID = {"kind": "geometric", "start": 0.0625, "stop": 16.0, "num": 9}


def _sweep(n_agents: int, grid: dict) -> dict:
    return {
        "population": _population(
            n_agents,
            {"family": "exp_saturating", "params": {"rate": [0.5, 2.0]}},
            {"family": "power", "params": {"scale": [0.01, 2.0], "exponent": 2.0}}),
        "market": {"theta": 0.5},
        "sweep": {"i_max_grid": grid, "cost_multiplier_grid": [0.25, 0.5, 1.0, 2.0, 4.0]},
    }


def _market(n_agents: int) -> dict:
    return {
        "population": _population(
            n_agents,
            {"family": "hyperbolic", "params": {"half_saturation": [0.2, 1.0]}},
            {"family": "exp_growth", "params": {"scale": [0.01, 0.5], "rate": [0.5, 2.0]}}),
        "market": {"i_max": 2.0, "theta": 0.5, "participation_rule": True},
    }


def _agent(n_agents: int, i_max: float) -> dict:
    return {
        "population": _population(
            n_agents,
            {"family": "exp_saturating", "params": {"rate": [0.2, 2.0]}},
            {"family": "power", "params": {"scale": [0.001, 0.1], "exponent": [1.5, 3.0]}}),
        "market": {"i_max": i_max, "theta": 0.5},
    }


_CONFIGS: Dict[str, Dict[str, dict]] = {
    "sweep_cli": {"full": _sweep(400, _SWEEP_GRID), "tiny": _sweep(30, _TINY_SWEEP_GRID)},
    "market_cli": {"full": _market(10_000), "tiny": _market(200)},
    "agent_cli": {"full": _agent(200, 100.0), "tiny": _agent(5, 10.0)},
}
_CHECKS = {"sweep_cli": ("sweep", check_sweep),
           "market_cli": ("market", check_market),
           "agent_cli": ("agent", check_agent)}

NAMES = tuple(_CONFIGS)
SIZES = ("full", "tiny")


def get(name: str, size: str) -> Workload:
    subcommand, check = _CHECKS[name]
    return Workload(subcommand=subcommand, config=_CONFIGS[name][size], check=check)
