import copy
import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infoload.cli
import infoload.market
from infoload import kernels
from infoload.agent import Population
from infoload.cli import (
    AGENT_ORACLE_STEP,
    EXIT_CONFIG,
    EXIT_CONJECTURE,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    FIELDS,
    MAX_GRID_NUM,
    MAX_ROWS,
    main,
    parse_config,
    write_csv,
)
from infoload.curves import COST_FAMILIES, SUCCESS_FAMILIES, params_of
from infoload.errors import ConfigError
from infoload.market import ConjectureVerdict, sample_population
from infoload.sweep import MAX_SCALED_ROWS

from conftest import nan_h_at

REPO = Path(__file__).resolve().parent.parent

REFERENCE_CONFIG = {
    "population": {
        "n_agents": 1,
        "gain": 1.0,
        "loss": 1.0,
        "success": {"family": "exp_saturating", "params": {"rate": 1.0}},
        "cost": {"family": "power", "params": {"scale": 0.1, "exponent": 2.0}},
        "master_seed": 42,
    },
    "market": {"i_max": 5.0, "theta": 0.5},
    "sweep": {"n_points": 5001},
}


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        settings = parse_config(write_config(tmp_path, {}))
        assert settings.population.n_agents == 100
        assert settings.market.theta == 0.5
        assert settings.n_points == 501

    def test_theta_out_of_range(self, tmp_path):
        path = write_config(tmp_path, {"market": {"theta": 1.5}})
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert "market.theta" in str(exc.value)

    def test_power_exponent_one_rejected(self, tmp_path):
        cfg = {"population": {"cost": {"family": "power",
                                       "params": {"scale": 1.0, "exponent": 1.0}}}}
        with pytest.raises(ConfigError) as exc:
            parse_config(write_config(tmp_path, cfg))
        assert "convex" in str(exc.value)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            parse_config(write_config(tmp_path, {"market": {"imax": 2.0}}))
        assert "market.imax" in str(exc.value)

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, {"markets": {}}))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_config(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        for data in (b"{not json", b'{"market": {"theta": 0.5}}\xff'):  # the second: not UTF-8
            path.write_bytes(data)
            with pytest.raises(ConfigError) as exc:
                parse_config(path)
            assert exc.value.field == "<parse>"
            out = tmp_path / "out"
            assert main(["market", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
            assert json.loads((out / "error.json").read_text())["error"].startswith("<parse>: ")

    def test_non_object_top_level_is_a_config_error(self, tmp_path):
        path = write_config(tmp_path, [])
        out = tmp_path / "out"
        assert main(["market", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert json.loads((out / "error.json").read_text()) == {
            "exit_code": EXIT_CONFIG, "error": "<root>: top level must be a JSON object"}

    def test_wrong_curve_params_rejected(self, tmp_path):
        cfg = {"population": {"success": {"family": "hyperbolic",
                                          "params": {"rate": 1.0}}}}
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, cfg))

    def test_other_cost_family_takes_no_default_params(self, tmp_path):
        def cost(record):
            return parse_config(write_config(tmp_path, {"population": {"cost": record}}))

        assert cost({"family": "zero"}).population.cost_family == "zero"
        assert cost({"family": "zero", "params": []}).population.cost_family == "zero"
        assert cost({"family": "power"}).population.cost_scale == (0.01, 1.0)
        with pytest.raises(ConfigError) as exc:
            cost({"family": "exp_growth"})
        assert exc.value.field == "population.cost.params"

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path, REFERENCE_CONFIG)
        assert parse_config(path).population.master_seed == 42
        assert parse_config(path, seed_override=7).population.master_seed == 7

    def test_round_trip(self, tmp_path):
        first = parse_config(write_config(tmp_path, REFERENCE_CONFIG, "a.json"))
        # re-serialize (key order scrambled) and re-parse
        scrambled = json.loads(json.dumps(REFERENCE_CONFIG, sort_keys=True))
        second = parse_config(write_config(tmp_path, scrambled, "b.json"))
        assert first.population == second.population
        assert first.market == second.market
        assert first.i_max_grid == second.i_max_grid


class TestSubcommands:
    def test_unknown_subcommand_usage_error(self, tmp_path):
        assert main(["frobnicate", "--config", "x", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_no_arguments_usage_error(self):
        assert main([]) == EXIT_USAGE

    @pytest.mark.parametrize("argv,message", [
        (["market", "--config", "c.json", "--out", "o", "--seed", "abc"],
         "argument --seed: invalid int value: 'abc'"),
        (["market", "--config", "c.json"], "the following arguments are required: --out"),
        (["frobnicate", "--config", "c.json", "--out", "o"],
         "argument subcommand: invalid choice: 'frobnicate'"),
    ])
    def test_usage_error_says_what_was_wrong(self, capsys, argv, message):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: infoload ")
        assert err.splitlines()[-1].startswith(f"infoload: error: {message}")

    def test_help_names_every_subcommand(self, capsys):
        assert main(["--help"]) == EXIT_OK
        help_text = capsys.readouterr().out
        for name in ("agent", "market", "conjectures", "figure3", "sweep", "returns"):
            assert name in help_text

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path, {"market": {"theta": 2.0}})
        assert main(["market", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert (tmp_path / "o" / "error.json").is_file()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_through_a_file_is_a_usage_error(self, tmp_path, capsys, out):
        path = write_config(tmp_path, {"population": {"n_agents": 5}})
        (tmp_path / "afile").write_text("keep")
        assert main(["market", "--config", str(path), "--out", str(tmp_path / out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: --out {tmp_path / out}: ")
        assert (tmp_path / "afile").read_text() == "keep"

    def test_figure3_reference_trader(self, tmp_path):
        path = write_config(tmp_path, REFERENCE_CONFIG)
        out = tmp_path / "out"
        assert main(["figure3", "--config", str(path), "--out", str(out)]) == EXIT_OK
        rows = read_csv(out / "figure3.csv")
        best = max(rows, key=lambda r: float(r["expected_utility"]))
        assert float(best["i"]) == pytest.approx(1.7455, abs=1e-3)

    def test_figure3_samples_agent_0_alone(self, tmp_path, monkeypatch):
        sample, sizes = infoload.cli.sample_population, []

        def spy(spec):
            sizes.append(spec.n_agents)
            return sample(spec)

        monkeypatch.setattr(infoload.cli, "sample_population", spy)
        path = write_config(tmp_path, {"population": {"n_agents": 50}})
        assert main(["figure3", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
        assert sizes == [1]

    def test_figure3_is_independent_of_n_agents(self, tmp_path):
        csvs = []
        for n in (1, 50):
            population = {"n_agents": n, "gain": [0.5, 2.0], "master_seed": 9}
            path = write_config(tmp_path, {"population": population}, name=f"{n}.json")
            out = tmp_path / f"out{n}"
            assert main(["figure3", "--config", str(path), "--out", str(out)]) == EXIT_OK
            csvs.append((out / "figure3.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_conjectures_pass(self, tmp_path):
        path = write_config(tmp_path, {})
        out = tmp_path / "out"
        assert main(["conjectures", "--config", str(path), "--out", str(out)]) == EXIT_OK
        rows = read_csv(out / "conjectures.csv")
        assert [r["passed"] for r in rows] == ["pass", "pass", "pass"]

    def test_conjecture_failure_exit_code(self, tmp_path, monkeypatch):
        import infoload.cli as cli
        monkeypatch.setattr(
            cli, "check_conjecture1",
            lambda *a, **k: ConjectureVerdict("conjecture1", False, "forced"))
        path = write_config(tmp_path, {})
        out = tmp_path / "out"
        assert main(["conjectures", "--config", str(path), "--out", str(out)]) == EXIT_CONJECTURE

    def test_market_outputs(self, tmp_path):
        cfg = {"population": {"n_agents": 10}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["market", "--config", str(path), "--out", str(out)]) == EXIT_OK
        rows = read_csv(out / "market.csv")
        assert len(rows) == 10
        assert list(rows[0]) == ["agent_id", "W", "L", "cost_scale", "i_u",
                                 "i_star", "regime", "u_star"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "market"
        assert "market.csv" in manifest["outputs"]

    def test_market_with_a_root_beyond_1e300(self, tmp_path):
        cfg = {"population": {
            "n_agents": 2, "gain": 1e300, "loss": 1e300,
            "success": {"family": "exp_saturating", "params": {"rate": 1e-300}},
            "cost": {"family": "power", "params": {"scale": 1e-300, "exponent": 1.5}}}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["market", "--config", str(path), "--out", str(out)]) == EXIT_OK
        rows = read_csv(out / "market.csv")
        # the exact root, 3.4275693524537867e+302 (mpmath, 80 digits)
        assert [(r["i_u"], r["regime"]) for r in rows] == [("3.42756935245e+302",
                                                           "fully_informed")] * 2

    def test_agent_cross_check(self, tmp_path):
        path = write_config(tmp_path, REFERENCE_CONFIG)
        out = tmp_path / "out"
        assert main(["agent", "--config", str(path), "--out", str(out)]) == EXIT_OK
        (row,) = read_csv(out / "agents.csv")
        assert abs(float(row["i_star"]) - float(row["oracle_i_star"])) <= 1e-3 + 1e-6

    @pytest.mark.parametrize("cost", [
        {"family": "zero", "params": {}},
        {"family": "power", "params": {"scale": 1e-12, "exponent": 1.5}}])
    def test_agent_flat_utility_is_no_disagreement(self, tmp_path, cost):
        # lambda saturates in float64, so the oracle's first maximizer starts a flat
        # stretch of utility far from the optimizer's i_star, at the same utility
        cfg = {"population": {"n_agents": 3, "cost": cost}, "market": {"i_max": 100.0}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["agent", "--config", str(path), "--out", str(out), "--seed", "1"]) == EXIT_OK
        rows = read_csv(out / "agents.csv")
        assert any(abs(float(r["i_star"]) - float(r["oracle_i_star"])) > 1e-3 for r in rows)

    def test_agent_ceiling_below_the_oracle_step(self, tmp_path):
        # the oracle's step shrinks to i_max, so its grid is {0, i_max}
        cfg = {"population": {"n_agents": 3}, "market": {"i_max": 0.0005}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["agent", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert {float(r["oracle_i_star"]) for r in read_csv(out / "agents.csv")} <= {0.0, 0.0005}

    def test_agent_ceiling_too_far_for_the_oracle_grid(self, tmp_path):
        # 1e308 / 1e-3 overflows: the oracle's grid would have no finite length
        path = write_config(tmp_path, {"market": {"i_max": 1e308}})
        out = tmp_path / "out"
        assert main(["agent", "--config", str(path), "--out", str(out)]) == EXIT_NUMERIC
        message = json.loads((out / "error.json").read_text())["error"]
        assert message.startswith("ParameterError: step must") and "i_max 1e+308" in message
        assert not (out / "agents.csv").exists()

    def test_market_hyperbolic_where_the_level_and_half_saturation_overflow(self, tmp_path):
        # i_max + k overflows; lambda is 0.6, so u_star is 0.6 - 0.4, not 1
        cfg = {"population": {"n_agents": 2, "success": {"family": "hyperbolic",
                                                         "params": {"half_saturation": 1e308}},
                              "cost": {"family": "zero"}},
               "market": {"i_max": 1.5e308}}
        out = tmp_path / "out"
        assert main(["market", "--config", str(write_config(tmp_path, cfg)), "--out",
                     str(out)]) == EXIT_OK
        assert [float(row["u_star"]) for row in read_csv(out / "market.csv")] == [0.2, 0.2]

    @pytest.mark.parametrize("i_max", [1e4, 1e300])
    def test_agent_oracle_grid_past_its_point_budget(self, tmp_path, i_max):
        # 1e4 / 1e-3 steps and i_max are one point past MAX_GRID_POINTS; nothing is built
        path = write_config(tmp_path, {"population": {"n_agents": 3}, "market": {"i_max": i_max}})
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(["agent", "--config", str(path), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_NUMERIC and peak < 1e6
        message = json.loads((out / "error.json").read_text())["error"]
        assert message.startswith("ParameterError: step must") and f"i_max {i_max!r}" in message
        assert "at most 10000000 grid points" in message

    def test_agent_oracle_scan_past_its_point_budget(self, tmp_path):
        # 256 agents scanned at 39,064 points each, one agent past MAX_GRID_POINTS, on a grid
        # of exactly MAX_GRID_POINTS points; nothing of the scan is built
        path = write_config(tmp_path, {"population": {"n_agents": 256},
                                       "market": {"i_max": 9999.999}})
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(["agent", "--config", str(path), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_NUMERIC and peak < 1e6
        message = json.loads((out / "error.json").read_text())["error"]
        assert message == ("ParameterError: the oracle's scan of 256 agents at 39064 points "
                           "each must have at most 10000000 points, got step 0.001 for i_max "
                           "9999.999")
        assert not (out / "agents.csv").exists()

    def test_agent_shifted_optimum_is_a_numeric_error(self, tmp_path, monkeypatch, capsys):
        solve = infoload.market.solve_roots
        monkeypatch.setattr(infoload.market, "solve_roots",
                            lambda population: solve(population) + 10 * AGENT_ORACLE_STEP)
        path = write_config(tmp_path, REFERENCE_CONFIG)
        assert main(["agent", "--config", str(path), "--out", str(tmp_path / "out")]) == (
            EXIT_NUMERIC)
        assert "agent 0: optimizer/oracle disagree by 0.0095" in capsys.readouterr().err

    def test_sweep_outputs(self, tmp_path):
        cfg = {"population": {"n_agents": 10},
               "sweep": {"i_max_grid": [0.5, 1.0, 2.0, 4.0],
                         "cost_multiplier_grid": [0.5, 1.0, 2.0]}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert len(read_csv(out / "phase.csv")) == 4
        assert len(read_csv(out / "phase2d.csv")) == 12

    def test_phase_csv_is_the_unit_row_whatever_the_multipliers(self, tmp_path):
        runs = {}
        for name, mults in (("none", None), ("with_unit", [0.5, 1.0, 2.0]),
                            ("without_unit", [0.5, 2.0])):
            cfg = {"population": {"n_agents": 30},
                   "sweep": {"i_max_grid": _geometric(0.125, 8.0, 13),
                             "cost_multiplier_grid": mults}}
            out = tmp_path / name
            path = write_config(tmp_path, cfg, f"{name}.json")
            assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
            runs[name] = out
        assert len({(out / "phase.csv").read_bytes() for out in runs.values()}) == 1
        assert not (runs["none"] / "phase2d.csv").exists()
        with_unit = (runs["with_unit"] / "phase2d.csv").read_text().splitlines()
        assert (runs["without_unit"] / "phase2d.csv").read_text().splitlines() == [
            line for line in with_unit if not line.startswith("1,")]

    def test_returns_outputs(self, tmp_path):
        cfg = {"returns": {"n_draws": 100}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["returns", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert len(read_csv(out / "returns.csv")) == 100
        (summary,) = read_csv(out / "returns_summary.csv")
        assert summary["n"] == "100"


def _geometric(start=0.5, stop=4.0, num=4):
    return {"kind": "geometric", "start": start, "stop": stop, "num": num}


class TestSweepErrors:
    def _run(self, tmp_path, sweep, subcommand="sweep", config=None):
        path = write_config(tmp_path, config or {"population": {"n_agents": 5}, "sweep": sweep})
        out = tmp_path / "out"
        code = main([subcommand, "--config", str(path), "--out", str(out)])
        record = json.loads((out / "error.json").read_text())
        assert record["exit_code"] == code
        return code, record["error"]

    @pytest.mark.parametrize("sweep,field", [
        ({"i_max_grid": [-1, 0.5, 1]}, "sweep.i_max_grid"),
        ({"i_max_grid": [0.5, "1", 2]}, "sweep.i_max_grid"),
        ({"i_max_grid": _geometric(start=0)}, "sweep.i_max_grid"),
        ({"i_max_grid": _geometric(start=-1)}, "sweep.i_max_grid"),
        ({"i_max_grid": _geometric(start="0.5")}, "sweep.i_max_grid"),
        ({"i_max_grid": _geometric(stop=None)}, "sweep.i_max_grid"),
        ({"i_max_grid": _geometric(num="4")}, "sweep.i_max_grid"),
        ({"i_max_grid": _geometric(num=2.5)}, "sweep.i_max_grid"),
        ({"i_max_grid": _geometric(num=-3)}, "sweep.i_max_grid"),
        ({"i_max_grid": _geometric(num=1e400)}, "sweep.i_max_grid"),
        ({"i_max_grid": {**_geometric(), "kind": ["linear"]}}, "sweep.i_max_grid.kind"),
        ({"cost_multiplier_grid": _geometric(start=0)}, "sweep.cost_multiplier_grid"),
        ({"cost_multiplier_grid": [0.5, "x"]}, "sweep.cost_multiplier_grid"),
        ({"cost_multiplier_grid": [-1.0, 1.0]}, "sweep.cost_multiplier_grid"),
        # agent 3's cost scale times 5e-324 underflows to 0
        ({"cost_multiplier_grid": [5e-324, 1.0]}, "sweep.cost_multiplier_grid"),
    ])
    def test_malformed_grid_is_a_config_error(self, tmp_path, sweep, field):
        code, message = self._run(tmp_path, sweep)
        assert code == EXIT_CONFIG
        assert message.startswith(field + ":")

    @pytest.mark.parametrize("subcommand,config,field", [
        ("returns", {"returns": {"r_of": "x"}}, "returns.r_of"),
        ("returns", {"returns": {"r_of": math.inf}}, "returns.r_of"),
        ("returns", {"returns": {"noise_sd": "x"}}, "returns.noise_sd"),
        ("returns", {"returns": {"noise_sd": math.nan}}, "returns.noise_sd"),
        ("returns", {"returns": {"n_draws": True}}, "returns.n_draws"),
        ("market", {"market": [1]}, "market"),
        ("market", {"population": 5}, "population"),
        ("returns", {"returns": "x"}, "returns"),
        ("agent", {"sweep": [0.5]}, "sweep"),
        ("market", {"market": {"i_max": 10**400}}, "market.i_max"),
        ("market", {"sweep": {"i_max_grid": [-1, 0.5, 1]}}, "sweep.i_max_grid"),
        ("returns", {"sweep": {"i_max_grid": [-1, 0.5, 1]}}, "sweep.i_max_grid"),
        ("figure3", {"sweep": {"i_max_grid": [0.5, math.inf]}}, "sweep.i_max_grid"),
        ("market", {"sweep": {"i_max_grid": {"kind": "linear", "start": 0, "stop": 1,
                                             "num": 3}}}, "sweep.i_max_grid"),
        ("market", {"population": {"gain": 1e308, "loss": 1e308}}, "population.loss"),
        ("market", {"population": {"success": {"family": "exp_saturating",
                                               "params": {"rate": -1}}}},
         "population.success.params.rate"),
        ("market", {"population": {"success": {"family": "hyperbolic",
                                               "params": {"half_saturation": 0}}}},
         "population.success.params.half_saturation"),
        ("market", {"population": {"cost": {"family": "power",
                                            "params": {"scale": -1, "exponent": 2.0}}}},
         "population.cost.params.scale"),
        ("market", {"population": {"cost": {"family": "exp_growth",
                                            "params": {"scale": 1.0, "rate": [2, 1]}}}},
         "population.cost.params.rate"),
        ("market", {"population": {"cost": {"family": ["power"]}}}, "population.cost.family"),
        ("market", {"market": {"i_max": 0}}, "market.i_max"),
    ])
    def test_malformed_config_is_a_config_error(self, tmp_path, subcommand, config, field):
        code, message = self._run(tmp_path, None, subcommand, config)
        assert code == EXIT_CONFIG
        assert message.startswith(field + ":")

    @pytest.mark.parametrize("subcommand,config,field", [
        ("returns", {"returns": {"n_draws": MAX_ROWS + 1}}, "returns.n_draws"),
        ("returns", {"returns": {"n_draws": 10**15}}, "returns.n_draws"),
        ("figure3", {"sweep": {"n_points": MAX_ROWS + 1}}, "sweep.n_points"),
        ("figure3", {"sweep": {"n_points": 10**15}}, "sweep.n_points"),
        ("sweep", {"sweep": {"i_max_grid": _geometric(num=MAX_GRID_NUM + 1)}},
         "sweep.i_max_grid.num"),
        ("market", {"sweep": {"i_max_grid": _geometric(num=1e15)}}, "sweep.i_max_grid.num"),
        ("sweep", {"sweep": {"cost_multiplier_grid": _geometric(num=MAX_GRID_NUM + 1)}},
         "sweep.cost_multiplier_grid.num"),
        ("sweep", {"sweep": {"cost_multiplier_grid": _geometric(num=10**15)}},
         "sweep.cost_multiplier_grid.num"),
        ("market", {"population": {"n_agents": MAX_ROWS + 1}}, "population.n_agents"),
        ("agent", {"population": {"n_agents": 2**32}}, "population.n_agents"),
        ("sweep", {"sweep": {"i_max_grid": [1.0 + k for k in range(MAX_GRID_NUM + 1)]}},
         "sweep.i_max_grid"),
        ("market", {"sweep": {"cost_multiplier_grid": [1.0 + k for k in range(MAX_GRID_NUM + 1)]}},
         "sweep.cost_multiplier_grid"),
        # 1001 agents under 1000 multipliers, 999 and 1.0, one past MAX_SCALED_ROWS: rejected
        # by sweep_2d before it tiles a row
        ("sweep", {"population": {"n_agents": MAX_SCALED_ROWS // 1000 + 1},
                   "sweep": {"cost_multiplier_grid": _geometric(start=2.0, num=999)}},
         "sweep.cost_multiplier_grid"),
        # 100 multipliers and 1.0 times 9900 ceilings and one more, 101 * 9901 phase cells,
        # one past MAX_SCALED_ROWS: rejected by sweep_2d before it tiles a row
        ("sweep", {"sweep": {"i_max_grid": _geometric(num=9900),
                             "cost_multiplier_grid": _geometric(start=2.0, num=100)}},
         "sweep.cost_multiplier_grid, sweep.i_max_grid"),
    ])
    def test_count_past_its_ceiling_is_a_config_error(self, tmp_path, subcommand, config, field):
        # checked at parse time, before anything of that size is built
        tracemalloc.start()
        try:
            code, message = self._run(tmp_path, None, subcommand, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CONFIG and peak < 1e6
        assert message.startswith(field + ":")

    def test_counts_at_their_ceilings_are_accepted(self, tmp_path):
        settings = parse_config(write_config(tmp_path, {
            "returns": {"n_draws": MAX_ROWS},
            "sweep": {"n_points": MAX_ROWS, "i_max_grid": _geometric(num=MAX_GRID_NUM),
                      "cost_multiplier_grid": _geometric(num=MAX_GRID_NUM)}}))
        assert (settings.n_draws, settings.n_points) == (MAX_ROWS, MAX_ROWS)
        assert len(settings.i_max_grid) == len(settings.cost_multiplier_grid) == MAX_GRID_NUM

    def test_agents_and_grid_lists_at_their_ceilings_are_accepted(self, tmp_path):
        grid = [1.0 + k for k in range(MAX_GRID_NUM)]
        settings = parse_config(write_config(tmp_path, {
            "population": {"n_agents": MAX_ROWS},
            "sweep": {"i_max_grid": grid, "cost_multiplier_grid": grid}}))
        assert settings.population.n_agents == MAX_ROWS
        assert settings.i_max_grid == settings.cost_multiplier_grid == grid

    def test_deeply_nested_config_is_a_config_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "out"
        assert main(["market", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        record = json.loads((out / "error.json").read_text())
        assert record["exit_code"] == EXIT_CONFIG
        assert record["error"].startswith("<parse>:")

    def test_error_text_is_bounded(self, tmp_path):
        gain = 1.0
        for _ in range(500):
            gain = [gain]
        code, message = self._run(tmp_path, None, "market", {"population": {"gain": gain}})
        assert code == EXIT_CONFIG
        assert message.startswith("population.gain:")
        assert len(message) < 200

    @pytest.mark.parametrize("config,error", [({"market": {"k" * 100_000: 1}}, "unknown key"),
                                              ({"k" * 100_000: {}}, "unknown section")])
    def test_unknown_name_is_bounded(self, tmp_path, config, error):
        code, message = self._run(tmp_path, None, "market", config)
        assert code == EXIT_CONFIG
        assert message.endswith(error)
        assert len(message) < 200

    @pytest.mark.parametrize("num", [2**58, 1e308])
    def test_grid_too_large_to_allocate_is_a_config_error(self, tmp_path, num):
        # beyond the address space, or numpy's maximum size: past MAX_GRID_NUM, so no
        # allocation is tried
        code, message = self._run(tmp_path, {"i_max_grid": _geometric(num=num)})
        assert code == EXIT_CONFIG
        assert message.startswith(f"sweep.i_max_grid.num: must be at most {MAX_GRID_NUM}, got ")

    def test_participation_rule_is_refused(self, tmp_path):
        # sweep_2d counts every agent, where run_market would drop those with u_star < 0:
        # the rule is refused before any agent is sampled
        with mock.patch.object(infoload.cli, "sample_population") as sample:
            code, message = self._run(tmp_path, None, "sweep",
                                      {"market": {"participation_rule": True}})
        assert code == EXIT_CONFIG
        assert message == ("market.participation_rule: sweep counts every agent, so it must "
                           "be false")
        sample.assert_not_called()

    def test_nan_root_is_a_numeric_error(self, tmp_path, monkeypatch):
        # 5 agents of one family pair under multipliers [1.0, 2.0]: entry 8 of h's values
        # is agent 3 of the second row
        monkeypatch.setattr(kernels, "h", nan_h_at(5 + 3))
        code, message = self._run(tmp_path, {"i_max_grid": [0.5, 1.0],
                                              "cost_multiplier_grid": [2.0]})
        assert code == EXIT_NUMERIC
        assert "agent 3: marginal utility is NaN" in message

    def test_nan_root_in_the_market_is_a_numeric_error(self, tmp_path, monkeypatch):
        # 5 agents of one family pair: entry 3 of h's values is agent 3
        monkeypatch.setattr(kernels, "h", nan_h_at(3))
        config = {**REFERENCE_CONFIG, "population": {**REFERENCE_CONFIG["population"],
                                                     "n_agents": 5}}
        code, message = self._run(tmp_path, None, "market", config)
        assert code == EXIT_NUMERIC
        assert message.startswith("NumericRangeError: agent 3: marginal utility is NaN")

    @pytest.mark.parametrize("returns, message", [
        # noise_sd times a normal draw overflows in 5 of the draws, and the sum in 12 more
        ({"r_of": 1e308, "noise_sd": 1e308}, "returns.noise_sd: 17 of 100 draws r_of + "
         "noise_sd * N are not finite, with r_of 1e+308 and noise_sd 1e+308"),
        # the noise stays finite, the sum does not
        ({"r_of": 1.7e308, "noise_sd": 1e307}, "returns.r_of, returns.noise_sd: 6 of 100 "
         "draws r_of + noise_sd * N are not finite, with r_of 1.7e+308 and noise_sd 1e+307"),
    ], ids=["noise", "sum"])
    def test_draws_past_the_float_range_are_a_config_error(self, tmp_path, returns, message):
        config = {"population": {"master_seed": 1}, "returns": {**returns, "n_draws": 100}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._run(tmp_path, None, "returns", config) == (EXIT_CONFIG, message)
        assert [path.name for path in (tmp_path / "out").iterdir()] == ["error.json"]


class TestDeterminism:
    def _run_twice(self, tmp_path, subcommand, cfg):
        path = write_config(tmp_path, cfg)
        outs = []
        for run in ("r1", "r2"):
            out = tmp_path / run
            assert main([subcommand, "--config", str(path), "--out", str(out)]) == EXIT_OK
            outs.append(out)
        return outs

    @pytest.mark.parametrize("subcommand,cfg", [
        ("market", {"population": {"n_agents": 10}}),
        ("figure3", {"sweep": {"n_points": 101}}),
        ("sweep", {"population": {"n_agents": 10},
                   "sweep": {"i_max_grid": [0.5, 1.0, 2.0]}}),
        ("returns", {"returns": {"n_draws": 50}}),
    ])
    def test_byte_identical_csvs(self, tmp_path, subcommand, cfg):
        a, b = self._run_twice(tmp_path, subcommand, cfg)
        csvs = sorted(p.name for p in a.glob("*.csv"))
        assert csvs
        for name in csvs:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_flag_changes_population(self, tmp_path):
        path = write_config(tmp_path, {"population": {"n_agents": 10}})
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["market", "--config", str(path), "--out", str(out1),
                     "--seed", "1"]) == EXIT_OK
        assert main(["market", "--config", str(path), "--out", str(out2),
                     "--seed", "2"]) == EXIT_OK
        assert (out1 / "market.csv").read_bytes() != (out2 / "market.csv").read_bytes()


# golden digests of market.csv, market_summary.csv and agents.csv; the summaries
# were recorded with one SeedSequence and Generator per agent and Brent roots,
# the per-agent files with the bisection roots (adjacent floats at the sign change)
# and the utility in complement form, W - (W + L) * (1 - lambda) - xi; the roots
# are those of h = log lambda' + log(W + L) - log xi', which moved one u_star cell
# of reference 0 and one of market_2000 2**64 - 1 in its last printed digit

MARKET_2000 = {
    "population": {"n_agents": 2000, "gain": [0.5, 2.0], "loss": [0.5, 2.0],
                   "success": {"family": "hyperbolic", "params": {"half_saturation": [0.2, 1.0]}},
                   "cost": {"family": "exp_growth",
                            "params": {"scale": [0.01, 0.5], "rate": [0.5, 2.0]}}},
    "market": {"i_max": 2.0, "theta": 0.5, "participation_rule": True},
}

GOLDEN_SHA256 = {
    ("reference", 0): (
        "24681f0ecb61c6f180fda4fcf801ce5b2464a0eb43da2d785087a4effa4683cf",
        "09f3e95cf7d7ebbc2fd3ed8c8645b87261255dc8252a034bfbc60fd06131a0cf",
        "0cfd069eb15d825a1773e1e6e60805a5e98347ccc92569194b2afc7fd6d7dcaf",
    ),
    ("reference", 7): (
        "577d0567da532b9481058d3124dc465c12ce96b03a0a62568740774647713384",
        "43b6ea601cae547ee4892571b56b5c89a83b6207ca1597acf56ae28db3a6aea7",
        "73fd8bd20b30ffc215fcad66dc61be34b0e476faf28b769bfa8992769e1d2ad7",
    ),
    ("reference", 2**64 - 1): (
        "10bb37a4f0fe814a4f26b6b8803d64407278870a843e4089801fff2be82bc5d7",
        "dcc578137eb116cf350e75f703467cf1db906b4ab1e342ff2bce2f288b110c19",
        "74d622071b73788e7067415e948abc150ec70b474eca6e3669fd5ef595948a5e",
    ),
    ("market_2000", 0): (
        "e734cb1f27696e5bb37643eebad4de77925d0828ddded2d0567c270559870ccc",
        "c3ffe5c558c9659dd721e0eff8d24ffd689ae6b810f778cab7d4795092aad5e2",
        "7494a42fce02cd6f89c3092c88ac3bb334aec8c88222b5c7cb256f335c112e75",
    ),
    ("market_2000", 7): (
        "4000518842d05b21708cfc08610849edb38ae7e786df5dd3959b45c126085e4a",
        "b6bf0faa572e3a7d53eb8020e2f07736548dcaf967f34b61db03ce3487c11803",
        "ce011543c77862db53cc498804b34d5ddcd105b25f91f1c893d8fd7b4c8e03a9",
    ),
    ("market_2000", 2**64 - 1): (
        "fc1a6adb3266dc66221fdd9ac39370d0053b6bbed8b85f5d897e3f0d852c0705",
        "5e3d9c2a0c409b9212fbb144be9944c895b4b17c08bcc9c5892784f59ea32f08",
        "6d1850ac0a565d78a6c8a93347e664327b27a07dc5833115240f64e9f6ebf62f",
    ),
}


@pytest.mark.parametrize("config,seed", sorted(GOLDEN_SHA256))
def test_golden_market_and_agent_csvs(tmp_path, config, seed):
    if config == "reference":
        path = REPO / "configs" / "reference.json"
    else:
        path = write_config(tmp_path, MARKET_2000)
    digests = []
    for subcommand, names in (("market", ("market.csv", "market_summary.csv")),
                              ("agent", ("agents.csv",))):
        out = tmp_path / subcommand
        assert main([subcommand, "--config", str(path), "--out", str(out),
                     "--seed", str(seed)]) == EXIT_OK
        digests += [hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names]
    assert tuple(digests) == GOLDEN_SHA256[config, seed]


# digests of the CSVs the goldens above never reach, on configs/reference.json:
# an int column (draw_index, n), quoted strings and pass/fail (conjectures.csv);
# figure3.csv's expected_utility is the complement-form utility
OTHER_GOLDEN_SHA256 = {
    ("figure3", 0): {
        "figure3.csv": "32226ab83bcbf456fdfe9d11038013138ce3192814129bd343afebe674143968"},
    ("figure3", 3): {
        "figure3.csv": "380a77899ada8cbb8be5e1252777b292f7ce7228d0debf5c1b5651739d934dae"},
    ("returns", 0): {
        "returns.csv": "2a5156c7d550a6d34bba5e6f96e52a9a33bee3e7ef832958fc02ebc4c7fb4849",
        "returns_summary.csv": "1eaa4ea3a82b9026e4391ddfb1a8727adf42e800a24ea16126cb2025ad4ef688"},
    ("returns", 3): {
        "returns.csv": "df36ca52291ed7c2003ffa16a21303e6bf3a823cf76477e8a6d53a376126901f",
        "returns_summary.csv": "2d2e4ce7b8bde0dbfa4f781f14928c64e11a124cd252f0711bc024bfc76ce4b9"},
    ("conjectures", 0): {
        "conjectures.csv": "e40c8cf6948735db50797a5a00b11e29a7fccba706a9e81eb07ee559f8174e0b"},
    ("conjectures", 3): {
        "conjectures.csv": "e40c8cf6948735db50797a5a00b11e29a7fccba706a9e81eb07ee559f8174e0b"},
}


@pytest.mark.parametrize("subcommand,seed", sorted(OTHER_GOLDEN_SHA256))
def test_golden_figure3_returns_and_conjectures_csvs(tmp_path, subcommand, seed):
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(REPO / "configs" / "reference.json"),
                 "--out", str(out), "--seed", str(seed)]) == EXIT_OK
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.csv")}
    assert digests == OTHER_GOLDEN_SHA256[subcommand, seed]


class TestWriteCsv:
    def test_cell_formats(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["x", "n", "ok", "text"], [
            np.array([math.inf, -math.inf, math.nan, -0.0, 1e-05, 1e+12, 0.1 + 0.2]),
            np.array([2**53 + 1, -(2**62), 0, 1, 2, 3, 4]),
            np.array([True, False, True, False, False, False, True]),
            ["50%", "%s", "%%", "%d", "a b", "\"q\"", ""]])
        assert path == tmp_path / "t.csv"
        assert path.read_bytes() == (
            b"x,n,ok,text\n"
            b"inf,9007199254740993,true,50%\n"
            b"-inf,-4611686018427387904,false,%s\n"
            b"nan,0,true,%%\n"
            b"-0,1,false,%d\n"
            b"1e-05,2,false,a b\n"
            b"1e+12,3,false,\"q\"\n"
            b"0.3,4,true,\n")

    def test_python_lists_and_scalars(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a", "b", "c"],
                         [[0.1], [np.bool_(False)], [2**64 + 1]])
        assert path.read_bytes() == b"a,b,c\n0.1,false,18446744073709551617\n"

    def test_zero_rows_is_the_header_line(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a", "b"], [np.array([]), []])
        assert path.read_bytes() == b"a,b\n"

    def test_unequal_columns_raise(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0, 2.0], [1.0]])


SCIPY_BLOCKED = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from infoload.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_runs_without_scipy(tmp_path):
    path = write_config(tmp_path, {"population": {"n_agents": 20}})
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED, "market", "--config", str(path),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == EXIT_OK, result.stderr
    assert len(read_csv(tmp_path / "out" / "market.csv")) == 20


def test_module_entry_point(tmp_path):
    # python -m infoload.cli exits with main's code through console_entry
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    good = write_config(tmp_path, {"population": {"n_agents": 20}}, "good.json")
    bad = write_config(tmp_path, {"market": {"theta": 2.0}}, "bad.json")
    for path, out, code in [(good, "ok", EXIT_OK), (bad, "bad", EXIT_CONFIG)]:
        result = subprocess.run(
            [sys.executable, "-m", "infoload.cli", "market", "--config", str(path),
             "--out", str(tmp_path / out)], env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == code, result.stderr
    assert len(read_csv(tmp_path / "ok" / "market.csv")) == 20
    assert json.loads((tmp_path / "bad" / "error.json").read_text())["error"].startswith(
        "market.theta:")


NUMPY_RANDOM_PROBE = """
import sys
import numpy
preloaded = "numpy.random" in sys.modules
from infoload.cli import main
code = main(sys.argv[1:])
print(preloaded, "numpy.random" in sys.modules)
sys.exit(code)
"""


@pytest.mark.parametrize("subcommand", ["sweep", "market", "agent"])
def test_runs_without_loading_numpy_random(tmp_path, subcommand):
    # numpy imports numpy.random lazily; its first use costs about 14 ms and 2-6 MB,
    # and sampling reproduces its SeedSequence and PCG64 without it
    path = write_config(tmp_path, {"population": {"n_agents": 20}})
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_RANDOM_PROBE, subcommand, "--config", str(path),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == EXIT_OK, result.stderr
    preloaded, loaded = result.stdout.split()
    assert preloaded == "True" or loaded == "False"


@pytest.mark.parametrize("path", sorted(FIELDS))
@pytest.mark.parametrize("value", ["x", {"x": 1}])
def test_wrong_type_names_its_field(tmp_path, path, value):
    section, key = path.split(".")
    with pytest.raises(ConfigError) as exc:
        parse_config(write_config(tmp_path, {section: {key: value}}))
    assert exc.value.field.startswith(path)


@pytest.mark.parametrize("success,cost", itertools.product(SUCCESS_FAMILIES, COST_FAMILIES))
def test_every_family_pair_parses_and_samples(tmp_path, success, cost):
    def record(families, family):
        names = params_of(families[family])
        return {"family": family, "params": {name: [1.5, 2.5] for name in names}}

    config = {"population": {"n_agents": 3, "success": record(SUCCESS_FAMILIES, success),
                             "cost": record(COST_FAMILIES, cost)}}
    population = sample_population(parse_config(write_config(tmp_path, config)).population)
    assert isinstance(population[0].success, SUCCESS_FAMILIES[success])
    assert isinstance(population[0].cost, COST_FAMILIES[cost])
    again = Population.from_traders(list(population))
    assert list(again) == list(population)
    for field in dataclasses.fields(Population):
        np.testing.assert_array_equal(getattr(again, field.name), getattr(population, field.name))


def test_readme_config_table_lists_every_field_and_default():
    readme = (REPO / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+\.\w+)` \| [^|]* \| `([^`]*)` \|", readme, re.MULTILINE)
    assert len(rows) == len(FIELDS)
    assert {path: json.loads(default) for path, default in rows} == \
        {path: default for path, (default, _) in FIELDS.items()}


REFERENCE_JSON = json.loads((REPO / "configs" / "reference.json").read_text())


def _key_paths(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


# no valid size in the pool exceeds 10**4, so no example allocates more than a few MB
FUZZ_VALUES = [-1, 0, 1, 2.5, True, "x", None, [], {}, math.nan, math.inf, 10**400]


@settings(max_examples=200, deadline=None)
@given(path=st.sampled_from(list(_key_paths(REFERENCE_JSON))),
       mutation=st.sampled_from(["replace", "delete", "add unknown key", "nest"]),
       value=st.sampled_from(FUZZ_VALUES))
def test_mutated_reference_config_ends_with_a_documented_exit(path, mutation, value):
    config = copy.deepcopy(REFERENCE_JSON)
    node = config
    for key in path[:-1]:
        node = node[key]
    if mutation == "replace":
        node[path[-1]] = value
    elif mutation == "delete":
        del node[path[-1]]
    elif mutation == "add unknown key":
        node["unknown"] = value
    else:
        node[path[-1]] = [node[path[-1]]]
    with tempfile.TemporaryDirectory() as tmp:
        config_path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config_path.write_text(json.dumps(config))
        code = main(["market", "--config", str(config_path), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_CONJECTURE, EXIT_USAGE)
        if code in (EXIT_CONFIG, EXIT_NUMERIC):
            assert json.loads((out / "error.json").read_text())["exit_code"] == code
