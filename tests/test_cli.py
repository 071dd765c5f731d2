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
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infoload.cli
import infoload.market
import infoload.sweep
from infoload.agent import Population
from infoload.cli import (
    EXIT_CONFIG,
    EXIT_CONJECTURE,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    FIELDS,
    main,
    parse_config,
)
from infoload.curves import COST_FAMILIES, SUCCESS_FAMILIES, params_of
from infoload.errors import ConfigError
from infoload.market import ConjectureVerdict, sample_population

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
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            parse_config(path)

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

    def test_agent_cross_check(self, tmp_path):
        path = write_config(tmp_path, REFERENCE_CONFIG)
        out = tmp_path / "out"
        assert main(["agent", "--config", str(path), "--out", str(out)]) == EXIT_OK
        (row,) = read_csv(out / "agents.csv")
        assert abs(float(row["i_star"]) - float(row["oracle_i_star"])) <= 1e-3 + 1e-6

    def test_sweep_outputs(self, tmp_path):
        cfg = {"population": {"n_agents": 10},
               "sweep": {"i_max_grid": [0.5, 1.0, 2.0, 4.0],
                         "cost_multiplier_grid": [0.5, 1.0, 2.0]}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert len(read_csv(out / "phase.csv")) == 4
        assert len(read_csv(out / "phase2d.csv")) == 12

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
    ])
    def test_malformed_config_is_a_config_error(self, tmp_path, subcommand, config, field):
        code, message = self._run(tmp_path, None, subcommand, config)
        assert code == EXIT_CONFIG
        assert message.startswith(field + ":")

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

    @pytest.mark.parametrize("num,exception", [(2**58, "MemoryError"), (1e308, "ValueError")])
    def test_grid_too_large_to_allocate_is_an_internal_failure(self, tmp_path, num, exception):
        # both sizes fail at once: beyond the address space, or numpy's maximum size
        code, message = self._run(tmp_path, {"i_max_grid": _geometric(num=num)})
        assert code == EXIT_NUMERIC
        assert message.split(":")[0].endswith(exception)

    def test_nan_root_is_a_numeric_error(self, tmp_path, monkeypatch):
        solve = infoload.market.solve_roots

        def nan_for_agent_3(traders):
            return np.where(np.arange(len(traders)) == 3, math.nan, solve(traders))

        monkeypatch.setattr(infoload.market, "solve_roots", nan_for_agent_3)
        code, message = self._run(tmp_path, {"i_max_grid": [0.5, 1.0]})
        assert code == EXIT_NUMERIC
        assert "agent 3" in message

    def test_non_monotone_series_is_a_numeric_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(infoload.sweep, "informed_fractions",
                            lambda traders, grid: [0.2, 0.6])
        code, message = self._run(tmp_path, {"i_max_grid": [0.5, 1.0]})
        assert code == EXIT_NUMERIC
        assert "monotonicity" in message


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

MARKET_2000 = {
    "population": {"n_agents": 2000, "gain": [0.5, 2.0], "loss": [0.5, 2.0],
                   "success": {"family": "hyperbolic", "params": {"half_saturation": [0.2, 1.0]}},
                   "cost": {"family": "exp_growth",
                            "params": {"scale": [0.01, 0.5], "rate": [0.5, 2.0]}}},
    "market": {"i_max": 2.0, "theta": 0.5, "participation_rule": True},
}

GOLDEN_SHA256 = {
    ("reference", 0): (
        "427e1c224f2e8178ca33368453c72bc759c5c04a5247154daf4fb78811255213",
        "09f3e95cf7d7ebbc2fd3ed8c8645b87261255dc8252a034bfbc60fd06131a0cf",
        "44e4caf1fe50de5929b436005a25fc2b561f2cc42951d3abd409b5b9768183f2",
    ),
    ("reference", 7): (
        "1cd5bc9ab523936fc4b7a4cabe7b23c752dbc09928ce2bc26d8be3cdf6654c38",
        "43b6ea601cae547ee4892571b56b5c89a83b6207ca1597acf56ae28db3a6aea7",
        "7de45c2346c18b74359fec0acf83dc695b1b7be0f519e3205a9e8467722625db",
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
        "53976cf716d6f102aef977a09693ab6b4e7a3fbdcdf7c2665269cb1fbcb64ef8",
        "b6bf0faa572e3a7d53eb8020e2f07736548dcaf967f34b61db03ce3487c11803",
        "d0721ab5816bf7eed73b821304903c524cfe78833e9bc38f971a64755d75642a",
    ),
    ("market_2000", 2**64 - 1): (
        "05a5a5c6ef3c26055e3658b231ad2353eeb0b025e5f93ab438c968da1137b6c9",
        "5e3d9c2a0c409b9212fbb144be9944c895b4b17c08bcc9c5892784f59ea32f08",
        "cad036ef6aeb50a7f9f715891f68fd1b1a98d1fd466442890497dbec42bd55a1",
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
