import csv
import hashlib
import json
import math
from pathlib import Path

import pytest

import infoload.market
import infoload.sweep
from infoload.agent import UnconstrainedOptimum
from infoload.cli import (
    EXIT_CONFIG,
    EXIT_CONJECTURE,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_config,
)
from infoload.errors import ConfigError
from infoload.market import ConjectureVerdict

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

    def test_figure3_reference_trader(self, tmp_path):
        path = write_config(tmp_path, REFERENCE_CONFIG)
        out = tmp_path / "out"
        assert main(["figure3", "--config", str(path), "--out", str(out)]) == EXIT_OK
        rows = read_csv(out / "figure3.csv")
        best = max(rows, key=lambda r: float(r["expected_utility"]))
        assert float(best["i"]) == pytest.approx(1.7455, abs=1e-3)

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
    ])
    def test_malformed_config_is_a_config_error(self, tmp_path, subcommand, config, field):
        code, message = self._run(tmp_path, None, subcommand, config)
        assert code == EXIT_CONFIG
        assert message.startswith(field + ":")

    def test_nan_root_is_a_numeric_error(self, tmp_path, monkeypatch):
        solve, calls = infoload.market.unconstrained_optimum, []

        def nan_for_agent_3(trader):
            calls.append(trader)
            return UnconstrainedOptimum(False, math.nan) if len(calls) == 4 else solve(trader)

        monkeypatch.setattr(infoload.market, "unconstrained_optimum", nan_for_agent_3)
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


# golden digests of market.csv, market_summary.csv and agents.csv, recorded with
# one SeedSequence and Generator per agent

MARKET_2000 = {
    "population": {"n_agents": 2000, "gain": [0.5, 2.0], "loss": [0.5, 2.0],
                   "success": {"family": "hyperbolic", "params": {"half_saturation": [0.2, 1.0]}},
                   "cost": {"family": "exp_growth",
                            "params": {"scale": [0.01, 0.5], "rate": [0.5, 2.0]}}},
    "market": {"i_max": 2.0, "theta": 0.5, "participation_rule": True},
}

GOLDEN_SHA256 = {
    ("reference", 0): (
        "dc179abf5c7ac89c8413f92452aeb7b83d6f03563edbf7d378dd650991b28b47",
        "09f3e95cf7d7ebbc2fd3ed8c8645b87261255dc8252a034bfbc60fd06131a0cf",
        "60e1ed1d226f355864f91250cc47f2cc58cebdf608c68eb3b0cdc0fee5edc9b1",
    ),
    ("reference", 7): (
        "080aab7bd1e5689d5580d9a4d8207d36e5fc41972898d506ce2b3e04166064ab",
        "43b6ea601cae547ee4892571b56b5c89a83b6207ca1597acf56ae28db3a6aea7",
        "90df7da54940c5c1a09fc5f3493d738bfe04d8c78ba169df612f326c3d4eecbf",
    ),
    ("reference", 2**64 - 1): (
        "315d77e706608daacc7370c263fbe3eede24f7431dfb9087889175ca56ac6e43",
        "dcc578137eb116cf350e75f703467cf1db906b4ab1e342ff2bce2f288b110c19",
        "c352bbe4ca07b5f5c917440becc1d62c35899d1eaae2df5f8239082293254927",
    ),
    ("market_2000", 0): (
        "23b90800c66b2df4f68bad115ca159174ddb4edc13fb37737cf53f62fb02f9c4",
        "c3ffe5c558c9659dd721e0eff8d24ffd689ae6b810f778cab7d4795092aad5e2",
        "c9eed0f690c2b0685e9bab0da5b04655cdc9bc515bdcafb9767f17f0de639fe5",
    ),
    ("market_2000", 7): (
        "fcd32af6eb1f265e234736433d70669af1b4a6cf01c2b42db079bd65f62b490b",
        "b6bf0faa572e3a7d53eb8020e2f07736548dcaf967f34b61db03ce3487c11803",
        "771059869ddde63e1bd3b1b613c15c8d61c12fcc387fb5bc8aa839760a435526",
    ),
    ("market_2000", 2**64 - 1): (
        "6cf6905b20e01feede00a7456b766cfb05c9b2c2d029e85295fcae2cab0b6dc7",
        "5e3d9c2a0c409b9212fbb144be9944c895b4b17c08bcc9c5892784f59ea32f08",
        "fec6207b7a5a6f7e24ea8c51f3bf11a1312f2a57eb61e64bfc7fed29560cdbfc",
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
