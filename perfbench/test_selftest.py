"""Self-test of the benchmark at tiny sizes.

Run: python3 -m pytest perfbench

Every workload must run in both modes and print every metric BENCHMARK.json
names, with its unit; a corrupted output and a failed exit must each fail the
job's check, so the checks are shown to be able to fail.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}


def _rewrite(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    for row in rows:
        edit(row)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


CORRUPTIONS = {
    "sweep_cli": ("phase2d.csv", lambda row: row.update(efficient="true")),
    "market_cli": ("market.csv", lambda row: row.update(regime="fully_informed")),
    "agent_cli": ("agents.csv", lambda row: row.update(i_star=float(row["i_star"]) + 0.01)),
}


def _tiny_job(tmp_path: Path, workload: str, config=None):
    wl = workloads.get(workload, "tiny")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config or wl.config))
    out_dir = tmp_path / "out"
    seed = worker.job_seed(3, "0")
    _, code = worker.run_job(wl, config_path, out_dir, seed)
    return wl, config_path, out_dir, seed, code


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_corrupted_output_fails_the_check(tmp_path, workload):
    wl, config_path, out_dir, seed, code = _tiny_job(tmp_path, workload)
    assert worker.check_job(wl, config_path, out_dir, seed, code) == []
    name, edit = CORRUPTIONS[workload]
    _rewrite(out_dir / name, edit)
    assert worker.check_job(wl, config_path, out_dir, seed, code)


def test_nonzero_exit_fails_the_check(tmp_path):
    bad = {**workloads.get("market_cli", "tiny").config, "unknown_section": {}}
    wl, config_path, out_dir, seed, code = _tiny_job(tmp_path, "market_cli", bad)
    assert code == 2
    assert worker.check_job(wl, config_path, out_dir, seed, code) == ["exit code 2"]


def test_compare_refuses_different_backends(tmp_path, capsys):
    paths = []
    for backend in ("python", "cython"):
        record = {"trace": 0, "metrics": {},
                  "provenance": {"backend": backend, "pure_python_env": False,
                                 "python": "3", "numpy": "2", "scipy": "1",
                                 "size": "full", "workload": "agent_cli"}}
        paths.append(tmp_path / f"{backend}.jsonl")
        paths[-1].write_text(json.dumps(record) + "\n")
    assert compare.main([str(p) for p in paths]) == 2
    assert "refusing" in capsys.readouterr().err


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "sweep_cli", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
