"""One benchmark process: set up a workload, run CLI jobs in a closed loop, check each.

Started by run.py in a fresh interpreter, so set-up time (interpreter start,
``import infoload.cli``, config generation) and peak memory belong to one
workload.  One client runs one job at a time: each job is one call to
``infoload.cli.main(argv)`` with a ``--seed`` derived from the benchmark seed
and the job index.  Every job is checked after it returns, outside its timing.
Diagnostics go to stderr; the last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import infoload
from infoload import cli, kernels

import workloads

SOURCE = Path(__file__).resolve().parent.parent / "src"
PROBE_ITERATIONS = 100_000  # about 7 ms


def job_seed(bench_seed: int, job: str) -> int:
    digest = hashlib.sha256(f"{bench_seed}:{job}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def run_job(wl: workloads.Workload, config_path: Path, out_dir: Path, seed: int):
    """Run one CLI job; returns (elapsed ms, exit code or None if it raised)."""
    argv = [wl.subcommand, "--config", str(config_path), "--out", str(out_dir),
            "--seed", str(seed)]
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # a crash is a failed job, not a failed benchmark
        traceback.print_exc()
        code = None
    return (time.perf_counter() - start) * 1e3, code


def host_probe_ms() -> float:
    """Time a fixed pure-Python loop that does not touch the package.

    On a shared host the same job can take twice as long while neighbours are
    busy; the probe's time next to a job measures how busy the host was.
    """
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return (time.perf_counter() - start) * 1e3


def check_job(wl: workloads.Workload, config_path: Path, out_dir: Path, seed: int,
              code) -> list:
    if code != 0:
        return [f"exit code {code}"]
    try:
        return wl.check(config_path, out_dir, seed)
    except Exception as exc:  # unreadable or malformed output fails the job
        return [f"check raised {exc!r}"]


def csv_bytes(out_dir: Path) -> dict:
    # manifest.json carries a timestamp, so only the CSVs are compared
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}


def provenance(args) -> dict:
    return {
        "backend": kernels.BACKEND,
        "pure_python_env": bool(os.environ.get("INFOLOAD_PURE_PYTHON")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--size", choices=workloads.SIZES, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() in the parent just before starting this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)
    if SOURCE not in Path(infoload.__file__).resolve().parents:
        print(f"error: imported {infoload.__file__}, not the package under {SOURCE}",
              file=sys.stderr)
        return 1

    wl = workloads.get(args.workload, args.size)
    args.work.mkdir(parents=True, exist_ok=True)
    config_path = args.work / "config.json"
    config_path.write_text(json.dumps(wl.config))
    setup_s = time.monotonic() - args.t0
    setup_probe_ms = host_probe_ms()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_probe_ms": setup_probe_ms}))
        return 0

    tracer = None
    if args.trace_file is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    run_job(wl, config_path, args.work / "warmup", job_seed(args.seed, "warmup"))
    shutil.rmtree(args.work / "warmup", ignore_errors=True)

    job_ms, probe_ms, traced, problems = [], [], [], []
    failed = 0
    start = time.monotonic()
    index = 0
    while index == 0 or time.monotonic() - start < args.seconds:
        seed = job_seed(args.seed, str(index))
        out_dir = args.work / f"job-{index}"
        before = host_probe_ms()
        if tracer is not None:
            tracer.begin_job(index)
        ms, code = run_job(wl, config_path, out_dir, seed)
        if tracer is not None:
            traced.append(tracer.end_job(ms))
        job_ms.append(ms)
        probe_ms.append((before, host_probe_ms()))
        job_problems = check_job(wl, config_path, out_dir, seed, code)
        if job_problems:
            failed += 1
            problems.append(f"job {index} (seed {seed}): {job_problems[:3]}")
        if index > 0:
            shutil.rmtree(out_dir)
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # determinism: job 0's seed again must give byte-identical CSVs
    rerun = args.work / "job-0-rerun"
    _, code = run_job(wl, config_path, rerun, job_seed(args.seed, "0"))
    deterministic = code == 0 and csv_bytes(rerun) == csv_bytes(args.work / "job-0")
    if not deterministic:
        problems.append("determinism: rerun of job 0 gave different CSVs")

    if tracer is not None:
        tracer.write(args.trace_file)
    for line in problems:
        print(f"FAIL {args.workload}: {line}", file=sys.stderr)
    print(json.dumps({
        "setup_s": setup_s,
        "setup_probe_ms": setup_probe_ms,
        "job_ms": job_ms,
        "probe_ms": probe_ms,
        "attempted": len(job_ms) + 1,
        "failed": failed + (not deterministic),
        "peak_rss_mb": peak_rss_mb,
        "provenance": provenance(args),
        "traced": traced,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
