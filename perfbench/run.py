"""End-to-end benchmark of the infoload CLI: sweep, market and agent-oracle jobs.

Usage:
    python3 perfbench/run.py --workload {sweep_cli,market_cli,agent_cli} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; it uses the package source under ``src/`` next to this
directory and writes only under ``.perfbench_work/`` (scratch, removed) and
``.perfbench_out/`` (traces and ``results.jsonl``) at the repository root.

Load: a closed loop with one client in one process (worker.py, a fresh
interpreter per workload), for ``--seconds`` including the untimed per-job
checks.  ``--trace 0`` prints the end-to-end metrics, with times scaled to a
reference host (see ``to_reference_host``).  ``--trace 1`` spends half the
time untraced and half traced, in two fresh interpreters, and prints the
per-layer metrics (median per traced job, wall-clock) plus the tracing
overhead.  The last stdout line is the JSON result; earlier lines are the
provenance, the sample counts and tail percentile, and the layer report.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())  # metric names and units
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 5  # set-up is measured in this many fresh interpreters; median reported
DEADLINE_S = 170.0
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
REFERENCE_PROBE_MS = 6.0  # the host probe's time on a quiet 2-vCPU x86-64 VM
# A busy host slows these jobs more than the probe: across runs in quiet and
# busy periods, job times grew about as probe time ** 1.25 (fitted range 1-1.5).
CONTENTION_EXPONENT = 1.25
COVERAGE_SLACK = 0.05  # layer self times may miss this share of a traced job


class BenchError(Exception):
    pass


def spawn(args, extra, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # one source less of run-to-run timing variance
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--t0", repr(t0), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def to_reference_host(elapsed: float, probe_ms: float) -> float:
    """Scale a time measured next to a host probe of probe_ms to a host on which
    the probe takes REFERENCE_PROBE_MS.

    Neighbours on a shared host slow identical jobs by up to 2x for tens of
    seconds at a time, so raw wall times jump between speeds from run to run.
    The probe (worker.host_probe_ms) runs no package code, so a change to the
    package moves it only through its own effect on the host.
    """
    return elapsed * (REFERENCE_PROBE_MS / probe_ms) ** CONTENTION_EXPONENT


def reference_ms(result) -> list:
    """Every job's time in reference-host milliseconds, using the mean of the
    two probes that bracket it."""
    return [to_reference_host(ms, statistics.fmean(probes))
            for ms, probes in zip(result["job_ms"], result["probe_ms"])]


def tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples above it, but not below
    the median, and that percentile."""
    ordered = sorted(samples)
    k = max(len(ordered) - TAIL_BEYOND - 1, len(ordered) // 2)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(args, deadline):
    setups = []
    for n in range(SETUP_RUNS - 1):
        setups.append(spawn(args, ["--setup-only", "--work", str(args.work / f"setup-{n}")],
                            deadline))
    result = spawn(args, ["--seconds", str(args.seconds), "--work", str(args.work / "run")],
                   deadline)
    setups.append(result)
    setup_s = statistics.median(to_reference_host(r["setup_s"], r["setup_probe_ms"])
                                for r in setups)
    jobs = reference_ms(result)
    tail_ms, pct = tail(jobs)
    print(f"timings in reference-host units; job_tail_ms is p{pct:.1f} of {len(jobs)} jobs; "
          f"setup_s is the median of {len(setups)} interpreters")
    values = {
        "setup_s": setup_s,
        "jobs_per_s": len(jobs) / (sum(jobs) / 1e3),
        "job_p50_ms": statistics.median(jobs),
        "job_tail_ms": tail_ms,
        "ok_frac": 1.0 - result["failed"] / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    details = {"tail_percentile": pct, "job_ms": result["job_ms"], "probe_ms": result["probe_ms"],
               "setup_s": [r["setup_s"] for r in setups],
               "setup_probe_ms": [r["setup_probe_ms"] for r in setups]}
    return result, values, details, []


def per_layer(args, deadline):
    half = str(args.seconds / 2)
    plain = spawn(args, ["--seconds", half, "--work", str(args.work / "plain")], deadline)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    result = spawn(args, ["--seconds", half, "--work", str(args.work / "traced"),
                          "--trace-file", str(trace_file)], deadline)
    if plain["provenance"]["backend"] != result["provenance"]["backend"]:
        raise BenchError("traced and untraced runs used different kernel backends")
    result["attempted"] += plain["attempted"]
    result["failed"] += plain["failed"]

    traced = result["traced"]
    values = {name: statistics.median(j["metrics"][name] for j in traced)
              for name in traced[0]["metrics"]}
    overhead = statistics.median(reference_ms(result)) / statistics.median(reference_ms(plain)) - 1
    values["trace.overhead_frac"] = overhead

    print(f"per-layer report, {args.workload}: median per job over {len(traced)} traced jobs; "
          f"tracing overhead {overhead:+.1%}; spans in {trace_file.relative_to(ROOT)}")
    print(f"  {'layer':<8} {'self_ms':>10} {'share':>7}")
    for layer in traced[0]["layer_ms"]:
        ms = statistics.median(j["layer_ms"][layer] for j in traced)
        share = statistics.median(j["layer_ms"][layer] / j["job_ms"] for j in traced)
        print(f"  {layer:<8} {ms:>10.3f} {share:>7.1%}")
    for name, value in values.items():
        print(f"  {name:<36} {value:>14.6g}")
    problems = []
    for j in traced:
        covered = sum(j["layer_ms"].values()) / j["job_ms"]
        if not 1 - COVERAGE_SLACK <= covered <= 1 + 1e-9 or j["negative_self"]:
            problems.append(f"layer self times cover {covered:.3f} of a {j['job_ms']:.1f} ms job"
                            f", negative self time in {j['negative_self']}")
    return result, values, {}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the self-test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    OUT.mkdir(parents=True, exist_ok=True)
    args.work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        measure = per_layer if args.trace else end_to_end
        result, values, details, problems = measure(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.work, ignore_errors=True)

    for line in problems:
        print(f"FAIL trace: {line}", file=sys.stderr)
    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))
    record = {
        "correct": result["failed"] == 0 and not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in SPEC["per_layer" if args.trace else "end_to_end"]},
    }
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"trace": args.trace, "provenance": result["provenance"],
                             **details, **record}) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
