"""Compare two sets of end-to-end results recorded by run.py.

Usage: python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the lines run.py appends to ``.perfbench_out/results.jsonl``.
For every workload and end-to-end metric it prints each side's median and
quartiles and whether the change is worse than the base median by more than
the bound in BENCHMARK.json.  Results from different kernel backends, or from
different Python, numpy or scipy versions, are refused (exit 2).  Exit 1 when
a metric regressed beyond its bound, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MUST_MATCH = ("backend", "pure_python_env", "python", "numpy", "scipy", "size")


def load(path):
    with open(path) as fh:
        return [r for r in map(json.loads, fh) if r["trace"] == 0]


def environments(records):
    return {tuple(r["provenance"][k] for k in MUST_MATCH) for r in records}


def quartiles(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return q[0], statistics.median(values), q[2]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    base, change = load(argv[0]), load(argv[1])
    if not base or not change:
        print("refusing to compare: no end-to-end results", file=sys.stderr)
        return 2
    envs = environments(base) | environments(change)
    if len(envs) != 1:
        print("refusing to compare results from different environments: "
              + "; ".join(str(dict(zip(MUST_MATCH, env))) for env in sorted(envs)),
              file=sys.stderr)
        return 2

    spec = json.loads(BENCHMARK.read_text())["end_to_end"]
    regressed = False
    for workload in sorted({r["provenance"]["workload"] for r in base}):
        for metric in spec:
            name = metric["name"]
            sides = [[r["metrics"][name]["value"] for r in runs
                      if r["provenance"]["workload"] == workload] for runs in (base, change)]
            if not all(sides):
                continue
            (b_lo, b_med, b_hi), (c_lo, c_med, c_hi) = map(quartiles, sides)
            worse = (c_med - b_med if metric["better"] == "lower" else b_med - c_med) / b_med
            if worse > metric["bound"]:
                verdict = "REGRESSED"
                regressed = True
            elif (b_hi - b_lo) / b_med > metric["bound"]:
                verdict = "unresolved (base spread exceeds bound)"
            else:
                verdict = "ok"
            print(f"{workload:<11} {name:<12} base {b_med:.5g} [{b_lo:.5g}, {b_hi:.5g}] "
                  f"n={len(sides[0])}  change {c_med:.5g} [{c_lo:.5g}, {c_hi:.5g}] "
                  f"n={len(sides[1])}  worse by {worse:+.1%} (bound {metric['bound']:.0%})"
                  f"  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
