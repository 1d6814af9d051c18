"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload mms_ladder --seeds 10

Runs run.py once per seed (seeds 1..N), one after another, and prints for
each end-to-end metric its median and the distance between the first and
third quartile as a share of the median, next to the bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(1, args.seeds + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=200,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, failed {result['failed']}", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{args.workload} {name}: median {med:.6g}, spread {(q3 - q1) / med:.4f} "
              f"(bound {bounds[name]}, a third {bounds[name] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
