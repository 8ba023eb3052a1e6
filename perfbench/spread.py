#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,3] [--seconds S]

Runs perfbench/run.py once per (workload, seed), from the current directory,
and prints for each end-to-end metric its median and the distance between
its first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound in BENCHMARK.json. A spread at or above
a third of its bound is flagged "wide", above the bound "OVER"; setup_s is
judged by its median only.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", default=str(spec["run_seconds"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        failed = 0
        for seed in args.seeds.split(","):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", seed, "--seconds", args.seconds, "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.strip().split("\n")[-1])
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"{workload}: {len(values['setup_s'])} runs, {failed} failed")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if name != "setup_s":
                flag = ("OVER" if spread > bounds[name]
                        else "wide" if spread >= bounds[name] / 3 else "")
            print(f"  {name:16s} median {med:12.4f}  spread {spread:7.4f}"
                  f"  bound {bounds[name]:5.2f} {flag:4s}  "
                  + " ".join(f"{v:.4g}" for v in vals))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
