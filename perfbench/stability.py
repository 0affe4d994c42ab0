#!/usr/bin/env python3
"""Stability runner: repeats workloads over seeds and reports each metric's spread.

Run from the root of a checkout:

    python3 perfbench/stability.py [--runs 10] [--first-seed 1]
        [--workloads replay ingest query_wide] [--seconds N]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)), and the spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json. A spread
above a third of the bound is flagged "wide", above the bound "OVER".
The exit code is non-zero when a run fails or a spread other than
setup_s's is over its bound.
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
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]])
    args = p.parse_args()

    status = 0
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if proc.returncode != 0 or not result["correct"]:
                print("%s seed %d: run failed (exit %d)" %
                      (workload, seed, proc.returncode))
                status = 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 6) for k, v in result["metrics"].items()})),
                flush=True)
        print("\n%s: %d runs" % (workload, args.runs))
        print("%-18s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for m in spec["end_to_end"]:
            v = values.get(m["name"], [])
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > m["bound"]:
                flag = "OVER"
                if m["name"] != "setup_s":
                    status = 1
            elif spread > m["bound"] / 3:
                flag = "wide"
            print("%-18s %14.6g %14.6g %14.6g %8.4f %6.3f %s" %
                  (m["name"], med, q1, q3, spread, m["bound"], flag))
        print(flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
