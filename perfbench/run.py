#!/usr/bin/env python3
"""The repository benchmark: builds the measuring program and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload replay|ingest|query_wide \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The program is built from source into $CARGO_TARGET_DIR (default
.bench_build) under the checkout on first use. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics; with
--trace 0 the metrics are BENCHMARK.json's end_to_end set, with --trace 1
its per_layer set. The exit code is non-zero when the build fails, an
output check fails, or the result does not match BENCHMARK.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build():
    """Configures (once) and builds the program; returns the build dir."""
    out = build_dir()
    cmds = []
    if not (out / "CMakeCache.txt").exists():
        cmds.append(["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)])
    for cmd in cmds:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(1)
    return out


def spec():
    """BENCHMARK.json from the checkout root (next to perfbench/)."""
    with open(HERE.parent / "BENCHMARK.json") as f:
        return json.load(f)


def validate(result, metrics_spec):
    """Checks the result line against the contract; returns a list of errors."""
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("result keys %s" % sorted(result))
        return errors
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            errors.append("%s is not a whole number" % key)
    if result["attempted"] < 1:
        errors.append("attempted < 1")
    want = {m["name"]: m["unit"] for m in metrics_spec}
    got = result["metrics"]
    if sorted(got) != sorted(want):
        errors.append("metrics %s, want %s" % (sorted(got), sorted(want)))
    for name, m in got.items():
        if name in want and m.get("unit") != want[name]:
            errors.append("%s unit %s, want %s" % (name, m.get("unit"), want[name]))
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append("%s value %r is not a finite number" % (name, v))
    return errors


def run_workload(args):
    out = build()
    data = out / "out"
    data.mkdir(exist_ok=True)
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(data),
           "--reference", str(HERE / "reference_auc.txt")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict):
        sys.stdout.write(proc.stdout)
        log("perfbench: no result line (exit %d)" % proc.returncode)
        return 1
    for line in lines[:-1]:
        print(line)
    key = "per_layer" if args.trace else "end_to_end"
    errors = validate(result, spec()[key])
    for e in errors:
        print("RESULT INVALID: " + e)
    print(json.dumps(result), flush=True)
    if errors or not result["correct"]:
        return 1
    return proc.returncode


def selftest():
    out = build()
    return subprocess.run([str(out / "perfbench_selftest")]).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=["replay", "ingest", "query_wide"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        p.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
