#!/usr/bin/env python3
"""Run perfbench several times, one seed each, and report the spread.

    python3 perfbench/stability.py --workload NAME --seeds 1-10 \\
        [--seconds S] [--trace 0|1]

For every metric it prints the values, their median and their spread:
the distance between the first and third quartiles over the median.
With BENCHMARK.json at the checkout root, each end-to-end spread is
set against its bound and a third of it (the target).
"""

import argparse
import json
import os
import subprocess
import sys

import measure


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    spec = {}
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    seconds = args.seconds or spec.get("run_seconds", 10)
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    here = os.path.dirname(os.path.abspath(__file__))

    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(here, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit("seed %d failed (exit %d):\n%s" % (
                seed, out.returncode, out.stderr[-2000:]))
        result = json.loads(lines[-1])
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"],
            result["failed"]), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, vals in values.items():
        line = "%-42s median %-12.6g spread %.4f" % (
            name, measure.median(vals),
            measure.spread(vals) if len(vals) >= 2 else 0.0)
        if name in bounds:
            line += "  bound %.3f target %.4f" % (bounds[name],
                                                  bounds[name] / 3)
        print(line)
        print("    " + " ".join("%.6g" % v for v in vals))


if __name__ == "__main__":
    main()
