#!/usr/bin/env python3
"""perfbench: the benchmark of record of the LoAS simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds loas_cli and the
loas_trace replay driver (perfbench/tracer) into $CARGO_TARGET_DIR
(default .bench_build), runs one workload (dse-sweep, warm-rerun or
serve-mixed) and prints, last, one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of untraced runs, --trace 1
the per-layer metrics of a traced pass. README.md in this directory
documents the workloads and every metric.
"""

import argparse
import glob
import json
import os
import re
import shutil
import signal
import subprocess
import sys

import workloads
from proc import Daemon

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_THREADS = 4


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(root):
    """Configure and build; returns the cmake build directory."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(root, target)),
                             "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(HERE, "tracer"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "loas_cli",
                  "loas_trace", "-j", str(min(os.cpu_count() or 1, 8))])
    with open(log_path, "wb") as log:
        for cmd in steps:
            if subprocess.call(cmd, cwd=root, stdout=log,
                               stderr=subprocess.STDOUT) != 0:
                with open(log_path, errors="replace") as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed; see " + log_path, 1)
    return build_dir


def environment(root, build_dir, cli, args, threads):
    """What the numbers were measured on."""
    env = {"seed": args.seed, "threads": threads, "nproc": os.cpu_count(),
           "workload": args.workload, "seconds": args.seconds}
    listing = subprocess.run([cli, "list", "--json"], capture_output=True,
                             text=True, cwd=root)
    env["isa"] = (json.loads(listing.stdout)["isa"]
                  if listing.returncode == 0 else "unknown")
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        cache = f.read()
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    env["build_type"] = build_type.group(1) if build_type else "unknown"
    env["compiler"] = "unknown"
    for path in glob.glob(os.path.join(
            build_dir, "CMakeFiles", "*", "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            text = f.read()
        ident = re.search(r'CMAKE_CXX_COMPILER_ID "(.*)"', text)
        version = re.search(r'CMAKE_CXX_COMPILER_VERSION "(.*)"', text)
        if ident and version:
            env["compiler"] = ident.group(1) + " " + version.group(1)
    env["commit"] = "unknown"
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True)
        if commit.returncode == 0:
            env["commit"] = commit.stdout.strip()
    return env


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so the daemon and children stop too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        fail("--seed must be >= 0")

    if os.environ.get("LOAS_FAULT_SPEC"):
        fail("LOAS_FAULT_SPEC is set; fault injection would corrupt the "
             "measurement. Unset it to benchmark.")
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("run from the root of a LoAS source checkout "
             "(CMakeLists.txt and src/ not found)")

    build_dir = build(root)
    cli = os.path.join(build_dir, "loas", "loas_cli")
    tracer = os.path.join(build_dir, "loas_trace")
    threads = min(os.cpu_count() or 1, MAX_THREADS)
    env = environment(root, build_dir, cli, args, threads)

    run_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    trace_path = os.path.join(build_dir, "trace-%s.json" % args.workload)
    ctx = workloads.Context(root, cli, tracer, run_dir, trace_path,
                            args.seed, args.seconds, threads)
    workload = workloads.WORKLOADS[args.workload](ctx)
    try:
        outcome = workload.trace() if args.trace else workload.measure()
    finally:
        for daemon in list(Daemon.live):
            daemon.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
    if outcome.attempted == 0:
        outcome.check(False, "set-up failed before any checked operation")

    declared = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    metrics = {name: {"value": outcome.metrics.get(name, 0.0), "unit": unit}
               for name, unit in declared}
    correct = outcome.failed == 0 and not outcome.problems
    print("# environment: " + json.dumps(env, sort_keys=True))
    print("# notes: " + json.dumps(outcome.notes, sort_keys=True))
    if args.trace:
        print("# trace: " + trace_path)
    for problem in outcome.problems:
        print("# problem: " + problem)
    for name, unit in declared:
        print("# %-42s %16.6g %s" % (name, metrics[name]["value"], unit))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
