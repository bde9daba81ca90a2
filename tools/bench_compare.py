#!/usr/bin/env python3
"""Perf-trend gate over the loas_cli bench JSON artifacts.

Compares a current BENCH_*.json against a checked-in baseline
(bench/baselines/*.baseline.json) and fails on:

  * schema mismatch or malformed metrics (the old validator's job),
  * any ``*_allocs_steady`` metric != 0 or ``alloc_hook_active`` != 1
    (hard invariants, never trend-gated),
  * a gated metric regressing by more than ``--threshold`` (default
    25%): lower-is-better simulation timings (``sim_ms*``) and
    higher-is-better throughputs (``*_per_s``: sweep cells/s, join
    calls and matches/s, rank-table ops/s),
  * a floor metric below its absolute minimum
    (``join_fused_speedup_t8`` >= 2, the fused-join tentpole claim —
    baseline-independent).

Everything else (``cache_*`` counters, small wall-time metrics) is
informational; a changed ``sweep_cells`` is flagged as an error since
it means the benched matrix itself changed and the baseline must be
re-captured (run ``loas_cli bench --quick`` and copy the JSONs over
``bench/baselines/``).

A markdown delta table is printed and, when ``$GITHUB_STEP_SUMMARY``
is set (or ``--summary PATH`` given), appended there for the PR job
page.
"""

import argparse
import json
import math
import os
import sys

# The gated set follows the CI contract: sim_ms (total and per
# design), sweep cells/s and the kernel throughputs. Small wall-time
# metrics (workload_synthesis_ms, prepare_ms, sweep_wall_ms) jitter
# far more than 25% at quick-bench scale, so they stay informational.
LOWER_IS_BETTER_PREFIXES = ("sim_ms",)
HIGHER_IS_BETTER_SUFFIX = "_per_s"

# Throughputs measured across a socket round trip jitter with runner
# load far beyond the compute-bound metrics, so they trend in the
# table without gating the job (loas-bench/4). The batched-inference
# rate (loas-bench/5) includes workload synthesis + compile wall time
# and jitters the same way. The fault-hook overhead fraction
# (loas-bench/6) is a noise-scale ratio of two interleaved timings.
# The SIMD speedup (loas-kernels/3) reflects which ISA the runner's
# cpuid resolves, not a code regression, so it trends without gating.
INFORMATIONAL_METRICS = {"serve_requests_per_s",
                         "batch_inferences_per_s",
                         "fault_overhead_frac",
                         "simd_speedup"}

# Informational ceilings: an 'info' metric above its ceiling prints a
# "HIGH" status in the table (and a note) without failing the job.
# fault_overhead_frac is the cost of the compiled-in-but-disarmed
# fault hooks relative to a hook-free run; the design claim is that
# it is noise (< 1%), but a loaded runner can exceed that without it
# meaning anything, so it warns instead of gating.
INFO_CEILING_METRICS = {"fault_overhead_frac": 0.01}

# Absolute floors (loas-kernels/3): independent of the baseline, these
# must clear a minimum every run — the fused temporal join must beat
# the sequential T=8 path by at least 2x (the tentpole claim). Both
# sides run at the resolved ISA. Only the fused join has a vector
# path: its AVX2 kernels (T <= 8, src/core/fused_join.cc) are what
# keep the ratio above the floor, so the floor holds on AVX2 hosts;
# a scalar-only run sits below it.
FLOOR_METRICS = {"join_fused_speedup_t8": 2.0}


def load_bench(path):
    with open(path) as f:
        bench = json.load(f)
    schema = bench.get("schema", "")
    if not isinstance(schema, str) or not schema.startswith("loas-"):
        raise SystemExit(f"{path}: unexpected schema {schema!r}")
    metrics = bench.get("metrics")
    if not isinstance(metrics, list) or not metrics:
        raise SystemExit(f"{path}: metrics missing or empty")
    values = {}
    for m in metrics:
        name, value = m.get("name"), m.get("value")
        if not isinstance(name, str) or not name:
            raise SystemExit(f"{path}: bad metric entry {m}")
        if not isinstance(value, (int, float)) or \
                not math.isfinite(value):
            raise SystemExit(f"{path}: non-finite metric {name}")
        values[name] = float(value)
    return schema, values


def classify(name):
    """One of 'lower', 'higher', 'hard', 'floor', 'info' for a name."""
    if name in INFORMATIONAL_METRICS:
        return "info"
    if name in FLOOR_METRICS:
        return "floor"
    # join_allocs_steady and execute_allocs_steady_<design> alike.
    if "_allocs_steady" in name or name == "alloc_hook_active":
        return "hard"
    if any(name.startswith(p) for p in LOWER_IS_BETTER_PREFIXES):
        return "lower"
    if name.endswith(HIGHER_IS_BETTER_SUFFIX):
        return "higher"
    return "info"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional regression (0.25 = "
                             "25%%)")
    parser.add_argument("--summary", default=None,
                        help="markdown summary path (default: "
                             "$GITHUB_STEP_SUMMARY when set)")
    args = parser.parse_args()

    base_schema, base = load_bench(args.baseline)
    cur_schema, cur = load_bench(args.current)
    failures = []
    if base_schema != cur_schema:
        failures.append(f"schema drift: baseline {base_schema!r} vs "
                        f"current {cur_schema!r} — re-capture the "
                        f"baseline")

    rows = []
    for name in sorted(cur):
        value = cur[name]
        kind = classify(name)
        ref = base.get(name)

        status, delta_text = "ok", "—"
        if kind == "hard":
            want = 1.0 if name == "alloc_hook_active" else 0.0
            if value != want:
                status = "FAIL"
                failures.append(
                    f"hard invariant {name} = {value:g} (want "
                    f"{want:g})")
        elif kind == "floor":
            floor = FLOOR_METRICS[name]
            if ref is not None and ref > 0:
                delta_text = f"{(value - ref) / ref * 100:+.1f}%"
            if value < floor:
                status = "FAIL"
                failures.append(
                    f"{name} = {value:g} below the required floor "
                    f"{floor:g}")
        elif ref is None:
            status = "new"
        elif kind in ("lower", "higher"):
            if ref > 0:
                # Positive delta = regression for both directions.
                delta = (value - ref) / ref if kind == "lower" \
                    else (ref - value) / ref
                delta_text = f"{delta * 100:+.1f}%"
                if delta > args.threshold:
                    status = "FAIL"
                    failures.append(
                        f"{name} regressed {delta * 100:.1f}% "
                        f"(baseline {ref:g}, current {value:g}, "
                        f"threshold {args.threshold * 100:.0f}%)")
        elif name in INFO_CEILING_METRICS and \
                value > INFO_CEILING_METRICS[name]:
            status = "HIGH"
            print(f"note: {name} = {value:g} above the informational "
                  f"ceiling {INFO_CEILING_METRICS[name]:g} (not a "
                  f"gate)", file=sys.stderr)
        elif name == "sweep_cells" and value != ref:
            status = "FAIL"
            failures.append(
                f"sweep_cells changed {ref:g} -> {value:g}: the "
                f"bench matrix differs from the baseline's — "
                f"re-capture bench/baselines/")
        rows.append((name, ref, value, delta_text, kind, status))

    for name in sorted(set(base) - set(cur)):
        rows.append((name, base[name], None, "—", classify(name),
                     "FAIL"))
        failures.append(f"metric {name} present in baseline but "
                        f"missing from current output")

    lines = [f"### Bench trend: `{os.path.basename(args.current)}` "
             f"({cur_schema})", "",
             "| metric | baseline | current | delta | gate | status |",
             "|---|---:|---:|---:|---|---|"]
    fmt = lambda v: "—" if v is None else f"{v:,.3f}"
    for name, ref, value, delta_text, kind, status in rows:
        gate = {"lower": "lower-is-better",
                "higher": "higher-is-better",
                "hard": "hard", "floor": "floor", "info": "info"}[kind]
        lines.append(f"| {name} | {fmt(ref)} | {fmt(value)} | "
                     f"{delta_text} | {gate} | {status} |")
    if failures:
        lines += ["", "**Failures:**"] + \
                 [f"- {f}" for f in failures]
    table = "\n".join(lines) + "\n"
    print(table)

    summary_path = args.summary or os.environ.get(
        "GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as f:
            f.write(table + "\n")

    if failures:
        print(f"bench_compare: {len(failures)} failure(s)",
              file=sys.stderr)
        return 1
    print(f"bench_compare: OK ({len(rows)} metrics within "
          f"{args.threshold * 100:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
