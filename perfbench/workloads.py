"""The perfbench workloads: dse-sweep, warm-rerun and serve-mixed.

Each workload runs the program the way its users do and checks every
output against a reference the same binary makes on its simplest path
(`--threads 1 --isa scalar`, no cache). measure() gives the end-to-end
metrics from untraced runs; trace() gives the per-layer metrics from
a separate traced pass (perfbench/tracer/loas_trace.cc). README.md in
this directory documents every metric.
"""

import hashlib
import json
import os
import shutil
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import measure
import plan as serve_plan_mod
from proc import Client, Daemon, run_timed

# End-to-end metrics, reported by every workload's untraced run.
END_TO_END = [
    ("cells_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
    ("modelled_cycles", "cycles"),
]

EXECUTE_DESIGNS = ("loas", "sparten", "sparten-fused", "gospa", "gamma",
                   "systolic", "stellar")
NS_PER_OP_DESIGNS = ("loas", "sparten", "sparten-fused")
VGG16_LAYER_DESIGNS = ("loas", "sparten-fused")
VGG16_LAYERS = 14

# Per-layer metrics, reported by every workload's traced run; a layer a
# workload does not exercise reads 0 there.
PER_LAYER = (
    [("accel.execute_ms." + d, "ms") for d in EXECUTE_DESIGNS]
    + [("accel.ns_per_op." + d, "ns/op") for d in NS_PER_OP_DESIGNS]
    + [("accel.execute_ms.%s.vgg16-L%d" % (d, l), "ms")
       for d in VGG16_LAYER_DESIGNS for l in range(VGG16_LAYERS)]
    + [("workload.synth_ms", "ms"),
       ("workload.compile_ms", "ms"),
       ("workload.compiles", "count"),
       ("workload.cache_hit_ratio", "ratio"),
       ("workload.load_ms", "ms"),
       ("workload.load_mb_per_s", "MB/s"),
       ("workload.disk_hit_ratio", "ratio"),
       ("workload.store_ms", "ms"),
       ("energy.evaluate_ms", "ms"),
       ("api.render_ms", "ms"),
       ("api.other_ms", "ms"),
       ("api.parallel_efficiency", "ratio"),
       ("serve.queue_ms_p50", "ms"),
       ("serve.run_ms_p50", "ms"),
       ("serve.compile_ms", "ms"),
       ("serve.sim_ms", "ms"),
       ("serve.engine_other_ms", "ms"),
       ("serve.transport_ms_p50", "ms"),
       ("serve.coalesced_frac", "ratio"),
       ("serve.deduped_frac", "ratio"),
       ("serve.cache_hit_ratio", "ratio"),
       ("trace_overhead_frac", "ratio")])

class Outcome:
    """Checked operations and the metrics of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}
        self.notes = {}

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)

    def invalid(self, what):
        """A failure of the run itself rather than of one operation."""
        self.problems.append(what)


def read_bytes(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def total_cycles(report_bytes, key):
    doc = json.loads(report_bytes)
    return sum(entry["result"]["total_cycles"] for entry in doc[key])


class Context:
    """Paths and settings shared by the workloads of one run."""

    def __init__(self, root, cli, tracer, run_dir, trace_path, seed,
                 seconds, threads):
        self.root = root
        self.cli = cli
        self.tracer = tracer
        self.run_dir = run_dir
        self.trace_path = trace_path
        self.seed = seed
        self.seconds = seconds
        self.threads = threads
        self.log = os.path.join(run_dir, "program.log")

    def path(self, name):
        return os.path.join(self.run_dir, name)

    def rel(self, name):
        """`name` in the run directory, relative to the checkout root."""
        return os.path.relpath(self.path(name), self.root)

    def run(self, cmd, timeout_s=170):
        return run_timed(cmd, self.root, self.log, timeout_s)

    def run_tracer(self, jobs, out, extra=()):
        """Run loas_trace over `jobs`; returns its parsed trace."""
        jobs_path = self.path("jobs.tsv")
        with open(jobs_path, "w") as f:
            for job in jobs:
                f.write("\t".join(str(x) for x in job) + "\n")
        if os.path.exists(out):
            os.unlink(out)
        finished = self.run([self.tracer, "--jobs", jobs_path,
                             "--out", out] + [str(x) for x in extra])
        trace = {"passes": [], "spans": [], "mismatches": 0}
        if os.path.exists(out):
            with open(out) as f:
                trace = json.load(f)
        trace["returncode"] = finished.returncode
        return trace


def layer_metrics(trace, passes, ops_per_pass):
    """Per-layer self times of the traced passes, per operation.

    Returns (metrics, span_ms_per_op) where span_ms_per_op is the
    top-level traced span time of one operation.
    """
    windows = [(p["start_ns"], p["end_ns"]) for p in passes]
    spans = trace["spans"]
    selfs = measure.self_times([(s[1], s[2], s[3]) for s in spans])
    keep = [any(start <= s[1] and s[2] <= end for start, end in windows)
            for s in spans]
    ops = ops_per_pass * len(passes)

    ms = defaultdict(float)
    count = defaultdict(int)
    nbytes = defaultdict(int)
    top_ns = 0
    for span, self_ns, kept in zip(spans, selfs, keep):
        if not kept:
            continue
        name, _, _, parent, _, design, network, layer, n, outcome = span
        if parent < 0:
            top_ns += span[2] - span[1]
        key = name if name != "workload.get" else "get." + outcome
        ms[key] += self_ns / 1e6
        count[key] += 1
        nbytes[key] += n
        if name == "accel.execute":
            ms["exec." + design] += self_ns / 1e6
            nbytes["exec." + design] += n
            if network == "VGG16":
                ms["exec.%s.%d" % (design, layer)] += self_ns / 1e6

    out = {}
    for d in EXECUTE_DESIGNS:
        out["accel.execute_ms." + d] = ms["exec." + d] / ops
    for d in NS_PER_OP_DESIGNS:
        modelled = nbytes["exec." + d]
        out["accel.ns_per_op." + d] = (
            ms["exec." + d] * 1e6 / modelled if modelled else 0.0)
    for d in VGG16_LAYER_DESIGNS:
        for l in range(VGG16_LAYERS):
            out["accel.execute_ms.%s.vgg16-L%d" % (d, l)] = (
                ms["exec.%s.%d" % (d, l)] / ops)
    gets = sum(count[k] for k in count if k.startswith("get."))
    misses = gets - count["get.mem"]
    out["workload.synth_ms"] = ms["workload.synth"] / ops
    out["workload.compile_ms"] = ms["accel.prepare"] / ops
    out["workload.compiles"] = count["accel.prepare"] / ops
    out["workload.cache_hit_ratio"] = (
        count["get.mem"] / gets if gets else 0.0)
    out["workload.load_ms"] = ms["get.disk"] / ops
    out["workload.load_mb_per_s"] = (
        nbytes["get.disk"] / 1e6 / (ms["get.disk"] / 1e3)
        if ms["get.disk"] else 0.0)
    out["workload.disk_hit_ratio"] = (
        count["get.disk"] / misses if misses else 0.0)
    out["workload.store_ms"] = ms["get.compile+store"] / ops
    out["energy.evaluate_ms"] = ms["energy.evaluate"] / ops
    out["api.render_ms"] = ms["api.render"] / ops
    return out, top_ns / 1e6 / ops


def enough_work(elapsed, done, seconds, minimum, target):
    """Whether a timed loop may stop.

    It runs for `seconds` and at least `minimum` operations. When the
    host is slow it goes on towards `target` operations, for at most
    a fifth longer, so a run that meets a slow spell averages over more
    of the host's speed swings.
    """
    if elapsed < seconds or done < minimum:
        return False
    return done >= target or elapsed >= 1.2 * seconds


def traced_passes(trace):
    return [p for p in trace["passes"] if p["traced"]]


def trace_overhead(trace):
    """Traced against untraced pass wall time, minus one (--overhead).

    Pass 0 is the untraced warm-up and is left out.
    """
    walls = {True: [], False: []}
    for p in trace["passes"][1:]:
        walls[p["traced"]].append(p["end_ns"] - p["start_ns"])
    if not walls[True] or not walls[False]:
        return 0.0
    return measure.median(walls[True]) / measure.median(walls[False]) - 1.0


def zero_layers():
    return {name: 0.0 for name, _ in PER_LAYER}


class ProcessWorkload:
    """A workload of repeated fresh `loas_cli` processes."""

    name = ""
    report_key = ""
    # Set-ups per untraced run; setup_s is their median.
    setup_repeats = 3
    # Timed operations a run aims for (see enough_work).
    target_ops = 0

    def __init__(self, ctx):
        self.ctx = ctx
        self.ref_bytes = None

    # Subclasses define the command, its reference and its set-up.
    def command(self, threads, out, isa=None, cached=True):
        raise NotImplementedError

    def setup(self, outcome, repeats):
        raise NotImplementedError

    def make_reference(self, outcome):
        """The simplest-path report; returns its wall time."""
        ref = self.ctx.path("reference.json")
        finished = self.ctx.run(self.command(1, ref, isa="scalar",
                                             cached=False))
        data = read_bytes(ref)
        if finished.returncode != 0 or data is None:
            outcome.invalid("reference run failed (exit %d)"
                            % finished.returncode)
            return finished.wall_s
        if self.ref_bytes is None:
            self.ref_bytes = data
        elif data != self.ref_bytes:
            outcome.invalid("reference runs differ")
        return finished.wall_s

    def op(self, outcome, threads):
        """One checked fresh process; returns its Finished record."""
        out = self.ctx.path("out.json")
        if os.path.exists(out):
            os.unlink(out)
        finished = self.ctx.run(self.command(threads, out))
        ok = finished.returncode == 0 and read_bytes(out) == self.ref_bytes
        outcome.check(ok, "%s exit %d, report %s" % (
            self.name, finished.returncode,
            "matches" if ok else "differs from the reference"))
        return finished

    def cells(self):
        return len(json.loads(self.ref_bytes)[self.report_key])

    def measure(self):
        outcome = Outcome()
        setup_walls = self.setup(outcome, self.setup_repeats)
        if self.ref_bytes is None:
            return outcome
        self.op(outcome, self.ctx.threads)  # warm the page cache
        walls, rss = [], []
        start = time.perf_counter()
        while not enough_work(time.perf_counter() - start, len(walls),
                              self.ctx.seconds, 5, self.target_ops):
            finished = self.op(outcome, self.ctx.threads)
            walls.append(finished.wall_s)
            rss.append(finished.maxrss_mb)
        ms = [w * 1e3 for w in walls]
        outcome.metrics = {
            "cells_per_s": self.cells() * len(walls) / sum(walls),
            "latency_ms_p50": measure.median(ms),
            "latency_ms_p90": measure.percentile(ms, 90),
            "setup_s": measure.median(setup_walls),
            "peak_rss_mb": max(rss),
            "ok_frac": (outcome.attempted - outcome.failed)
                       / outcome.attempted,
            "modelled_cycles": total_cycles(self.ref_bytes,
                                            self.report_key),
        }
        outcome.notes["samples"] = len(walls)
        outcome.notes["tail_percentile"] = measure.tail_percentile(len(walls))
        return outcome

    def trace(self):
        outcome = Outcome()
        self.setup(outcome, 1)
        if self.ref_bytes is None:
            return outcome
        budget_end = time.perf_counter() + self.ctx.seconds
        self.op(outcome, self.ctx.threads)  # warm the page cache
        parallel = [self.op(outcome, self.ctx.threads).wall_s * 1e3
                    for _ in range(2)]
        serial = [self.op(outcome, 1).wall_s * 1e3 for _ in range(2)]

        extra_metrics, trace = self.run_traced(outcome, budget_end)
        passes = traced_passes(trace)
        outcome.check(trace["returncode"] == 0 and trace["mismatches"] == 0
                      and bool(passes),
                      "traced pass exit %d, %d report mismatches"
                      % (trace["returncode"], trace["mismatches"]))
        metrics = zero_layers()
        outcome.metrics = metrics
        if not passes:
            return outcome
        layers, span_ms = layer_metrics(trace, passes, 1)
        metrics.update(layers)
        metrics.update(extra_metrics)
        metrics["api.other_ms"] = measure.median(serial) - span_ms
        metrics["api.parallel_efficiency"] = (
            span_ms / (measure.median(parallel) * self.ctx.threads))
        metrics["trace_overhead_frac"] = trace_overhead(trace)
        outcome.notes["traced_passes"] = len(passes)
        return outcome

    def run_traced(self, outcome, budget_end):
        raise NotImplementedError


class DseSweep(ProcessWorkload):
    """A cold `loas_cli sweep` over a LoAS/SparTen design grid."""

    name = "dse-sweep"
    report_key = "cells"
    target_ops = 26
    GRID = "loas?pes=8,16,32,64&t=4,8;sparten?fused=0,1"
    NETWORKS = "vgg16;alexnet-l4;resnet19-l19"

    def command(self, threads, out, isa=None, cached=True):
        cmd = [self.ctx.cli, "sweep", "--grid", self.GRID,
               "--network", self.NETWORKS, "--seed", str(self.ctx.seed),
               "--threads", str(threads), "--json", out]
        return cmd + (["--isa", isa] if isa else [])

    def setup(self, outcome, repeats):
        """Set-up is building the reference report."""
        return [self.make_reference(outcome) for _ in range(repeats)]

    def run_traced(self, outcome, budget_end):
        job = ("timed", "sweep", self.GRID, self.NETWORKS, self.ctx.seed,
               self.ctx.path("reference.json"))
        remaining = max(0.0, budget_end - time.perf_counter())
        trace = self.ctx.run_tracer(
            [job], self.ctx.trace_path,
            ["--overhead", "--min-passes", 2, "--seconds", "%.3f" % remaining])
        return {}, trace


class WarmRerun(ProcessWorkload):
    """A fresh `loas_cli run` against a warm on-disk cache."""

    name = "warm-rerun"
    report_key = "runs"
    setup_repeats = 5
    target_ops = 58
    ACCELS = "gospa,gamma,systolic,stellar"
    NETWORKS = "all"

    def command(self, threads, out, isa=None, cached=True):
        cmd = [self.ctx.cli, "run", "--accel", self.ACCELS,
               "--network", self.NETWORKS, "--seed", str(self.ctx.seed),
               "--threads", str(threads), "--json", out]
        if cached:
            cmd += ["--cache-dir", self.ctx.rel("cache")]
        return cmd + (["--isa", isa] if isa else [])

    def fill(self, directory):
        """`loas_cli cache warm` into an empty directory."""
        shutil.rmtree(self.ctx.path(directory), ignore_errors=True)
        return self.ctx.run([
            self.ctx.cli, "cache", "warm", "--cache-dir",
            self.ctx.rel(directory), "--accel", self.ACCELS,
            "--network", self.NETWORKS, "--seed", str(self.ctx.seed),
            "--threads", str(self.ctx.threads)])

    def setup(self, outcome, repeats):
        """Set-up is filling the disk cache (plus the reference)."""
        self.make_reference(outcome)
        walls = []
        for _ in range(repeats):
            finished = self.fill("cache")
            if finished.returncode != 0:
                outcome.invalid("cache warm exit %d" % finished.returncode)
            walls.append(finished.wall_s)
        return walls

    def run_traced(self, outcome, budget_end):
        # The traced fill writes its own directory; the traced reruns
        # read the one `loas_cli cache warm` filled, like the timed runs.
        fill_dir = self.ctx.path("traced-fill")
        shutil.rmtree(fill_dir, ignore_errors=True)
        fill_trace = self.ctx.run_tracer(
            [("timed", "warm", self.ACCELS, self.NETWORKS, self.ctx.seed,
              "-")],
            self.ctx.path("fill-trace.json"),
            ["--cache-dir", fill_dir, "--min-passes", 1,
             "--max-passes", 1])
        fill_passes = traced_passes(fill_trace)
        outcome.check(fill_trace["returncode"] == 0 and bool(fill_passes),
                      "traced fill exit %d" % fill_trace["returncode"])
        extra = {}
        if fill_passes:
            fill_metrics, _ = layer_metrics(fill_trace, fill_passes, 1)
            extra["workload.store_ms"] = fill_metrics["workload.store_ms"]
        job = ("timed", "run", self.ACCELS, self.NETWORKS, self.ctx.seed,
               self.ctx.path("reference.json"))
        remaining = max(0.0, budget_end - time.perf_counter())
        trace = self.ctx.run_tracer(
            [job], self.ctx.trace_path,
            ["--cache-dir", self.ctx.path("cache"), "--overhead",
             "--min-passes", 2, "--seconds", "%.3f" % remaining])
        return extra, trace


class ServeMixed:
    """Three closed-loop clients of a `loas_cli serve` daemon."""

    name = "serve-mixed"
    setup_repeats = 5
    CLIENTS = 3
    # At least ten samples beyond the p95.
    MIN_REQUESTS = 200
    TARGET_REQUESTS = 235
    PLAN_MAX = 4000
    # Requests whose simulated cycles make up modelled_cycles: whole
    # plan blocks, so their composition is the same for every seed.
    CYCLE_REQUESTS = 8 * serve_plan_mod.BLOCK
    # Requests the traced pass replays in process.
    REPLAY_REQUESTS = 2 * serve_plan_mod.BLOCK

    def __init__(self, ctx):
        self.ctx = ctx
        self.plan = serve_plan_mod.serve_plan(ctx.seed, self.PLAN_MAX)
        self.refs = {}

    def start(self, outcome):
        """Daemon start through the warm-up of the hot set."""
        daemon = Daemon(self.ctx.cli, self.socket_path, self.ctx.threads,
                        self.ctx.log)
        client = daemon.connect()
        for req in serve_plan_mod.hot_set(self.ctx.seed):
            reply = client.call(submit(req))
            outcome.check(reply.get("state") == "done",
                          "warm-up %s/%s: %s" % (req.accel, req.network,
                                                 reply.get("state")))
        return daemon, client, time.perf_counter() - daemon.started

    def setup(self, outcome, repeats):
        walls = []
        for i in range(repeats):
            daemon, client, wall = self.start(outcome)
            walls.append(wall)
            if i + 1 < repeats:
                client.close()
                if daemon.stop() != 0:
                    outcome.invalid("daemon exit %d at set-up"
                                    % daemon.proc.returncode)
        return daemon, client, walls

    def loop(self):
        """The timed closed loop; returns (records, wall seconds)."""
        records = [None] * self.PLAN_MAX
        lock = threading.Lock()
        state = {"next": 0}
        start = time.perf_counter()

        def client_loop():
            client = None
            while True:
                with lock:
                    i = state["next"]
                    elapsed = time.perf_counter() - start
                    if i >= self.PLAN_MAX or enough_work(
                            elapsed, i, self.ctx.seconds,
                            self.MIN_REQUESTS, self.TARGET_REQUESTS):
                        break
                    state["next"] = i + 1
                req = self.plan[i]
                t0 = time.perf_counter()
                try:
                    if client is None:
                        client = Client(self.socket_path)
                    reply = client.call(submit(req))
                except Exception as e:  # counted as a failed request
                    reply = {"ok": False, "error": repr(e)}
                    if client is not None:
                        client.close()
                    client = None
                records[i] = (time.perf_counter() - t0, reply)
            if client is not None:
                client.close()

        threads = [threading.Thread(target=client_loop)
                   for _ in range(self.CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        return records[:state["next"]], wall

    def references(self, outcome, requests):
        """Simplest-path `run --json` reports of distinct requests."""
        missing = sorted({key(r) for r in requests} - set(self.refs))

        def make(k):
            accel, network, seed = k
            out = self.ctx.path("ref-%s.json" % hashlib.sha1(
                repr(k).encode()).hexdigest()[:16])
            finished = self.ctx.run([
                self.ctx.cli, "run", "--accel", accel, "--network", network,
                "--seed", str(seed), "--threads", "1", "--isa", "scalar",
                "--json", out])
            return k, finished.returncode, out

        with ThreadPoolExecutor(max_workers=self.ctx.threads) as pool:
            for k, returncode, out in pool.map(make, missing):
                data = read_bytes(out)
                if returncode != 0 or data is None:
                    outcome.invalid("reference run %r failed" % (k,))
                    continue
                self.refs[k] = (data.decode(), out,
                                total_cycles(data, "runs"))

    def check_replies(self, outcome, records):
        self.references(outcome, self.plan[:max(len(records),
                                                 self.CYCLE_REQUESTS)])
        for i, (_, reply) in enumerate(records):
            ref = self.refs.get(key(self.plan[i]))
            ok = (reply.get("ok") is True and reply.get("state") == "done"
                  and ref is not None and reply.get("report") == ref[0])
            outcome.check(ok, "request %d (%s on %s): %s" % (
                i, self.plan[i].accel, self.plan[i].network,
                reply.get("state") or reply.get("error")))

    @property
    def socket_path(self):
        return self.ctx.rel("d.sock")

    def run_loop(self, outcome, repeats):
        daemon, client, setup_walls = self.setup(outcome, repeats)
        with daemon:
            before = client.call({"cmd": "stats"})
            records, wall = self.loop()
            after = client.call({"cmd": "stats"})
            client.close()
        if daemon.proc.returncode != 0:
            outcome.invalid("daemon exit %d" % daemon.proc.returncode)
        self.check_replies(outcome, records)
        return records, wall, setup_walls, daemon.maxrss_mb, before, after

    def measure(self):
        outcome = Outcome()
        records, wall, setup_walls, rss, _, _ = self.run_loop(
            outcome, self.setup_repeats)
        done = [lat * 1e3 for lat, reply in records
                if reply.get("state") == "done"]
        cycles = [self.refs.get(key(r)) for r in
                  self.plan[:self.CYCLE_REQUESTS]]
        outcome.metrics = {
            "cells_per_s": len(done) / wall,
            "latency_ms_p50": measure.median(done) if done else 0.0,
            "latency_ms_p90": measure.percentile(done, 90) if done else 0.0,
            "setup_s": measure.median(setup_walls),
            "peak_rss_mb": rss or 0.0,
            "ok_frac": (outcome.attempted - outcome.failed)
                       / outcome.attempted,
            "modelled_cycles": (sum(c[2] for c in cycles)
                                if all(cycles) else 0),
        }
        outcome.notes["samples"] = len(done)
        outcome.notes["tail_percentile"] = measure.tail_percentile(len(done))
        if done:
            outcome.notes["latency_ms_p95"] = measure.percentile(done, 95)
        outcome.notes["deduped"] = sum(
            1 for _, reply in records if reply.get("deduped"))
        outcome.notes["coalesced"] = sum(
            1 for _, reply in records if reply.get("coalesced_with"))
        return outcome

    def trace(self):
        outcome = Outcome()
        records, wall, _, _, before, after = self.run_loop(outcome, 1)
        metrics = zero_layers()
        metrics.update(serve_metrics(records, before, after))

        hot = [("setup", "run", r.accel, r.network, r.seed, "-")
               for r in serve_plan_mod.hot_set(self.ctx.seed)]
        replay = self.plan[:min(self.REPLAY_REQUESTS, len(records))]
        jobs = hot + [("timed", "run", r.accel, r.network, r.seed,
                       self.refs[key(r)][1] if key(r) in self.refs else "-")
                      for r in replay]
        trace = self.ctx.run_tracer(
            jobs, self.ctx.trace_path,
            ["--overhead", "--min-passes", 1, "--max-passes", 1])
        passes = traced_passes(trace)
        outcome.check(trace["returncode"] == 0 and trace["mismatches"] == 0
                      and bool(passes),
                      "traced replay exit %d, %d report mismatches"
                      % (trace["returncode"], trace["mismatches"]))
        if passes and replay:
            layers, span_ms = layer_metrics(trace, passes, len(replay))
            pass_ms = [(p["end_ns"] - p["start_ns"]) / 1e6 for p in passes]
            metrics.update(layers)
            served_per_s = len(records) / wall
            metrics["api.other_ms"] = (
                measure.median(pass_ms) / len(replay) - span_ms)
            metrics["api.parallel_efficiency"] = (
                span_ms / 1e3 * served_per_s / self.ctx.threads)
            metrics["trace_overhead_frac"] = trace_overhead(trace)
        outcome.metrics = metrics
        outcome.notes["replayed_requests"] = len(replay)
        return outcome


def key(req):
    return (req.accel, req.network, req.seed)


def submit(req):
    return {"cmd": "submit", "accel": req.accel, "network": req.network,
            "seed": req.seed}


def serve_metrics(records, before, after):
    """serve.* metrics from per-request stats and `stats` replies."""
    done = [(lat * 1e3, reply["stats"]) for lat, reply in records
            if reply.get("state") == "done"]
    out = {}
    if done:
        n = len(done)
        out["serve.queue_ms_p50"] = measure.median(
            [s["queue_ms"] for _, s in done])
        out["serve.run_ms_p50"] = measure.median(
            [s["run_ms"] for _, s in done])
        out["serve.compile_ms"] = sum(s["compile_ms"] for _, s in done) / n
        out["serve.sim_ms"] = sum(s["sim_ms"] for _, s in done) / n
        out["serve.engine_other_ms"] = sum(
            s["run_ms"] - s["compile_ms"] - s["sim_ms"] for _, s in done) / n
        out["serve.transport_ms_p50"] = measure.median(
            [lat - s["queue_ms"] - s["run_ms"] for lat, s in done])
    q0, q1 = before["queue"], after["queue"]
    submitted = q1["submitted"] - q0["submitted"]
    if submitted:
        out["serve.coalesced_frac"] = (
            (q1["coalesced"] - q0["coalesced"]) / submitted)
        out["serve.deduped_frac"] = (q1["deduped"] - q0["deduped"]) / submitted
    c0, c1 = before["cache"], after["cache"]
    lookups = (c1["hits"] - c0["hits"]) + (c1["misses"] - c0["misses"])
    if lookups:
        out["serve.cache_hit_ratio"] = (c1["hits"] - c0["hits"]) / lookups
    return out


WORKLOADS = {w.name: w for w in (DseSweep, WarmRerun, ServeMixed)}
