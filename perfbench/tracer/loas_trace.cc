/**
 * @file
 * loas_trace: the traced pass of the perfbench benchmark.
 *
 * Replays the engine calls one benchmark workload causes, serially and
 * one public function at a time, and records a span around each call:
 *
 *   workload.synth    generateNetwork
 *   workload.get      CompiledCache::getOrCompile (memory, then disk)
 *     accel.prepare   Accelerator::prepare, inside the compile callback
 *   accel.execute     Accelerator::executeInput, one span per layer
 *   energy.evaluate   EnergyModel::evaluate, one span per cell
 *   api.render        toJson of the run or sweep report
 *
 * A workload.get span carries its outcome (memory hit, disk load,
 * compile, compile + store) from the cache's attributed counters, so
 * ArtifactStore::load/store time is the self time of the getOrCompile
 * call that served it. Spans live in memory and are written as one
 * JSON document when the process ends; perfbench/stats.py turns them
 * into per-layer self times.
 *
 * Usage:
 *   loas_trace --jobs FILE --out FILE [--cache-dir DIR]
 *              [--overhead] [--min-passes N] [--max-passes N]
 *              [--seconds S]
 *
 * Each job line is tab-separated:
 *   phase  kind  accels  networks  seed  reference
 * phase is `setup` or `timed`; kind is `run` (accels: comma list,
 * networks: as `loas_cli run --network`), `sweep` (accels: `;`-joined
 * grids, networks: `;`-joined grids) or `warm` (as `loas_cli cache
 * warm`). reference is a file the rendered report must equal byte for
 * byte, or `-`.
 *
 * Every pass starts from a fresh in-memory cache (a fresh process, or
 * a fresh daemon) attached to --cache-dir, runs the setup jobs, then
 * times the timed jobs. Traced passes repeat until both --min-passes
 * and --seconds are reached, or --max-passes. With --overhead an
 * untraced warm-up pass comes first and an untraced pass follows each
 * traced one, so the cost of tracing is the difference between the
 * traced and untraced passes.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/accelerator.hh"
#include "api/accel_spec.hh"
#include "api/json.hh"
#include "api/registry.hh"
#include "api/sim_engine.hh"
#include "api/sweep.hh"
#include "api/sweep_io.hh"
#include "energy/energy_model.hh"
#include "workload/artifact_store.hh"
#include "workload/compiled_cache.hh"
#include "workload/generator.hh"

namespace {

using namespace loas;
using Clock = std::chrono::steady_clock;

struct Span
{
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int pass = 0;
    std::string design;
    std::string network;
    int layer = -1;
    /** Modelled ops (accel.execute) or artifact bytes (disk gets). */
    std::uint64_t count = 0;
    /** workload.get outcome: mem, disk, compile, compile+store. */
    const char* outcome = "";
};

/** In-memory span recorder; the replay is serial, so no locking. */
class Tracer
{
  public:
    bool enabled = false;
    int pass = 0;
    std::vector<Span> spans;

    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    int
    open(const char* name)
    {
        Span span;
        span.name = name;
        span.parent = stack_.empty() ? -1 : stack_.back();
        span.pass = pass;
        spans.push_back(std::move(span));
        stack_.push_back(static_cast<int>(spans.size()) - 1);
        spans.back().start_ns = now();
        return stack_.back();
    }

    void
    close(int index)
    {
        spans[index].end_ns = now();
        stack_.pop_back();
    }

  private:
    Clock::time_point origin_ = Clock::now();
    std::vector<int> stack_;
};

/** One span around a scope; a no-op while the tracer is disabled. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer& tracer, const char* name) : tracer_(tracer)
    {
        if (tracer_.enabled)
            index_ = tracer_.open(name);
    }
    ~ScopedSpan()
    {
        if (index_ >= 0)
            tracer_.close(index_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    /** The recorded span, or null when tracing is off. */
    Span*
    span()
    {
        return index_ >= 0 ? &tracer_.spans[index_] : nullptr;
    }

  private:
    Tracer& tracer_;
    int index_ = -1;
};

struct Job
{
    std::string phase;
    std::string kind;
    std::string accels;
    std::string networks;
    std::uint64_t seed = 0;
    std::string reference;
};

std::vector<std::string>
splitTabs(const std::string& line)
{
    std::vector<std::string> fields;
    std::string field;
    std::istringstream in(line);
    while (std::getline(in, field, '\t'))
        fields.push_back(field);
    return fields;
}

std::vector<Job>
readJobs(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read jobs file " + path);
    std::vector<Job> jobs;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const auto f = splitTabs(line);
        if (f.size() != 6 || (f[0] != "setup" && f[0] != "timed") ||
            (f[1] != "run" && f[1] != "sweep" && f[1] != "warm"))
            throw std::runtime_error("bad job line: " + line);
        jobs.push_back(Job{f[0], f[1], f[2], f[3],
                           std::stoull(f[4]), f[5]});
    }
    return jobs;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** Metric label of a design: registry key, `-fused` for fused SparTen. */
std::string
designLabel(const AccelSpec& spec)
{
    const auto fused = spec.options.find("fused");
    if (spec.key == "sparten" && fused != spec.options.end() &&
        fused->second == "1")
        return "sparten-fused";
    return spec.key;
}

/** The `--network` list split the way `loas_cli run` splits it. */
std::vector<std::string>
splitRunNetworks(const std::string& list)
{
    const bool grid_form = list.find(';') != std::string::npos ||
                           list.find('?') != std::string::npos;
    return splitSpecList(list, grid_form ? ';' : ',');
}

/** Replays jobs against one pass's cache, recording spans. */
class Replayer
{
  public:
    Replayer(Tracer& tracer, CompiledCache& cache, std::string disk_dir)
        : tracer_(tracer), cache_(cache), disk_dir_(std::move(disk_dir))
    {
    }

    /** Runs one job; returns false when its report mismatched. */
    bool
    run(const Job& job)
    {
        if (job.kind == "warm") {
            warm(job);
            return true;
        }
        const bool sweep = job.kind == "sweep";
        std::vector<std::string> spec_strings;
        if (sweep)
            spec_strings =
                expandSpecGridList(splitSpecList(job.accels, ';'));
        else
            spec_strings = splitSpecList(job.accels);
        const std::vector<NetworkSpec> networks =
            expandNetworkGrids(sweep ? splitSpecList(job.networks, ';')
                                     : splitRunNetworks(job.networks));

        const auto& registry = AcceleratorRegistry::instance();
        std::vector<AccelSpec> specs;
        bool want_plain = false, want_ft = false;
        for (const auto& s : spec_strings) {
            specs.push_back(parseAccelSpec(s));
            (registry.entry(specs.back().key).ft_workload ? want_ft
                                                          : want_plain) =
                true;
        }

        std::vector<std::vector<LayerData>> plain(networks.size()),
            ft(networks.size());
        for (std::size_t n = 0; n < networks.size(); ++n) {
            if (want_plain)
                plain[n] = synth(networks[n], job.seed, false);
            if (want_ft)
                ft[n] = synth(networks[n], job.seed, true);
        }

        SimReport report;
        for (std::size_t a = 0; a < specs.size(); ++a) {
            const bool is_ft = registry.entry(specs[a].key).ft_workload;
            const std::string label = designLabel(specs[a]);
            for (std::size_t n = 0; n < networks.size(); ++n) {
                const auto& layers = is_ft ? ft[n] : plain[n];
                const auto instance = registry.make(specs[a]);
                std::vector<std::shared_ptr<const CompiledLayer>>
                    compiled;
                for (std::size_t l = 0; l < layers.size(); ++l)
                    compiled.push_back(get(*instance, networks[n].name,
                                           l, is_ft, layers[l],
                                           job.seed));
                SimRun run;
                run.accel_spec = spec_strings[a];
                run.network = networks[n].name;
                run.result.accel = instance->name();
                run.result.workload = networks[n].name;
                for (std::size_t l = 0; l < compiled.size(); ++l) {
                    ScopedSpan span(tracer_, "accel.execute");
                    const RunResult layer =
                        instance->executeInput(*compiled[l], 0, 0);
                    if (Span* s = span.span()) {
                        s->design = label;
                        s->network = networks[n].name;
                        s->layer = static_cast<int>(l);
                        s->count = layer.ops.total();
                    }
                    run.result += layer;
                }
                report.runs.push_back(std::move(run));
            }
        }

        for (auto& run : report.runs) {
            ScopedSpan span(tracer_, "energy.evaluate");
            run.energy = energy_model_.evaluate(run.result);
        }

        std::string rendered;
        {
            ScopedSpan span(tracer_, "api.render");
            rendered = sweep ? json::toJson(sweepReport(
                                   specs, networks.size(), report))
                             : json::toJson(report);
        }
        return job.reference == "-" ||
               rendered == readFile(job.reference);
    }

  private:
    std::vector<LayerData>
    synth(const NetworkSpec& net, std::uint64_t seed, bool ft)
    {
        ScopedSpan span(tracer_, "workload.synth");
        if (Span* s = span.span())
            s->network = net.name;
        return generateNetwork(net, seed, ft);
    }

    /** getOrCompile through the pass's cache, outcome-tagged. */
    std::shared_ptr<const CompiledLayer>
    get(const Accelerator& instance, const std::string& network,
        std::size_t layer_index, bool ft, const LayerData& layer,
        std::uint64_t seed)
    {
        const std::string key =
            compiledLayerKey(network, layer_index, ft,
                             instance.formatFamily(), layer.spec.t, seed);
        CompiledCache::Stats delta;
        ScopedSpan span(tracer_, "workload.get");
        auto compiled = cache_.getOrCompile(
            key,
            [&] {
                ScopedSpan prepare(tracer_, "accel.prepare");
                return instance.prepare(layer);
            },
            &delta);
        if (Span* s = span.span()) {
            s->network = network;
            s->layer = static_cast<int>(layer_index);
            if (delta.disk_hits > 0)
                s->outcome = "disk";
            else if (delta.disk_writes > 0)
                s->outcome = "compile+store";
            else if (delta.misses > 0)
                s->outcome = "compile";
            else
                s->outcome = "mem";
            if (!disk_dir_.empty() && (delta.disk_hits > 0 || delta.disk_writes > 0))
                s->count = artifactBytes(key);
        }
        return compiled;
    }

    std::uint64_t
    artifactBytes(const std::string& key) const
    {
        std::error_code ec;
        const auto bytes = std::filesystem::file_size(
            ArtifactStore(disk_dir_).path(key), ec);
        return ec ? 0 : static_cast<std::uint64_t>(bytes);
    }

    /** The same compiles `loas_cli cache warm` makes, serially. */
    void
    warm(const Job& job)
    {
        const auto& registry = AcceleratorRegistry::instance();
        struct Variant
        {
            std::unique_ptr<Accelerator> instance;
            bool ft;
        };
        std::vector<Variant> variants;
        std::set<std::string> seen;
        for (const auto& s : splitSpecList(job.accels)) {
            const AccelSpec spec = parseAccelSpec(s);
            const bool ft = registry.entry(spec.key).ft_workload;
            auto instance = registry.make(spec);
            if (seen.insert(instance->formatFamily() +
                            (ft ? "#ft" : "#plain"))
                    .second)
                variants.push_back(Variant{std::move(instance), ft});
        }
        for (const auto& net :
             expandNetworkGrids(splitSpecList(job.networks, ';'))) {
            std::vector<LayerData> plain, ft;
            for (const auto& v : variants)
                if ((v.ft ? ft : plain).empty())
                    (v.ft ? ft : plain) = synth(net, job.seed, v.ft);
            for (const auto& v : variants) {
                const auto& layers = v.ft ? ft : plain;
                for (std::size_t l = 0; l < layers.size(); ++l)
                    get(*v.instance, net.name, l, v.ft, layers[l],
                        job.seed);
            }
        }
    }

    /** The derived columns SweepEngine adds (default baseline). */
    static SweepReport
    sweepReport(const std::vector<AccelSpec>& designs, std::size_t n_nets,
                const SimReport& sim)
    {
        SweepReport report;
        report.baseline = designs.front().str();
        std::set<std::string> option_names;
        for (const auto& d : designs)
            for (const auto& [name, value] : d.options)
                option_names.insert(name);
        report.option_columns.assign(option_names.begin(),
                                     option_names.end());
        report.cells.resize(sim.runs.size());
        for (std::size_t i = 0; i < sim.runs.size(); ++i) {
            const AccelSpec& d = designs[i / n_nets];
            SweepCell& cell = report.cells[i];
            cell.accel_spec = d.str();
            cell.accel_key = d.key;
            cell.accel_options = d.options;
            cell.network = sim.runs[i].network;
            cell.is_baseline = cell.accel_spec == report.baseline;
            cell.result = sim.runs[i].result;
            cell.energy = sim.runs[i].energy;
        }
        for (std::size_t n = 0; n < n_nets; ++n) {
            const SweepCell& base = report.cells[n];
            std::vector<std::pair<double, double>> points;
            for (std::size_t d = 0; d < designs.size(); ++d) {
                SweepCell& cell = report.cells[d * n_nets + n];
                const double cycles =
                    static_cast<double>(cell.result.total_cycles);
                cell.speedup =
                    static_cast<double>(base.result.total_cycles) /
                    cycles;
                cell.energy_gain =
                    base.energy.totalPj() / cell.energy.totalPj();
                cell.edp = cell.energy.totalPj() * cycles;
                points.emplace_back(cycles, cell.energy.totalPj());
            }
            const std::vector<bool> front = paretoFront(points);
            for (std::size_t d = 0; d < designs.size(); ++d)
                report.cells[d * n_nets + n].pareto = front[d];
        }
        return report;
    }

    Tracer& tracer_;
    CompiledCache& cache_;
    const std::string disk_dir_;
    const EnergyModel energy_model_{};
};

struct PassRecord
{
    int id = 0;
    bool traced = false;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::size_t timed_jobs = 0;
};

void
writeTrace(const std::string& path, const Tracer& tracer,
           const std::vector<PassRecord>& passes, std::size_t mismatches)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    out << "{\"schema\": \"perfbench-trace/1\",\n\"mismatches\": "
        << mismatches << ",\n\"passes\": [\n";
    for (std::size_t i = 0; i < passes.size(); ++i)
        out << "  {\"id\": " << passes[i].id << ", \"traced\": "
            << (passes[i].traced ? "true" : "false")
            << ", \"start_ns\": " << passes[i].start_ns
            << ", \"end_ns\": " << passes[i].end_ns
            << ", \"timed_jobs\": " << passes[i].timed_jobs << "}"
            << (i + 1 < passes.size() ? ",\n" : "\n");
    out << "],\n\"spans\": [\n";
    for (std::size_t i = 0; i < tracer.spans.size(); ++i) {
        const Span& s = tracer.spans[i];
        out << "  [" << json::quote(s.name) << ", " << s.start_ns << ", "
            << s.end_ns << ", " << s.parent << ", " << s.pass << ", "
            << json::quote(s.design) << ", " << json::quote(s.network) << ", "
            << s.layer << ", " << s.count << ", " << json::quote(s.outcome)
            << "]" << (i + 1 < tracer.spans.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out)
        throw std::runtime_error("error writing " + path);
}

int
runPasses(int argc, char** argv)
{
    std::string jobs_path, out_path, cache_dir;
    int min_passes = 1, max_passes = 1000;
    bool overhead = false;
    double seconds = 0.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--overhead") {
            overhead = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::invalid_argument(arg + " needs a value");
        const std::string value = argv[++i];
        if (arg == "--jobs")
            jobs_path = value;
        else if (arg == "--out")
            out_path = value;
        else if (arg == "--cache-dir")
            cache_dir = value;
        else if (arg == "--min-passes")
            min_passes = std::stoi(value);
        else if (arg == "--max-passes")
            max_passes = std::stoi(value);
        else if (arg == "--seconds")
            seconds = std::stod(value);
        else
            throw std::invalid_argument("unknown flag '" + arg + "'");
    }
    if (jobs_path.empty() || out_path.empty())
        throw std::invalid_argument("--jobs and --out are required");
    const std::vector<Job> jobs = readJobs(jobs_path);

    // The pass schedule: [warm-up] then traced passes, each followed by
    // an untraced one under --overhead.
    std::vector<bool> schedule;
    if (overhead)
        schedule.push_back(false);
    Tracer tracer;
    std::vector<PassRecord> passes;
    std::size_t mismatches = 0;
    const auto started = Clock::now();
    for (int traced = 0; traced < max_passes; ++traced) {
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - started).count();
        if (traced >= min_passes && elapsed >= seconds)
            break;
        schedule.push_back(true);
        if (overhead)
            schedule.push_back(false);
        while (passes.size() < schedule.size()) {
            const int p = static_cast<int>(passes.size());
            tracer.pass = p;
            tracer.enabled = schedule[p];

            CompiledCache cache;
            cache.setDiskDir(cache_dir);
            Replayer replay(tracer, cache, cache_dir);
            for (const auto& job : jobs)
                if (job.phase == "setup")
                    mismatches += replay.run(job) ? 0 : 1;

            PassRecord record;
            record.id = p;
            record.traced = tracer.enabled;
            record.start_ns = tracer.now();
            for (const auto& job : jobs)
                if (job.phase == "timed") {
                    mismatches += replay.run(job) ? 0 : 1;
                    ++record.timed_jobs;
                }
            record.end_ns = tracer.now();
            passes.push_back(record);
        }
    }
    writeTrace(out_path, tracer, passes, mismatches);
    return mismatches == 0 ? 0 : 3;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return runPasses(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "loas_trace: %s\n", e.what());
        return 2;
    }
}
