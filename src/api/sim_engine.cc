#include "api/sim_engine.hh"

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <stdexcept>

#include "api/registry.hh"
#include "common/fault.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "workload/generator.hh"

namespace loas {

const SimRun*
SimReport::find(const std::string& accel_spec,
                const std::string& network) const
{
    for (const auto& run : runs)
        if (run.accel_spec == accel_spec && run.network == network)
            return &run;
    return nullptr;
}

const SimRun&
SimReport::at(const std::string& accel_spec,
              const std::string& network) const
{
    const SimRun* run = find(accel_spec, network);
    if (run == nullptr)
        fatal("SimReport has no cell (%s, %s)", accel_spec.c_str(),
              network.c_str());
    return *run;
}

SimReport
SimEngine::run(const SimRequest& request) const
{
    // Injected engine fault: an exception like any other run-time
    // failure, so it exercises the same surfaces — a structured
    // `failed` job in the daemon, an error exit in the CLI.
    fault::maybeThrow(fault::Site::EngineExecute);

    const auto& registry = AcceleratorRegistry::instance();

    // Validate the whole request up front: parse every spec, resolve
    // every registry key, and build (but discard) one instance so bad
    // options surface before any simulation time is spent.
    struct AccelJob
    {
        std::string spec_string;
        AccelSpec spec;
        bool ft_workload = false;
    };
    std::vector<AccelJob> accels;
    accels.reserve(request.accels.size());
    for (const auto& spec_string : request.accels) {
        AccelJob job;
        job.spec_string = spec_string;
        job.spec = parseAccelSpec(spec_string);
        job.ft_workload = registry.entry(job.spec.key).ft_workload;
        registry.make(job.spec);
        accels.push_back(std::move(job));
    }

    // Network names must be unique: they key both the report's cell
    // lookup and the compiled-workload cache, so a duplicate would
    // silently serve one network's compiled operands to the other.
    std::set<std::string> net_names;
    for (const auto& net : request.networks)
        if (!net_names.insert(net.name).second)
            throw std::invalid_argument(
                "duplicate network name '" + net.name +
                "' in SimRequest");

    if (request.batch < 1)
        throw std::invalid_argument("SimRequest batch must be >= 1");

    const int threads = resolveThreads(request.threads);

    // Cancellation is cooperative and cell-granular: the token is
    // polled before each unit of work, so a cancelled run stops
    // within one workload synthesis / one cell simulation.
    const auto check_cancelled = [&] {
        if (request.cancel &&
            request.cancel->load(std::memory_order_relaxed))
            throw SimCancelled();
    };
    check_cancelled();

    // Phase 1: synthesize each needed (network, ft-variant) workload
    // once; the cached layers are shared read-only by every backend.
    const std::size_t n_nets = request.networks.size();
    bool want_plain = false, want_ft = false;
    for (const auto& accel : accels)
        (accel.ft_workload ? want_ft : want_plain) = true;

    std::vector<std::vector<LayerData>> plain(n_nets), ft(n_nets);
    parallelFor(n_nets, threads, [&](std::size_t i) {
        check_cancelled();
        const NetworkSpec& net = request.networks[i];
        if (want_plain)
            plain[i] = generateNetwork(net, request.seed, /*ft=*/false,
                                       request.batch);
        if (want_ft)
            ft[i] = generateNetwork(net, request.seed, /*ft=*/true,
                                    request.batch);
    });

    // Phase 2: lower each layer through the shared compiled-workload
    // cache and execute the (accelerator x network) job matrix. Each
    // job owns a private accelerator instance and writes its fixed
    // report slot, which keeps multi-threaded runs bit-identical to
    // serial ones; compiled artifacts are shared read-only across all
    // design variants of a format family (one compilation per key,
    // whatever the thread count).
    SimReport report;
    report.runs.resize(accels.size() * n_nets);
    const EnergyModel energy_model(request.energy_params);

    // A request-supplied cache outlives (and is shared across) engine
    // runs; otherwise the run gets a private cache configured from the
    // request. Either way the report carries this run's stat deltas.
    CompiledCache local_cache;
    CompiledCache* cache = request.compiled_cache;
    if (cache == nullptr) {
        cache = &local_cache;
        local_cache.setByteBudget(request.cache_budget_bytes);
        local_cache.setDiskDir(request.cache_dir);
    }
    // This run's own cache counters, attributed exactly under the
    // cache mutex — not a before/after snapshot subtraction, so the
    // tally stays correct when concurrent runs share the cache.
    CompiledCache::Stats attributed;
    std::atomic<std::uint64_t> sim_ns{0};
    using Clock = std::chrono::steady_clock;

    // Batched cells parallelize along the input axis *inside* a cell;
    // splitting the thread budget across the cell jobs keeps total
    // concurrency at the requested level. One input's execute is
    // always serial.
    const int cells = static_cast<int>(report.runs.size());
    const int batch_threads =
        request.batch > 1 ? std::max(1, threads / std::max(1, cells)) : 1;

    parallelFor(report.runs.size(), threads, [&](std::size_t i) {
        check_cancelled();
        const std::size_t a = i / n_nets;
        const std::size_t n = i % n_nets;
        const AccelJob& accel = accels[a];
        const NetworkSpec& net = request.networks[n];
        const auto& layers = accel.ft_workload ? ft[n] : plain[n];

        SimRun& run = report.runs[i];
        run.accel_spec = accel.spec_string;
        run.network = net.name;

        const auto instance = registry.make(accel.spec);
        const std::string family = instance->formatFamily();
        std::vector<std::shared_ptr<const CompiledLayer>> compiled;
        compiled.reserve(layers.size());
        for (std::size_t l = 0; l < layers.size(); ++l)
            compiled.push_back(cache->getOrCompile(
                compiledLayerKey(net.name, l, accel.ft_workload,
                                 family, layers[l].spec.t,
                                 request.seed, request.batch),
                [&] { return instance->prepare(layers[l]); },
                &attributed));

        const auto t_exec = Clock::now();
        if (request.batch > 1)
            run.result = instance->runNetworkBatch(
                compiled, net.name, batch_threads, &run.per_input);
        else
            run.result = instance->runNetwork(compiled, net.name);
        sim_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t_exec)
                .count());
    });

    // Energy is a pure function of each cell's RunResult, so it is
    // derived post-hoc while assembling the report instead of inside
    // the simulation job loop — it neither occupies worker threads nor
    // pollutes the sim_ms timing split.
    if (request.energy)
        for (auto& run : report.runs)
            run.energy = energy_model.evaluate(run.result);

    // The run is over: its networks' artifacts move to the evict-first
    // pool of a persistent cache, so the next run's compilations push
    // them out before anything still live.
    for (const auto& net : request.networks)
        cache->finishNetwork(net.name);

    report.compile_cache = attributed;
    const CompiledCache::Stats occupancy = cache->stats();
    report.compile_cache.entries = occupancy.entries;
    report.compile_cache.bytes = occupancy.bytes;
    report.prepare_ms = report.compile_cache.compile_ms;
    report.sim_ms =
        static_cast<double>(sim_ns.load()) / 1e6;
    return report;
}

} // namespace loas
