#include "api/sim_engine.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <utility>

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
        std::string name;    // Accelerator::name(), labels cell totals
        std::string family;  // Accelerator::formatFamily()
        bool releases = false;  // first design of its family + variant
    };
    std::vector<AccelJob> accels;
    accels.reserve(request.accels.size());
    for (const auto& spec_string : request.accels) {
        AccelJob job;
        job.spec_string = spec_string;
        job.spec = parseAccelSpec(spec_string);
        job.ft_workload = registry.entry(job.spec.key).ft_workload;
        const auto probe = registry.make(job.spec);
        job.name = probe->name();
        job.family = probe->formatFamily();
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

    // Cancellation is cooperative: the token is polled before each
    // task and before each lazy layer synthesis, so a cancelled run
    // stops within one synthesis or one layer of one input.
    const auto check_cancelled = [&] {
        if (request.cancel &&
            request.cancel->load(std::memory_order_relaxed))
            throw SimCancelled();
    };
    check_cancelled();

    // Compiled artifacts depend only on the synthesized layers, so a
    // layer is synthesized only when some format family misses it in
    // every cache level — inside the compile callback, once per
    // (network, ft-variant, layer) however many families miss it. A
    // run whose every key hits synthesizes nothing. A layer's tensors
    // are needed only until every format family of its variant has
    // the compiled artifact: the first design of each (family,
    // variant) releases them, and the family's later designs hit.
    const std::size_t n_nets = request.networks.size();
    std::array<std::size_t, 2> users = {0, 0};
    std::set<std::pair<std::string, bool>> families;
    for (auto& accel : accels) {
        accel.releases =
            families.emplace(accel.family, accel.ft_workload).second;
        if (accel.releases)
            ++users[accel.ft_workload ? 1 : 0];
    }
    LazyWorkload workload(request.networks, request.seed, request.batch,
                          users);

    // Lower each layer through the shared compiled-workload cache and
    // execute the (accelerator x network) job matrix as one flat list
    // of independent tasks, one per (cell, layer, input) in index
    // order. Every task writes its fixed result slot, and each cell's
    // slots are reduced in layer and input order afterwards, so a run
    // with N worker threads is bit-identical to the serial run.
    // Compiled artifacts are shared read-only across all design
    // variants of a format family (one compilation per key, whatever
    // the thread count).
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

    // Cell c owns layer slots [first_layer[c], first_layer[c + 1]);
    // layer slot s owns tasks [s * batch, (s + 1) * batch), one per
    // input.
    const std::size_t batch = request.batch;
    const std::size_t cells = report.runs.size();
    std::vector<std::size_t> first_layer(cells + 1, 0);
    for (std::size_t c = 0; c < cells; ++c)
        first_layer[c + 1] =
            first_layer[c] + request.networks[c % n_nets].layers.size();

    // One (cell, layer)'s compiled artifact: the first of its input
    // tasks fetches it, and the last one to finish drops it, so the
    // run pins no artifact longer than its tasks need it and each cell
    // looks every key up once.
    struct LayerSlot
    {
        std::mutex mutex;
        std::shared_ptr<const CompiledLayer> compiled;
        std::size_t pending = 0;
    };
    std::vector<LayerSlot> layer_slots(first_layer.back());
    for (auto& slot : layer_slots)
        slot.pending = batch;
    std::vector<RunResult> results(layer_slots.size() * batch);

    // Each worker thread drives one accelerator instance at a time and
    // keeps it while its tasks stay on the same design; in index order
    // a design's tasks are contiguous, so the serial run builds one
    // instance per design.
    struct WorkerInstance
    {
        std::size_t accel = 0;
        std::unique_ptr<Accelerator> instance;
    };
    std::vector<WorkerInstance> workers(std::max<std::size_t>(
        1, std::min<std::size_t>(static_cast<std::size_t>(threads),
                                 results.size())));

    parallelForWorkers(results.size(), threads, [&](std::size_t worker,
                                                    std::size_t task) {
        check_cancelled();
        LayerSlot& slot = layer_slots[task / batch];
        const std::size_t input = task % batch;
        const std::size_t c = static_cast<std::size_t>(
            std::upper_bound(first_layer.begin(), first_layer.end(),
                             task / batch) -
            first_layer.begin() - 1);
        const std::size_t l = task / batch - first_layer[c];
        const std::size_t a = c / n_nets;
        const std::size_t n = c % n_nets;
        const AccelJob& accel = accels[a];
        const NetworkSpec& net = request.networks[n];

        WorkerInstance& mine = workers[worker];
        if (!mine.instance || mine.accel != a) {
            mine.instance = registry.make(accel.spec);
            mine.accel = a;
        }
        Accelerator& instance = *mine.instance;

        std::shared_ptr<const CompiledLayer> compiled;
        {
            const std::lock_guard<std::mutex> lock(slot.mutex);
            if (!slot.compiled) {
                slot.compiled = cache->getOrCompile(
                    compiledLayerKey(net.name, l, accel.ft_workload,
                                     accel.family, net.layers[l].t,
                                     request.seed, batch),
                    [&] {
                        return instance.prepare(workload.layer(
                            n, accel.ft_workload, l, check_cancelled));
                    },
                    &attributed);
                if (accel.releases)
                    workload.release(n, accel.ft_workload, l);
            }
            compiled = slot.compiled;
        }

        const auto t_exec = Clock::now();
        results[task] = instance.executeInput(*compiled, input, 0);
        sim_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t_exec)
                .count());

        const std::lock_guard<std::mutex> lock(slot.mutex);
        if (--slot.pending == 0)
            slot.compiled.reset();
    });

    // Reduce each cell in layer and input order. RunResult sums are
    // integer and static_scale follows the first work-bearing summand,
    // so this equals summing per layer, then per network.
    for (std::size_t c = 0; c < cells; ++c) {
        const AccelJob& accel = accels[c / n_nets];
        const NetworkSpec& net = request.networks[c % n_nets];
        SimRun& run = report.runs[c];
        run.accel_spec = accel.spec_string;
        run.network = net.name;
        run.result.accel = accel.name;
        run.result.workload = net.name;
        if (batch > 1 && !net.layers.empty())
            run.per_input.assign(batch, run.result);
        for (std::size_t t = first_layer[c] * batch;
             t < first_layer[c + 1] * batch; ++t) {
            run.result += results[t];
            if (batch > 1)
                run.per_input[t % batch] += results[t];
        }
    }

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
    report.synthesized_layers = workload.synthesized();
    report.sim_ms =
        static_cast<double>(sim_ns.load()) / 1e6;
    return report;
}

} // namespace loas
