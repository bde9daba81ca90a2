#include "api/sim_engine.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <map>
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
    // every registry key, and build one probe instance per design so
    // bad options, and layers a design cannot run, surface before any
    // simulation time is spent.
    struct AccelJob
    {
        std::string spec_string;
        AccelSpec spec;
        bool ft_workload = false;
        std::string name;    // Accelerator::name(), labels cell totals
        std::string family;  // Accelerator::formatFamily()
        bool releases = false;  // first design of its family + variant
        std::unique_ptr<Accelerator> probe;  // checkLayer(), shareKeys()
    };
    std::vector<AccelJob> accels;
    accels.reserve(request.accels.size());
    for (const auto& spec_string : request.accels) {
        AccelJob job;
        job.spec_string = spec_string;
        job.spec = parseAccelSpec(spec_string);
        job.ft_workload = registry.entry(job.spec.key).ft_workload;
        job.probe = registry.make(job.spec);
        job.name = job.probe->name();
        job.family = job.probe->formatFamily();
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

    if (request.batch < 1 || request.batch > kMaxBatch)
        throw std::invalid_argument(
            "SimRequest batch must be in [1, " +
            std::to_string(kMaxBatch) + "]");
    for (const auto& accel : accels)
        for (const auto& net : request.networks)
            for (const auto& layer : net.layers)
                accel.probe->checkLayer(layer);

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
    // of independent tasks, one per (cell, layer, input) that runs.
    // Every task writes its fixed result slot, and each cell's
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
    // While the run lasts its networks' artifacts stay live; when it
    // ends, however it ends, the networks no other run still uses move
    // to the evict-first pool of a persistent cache, so the next run's
    // compilations push them out before anything still live.
    struct NetworkUse
    {
        CompiledCache& cache;
        const std::vector<NetworkSpec>& networks;
        NetworkUse(CompiledCache& c, const std::vector<NetworkSpec>& n)
            : cache(c), networks(n)
        {
            for (const auto& net : networks)
                cache.beginNetwork(net.name);
        }
        ~NetworkUse()
        {
            for (const auto& net : networks)
                cache.finishNetwork(net.name);
        }
        NetworkUse(const NetworkUse&) = delete;
        NetworkUse& operator=(const NetworkUse&) = delete;
    };
    const NetworkUse network_use(*cache, request.networks);

    // This run's own cache counters, attributed exactly under the
    // cache mutex — not a before/after snapshot subtraction, so the
    // tally stays correct when concurrent runs share the cache.
    CompiledCache::Stats attributed;
    std::atomic<std::uint64_t> sim_ns{0};
    using Clock = std::chrono::steady_clock;

    // Cell c owns layer slots [first_layer[c], first_layer[c + 1]);
    // layer slot s owns results [s * batch, (s + 1) * batch), one per
    // input.
    const std::size_t batch = request.batch;
    const std::size_t cells = report.runs.size();
    std::vector<std::size_t> first_layer(cells + 1, 0);
    for (std::size_t c = 0; c < cells; ++c)
        first_layer[c + 1] =
            first_layer[c] + request.networks[c % n_nets].layers.size();

    // Plan each (network, layer) from the designs' sharing keys, which
    // are compared within one format family and variant. A design
    // whose execute key an earlier design already has runs nothing:
    // its layer slot reads that design's results (source[s]). The
    // designs that run form join groups (groups[group_of[s]], slots
    // in request order).
    std::vector<std::size_t> source(first_layer.back());
    std::vector<std::size_t> group_of(first_layer.back());
    std::vector<std::vector<std::size_t>> groups;
    bool shares_joins = false;
    for (std::size_t n = 0; n < n_nets; ++n) {
        const NetworkSpec& net = request.networks[n];
        for (std::size_t l = 0; l < net.layers.size(); ++l) {
            std::map<std::string, std::size_t> executes;  // key -> slot
            std::map<std::string, std::size_t> joins;  // key -> group
            for (std::size_t a = 0; a < accels.size(); ++a) {
                const AccelJob& accel = accels[a];
                const std::size_t s = first_layer[a * n_nets + n] + l;
                const ShareKeys keys =
                    accel.probe->shareKeys(net.layers[l]);
                const std::string scope =
                    accel.family + (accel.ft_workload ? "|ft|" : "|");
                source[s] = s;
                if (!keys.execute.empty()) {
                    const auto [it, fresh] =
                        executes.emplace(scope + keys.execute, s);
                    if (!fresh) {
                        source[s] = it->second;
                        continue;
                    }
                }
                std::size_t g = groups.size();
                if (!keys.join.empty())
                    g = joins.emplace(scope + keys.join, g).first->second;
                if (g == groups.size())
                    groups.emplace_back();
                groups[g].push_back(s);
                group_of[s] = g;
                shares_joins |= groups[g].size() > 1;
            }
        }
    }

    // A unit is one input of one join group; a unit of two or more
    // designs shares one join table (a join slot). Units go in
    // (network, layer, input) order when joins are shared, so a table
    // lives only while its unit's few replays run, and families
    // compile a layer together. Otherwise they keep the (cell, layer,
    // input) order, where consecutive tasks stay on one design: with
    // nothing to share, interleaving designs measured ~4% slower.
    constexpr std::size_t kSolo = ~std::size_t{0};
    struct Task
    {
        std::size_t slot;   // layer slot of the cell that runs
        std::size_t input;
        std::size_t share;  // join slot, or kSolo
    };
    std::vector<std::vector<Task>> units;
    std::vector<std::size_t> group_members;  // per join slot
    const auto add_units = [&](std::size_t s) {
        const auto& group = groups[group_of[s]];
        if (source[s] != s || group.front() != s)
            return;
        for (std::size_t input = 0; input < batch; ++input) {
            std::size_t share = kSolo;
            if (group.size() > 1) {
                share = group_members.size();
                group_members.push_back(group.size());
            }
            auto& unit = units.emplace_back();
            for (const std::size_t member : group)
                unit.push_back(Task{member, input, share});
        }
    };
    if (shares_joins) {
        for (std::size_t n = 0; n < n_nets; ++n)
            for (std::size_t l = 0; l < request.networks[n].layers.size();
                 ++l)
                for (std::size_t a = 0; a < accels.size(); ++a)
                    add_units(first_layer[a * n_nets + n] + l);
    } else {
        for (std::size_t s = 0; s < source.size(); ++s)
            add_units(s);
    }

    // Task order: a unit's first task (the one that joins) runs
    // `lead` units ahead of its other tasks, so the other threads
    // replay finished tables instead of waiting for a join.
    const std::size_t lead = static_cast<std::size_t>(threads) - 1;
    std::vector<Task> tasks;
    for (std::size_t u = 0; u < units.size() + lead; ++u) {
        if (u < units.size())
            tasks.push_back(units[u].front());
        if (u >= lead)
            tasks.insert(tasks.end(), units[u - lead].begin() + 1,
                         units[u - lead].end());
    }
    units.clear();

    // One (cell, layer)'s compiled artifact: the first of its input
    // tasks fetches it, and the last one to finish drops it, so the
    // run pins no artifact longer than its tasks need it and each cell
    // that runs looks every key up once.
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

    // One join group's table for one input: its first task to start
    // joins, the others wait for it, and the last replay drops it.
    struct JoinSlot
    {
        std::mutex mutex;
        std::shared_ptr<const JoinTable> table;
        std::size_t pending = 0;
    };
    std::vector<JoinSlot> join_slots(group_members.size());
    for (std::size_t j = 0; j < join_slots.size(); ++j)
        join_slots[j].pending = group_members[j];

    // Each participant of the run's pool group drives one accelerator
    // instance at a time and replaces it when its next task is another
    // design (an instance per design and participant measured no
    // faster, with more memory). Instances belong to this run, never
    // to a pool thread, so concurrent runs share no scratch.
    struct WorkerInstance
    {
        std::size_t accel = 0;
        std::unique_ptr<Accelerator> instance;
    };
    std::vector<WorkerInstance> workers(std::max<std::size_t>(
        1, std::min<std::size_t>(static_cast<std::size_t>(threads),
                                 tasks.size())));
    const auto elapsed_ns = [](Clock::time_point since) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - since)
                .count());
    };

    parallelForWorkers(tasks.size(), threads, [&](std::size_t worker,
                                                  std::size_t t) {
        check_cancelled();
        const Task& task = tasks[t];
        LayerSlot& slot = layer_slots[task.slot];
        const std::size_t c = static_cast<std::size_t>(
            std::upper_bound(first_layer.begin(), first_layer.end(),
                             task.slot) -
            first_layer.begin() - 1);
        const std::size_t l = task.slot - first_layer[c];
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

        RunResult& result = results[task.slot * batch + task.input];
        if (task.share == kSolo) {
            const auto t_exec = Clock::now();
            result = instance.executeInput(*compiled, task.input, 0);
            sim_ns += elapsed_ns(t_exec);
        } else {
            JoinSlot& share = join_slots[task.share];
            std::shared_ptr<const JoinTable> table;
            {
                const std::lock_guard<std::mutex> lock(share.mutex);
                if (!share.table) {
                    const auto t_join = Clock::now();
                    share.table =
                        instance.joinInput(*compiled, task.input);
                    sim_ns += elapsed_ns(t_join);
                }
                table = share.table;
            }
            const auto t_replay = Clock::now();
            result = instance.replayInput(*compiled, task.input, *table);
            sim_ns += elapsed_ns(t_replay);
            // The last replay drops the slot's reference; the table is
            // freed with `table`, after the lock is released.
            const std::lock_guard<std::mutex> lock(share.mutex);
            if (--share.pending == 0)
                share.table.reset();
        }

        const std::lock_guard<std::mutex> lock(slot.mutex);
        if (--slot.pending == 0)
            slot.compiled.reset();
    });

    // Reduce each cell in layer and input order, reading a deduplicated
    // layer's results from the cell that ran it. RunResult sums are
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
        for (std::size_t s = first_layer[c]; s < first_layer[c + 1]; ++s)
            for (std::size_t input = 0; input < batch; ++input) {
                const RunResult& r = results[source[s] * batch + input];
                run.result += r;
                if (batch > 1)
                    run.per_input[input] += r;
            }
    }

    // Energy is a pure function of each cell's RunResult, so it is
    // derived post-hoc while assembling the report instead of inside
    // the simulation job loop — it neither occupies worker threads nor
    // pollutes the sim_ms timing split.
    if (request.energy)
        for (auto& run : report.runs)
            run.energy = energy_model.evaluate(run.result);

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
