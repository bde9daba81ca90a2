#include "baselines/sparten.hh"

#include <algorithm>
#include <memory>

#include "api/registry.hh"
#include "common/bitutil.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "core/fused_join.hh"
#include "core/scheduler.hh"
#include "mem/memory_system.hh"

namespace loas {

namespace {

constexpr std::uint64_t kBaseA = 0x0000'0000ull;
constexpr std::uint64_t kBaseAMeta = 0x4000'0000ull;
constexpr std::uint64_t kBaseBMeta = 0x8000'0000ull;
constexpr std::uint64_t kBaseBValues = 0xc000'0000ull;

} // namespace

SpartenSim::SpartenSim(const SpartenConfig& config) : config_(config) {}

std::string
SpartenSim::name() const
{
    // Both names stay within std::string's small-string capacity:
    // RunResult carries the accel name by value on the steady-state
    // (zero-allocation) execute path.
    return config_.fused ? "SparTen-SNN(f)" : "SparTen-SNN";
}

std::string
SpartenSim::formatFamily() const
{
    return "sparten-snn";
}

CompiledLayer
SpartenSim::prepare(const LayerData& layer) const
{
    const int timesteps = layer.spec.t;
    const std::size_t m = layer.spikes.rows();
    const std::size_t k = layer.spikes.cols();

    auto art = std::make_shared<SpartenCompiled>();
    art->b = compileWeightColumns(layer.weights);

    // Per-timestep bitmask views of the spike rows, one set per batch
    // input. Rows are independent (row r touches only the T slots
    // t*m + r), so the construction parallelizes per row; each packed
    // word scatters via one ctz per set spike bit.
    art->row_masks.resize(layer.batchSize());
    for (std::size_t b = 0; b < layer.batchSize(); ++b) {
        const SpikeTensor& spikes = layer.input(b);
        auto& masks = art->row_masks[b];
        masks.assign(static_cast<std::size_t>(timesteps) * m,
                     Bitmask());
        parallelFor(m, prepareParallelism(m), [&](std::size_t r) {
            for (int t = 0; t < timesteps; ++t)
                masks[static_cast<std::size_t>(t) * m + r] = Bitmask(k);
            for (std::size_t c = 0; c < k; ++c) {
                TimeWord w = spikes.word(r, c);
                while (w) {
                    const int t = lowestSetBit(w);
                    w &= w - 1;
                    masks[static_cast<std::size_t>(t) * m + r].set(c);
                }
            }
        });
    }

    // Temporally-packed view of the same rows for the fused datapath,
    // plus the per-row density signal its collapse policy keys on. The
    // artifact carries both views so the fused=0/1 design variants
    // share one compilation (artifacts never depend on hardware
    // options).
    art->packed.reserve(layer.batchSize());
    art->dense_nnz.reserve(layer.batchSize());
    for (std::size_t b = 0; b < layer.batchSize(); ++b) {
        art->packed.push_back(compileSpikeRows(layer.input(b)));
        art->dense_nnz.push_back(
            denseTimewordCounts(art->packed.back(), timesteps));
    }

    std::size_t bytes = art->b.footprintBytes();
    for (const auto& masks : art->row_masks)
        for (const auto& mask : masks)
            bytes += mask.storageBytes();
    for (const auto& packed : art->packed)
        bytes += packed.footprintBytes(timesteps);
    for (const auto& counts : art->dense_nnz)
        bytes += counts.size() * sizeof(std::uint32_t);
    return makeCompiledLayer(layer, formatFamily(), std::move(art),
                             bytes);
}

void
SpartenSim::reserveWorkers(std::size_t workers)
{
    if (scratch_.size() < workers)
        scratch_.resize(workers);
}

RunResult
SpartenSim::executeInput(const CompiledLayer& compiled,
                         std::size_t input, std::size_t worker)
{
    if (compiled.family == kAnnFamily) {
        if (input != 0)
            fatal("layer '%s': ANN compiled layers carry one input, "
                  "got %zu",
                  compiled.spec.name.c_str(), input);
        return executeAnn(compiled, worker);
    }
    const auto& art =
        artifactAs<SpartenCompiled>(compiled, formatFamily());
    if (input >= art.row_masks.size())
        fatal("layer '%s': input %zu of a %zu-input batch",
              compiled.spec.name.c_str(), input, art.row_masks.size());
    const std::vector<Bitmask>& row_masks = art.row_masks[input];
    const int timesteps = compiled.timesteps;
    const std::size_t m = compiled.m;
    const std::size_t k = compiled.k;
    const std::size_t n = compiled.n;
    const std::size_t chunks = ceilDiv(k, config_.chunk_bits);
    const std::size_t row_bytes = ceilDiv<std::size_t>(k, 8);

    const auto& fibers_b = art.b.fibers;
    const auto& ranked_b = art.b.ranked;
    const auto& b_meta_off = art.b.meta_off;
    const auto& b_val_off = art.b.val_off;

    // Serial-context growth only; batch-parallel callers pre-size the
    // pool through reserveWorkers() before fanning out.
    if (worker >= scratch_.size())
        scratch_.resize(worker + 1);
    ExecuteScratch& scratch = scratch_[worker];

    if (!scratch.mem)
        scratch.mem.emplace(config_.cache, config_.dram);
    else
        scratch.mem->reset();
    MemorySystem& mem = *scratch.mem;
    const Scheduler scheduler(m, n, config_.num_pes);

    RunResult result;
    result.accel = name();
    result.workload = compiled.spec.name;
    if (input == 0)
        last_output_.reset(m, n, timesteps);

    scratch.sums.assign(static_cast<std::size_t>(timesteps), 0);
    scratch.correction.assign(static_cast<std::size_t>(timesteps), 0);
    std::vector<std::int32_t>& sums = scratch.sums;
    const CompiledSpikeFibers& packed = art.packed[input];
    const std::vector<std::uint32_t>& dense_nnz = art.dense_nnz[input];
    std::uint64_t dram_bytes_seen = 0;
    for (std::size_t w = 0; w < scheduler.waveCount(); ++w) {
        scheduler.wave(w, scratch.items);
        const auto& items = scratch.items;

        // Weight fiber of each column in the wave, broadcast once.
        std::uint64_t prev_col = ~0ull;
        for (const auto& item : items) {
            if (item.n == prev_col)
                continue;
            prev_col = item.n;
            mem.read(TensorCategory::Meta, kBaseBMeta + b_meta_off[item.n],
                     fibers_b[item.n].metadataBytes());
            mem.read(TensorCategory::Weight,
                     kBaseBValues + b_val_off[item.n],
                     fibers_b[item.n].values.size());
        }

        std::uint64_t wave_cycles = 0;
        for (const auto& item : items) {
            const WeightFiber& fb = fibers_b[item.n];
            std::uint64_t pe_cycles = 0;
            if (config_.fused) {
                // Fused temporally-parallel join: the compressed row
                // (mask metadata + packed temporal words) is fetched
                // once, the masks are ANDed once, and every match fans
                // its weight out to all T accumulators — or collapses
                // through the pseudo-accumulator when the row's train
                // is dense in time.
                const SpikeFiber& fa = packed.fibers[item.m];
                mem.read(TensorCategory::Meta,
                         kBaseAMeta + packed.meta_off[item.m],
                         fa.metadataBytes());
                const std::uint64_t value_bytes =
                    packed.val_off[item.m + 1] - packed.val_off[item.m];
                if (value_bytes)
                    mem.read(TensorCategory::Input,
                             kBaseA + packed.val_off[item.m],
                             value_bytes);

                const bool collapse =
                    shouldCollapse(dense_nnz[item.m], fa.nnz(),
                                   config_.collapse_threshold);
                const FusedJoinStats stats = fusedTemporalJoin(
                    fa, packed.ranked[item.m], fb, ranked_b[item.n],
                    timesteps, collapse, sums.data(),
                    scratch.correction.data());

                result.ops.mask_and_ops += chunks;
                // Both operands are compressed here, so both prefix
                // circuits fire per match (like the ANN datapath).
                result.ops.fast_prefix_ops += 2 * stats.matches;
                result.ops.acc_ops += stats.acc_ops;
                result.ops.correction_ops += stats.correction_ops;
                result.ops.lif_ops +=
                    static_cast<std::uint64_t>(timesteps);
                pe_cycles =
                    config_.fusedJoinCycles(chunks, stats.updates());
            } else {
                for (int t = 0; t < timesteps; ++t) {
                    const auto ts = static_cast<std::size_t>(t);
                    // The raw spike train is bitmask and data at once;
                    // every bit of the row is fetched, every timestep
                    // again.
                    mem.read(TensorCategory::Input,
                             kBaseA + (ts * m + item.m) * row_bytes,
                             row_bytes);

                    // Accumulate matched weights, one per cycle; a
                    // single fast prefix-sum serves the weight side
                    // (the spike is its own data). Word-parallel: AND
                    // the mask words directly, with the weight offset
                    // from the compiled rank table — no materialized
                    // AND mask.
                    const Bitmask& ma = row_masks[ts * m + item.m];
                    std::uint64_t matches = 0;
                    std::int32_t acc = 0;
                    forEachMatch(ma, ranked_b[item.n],
                                 [&](std::size_t, std::size_t b_off) {
                                     acc += fb.values[b_off];
                                     ++matches;
                                 });
                    sums[ts] = acc;

                    result.ops.mask_and_ops += chunks;
                    result.ops.fast_prefix_ops += matches;
                    result.ops.acc_ops += matches;
                    result.ops.lif_ops += 1;
                    pe_cycles +=
                        config_.timestepJoinCycles(chunks, matches);
                }
            }
            const TimeWord spikes =
                lifAcrossTimesteps(sums, config_.lif);
            if (input == 0)
                last_output_.setWord(item.m, item.n, spikes);
            wave_cycles = std::max(wave_cycles, pe_cycles);
        }
        wave_cycles += config_.wave_overhead_cycles;
        result.compute_cycles += wave_cycles;

        const std::uint64_t dram_now = mem.dramBytes();
        result.total_cycles += std::max(
            wave_cycles, mem.dramCyclesFor(dram_now - dram_bytes_seen));
        dram_bytes_seen = dram_now;
    }

    // Outputs leave as raw spike trains, timestep-major like the input.
    mem.streamWrite(TensorCategory::Output,
                    ceilDiv<std::uint64_t>(
                        m * n * static_cast<std::size_t>(timesteps), 8));
    mem.flushCache();
    result.total_cycles +=
        mem.dramCyclesFor(mem.dramBytes() - dram_bytes_seen);

    result.dram_cycles = mem.dramCycles();
    result.traffic = mem.stats();
    result.cache_hits = mem.cacheHits();
    result.cache_misses = mem.cacheMisses();
    return result;
}

CompiledLayer
SpartenSim::prepareAnn(const AnnLayerData& layer) const
{
    const std::size_t m = layer.acts.rows();
    const std::size_t k = layer.acts.cols();
    const std::size_t n = layer.weights.cols();
    if (layer.weights.rows() != k)
        fatal("layer '%s': A is %zux%zu but B is %zux%zu",
              layer.spec.name.c_str(), m, k, layer.weights.rows(), n);

    // Both operands compressed as bitmask + int8 values, through the
    // same compiled-operand helpers the SNN prepare phase uses.
    std::vector<WeightFiber> act_fibers;
    act_fibers.reserve(m);
    for (std::size_t r = 0; r < m; ++r) {
        WeightFiber f;
        f.mask = Bitmask(k);
        for (std::size_t c = 0; c < k; ++c)
            if (layer.acts(r, c) != 0) {
                f.mask.set(c);
                f.values.push_back(layer.acts(r, c));
            }
        act_fibers.push_back(std::move(f));
    }
    auto art = std::make_shared<SpartenAnnCompiled>();
    art->a = compileWeightFibers(std::move(act_fibers));
    art->b = compileWeightColumns(layer.weights);

    CompiledLayer out;
    out.spec = layer.spec;
    out.family = kAnnFamily;
    out.m = m;
    out.k = k;
    out.n = n;
    out.timesteps = 1;
    out.batch = 1;
    out.bytes = art->a.footprintBytes() + art->b.footprintBytes();
    out.artifact = std::move(art);
    return out;
}

RunResult
SpartenSim::executeAnn(const CompiledLayer& compiled, std::size_t worker)
{
    const auto& art = artifactAs<SpartenAnnCompiled>(compiled, kAnnFamily);
    const std::size_t m = compiled.m;
    const std::size_t k = compiled.k;
    const std::size_t n = compiled.n;
    const std::size_t chunks = ceilDiv(k, config_.chunk_bits);

    const auto& fibers_a = art.a.fibers;
    const auto& fibers_b = art.b.fibers;
    const auto& a_meta_off = art.a.meta_off;
    const auto& a_val_off = art.a.val_off;
    const auto& b_meta_off = art.b.meta_off;
    const auto& b_val_off = art.b.val_off;

    // Serial-context growth only; batch-parallel callers pre-size the
    // pool through reserveWorkers() before fanning out.
    if (worker >= scratch_.size())
        scratch_.resize(worker + 1);
    ExecuteScratch& scratch = scratch_[worker];
    if (!scratch.mem)
        scratch.mem.emplace(config_.cache, config_.dram);
    else
        scratch.mem->reset();
    MemorySystem& mem = *scratch.mem;
    const Scheduler scheduler(m, n, config_.num_pes);

    RunResult result;
    result.accel = "SparTen-ANN";
    result.workload = compiled.spec.name;

    std::uint64_t dram_bytes_seen = 0;
    for (std::size_t w = 0; w < scheduler.waveCount(); ++w) {
        scheduler.wave(w, scratch.items);
        const auto& items = scratch.items;
        std::uint64_t prev_col = ~0ull;
        for (const auto& item : items) {
            if (item.n == prev_col)
                continue;
            prev_col = item.n;
            mem.read(TensorCategory::Meta, kBaseBMeta + b_meta_off[item.n],
                     fibers_b[item.n].metadataBytes());
            mem.read(TensorCategory::Weight,
                     kBaseBValues + b_val_off[item.n],
                     fibers_b[item.n].values.size());
        }

        std::uint64_t wave_cycles = 0;
        for (const auto& item : items) {
            const WeightFiber& fa = fibers_a[item.m];
            const WeightFiber& fb = fibers_b[item.n];
            mem.read(TensorCategory::Meta, kBaseAMeta + a_meta_off[item.m],
                     fa.metadataBytes());
            const std::uint64_t matches = fa.mask.andPopcount(fb.mask);
            // Matched activations fetched from the cache.
            mem.read(TensorCategory::Input, kBaseA + a_val_off[item.m],
                     matches);
            result.ops.mask_and_ops += chunks;
            result.ops.fast_prefix_ops += 2 * matches; // both operands
            result.ops.mac_ops += matches;
            const std::uint64_t pe_cycles =
                config_.mask_stream_passes * chunks + matches +
                config_.t_restart_cycles;
            wave_cycles = std::max(wave_cycles, pe_cycles);
        }
        wave_cycles += config_.wave_overhead_cycles;
        result.compute_cycles += wave_cycles;
        const std::uint64_t dram_now = mem.dramBytes();
        result.total_cycles += std::max(
            wave_cycles, mem.dramCyclesFor(dram_now - dram_bytes_seen));
        dram_bytes_seen = dram_now;
    }

    // int8 outputs, compressed on the way out (bitmask + values).
    mem.streamWrite(TensorCategory::Output, m * n);
    mem.streamWrite(TensorCategory::Meta, ceilDiv<std::uint64_t>(m * n, 8));
    mem.flushCache();
    result.total_cycles +=
        mem.dramCyclesFor(mem.dramBytes() - dram_bytes_seen);

    result.dram_cycles = mem.dramCycles();
    result.traffic = mem.stats();
    result.cache_hits = mem.cacheHits();
    result.cache_misses = mem.cacheMisses();
    return result;
}


namespace {

const RegisterAccelerator register_sparten(
    "sparten",
    {"SparTen-SNN inner-join baseline (sequential timesteps; "
     "fused=1 joins all T in one pass, collapse sets its "
     "dense-train threshold)",
     {"pes", "chunk", "fused", "collapse"},
     /*ft_workload=*/false, [](const AccelSpec& spec) {
         OptionReader opts(spec);
         SpartenConfig config;
         config.num_pes = opts.getInt("pes", config.num_pes);
         config.chunk_bits = static_cast<std::size_t>(opts.getInt(
             "chunk", static_cast<int>(config.chunk_bits)));
         config.fused = opts.getBool("fused", config.fused);
         config.collapse_threshold = opts.getDouble(
             "collapse", config.collapse_threshold, 0.0, 1.0);
         opts.finish();
         return std::make_unique<SpartenSim>(config);
     }});

} // namespace

} // namespace loas
