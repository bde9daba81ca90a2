#include "core/loas_sim.hh"

#include <algorithm>
#include <memory>

#include "api/registry.hh"
#include "common/bitutil.hh"
#include "common/logging.hh"
#include "core/compressor.hh"
#include "core/inner_join.hh"
#include "core/plif.hh"
#include "core/scheduler.hh"
#include "mem/memory_system.hh"

namespace loas {

namespace {

// Non-overlapping address regions for the tensors of one layer.
constexpr std::uint64_t kBaseAMeta = 0x0000'0000ull;
constexpr std::uint64_t kBaseAValues = 0x4000'0000ull;
constexpr std::uint64_t kBaseBMeta = 0x8000'0000ull;
constexpr std::uint64_t kBaseBValues = 0xc000'0000ull;

} // namespace

LoasSim::LoasSim(const LoasConfig& config, bool ft_compress)
    : config_(config), ft_compress_(ft_compress)
{
}

std::string
LoasSim::name() const
{
    return ft_compress_ ? "LoAS-FT" : "LoAS";
}

std::string
LoasSim::formatFamily() const
{
    return "loas";
}

CompiledLayer
LoasSim::prepare(const LayerData& layer) const
{
    const std::size_t m = layer.spikes.rows();
    const std::size_t k = layer.spikes.cols();
    const std::size_t n = layer.weights.cols();
    if (layer.weights.rows() != k)
        fatal("layer '%s': A is %zux%zu but B is %zux%zu",
              layer.spec.name.c_str(), m, k, layer.weights.rows(), n);

    // Input operands in their compressed formats. The spike values are
    // packed T bits each (4-bit for T=4, Fig. 8); per-row regions are
    // byte-aligned but values pack within a row. Each batch input gets
    // its own compiled spike fibers; the weights compile once.
    auto art = std::make_shared<LoasCompiled>();
    art->a.reserve(layer.batchSize());
    for (std::size_t b = 0; b < layer.batchSize(); ++b)
        art->a.push_back(compileSpikeRows(layer.input(b)));
    art->b = compileWeightColumns(layer.weights);
    std::size_t bytes = art->b.footprintBytes();
    for (const auto& a : art->a)
        bytes += a.footprintBytes(layer.spec.t);
    return makeCompiledLayer(layer, formatFamily(), std::move(art),
                             bytes);
}

void
LoasSim::reserveWorkers(std::size_t workers)
{
    if (scratch_.size() < workers)
        scratch_.resize(workers);
}

RunResult
LoasSim::executeInput(const CompiledLayer& compiled, std::size_t input,
                      std::size_t worker)
{
    const auto& art = artifactAs<LoasCompiled>(compiled, formatFamily());
    if (input >= art.a.size())
        fatal("layer '%s': input %zu of a %zu-input batch",
              compiled.spec.name.c_str(), input, art.a.size());
    const int timesteps = compiled.timesteps;
    if (timesteps > config_.timesteps) {
        fatal("LoAS configured for %d timesteps, layer '%s' needs %d",
              config_.timesteps, compiled.spec.name.c_str(), timesteps);
    }
    const std::size_t m = compiled.m;
    const std::size_t n = compiled.n;

    const CompiledSpikeFibers& a = art.a[input];
    const auto& fibers_a = a.fibers;
    const auto& fibers_b = art.b.fibers;
    const auto& ranked_a = a.ranked;
    const auto& ranked_b = art.b.ranked;
    const auto& a_meta_off = a.meta_off;
    const auto& a_val_off = a.val_off;
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
    const InnerJoinUnit join_unit(config_.join, timesteps);
    const Plif plif(config_.lif, timesteps);
    const OutputCompressor compressor(config_.join.laggy_adders,
                                      ft_compress_);
    const Scheduler scheduler(m, n, config_.num_pes);

    RunResult result;
    result.accel = name();
    result.workload = compiled.spec.name;

    if (input == 0)
        last_output_.reset(m, n, timesteps);
    scratch.out_rows.assign(m * n, 0);
    TimeWord* const out_rows = scratch.out_rows.data();

    // With wave pipelining, the correction/drain tail of one join
    // overlaps the next wave's fill; it is re-added once at the end.
    const std::uint64_t wave_overlap =
        config_.pipelined_waves
            ? config_.join.laggyLatency() + config_.join.drain_cycles
            : 0;

    std::uint64_t dram_bytes_seen = 0;
    for (std::size_t w = 0; w < scheduler.waveCount(); ++w) {
        scheduler.wave(w, scratch.items);
        const auto& items = scratch.items;

        // Fetch + broadcast the weight fiber of each column touched by
        // this wave (one SRAM read serves all PEs on that column).
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
            // Stream the spike bitmask of this row into the TPPE.
            mem.read(TensorCategory::Meta, kBaseAMeta + a_meta_off[item.m],
                     fibers_a[item.m].metadataBytes());

            const JoinResult& jr =
                join_unit.join(fibers_a[item.m], ranked_a[item.m],
                               fibers_b[item.n], ranked_b[item.n],
                               scratch.join);

            // Matched packed spike words fetched from the global cache;
            // adjacent offsets coalesce into one access, and accesses
            // whose byte spans share a boundary cache line batch into a
            // single line walk (the offsets are sorted, so runs only
            // ever extend forward). Addresses are T-bit granular within
            // the row's value region; the recorded SRAM traffic is
            // exactly the consumed span bytes, so only the duplicate
            // boundary-line lookups disappear.
            const auto& offs = jr.matched_offsets_a;
            const auto tbits = static_cast<std::uint64_t>(timesteps);
            const std::uint64_t line = config_.cache.line_bytes;
            const std::uint64_t row_base =
                kBaseAValues + a_val_off[item.m];
            std::uint64_t run_addr = 0;    // merged walk, [addr, end)
            std::uint64_t run_end = 0;
            std::uint64_t run_payload = 0;
            for (std::size_t i = 0; i < offs.size();) {
                std::size_t j = i + 1;
                while (j < offs.size() && offs[j] == offs[j - 1] + 1)
                    ++j;
                const std::uint64_t first_bit = offs[i] * tbits;
                const std::uint64_t span_bytes = ceilDiv<std::uint64_t>(
                    (j - i) * tbits, 8);
                const std::uint64_t addr = row_base + first_bit / 8;
                if (run_payload != 0 &&
                    addr / line <= (run_end - 1) / line) {
                    run_end = std::max(run_end, addr + span_bytes);
                    run_payload += span_bytes;
                } else {
                    if (run_payload != 0)
                        mem.readRun(TensorCategory::Input, run_addr,
                                    run_end - run_addr, run_payload);
                    run_addr = addr;
                    run_end = addr + span_bytes;
                    run_payload = span_bytes;
                }
                i = j;
            }
            if (run_payload != 0)
                mem.readRun(TensorCategory::Input, run_addr,
                            run_end - run_addr, run_payload);

            const PlifResult pr = plif.fire(jr.sums);
            out_rows[item.m * n + item.n] = pr.spikes;
            if (input == 0)
                last_output_.setWord(item.m, item.n, pr.spikes);

            result.ops += jr.ops;
            result.ops += pr.ops;
            wave_cycles = std::max(wave_cycles, jr.cycles);
        }
        if (wave_cycles > wave_overlap + 1)
            wave_cycles -= wave_overlap;
        else
            wave_cycles = 1;
        wave_cycles += config_.wave_overhead_cycles;
        result.compute_cycles += wave_cycles;

        // Compute/memory overlap: a wave completes when both its PE
        // work and the DRAM bytes it generated are done.
        const std::uint64_t dram_now = mem.dramBytes();
        result.total_cycles += std::max(
            wave_cycles, mem.dramCyclesFor(dram_now - dram_bytes_seen));
        dram_bytes_seen = dram_now;
    }

    // Drain the overlapped tail of the final wave, then the P-LIF
    // pipeline.
    result.compute_cycles += wave_overlap + plif.latency();
    result.total_cycles += wave_overlap + plif.latency();

    // Output compression and write-back. Compression overlaps with
    // compute except for the final row's sweep.
    std::uint64_t last_row_cycles = 0;
    for (std::size_t row = 0; row < m; ++row) {
        compressor.compressInto(out_rows + row * n, n,
                                scratch.compress);
        const CompressResult& cr = scratch.compress;
        result.ops += cr.ops;
        last_row_cycles = cr.cycles;
        // Spike words enter the compressor buffer, the compressed fiber
        // leaves for DRAM.
        mem.scratchWrite(TensorCategory::Output,
                         ceilDiv<std::uint64_t>(
                             n * static_cast<std::size_t>(timesteps), 8));
        mem.streamWrite(TensorCategory::Meta, cr.fiber.metadataBytes());
        mem.streamWrite(TensorCategory::Output,
                        ceilDiv<std::uint64_t>(
                            cr.fiber.values.size() *
                                static_cast<std::size_t>(timesteps),
                            8));
    }
    result.compute_cycles += last_row_cycles;

    mem.flushCache();
    const std::uint64_t tail_bytes = mem.dramBytes() - dram_bytes_seen;
    result.total_cycles +=
        std::max(last_row_cycles, mem.dramCyclesFor(tail_bytes));

    result.dram_cycles = mem.dramCycles();
    result.traffic = mem.stats();
    result.cache_hits = mem.cacheHits();
    result.cache_misses = mem.cacheMisses();
    return result;
}


namespace {

LoasConfig
loasConfigFromSpec(OptionReader& opts)
{
    LoasConfig config;
    config.timesteps = opts.getInt("t", config.timesteps);
    config.num_pes = opts.getInt("pes", config.num_pes);
    config.join.chunk_bits = static_cast<std::size_t>(
        opts.getInt("chunk", static_cast<int>(config.join.chunk_bits)));
    config.pipelined_waves =
        opts.getBool("pipelined", config.pipelined_waves);
    config.cache.size_bytes =
        static_cast<std::uint64_t>(opts.getInt(
            "cache_kb",
            static_cast<int>(config.cache.size_bytes / 1024))) *
        1024;
    // Table III: 128 GB/s at 800 MHz is 160 bytes per cycle.
    config.dram.bytes_per_cycle =
        opts.getDouble("dram_gbps",
                       config.dram.bytes_per_cycle * 800.0e6 / 1.0e9,
                       1.0, 8192.0) *
        1.0e9 / 800.0e6;
    return config;
}

const std::vector<std::string> kLoasOptions = {
    "t", "pes", "chunk", "pipelined", "cache_kb", "dram_gbps"};

const RegisterAccelerator register_loas(
    "loas",
    {"LoAS fully temporal-parallel dataflow",
     kLoasOptions,
     /*ft_workload=*/false, [](const AccelSpec& spec) {
         OptionReader opts(spec);
         const LoasConfig config = loasConfigFromSpec(opts);
         opts.finish();
         return std::make_unique<LoasSim>(config);
     }});

const RegisterAccelerator register_loas_ft(
    "loas-ft",
    {"LoAS with fine-tuned preprocessing",
     kLoasOptions,
     /*ft_workload=*/true, [](const AccelSpec& spec) {
         OptionReader opts(spec);
         const LoasConfig config = loasConfigFromSpec(opts);
         opts.finish();
         return std::make_unique<LoasSim>(config, /*ft_compress=*/true);
     }});

} // namespace
} // namespace loas
