#include "core/loas_sim.hh"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

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
        bytes += a.footprintBytes();
    return makeCompiledLayer(layer, formatFamily(), std::move(art),
                             bytes);
}

const LoasCompiled&
LoasSim::checkedArtifact(const CompiledLayer& compiled,
                         std::size_t input) const
{
    const auto& art = artifactAs<LoasCompiled>(compiled, formatFamily());
    if (input >= art.a.size())
        fatal("layer '%s': input %zu of a %zu-input batch",
              compiled.spec.name.c_str(), input, art.a.size());
    if (compiled.timesteps > config_.timesteps) {
        fatal("LoAS configured for %d timesteps, layer '%s' needs %d",
              config_.timesteps, compiled.spec.name.c_str(),
              compiled.timesteps);
    }
    return art;
}

RunResult
LoasSim::executeInput(const CompiledLayer& compiled, std::size_t input,
                      std::size_t /*worker*/)
{
    const LoasCompiled& art = checkedArtifact(compiled, input);
    const int timesteps = compiled.timesteps;
    const std::size_t m = compiled.m;
    const std::size_t n = compiled.n;
    const SpikeFiberSet& a = art.a[input];
    SpikeTensor* const output = input == 0 ? &last_output_ : nullptr;
    if (output != nullptr)
        output->reset(m, n, timesteps);

    const InnerJoinUnit join_unit(config_.join, timesteps);
    const Plif plif(config_.lif, timesteps);
    const OutputCompressor compressor(config_.join.laggy_adders,
                                      ft_compress_);
    LoasJoinTable& table = scratch_.table;
    resetLayerTotals(m, table);
    scratch_.tile_words.resize(
        std::min(m, static_cast<std::size_t>(config_.num_pes)) * n);

    // Each wave's pairs are joined just before the replay walks it,
    // and a row tile's output rows are compressed after its last
    // wave, so only one wave's joins and one tile's output words are
    // ever held.
    return replay(
        compiled, input, table,
        [&](const std::vector<WorkItem>& items, std::size_t row_begin,
            std::size_t row_end, bool tile_done) {
            auto& wave = scratch_.wave;
            auto& offsets = scratch_.wave_offsets;
            wave.clear();
            offsets.clear();
            for (const auto& item : items) {
                const JoinResult& jr = join_unit.join(
                    a.view(item.m), art.b.view(item.n), scratch_.join);
                const PlifResult pr = plif.fire(jr.sums);
                wave.push_back(PairJoin{jr.cycles, offsets.size(),
                                        jr.matched_offsets_a.size(),
                                        nullptr});
                offsets.insert(offsets.end(), jr.matched_offsets_a.begin(),
                               jr.matched_offsets_a.end());
                scratch_.tile_words[(item.m - row_begin) * n + item.n] =
                    pr.spikes;
                if (output != nullptr)
                    output->setWord(item.m, item.n, pr.spikes);
                table.ops += jr.ops;
                table.ops += pr.ops;
            }
            for (auto& pair : wave)
                pair.offsets = offsets.data() + pair.first;
            if (tile_done)
                for (std::size_t row = row_begin; row < row_end; ++row)
                    compressRow(compressor, row,
                                &scratch_.tile_words[(row - row_begin) * n],
                                n, timesteps, table);
        });
}

void
LoasSim::checkLayer(const LayerSpec& layer) const
{
    if (layer.t > config_.timesteps)
        throw std::invalid_argument(
            "LoAS configured for " + std::to_string(config_.timesteps) +
            " timesteps, layer '" + layer.name + "' needs " +
            std::to_string(layer.t));
}

ShareKeys
LoasSim::shareKeys(const LayerSpec& /*layer*/) const
{
    const InnerJoinConfig& join = config_.join;
    const LifParams& lif = config_.lif;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "loas|ft=%d|chunk=%zu|adders=%d|fifo=%zu|setup=%llu|"
                  "drain=%llu|vth=%d|tau=%d|reset=%d",
                  ft_compress_ ? 1 : 0, join.chunk_bits,
                  join.laggy_adders, join.fifo_depth,
                  static_cast<unsigned long long>(join.setup_cycles),
                  static_cast<unsigned long long>(join.drain_cycles),
                  static_cast<int>(lif.v_th), lif.tau_shift,
                  static_cast<int>(lif.reset));
    ShareKeys keys;
    keys.join = buf;
    const CacheConfig& cache = config_.cache;
    std::snprintf(buf, sizeof(buf),
                  "|pes=%d|cache=%llu,%u,%u,%u|dram=%a|wave=%llu|pipe=%d",
                  config_.num_pes,
                  static_cast<unsigned long long>(cache.size_bytes),
                  cache.ways, cache.line_bytes, cache.banks,
                  config_.dram.bytes_per_cycle,
                  static_cast<unsigned long long>(
                      config_.wave_overhead_cycles),
                  config_.pipelined_waves ? 1 : 0);
    keys.execute = keys.join + buf;
    return keys;
}

std::shared_ptr<const JoinTable>
LoasSim::joinInput(const CompiledLayer& compiled, std::size_t input)
{
    const LoasCompiled& art = checkedArtifact(compiled, input);
    const int timesteps = compiled.timesteps;
    const std::size_t m = compiled.m;
    const std::size_t n = compiled.n;
    const SpikeFiberSet& a = art.a[input];

    const InnerJoinUnit join_unit(config_.join, timesteps);
    const Plif plif(config_.lif, timesteps);
    const OutputCompressor compressor(config_.join.laggy_adders,
                                      ft_compress_);
    auto table = std::make_shared<LoasJoinTable>();
    resetLayerTotals(m, *table);
    table->cycles.resize(m * n);
    table->begin.resize(m * n + 1);
    table->begin[0] = 0;
    scratch_.tile_words.resize(n);

    // Every TPPE's join and P-LIF firing depend only on its fiber
    // pair, so they run row by row here; each finished row goes
    // through the output compressor.
    for (std::size_t row = 0; row < m; ++row) {
        for (std::size_t col = 0; col < n; ++col) {
            const JoinResult& jr =
                join_unit.join(a.view(row), art.b.view(col), scratch_.join);
            const PlifResult pr = plif.fire(jr.sums);
            const std::size_t p = row * n + col;
            if (jr.cycles > UINT32_MAX ||
                table->matched.size() + jr.matched_offsets_a.size() >
                    UINT32_MAX)
                fatal("layer '%s' is too large for a LoAS join table",
                      compiled.spec.name.c_str());
            table->cycles[p] = static_cast<std::uint32_t>(jr.cycles);
            table->matched.insert(table->matched.end(),
                                  jr.matched_offsets_a.begin(),
                                  jr.matched_offsets_a.end());
            table->begin[p + 1] =
                static_cast<std::uint32_t>(table->matched.size());
            scratch_.tile_words[col] = pr.spikes;
            table->ops += jr.ops;
            table->ops += pr.ops;
        }
        compressRow(compressor, row, scratch_.tile_words.data(), n,
                    timesteps, *table);
    }
    return table;
}

RunResult
LoasSim::replayInput(const CompiledLayer& compiled, std::size_t input,
                     const JoinTable& table)
{
    const auto* loas_table = dynamic_cast<const LoasJoinTable*>(&table);
    if (loas_table == nullptr ||
        loas_table->cycles.size() != compiled.m * compiled.n)
        panic("%s replayed a foreign join table", name().c_str());
    const LoasJoinTable& t = *loas_table;
    const std::size_t n = compiled.n;
    return replay(compiled, input, t,
                  [&](const std::vector<WorkItem>& items, std::size_t,
                      std::size_t, bool) {
                      scratch_.wave.clear();
                      for (const auto& item : items) {
                          const std::size_t p = item.m * n + item.n;
                          scratch_.wave.push_back(PairJoin{
                              t.cycles[p], t.begin[p],
                              t.begin[p + 1] - t.begin[p],
                              t.matched.data() + t.begin[p]});
                      }
                  });
}

void
LoasSim::resetLayerTotals(std::size_t m, LoasJoinTable& table)
{
    table.row_meta_bytes.resize(m);
    table.row_value_bytes.resize(m);
    table.last_row_cycles = 0;
    table.ops = OpCounts{};
}

void
LoasSim::compressRow(const OutputCompressor& compressor, std::size_t row,
                     const TimeWord* words, std::size_t n, int timesteps,
                     LoasJoinTable& table)
{
    compressor.compressInto(words, n, scratch_.compress);
    const CompressResult& cr = scratch_.compress;
    table.ops += cr.ops;
    table.last_row_cycles = cr.cycles;
    table.row_meta_bytes[row] = cr.fiber.metadataBytes();
    table.row_value_bytes[row] = ceilDiv<std::uint64_t>(
        cr.fiber.values.size() * static_cast<std::size_t>(timesteps), 8);
}

template <typename JoinWave>
RunResult
LoasSim::replay(const CompiledLayer& compiled, std::size_t input,
                const LoasJoinTable& totals, JoinWave&& join_wave)
{
    const LoasCompiled& art = checkedArtifact(compiled, input);
    const int timesteps = compiled.timesteps;
    const std::size_t m = compiled.m;
    const std::size_t n = compiled.n;

    const SpikeFiberSet& a = art.a[input];
    const WeightFiberSet& b = art.b;

    if (!scratch_.mem)
        scratch_.mem.emplace(config_.cache, config_.dram);
    else
        scratch_.mem->reset();
    MemorySystem& mem = *scratch_.mem;
    const Plif plif(config_.lif, timesteps);
    const Scheduler scheduler(m, n, config_.num_pes);
    const auto tile_rows = static_cast<std::size_t>(config_.num_pes);

    RunResult result;
    result.accel = name();
    result.workload = compiled.spec.name;

    // With wave pipelining, the correction/drain tail of one join
    // overlaps the next wave's fill; it is re-added once at the end.
    const std::uint64_t wave_overlap =
        config_.pipelined_waves
            ? config_.join.laggyLatency() + config_.join.drain_cycles
            : 0;

    std::uint64_t dram_bytes_seen = 0;
    for (std::size_t tile = 0; tile * tile_rows < m; ++tile) {
        const std::size_t row_begin = tile * tile_rows;
        const std::size_t row_end = std::min(row_begin + tile_rows, m);
        const auto [first_wave, last_wave] = scheduler.tileWaves(tile);
        for (std::size_t w = first_wave; w < last_wave; ++w) {
            scheduler.wave(w, scratch_.items);
            const auto& items = scratch_.items;
            join_wave(items, row_begin, row_end, w + 1 == last_wave);

            // Fetch + broadcast the weight fiber of each column touched
            // by this wave (one SRAM read serves all PEs on that
            // column).
            std::uint64_t prev_col = ~0ull;
            for (const auto& item : items) {
                if (item.n == prev_col)
                    continue;
                prev_col = item.n;
                mem.read(TensorCategory::Meta,
                         kBaseBMeta + b.metaOffset(item.n),
                         b.metadataBytes());
                mem.read(TensorCategory::Weight,
                         kBaseBValues + b.val_off[item.n], b.nnz(item.n));
            }

            std::uint64_t wave_cycles = 0;
            for (std::size_t k = 0; k < items.size(); ++k) {
                const WorkItem& item = items[k];
                const PairJoin& pair = scratch_.wave[k];
                // Stream the spike bitmask of this row into the TPPE.
                mem.read(TensorCategory::Meta,
                         kBaseAMeta + a.metaOffset(item.m),
                         a.metadataBytes());

                // Matched packed spike words fetched from the global
                // cache; adjacent offsets coalesce into one access,
                // and accesses whose byte spans share a boundary cache
                // line batch into a single line walk (the offsets are
                // sorted, so runs only ever extend forward). Addresses
                // are T-bit granular within the row's value region;
                // the recorded SRAM traffic is exactly the consumed
                // span bytes, so only the duplicate boundary-line
                // lookups disappear.
                const std::uint32_t* const offs = pair.offsets;
                const std::size_t count = pair.count;
                const auto tbits = static_cast<std::uint64_t>(timesteps);
                const std::uint64_t line = config_.cache.line_bytes;
                const std::uint64_t row_base =
                    kBaseAValues + a.val_off[item.m];
                std::uint64_t run_addr = 0;    // merged walk, [addr, end)
                std::uint64_t run_end = 0;
                std::uint64_t run_payload = 0;
                for (std::size_t i = 0; i < count;) {
                    std::size_t j = i + 1;
                    while (j < count && offs[j] == offs[j - 1] + 1)
                        ++j;
                    const std::uint64_t first_bit = offs[i] * tbits;
                    const std::uint64_t span_bytes =
                        ceilDiv<std::uint64_t>((j - i) * tbits, 8);
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

                wave_cycles = std::max(wave_cycles, pair.cycles);
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
            result.total_cycles +=
                std::max(wave_cycles,
                         mem.dramCyclesFor(dram_now - dram_bytes_seen));
            dram_bytes_seen = dram_now;
        }
    }
    result.ops = totals.ops;

    // Drain the overlapped tail of the final wave, then the P-LIF
    // pipeline.
    result.compute_cycles += wave_overlap + plif.latency();
    result.total_cycles += wave_overlap + plif.latency();

    // Output write-back. Compression overlaps with compute except for
    // the final row's sweep.
    for (std::size_t row = 0; row < m; ++row) {
        // Spike words enter the compressor buffer, the compressed fiber
        // leaves for DRAM.
        mem.scratchWrite(TensorCategory::Output,
                         ceilDiv<std::uint64_t>(
                             n * static_cast<std::size_t>(timesteps), 8));
        mem.streamWrite(TensorCategory::Meta, totals.row_meta_bytes[row]);
        mem.streamWrite(TensorCategory::Output,
                        totals.row_value_bytes[row]);
    }
    result.compute_cycles += totals.last_row_cycles;

    mem.flushCache();
    const std::uint64_t tail_bytes = mem.dramBytes() - dram_bytes_seen;
    result.total_cycles +=
        std::max(totals.last_row_cycles, mem.dramCyclesFor(tail_bytes));

    result.dram_cycles = mem.dramCycles();
    result.traffic = mem.stats();
    result.cache_hits = mem.cacheHits();
    result.cache_misses = mem.cacheMisses();
    return result;
}

namespace {

/**
 * Largest accepted `cache_kb` (64 MiB): the cache model holds one tag,
 * tick, category and dirty flag per line, so an unbounded size would
 * let one spec string claim gigabytes of host memory.
 */
constexpr int kMaxCacheKb = 64 * 1024;

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
            "cache_kb", static_cast<int>(config.cache.size_bytes / 1024),
            1, kMaxCacheKb)) *
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
