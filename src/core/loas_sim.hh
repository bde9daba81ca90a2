/**
 * @file
 * Top-level cycle-level simulator of the LoAS accelerator (Fig. 7):
 * 16 TPPEs fed by a scheduler, P-LIF units, an output compressor, and a
 * shared banked global cache over HBM. Implements the FTP dataflow of
 * Algorithm 1: every TPPE produces the full sums of one output neuron
 * for ALL timesteps in a single inner-join pass, then fires the P-LIF
 * once.
 */

#pragma once

#include <optional>
#include <vector>

#include "accel/accelerator.hh"
#include "core/compressor.hh"
#include "core/inner_join.hh"
#include "core/loas_config.hh"
#include "core/scheduler.hh"
#include "mem/memory_system.hh"
#include "tensor/spike_tensor.hh"

namespace loas {

/**
 * Compiled LoAS operands: both tensors in the FTP-friendly fiber
 * format (Fig. 8) with their cumulative address-offset tables. Shared
 * by every LoAS design variant — PE count, cache size and pipelining
 * change the datapath, not the compiled format. The spike side carries
 * one compiled fiber set per batch input; the weight side is compiled
 * exactly once however large the batch.
 */
struct LoasCompiled : CompiledArtifact
{
    std::vector<SpikeFiberSet> a;  // per input: rows of A
    WeightFiberSet b;              // columns of B
};

/**
 * The LoAS join phase over one input of one compiled layer: what every
 * TPPE computes for its fiber pair, and the output compressor for its
 * row, whatever the PE count, cache or HBM. Pair (m, n) is index
 * m * N + n.
 */
struct LoasJoinTable : JoinTable
{
    /** Inner-join cycles of each pair. */
    std::vector<std::uint32_t> cycles;

    /** Pair p's matched spike offsets are matched[begin[p], begin[p+1]). */
    std::vector<std::uint32_t> begin;
    std::vector<std::uint32_t> matched;

    /** Compressed output fiber of each row: metadata and value bytes. */
    std::vector<std::uint64_t> row_meta_bytes;
    std::vector<std::uint64_t> row_value_bytes;

    /** Compressor sweep cycles of the last row (not overlapped). */
    std::uint64_t last_row_cycles = 0;

    /** Join, P-LIF and output-compression ops of the whole layer. */
    OpCounts ops;
};

/** LoAS accelerator model. */
class LoasSim : public Accelerator
{
  public:
    /**
     * @param config        hardware configuration (defaults: Table III)
     * @param ft_compress   enable the fine-tuned-preprocessing output
     *                      rule (discard single-spike output neurons)
     */
    explicit LoasSim(const LoasConfig& config = {},
                     bool ft_compress = false);

    std::string name() const override;

    std::string formatFamily() const override;

    CompiledLayer prepare(const LayerData& layer) const override;

    /**
     * Join, then replay, one wave at a time: the replay of
     * replayInput() with each wave's pairs joined just before it, so
     * no whole-layer table is built.
     */
    RunResult executeInput(const CompiledLayer& compiled,
                           std::size_t input,
                           std::size_t worker) override;

    /** Rejects a layer with more timesteps than `t`. */
    void checkLayer(const LayerSpec& layer) const override;

    /**
     * The join key covers the join datapath, the LIF parameters and
     * the output rule; the execute key adds the PE count, cache, HBM
     * and wave pipelining. `t` is in neither: it only bounds the
     * layer's T, which checkLayer() enforces before anything runs.
     */
    ShareKeys shareKeys(const LayerSpec& layer) const override;

    std::shared_ptr<const JoinTable>
    joinInput(const CompiledLayer& compiled, std::size_t input) override;

    RunResult replayInput(const CompiledLayer& compiled,
                          std::size_t input,
                          const JoinTable& table) override;

    /**
     * Output spike tensor of input 0 of the last layer run through
     * executeInput(), before output compression (for verification
     * against the functional reference).
     */
    const SpikeTensor& lastOutput() const { return last_output_; }

    const LoasConfig& config() const { return config_; }

  private:
    LoasConfig config_;
    bool ft_compress_;
    SpikeTensor last_output_;

    /** The compiled operands of `input`, after the execute checks. */
    const LoasCompiled& checkedArtifact(const CompiledLayer& compiled,
                                        std::size_t input) const;

    /** One wave item's join, as the replay reads it. */
    struct PairJoin
    {
        std::uint64_t cycles;
        std::size_t first;  // index of its first offset in a wave buffer
        std::size_t count;
        const std::uint32_t* offsets;  // `count` matched spike offsets
    };

    /** Size `table`'s per-row data for M rows and zero its totals. */
    static void resetLayerTotals(std::size_t m, LoasJoinTable& table);

    /** Compress one output row into `table`'s per-row data and ops. */
    void compressRow(const OutputCompressor& compressor, std::size_t row,
                     const TimeWord* words, std::size_t n, int timesteps,
                     LoasJoinTable& table);

    /**
     * Replay phase: waves, memory system and cycle accounting. Before
     * each wave, `join_wave(items, row_begin, row_end, tile_done)`
     * fills scratch_.wave with its items' joins; the rows are those of
     * the wave's row tile and `tile_done` marks the tile's last wave.
     * The ops and per-row data of `totals` are read after the last
     * wave.
     */
    template <typename JoinWave>
    RunResult replay(const CompiledLayer& compiled, std::size_t input,
                     const LoasJoinTable& totals, JoinWave&& join_wave);

    /**
     * Reusable execute working state. An accelerator instance is
     * driven by one thread at a time (the SimEngine gives each engine
     * thread its own instances), so the buffers warm up on the first
     * layer and steady-state execution performs no heap allocations.
     */
    struct ExecuteScratch
    {
        std::optional<MemorySystem> mem;
        JoinScratch join;
        std::vector<WorkItem> items;     // current wave
        std::vector<PairJoin> wave;      // its items' joins
        std::vector<std::uint32_t> wave_offsets;
        std::vector<TimeWord> tile_words;  // output words of a row tile
        CompressResult compress;
        LoasJoinTable table;  // executeInput's layer totals (no pairs)
    };
    ExecuteScratch scratch_;
};

} // namespace loas
