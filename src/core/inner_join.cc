#include "core/inner_join.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "core/fused_join.hh"
#include "tensor/ranked_bitmask.hh"

namespace loas {

InnerJoinUnit::InnerJoinUnit(const InnerJoinConfig& config, int timesteps)
    : config_(config), timesteps_(timesteps)
{
    if (timesteps < 1 || timesteps > kMaxTimesteps)
        fatal("InnerJoinUnit: timesteps %d unsupported", timesteps);
    if (config.chunk_bits < 1 || config.fifo_depth < 1 ||
        config.laggy_adders < 1)
        fatal("InnerJoinUnit: chunk_bits, fifo_depth and laggy_adders "
              "must be >= 1");
}

const JoinResult&
InnerJoinUnit::join(const SpikeFiberView& fiber_a,
                    const WeightFiberView& fiber_b,
                    JoinScratch& scratch) const
{
    if (fiber_a.bits != fiber_b.bits)
        panic("inner join over mismatched fiber lengths %zu vs %zu",
              fiber_a.bits, fiber_b.bits);

    const std::size_t chunk_bits = config_.chunk_bits;
    const std::size_t num_chunks = ceilDiv(fiber_a.bits, chunk_bits);
    const std::uint64_t laggy_latency = config_.laggyLatency();
    const std::size_t fifo_depth = config_.fifo_depth;
    const TimeWord all_ones =
        timesteps_ >= kMaxTimesteps
            ? ~TimeWord{0}
            : static_cast<TimeWord>((TimeWord{1} << timesteps_) - 1);

    JoinResult& result = scratch.result;
    result.sums.assign(static_cast<std::size_t>(timesteps_), 0);
    result.matched_offsets_a.clear();
    scratch.correction.assign(static_cast<std::size_t>(timesteps_), 0);
    std::int64_t* const correction = scratch.correction.data();
    std::int64_t pseudo = 0;

    // The FIFOs hold the check-completion cycles of the last
    // fifo_depth matches; a ring of that size indexed by match number
    // always has the oldest in-flight entry at the next write slot.
    if (scratch.fifo.size() < fifo_depth)
        scratch.fifo.resize(fifo_depth);
    std::uint64_t* const fifo = scratch.fifo.data();
    std::size_t fifo_slot = 0;

    // Pipeline timestamps (cycle numbers). Only live chunks (those
    // with a match) drive the recurrence: an empty chunk costs its one
    // AND cycle on the fast-path frontier and nothing else, so a run
    // of them is folded in as one addition when the next live chunk
    // (or the end of the fiber) arrives. `now` is the fast-path
    // frontier, `prev_check` the completion of the last check,
    // `laggy_ready` when the live chunk's spike offsets are ready,
    // `next_chunk` the first chunk not yet on the timeline and
    // `chunk_end` one past the live chunk's last bit.
    std::uint64_t now = config_.setup_cycles;
    std::uint64_t prev_check = 0;
    std::uint64_t laggy_ready = 0;
    std::size_t next_chunk = 0;
    std::size_t chunk_end = 0;
    std::uint64_t live_chunks = 0;
    std::uint64_t matches = 0;
    std::uint64_t corrections = 0;
    std::uint64_t correction_ops = 0;

    const std::uint64_t* const wa = fiber_a.words;
    const std::uint64_t* const wb = fiber_b.words;
    const std::size_t num_words = fiber_a.numWords();
    for (std::size_t w = firstMatchWord(wa, wb, 0, num_words);
         w < num_words; w = firstMatchWord(wa, wb, w + 1, num_words)) {
        const std::uint64_t aw = wa[w];
        const std::uint64_t bw = wb[w];
        const std::size_t base = w * Bitmask::kWordBits;
        const std::size_t ra = fiber_a.wordRank(w);
        const std::size_t rb = fiber_b.wordRank(w);
        for (std::uint64_t x = aw & bw; x != 0; x &= x - 1) {
            const int bit = lowestSetBit(x);
            const std::size_t pos = base + static_cast<std::size_t>(bit);
            if (pos >= chunk_end) {
                // First match of a new live chunk: one AND cycle per
                // skipped empty chunk, one for this chunk's own AND.
                // The laggy circuit is a deeply pipelined serial
                // prefix chain, so this chunk's spike-side offsets
                // emerge laggyLatency() cycles after its AND.
                const std::size_t chunk = pos / chunk_bits;
                now += chunk - next_chunk + 1;
                laggy_ready = now + laggy_latency;
                next_chunk = chunk + 1;
                chunk_end = next_chunk * chunk_bits;
                ++live_chunks;
            }

            // Fast path: one offset per cycle, stalling on FIFO-full.
            std::uint64_t emit = now + 1;
            if (matches >= fifo_depth)
                emit = std::max(emit, fifo[fifo_slot] + 1);
            now = emit;

            // Check path: drains after the laggy circuit is ready.
            const std::uint64_t check =
                std::max({prev_check + 1, laggy_ready, emit + 1});
            prev_check = check;
            fifo[fifo_slot] = check;
            if (++fifo_slot == fifo_depth)
                fifo_slot = 0;

            const std::size_t a_off =
                ra + static_cast<std::size_t>(
                         popcount64(aw & lowMask64(bit)));
            const std::size_t b_off =
                rb + static_cast<std::size_t>(
                         popcount64(bw & lowMask64(bit)));
            result.matched_offsets_a.push_back(
                static_cast<std::uint32_t>(a_off));
            const TimeWord spike_word = fiber_a.values[a_off];
            if (spike_word != all_ones)
                ++corrections; // mis-speculation
            correction_ops += static_cast<std::uint64_t>(
                collapseMatch(fiber_b.values[b_off], spike_word,
                              all_ones, pseudo, correction));
            ++matches;
        }
    }
    now += num_chunks - next_chunk;

    // Final correction subtraction into each timestep's accumulator.
    for (std::size_t t = 0; t < result.sums.size(); ++t)
        result.sums[t] = static_cast<std::int32_t>(pseudo - correction[t]);

    result.cycles = std::max(now, prev_check) + config_.drain_cycles;
    result.matches = matches;
    result.corrections = corrections;
    result.spike_value_bytes =
        matches * static_cast<std::uint64_t>(ceilDiv(timesteps_, 8));
    result.ops = OpCounts{};
    result.ops.mask_and_ops = num_chunks;
    result.ops.laggy_prefix_ops = live_chunks * laggy_latency;
    result.ops.fast_prefix_ops = matches;
    result.ops.acc_ops = matches;      // speculative accumulates
    result.ops.fifo_ops = 4 * matches; // push + pop of FIFO-mp and B
    result.ops.correction_ops =
        correction_ops + static_cast<std::uint64_t>(timesteps_);
    return result;
}

JoinResult
InnerJoinUnit::join(const SpikeFiber& fiber_a,
                    const WeightFiber& fiber_b) const
{
    const RankedBitmask rank_a(fiber_a.mask);
    const RankedBitmask rank_b(fiber_b.mask);
    JoinScratch scratch;
    return join(fiberView(fiber_a, rank_a), fiberView(fiber_b, rank_b),
                scratch);
}

} // namespace loas
