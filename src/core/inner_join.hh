/**
 * @file
 * The FTP-friendly inner-join unit (Section IV-C, Figs. 9-10),
 * simulated cycle-by-cycle.
 *
 * Pipeline per 128-bit bitmask chunk:
 *  1. AND the spike and weight bitmask chunks, priority-encode the
 *     matched positions (one chunk per cycle).
 *  2. The fast prefix-sum circuit emits one matched weight offset per
 *     cycle; the weight is speculatively added to the pseudo-
 *     accumulator (assuming the spike word is all ones) and the pair
 *     (position, weight) is pushed into depth-8 FIFOs.
 *  3. The laggy prefix-sum circuit - a pipelined serial prefix chain
 *     with chunk_bits / adders cycles of latency but one chunk per
 *     cycle of throughput - produces the spike-side offsets; the check
 *     stage then drains one FIFO entry per cycle, fetching the matched
 *     packed spike word and, if it is not all ones, adding the weight
 *     into the correction accumulator of every timestep whose spike
 *     bit is zero.
 *  4. The fast path stalls when the FIFOs are full.
 *
 * The final per-timestep full sums are pseudo - correction[t], exactly
 * Eq. (1) of the paper.
 *
 * Live-chunk timing: only chunks with at least one match do timing
 * work. An empty chunk costs its one AND cycle on the fast-path
 * frontier and nothing else, so the model walks the matches alone and
 * advances the frontier by g cycles for each run of g empty chunks.
 * The cost of a join is O(matched words + matches), not O(chunks).
 * Each match's chunk is `pos / chunk_bits`, computed once per live
 * chunk.
 *
 * The host-side kernel is allocation-free and word-parallel: the
 * inline firstMatchWord scan (common/bitutil.hh) hops over zero AND
 * words of the whole fiber, matches come out one ctz at a time, both
 * fiber offsets come from the O(1) prefix tables the fiber views
 * carry (compiled in prepare()), and the per-match arithmetic is
 * collapseMatch (core/fused_join.hh), the same Eq. 1 step as the
 * fused collapse kernel. All working state lives in a
 * caller-owned JoinScratch reused across calls.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "accel/op_counts.hh"
#include "core/loas_config.hh"
#include "tensor/fiber.hh"

namespace loas {

/** Outcome of joining one spike fiber with one weight fiber. */
struct JoinResult
{
    /** Cycles from setup to drain for this fiber pair. */
    std::uint64_t cycles = 0;

    /** Full sums per timestep for this output neuron (Eq. 1). */
    std::vector<std::int32_t> sums;

    /** Matched (non-silent, non-zero-weight) positions. */
    std::uint64_t matches = 0;

    /** Matches whose spike word needed correction (not all ones). */
    std::uint64_t corrections = 0;

    /** Packed spike-value bytes fetched from the global cache. */
    std::uint64_t spike_value_bytes = 0;

    /** Matched positions, for the memory model's address streams. */
    std::vector<std::uint32_t> matched_offsets_a;

    OpCounts ops;
};

/**
 * Reusable working state of the join kernel. One instance per thread
 * (or per accelerator instance — the SimEngine gives every job its
 * own); after the first call its buffers are warm and steady-state
 * joins perform no heap allocations. The JoinResult returned by
 * join() aliases `result` and is overwritten by the next call.
 */
struct JoinScratch
{
    JoinResult result;
    std::vector<std::int64_t> correction;   // one slot per timestep
    std::vector<std::uint64_t> fifo;        // last fifo_depth checks
};

/** Cycle-level model of one TPPE's inner-join datapath. */
class InnerJoinUnit
{
  public:
    InnerJoinUnit(const InnerJoinConfig& config, int timesteps);

    /**
     * Join one fiber pair and produce the output neuron's full sums.
     * The returned reference points into `scratch` and is valid until
     * the next join() on that scratch.
     */
    const JoinResult& join(const SpikeFiberView& fiber_a,
                           const WeightFiberView& fiber_b,
                           JoinScratch& scratch) const;

    /**
     * One-shot convenience for tests and harnesses: builds the rank
     * tables and a private scratch, then returns the result by value.
     */
    JoinResult join(const SpikeFiber& fiber_a,
                    const WeightFiber& fiber_b) const;

    const InnerJoinConfig& config() const { return config_; }
    int timesteps() const { return timesteps_; }

  private:
    InnerJoinConfig config_;
    int timesteps_;
};

} // namespace loas
