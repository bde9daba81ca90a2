/**
 * @file
 * Fused temporally-parallel inner join: the paper's core temporal-
 * parallelism claim applied to the host-side join kernel. One 64-bit
 * AND per weight word serves every timestep at once — each matched
 * position fans its weight out to all T accumulators through the
 * packed temporal word, turning the sequential baseline's O(T x words)
 * mask streaming into O(words + T x matches).
 *
 * Two datapaths over the same compiled operands:
 *
 *  - Fan-out: per match, iterate the set bits of the packed TimeWord
 *    and add the weight into each firing timestep's accumulator. Cost
 *    is one add per (match, firing timestep) — cheapest when trains
 *    are sparse in time.
 *  - Collapse: when a row's spike train is dense in time ("Collapse or
 *    Preserve", PAPERS.md), aggregate instead: speculatively add every
 *    matched weight into one pseudo-accumulator as if the train were
 *    all ones, and correct only the *zero* bits per timestep — the
 *    final sums are pseudo - correction[t], exactly Eq. (1) of the
 *    paper. Cost is one add per match plus one per (match, silent
 *    timestep), cheapest when trains are dense in time.
 *
 * Both paths produce bit-identical integer sums (exact arithmetic, no
 * reassociation hazards), so the data-dependent choice between them is
 * purely a performance decision. The kernel is allocation-free: all
 * output lands in caller-owned buffers.
 *
 * Both loops skip-scan the AND words inline. With T <= 8 on an AVX2
 * host (core/kernel_dispatch.hh picks the ISA) the T accumulators
 * live in vector lanes and each match is one masked lane-add. The
 * sums and stats are the same at any ISA.
 */

#pragma once

#include <cstdint>

#include "tensor/fiber.hh"

namespace loas {

/** Datapath event counts of one fused join. */
struct FusedJoinStats
{
    /** Matched (non-silent, non-zero-weight) positions. */
    std::uint64_t matches = 0;

    /** Accumulator additions (fan-out adds, or pseudo-adds when
     *  collapsed). */
    std::uint64_t acc_ops = 0;

    /** Correction-accumulator additions (collapse path only). */
    std::uint64_t correction_ops = 0;

    /** True when the collapse datapath was taken. */
    bool collapsed = false;

    /** Total accumulator-port updates — the fused cycle model charges
     *  one cycle per update, whichever datapath ran. */
    std::uint64_t updates() const { return acc_ops + correction_ops; }
};

/**
 * Join one spike fiber with one weight fiber across all `timesteps` in
 * a single word-parallel pass, writing the per-timestep full sums into
 * caller-owned `sums` (at least `timesteps` slots, overwritten).
 *
 * When `collapse` is set the pseudo-accumulator datapath runs and
 * `correction` must point at `timesteps` scratch slots (its contents
 * are clobbered); otherwise `correction` may be null.
 */
FusedJoinStats fusedTemporalJoin(const SpikeFiberView& fiber_a,
                                 const WeightFiberView& fiber_b,
                                 int timesteps, bool collapse,
                                 std::int32_t* sums,
                                 std::int64_t* correction = nullptr);

/**
 * One match of Eq. 1's speculate-and-correct step, shared by the
 * scalar collapse kernel and the LoAS inner join: add `weight` to the
 * pseudo-accumulator (speculating an all-ones spike word) and into
 * correction[t] for every zero bit t of the temporal word `tw` within
 * `all_ones`. Returns the number of corrected timesteps.
 */
inline int
collapseMatch(std::int32_t weight, std::uint32_t tw,
              std::uint32_t all_ones, std::int64_t& pseudo,
              std::int64_t* correction)
{
    pseudo += weight;
    std::uint32_t zeros = ~tw & all_ones;
    const int corrected = __builtin_popcount(zeros);
    while (zeros) {
        correction[__builtin_ctz(zeros)] += weight;
        zeros &= zeros - 1;
    }
    return corrected;
}

/**
 * The data-dependent collapse policy: collapse when at least
 * `threshold` of a row's stored temporal words are all ones
 * (`dense_nnz` of `nnz`). Empty rows never collapse (nothing to
 * aggregate); threshold 0 collapses every non-empty row, threshold 1
 * only fully dense ones.
 */
inline bool
shouldCollapse(std::uint32_t dense_nnz, std::size_t nnz,
               double threshold)
{
    return nnz > 0 && static_cast<double>(dense_nnz) >=
                          threshold * static_cast<double>(nnz);
}

} // namespace loas
