/**
 * @file
 * Compressed fibers: the paper's FTP-friendly compression format
 * (Section IV-A, Fig. 8). A fiber is one row of A (or one column of B)
 * stored as a bitmask of non-zero positions followed by the packed
 * non-zero values.
 *
 * For spike fibers the stored values are packed temporal words (T bits
 * per non-silent neuron); silent neurons (zero at every timestep) are not
 * stored at all. For weight fibers the values are int8 weights.
 *
 * The owning SpikeFiber / WeightFiber hold one fiber each (tests, the
 * output compressor). Compiled operands store whole fiber sets as a
 * few contiguous arrays (accel/compiled_layer.hh) and hand out
 * FiberViews: plain pointers into those arrays, copyable at will.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/bitmask.hh"
#include "tensor/spike_tensor.hh"

namespace loas {

/** Compressed row of the spike tensor A, packed across timesteps. */
struct SpikeFiber
{
    /** One bit per pre-synaptic neuron: 1 = non-silent (value stored). */
    Bitmask mask;
    /** Packed temporal words of the non-silent neurons, in order. */
    std::vector<TimeWord> values;

    /** Number of stored (non-silent) neurons. */
    std::size_t nnz() const { return values.size(); }

    /**
     * Memory footprint in bytes: bitmask + pointer + T bits per stored
     * value, rounded up per fiber. `timesteps` selects the value width.
     */
    std::size_t
    storageBytes(int timesteps) const
    {
        const std::size_t value_bits =
            values.size() * static_cast<std::size_t>(timesteps);
        return mask.storageBytes() + kPointerBytes + (value_bits + 7) / 8;
    }

    /** Bytes of metadata (bitmask + pointer) only. */
    std::size_t
    metadataBytes() const
    {
        return mask.storageBytes() + kPointerBytes;
    }

    /** Row pointer stored alongside the bitmask (Fig. 8). */
    static constexpr std::size_t kPointerBytes = 4;
};

/** Compressed column (or row) of the weight matrix B. */
struct WeightFiber
{
    /** One bit per position: 1 = non-zero weight stored. */
    Bitmask mask;
    /** Non-zero weights, int8 widened for arithmetic convenience. */
    std::vector<std::int32_t> values;

    std::size_t nnz() const { return values.size(); }

    /** Memory footprint in bytes (bitmask + pointer + 1 B per weight). */
    std::size_t
    storageBytes() const
    {
        return mask.storageBytes() + SpikeFiber::kPointerBytes +
               values.size();
    }

    std::size_t
    metadataBytes() const
    {
        return mask.storageBytes() + SpikeFiber::kPointerBytes;
    }
};

/**
 * Non-owning rank view of one mask: its words and the per-word prefix
 * popcounts (numWords() + 1 entries, the last one the mask's
 * popcount), the O(1) offset tables of the paper's prefix-sum circuits
 * (Fig. 8). Everything a word-parallel join reads of a mask.
 */
struct RankedWords
{
    const std::uint64_t* words = nullptr;
    const std::uint32_t* prefix = nullptr;
    std::size_t bits = 0;  // mask length in positions

    std::size_t
    numWords() const
    {
        return (bits + Bitmask::kWordBits - 1) / Bitmask::kWordBits;
    }

    /** Set bits strictly before the start of word w. */
    std::uint32_t wordRank(std::size_t w) const { return prefix[w]; }

    /** Total set bits of the mask. */
    std::size_t popcount() const { return prefix[numWords()]; }
};

/**
 * Non-owning view of one compressed fiber: a ranked mask plus the
 * fiber's stored values, in mask order (value of the i-th set position
 * at values[i]). What every join kernel and simulator reads.
 */
template <typename V>
struct FiberView : RankedWords
{
    const V* values = nullptr;

    /** Number of stored values (the mask's popcount). */
    std::size_t nnz() const { return popcount(); }
};

using SpikeFiberView = FiberView<TimeWord>;
using WeightFiberView = FiberView<std::int32_t>;

} // namespace loas
