/**
 * @file
 * O(1) rank acceleration for Bitmask: a per-word prefix-popcount table,
 * the software analogue of the precomputed offset tables the paper's
 * prefix-sum circuits (Fig. 8) stream from memory.
 *
 * Compiled operands keep these tables inside their flat fiber sets
 * (accel/compiled_layer.hh), built once in prepare() or on a disk
 * load. RankedBitmask is the single-mask form for tests and harnesses
 * that hold an owning Bitmask: it owns its table and points at the
 * Bitmask it indexes, which must outlive it and stay unmodified.
 *
 * The word-parallel match loops (forEachMatch) read only RankedWords,
 * the non-owning (words, prefix, bits) view both forms hand out.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "tensor/bitmask.hh"
#include "tensor/fiber.hh"

namespace loas {

/**
 * Write the n + 1 prefix popcounts of `words` into `prefix` (entry w
 * counts the set bits before word w); returns the total.
 */
inline std::uint32_t
rankWords(const std::uint64_t* words, std::size_t n, std::uint32_t* prefix)
{
    std::uint32_t running = 0;
    for (std::size_t w = 0; w < n; ++w) {
        prefix[w] = running;
        running += static_cast<std::uint32_t>(popcount64(words[w]));
    }
    prefix[n] = running;
    return running;
}

/** Prefix-popcount view over a Bitmask giving O(1) rank queries. */
class RankedBitmask
{
  public:
    RankedBitmask() = default;

    /** Build the per-word rank table for `mask` (O(words) once). */
    explicit RankedBitmask(const Bitmask& mask) : mask_(&mask)
    {
        prefix_.resize(mask.words().size() + 1);
        rankWords(mask.words().data(), mask.words().size(), prefix_.data());
    }

    /** The viewed mask (must still be alive). */
    const Bitmask&
    mask() const
    {
        return *mask_;
    }

    /** Set bits strictly before the start of word w. */
    std::uint32_t wordRank(std::size_t w) const { return prefix_[w]; }

    /** Total set bits of the viewed mask. */
    std::size_t popcount() const { return prefix_.back(); }

    /** Set bits strictly before position i, in O(1). */
    std::size_t
    rank(std::size_t i) const
    {
        if (i > mask_->size())
            panic("RankedBitmask::rank out of range: %zu > %zu", i,
                  mask_->size());
        const std::size_t w = i / Bitmask::kWordBits;
        if (w >= mask_->words().size())
            return prefix_.back();
        const int rem = static_cast<int>(i % Bitmask::kWordBits);
        return prefix_[w] +
               static_cast<std::size_t>(
                   popcount64(mask_->words()[w] & lowMask64(rem)));
    }

    /** The (words, prefix, bits) view the match loops read. */
    operator RankedWords() const
    {
        return {mask_->words().data(), prefix_.data(), mask_->size()};
    }

    /** Popcount of the sub-range [lo, hi), in O(1). */
    std::size_t
    popcountRange(std::size_t lo, std::size_t hi) const
    {
        if (hi > mask_->size())
            hi = mask_->size();
        if (lo >= hi)
            return 0;
        return rank(hi) - rank(lo);
    }

  private:
    const Bitmask* mask_ = nullptr;
    std::vector<std::uint32_t> prefix_; // words() + 1 entries
};

/**
 * Invoke fn(pos, rank_a, rank_b) for every position set in both masks
 * over the full length — the fused temporally-parallel join: one
 * 64-bit AND per weight word serves every timestep at once, with both
 * value offsets coming from the prefix tables in O(1).
 */
template <typename Fn>
void
forEachMatch(const RankedWords& a, const RankedWords& b, Fn&& fn)
{
    if (a.bits != b.bits)
        panic("forEachMatch over mismatched mask sizes %zu vs %zu",
              a.bits, b.bits);
    const std::uint64_t* const wa = a.words;
    const std::uint64_t* const wb = b.words;
    const std::size_t n = a.numWords();
    // The scan hops straight to the next non-zero AND word (the common
    // case at realistic sparsities is long zero runs). Word-local
    // state is hoisted out of the per-match loop: both word ranks load
    // once, and positions/ranks derive from the cached words.
    for (std::size_t w = firstMatchWord(wa, wb, 0, n); w < n;
         w = firstMatchWord(wa, wb, w + 1, n)) {
        const std::uint64_t aw = wa[w];
        const std::uint64_t bw = wb[w];
        const std::size_t base = w * Bitmask::kWordBits;
        const std::size_t ra = a.wordRank(w);
        const std::size_t rb = b.wordRank(w);
        for (std::uint64_t x = aw & bw; x != 0; x &= x - 1) {
            const int bit = lowestSetBit(x);
            fn(base + static_cast<std::size_t>(bit),
               ra + static_cast<std::size_t>(
                        popcount64(aw & lowMask64(bit))),
               rb + static_cast<std::size_t>(
                        popcount64(bw & lowMask64(bit))));
        }
    }
}

/**
 * Invoke fn(pos, rank_b) for every position set in both `a_words` (an
 * unranked mask of b.bits positions) and b, with only b's rank
 * materialized (the SparTen join: the spike row is its own data, only
 * the weight offset is needed).
 */
template <typename Fn>
void
forEachMatch(const std::uint64_t* a_words, const RankedWords& b, Fn&& fn)
{
    const std::uint64_t* const wb = b.words;
    const std::size_t n = b.numWords();
    for (std::size_t w = firstMatchWord(a_words, wb, 0, n); w < n;
         w = firstMatchWord(a_words, wb, w + 1, n)) {
        const std::uint64_t bw = wb[w];
        const std::size_t base = w * Bitmask::kWordBits;
        const std::size_t rb = b.wordRank(w);
        for (std::uint64_t x = a_words[w] & bw; x != 0; x &= x - 1) {
            const int bit = lowestSetBit(x);
            fn(base + static_cast<std::size_t>(bit),
               rb + static_cast<std::size_t>(
                        popcount64(bw & lowMask64(bit))));
        }
    }
}

/** forEachMatch over an owning Bitmask (checks the lengths agree). */
template <typename Fn>
void
forEachMatch(const Bitmask& a, const RankedWords& b, Fn&& fn)
{
    if (a.size() != b.bits)
        panic("forEachMatch over mismatched mask sizes %zu vs %zu",
              a.size(), b.bits);
    forEachMatch(a.words().data(), b, std::forward<Fn>(fn));
}

/** View an owning fiber through the RankedBitmask built over its mask. */
template <typename Fiber>
auto
fiberView(const Fiber& fiber, const RankedBitmask& ranked)
{
    FiberView<typename decltype(fiber.values)::value_type> view;
    static_cast<RankedWords&>(view) = ranked;
    view.values = fiber.values.data();
    return view;
}

} // namespace loas
