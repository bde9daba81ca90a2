/** @file RankedBitmask: O(1) rank/popcountRange and word-AND matching. */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "tensor/ranked_bitmask.hh"

namespace loas {
namespace {

Bitmask
randomMask(std::size_t size, double density, std::uint64_t seed)
{
    Rng rng(seed);
    Bitmask mask(size);
    for (std::size_t i = 0; i < size; ++i)
        if (rng.bernoulli(density))
            mask.set(i);
    return mask;
}

/** Word counts from empty and one word through odd lengths around 4
 *  and 8 words to a long fiber. */
constexpr std::size_t kScanWordCounts[] = {0, 1, 3, 4, 5, 8, 9, 17, 130};

/**
 * A mask pair built word by word: `a` holds random words, and each
 * word of `b` overlaps it at random with probability `overlap`, else
 * is a's complement (a zero AND word the scan must skip).
 */
std::pair<Bitmask, Bitmask>
wordOverlapMasks(std::size_t words, double overlap, Rng& rng)
{
    std::vector<std::uint64_t> a(words), b(words);
    for (std::size_t i = 0; i < words; ++i) {
        a[i] = rng.uniformInt(~0ull);
        b[i] = rng.bernoulli(overlap) ? rng.uniformInt(~0ull) : ~a[i];
    }
    const std::size_t bits = words * Bitmask::kWordBits;
    return {Bitmask(bits, std::move(a)), Bitmask(bits, std::move(b))};
}

TEST(RankedBitmask, EmptyMask)
{
    const Bitmask mask(0);
    const RankedBitmask ranked(mask);
    EXPECT_EQ(ranked.rank(0), 0u);
    EXPECT_EQ(ranked.popcountRange(0, 0), 0u);
    EXPECT_EQ(ranked.popcount(), 0u);
}

TEST(RankedBitmask, AllZeros)
{
    const Bitmask mask(200);
    const RankedBitmask ranked(mask);
    for (std::size_t i = 0; i <= 200; i += 7)
        EXPECT_EQ(ranked.rank(i), 0u);
    EXPECT_EQ(ranked.popcountRange(0, 200), 0u);
}

TEST(RankedBitmask, AllOnesOddLength)
{
    // k deliberately not a multiple of 64: the trailing partial word
    // must not contribute phantom bits.
    const std::size_t k = 130;
    Bitmask mask(k);
    for (std::size_t i = 0; i < k; ++i)
        mask.set(i);
    const RankedBitmask ranked(mask);
    for (std::size_t i = 0; i <= k; ++i)
        EXPECT_EQ(ranked.rank(i), i);
    for (std::size_t lo = 0; lo <= k; lo += 13)
        for (std::size_t hi = lo; hi <= k; hi += 17)
            EXPECT_EQ(ranked.popcountRange(lo, hi), hi - lo);
    EXPECT_EQ(ranked.popcount(), k);
}

TEST(RankedBitmask, MatchesScalarRankEverywhere)
{
    for (const std::size_t k : {1ul, 63ul, 64ul, 65ul, 67ul, 512ul}) {
        const Bitmask mask = randomMask(k, 0.3, k);
        const RankedBitmask ranked(mask);
        for (std::size_t i = 0; i <= k; ++i)
            EXPECT_EQ(ranked.rank(i), mask.rank(i)) << "k=" << k
                                                    << " i=" << i;
    }
}

TEST(RankedBitmask, MatchesScalarPopcountRange)
{
    const std::size_t k = 300;
    const Bitmask mask = randomMask(k, 0.4, 5);
    const RankedBitmask ranked(mask);
    for (std::size_t lo = 0; lo <= k; lo += 11)
        for (std::size_t hi = 0; hi <= k + 8; hi += 13)
            EXPECT_EQ(ranked.popcountRange(lo, hi),
                      mask.popcountRange(lo, hi));
}

TEST(RankedBitmask, RankOutOfRangeDies)
{
    const Bitmask mask(64);
    const RankedBitmask ranked(mask);
    EXPECT_DEATH(ranked.rank(65), "out of range");
}

/** Reference: matches of a & b over [lo, hi) via the scalar path. */
std::vector<std::size_t>
referenceMatches(const Bitmask& a, const Bitmask& b, std::size_t lo,
                 std::size_t hi)
{
    std::vector<std::size_t> out;
    for (const auto pos : a.setBitsInRange(lo, hi))
        if (b.test(pos))
            out.push_back(pos);
    return out;
}

TEST(ForEachMatch, FullRangeOverloadTracksWeightRank)
{
    const auto check = [](const Bitmask& a, const Bitmask& b,
                          const std::string& what) {
        const RankedBitmask rb(b);
        const auto want = referenceMatches(a, b, 0, a.size());
        std::vector<std::size_t> got;
        forEachMatch(a, rb, [&](std::size_t pos, std::size_t rank_b) {
            EXPECT_EQ(rank_b, b.rank(pos)) << what;
            got.push_back(pos);
        });
        EXPECT_EQ(got, want) << what;
    };
    check(randomMask(200, 0.6, 17), randomMask(200, 0.2, 23), "k=200");
    Rng rng(7);
    for (const std::size_t words : kScanWordCounts)
        for (const double overlap : {0.9, 0.05, 0.0}) {
            const auto [a, b] = wordOverlapMasks(words, overlap, rng);
            check(a, b,
                  "words=" + std::to_string(words) +
                      " overlap=" + std::to_string(overlap));
        }
}

TEST(ForEachMatch, AllOnesBothSides)
{
    const std::size_t k = 130;
    Bitmask a(k), b(k);
    for (std::size_t i = 0; i < k; ++i) {
        a.set(i);
        b.set(i);
    }
    const RankedBitmask ra(a), rb(b);
    std::size_t n = 0;
    forEachMatch(ra, rb,
                 [&](std::size_t pos, std::size_t rank_a,
                     std::size_t rank_b) {
                     EXPECT_EQ(pos, n);
                     EXPECT_EQ(rank_a, n);
                     EXPECT_EQ(rank_b, n);
                     ++n;
                 });
    EXPECT_EQ(n, k);
}

TEST(Bitmask, AndPopcountMatchesMaterializedAnd)
{
    for (const std::size_t k : {1ul, 64ul, 67ul, 300ul}) {
        const Bitmask a = randomMask(k, 0.5, k + 11);
        const Bitmask b = randomMask(k, 0.5, k + 13);
        EXPECT_EQ(a.andPopcount(b), (a & b).popcount());
    }
    Rng rng(7);
    for (const std::size_t words : kScanWordCounts)
        for (const double overlap : {0.9, 0.05, 0.0}) {
            const auto [a, b] = wordOverlapMasks(words, overlap, rng);
            EXPECT_EQ(a.andPopcount(b), (a & b).popcount())
                << "words=" << words << " overlap=" << overlap;
        }
}

} // namespace
} // namespace loas
