/** @file Tests for the TPPE work scheduler. */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "core/scheduler.hh"

namespace loas {
namespace {

TEST(Scheduler, CoversEveryOutputExactlyOnce)
{
    const Scheduler sched(7, 5, 16);
    std::set<std::pair<std::size_t, std::size_t>> seen;
    for (std::size_t w = 0; w < sched.waveCount(); ++w)
        for (const auto& item : sched.wave(w))
            EXPECT_TRUE(seen.insert({item.m, item.n}).second);
    EXPECT_EQ(seen.size(), 35u);
}

TEST(Scheduler, WaveCount)
{
    EXPECT_EQ(Scheduler(16, 512, 16).waveCount(), 512u);
    EXPECT_EQ(Scheduler(64, 256, 16).waveCount(), 1024u);
    EXPECT_EQ(Scheduler(1, 10, 16).waveCount(), 1u);
    EXPECT_EQ(Scheduler(17, 1, 16).waveCount(), 2u);
}

TEST(Scheduler, WavesShareColumnWhenMCoversPes)
{
    // M = 16 with 16 PEs: every wave is one column (the broadcast
    // pattern of Section IV-D).
    const Scheduler sched(16, 4, 16);
    for (std::size_t w = 0; w < sched.waveCount(); ++w) {
        const auto items = sched.wave(w);
        ASSERT_EQ(items.size(), 16u);
        for (const auto& item : items)
            EXPECT_EQ(item.n, items.front().n);
    }
}

TEST(Scheduler, SmallMSpansColumns)
{
    // M = 4: a 16-PE wave covers 4 columns, keeping the array busy.
    const Scheduler sched(4, 8, 16);
    const auto items = sched.wave(0);
    ASSERT_EQ(items.size(), 16u);
    std::set<std::size_t> cols;
    for (const auto& item : items)
        cols.insert(item.n);
    EXPECT_EQ(cols.size(), 4u);
}

TEST(Scheduler, TileWavesCoverExactlyTheirRows)
{
    // Full tiles, a partial last tile, and M below the PE count.
    for (const auto& [m, n, pes] :
         {std::tuple{48, 5, 16}, std::tuple{17, 3, 16},
          std::tuple{4, 8, 16}, std::tuple{37, 7, 8}}) {
        SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(n) +
                     " on " + std::to_string(pes));
        const Scheduler sched(m, n, pes);
        const std::size_t tiles = (m + pes - 1) / pes;
        std::size_t next_wave = 0;
        for (std::size_t t = 0; t < tiles; ++t) {
            const auto [first, last] = sched.tileWaves(t);
            EXPECT_EQ(first, next_wave);
            std::size_t items = 0;
            for (std::size_t w = first; w < last; ++w)
                for (const auto& item : sched.wave(w)) {
                    EXPECT_EQ(item.m / pes, t);
                    ++items;
                }
            const std::size_t rows =
                std::min<std::size_t>(pes, m - t * pes);
            EXPECT_EQ(items, rows * n);
            next_wave = last;
        }
        EXPECT_EQ(next_wave, sched.waveCount());
    }
}

TEST(Scheduler, LastWaveMayBePartial)
{
    const Scheduler sched(3, 3, 16);
    EXPECT_EQ(sched.waveCount(), 1u);
    EXPECT_EQ(sched.wave(0).size(), 9u);
}

TEST(Scheduler, OutOfRangeWaveIsEmpty)
{
    const Scheduler sched(4, 4, 16);
    EXPECT_EQ(sched.waveCount(), 1u);
    EXPECT_TRUE(sched.wave(1).empty());
    EXPECT_TRUE(sched.wave(100).empty());
}

TEST(Scheduler, RowTileStaysResidentAcrossColumns)
{
    // With M a multiple of the PE count, consecutive waves inside a
    // tile reuse the same 16 rows of A (the input-reuse property the
    // walk is designed for).
    const Scheduler sched(32, 8, 16);
    const auto w0 = sched.wave(0);
    const auto w1 = sched.wave(1);
    for (std::size_t i = 0; i < w0.size(); ++i) {
        EXPECT_EQ(w0[i].m, w1[i].m);
        EXPECT_NE(w0[i].n, w1[i].n);
    }
}

} // namespace
} // namespace loas
