/** @file Tests for the set-associative LRU cache model. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "mem/cache.hh"

namespace loas {
namespace {

CacheConfig
smallCache()
{
    CacheConfig config;
    config.size_bytes = 1024; // 16 lines
    config.ways = 4;
    config.line_bytes = 64;
    return config;
}

TEST(Cache, ColdMissThenHit)
{
    Cache cache(smallCache());
    auto first = cache.accessLine(0, false, TensorCategory::Input);
    EXPECT_FALSE(first.hit);
    auto second = cache.accessLine(32, false, TensorCategory::Input);
    EXPECT_TRUE(second.hit); // same 64 B line
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, LruEviction)
{
    // 4 sets x 4 ways: addresses with the same set index collide.
    Cache cache(smallCache());
    const std::uint64_t stride = 4 * 64; // same set every time
    for (int i = 0; i < 4; ++i)
        cache.accessLine(i * stride, false, TensorCategory::Input);
    // Touch line 0 so line 1 becomes LRU.
    cache.accessLine(0, false, TensorCategory::Input);
    // A 5th line evicts line 1 (the LRU), not line 0.
    cache.accessLine(4 * stride, false, TensorCategory::Input);
    EXPECT_TRUE(cache.accessLine(0, false, TensorCategory::Input).hit);
    EXPECT_FALSE(
        cache.accessLine(1 * stride, false, TensorCategory::Input).hit);
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache cache(smallCache());
    const std::uint64_t stride = 4 * 64;
    cache.accessLine(0, true, TensorCategory::Psum); // dirty
    for (int i = 1; i <= 3; ++i)
        cache.accessLine(i * stride, false, TensorCategory::Input);
    const auto result =
        cache.accessLine(4 * stride, false, TensorCategory::Input);
    EXPECT_FALSE(result.hit);
    EXPECT_TRUE(result.writeback);
    EXPECT_EQ(result.writeback_cat, TensorCategory::Psum);
}

TEST(Cache, CleanEvictionNoWriteback)
{
    Cache cache(smallCache());
    const std::uint64_t stride = 4 * 64;
    for (int i = 0; i <= 4; ++i) {
        const auto result =
            cache.accessLine(i * stride, false, TensorCategory::Input);
        EXPECT_FALSE(result.writeback);
    }
}

TEST(Cache, FlushReturnsDirtyBytesByCategory)
{
    Cache cache(smallCache());
    cache.accessLine(0, true, TensorCategory::Psum);
    cache.accessLine(64, true, TensorCategory::Output);
    cache.accessLine(128, false, TensorCategory::Input);
    const auto dirty = cache.flush();
    EXPECT_EQ(dirty[static_cast<int>(TensorCategory::Psum)], 64u);
    EXPECT_EQ(dirty[static_cast<int>(TensorCategory::Output)], 64u);
    EXPECT_EQ(dirty[static_cast<int>(TensorCategory::Input)], 0u);
    // Everything invalid after the flush.
    EXPECT_FALSE(cache.accessLine(0, false, TensorCategory::Input).hit);
}

TEST(Cache, MissRate)
{
    Cache cache(smallCache());
    cache.accessLine(0, false, TensorCategory::Input);
    cache.accessLine(0, false, TensorCategory::Input);
    cache.accessLine(0, false, TensorCategory::Input);
    cache.accessLine(0, false, TensorCategory::Input);
    EXPECT_DOUBLE_EQ(cache.missRate(), 0.25);
}

TEST(Cache, Table3GeometryAccepted)
{
    CacheConfig config; // defaults: 256 KB, 16-way, 64 B lines
    Cache cache(config);
    EXPECT_EQ(cache.config().size_bytes, 256u * 1024);
    // 256 KB working set fits: second sweep all hits.
    for (std::uint64_t addr = 0; addr < 256 * 1024; addr += 64)
        cache.accessLine(addr, false, TensorCategory::Weight);
    const std::uint64_t misses_after_fill = cache.misses();
    for (std::uint64_t addr = 0; addr < 256 * 1024; addr += 64)
        cache.accessLine(addr, false, TensorCategory::Weight);
    EXPECT_EQ(cache.misses(), misses_after_fill);
}

/**
 * Reference model: the array-of-lines LRU cache the SoA layout
 * replaced, with a valid flag per line, a divide for the line address
 * and a modulo for the set.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig& config)
        : config_(config),
          num_sets_(config.size_bytes / config.line_bytes / config.ways),
          lines_(config.size_bytes / config.line_bytes)
    {
    }

    Cache::LineResult
    accessLine(std::uint64_t addr, bool write, TensorCategory cat)
    {
        const std::uint64_t line_addr = addr / config_.line_bytes;
        Line* const set_base =
            &lines_[(line_addr % num_sets_) * config_.ways];
        ++tick_;
        Cache::LineResult result{false, false, TensorCategory::Input};
        Line* victim = nullptr;
        for (std::uint32_t w = 0; w < config_.ways; ++w) {
            Line& line = set_base[w];
            if (line.valid && line.tag == line_addr) {
                line.last_use = tick_;
                line.dirty = line.dirty || write;
                ++hits_;
                result.hit = true;
                return result;
            }
            if (!victim || !line.valid ||
                (victim->valid && line.last_use < victim->last_use)) {
                if (!victim || victim->valid)
                    victim = &line;
            }
        }
        ++misses_;
        if (victim->valid && victim->dirty) {
            result.writeback = true;
            result.writeback_cat = victim->cat;
        }
        *victim = Line{line_addr, tick_, cat, true, write};
        return result;
    }

    std::array<std::uint64_t, kNumCategories>
    flush()
    {
        std::array<std::uint64_t, kNumCategories> dirty_bytes{};
        for (auto& line : lines_) {
            if (line.valid && line.dirty)
                dirty_bytes[static_cast<int>(line.cat)] +=
                    config_.line_bytes;
            line.valid = false;
            line.dirty = false;
        }
        return dirty_bytes;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t last_use = 0;
        TensorCategory cat = TensorCategory::Input;
        bool valid = false;
        bool dirty = false;
    };

    CacheConfig config_;
    std::uint64_t num_sets_;
    std::vector<Line> lines_;
    std::uint64_t tick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/** One access of a replayed stream. */
struct Access
{
    std::uint64_t addr;
    bool write;
    TensorCategory cat;
};

/**
 * Seeded read/write stream over a footprint of about three cache
 * sizes: a mix of sequential runs and random jumps, so sets see hits,
 * clean and dirty evictions, and ties on nothing.
 */
std::vector<Access>
randomStream(const CacheConfig& config, std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    const std::uint64_t footprint = 3 * config.size_bytes;
    std::vector<Access> out;
    std::uint64_t addr = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (rng.bernoulli(0.3))
            addr = rng.uniformInt(footprint);
        else
            addr = (addr + rng.uniformInt(3 * config.line_bytes)) %
                   footprint;
        out.push_back({addr, rng.bernoulli(0.3),
                       static_cast<TensorCategory>(
                           rng.uniformInt(kNumCategories))});
    }
    return out;
}

void
expectSameReplay(Cache& cache, ReferenceCache& ref,
                 const std::vector<Access>& stream)
{
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const Access& a = stream[i];
        const auto got = cache.accessLine(a.addr, a.write, a.cat);
        const auto want = ref.accessLine(a.addr, a.write, a.cat);
        ASSERT_EQ(got.hit, want.hit) << "access " << i;
        ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
        if (want.writeback) {
            ASSERT_EQ(got.writeback_cat, want.writeback_cat)
                << "access " << i;
        }
    }
    EXPECT_EQ(cache.hits(), ref.hits());
    EXPECT_EQ(cache.misses(), ref.misses());
}

TEST(CacheDifferential, SoaCacheMatchesReferenceLru)
{
    // (size_bytes, ways, line_bytes): power-of-two set counts (4, 256,
    // 1) and non-power-of-two ones (48 sets at cache_kb=48, 3, 12).
    const std::vector<CacheConfig> geometries = {
        {1024, 4, 64, 16},
        {256 * 1024, 16, 64, 16},
        {2048, 16, 128, 16},
        {48 * 1024, 16, 64, 16},
        {3 * 1024, 16, 64, 16},
        {3 * 1024, 2, 128, 16},
    };
    std::uint64_t seed = 11;
    for (const CacheConfig& config : geometries) {
        SCOPED_TRACE("size=" + std::to_string(config.size_bytes) +
                     " ways=" + std::to_string(config.ways) +
                     " line=" + std::to_string(config.line_bytes));
        Cache cache(config);
        ReferenceCache ref(config);
        const auto stream = randomStream(config, 20000, seed++);
        expectSameReplay(cache, ref, stream);

        // flush() writes back the same dirty bytes per category and
        // leaves every line empty: the same stream replays as cold.
        EXPECT_EQ(cache.flush(), ref.flush());
        expectSameReplay(cache, ref, stream);

        // reset() is the just-constructed state: zero counters, and a
        // fresh stream behaves exactly as on a new cache.
        cache.reset();
        EXPECT_EQ(cache.hits(), 0u);
        EXPECT_EQ(cache.misses(), 0u);
        ReferenceCache fresh(config);
        expectSameReplay(cache, fresh,
                         randomStream(config, 20000, seed++));
        EXPECT_EQ(cache.flush(), fresh.flush());
    }
}

TEST(CacheDeath, RejectsBadGeometry)
{
    CacheConfig config;
    config.line_bytes = 48; // not a power of two
    EXPECT_DEATH({ Cache cache(config); }, "power of two");
}

} // namespace
} // namespace loas
