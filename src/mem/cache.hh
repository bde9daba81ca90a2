/**
 * @file
 * Set-associative write-back cache model for the shared global buffer
 * (Table III: 256 KB, 16 banks, 16-way). Used to derive hit/miss rates
 * and the resulting off-chip traffic; latency is folded into the
 * bandwidth overlap model by the simulators.
 *
 * Layout is structure-of-arrays: the tags of a set sit contiguously
 * (set * ways + way), so a lookup scans adjacent words, with last-use
 * ticks, categories and dirty flags in parallel arrays that are only
 * touched on a hit's update or a miss's fill. An empty way
 * holds the kInvalidTag sentinel instead of a valid flag. The line
 * address is `addr >> log2(line_bytes)`; the set index masks it when
 * the set count is a power of two and takes `%` otherwise (48 KB
 * gives 48 sets).
 *
 * Victim rule on a miss: the first empty way of the set, else the way
 * with the lowest last-use tick (the least recently used).
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "mem/traffic.hh"

namespace loas {

/** Geometry of the shared on-chip cache. */
struct CacheConfig
{
    std::uint64_t size_bytes = 256 * 1024;
    std::uint32_t ways = 16;
    std::uint32_t line_bytes = 64;
    std::uint32_t banks = 16;
};

/** LRU set-associative cache with per-line dirty/category state. */
class Cache
{
  public:
    explicit Cache(const CacheConfig& config);

    /** Result of looking up one cache line. */
    struct LineResult
    {
        bool hit;
        /** Dirty line evicted: its size and category must be written. */
        bool writeback;
        TensorCategory writeback_cat;
    };

    /**
     * Access the line containing `addr`; allocate on miss (evicting
     * LRU). `write` marks the line dirty.
     */
    LineResult accessLine(std::uint64_t addr, bool write,
                          TensorCategory cat);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    double
    missRate() const
    {
        const std::uint64_t total = hits_ + misses_;
        return total == 0 ? 0.0
                          : static_cast<double>(misses_) /
                                static_cast<double>(total);
    }

    const CacheConfig& config() const { return config_; }

    /**
     * Drop all contents, returning dirty bytes per category that must
     * be written back (end-of-layer flush).
     */
    std::array<std::uint64_t, kNumCategories> flush();

    /**
     * Return to the just-constructed state (cold lines, zero counters)
     * without touching the line storage — the reuse path that lets an
     * accelerator's execute() scratch keep one Cache across layers.
     */
    void reset();

    /** Line address of `a` (its index in line-sized units). */
    std::uint64_t lineOf(std::uint64_t a) const { return a >> line_shift_; }

  private:
    /**
     * Tag of an empty way. Only line address 2^64 - 1 collides with
     * it, which needs 1-byte lines and the last byte of the address
     * space.
     */
    static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

    CacheConfig config_;
    int line_shift_;
    std::uint64_t num_sets_;
    /** Set index by mask (power-of-two set count) instead of %. */
    bool pow2_sets_;
    // num_sets * ways entries each, indexed set * ways + way.
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> last_use_;
    std::vector<TensorCategory> cats_;
    std::vector<std::uint8_t> dirty_;
    std::uint64_t tick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace loas
