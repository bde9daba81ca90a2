#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace loas {

Cache::Cache(const CacheConfig& config)
    : config_(config), line_shift_(std::countr_zero(config.line_bytes))
{
    if (!isPow2(config.line_bytes))
        fatal("cache line size %u is not a power of two",
              config.line_bytes);
    const std::uint64_t lines = config.size_bytes / config.line_bytes;
    if (lines == 0 || lines % config.ways != 0)
        fatal("cache geometry invalid: %llu lines, %u ways",
              static_cast<unsigned long long>(lines), config.ways);
    num_sets_ = lines / config.ways;
    pow2_sets_ = isPow2(num_sets_);
    tags_.resize(lines);
    last_use_.resize(lines);
    cats_.resize(lines);
    dirty_.resize(lines);
    reset();
}

Cache::LineResult
Cache::accessLine(std::uint64_t addr, bool write, TensorCategory cat)
{
    const std::uint64_t line = lineOf(addr);
    const std::uint64_t set =
        pow2_sets_ ? line & (num_sets_ - 1) : line % num_sets_;
    const std::uint32_t ways = config_.ways;
    const std::size_t base = static_cast<std::size_t>(set) * ways;
    const std::uint64_t* const tags = &tags_[base];
    ++tick_;

    LineResult result{false, false, TensorCategory::Input};

    std::uint32_t victim = ways; // first empty way, if any
    for (std::uint32_t w = 0; w < ways; ++w) {
        if (tags[w] == line) {
            last_use_[base + w] = tick_;
            dirty_[base + w] |= static_cast<std::uint8_t>(write);
            ++hits_;
            result.hit = true;
            return result;
        }
        if (tags[w] == kInvalidTag && victim == ways)
            victim = w;
    }

    ++misses_;
    if (victim == ways) {
        // Full set: evict the least recently used way (first on ties).
        const std::uint64_t* const uses = &last_use_[base];
        victim = static_cast<std::uint32_t>(
            std::min_element(uses, uses + ways) - uses);
        if (dirty_[base + victim]) {
            result.writeback = true;
            result.writeback_cat = cats_[base + victim];
        }
    }
    const std::size_t slot = base + victim;
    tags_[slot] = line;
    last_use_[slot] = tick_;
    cats_[slot] = cat;
    dirty_[slot] = static_cast<std::uint8_t>(write);
    return result;
}

std::array<std::uint64_t, kNumCategories>
Cache::flush()
{
    std::array<std::uint64_t, kNumCategories> dirty_bytes{};
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        if (tags_[i] != kInvalidTag && dirty_[i])
            dirty_bytes[static_cast<int>(cats_[i])] += config_.line_bytes;
        tags_[i] = kInvalidTag;
        dirty_[i] = 0;
    }
    return dirty_bytes;
}

void
Cache::reset()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(last_use_.begin(), last_use_.end(), 0);
    std::fill(cats_.begin(), cats_.end(), TensorCategory::Input);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    tick_ = 0;
    hits_ = 0;
    misses_ = 0;
}

} // namespace loas
