#include "core/scheduler.hh"

#include <algorithm>

#include "common/bitutil.hh"

namespace loas {

Scheduler::Scheduler(std::size_t m, std::size_t n, int num_pes)
    : m_(m), n_(n), num_pes_(num_pes)
{
}

std::size_t
Scheduler::waveCount() const
{
    return ceilDiv(m_ * n_, static_cast<std::size_t>(num_pes_));
}

std::pair<std::size_t, std::size_t>
Scheduler::tileWaves(std::size_t t) const
{
    // A full tile holds n * num_pes items, a whole number of waves, so
    // tile t starts at wave t * n; the last (possibly partial) tile
    // ends with the last wave.
    const auto ts = static_cast<std::size_t>(num_pes_);
    const std::size_t first = std::min(t * n_, waveCount());
    const std::size_t last =
        (t + 1) * ts >= m_ ? waveCount() : (t + 1) * n_;
    return {first, last};
}

std::vector<WorkItem>
Scheduler::wave(std::size_t w) const
{
    std::vector<WorkItem> items;
    wave(w, items);
    return items;
}

void
Scheduler::wave(std::size_t w, std::vector<WorkItem>& out) const
{
    // Row-tile-major walk: a tile of up to num_pes rows of A stays
    // resident while every output column streams past it (good input
    // reuse for the IP dataflow); within a tile, the PEs of a wave
    // share a column and its broadcast weight fiber.
    const auto ts = static_cast<std::size_t>(num_pes_);
    const std::size_t full_tiles = m_ / ts;
    const std::size_t items_per_full_tile = n_ * ts;
    const std::size_t full_items = full_tiles * items_per_full_tile;
    const std::size_t last_rows = m_ - full_tiles * ts;

    auto item_at = [&](std::size_t i) {
        if (i < full_items) {
            const std::size_t tile = i / items_per_full_tile;
            const std::size_t r = i % items_per_full_tile;
            return WorkItem{tile * ts + r % ts, r / ts};
        }
        const std::size_t r = i - full_items;
        return WorkItem{full_tiles * ts + r % last_rows, r / last_rows};
    };

    out.clear();
    const std::size_t begin = w * ts;
    if (begin >= m_ * n_)
        return;
    const std::size_t end = std::min(begin + ts, m_ * n_);
    out.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i)
        out.push_back(item_at(i));
}

} // namespace loas
