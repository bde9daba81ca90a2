#include "workload/artifact_io.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <utility>

#include "baselines/gamma.hh"
#include "baselines/gospa.hh"
#include "baselines/sparten.hh"
#include "baselines/systolic.hh"
#include "core/loas_sim.hh"

namespace loas {
namespace artio {

namespace {

void
putBitmask(Writer& out, const Bitmask& mask)
{
    out.u64(mask.size());
    out.vec(mask.words());
}

bool
getBitmask(Reader& in, Bitmask& mask)
{
    std::uint64_t size = 0;
    std::vector<std::uint64_t> words;
    if (!in.u64(size) || !in.vec(words))
        return false;
    // Validate what Bitmask's reconstruction panics on: a corrupt file
    // must read as a cache miss, never abort the process.
    const std::size_t bits = static_cast<std::size_t>(size);
    if (words.size() != (bits + Bitmask::kWordBits - 1) /
                            Bitmask::kWordBits)
        return false;
    const std::size_t tail = bits % Bitmask::kWordBits;
    if (tail != 0 && (words.back() >> tail) != 0)
        return false;
    mask = Bitmask(bits, std::move(words));
    return true;
}

/** A stored rank table valid for `mask`, rejected like any corruption. */
bool
getRanked(Reader& in, const Bitmask& mask, RankedBitmask& ranked)
{
    std::vector<std::uint32_t> prefix;
    if (!in.vec(prefix))
        return false;
    if (prefix.size() != mask.words().size() + 1 ||
        prefix.empty() || prefix.back() != mask.popcount())
        return false;
    ranked = RankedBitmask(mask, std::move(prefix));
    return true;
}

void
putWeightFibers(Writer& out, const CompiledWeightFibers& fibers)
{
    out.u64(fibers.fibers.size());
    for (std::size_t i = 0; i < fibers.fibers.size(); ++i) {
        putBitmask(out, fibers.fibers[i].mask);
        out.vec(fibers.fibers[i].values);
        out.vec(fibers.ranked[i].prefixTable());
    }
    out.vec(fibers.meta_off);
    out.vec(fibers.val_off);
}

bool
getWeightFibers(Reader& in, CompiledWeightFibers& fibers)
{
    std::uint64_t count = 0;
    if (!in.u64(count))
        return false;
    fibers.fibers.resize(static_cast<std::size_t>(count));
    fibers.ranked.resize(fibers.fibers.size());
    for (std::size_t i = 0; i < fibers.fibers.size(); ++i) {
        if (!getBitmask(in, fibers.fibers[i].mask) ||
            !in.vec(fibers.fibers[i].values) ||
            !getRanked(in, fibers.fibers[i].mask, fibers.ranked[i]))
            return false;
    }
    if (!in.vec(fibers.meta_off) || !in.vec(fibers.val_off))
        return false;
    return fibers.meta_off.size() == fibers.fibers.size() + 1 &&
           fibers.val_off.size() == fibers.fibers.size() + 1;
}

void
putSpikeFibers(Writer& out, const CompiledSpikeFibers& fibers)
{
    out.u64(fibers.fibers.size());
    for (std::size_t i = 0; i < fibers.fibers.size(); ++i) {
        putBitmask(out, fibers.fibers[i].mask);
        out.vec(fibers.fibers[i].values);
        out.vec(fibers.ranked[i].prefixTable());
    }
    out.vec(fibers.meta_off);
    out.vec(fibers.val_off);
}

bool
getSpikeFibers(Reader& in, CompiledSpikeFibers& fibers)
{
    std::uint64_t count = 0;
    if (!in.u64(count))
        return false;
    fibers.fibers.resize(static_cast<std::size_t>(count));
    fibers.ranked.resize(fibers.fibers.size());
    for (std::size_t i = 0; i < fibers.fibers.size(); ++i) {
        if (!getBitmask(in, fibers.fibers[i].mask) ||
            !in.vec(fibers.fibers[i].values) ||
            !getRanked(in, fibers.fibers[i].mask, fibers.ranked[i]))
            return false;
    }
    if (!in.vec(fibers.meta_off) || !in.vec(fibers.val_off))
        return false;
    return fibers.meta_off.size() == fibers.fibers.size() + 1 &&
           fibers.val_off.size() == fibers.fibers.size() + 1;
}

// --- Per-family artifact payloads -----------------------------------

// Every spike-side member is stored per batch input (count-prefixed);
// the weight-side operand is stored exactly once per layer.

void
putLoas(Writer& out, const LoasCompiled& art)
{
    out.u64(art.a.size());
    for (const auto& a : art.a)
        putSpikeFibers(out, a);
    putWeightFibers(out, art.b);
}

std::shared_ptr<const CompiledArtifact>
getLoas(Reader& in)
{
    auto art = std::make_shared<LoasCompiled>();
    std::uint64_t batch = 0;
    if (!in.u64(batch) || batch == 0)
        return nullptr;
    art->a.resize(static_cast<std::size_t>(batch));
    for (auto& a : art->a)
        if (!getSpikeFibers(in, a))
            return nullptr;
    if (!getWeightFibers(in, art->b))
        return nullptr;
    return art;
}

void
putSparten(Writer& out, const SpartenCompiled& art)
{
    putWeightFibers(out, art.b);
    out.u64(art.row_masks.size());
    for (const auto& masks : art.row_masks) {
        out.u64(masks.size());
        for (const auto& mask : masks)
            putBitmask(out, mask);
    }
    // Format v3: the temporally-packed view of the same inputs (the
    // fused datapath's operand) plus its per-row dense-timeword counts.
    for (const auto& packed : art.packed)
        putSpikeFibers(out, packed);
    for (const auto& counts : art.dense_nnz)
        out.vec(counts);
}

std::shared_ptr<const CompiledArtifact>
getSparten(Reader& in)
{
    auto art = std::make_shared<SpartenCompiled>();
    std::uint64_t batch = 0;
    if (!getWeightFibers(in, art->b) || !in.u64(batch) || batch == 0)
        return nullptr;
    art->row_masks.resize(static_cast<std::size_t>(batch));
    for (auto& masks : art->row_masks) {
        std::uint64_t count = 0;
        if (!in.u64(count))
            return nullptr;
        masks.resize(static_cast<std::size_t>(count));
        for (auto& mask : masks)
            if (!getBitmask(in, mask))
                return nullptr;
    }
    art->packed.resize(static_cast<std::size_t>(batch));
    for (auto& packed : art->packed)
        if (!getSpikeFibers(in, packed))
            return nullptr;
    art->dense_nnz.resize(static_cast<std::size_t>(batch));
    for (std::size_t b = 0; b < art->dense_nnz.size(); ++b) {
        if (!in.vec(art->dense_nnz[b]) ||
            art->dense_nnz[b].size() != art->packed[b].fibers.size())
            return nullptr;
    }
    return art;
}

void
putGospa(Writer& out, const GospaCompiled& art)
{
    putWeightFibers(out, art.b);
    out.u64(art.col_spikes.size());
    for (std::size_t b = 0; b < art.col_spikes.size(); ++b) {
        out.vec(art.col_spikes[b]);
        out.u64(art.total_spikes[b]);
    }
}

std::shared_ptr<const CompiledArtifact>
getGospa(Reader& in)
{
    auto art = std::make_shared<GospaCompiled>();
    std::uint64_t batch = 0;
    if (!getWeightFibers(in, art->b) || !in.u64(batch) || batch == 0)
        return nullptr;
    art->col_spikes.resize(static_cast<std::size_t>(batch));
    art->total_spikes.resize(static_cast<std::size_t>(batch));
    for (std::size_t b = 0; b < art->col_spikes.size(); ++b)
        if (!in.vec(art->col_spikes[b]) || !in.u64(art->total_spikes[b]))
            return nullptr;
    return art;
}

void
putGamma(Writer& out, const GammaCompiled& art)
{
    putWeightFibers(out, art.b);
    out.f64(art.weight_density);
    out.u64(art.cols.size());
    for (std::size_t b = 0; b < art.cols.size(); ++b) {
        out.u64(art.total_spikes[b]);
        out.vec(art.cols[b]);
        out.vec(art.ptr[b]);
    }
}

std::shared_ptr<const CompiledArtifact>
getGamma(Reader& in)
{
    auto art = std::make_shared<GammaCompiled>();
    std::uint64_t batch = 0;
    if (!getWeightFibers(in, art->b) || !in.f64(art->weight_density) ||
        !in.u64(batch) || batch == 0)
        return nullptr;
    art->total_spikes.resize(static_cast<std::size_t>(batch));
    art->cols.resize(static_cast<std::size_t>(batch));
    art->ptr.resize(static_cast<std::size_t>(batch));
    for (std::size_t b = 0; b < art->cols.size(); ++b)
        if (!in.u64(art->total_spikes[b]) || !in.vec(art->cols[b]) ||
            !in.vec(art->ptr[b]))
            return nullptr;
    return art;
}

// Format v4: the one-shot ANN entry points folded into the two-phase
// API, so their artifacts ride the disk cache like any SNN layer.

void
putSpartenAnn(Writer& out, const SpartenAnnCompiled& art)
{
    putWeightFibers(out, art.a);
    putWeightFibers(out, art.b);
}

std::shared_ptr<const CompiledArtifact>
getSpartenAnn(Reader& in)
{
    auto art = std::make_shared<SpartenAnnCompiled>();
    if (!getWeightFibers(in, art->a) || !getWeightFibers(in, art->b))
        return nullptr;
    return art;
}

void
putGammaAnn(Writer& out, const GammaAnnCompiled& art)
{
    putWeightFibers(out, art.b);
    out.f64(art.weight_density);
    out.u64(art.nnz_acts);
    out.vec(art.cols);
    out.vec(art.ptr);
}

std::shared_ptr<const CompiledArtifact>
getGammaAnn(Reader& in)
{
    auto art = std::make_shared<GammaAnnCompiled>();
    if (!getWeightFibers(in, art->b) || !in.f64(art->weight_density) ||
        !in.u64(art->nnz_acts) || !in.vec(art->cols) ||
        !in.vec(art->ptr))
        return nullptr;
    // The CSR must be well-formed: executeAnn() walks it unchecked.
    if (art->ptr.empty() || art->ptr.front() != 0 ||
        art->ptr.back() != art->cols.size())
        return nullptr;
    for (std::size_t r = 1; r < art->ptr.size(); ++r)
        if (art->ptr[r] < art->ptr[r - 1])
            return nullptr;
    return art;
}

void
putSystolic(Writer& out, const SystolicCompiled& art)
{
    out.u64(art.spikes.size());
    for (std::size_t b = 0; b < art.spikes.size(); ++b) {
        out.u64(art.spikes[b]);
        out.u64(art.max_spikes_per_t[b]);
    }
}

std::shared_ptr<const CompiledArtifact>
getSystolic(Reader& in)
{
    auto art = std::make_shared<SystolicCompiled>();
    std::uint64_t batch = 0;
    if (!in.u64(batch) || batch == 0)
        return nullptr;
    art->spikes.resize(static_cast<std::size_t>(batch));
    art->max_spikes_per_t.resize(static_cast<std::size_t>(batch));
    for (std::size_t b = 0; b < art->spikes.size(); ++b)
        if (!in.u64(art->spikes[b]) ||
            !in.u64(art->max_spikes_per_t[b]))
            return nullptr;
    return art;
}

void
putSpec(Writer& out, const LayerSpec& spec)
{
    out.str(spec.name);
    out.i32(spec.t);
    out.u64(spec.m);
    out.u64(spec.n);
    out.u64(spec.k);
    out.f64(spec.spike_sparsity);
    out.f64(spec.silent_ratio);
    out.f64(spec.silent_ratio_ft);
    out.f64(spec.weight_sparsity);
}

bool
getSpec(Reader& in, LayerSpec& spec)
{
    std::uint64_t m = 0, n = 0, k = 0;
    const bool ok = in.str(spec.name) && in.i32(spec.t) && in.u64(m) &&
                    in.u64(n) && in.u64(k) &&
                    in.f64(spec.spike_sparsity) &&
                    in.f64(spec.silent_ratio) &&
                    in.f64(spec.silent_ratio_ft) &&
                    in.f64(spec.weight_sparsity);
    spec.m = static_cast<std::size_t>(m);
    spec.n = static_cast<std::size_t>(n);
    spec.k = static_cast<std::size_t>(k);
    return ok;
}

} // namespace

bool
serializeCompiledLayer(const CompiledLayer& layer, Writer& out)
{
    out.str(layer.family);
    putSpec(out, layer.spec);
    out.u64(layer.m);
    out.u64(layer.k);
    out.u64(layer.n);
    out.i32(layer.timesteps);
    out.u64(layer.batch);
    out.u64(layer.bytes);

    if (!layer.artifact)
        return false;
    if (layer.family == "loas")
        putLoas(out, static_cast<const LoasCompiled&>(*layer.artifact));
    else if (layer.family == "sparten-snn")
        putSparten(out,
                   static_cast<const SpartenCompiled&>(*layer.artifact));
    else if (layer.family == "gospa")
        putGospa(out,
                 static_cast<const GospaCompiled&>(*layer.artifact));
    else if (layer.family == "gamma")
        putGamma(out,
                 static_cast<const GammaCompiled&>(*layer.artifact));
    else if (layer.family == "systolic")
        putSystolic(
            out, static_cast<const SystolicCompiled&>(*layer.artifact));
    else if (layer.family == SpartenSim::kAnnFamily)
        putSpartenAnn(
            out,
            static_cast<const SpartenAnnCompiled&>(*layer.artifact));
    else if (layer.family == GammaSim::kAnnFamily)
        putGammaAnn(
            out, static_cast<const GammaAnnCompiled&>(*layer.artifact));
    else
        return false;
    return true;
}

bool
deserializeCompiledLayer(Reader& in, CompiledLayer& out)
{
    std::uint64_t m = 0, k = 0, n = 0, batch = 0, bytes = 0;
    if (!in.str(out.family) || !getSpec(in, out.spec) || !in.u64(m) ||
        !in.u64(k) || !in.u64(n) || !in.i32(out.timesteps) ||
        !in.u64(batch) || !in.u64(bytes) || batch == 0)
        return false;
    out.m = static_cast<std::size_t>(m);
    out.k = static_cast<std::size_t>(k);
    out.n = static_cast<std::size_t>(n);
    out.batch = static_cast<std::size_t>(batch);
    out.bytes = static_cast<std::size_t>(bytes);

    if (out.family == "loas")
        out.artifact = getLoas(in);
    else if (out.family == "sparten-snn")
        out.artifact = getSparten(in);
    else if (out.family == "gospa")
        out.artifact = getGospa(in);
    else if (out.family == "gamma")
        out.artifact = getGamma(in);
    else if (out.family == "systolic")
        out.artifact = getSystolic(in);
    else if (out.family == SpartenSim::kAnnFamily)
        out.artifact = getSpartenAnn(in);
    else if (out.family == GammaSim::kAnnFamily)
        out.artifact = getGammaAnn(in);
    else
        return false;
    return out.artifact != nullptr && in.ok() && in.remaining() == 0;
}

std::uint64_t
fnv1a(const char* data, std::size_t size, std::uint64_t seed)
{
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= static_cast<unsigned char>(data[i]);
        hash *= 1099511628211ull;
    }
    return hash;
}

std::uint64_t
checksum(const char* data, std::size_t size)
{
    // xxHash64's primes and round: multiply by an odd constant, add,
    // rotate and multiply again are each invertible.
    constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ull;
    constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
    constexpr std::uint64_t kP3 = 0x165667b19e3779f9ull;
    const auto mix = [](std::uint64_t acc, std::uint64_t word) {
        return std::rotl(acc + word * kP2, 31) * kP1;
    };
    const auto word_at = [data](std::size_t pos, std::size_t bytes) {
        std::uint64_t word = 0;
        std::memcpy(&word, data + pos, bytes);
        return word;
    };

    std::uint64_t lanes[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
    std::size_t pos = 0;
    for (; size - pos >= 32; pos += 32)
        for (std::size_t lane = 0; lane < 4; ++lane)
            lanes[lane] = mix(lanes[lane], word_at(pos + 8 * lane, 8));
    std::uint64_t hash = std::rotl(lanes[0], 1) + std::rotl(lanes[1], 7) +
                         std::rotl(lanes[2], 12) +
                         std::rotl(lanes[3], 18);

    for (; pos < size; pos += 8) {
        const std::size_t bytes = std::min<std::size_t>(8, size - pos);
        hash = std::rotl(hash ^ mix(0, word_at(pos, bytes)), 27) * kP1 +
               kP3;
    }
    hash ^= static_cast<std::uint64_t>(size);

    hash ^= hash >> 33;
    hash *= kP2;
    hash ^= hash >> 29;
    hash *= kP3;
    hash ^= hash >> 32;
    return hash;
}

} // namespace artio
} // namespace loas
