#include "workload/artifact_io.hh"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <memory>
#include <utility>

#include <unistd.h>

#include "baselines/gamma.hh"
#include "baselines/gospa.hh"
#include "baselines/sparten.hh"
#include "baselines/systolic.hh"
#include "common/bitutil.hh"
#include "core/loas_sim.hh"

namespace loas {
namespace artio {

namespace {

// xxHash64's primes and round: multiply by an odd constant, add,
// rotate and multiply again are each invertible.
constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kP3 = 0x165667b19e3779f9ull;

/** Large arrays move between the file and their storage in pieces of
 *  this size, each checksummed while it is still in cache. */
constexpr std::size_t kChunkBytes = 256 * 1024;

inline std::uint64_t
mix(std::uint64_t acc, std::uint64_t word)
{
    return std::rotl(acc + word * kP2, 31) * kP1;
}

inline std::uint64_t
wordAt(const unsigned char* data, std::size_t bytes)
{
    std::uint64_t word = 0;
    std::memcpy(&word, data, bytes);
    return word;
}

/** Fold `stripes` 32-byte stripes into the four lanes. The lanes live
 *  in locals across the loop: `data` may alias any object, so lanes
 *  kept in memory would be reloaded every word. */
void
absorb(std::uint64_t (&lanes)[4], const unsigned char* data,
       std::size_t stripes)
{
    std::uint64_t l0 = lanes[0], l1 = lanes[1], l2 = lanes[2],
                  l3 = lanes[3];
    for (; stripes != 0; --stripes, data += 32) {
        l0 = mix(l0, wordAt(data, 8));
        l1 = mix(l1, wordAt(data + 8, 8));
        l2 = mix(l2, wordAt(data + 16, 8));
        l3 = mix(l3, wordAt(data + 24, 8));
    }
    lanes[0] = l0;
    lanes[1] = l1;
    lanes[2] = l2;
    lanes[3] = l3;
}

/** write() the whole buffer, riding out EINTR and short writes. */
bool
writeAll(int fd, const char* data, std::size_t size)
{
    while (size > 0) {
        const ssize_t n = ::write(fd, data, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

void
Checksum::update(const void* data, std::size_t size)
{
    if (size == 0) // empty vectors hand out a null data()
        return;
    const auto* p = static_cast<const unsigned char*>(data);
    total_ += size;
    if (pending_size_ != 0) {
        const std::size_t take = std::min(size, kStripe - pending_size_);
        std::memcpy(pending_ + pending_size_, p, take);
        pending_size_ += take;
        p += take;
        size -= take;
        if (pending_size_ < kStripe)
            return;
        pending_size_ = 0;
        absorb(lanes_, pending_, 1);
    }
    const std::size_t stripes = size / kStripe;
    absorb(lanes_, p, stripes);
    p += stripes * kStripe;
    size -= stripes * kStripe;
    if (size != 0)
        std::memcpy(pending_, p, size);
    pending_size_ = size;
}

std::uint64_t
Checksum::finish() const
{
    std::uint64_t hash = std::rotl(lanes_[0], 1) +
                         std::rotl(lanes_[1], 7) +
                         std::rotl(lanes_[2], 12) +
                         std::rotl(lanes_[3], 18);
    for (std::size_t pos = 0; pos < pending_size_; pos += 8) {
        const std::size_t bytes =
            std::min<std::size_t>(8, pending_size_ - pos);
        hash = std::rotl(hash ^ mix(0, wordAt(pending_ + pos, bytes)),
                         27) * kP1 +
               kP3;
    }
    hash ^= total_;

    hash ^= hash >> 33;
    hash *= kP2;
    hash ^= hash >> 29;
    hash *= kP3;
    hash ^= hash >> 32;
    return hash;
}

std::uint64_t
checksum(const char* data, std::size_t size)
{
    Checksum sum;
    sum.update(data, size);
    return sum.finish();
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

void
Writer::raw(const void* data, std::size_t size)
{
    if (size == 0)
        return;
    const auto* p = static_cast<const char*>(data);
    size_ += size;
    if (used_ + size > kStreamBufferBytes)
        flush();
    if (size < kStreamBufferBytes) {
        sum_.update(p, size);
        std::memcpy(buf_ + used_, p, size);
        used_ += size;
        return;
    }
    for (std::size_t off = 0; off < size; off += kChunkBytes) {
        const std::size_t n = std::min(kChunkBytes, size - off);
        sum_.update(p + off, n);
        ok_ = ok_ && writeAll(fd_, p + off, n);
    }
}

bool
Writer::flush()
{
    if (used_ != 0)
        ok_ = ok_ && writeAll(fd_, buf_, used_);
    used_ = 0;
    return ok_;
}

bool
Reader::raw(void* out, std::size_t size)
{
    if (!ok_ || size > remaining())
        return fail();
    auto* dst = static_cast<char*>(out);
    const std::size_t buffered = std::min(size, end_ - pos_);
    if (buffered != 0) {
        std::memcpy(dst, buf_ + pos_, buffered);
        pos_ += buffered;
        dst += buffered;
        size -= buffered;
    }
    if (size == 0)
        return true;
    // The buffer is drained: large reads land in place, small ones
    // refill the buffer first.
    if (size >= kStreamBufferBytes)
        return pull(dst, size);
    const auto fill = static_cast<std::size_t>(
        std::min<std::uint64_t>(kStreamBufferBytes, unread_));
    if (!pull(buf_, fill))
        return false;
    std::memcpy(dst, buf_, size);
    pos_ = size;
    end_ = fill;
    return true;
}

bool
Reader::pull(char* out, std::size_t size)
{
    unread_ -= size;
    while (size > 0) {
        const std::size_t want = std::min(size, kChunkBytes);
        for (std::size_t got = 0; got < want;) {
            const ssize_t n = ::read(fd_, out + got, want - got);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0) { // an error, or the file shrank under us
                io_error_ = true;
                return fail();
            }
            got += static_cast<std::size_t>(n);
        }
        sum_.update(out, want);
        out += want;
        size -= want;
    }
    return true;
}

namespace {

// --- Flat fiber sets -------------------------------------------------

// A set is stored as its shape and its two primary arrays; the loader
// re-derives the rank prefixes and offsets, which also validates the
// masks against the values.

template <typename V>
void
putSet(Writer& out, const FlatFiberSet<V>& set)
{
    out.u64(set.fibers);
    out.u64(set.bits);
    out.u32(set.value_bits);
    out.vec(set.words);
    out.vec(set.values);
}

/** Every stored value is non-zero (the mask marks exactly the
 *  non-zeros) and fits `value_bits`, as two's complement when V is
 *  signed: the kernels index timestep accumulators by temporal-word
 *  bits, so a stray high bit must never reach them. */
template <typename V>
bool
valuesFit(const FlatFiberSet<V>& set)
{
    const unsigned width = set.value_bits;
    std::int64_t lo = 0, hi = 0;
    if constexpr (std::is_signed_v<V>) {
        lo = -(std::int64_t{1} << (width - 1));
        hi = (std::int64_t{1} << (width - 1)) - 1;
    } else {
        hi = (std::int64_t{1} << width) - 1;
    }
    bool fit = true;
    for (const V v : set.values) {
        const auto x = static_cast<std::int64_t>(v);
        fit &= (x != 0) & (x >= lo) & (x <= hi);
    }
    return fit;
}

/** Read a set that must have the given shape. */
template <typename V>
bool
getSet(Reader& in, FlatFiberSet<V>& set, std::size_t fibers,
       std::size_t bits, std::uint32_t value_bits)
{
    std::uint64_t stored_fibers = 0, stored_bits = 0;
    std::uint32_t stored_value_bits = 0;
    if (!in.u64(stored_fibers) || !in.u64(stored_bits) ||
        !in.u32(stored_value_bits) || stored_fibers != fibers ||
        stored_bits != bits || stored_value_bits != value_bits)
        return false;
    set.fibers = fibers;
    set.bits = bits;
    set.value_bits = value_bits;
    return in.vec(set.words) && in.vec(set.values) && set.derive() &&
           valuesFit(set);
}

/** Per-input count of a batched payload. Every input stores at least
 *  one u64, which bounds the count by the bytes left. */
bool
getBatch(Reader& in, std::size_t expected)
{
    std::uint64_t batch = 0;
    return in.u64(batch) && batch == expected &&
           batch <= in.remaining() / sizeof(std::uint64_t);
}

/** `count` masks of `bits` positions, back to back in `words`, with
 *  no set bit past their length. */
bool
masksValid(const std::vector<std::uint64_t>& words, std::size_t count,
           std::size_t bits)
{
    const std::size_t per = ceilDiv(bits, Bitmask::kWordBits);
    if (per == 0 || words.size() / per != count || words.size() % per != 0)
        return false;
    const std::size_t tail = bits % Bitmask::kWordBits;
    if (tail == 0)
        return true;
    const std::uint64_t past_end = ~lowMask64(static_cast<int>(tail));
    for (std::size_t i = 0; i < count; ++i)
        if ((words[(i + 1) * per - 1] & past_end) != 0)
            return false;
    return true;
}

/** A CSR task list over `tasks` rows whose entries index < `cols_bound`. */
bool
csrValid(const std::vector<std::uint32_t>& cols,
         const std::vector<std::uint64_t>& ptr, std::size_t tasks,
         std::size_t cols_bound)
{
    if (ptr.size() != tasks + 1 || ptr.front() != 0 ||
        ptr.back() != cols.size())
        return false;
    for (std::size_t r = 1; r < ptr.size(); ++r)
        if (ptr[r] < ptr[r - 1])
            return false;
    return std::all_of(cols.begin(), cols.end(),
                       [&](std::uint32_t c) { return c < cols_bound; });
}

// --- Per-family artifact payloads -----------------------------------

// Every spike-side member is stored per batch input (count-prefixed);
// the weight-side operand is stored exactly once per layer. Shapes
// are checked against the layer header: execute() indexes the
// operands by it unchecked.

void
putLoas(Writer& out, const LoasCompiled& art)
{
    out.u64(art.a.size());
    for (const auto& a : art.a)
        putSet(out, a);
    putSet(out, art.b);
}

std::shared_ptr<const CompiledArtifact>
getLoas(Reader& in, const CompiledLayer& layer)
{
    auto art = std::make_shared<LoasCompiled>();
    if (!getBatch(in, layer.batch))
        return nullptr;
    art->a.resize(layer.batch);
    for (auto& a : art->a)
        if (!getSet(in, a, layer.m, layer.k,
                    static_cast<std::uint32_t>(layer.timesteps)))
            return nullptr;
    if (!getSet(in, art->b, layer.n, layer.k, kWeightValueBits))
        return nullptr;
    return art;
}

void
putSparten(Writer& out, const SpartenCompiled& art)
{
    putSet(out, art.b);
    out.u64(art.row_words.size());
    for (const auto& words : art.row_words)
        out.vec(words);
    // The temporally-packed view of the same inputs (the fused
    // datapath's operand); its dense-timeword counts are re-derived.
    for (const auto& packed : art.packed)
        putSet(out, packed);
}

std::shared_ptr<const CompiledArtifact>
getSparten(Reader& in, const CompiledLayer& layer)
{
    auto art = std::make_shared<SpartenCompiled>();
    const auto timesteps = static_cast<std::uint32_t>(layer.timesteps);
    if (!getSet(in, art->b, layer.n, layer.k, kWeightValueBits) ||
        !getBatch(in, layer.batch))
        return nullptr;
    art->row_words.resize(layer.batch);
    for (auto& words : art->row_words)
        if (!in.vec(words) ||
            !masksValid(words, timesteps * layer.m, layer.k))
            return nullptr;
    art->packed.resize(layer.batch);
    art->dense_nnz.resize(layer.batch);
    for (std::size_t b = 0; b < layer.batch; ++b) {
        if (!getSet(in, art->packed[b], layer.m, layer.k, timesteps))
            return nullptr;
        art->dense_nnz[b] =
            denseTimewordCounts(art->packed[b], layer.timesteps);
    }
    return art;
}

void
putGospa(Writer& out, const GospaCompiled& art)
{
    putSet(out, art.b);
    out.u64(art.col_spikes.size());
    for (const auto& col_spikes : art.col_spikes)
        out.vec(col_spikes);
}

std::shared_ptr<const CompiledArtifact>
getGospa(Reader& in, const CompiledLayer& layer)
{
    auto art = std::make_shared<GospaCompiled>();
    if (!getSet(in, art->b, layer.k, layer.n, kWeightValueBits) ||
        !getBatch(in, layer.batch))
        return nullptr;
    art->col_spikes.resize(layer.batch);
    art->total_spikes.assign(layer.batch, 0);
    for (std::size_t b = 0; b < layer.batch; ++b) {
        if (!in.vec(art->col_spikes[b]) ||
            art->col_spikes[b].size() !=
                static_cast<std::size_t>(layer.timesteps) * layer.k)
            return nullptr;
        for (const std::uint32_t count : art->col_spikes[b])
            art->total_spikes[b] += count;
    }
    return art;
}

void
putGamma(Writer& out, const GammaCompiled& art)
{
    putSet(out, art.b);
    out.f64(art.weight_density);
    out.u64(art.cols.size());
    for (std::size_t b = 0; b < art.cols.size(); ++b) {
        out.u64(art.total_spikes[b]);
        out.vec(art.cols[b]);
        out.vec(art.ptr[b]);
    }
}

std::shared_ptr<const CompiledArtifact>
getGamma(Reader& in, const CompiledLayer& layer)
{
    auto art = std::make_shared<GammaCompiled>();
    if (!getSet(in, art->b, layer.k, layer.n, kWeightValueBits) ||
        !in.f64(art->weight_density) || !getBatch(in, layer.batch))
        return nullptr;
    art->total_spikes.resize(layer.batch);
    art->cols.resize(layer.batch);
    art->ptr.resize(layer.batch);
    const std::size_t tasks =
        static_cast<std::size_t>(layer.timesteps) * layer.m;
    for (std::size_t b = 0; b < layer.batch; ++b)
        if (!in.u64(art->total_spikes[b]) || !in.vec(art->cols[b]) ||
            !in.vec(art->ptr[b]) ||
            !csrValid(art->cols[b], art->ptr[b], tasks, layer.k))
            return nullptr;
    return art;
}

// Format v4: the one-shot ANN entry points folded into the two-phase
// API, so their artifacts ride the disk cache like any SNN layer.

void
putSpartenAnn(Writer& out, const SpartenAnnCompiled& art)
{
    putSet(out, art.a);
    putSet(out, art.b);
}

std::shared_ptr<const CompiledArtifact>
getSpartenAnn(Reader& in, const CompiledLayer& layer)
{
    auto art = std::make_shared<SpartenAnnCompiled>();
    if (!getSet(in, art->a, layer.m, layer.k, kWeightValueBits) ||
        !getSet(in, art->b, layer.n, layer.k, kWeightValueBits))
        return nullptr;
    return art;
}

void
putGammaAnn(Writer& out, const GammaAnnCompiled& art)
{
    putSet(out, art.b);
    out.f64(art.weight_density);
    out.u64(art.nnz_acts);
    out.vec(art.cols);
    out.vec(art.ptr);
}

std::shared_ptr<const CompiledArtifact>
getGammaAnn(Reader& in, const CompiledLayer& layer)
{
    auto art = std::make_shared<GammaAnnCompiled>();
    if (!getSet(in, art->b, layer.k, layer.n, kWeightValueBits) ||
        !in.f64(art->weight_density) || !in.u64(art->nnz_acts) ||
        !in.vec(art->cols) || !in.vec(art->ptr) ||
        !csrValid(art->cols, art->ptr, layer.m, layer.k))
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
getSystolic(Reader& in, const CompiledLayer& layer)
{
    auto art = std::make_shared<SystolicCompiled>();
    if (!getBatch(in, layer.batch))
        return nullptr;
    art->spikes.resize(layer.batch);
    art->max_spikes_per_t.resize(layer.batch);
    for (std::size_t b = 0; b < layer.batch; ++b)
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
        !in.u64(batch) || !in.u64(bytes))
        return false;
    // Operand shapes bound every array the families read back. A zero
    // dimension would let a fiber count escape that bound, and fiber
    // positions are 32-bit wherever the kernels record them.
    constexpr std::uint64_t kMaxDim = std::uint64_t{1} << 31;
    if (m == 0 || k == 0 || n == 0 || m > kMaxDim || k > kMaxDim ||
        n > kMaxDim || batch == 0 || out.timesteps < 1 ||
        out.timesteps > kMaxTimesteps)
        return false;
    out.m = static_cast<std::size_t>(m);
    out.k = static_cast<std::size_t>(k);
    out.n = static_cast<std::size_t>(n);
    out.batch = static_cast<std::size_t>(batch);
    out.bytes = static_cast<std::size_t>(bytes);

    if (out.family == "loas")
        out.artifact = getLoas(in, out);
    else if (out.family == "sparten-snn")
        out.artifact = getSparten(in, out);
    else if (out.family == "gospa")
        out.artifact = getGospa(in, out);
    else if (out.family == "gamma")
        out.artifact = getGamma(in, out);
    else if (out.family == "systolic")
        out.artifact = getSystolic(in, out);
    else if (out.family == SpartenSim::kAnnFamily)
        out.artifact = getSpartenAnn(in, out);
    else if (out.family == GammaSim::kAnnFamily)
        out.artifact = getGammaAnn(in, out);
    else
        return false;
    return out.artifact != nullptr && in.ok() && in.remaining() == 0;
}

} // namespace artio
} // namespace loas
