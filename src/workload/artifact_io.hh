/**
 * @file
 * Binary serialization of compiled-layer artifacts, the payload format
 * of the on-disk cache level (artifact_store.hh). Every format family
 * (LoAS, SparTen-SNN, GoSPA, Gamma, systolic and the ANN families)
 * round-trips its prepare() output so a disk hit reconstructs exactly
 * what a fresh compile would have produced and execute() is
 * byte-identical either way.
 *
 * The encoding is a flat little-ceremony stream of host-endian
 * fixed-width fields and length-prefixed arrays. Only primary data is
 * stored: a flat fiber set is its shape plus its mask-word and value
 * arrays, and the loader re-derives (and so validates) the rank
 * prefixes and offset tables. It is a *cache* format, not an
 * interchange format: files are only ever read back by the same build
 * family on the same machine class, and the store's format-version
 * stamp plus checksum reject anything else.
 *
 * Writer and Reader stream the payload straight between a file
 * descriptor and the artifact's own arrays, checksumming every byte on
 * the way: small fields go through a bounded buffer, large arrays are
 * read into (or written from) their final vectors directly, so no
 * whole-file copy is ever held.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "accel/compiled_layer.hh"

namespace loas {
namespace artio {

/**
 * The store's payload checksum, word-wise so it runs at memory speed.
 * Four independent 64-bit lanes each absorb every fourth host-endian
 * word of the 32-byte stripes; the lanes are merged, the sub-32-byte
 * tail is folded in word by word (its last partial word zero-padded)
 * and then the length, and a final avalanche mixes the result. Every
 * step is a bijection of the running state for a fixed input word and
 * of the input word for a fixed state, so changing any one word —
 * hence any single byte — always changes the checksum.
 *
 * Incremental: update() over consecutive pieces of a payload, split
 * anywhere, then finish(), equals checksum() of the whole.
 */
class Checksum
{
  public:
    void update(const void* data, std::size_t size);
    std::uint64_t finish() const;

  private:
    static constexpr std::size_t kStripe = 32;

    /** xxHash64's seeds: P1 + P2, P2, 0, -P1. */
    std::uint64_t lanes_[4] = {
        0x9e3779b185ebca87ull + 0xc2b2ae3d27d4eb4full,
        0xc2b2ae3d27d4eb4full, 0, 0 - 0x9e3779b185ebca87ull};
    unsigned char pending_[kStripe];
    std::size_t pending_size_ = 0;
    std::uint64_t total_ = 0;
};

/** One-shot Checksum over a whole payload. */
std::uint64_t checksum(const char* data, std::size_t size);

/** FNV-1a 64-bit, the store's filename hash of a cache key. */
std::uint64_t fnv1a(const char* data, std::size_t size,
                    std::uint64_t seed = 1469598103934665603ull);

/** Bytes of the bounded staging buffer of Reader and Writer. */
inline constexpr std::size_t kStreamBufferBytes = 16 * 1024;

/**
 * Payload writer into a file descriptor. Fields collect in a bounded
 * buffer; arrays at least that large are written straight from their
 * storage. Every byte is checksummed in order. I/O failures latch:
 * flush() reports whether everything reached the descriptor.
 */
class Writer
{
  public:
    explicit Writer(int fd) : fd_(fd) {}

    void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
    void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
    void i32(std::int32_t v) { raw(&v, sizeof(v)); }
    void f64(double v) { raw(&v, sizeof(v)); }

    void
    str(const std::string& s)
    {
        u64(s.size());
        raw(s.data(), s.size());
    }

    /** Length-prefixed array of trivially-copyable elements. */
    template <typename T>
    void
    vec(const std::vector<T>& v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        u64(v.size());
        raw(v.data(), v.size() * sizeof(T));
    }

    /** Write out the buffer; false if any write so far failed. */
    bool flush();

    /** Payload bytes written so far. */
    std::uint64_t size() const { return size_; }

    /** Checksum of the payload written so far. */
    std::uint64_t checksum() const { return sum_.finish(); }

  private:
    void raw(const void* data, std::size_t size);

    int fd_;
    bool ok_ = true;
    Checksum sum_;
    std::uint64_t size_ = 0;
    std::size_t used_ = 0;
    char buf_[kStreamBufferBytes];
};

/**
 * Bounds-checked payload reader from a file descriptor positioned at
 * the payload's first byte, `size` bytes long. Fields come through a
 * bounded buffer; arrays at least that large are read straight into
 * their final vectors. Every byte is checksummed in order. Every
 * accessor returns false once the payload is exhausted or malformed,
 * or a read failed (ioError()); callers treat any failure as a cache
 * miss — never as an error to surface.
 */
class Reader
{
  public:
    Reader(int fd, std::uint64_t size) : fd_(fd), unread_(size) {}

    bool ok() const { return ok_; }

    /** True when a read() failed or the file ended early. */
    bool ioError() const { return io_error_; }

    /** Unconsumed payload bytes (a fully-parsed payload ends at 0). */
    std::uint64_t
    remaining() const
    {
        return ok_ ? unread_ + (end_ - pos_) : 0;
    }

    /** Checksum of the payload consumed so far. */
    std::uint64_t checksum() const { return sum_.finish(); }

    bool u32(std::uint32_t& v) { return raw(&v, sizeof(v)); }
    bool u64(std::uint64_t& v) { return raw(&v, sizeof(v)); }
    bool i32(std::int32_t& v) { return raw(&v, sizeof(v)); }
    bool f64(double& v) { return raw(&v, sizeof(v)); }

    bool
    str(std::string& s)
    {
        std::uint64_t size = 0;
        if (!u64(size) || size > remaining())
            return fail();
        s.resize(static_cast<std::size_t>(size));
        return raw(s.data(), s.size());
    }

    /** Length-prefixed array, read into `v`'s own storage. */
    template <typename T>
    bool
    vec(std::vector<T>& v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::uint64_t count = 0;
        if (!u64(count) || count > remaining() / sizeof(T))
            return fail();
        v.resize(static_cast<std::size_t>(count));
        return raw(v.data(), v.size() * sizeof(T));
    }

  private:
    bool raw(void* out, std::size_t size);
    /** read() exactly `size` payload bytes from the descriptor. */
    bool pull(char* out, std::size_t size);

    bool
    fail()
    {
        ok_ = false;
        return false;
    }

    int fd_;
    std::uint64_t unread_;  // payload bytes not yet pulled from fd_
    bool ok_ = true;
    bool io_error_ = false;
    Checksum sum_;
    std::size_t pos_ = 0, end_ = 0;  // unconsumed buffer bytes
    char buf_[kStreamBufferBytes];
};

/**
 * Serialize a compiled layer (spec, shapes, family artifact) into
 * `out`. Returns false for an unknown family — the caller simply
 * skips the disk level for that artifact.
 */
bool serializeCompiledLayer(const CompiledLayer& layer, Writer& out);

/**
 * Reconstruct a compiled layer from `in`. Returns false on any
 * malformed or truncated payload (treated as a cache miss upstream):
 * operand shapes that disagree with the layer's, fiber masks with set
 * bits past their length, value arrays whose length is not the masks'
 * popcount, or stored values that do not fit their modelled width.
 */
bool deserializeCompiledLayer(Reader& in, CompiledLayer& out);

} // namespace artio
} // namespace loas
