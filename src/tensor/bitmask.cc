#include "tensor/bitmask.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace loas {

Bitmask::Bitmask(std::size_t size)
    : size_(size), words_(ceilDiv(size, kWordBits), 0ull)
{
}

Bitmask::Bitmask(std::size_t size, std::vector<std::uint64_t> words)
    : size_(size), words_(std::move(words))
{
    if (words_.size() != ceilDiv(size_, kWordBits))
        panic("Bitmask of %zu bits needs %zu words, got %zu", size_,
              ceilDiv(size_, kWordBits), words_.size());
    const int tail = static_cast<int>(size_ % kWordBits);
    if (tail != 0 && (words_.back() & ~lowMask64(tail)) != 0)
        panic("Bitmask word storage has bits set past size %zu", size_);
}

void
Bitmask::reset(std::size_t size)
{
    size_ = size;
    words_.assign(ceilDiv(size, kWordBits), 0ull);
}

void
Bitmask::set(std::size_t i, bool value)
{
    if (i >= size_)
        panic("Bitmask::set out of range: %zu >= %zu", i, size_);
    const std::uint64_t bit = 1ull << (i % kWordBits);
    if (value)
        words_[i / kWordBits] |= bit;
    else
        words_[i / kWordBits] &= ~bit;
}

bool
Bitmask::test(std::size_t i) const
{
    if (i >= size_)
        panic("Bitmask::test out of range: %zu >= %zu", i, size_);
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1ull;
}

std::size_t
Bitmask::popcount() const
{
    std::size_t count = 0;
    for (const auto word : words_)
        count += static_cast<std::size_t>(popcount64(word));
    return count;
}

std::size_t
Bitmask::rank(std::size_t i) const
{
    if (i > size_)
        panic("Bitmask::rank out of range: %zu > %zu", i, size_);
    std::size_t count = 0;
    const std::size_t full_words = i / kWordBits;
    for (std::size_t w = 0; w < full_words; ++w)
        count += static_cast<std::size_t>(popcount64(words_[w]));
    const int rem = static_cast<int>(i % kWordBits);
    if (rem != 0)
        count += static_cast<std::size_t>(
            popcount64(words_[full_words] & lowMask64(rem)));
    return count;
}

Bitmask
Bitmask::operator&(const Bitmask& other) const
{
    if (size_ != other.size_)
        panic("Bitmask AND of mismatched sizes %zu vs %zu", size_,
              other.size_);
    Bitmask out(size_);
    for (std::size_t w = 0; w < words_.size(); ++w)
        out.words_[w] = words_[w] & other.words_[w];
    return out;
}

std::size_t
Bitmask::andPopcount(const Bitmask& other) const
{
    if (size_ != other.size_)
        panic("Bitmask AND of mismatched sizes %zu vs %zu", size_,
              other.size_);
    return static_cast<std::size_t>(andPopcountWords(
        words_.data(), other.words_.data(), words_.size()));
}

bool
Bitmask::any() const
{
    for (const auto word : words_)
        if (word)
            return true;
    return false;
}

std::vector<std::uint32_t>
Bitmask::setBitsInRange(std::size_t lo, std::size_t hi) const
{
    std::vector<std::uint32_t> out;
    if (hi > size_)
        hi = size_;
    for (std::size_t i = lo; i < hi;) {
        const std::size_t w = i / kWordBits;
        const int shift = static_cast<int>(i % kWordBits);
        std::uint64_t word = words_[w] >> shift;
        const std::size_t span = std::min(hi - i, kWordBits - shift);
        word &= lowMask64(static_cast<int>(span));
        while (word) {
            out.push_back(static_cast<std::uint32_t>(
                i + static_cast<std::size_t>(lowestSetBit(word))));
            word &= word - 1;
        }
        i += span;
    }
    return out;
}

std::size_t
Bitmask::popcountRange(std::size_t lo, std::size_t hi) const
{
    if (hi > size_)
        hi = size_;
    if (lo >= hi)
        return 0;
    return rank(hi) - rank(lo);
}

} // namespace loas
