/**
 * @file
 * Small bit-manipulation and integer helpers shared across modules.
 */

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace loas {

/** Number of set bits in a 64-bit word. */
inline int popcount64(std::uint64_t x) { return std::popcount(x); }

/** Ceiling division for unsigned integers. Requires d > 0. */
template <typename T>
constexpr T
ceilDiv(T n, T d)
{
    return (n + d - 1) / d;
}

/** Round n up to the next multiple of m. Requires m > 0. */
template <typename T>
constexpr T
roundUp(T n, T m)
{
    return ceilDiv(n, m) * m;
}

/** True iff x is a power of two (0 is not). */
constexpr bool
isPow2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** floor(log2(x)) for x > 0. */
constexpr int
floorLog2(std::uint64_t x)
{
    return 63 - std::countl_zero(x);
}

/** Index of lowest set bit; undefined for x == 0. */
inline int lowestSetBit(std::uint64_t x) { return std::countr_zero(x); }

/** Mask with the low n bits set (n in [0, 64]). */
constexpr std::uint64_t
lowMask64(int n)
{
    return n >= 64 ? ~0ull : ((1ull << n) - 1);
}

/**
 * Smallest i in [w, w_end) with (a[i] & b[i]) != 0, else w_end: the
 * skip-scan every join runs over its two bitmasks' words, one AND per
 * word, hopping over the zero-AND words between matches.
 */
inline std::size_t
firstMatchWord(const std::uint64_t* a, const std::uint64_t* b,
               std::size_t w, std::size_t w_end)
{
    while (w < w_end && (a[w] & b[w]) == 0)
        ++w;
    return w;
}

/** popcount(a[i] & b[i]) summed over i in [0, n). */
inline std::uint64_t
andPopcountWords(const std::uint64_t* a, const std::uint64_t* b,
                 std::size_t n)
{
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < n; ++i)
        count += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
    return count;
}

} // namespace loas
