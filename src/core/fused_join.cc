#include "core/fused_join.hh"

#include <bit>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "core/kernel_dispatch.hh"
#include "tensor/ranked_bitmask.hh"
#include "tensor/spike_tensor.hh"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define LOAS_FUSED_AVX2 1
#else
#define LOAS_FUSED_AVX2 0
#endif

namespace loas {

namespace {

/** Widest T whose accumulators fit the AVX2 kernels' lanes. */
constexpr int kAvx2MaxTimesteps = 8;

/** Scalar fan-out: one add per firing timestep of each match. */
std::uint64_t
scalarFanoutJoin(const SpikeFiberView& fiber_a,
                 const WeightFiberView& fiber_b, std::int32_t* sums,
                 std::uint64_t* acc_ops)
{
    std::uint64_t matches = 0;
    std::uint64_t accs = 0;
    forEachMatch(fiber_a, fiber_b,
                 [&](std::size_t, std::size_t a_off, std::size_t b_off) {
                     const TimeWord tw = fiber_a.values[a_off];
                     const std::int32_t weight = fiber_b.values[b_off];
                     accs += static_cast<std::uint64_t>(std::popcount(tw));
                     for (TimeWord bits = tw; bits != 0; bits &= bits - 1)
                         sums[std::countr_zero(bits)] += weight;
                     ++matches;
                 });
    *acc_ops += accs;
    return matches;
}

/** Scalar collapse: collapseMatch() per match. */
std::uint64_t
scalarCollapseJoin(const SpikeFiberView& fiber_a,
                   const WeightFiberView& fiber_b, TimeWord all_ones,
                   std::int64_t* pseudo, std::int64_t* correction,
                   std::uint64_t* acc_ops,
                   std::uint64_t* correction_ops)
{
    std::uint64_t matches = 0;
    std::uint64_t corrs = 0;
    std::int64_t p = 0;
    forEachMatch(fiber_a, fiber_b,
                 [&](std::size_t, std::size_t a_off, std::size_t b_off) {
                     const TimeWord tw = fiber_a.values[a_off];
                     const std::int32_t weight = fiber_b.values[b_off];
                     const int corrected =
                         collapseMatch(weight, tw, all_ones, p, correction);
                     corrs += static_cast<std::uint64_t>(corrected);
                     ++matches;
                 });
    *pseudo += p;
    *acc_ops += matches;
    *correction_ops += corrs;
    return matches;
}

#if LOAS_FUSED_AVX2

/**
 * AVX2 fan-out for T <= 8: the timestep accumulators live in one ymm
 * of int32 lanes, and each match is one emulated masked add (a
 * lane-bit test against the broadcast temporal word selects which
 * lanes take the broadcast weight). Integer lane adds are exact, so
 * the sums equal the scalar fan-out's.
 */
__attribute__((target("avx2"))) std::uint64_t
avx2FanoutJoin(const SpikeFiberView& fiber_a,
               const WeightFiberView& fiber_b, int timesteps,
               std::int32_t* sums, std::uint64_t* acc_ops)
{
    const std::uint64_t* const a = fiber_a.words;
    const std::uint64_t* const b = fiber_b.words;
    const std::size_t n = fiber_a.numWords();
    const __m256i lane_bits =
        _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    __m256i acc = _mm256_setzero_si256();
    std::uint64_t matches = 0;
    std::uint64_t accs = 0;
    for (std::size_t w = firstMatchWord(a, b, 0, n); w < n;
         w = firstMatchWord(a, b, w + 1, n)) {
        const std::uint64_t aw = a[w];
        const std::uint64_t bw = b[w];
        const std::uint32_t ra = fiber_a.wordRank(w);
        const std::uint32_t rb = fiber_b.wordRank(w);
        for (std::uint64_t x = aw & bw; x != 0; x &= x - 1) {
            const std::uint64_t low = lowMask64(lowestSetBit(x));
            const TimeWord tw = fiber_a.values[ra + popcount64(aw & low)];
            const std::int32_t weight =
                fiber_b.values[rb + popcount64(bw & low)];
            accs += static_cast<std::uint64_t>(std::popcount(tw));
            const __m256i fired = _mm256_and_si256(
                _mm256_set1_epi32(static_cast<int>(tw)), lane_bits);
            const __m256i hit = _mm256_cmpeq_epi32(fired, lane_bits);
            acc = _mm256_add_epi32(
                acc, _mm256_and_si256(hit, _mm256_set1_epi32(weight)));
            ++matches;
        }
    }
    alignas(32) std::int32_t lanes[8];
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
    for (int t = 0; t < timesteps; ++t)
        sums[t] = lanes[t];
    *acc_ops += accs;
    return matches;
}

/**
 * AVX2 collapse for T <= 8: the 64-bit correction accumulators live
 * in two ymms of int64 lanes, masked by the *zero* timestep bits of
 * each match.
 */
__attribute__((target("avx2"))) std::uint64_t
avx2CollapseJoin(const SpikeFiberView& fiber_a,
                 const WeightFiberView& fiber_b, int timesteps,
                 TimeWord all_ones, std::int64_t* pseudo,
                 std::int64_t* correction, std::uint64_t* acc_ops,
                 std::uint64_t* correction_ops)
{
    const std::uint64_t* const a = fiber_a.words;
    const std::uint64_t* const b = fiber_b.words;
    const std::size_t n = fiber_a.numWords();
    const __m256i lo_bits = _mm256_setr_epi64x(1, 2, 4, 8);
    const __m256i hi_bits = _mm256_setr_epi64x(16, 32, 64, 128);
    __m256i acc_lo = _mm256_setzero_si256();
    __m256i acc_hi = _mm256_setzero_si256();
    std::uint64_t matches = 0;
    std::uint64_t corrs = 0;
    std::int64_t p = 0;
    for (std::size_t w = firstMatchWord(a, b, 0, n); w < n;
         w = firstMatchWord(a, b, w + 1, n)) {
        const std::uint64_t aw = a[w];
        const std::uint64_t bw = b[w];
        const std::uint32_t ra = fiber_a.wordRank(w);
        const std::uint32_t rb = fiber_b.wordRank(w);
        for (std::uint64_t x = aw & bw; x != 0; x &= x - 1) {
            const std::uint64_t low = lowMask64(lowestSetBit(x));
            const TimeWord tw = fiber_a.values[ra + popcount64(aw & low)];
            const std::int32_t weight =
                fiber_b.values[rb + popcount64(bw & low)];
            p += weight;
            const TimeWord zeros = ~tw & all_ones;
            corrs += static_cast<std::uint64_t>(std::popcount(zeros));
            const __m256i zv = _mm256_set1_epi64x(zeros);
            const __m256i wv = _mm256_set1_epi64x(weight);
            const __m256i lo_hit =
                _mm256_cmpeq_epi64(_mm256_and_si256(zv, lo_bits), lo_bits);
            const __m256i hi_hit =
                _mm256_cmpeq_epi64(_mm256_and_si256(zv, hi_bits), hi_bits);
            acc_lo = _mm256_add_epi64(acc_lo, _mm256_and_si256(lo_hit, wv));
            acc_hi = _mm256_add_epi64(acc_hi, _mm256_and_si256(hi_hit, wv));
            ++matches;
        }
    }
    alignas(32) std::int64_t lanes[8];
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc_lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes + 4), acc_hi);
    for (int t = 0; t < timesteps; ++t)
        correction[t] = lanes[t];
    *pseudo += p;
    *acc_ops += matches;
    *correction_ops += corrs;
    return matches;
}

#endif // LOAS_FUSED_AVX2

} // namespace

FusedJoinStats
fusedTemporalJoin(const SpikeFiberView& fiber_a,
                  const WeightFiberView& fiber_b, int timesteps,
                  bool collapse, std::int32_t* sums,
                  std::int64_t* correction)
{
    if (timesteps < 1 || timesteps > kMaxTimesteps)
        panic("fusedTemporalJoin: %d timesteps outside [1, %d]",
              timesteps, kMaxTimesteps);
    if (collapse && correction == nullptr)
        panic("fusedTemporalJoin: collapse path needs a correction "
              "buffer");
    if (fiber_a.bits != fiber_b.bits)
        panic("fusedTemporalJoin over mismatched mask sizes %zu vs %zu",
              fiber_a.bits, fiber_b.bits);

    const auto tcount = static_cast<std::size_t>(timesteps);
    const TimeWord all_ones =
        timesteps >= kMaxTimesteps
            ? ~TimeWord(0)
            : static_cast<TimeWord>((TimeWord(1) << timesteps) - 1);
#if LOAS_FUSED_AVX2
    const bool avx2 = timesteps <= kAvx2MaxTimesteps &&
                      kernels::resolvedIsa() == kernels::Isa::Avx2;
#endif

    FusedJoinStats stats;
    stats.collapsed = collapse;

    if (!collapse) {
        // Fan-out: one add per firing timestep of each match.
        for (std::size_t t = 0; t < tcount; ++t)
            sums[t] = 0;
#if LOAS_FUSED_AVX2
        if (avx2) {
            stats.matches = avx2FanoutJoin(fiber_a, fiber_b, timesteps,
                                           sums, &stats.acc_ops);
            return stats;
        }
#endif
        stats.matches =
            scalarFanoutJoin(fiber_a, fiber_b, sums, &stats.acc_ops);
        return stats;
    }

    // Collapse: speculate all-ones into one pseudo-accumulator, correct
    // only the zero bits. int64 intermediates — the pseudo sum can
    // exceed what any single timestep accumulates.
    std::int64_t pseudo = 0;
    for (std::size_t t = 0; t < tcount; ++t)
        correction[t] = 0;
#if LOAS_FUSED_AVX2
    if (avx2)
        stats.matches = avx2CollapseJoin(
            fiber_a, fiber_b, timesteps, all_ones, &pseudo, correction,
            &stats.acc_ops, &stats.correction_ops);
    else
#endif
        stats.matches = scalarCollapseJoin(
            fiber_a, fiber_b, all_ones, &pseudo, correction,
            &stats.acc_ops, &stats.correction_ops);
    // One subtract per timestep materializes the full sums (Eq. 1).
    for (std::size_t t = 0; t < tcount; ++t) {
        sums[t] = static_cast<std::int32_t>(pseudo - correction[t]);
        ++stats.correction_ops;
    }
    return stats;
}

} // namespace loas
