/** @file Tests for the cycle-level FTP-friendly inner-join unit. */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "common/bitutil.hh"
#include "common/rng.hh"
#include "core/inner_join.hh"
#include "tensor/compress.hh"
#include "tensor/ranked_bitmask.hh"

namespace loas {
namespace {

SpikeFiber
makeSpikeFiber(std::size_t k,
               const std::vector<std::pair<std::size_t, TimeWord>>& nz)
{
    SpikeFiber f;
    f.mask = Bitmask(k);
    for (const auto& [pos, w] : nz) {
        f.mask.set(pos);
        f.values.push_back(w);
    }
    return f;
}

WeightFiber
makeWeightFiber(std::size_t k,
                const std::vector<std::pair<std::size_t, std::int32_t>>&
                    nz)
{
    WeightFiber f;
    f.mask = Bitmask(k);
    for (const auto& [pos, v] : nz) {
        f.mask.set(pos);
        f.values.push_back(v);
    }
    return f;
}

TEST(InnerJoin, Fig10WalkThrough)
{
    // The fiber pair of Fig. 10: five positions; a2 matches with word
    // 1111 (prediction correct, b2 discarded from correction) and a4
    // with 1010 (prediction wrong at t0 and t2... bit order: spikes at
    // t1 and t3), so b4 is corrected into the accumulators of the
    // missing timesteps.
    const SpikeFiber fa =
        makeSpikeFiber(5, {{2, 0b1111}, {4, 0b1010}});
    const WeightFiber fb =
        makeWeightFiber(5, {{0, 10}, {2, 20}, {4, 30}});

    const InnerJoinUnit unit(InnerJoinConfig{}, 4);
    const JoinResult r = unit.join(fa, fb);

    EXPECT_EQ(r.matches, 2u);
    EXPECT_EQ(r.corrections, 1u);
    // pseudo = 20 + 30; corrections remove 30 from t0 and t2.
    EXPECT_EQ(r.sums[0], 20);
    EXPECT_EQ(r.sums[1], 50);
    EXPECT_EQ(r.sums[2], 20);
    EXPECT_EQ(r.sums[3], 50);
}

TEST(InnerJoin, EmptyIntersection)
{
    const SpikeFiber fa = makeSpikeFiber(256, {{0, 0b0001}});
    const WeightFiber fb = makeWeightFiber(256, {{5, 9}});
    const InnerJoinUnit unit(InnerJoinConfig{}, 4);
    const JoinResult r = unit.join(fa, fb);
    EXPECT_EQ(r.matches, 0u);
    for (const auto s : r.sums)
        EXPECT_EQ(s, 0);
    // Still pays the chunk scans plus setup/drain.
    const InnerJoinConfig config;
    EXPECT_GE(r.cycles, 2u); // 256/128 chunks
    EXPECT_LE(r.cycles,
              config.setup_cycles + 2 + config.drain_cycles + 1);
}

TEST(InnerJoin, AllOnesNeedNoCorrection)
{
    // Dense spike words (neuron fires every timestep): the pseudo
    // accumulation is always right, as in the paper's dense argument.
    SpikeFiber fa;
    fa.mask = Bitmask(128);
    WeightFiber fb;
    fb.mask = Bitmask(128);
    for (std::size_t i = 0; i < 128; ++i) {
        fa.mask.set(i);
        fa.values.push_back(0b1111);
        fb.mask.set(i);
        fb.values.push_back(1);
    }
    const InnerJoinUnit unit(InnerJoinConfig{}, 4);
    const JoinResult r = unit.join(fa, fb);
    EXPECT_EQ(r.matches, 128u);
    EXPECT_EQ(r.corrections, 0u);
    EXPECT_EQ(r.ops.correction_ops, 4u); // only the final subtraction
    for (const auto s : r.sums)
        EXPECT_EQ(s, 128);
}

TEST(InnerJoin, CyclesLowerBoundedByChunksAndMatches)
{
    Rng rng(4);
    SpikeFiber fa;
    fa.mask = Bitmask(512);
    WeightFiber fb;
    fb.mask = Bitmask(512);
    for (std::size_t i = 0; i < 512; ++i) {
        if (rng.bernoulli(0.5)) {
            fa.mask.set(i);
            fa.values.push_back(
                static_cast<TimeWord>(1 + rng.uniformInt(15)));
        }
        if (rng.bernoulli(0.5)) {
            fb.mask.set(i);
            fb.values.push_back(1);
        }
    }
    const InnerJoinConfig config;
    const InnerJoinUnit unit(config, 4);
    const JoinResult r = unit.join(fa, fb);
    const std::uint64_t chunks = 512 / config.chunk_bits;
    EXPECT_GE(r.cycles, chunks);
    EXPECT_GE(r.cycles, r.matches);
    // And within a small envelope of the ideal pipeline.
    EXPECT_LE(r.cycles, config.setup_cycles + chunks + r.matches +
                            config.laggyLatency() +
                            config.drain_cycles + r.matches / 4 + 4);
}

TEST(InnerJoin, OpCountsConsistent)
{
    const SpikeFiber fa =
        makeSpikeFiber(128, {{1, 0b0101}, {2, 0b0010}, {100, 0b1000}});
    const WeightFiber fb =
        makeWeightFiber(128, {{1, 3}, {100, -5}, {101, 7}});
    const InnerJoinUnit unit(InnerJoinConfig{}, 4);
    const JoinResult r = unit.join(fa, fb);
    EXPECT_EQ(r.matches, 2u);
    EXPECT_EQ(r.ops.acc_ops, 2u);          // one per match
    EXPECT_EQ(r.ops.fast_prefix_ops, 2u);  // one per match
    EXPECT_EQ(r.ops.fifo_ops, 8u);         // 2 push + 2 pop per match
    EXPECT_EQ(r.ops.mask_and_ops, 1u);     // one 128-bit chunk
    // a1 = 0101 corrects t1,t3; a100 = 1000 corrects t0,t1,t2; plus
    // final subtraction of 4.
    EXPECT_EQ(r.ops.correction_ops, 2u + 3u + 4u);
}

TEST(InnerJoin, FifoBackpressureSlowsDenseChunks)
{
    // A chunk with every position matched must stall once the depth-8
    // FIFO fills faster than the laggy path drains.
    SpikeFiber fa;
    fa.mask = Bitmask(128);
    WeightFiber fb;
    fb.mask = Bitmask(128);
    for (std::size_t i = 0; i < 128; ++i) {
        fa.mask.set(i);
        fa.values.push_back(0b0101);
        fb.mask.set(i);
        fb.values.push_back(2);
    }
    InnerJoinConfig deep;
    deep.fifo_depth = 1024;
    InnerJoinConfig shallow;
    shallow.fifo_depth = 2;
    const JoinResult fast = InnerJoinUnit(deep, 4).join(fa, fb);
    const JoinResult slow = InnerJoinUnit(shallow, 4).join(fa, fb);
    EXPECT_GE(slow.cycles, fast.cycles);
    EXPECT_EQ(slow.sums, fast.sums); // functionally identical
}

TEST(InnerJoin, MatchedOffsetsIndexFiberValues)
{
    const SpikeFiber fa = makeSpikeFiber(
        128, {{0, 0b0001}, {5, 0b0011}, {64, 0b1000}});
    const WeightFiber fb = makeWeightFiber(128, {{5, 1}, {64, 1}});
    const InnerJoinUnit unit(InnerJoinConfig{}, 4);
    const JoinResult r = unit.join(fa, fb);
    ASSERT_EQ(r.matched_offsets_a.size(), 2u);
    EXPECT_EQ(r.matched_offsets_a[0], 1u); // a5 is the 2nd stored value
    EXPECT_EQ(r.matched_offsets_a[1], 2u);
}

/**
 * Reference model: the per-chunk join loop the live-chunk kernel
 * replaced, kept verbatim in behaviour. Every chunk pays its AND
 * cycle and is scanned bit by bit; chunks with a match start the
 * laggy circuit and push each match through a depth-bounded FIFO.
 */
JoinResult
referenceJoin(const InnerJoinConfig& config, int timesteps,
              const SpikeFiber& fa, const WeightFiber& fb)
{
    JoinResult r;
    r.sums.assign(static_cast<std::size_t>(timesteps), 0);
    const std::size_t k = fa.mask.size();
    const std::uint64_t laggy_latency = config.laggyLatency();
    const TimeWord all_ones =
        timesteps >= kMaxTimesteps
            ? ~TimeWord{0}
            : static_cast<TimeWord>((TimeWord{1} << timesteps) - 1);
    std::int64_t pseudo = 0;
    std::vector<std::int64_t> correction(
        static_cast<std::size_t>(timesteps), 0);
    std::uint64_t now = config.setup_cycles;
    std::uint64_t prev_check = 0;
    std::uint64_t last_event = now;
    std::deque<std::uint64_t> fifo;

    for (std::size_t lo = 0; lo < k; lo += config.chunk_bits) {
        const std::size_t hi = std::min(lo + config.chunk_bits, k);
        const std::uint64_t and_done = now + 1;
        r.ops.mask_and_ops += 1;
        now = and_done;
        last_event = std::max(last_event, and_done);

        std::vector<std::size_t> hits;
        for (std::size_t pos = lo; pos < hi; ++pos)
            if (fa.mask.test(pos) && fb.mask.test(pos))
                hits.push_back(pos);
        if (hits.empty())
            continue;
        const std::uint64_t laggy_ready = and_done + laggy_latency;
        r.ops.laggy_prefix_ops += laggy_latency;

        for (const std::size_t pos : hits) {
            std::uint64_t emit = now + 1;
            while (fifo.size() >= config.fifo_depth) {
                emit = std::max(emit, fifo.front() + 1);
                fifo.pop_front();
            }
            now = emit;
            r.ops.fast_prefix_ops += 1;
            r.ops.fifo_ops += 2;

            const std::int32_t weight = fb.values[fb.mask.rank(pos)];
            pseudo += weight;
            r.ops.acc_ops += 1;

            const std::uint64_t check =
                std::max({prev_check + 1, laggy_ready, emit + 1});
            prev_check = check;
            fifo.push_back(check);
            r.ops.fifo_ops += 2;

            const std::size_t a_off = fa.mask.rank(pos);
            const TimeWord spike_word = fa.values[a_off];
            r.spike_value_bytes += ceilDiv(timesteps, 8);
            r.matched_offsets_a.push_back(
                static_cast<std::uint32_t>(a_off));
            if (spike_word != all_ones) {
                r.corrections += 1;
                for (int t = 0; t < timesteps; ++t) {
                    if (!((spike_word >> t) & 1u)) {
                        correction[static_cast<std::size_t>(t)] += weight;
                        r.ops.correction_ops += 1;
                    }
                }
            }
            r.matches += 1;
            last_event = std::max(last_event, check);
        }
    }
    for (int t = 0; t < timesteps; ++t) {
        const auto ts = static_cast<std::size_t>(t);
        r.sums[ts] = static_cast<std::int32_t>(pseudo - correction[ts]);
        r.ops.correction_ops += 1;
    }
    r.cycles = last_event + config.drain_cycles;
    return r;
}

void
expectSameJoin(const JoinResult& got, const JoinResult& want)
{
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.sums, want.sums);
    EXPECT_EQ(got.matches, want.matches);
    EXPECT_EQ(got.corrections, want.corrections);
    EXPECT_EQ(got.spike_value_bytes, want.spike_value_bytes);
    EXPECT_EQ(got.matched_offsets_a, want.matched_offsets_a);
    EXPECT_EQ(got.ops.acc_ops, want.ops.acc_ops);
    EXPECT_EQ(got.ops.correction_ops, want.ops.correction_ops);
    EXPECT_EQ(got.ops.mac_ops, want.ops.mac_ops);
    EXPECT_EQ(got.ops.fast_prefix_ops, want.ops.fast_prefix_ops);
    EXPECT_EQ(got.ops.laggy_prefix_ops, want.ops.laggy_prefix_ops);
    EXPECT_EQ(got.ops.fifo_ops, want.ops.fifo_ops);
    EXPECT_EQ(got.ops.lif_ops, want.ops.lif_ops);
    EXPECT_EQ(got.ops.mask_and_ops, want.ops.mask_and_ops);
    EXPECT_EQ(got.ops.merge_ops, want.ops.merge_ops);
    EXPECT_EQ(got.ops.encode_ops, want.ops.encode_ops);
}

/** A fiber pair plus the name it is reported under. */
struct FiberPair
{
    std::string name;
    SpikeFiber a;
    WeightFiber b;
};

/**
 * Seeded fiber pair of length k: each position is stored in the spike
 * fiber with probability `spike_density` (temporal word uniform in
 * [1, all_ones], or all ones when `all_ones_words`), and in the weight
 * fiber with probability `weight_density` (non-zero weight).
 */
FiberPair
randomPair(const std::string& name, std::size_t k, int timesteps,
           double spike_density, double weight_density,
           bool all_ones_words, std::uint64_t seed)
{
    Rng rng(seed);
    const TimeWord all_ones =
        timesteps >= kMaxTimesteps
            ? ~TimeWord{0}
            : static_cast<TimeWord>((TimeWord{1} << timesteps) - 1);
    FiberPair p;
    p.name = name;
    p.a.mask = Bitmask(k);
    p.b.mask = Bitmask(k);
    for (std::size_t i = 0; i < k; ++i) {
        if (rng.bernoulli(spike_density)) {
            p.a.mask.set(i);
            p.a.values.push_back(
                all_ones_words
                    ? all_ones
                    : static_cast<TimeWord>(1 + rng.uniformInt(all_ones)));
        }
        if (rng.bernoulli(weight_density)) {
            p.b.mask.set(i);
            const auto magnitude =
                static_cast<std::int32_t>(1 + rng.uniformInt(200));
            p.b.values.push_back(rng.bernoulli(0.5) ? magnitude
                                                    : -magnitude);
        }
    }
    return p;
}

/** The shapes of the differential grid for one configuration. */
std::vector<FiberPair>
differentialShapes(std::size_t chunk_bits, int timesteps,
                   std::uint64_t seed)
{
    std::vector<FiberPair> shapes;
    shapes.push_back(randomPair("empty", 0, timesteps, 0.5, 0.5, false,
                                seed));
    shapes.push_back(randomPair("all-ones words", 2 * chunk_bits + 77,
                                timesteps, 0.4, 0.5, true, seed + 1));
    // One match, at the very last position of a partial last chunk.
    const std::size_t lone_k = 3 * chunk_bits + 5;
    FiberPair lone = randomPair("lone last match", lone_k, timesteps,
                                0.3, 0.0, false, seed + 2);
    lone.b.mask.set(lone_k - 1);
    lone.b.values.push_back(-9);
    if (!lone.a.mask.test(lone_k - 1)) {
        // Insert the spike word at its rank so values stay in order.
        const std::size_t at = lone.a.mask.rank(lone_k - 1);
        lone.a.mask.set(lone_k - 1);
        lone.a.values.insert(lone.a.values.begin() +
                                 static_cast<std::ptrdiff_t>(at),
                             TimeWord{1});
    }
    shapes.push_back(std::move(lone));
    // Every position matched: the FIFO fills in every chunk.
    shapes.push_back(randomPair("dense chunks",
                                2 * std::max<std::size_t>(chunk_bits, 64),
                                timesteps, 1.0, 1.0, false, seed + 3));
    for (const double density : {0.02, 0.3, 0.8})
        shapes.push_back(randomPair(
            "random " + std::to_string(density),
            1 + static_cast<std::size_t>(seed % 700), timesteps, density,
            0.6, false, seed + 4));
    shapes.push_back(randomPair("long sparse", 9000, timesteps, 0.05, 0.3,
                                false, seed + 5));
    return shapes;
}

TEST(InnerJoinDifferential, LiveChunkKernelMatchesPerChunkReference)
{
    std::uint64_t seed = 1;
    for (const std::size_t chunk_bits : {1, 63, 64, 100, 128, 200, 4096}) {
        for (const std::size_t fifo_depth : {1, 2, 8}) {
            for (const int adders : {1, 16}) {
                for (const int timesteps : {1, 4, 8, 16, 32}) {
                    InnerJoinConfig config;
                    config.chunk_bits = chunk_bits;
                    config.fifo_depth = fifo_depth;
                    config.laggy_adders = adders;
                    const InnerJoinUnit unit(config, timesteps);
                    JoinScratch scratch; // reused across every shape
                    for (const FiberPair& p : differentialShapes(
                             chunk_bits, timesteps, seed++ * 7919)) {
                        SCOPED_TRACE(
                            p.name + " chunk=" +
                            std::to_string(chunk_bits) +
                            " fifo=" + std::to_string(fifo_depth) +
                            " adders=" + std::to_string(adders) +
                            " T=" + std::to_string(timesteps));
                        const RankedBitmask ra(p.a.mask);
                        const RankedBitmask rb(p.b.mask);
                        expectSameJoin(
                            unit.join(fiberView(p.a, ra),
                                      fiberView(p.b, rb), scratch),
                            referenceJoin(config, timesteps, p.a, p.b));
                    }
                }
            }
        }
    }
}

/**
 * Property sweep: the join's functional output equals the brute-force
 * per-timestep dot product for random fibers (the core correctness
 * claim of the pseudo-accumulator + correction scheme).
 */
class InnerJoinProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(InnerJoinProperty, MatchesBruteForce)
{
    const int seed = std::get<0>(GetParam());
    const int timesteps = std::get<1>(GetParam());
    Rng rng(static_cast<std::uint64_t>(seed) * 1000 + timesteps);
    const std::size_t k = 1 + rng.uniformInt(700);

    SpikeFiber fa;
    fa.mask = Bitmask(k);
    WeightFiber fb;
    fb.mask = Bitmask(k);
    std::vector<TimeWord> dense_a(k, 0);
    std::vector<std::int32_t> dense_b(k, 0);
    const TimeWord word_cap = (timesteps >= 32)
                                  ? ~TimeWord{0}
                                  : ((TimeWord{1} << timesteps) - 1);
    for (std::size_t i = 0; i < k; ++i) {
        if (rng.bernoulli(0.35)) {
            const TimeWord w = 1 + static_cast<TimeWord>(
                                       rng.uniformInt(word_cap));
            dense_a[i] = w;
            fa.mask.set(i);
            fa.values.push_back(w);
        }
        if (rng.bernoulli(0.3)) {
            const auto v = static_cast<std::int32_t>(
                               rng.uniformInt(255)) - 127;
            if (v != 0) {
                dense_b[i] = v;
                fb.mask.set(i);
                fb.values.push_back(v);
            }
        }
    }

    const InnerJoinUnit unit(InnerJoinConfig{}, timesteps);
    const JoinResult r = unit.join(fa, fb);

    for (int t = 0; t < timesteps; ++t) {
        std::int32_t expected = 0;
        for (std::size_t i = 0; i < k; ++i)
            if ((dense_a[i] >> t) & 1u)
                expected += dense_b[i];
        EXPECT_EQ(r.sums[static_cast<std::size_t>(t)], expected)
            << "t=" << t << " k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InnerJoinProperty,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(1, 2, 4, 8, 16)));

} // namespace
} // namespace loas
