/**
 * @file
 * Bit-identity guarantees of the allocation-free, word-parallel
 * simulation kernels:
 *
 *  1. Golden RunResults: every registered design on the seed
 *     single-layer networks must reproduce the exact cycle, traffic,
 *     cache and op counts captured before the kernel rewrite (PR 3
 *     code), field for field.
 *  2. The word-parallel inner join must agree with a scalar reference
 *     reimplementation of the original kernel (per-position rank
 *     scans, std::deque FIFO) on every JoinResult field.
 *  3. Scratch reuse must be stateless: re-running execute() on a warm
 *     instance reproduces the cold run exactly.
 *
 * Re-capturing the golden table (only when the *modeled hardware*
 * legitimately changes): the DISABLED_PrintGoldenTable test below
 * prints both tables in source form — paste its output over the
 * kGolden* arrays. One-liner:
 *
 *   ./build/test_golden_identity --gtest_also_run_disabled_tests \
 *       --gtest_filter='*PrintGoldenTable*'
 *
 * Each row is, in order: total_cycles, compute_cycles, dram_cycles,
 * traffic.dramBytes(), traffic.sramBytes(), cache_hits,
 * cache_misses, ops.total() of
 * `registry.make(key)->runNetwork(generateNetwork(net, 101, ft), ...)`.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>

#include "api/registry.hh"
#include "common/bitutil.hh"
#include "common/rng.hh"
#include "core/inner_join.hh"
#include "tensor/ranked_bitmask.hh"
#include "workload/generator.hh"
#include "workload/networks.hh"

namespace loas {
namespace {

// ---------------------------------------------------------------------
// 1. Golden RunResults captured from the pre-rewrite simulators
//    (seed 101, the values every later change must keep reproducing).
// ---------------------------------------------------------------------

struct GoldenRun
{
    const char* key;
    std::uint64_t total_cycles, compute_cycles, dram_cycles;
    std::uint64_t dram_bytes, sram_bytes;
    std::uint64_t cache_hits, cache_misses, total_ops;
};

const GoldenRun kGoldenAlexnetL4[] = {
    {"gamma", 138135ull, 138135ull, 1525ull, 243968ull, 19010114ull,
     200113ull, 3259ull, 2055940ull},
    {"gospa", 220197ull, 217432ull, 3716ull, 594448ull, 2927816ull,
     635835ull, 2095ull, 1478768ull},
    {"loas", 49031ull, 48807ull, 1232ull, 197097ull, 7864368ull,
     260312ull, 2972ull, 3719868ull},
    {"loas-ft", 46068ull, 45881ull, 1179ull, 188501ull, 7823001ull,
     237770ull, 2858ull, 3100510ull},
    {"sparten", 316984ull, 316932ull, 1501ull, 240128ull, 28796816ull,
     497440ull, 3624ull, 3044868ull},
    {"stellar", 919536ull, 919536ull, 6272ull, 1003520ull, 18118656ull,
     0ull, 0ull, 55214080ull},
    {"systolic", 3594528ull, 3594528ull, 6272ull, 1003520ull,
     71663616ull, 0ull, 0ull, 55214080ull},
};

const GoldenRun kGoldenVgg16L8[] = {
    {"gamma", 45461ull, 45461ull, 1286ull, 205671ull, 4796221ull,
     15311ull, 2284ull, 734354ull},
    {"gospa", 31608ull, 30317ull, 1849ull, 295695ull, 1828600ull,
     310590ull, 3030ull, 625485ull},
    {"loas", 22408ull, 22393ull, 1249ull, 199715ull, 2720697ull,
     83824ull, 3064ull, 2079933ull},
    {"loas-ft", 17914ull, 17898ull, 1232ull, 196989ull, 2661075ull,
     69937ull, 3035ull, 1230960ull},
    {"sparten", 120593ull, 120567ull, 1310ull, 209600ull, 9624229ull,
     164536ull, 3211ull, 1197714ull},
    {"stellar", 215488ull, 215488ull, 7514ull, 1202176ull, 3994848ull,
     0ull, 0ull, 9041408ull},
    {"systolic", 1253952ull, 1253952ull, 7514ull, 1202176ull,
     24772608ull, 0ull, 0ull, 9041408ull},
};

void
expectGolden(const NetworkSpec& net, const GoldenRun* golden,
             std::size_t count)
{
    const auto& registry = AcceleratorRegistry::instance();
    // The golden table must cover every registered design: a new
    // backend needs a captured row before it ships.
    EXPECT_EQ(registry.keys().size(), count);
    for (std::size_t i = 0; i < count; ++i) {
        const GoldenRun& want = golden[i];
        SCOPED_TRACE(net.name + " / " + want.key);
        const bool ft = registry.entry(want.key).ft_workload;
        const auto layers = generateNetwork(net, 101, ft);
        const RunResult r =
            registry.make(want.key)->runNetwork(layers, net.name);
        EXPECT_EQ(r.total_cycles, want.total_cycles);
        EXPECT_EQ(r.compute_cycles, want.compute_cycles);
        EXPECT_EQ(r.dram_cycles, want.dram_cycles);
        EXPECT_EQ(r.traffic.dramBytes(), want.dram_bytes);
        EXPECT_EQ(r.traffic.sramBytes(), want.sram_bytes);
        EXPECT_EQ(r.cache_hits, want.cache_hits);
        EXPECT_EQ(r.cache_misses, want.cache_misses);
        EXPECT_EQ(r.ops.total(), want.total_ops);
    }
}

TEST(GoldenIdentity, AlexnetL4AllDesigns)
{
    expectGolden(NetworkSpec{"alexnet-l4", {tables::alexnetL4()}},
                 kGoldenAlexnetL4, std::size(kGoldenAlexnetL4));
}

TEST(GoldenIdentity, Vgg16L8AllDesigns)
{
    expectGolden(NetworkSpec{"vgg16-l8", {tables::vgg16L8()}},
                 kGoldenVgg16L8, std::size(kGoldenVgg16L8));
}

// Re-capture helper (see the file header): prints both golden tables
// in source form. Disabled so it never runs in CI; invoke it with
// --gtest_also_run_disabled_tests when the modeled hardware changes.
TEST(GoldenIdentity, DISABLED_PrintGoldenTable)
{
    const auto& registry = AcceleratorRegistry::instance();
    const NetworkSpec nets[] = {
        {"alexnet-l4", {tables::alexnetL4()}},
        {"vgg16-l8", {tables::vgg16L8()}},
    };
    for (const auto& net : nets) {
        std::printf("// %s (seed 101)\n", net.name.c_str());
        for (const auto& key : registry.keys()) {
            const bool ft = registry.entry(key).ft_workload;
            const auto layers = generateNetwork(net, 101, ft);
            const RunResult r =
                registry.make(key)->runNetwork(layers, net.name);
            std::printf("    {\"%s\", %lluull, %lluull, %lluull, "
                        "%lluull, %lluull, %lluull, %lluull, "
                        "%lluull},\n",
                        key.c_str(),
                        static_cast<unsigned long long>(r.total_cycles),
                        static_cast<unsigned long long>(
                            r.compute_cycles),
                        static_cast<unsigned long long>(r.dram_cycles),
                        static_cast<unsigned long long>(
                            r.traffic.dramBytes()),
                        static_cast<unsigned long long>(
                            r.traffic.sramBytes()),
                        static_cast<unsigned long long>(r.cache_hits),
                        static_cast<unsigned long long>(r.cache_misses),
                        static_cast<unsigned long long>(r.ops.total()));
        }
    }
}

// ---------------------------------------------------------------------
// 2. Scalar reference join: the original kernel, kept verbatim as the
//    semantic specification of the word-parallel rewrite.
// ---------------------------------------------------------------------

JoinResult
referenceScalarJoin(const InnerJoinConfig& config, int timesteps,
                    const SpikeFiber& fiber_a, const WeightFiber& fiber_b)
{
    const std::size_t k = fiber_a.mask.size();
    const std::size_t chunk_bits = config.chunk_bits;
    const std::uint64_t laggy_latency = config.laggyLatency();
    const TimeWord all_ones =
        timesteps >= kMaxTimesteps
            ? ~TimeWord{0}
            : static_cast<TimeWord>((TimeWord{1} << timesteps) - 1);

    JoinResult result;
    result.sums.assign(static_cast<std::size_t>(timesteps), 0);

    std::int64_t pseudo = 0;
    std::vector<std::int64_t> correction(
        static_cast<std::size_t>(timesteps), 0);

    std::uint64_t now = config.setup_cycles;
    std::uint64_t prev_check = 0;
    std::uint64_t last_event = now;
    std::deque<std::uint64_t> inflight_checks;

    const std::size_t value_bytes =
        static_cast<std::size_t>(ceilDiv(timesteps, 8));

    for (std::size_t chunk_lo = 0; chunk_lo < k; chunk_lo += chunk_bits) {
        const std::size_t chunk_hi = std::min(chunk_lo + chunk_bits, k);

        const std::uint64_t and_done = now + 1;
        result.ops.mask_and_ops += 1;
        now = and_done;
        last_event = std::max(last_event, and_done);

        std::vector<std::uint32_t> matched;
        for (const auto pos :
             fiber_a.mask.setBitsInRange(chunk_lo, chunk_hi))
            if (fiber_b.mask.test(pos))
                matched.push_back(pos);
        if (matched.empty())
            continue;

        const std::uint64_t laggy_ready = and_done + laggy_latency;
        result.ops.laggy_prefix_ops += laggy_latency;

        for (const auto pos : matched) {
            std::uint64_t emit = now + 1;
            while (inflight_checks.size() >= config.fifo_depth) {
                emit = std::max(emit, inflight_checks.front() + 1);
                inflight_checks.pop_front();
            }
            now = emit;
            result.ops.fast_prefix_ops += 1;
            result.ops.fifo_ops += 2;

            const std::size_t b_off = fiber_b.mask.rank(pos);
            const std::int32_t weight = fiber_b.values[b_off];
            pseudo += weight;
            result.ops.acc_ops += 1;

            const std::uint64_t check =
                std::max({prev_check + 1, laggy_ready, emit + 1});
            prev_check = check;
            inflight_checks.push_back(check);
            result.ops.fifo_ops += 2;

            const std::size_t a_off = fiber_a.mask.rank(pos);
            const TimeWord spike_word = fiber_a.values[a_off];
            result.spike_value_bytes += value_bytes;
            result.matched_offsets_a.push_back(
                static_cast<std::uint32_t>(a_off));
            if (spike_word != all_ones) {
                result.corrections += 1;
                for (int t = 0; t < timesteps; ++t) {
                    if (!((spike_word >> t) & 1u)) {
                        correction[static_cast<std::size_t>(t)] += weight;
                        result.ops.correction_ops += 1;
                    }
                }
            }
            result.matches += 1;
            last_event = std::max(last_event, check);
        }
    }

    for (int t = 0; t < timesteps; ++t) {
        const auto ts = static_cast<std::size_t>(t);
        result.sums[ts] = static_cast<std::int32_t>(
            pseudo - correction[ts]);
        result.ops.correction_ops += 1;
    }

    result.cycles = last_event + config.drain_cycles;
    return result;
}

std::pair<SpikeFiber, WeightFiber>
makeFibers(std::size_t k, double da, double db, int timesteps,
           std::uint64_t seed)
{
    Rng rng(seed);
    SpikeFiber fa;
    fa.mask = Bitmask(k);
    WeightFiber fb;
    fb.mask = Bitmask(k);
    const TimeWord word_mask =
        timesteps >= kMaxTimesteps
            ? ~TimeWord{0}
            : static_cast<TimeWord>((TimeWord{1} << timesteps) - 1);
    for (std::size_t i = 0; i < k; ++i) {
        if (rng.bernoulli(da)) {
            fa.mask.set(i);
            fa.values.push_back(static_cast<TimeWord>(
                1 + rng.uniformInt(static_cast<int>(word_mask) - 1)));
        }
        if (rng.bernoulli(db)) {
            fb.mask.set(i);
            fb.values.push_back(
                static_cast<std::int32_t>(rng.uniformInt(255)) - 127);
        }
    }
    return {fa, fb};
}

void
expectJoinResultsEqual(const JoinResult& got, const JoinResult& want)
{
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.sums, want.sums);
    EXPECT_EQ(got.matches, want.matches);
    EXPECT_EQ(got.corrections, want.corrections);
    EXPECT_EQ(got.spike_value_bytes, want.spike_value_bytes);
    EXPECT_EQ(got.matched_offsets_a, want.matched_offsets_a);
    EXPECT_EQ(got.ops.total(), want.ops.total());
    EXPECT_EQ(got.ops.acc_ops, want.ops.acc_ops);
    EXPECT_EQ(got.ops.correction_ops, want.ops.correction_ops);
    EXPECT_EQ(got.ops.fast_prefix_ops, want.ops.fast_prefix_ops);
    EXPECT_EQ(got.ops.laggy_prefix_ops, want.ops.laggy_prefix_ops);
    EXPECT_EQ(got.ops.fifo_ops, want.ops.fifo_ops);
    EXPECT_EQ(got.ops.mask_and_ops, want.ops.mask_and_ops);
}

TEST(WordParallelJoin, MatchesScalarReferenceAcrossShapes)
{
    // k values straddle word boundaries; chunk widths include one that
    // is not a multiple of 64, exercising the masked range words.
    const std::size_t ks[] = {1, 63, 64, 65, 130, 512, 2304};
    const std::size_t chunks[] = {32, 100, 128};
    const double densities[][2] = {{0.25, 0.03}, {0.9, 0.9}, {0.05, 0.5}};
    for (const auto k : ks) {
        for (const auto chunk : chunks) {
            for (const auto& d : densities) {
                InnerJoinConfig config;
                config.chunk_bits = chunk;
                const int timesteps = 4;
                const InnerJoinUnit unit(config, timesteps);
                const auto [fa, fb] =
                    makeFibers(k, d[0], d[1], timesteps, k * 31 + chunk);
                SCOPED_TRACE("k=" + std::to_string(k) + " chunk=" +
                             std::to_string(chunk));
                expectJoinResultsEqual(
                    unit.join(fa, fb),
                    referenceScalarJoin(config, timesteps, fa, fb));
            }
        }
    }
}

TEST(WordParallelJoin, MatchesScalarReferenceDeepTimesteps)
{
    // T = kMaxTimesteps exercises the all-ones word with every bit set.
    InnerJoinConfig config;
    const int timesteps = kMaxTimesteps;
    const InnerJoinUnit unit(config, timesteps);
    const auto [fa, fb] = makeFibers(777, 0.5, 0.4, timesteps, 99);
    expectJoinResultsEqual(
        unit.join(fa, fb),
        referenceScalarJoin(config, timesteps, fa, fb));
}

TEST(WordParallelJoin, ScratchReuseIsStateless)
{
    const InnerJoinUnit unit(InnerJoinConfig{}, 4);
    const auto [fa1, fb1] = makeFibers(520, 0.4, 0.2, 4, 1);
    const auto [fa2, fb2] = makeFibers(520, 0.1, 0.8, 4, 2);
    const RankedBitmask ra1(fa1.mask), rb1(fb1.mask);
    const RankedBitmask ra2(fa2.mask), rb2(fb2.mask);

    // One scratch reused across different fiber pairs must reproduce
    // the fresh-scratch (convenience API) results exactly.
    JoinScratch scratch;
    const JoinResult first = unit.join(
        fiberView(fa1, ra1), fiberView(fb1, rb1), scratch); // a copy
    const JoinResult second =
        unit.join(fiberView(fa2, ra2), fiberView(fb2, rb2), scratch);
    expectJoinResultsEqual(first, unit.join(fa1, fb1));
    expectJoinResultsEqual(second, unit.join(fa2, fb2));
}

// ---------------------------------------------------------------------
// 3. Warm-instance determinism: execute() scratch must carry no state
//    between layers.
// ---------------------------------------------------------------------

TEST(GoldenIdentity, WarmExecuteReproducesColdRun)
{
    const auto& registry = AcceleratorRegistry::instance();
    const NetworkSpec net{"alexnet-l4", {tables::alexnetL4()}};
    for (const auto& key : registry.keys()) {
        SCOPED_TRACE(key);
        const bool ft = registry.entry(key).ft_workload;
        const auto layers = generateNetwork(net, 101, ft);
        const auto instance = registry.make(key);
        const CompiledLayer compiled = instance->prepare(layers[0]);
        const RunResult cold = instance->execute(compiled);
        const RunResult warm = instance->execute(compiled);
        EXPECT_EQ(cold.total_cycles, warm.total_cycles);
        EXPECT_EQ(cold.compute_cycles, warm.compute_cycles);
        EXPECT_EQ(cold.dram_cycles, warm.dram_cycles);
        EXPECT_EQ(cold.traffic.dramBytes(), warm.traffic.dramBytes());
        EXPECT_EQ(cold.traffic.sramBytes(), warm.traffic.sramBytes());
        EXPECT_EQ(cold.cache_hits, warm.cache_hits);
        EXPECT_EQ(cold.cache_misses, warm.cache_misses);
        EXPECT_EQ(cold.ops.total(), warm.ops.total());
    }
}

} // namespace
} // namespace loas
