/**
 * @file
 * The runtime-dispatched SIMD kernel layer must be invisible in every
 * result:
 *
 *  1. Kernel identity: andPopcountWords / firstMatchWord of every
 *     ISA the host supports agree with the scalar table on word
 *     counts covering empty, single-word, partial-tail and
 *     multi-block inputs, dense and sparse; the fused fan-out and
 *     collapse kernels agree with scalar across timestep widths
 *     spanning each ISA's vector-lane fast path and its scalar
 *     fallback.
 *  2. Golden matrix: every registered design run under
 *     {scalar, best ISA} reproduces the scalar RunResult field for
 *     field.
 *  3. ANN disk-cache identity: a prepareAnn artifact round-trips
 *     through a cold CompiledCache attached to a warm disk dir with
 *     zero compile time and an identical RunResult.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "api/registry.hh"
#include "baselines/gamma.hh"
#include "baselines/sparten.hh"
#include "common/rng.hh"
#include "core/fused_join.hh"
#include "core/kernel_dispatch.hh"
#include "workload/compiled_cache.hh"
#include "workload/generator.hh"
#include "workload/networks.hh"

namespace loas {
namespace {

namespace fs = std::filesystem;

/** Restores the process ISA on scope exit, whatever the test did. */
class IsaGuard
{
  public:
    IsaGuard() : saved_(kernels::resolvedIsa()) {}
    ~IsaGuard() { kernels::setIsa(saved_); }

  private:
    kernels::Isa saved_;
};

/** Every ISA this host can actually run. */
std::vector<kernels::Isa>
supportedIsas()
{
    std::vector<kernels::Isa> isas;
    for (const auto isa : {kernels::Isa::Scalar, kernels::Isa::Avx2,
                           kernels::Isa::Avx512})
        if (kernels::isaSupported(isa))
            isas.push_back(isa);
    return isas;
}

void
expectRunResultEq(const RunResult& a, const RunResult& b,
                  const std::string& what)
{
    EXPECT_EQ(a.accel, b.accel) << what;
    EXPECT_EQ(a.workload, b.workload) << what;
    EXPECT_EQ(a.compute_cycles, b.compute_cycles) << what;
    EXPECT_EQ(a.dram_cycles, b.dram_cycles) << what;
    EXPECT_EQ(a.total_cycles, b.total_cycles) << what;
    EXPECT_EQ(a.cache_hits, b.cache_hits) << what;
    EXPECT_EQ(a.cache_misses, b.cache_misses) << what;
    EXPECT_EQ(a.ops.acc_ops, b.ops.acc_ops) << what;
    EXPECT_EQ(a.ops.correction_ops, b.ops.correction_ops) << what;
    EXPECT_EQ(a.ops.mac_ops, b.ops.mac_ops) << what;
    EXPECT_EQ(a.ops.fast_prefix_ops, b.ops.fast_prefix_ops) << what;
    EXPECT_EQ(a.ops.laggy_prefix_ops, b.ops.laggy_prefix_ops) << what;
    EXPECT_EQ(a.ops.fifo_ops, b.ops.fifo_ops) << what;
    EXPECT_EQ(a.ops.lif_ops, b.ops.lif_ops) << what;
    EXPECT_EQ(a.ops.mask_and_ops, b.ops.mask_and_ops) << what;
    EXPECT_EQ(a.ops.merge_ops, b.ops.merge_ops) << what;
    EXPECT_EQ(a.ops.encode_ops, b.ops.encode_ops) << what;
    for (int c = 0; c < kNumCategories; ++c) {
        EXPECT_EQ(a.traffic.dram_read[c], b.traffic.dram_read[c])
            << what << " category " << c;
        EXPECT_EQ(a.traffic.dram_write[c], b.traffic.dram_write[c])
            << what << " category " << c;
        EXPECT_EQ(a.traffic.sram_read[c], b.traffic.sram_read[c])
            << what << " category " << c;
        EXPECT_EQ(a.traffic.sram_write[c], b.traffic.sram_write[c])
            << what << " category " << c;
    }
}

// ---------------------------------------------------------------------
// 1. Kernel identity across ISAs.
// ---------------------------------------------------------------------

TEST(KernelDispatch, IsaNamesRoundTrip)
{
    for (const auto isa : {kernels::Isa::Scalar, kernels::Isa::Avx2,
                           kernels::Isa::Avx512}) {
        kernels::Isa parsed;
        ASSERT_TRUE(kernels::parseIsa(kernels::isaName(isa), &parsed));
        EXPECT_EQ(parsed, isa);
    }
    kernels::Isa parsed;
    EXPECT_FALSE(kernels::parseIsa("sse9", &parsed));
    EXPECT_FALSE(kernels::parseIsa("", &parsed));
}

TEST(KernelDispatch, ScalarAlwaysSupportedAndBestResolvable)
{
    EXPECT_TRUE(kernels::isaSupported(kernels::Isa::Scalar));
    EXPECT_TRUE(kernels::isaSupported(kernels::bestSupportedIsa()));
}

TEST(KernelDispatch, KernelsMatchScalarOnEveryWordCount)
{
    IsaGuard guard;
    Rng rng(7);

    // Word counts crossing every block boundary of the vector paths
    // (4-word AVX2 blocks, 8-word AVX-512 blocks) plus ragged tails.
    const std::size_t word_counts[] = {0, 1, 2,  3,  4,  5,  7,
                                       8, 9, 15, 16, 17, 36, 130};
    for (const std::size_t n : word_counts) {
        // Three density regimes: dense overlap, sparse overlap (long
        // zero-AND stretches the scan must skip), and no overlap.
        for (const double density : {0.9, 0.05, 0.0}) {
            std::vector<std::uint64_t> a(n), b(n);
            for (std::size_t i = 0; i < n; ++i) {
                a[i] = rng.uniformInt(~0ull);
                b[i] = rng.bernoulli(density) ? rng.uniformInt(~0ull)
                                              : ~a[i];
            }

            kernels::setIsa(kernels::Isa::Scalar);
            const auto& scalar = kernels::ops();
            const std::uint64_t want_pop =
                scalar.andPopcountWords(a.data(), b.data(), n);
            std::vector<std::size_t> want_scan;
            for (std::size_t w =
                     scalar.firstMatchWord(a.data(), b.data(), 0, n);
                 w < n; w = scalar.firstMatchWord(a.data(), b.data(),
                                                  w + 1, n))
                want_scan.push_back(w);

            for (const auto isa : supportedIsas()) {
                kernels::setIsa(isa);
                const auto& ops = kernels::ops();
                EXPECT_EQ(ops.andPopcountWords(a.data(), b.data(), n),
                          want_pop)
                    << kernels::isaName(isa) << " n=" << n
                    << " density=" << density;
                std::vector<std::size_t> scan;
                for (std::size_t w = ops.firstMatchWord(a.data(),
                                                        b.data(), 0, n);
                     w < n; w = ops.firstMatchWord(a.data(), b.data(),
                                                   w + 1, n))
                    scan.push_back(w);
                EXPECT_EQ(scan, want_scan)
                    << kernels::isaName(isa) << " n=" << n
                    << " density=" << density;
                // Mid-range starts (the ranged forEachMatch path).
                for (const std::size_t w0 :
                     {n / 3, n / 2, n - (n != 0)})
                    EXPECT_EQ(
                        ops.firstMatchWord(a.data(), b.data(), w0, n),
                        scalar.firstMatchWord(a.data(), b.data(), w0,
                                              n))
                        << kernels::isaName(isa) << " n=" << n
                        << " from " << w0;
            }
        }
    }
}

TEST(KernelDispatch, FusedJoinKernelsMatchScalar)
{
    IsaGuard guard;
    Rng rng(13);
    const std::size_t k = 64 * 36 + 23; // ragged tail word

    // Timestep widths spanning every vector fast path and its scalar
    // fallback: AVX2 keeps lanes up to T=8, AVX-512 up to T=16, and
    // both fall back to the scalar kernel above their width.
    for (const int timesteps : {1, 3, 8, 12, 16, 32}) {
        const auto all_ones =
            timesteps >= kMaxTimesteps
                ? ~TimeWord(0)
                : static_cast<TimeWord>((TimeWord(1) << timesteps) - 1);
        for (const double density : {0.3, 0.02, 0.0}) {
            SpikeFiber fa;
            fa.mask = Bitmask(k);
            WeightFiber fb;
            fb.mask = Bitmask(k);
            for (std::size_t i = 0; i < k; ++i) {
                if (rng.bernoulli(0.25)) {
                    fa.mask.set(i);
                    // Zero temporal words included on purpose: a
                    // match with no firing timestep must still count
                    // as a match with zero fan-out adds.
                    fa.values.push_back(static_cast<TimeWord>(
                        rng.uniformInt(
                            static_cast<std::uint64_t>(all_ones) + 1)));
                }
                if (rng.bernoulli(density)) {
                    fb.mask.set(i);
                    fb.values.push_back(
                        static_cast<std::int32_t>(rng.uniformInt(255)) -
                        127);
                }
            }
            const RankedBitmask ra(fa.mask);
            const RankedBitmask rb(fb.mask);
            const auto tc = static_cast<std::size_t>(timesteps);
            std::vector<std::int32_t> want_sums(tc), got_sums(tc);
            std::vector<std::int64_t> want_corr(tc), got_corr(tc);

            kernels::setIsa(kernels::Isa::Scalar);
            const FusedJoinStats want_fan = fusedTemporalJoin(
                fa, ra, fb, rb, timesteps, /*collapse=*/false,
                want_sums.data());
            std::vector<std::int32_t> want_csums(tc);
            const FusedJoinStats want_col = fusedTemporalJoin(
                fa, ra, fb, rb, timesteps, /*collapse=*/true,
                want_csums.data(), want_corr.data());

            for (const auto isa : supportedIsas()) {
                kernels::setIsa(isa);
                const std::string what =
                    std::string(kernels::isaName(isa)) +
                    " T=" + std::to_string(timesteps) +
                    " density=" + std::to_string(density);

                const FusedJoinStats fan = fusedTemporalJoin(
                    fa, ra, fb, rb, timesteps, /*collapse=*/false,
                    got_sums.data());
                EXPECT_EQ(got_sums, want_sums) << what;
                EXPECT_EQ(fan.matches, want_fan.matches) << what;
                EXPECT_EQ(fan.acc_ops, want_fan.acc_ops) << what;
                EXPECT_EQ(fan.correction_ops, want_fan.correction_ops)
                    << what;

                std::vector<std::int32_t> got_csums(tc);
                const FusedJoinStats col = fusedTemporalJoin(
                    fa, ra, fb, rb, timesteps, /*collapse=*/true,
                    got_csums.data(), got_corr.data());
                EXPECT_EQ(got_csums, want_csums) << what;
                EXPECT_EQ(got_corr, want_corr) << what;
                EXPECT_EQ(col.matches, want_col.matches) << what;
                EXPECT_EQ(col.acc_ops, want_col.acc_ops) << what;
                EXPECT_EQ(col.correction_ops, want_col.correction_ops)
                    << what;
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. Golden matrix: ISA x every registered design.
// ---------------------------------------------------------------------

TEST(KernelDispatch, GoldenMatrixAcrossIsa)
{
    IsaGuard guard;
    const auto& registry = AcceleratorRegistry::instance();
    const NetworkSpec nets[] = {
        {"alexnet-l4", {tables::alexnetL4()}},
        {"vgg16-l8", {tables::vgg16L8()}},
    };
    const kernels::Isa isas[] = {kernels::Isa::Scalar,
                                 kernels::bestSupportedIsa()};

    for (const auto& net : nets) {
        for (const auto& key : registry.keys()) {
            const bool ft = registry.entry(key).ft_workload;
            const auto layers = generateNetwork(net, 101, ft);

            // Reference: scalar kernels.
            kernels::setIsa(kernels::Isa::Scalar);
            const RunResult want =
                registry.make(key)->runNetwork(layers, net.name);

            for (const auto isa : isas) {
                kernels::setIsa(isa);
                const RunResult got =
                    registry.make(key)->runNetwork(layers, net.name);
                expectRunResultEq(got, want,
                                  net.name + "/" + key + "/" +
                                      kernels::isaName(isa));
            }
        }
    }
}

// ---------------------------------------------------------------------
// 3. ANN artifacts through the disk cache: cold vs warm identity.
// ---------------------------------------------------------------------

/** Fresh, empty cache directory unique to the calling test. */
std::string
tempCacheDir(const std::string& name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("loas-cache-" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

template <typename Sim>
void
expectAnnDiskIdentity(const std::string& family,
                      const std::string& dir_name)
{
    LayerSpec spec = tables::vgg16L8();
    spec.spike_sparsity = 0.439;
    const AnnLayerData ann = generateAnnLayer(spec, 11);
    const std::string dir = tempCacheDir(dir_name);
    const std::string key =
        compiledLayerKey("ann-net", 0, false, family, 1, 11);

    // Cold: compile, execute, and spill the artifact to disk.
    RunResult want;
    {
        CompiledCache cache;
        cache.setDiskDir(dir);
        Sim sim;
        CompiledCache::Stats stats;
        const auto compiled = cache.getOrCompile(
            key, [&] { return sim.prepareAnn(ann); }, &stats);
        ASSERT_NE(compiled, nullptr);
        EXPECT_EQ(stats.misses, 1u);
        EXPECT_GT(stats.compile_ms, 0.0);
        EXPECT_EQ(cache.stats().disk_writes, 1u);
        want = sim.execute(*compiled);
    }

    // Warm: a fresh cache (cold memory) over the same directory must
    // deserialize instead of recompiling — zero compile time — and
    // the deserialized artifact must execute identically.
    {
        CompiledCache cache;
        cache.setDiskDir(dir);
        Sim sim;
        CompiledCache::Stats stats;
        const auto compiled = cache.getOrCompile(
            key,
            [&]() -> CompiledLayer {
                ADD_FAILURE() << family
                              << ": warm cache recompiled the layer";
                return Sim().prepareAnn(ann);
            },
            &stats);
        ASSERT_NE(compiled, nullptr);
        EXPECT_EQ(compiled->family, family);
        EXPECT_EQ(stats.disk_hits, 1u);
        EXPECT_EQ(stats.misses, 0u);
        EXPECT_EQ(stats.compile_ms, 0.0);
        expectRunResultEq(sim.execute(*compiled), want,
                          family + " warm-disk");
    }
    fs::remove_all(dir);
}

TEST(KernelDispatch, SpartenAnnColdVsWarmDiskIdentity)
{
    expectAnnDiskIdentity<SpartenSim>(SpartenSim::kAnnFamily,
                                      "sparten-ann");
}

TEST(KernelDispatch, GammaAnnColdVsWarmDiskIdentity)
{
    expectAnnDiskIdentity<GammaSim>(GammaSim::kAnnFamily, "gamma-ann");
}

} // namespace
} // namespace loas
