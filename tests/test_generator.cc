/** @file Calibration tests for the synthetic workload generator. */

#include <gtest/gtest.h>

#include <stdexcept>

#include "snn/metrics.hh"
#include "workload/generator.hh"
#include "workload/networks.hh"

namespace loas {
namespace {

TEST(TruncatedBinomial, KnownValues)
{
    // Unconditioned mean when min_spikes = 0.
    EXPECT_NEAR(truncatedBinomialMean(0.5, 4, 0), 2.0, 1e-12);
    // Conditioning on >= 1 raises the mean.
    EXPECT_GT(truncatedBinomialMean(0.1, 4, 1),
              truncatedBinomialMean(0.1, 4, 0));
    // As p -> 1 the conditioning stops mattering.
    EXPECT_NEAR(truncatedBinomialMean(0.999, 4, 1), 4.0, 0.01);
    // min == t forces the mean to t.
    EXPECT_NEAR(truncatedBinomialMean(0.3, 4, 4), 4.0, 1e-12);
}

TEST(TruncatedBinomial, SolverInverts)
{
    for (const double target : {1.2, 2.0, 2.8, 3.5}) {
        const double p = solveFiringProbability(target, 4, 1);
        EXPECT_NEAR(truncatedBinomialMean(p, 4, 1), target, 1e-6);
    }
    for (const double target : {2.2, 3.0, 3.7}) {
        const double p = solveFiringProbability(target, 4, 2);
        EXPECT_NEAR(truncatedBinomialMean(p, 4, 2), target, 1e-6);
    }
}

TEST(TruncatedBinomial, SolverClampsUnreachableTargets)
{
    // Mean below the conditioned floor: returns ~0 probability.
    const double lo = solveFiringProbability(0.5, 4, 1);
    EXPECT_LT(lo, 0.05);
    // Mean at the ceiling: returns p = 1.
    EXPECT_DOUBLE_EQ(solveFiringProbability(4.0, 4, 1), 1.0);
}

TEST(Generator, HitsPublishedLayerStatistics)
{
    const LayerSpec spec = tables::vgg16L8();
    const LayerData data = generateLayer(spec, 123);
    const SpikeStats stats = computeSpikeStats(data.spikes);
    EXPECT_NEAR(stats.origin_sparsity, spec.spike_sparsity, 0.012);
    EXPECT_NEAR(stats.silent_ratio, spec.silent_ratio, 0.012);
    EXPECT_NEAR(data.weights.sparsity(), spec.weight_sparsity, 0.005);
    EXPECT_EQ(data.spikes.rows(), spec.m);
    EXPECT_EQ(data.spikes.cols(), spec.k);
    EXPECT_EQ(data.weights.rows(), spec.k);
    EXPECT_EQ(data.weights.cols(), spec.n);
}

TEST(Generator, FtModeRaisesSilentRatioAndKillsSingles)
{
    const LayerSpec spec = tables::alexnetL4();
    const LayerData origin = generateLayer(spec, 9, false);
    const LayerData ft = generateLayer(spec, 9, true);
    EXPECT_NEAR(origin.spikes.silentRatio(), spec.silent_ratio, 0.012);
    EXPECT_NEAR(ft.spikes.silentRatio(), spec.silent_ratio_ft, 0.012);
    EXPECT_GT(ft.spikes.silentRatio(), origin.spikes.silentRatio());
    // Preprocessing masks single-spike neurons: the FT workload has
    // none.
    EXPECT_EQ(ft.spikes.singleSpikeCount(), 0u);
}

TEST(Generator, Deterministic)
{
    const LayerSpec spec = tables::resnet19L19();
    const LayerData a = generateLayer(spec, 77);
    const LayerData b = generateLayer(spec, 77);
    EXPECT_EQ(a.spikes, b.spikes);
    EXPECT_EQ(a.weights, b.weights);
    const LayerData c = generateLayer(spec, 78);
    EXPECT_FALSE(a.spikes == c.spikes);
}

TEST(Generator, DenseSpecProducesDenseData)
{
    LayerSpec spec;
    spec.name = "dense";
    spec.t = 4;
    spec.m = 8;
    spec.n = 8;
    spec.k = 64;
    spec.spike_sparsity = 0.0;
    spec.silent_ratio = 0.0;
    spec.silent_ratio_ft = 0.0;
    spec.weight_sparsity = 0.0;
    const LayerData data = generateLayer(spec, 1);
    EXPECT_EQ(data.spikes.countSpikes(), 8u * 64 * 4);
    EXPECT_EQ(data.weights.zeroCount(), 0u);
}

TEST(Generator, SingleTimestepDegenerates)
{
    LayerSpec spec = tables::vgg16L8();
    spec = tables::withTimesteps(spec, 1);
    const LayerData data = generateLayer(spec, 5);
    // With T=1 the silent ratio IS the bit sparsity.
    EXPECT_NEAR(data.spikes.silentRatio(),
                data.spikes.originSparsity(), 1e-9);
    EXPECT_NEAR(data.spikes.originSparsity(), spec.spike_sparsity,
                0.02);
}

TEST(Generator, AnnLayerSparsityAndPositivity)
{
    LayerSpec spec = tables::vgg16L8();
    spec.spike_sparsity = 0.439; // activation sparsity for Fig. 18
    const AnnLayerData data = generateAnnLayer(spec, 31);
    EXPECT_NEAR(data.acts.sparsity(), 0.439, 0.012);
    for (const auto v : data.acts.data())
        EXPECT_GE(v, 0); // ReLU outputs
    EXPECT_NEAR(data.weights.sparsity(), spec.weight_sparsity, 0.01);
}

TEST(Generator, NetworkGeneration)
{
    const NetworkSpec net = tables::alexnet();
    const auto layers = generateNetwork(net, 2);
    ASSERT_EQ(layers.size(), net.layers.size());
    for (std::size_t l = 0; l < layers.size(); ++l) {
        EXPECT_EQ(layers[l].spec.name, net.layers[l].name);
        EXPECT_EQ(layers[l].spikes.rows(), net.layers[l].m);
    }
}

/** Bit-identical tensors, the batch's extra inputs included. */
void
expectSameLayer(const LayerData& a, const LayerData& b)
{
    EXPECT_EQ(a.spec.name, b.spec.name);
    EXPECT_EQ(a.spikes, b.spikes);
    EXPECT_EQ(a.weights, b.weights);
    ASSERT_EQ(a.batchSize(), b.batchSize());
    for (std::size_t i = 1; i < a.batchSize(); ++i)
        EXPECT_EQ(a.input(i), b.input(i));
}

TEST(Generator, NetworkEqualsPerLayerEntryPoint)
{
    // generateNetwork is generateNetworkLayer for every layer: the
    // per-layer seed derivation lives in one place, so lazy per-layer
    // synthesis produces exactly the eager network's tensors.
    const NetworkSpec net = tables::alexnet();
    for (const bool ft : {false, true}) {
        for (const std::size_t batch : {1u, 2u}) {
            SCOPED_TRACE(std::string(ft ? "ft" : "plain") + " batch " +
                         std::to_string(batch));
            const auto layers = generateNetwork(net, 17, ft, batch);
            ASSERT_EQ(layers.size(), net.layers.size());
            for (std::size_t l = 0; l < layers.size(); ++l)
                expectSameLayer(layers[l],
                                generateNetworkLayer(net, l, 17, ft, batch));
        }
    }
}

TEST(LazyWorkload, SynthesizesEachLayerOnceOnDemand)
{
    const NetworkSpec a{"a", {tables::alexnetL4(), tables::vgg16L8()}};
    const NetworkSpec b{"b", {tables::resnet19L19()}};
    LazyWorkload workload({a, b}, 23);
    EXPECT_EQ(workload.synthesized(), 0u);

    expectSameLayer(workload.layer(0, false, 1),
                    generateNetworkLayer(a, 1, 23, false));
    expectSameLayer(workload.layer(1, true, 0),
                    generateNetworkLayer(b, 0, 23, true));
    EXPECT_EQ(workload.synthesized(), 2u);

    // A repeat is memoized: same object, no synthesis, no hook call.
    const LayerData* first = &workload.layer(0, false, 1);
    EXPECT_EQ(&workload.layer(0, false, 1, [] { FAIL(); }), first);
    EXPECT_EQ(workload.synthesized(), 2u);
}

TEST(LazyWorkload, ThrowingSynthesisLeavesTheSlotRetryable)
{
    // The hook is the engine's cancellation checkpoint; when it
    // throws, the slot must stay empty so the next caller synthesizes
    // the layer cleanly rather than blocking or seeing a half-filled
    // slot.
    const NetworkSpec net{"n", {tables::alexnetL4()}};
    LazyWorkload workload({net}, 29);
    EXPECT_THROW(workload.layer(0, false, 0,
                                [] { throw std::runtime_error("abort"); }),
                 std::runtime_error);
    EXPECT_EQ(workload.synthesized(), 0u);

    int hook_calls = 0;
    expectSameLayer(workload.layer(0, false, 0, [&] { ++hook_calls; }),
                    generateNetworkLayer(net, 0, 29, false));
    EXPECT_EQ(hook_calls, 1);
    EXPECT_EQ(workload.synthesized(), 1u);
}

TEST(LazyWorkload, LastUserReleaseFreesTheLayer)
{
    const NetworkSpec net{"n", {tables::alexnetL4()}};
    LazyWorkload workload({net}, 31, 1, {2, 0});

    // Two plain users: the first release keeps the tensors resident.
    workload.layer(0, false, 0);
    workload.release(0, false, 0);
    workload.layer(0, false, 0);
    EXPECT_EQ(workload.synthesized(), 1u);
    // The second frees them; only a request after that (which no
    // well-behaved user makes) would synthesize the layer again.
    workload.release(0, false, 0);
    workload.layer(0, false, 0);
    EXPECT_EQ(workload.synthesized(), 2u);

    // 0 users: the ft variant stays resident whatever is released.
    workload.layer(0, true, 0);
    for (int i = 0; i < 3; ++i)
        workload.release(0, true, 0);
    workload.layer(0, true, 0);
    EXPECT_EQ(workload.synthesized(), 3u);
}

/** Property: generated statistics track the spec across the tables. */
class GeneratorProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(GeneratorProperty, PinnedLayersCalibrated)
{
    const std::vector<LayerSpec> specs = {
        tables::alexnetL4(), tables::vgg16L8(), tables::resnet19L19()};
    const LayerSpec spec = specs[static_cast<std::size_t>(GetParam())];
    for (const std::uint64_t seed : {1ull, 2ull}) {
        const LayerData data = generateLayer(spec, seed);
        EXPECT_NEAR(data.spikes.originSparsity(), spec.spike_sparsity,
                    0.015)
            << spec.name;
        EXPECT_NEAR(data.spikes.silentRatio(), spec.silent_ratio, 0.015)
            << spec.name;
        EXPECT_NEAR(data.weights.sparsity(), spec.weight_sparsity,
                    0.005)
            << spec.name;
    }
}

INSTANTIATE_TEST_SUITE_P(Pinned, GeneratorProperty,
                         ::testing::Values(0, 1, 2));

} // namespace
} // namespace loas
