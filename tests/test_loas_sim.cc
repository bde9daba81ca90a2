/** @file Integration and property tests for the LoAS simulator. */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
#include "core/loas_sim.hh"
#include "snn/reference.hh"
#include "workload/generator.hh"
#include "workload/networks.hh"

namespace loas {
namespace {

LayerSpec
smallSpec(std::size_t m, std::size_t n, std::size_t k, int t,
          double spike_sparsity, double silent, double weight_sparsity)
{
    LayerSpec spec;
    spec.name = "small";
    spec.t = t;
    spec.m = m;
    spec.n = n;
    spec.k = k;
    spec.spike_sparsity = spike_sparsity;
    spec.silent_ratio = silent;
    spec.silent_ratio_ft = silent;
    spec.weight_sparsity = weight_sparsity;
    return spec;
}

TEST(LoasSim, OutputMatchesReferenceOnPublishedAndEdgeShapes)
{
    // A published layer plus two edge shapes: a reduction dim that
    // ends mid-word (k % 64 != 0) and a thin layer with fewer output
    // rows than PEs.
    LayerSpec ragged = tables::alexnetL4();
    ragged.name = "ragged-k";
    ragged.k = 130;
    LayerSpec thin = tables::alexnetL4();
    thin.name = "thin-m";
    thin.m = 2;
    thin.n = 320;
    for (const LayerSpec& spec : {tables::vgg16L8(), ragged, thin}) {
        for (const bool ft : {false, true}) {
            SCOPED_TRACE(spec.name + (ft ? " ft" : ""));
            const LayerData layer = generateLayer(spec, 1, ft);
            LoasSim sim(LoasConfig{}, ft);
            sim.runLayer(layer);
            const SpikeTensor expected = referenceSnnLayer(
                layer.spikes, layer.weights, sim.config().lif);
            EXPECT_EQ(sim.lastOutput(), expected);
        }
    }
}

TEST(LoasSim, CyclesScaleWithWork)
{
    const LayerData small =
        generateLayer(smallSpec(8, 32, 256, 4, 0.8, 0.6, 0.9), 2);
    const LayerData large =
        generateLayer(smallSpec(16, 128, 512, 4, 0.8, 0.6, 0.9), 2);
    LoasSim sim;
    const auto r_small = sim.runLayer(small);
    const auto r_large = sim.runLayer(large);
    EXPECT_GT(r_large.total_cycles, r_small.total_cycles);
}

TEST(LoasSim, DenserSpikesCostMore)
{
    const LayerData sparse =
        generateLayer(smallSpec(16, 64, 512, 4, 0.9, 0.8, 0.9), 3);
    const LayerData dense =
        generateLayer(smallSpec(16, 64, 512, 4, 0.3, 0.1, 0.9), 3);
    LoasSim sim;
    EXPECT_LT(sim.runLayer(sparse).total_cycles,
              sim.runLayer(dense).total_cycles);
}

TEST(LoasSim, NoPsumTraffic)
{
    // The FTP dataflow keeps all partial sums in PE-local
    // accumulators: goal (2) of Section III.
    const LayerData layer = generateLayer(tables::vgg16L8(), 3);
    LoasSim sim;
    const RunResult r = sim.runLayer(layer);
    EXPECT_EQ(r.traffic.dramBytes(TensorCategory::Psum), 0u);
    EXPECT_EQ(r.traffic.sramBytes(TensorCategory::Psum), 0u);
}

TEST(LoasSim, InputDramIsCompressedFootprint)
{
    // Off-chip input traffic is compulsory (fits in cache): the
    // compressed fiber footprint, far below the dense spike train.
    const LayerData layer = generateLayer(tables::vgg16L8(), 4);
    LoasSim sim;
    const RunResult r = sim.runLayer(layer);
    const std::uint64_t dense_bytes = layer.spikes.denseBytes();
    const std::uint64_t input_dram =
        r.traffic.dramBytes(TensorCategory::Input);
    EXPECT_LT(input_dram, dense_bytes);
}

TEST(LoasSim, TotalCyclesCoverComputeAndDram)
{
    const LayerData layer = generateLayer(tables::alexnetL4(), 5);
    LoasSim sim;
    const RunResult r = sim.runLayer(layer);
    EXPECT_GE(r.total_cycles, r.compute_cycles);
    EXPECT_GE(r.total_cycles,
              std::min(r.compute_cycles, r.dram_cycles));
    EXPECT_LE(r.total_cycles, r.compute_cycles + r.dram_cycles + 64);
}

TEST(LoasSim, FtVariantReducesWork)
{
    const LayerSpec spec = tables::vgg16L8();
    const LayerData origin = generateLayer(spec, 6, false);
    const LayerData ft = generateLayer(spec, 6, true);
    LoasSim sim_origin;
    LoasSim sim_ft(LoasConfig{}, /*ft_compress=*/true);
    const auto r_origin = sim_origin.runLayer(origin);
    const auto r_ft = sim_ft.runLayer(ft);
    // Preprocessing raises the silent ratio, which cuts matches and
    // cycles (the ~20% gain of Fig. 12).
    EXPECT_LT(r_ft.total_cycles, r_origin.total_cycles);
    EXPECT_LT(r_ft.traffic.dramBytes(TensorCategory::Input),
              r_origin.traffic.dramBytes(TensorCategory::Input));
}

TEST(LoasSim, RunNetworkSumsLayers)
{
    NetworkSpec net;
    net.name = "tiny";
    net.layers.push_back(smallSpec(8, 16, 128, 4, 0.8, 0.6, 0.9));
    net.layers.push_back(smallSpec(8, 16, 128, 4, 0.8, 0.6, 0.9));
    const auto layers = generateNetwork(net, 8);
    LoasSim sim;
    const RunResult total = sim.runNetwork(layers, net.name);
    const RunResult l0 = sim.runLayer(layers[0]);
    const RunResult l1 = sim.runLayer(layers[1]);
    EXPECT_EQ(total.total_cycles, l0.total_cycles + l1.total_cycles);
    EXPECT_EQ(total.traffic.dramBytes(),
              l0.traffic.dramBytes() + l1.traffic.dramBytes());
    EXPECT_EQ(total.workload, "tiny");
}

TEST(LoasSimDeath, RejectsTooManyTimesteps)
{
    LoasConfig config;
    config.timesteps = 4;
    LoasSim sim(config);
    LayerData layer = generateLayer(smallSpec(2, 2, 32, 8, 0.5, 0.3,
                                              0.5),
                                    1);
    EXPECT_DEATH(sim.runLayer(layer), "timesteps");
}

/**
 * The headline property: for arbitrary shapes, sparsities and
 * timesteps, the cycle-level simulator's spike output is bit-exact
 * against the functional reference.
 */
class LoasSimProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LoasSimProperty, BitExactAgainstReference)
{
    Rng rng(GetParam() * 13 + 3);
    const std::size_t m = 1 + rng.uniformInt(24);
    const std::size_t n = 1 + rng.uniformInt(40);
    const std::size_t k = 1 + rng.uniformInt(600);
    const int t = 1 + static_cast<int>(rng.uniformInt(4));
    const double sparsity = rng.uniform(0.2, 0.95);
    const double silent = sparsity * rng.uniform(0.5, 0.9);
    const double wsp = rng.uniform(0.2, 0.98);

    LayerSpec spec = smallSpec(m, n, k, t, sparsity, silent, wsp);
    LoasConfig config;
    config.timesteps = t;
    const LayerData layer = generateLayer(spec, GetParam());
    LoasSim sim(config);
    sim.runLayer(layer);
    const SpikeTensor expected =
        referenceSnnLayer(layer.spikes, layer.weights, config.lif);
    EXPECT_EQ(sim.lastOutput(), expected)
        << "m=" << m << " n=" << n << " k=" << k << " t=" << t;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoasSimProperty,
                         ::testing::Range<std::uint64_t>(0, 16));

} // namespace
} // namespace loas
