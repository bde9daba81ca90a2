/** @file Tests for the SparTen-SNN / SparTen-ANN baseline. */

#include <gtest/gtest.h>

#include "baselines/sparten.hh"
#include "common/rng.hh"
#include "snn/reference.hh"
#include "workload/generator.hh"
#include "workload/networks.hh"

namespace loas {
namespace {

TEST(Sparten, OutputMatchesReference)
{
    const LayerData layer = generateLayer(tables::vgg16L8(), 1);
    SpartenSim sim;
    sim.runLayer(layer);
    const SpikeTensor expected = referenceSnnLayer(
        layer.spikes, layer.weights, SpartenConfig{}.lif);
    EXPECT_EQ(sim.lastOutput(), expected);
}

TEST(Sparten, SequentialTimestepsCostMoreThanOne)
{
    // The core observation of the paper: T sequential timesteps cost
    // roughly T mask scans plus per-timestep restarts.
    LayerSpec spec = tables::vgg16L8();
    const LayerData t4 = generateLayer(spec, 2);
    const LayerSpec spec1 = tables::withTimesteps(spec, 1);
    const LayerData t1 = generateLayer(spec1, 2);
    SpartenSim sim;
    const auto r4 = sim.runLayer(t4);
    const auto r1 = sim.runLayer(t1);
    EXPECT_GT(r4.compute_cycles,
              3 * r1.compute_cycles);
}

TEST(Sparten, FetchesDenseSpikeTrains)
{
    // SparTen-SNN uses the raw spike train as bitmask-and-data: every
    // bit of A crosses the SRAM interface, every timestep (Section
    // II-D), unlike LoAS's non-silent-only fetches.
    const LayerData layer = generateLayer(tables::vgg16L8(), 3);
    SpartenSim sim;
    const RunResult r = sim.runLayer(layer);
    const std::uint64_t input_sram =
        r.traffic.sramBytes(TensorCategory::Input);
    // One full dense pass per (output-column, timestep).
    const std::uint64_t dense_per_pass =
        layer.spikes.denseBytesPerTimestep();
    EXPECT_GE(input_sram,
              dense_per_pass * layer.spec.n * layer.spec.t / 2);
}

TEST(Sparten, AnnModeRunsAndCountsMacs)
{
    LayerSpec spec = tables::vgg16L8();
    spec.spike_sparsity = 0.439; // ANN activation sparsity (Fig. 18)
    const AnnLayerData ann = generateAnnLayer(spec, 4);
    SpartenSim sim;
    const RunResult r = sim.execute(sim.prepareAnn(ann));
    EXPECT_EQ(r.accel, "SparTen-ANN");
    EXPECT_GT(r.ops.mac_ops, 0u);
    EXPECT_EQ(r.ops.acc_ops, 0u);
    // Two fast prefix circuits per match.
    EXPECT_EQ(r.ops.fast_prefix_ops, 2 * r.ops.mac_ops);
    EXPECT_GT(r.total_cycles, 0u);
}

TEST(Sparten, WaveParallelismUsesAllPes)
{
    // 16 PEs: doubling the PE count roughly halves the cycles.
    const LayerData layer = generateLayer(tables::vgg16L8(), 5);
    SpartenConfig c16;
    SpartenConfig c32;
    c32.num_pes = 32;
    SpartenSim s16(c16), s32(c32);
    const auto r16 = s16.runLayer(layer);
    const auto r32 = s32.runLayer(layer);
    EXPECT_LT(r32.compute_cycles, r16.compute_cycles * 3 / 4);
}

TEST(SpartenFused, OutputMatchesSequentialOnBothNetworks)
{
    // The fused temporally-parallel datapath is a pure perf change:
    // spike outputs must be bit-identical to the sequential baseline
    // (and to the reference) on representative layers of both
    // networks, plus two edge shapes: a reduction dim that ends
    // mid-word (k % 64 != 0) and a thin layer with fewer output rows
    // than PEs.
    LayerSpec ragged = tables::alexnetL4();
    ragged.name = "ragged-k";
    ragged.k = 130;
    LayerSpec thin = tables::alexnetL4();
    thin.name = "thin-m";
    thin.m = 2;
    thin.n = 320;
    for (const auto& spec :
         {tables::alexnetL4(), tables::vgg16L8(), ragged, thin}) {
        SCOPED_TRACE(spec.name);
        const LayerData layer = generateLayer(spec, 11);
        SpartenSim sequential;
        SpartenConfig fused_config;
        fused_config.fused = true;
        SpartenSim fused(fused_config);
        sequential.runLayer(layer);
        fused.runLayer(layer);
        EXPECT_EQ(fused.lastOutput(), sequential.lastOutput());
        EXPECT_EQ(fused.lastOutput(),
                  referenceSnnLayer(layer.spikes, layer.weights,
                                    SpartenConfig{}.lif));
    }
}

TEST(SpartenFused, OneMaskScanForAllTimesteps)
{
    // The tentpole: the fused datapath streams each weight-column mask
    // once instead of once per timestep, so its compute cycles must
    // undercut the sequential baseline by well over half at T >= 4.
    const LayerData layer = generateLayer(tables::vgg16L8(), 13);
    ASSERT_GE(layer.spec.t, 4);
    SpartenSim sequential;
    SpartenConfig fused_config;
    fused_config.fused = true;
    SpartenSim fused(fused_config);
    const auto r_seq = sequential.runLayer(layer);
    const auto r_fused = fused.runLayer(layer);
    EXPECT_LT(r_fused.compute_cycles, r_seq.compute_cycles / 2);
    EXPECT_EQ(r_fused.accel, "SparTen-SNN(f)");
    EXPECT_EQ(r_seq.accel, "SparTen-SNN");
}

TEST(SpartenFused, CollapseThresholdEdgesPreserveOutputs)
{
    // Threshold 0 forces the pseudo-accumulator datapath onto every
    // non-empty row, threshold 1 restricts it to fully dense rows;
    // both are exact, so outputs never move.
    const LayerData layer = generateLayer(tables::alexnetL4(), 17);
    SpartenSim sequential;
    sequential.runLayer(layer);
    for (const double threshold : {0.0, 0.5, 1.0}) {
        SCOPED_TRACE(threshold);
        SpartenConfig config;
        config.fused = true;
        config.collapse_threshold = threshold;
        SpartenSim fused(config);
        fused.runLayer(layer);
        EXPECT_EQ(fused.lastOutput(), sequential.lastOutput());
    }
}

TEST(SpartenFused, SingleTimestepLayerRuns)
{
    // T=1 is the degenerate fusion: nothing to fan out, but the packed
    // artifact and both collapse extremes must still be exact.
    const LayerSpec spec = tables::withTimesteps(tables::alexnetL4(), 1);
    const LayerData layer = generateLayer(spec, 19);
    SpartenSim sequential;
    sequential.runLayer(layer);
    for (const double threshold : {0.0, 1.0}) {
        SpartenConfig config;
        config.fused = true;
        config.collapse_threshold = threshold;
        SpartenSim fused(config);
        fused.runLayer(layer);
        EXPECT_EQ(fused.lastOutput(), sequential.lastOutput());
    }
}

TEST(SpartenFused, OddChunkWidthsPreserveOutputs)
{
    // Chunk widths that do not divide K (and K % 64 != 0) exercise the
    // trailing-chunk accounting of both cycle models without touching
    // functional outputs.
    LayerSpec spec = tables::alexnetL4();
    spec.k = 130;
    const LayerData layer = generateLayer(spec, 23);
    const SpikeTensor expected = referenceSnnLayer(
        layer.spikes, layer.weights, SpartenConfig{}.lif);
    for (const std::size_t chunk_bits : {48ul, 100ul, 128ul}) {
        SCOPED_TRACE(chunk_bits);
        SpartenConfig config;
        config.chunk_bits = chunk_bits;
        config.fused = true;
        SpartenSim fused(config);
        fused.runLayer(layer);
        EXPECT_EQ(fused.lastOutput(), expected);
    }
}

/** Property: SparTen-SNN is functionally exact too. */
class SpartenProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SpartenProperty, BitExactAgainstReference)
{
    Rng rng(GetParam() * 7 + 1);
    LayerSpec spec;
    spec.name = "prop";
    spec.t = 1 + static_cast<int>(rng.uniformInt(4));
    spec.m = 1 + rng.uniformInt(12);
    spec.n = 1 + rng.uniformInt(24);
    spec.k = 1 + rng.uniformInt(300);
    spec.spike_sparsity = rng.uniform(0.3, 0.9);
    spec.silent_ratio = spec.spike_sparsity * 0.7;
    spec.silent_ratio_ft = spec.silent_ratio;
    spec.weight_sparsity = rng.uniform(0.3, 0.95);
    const LayerData layer = generateLayer(spec, GetParam());
    SpartenSim sim;
    sim.runLayer(layer);
    const SpikeTensor expected = referenceSnnLayer(
        layer.spikes, layer.weights, SpartenConfig{}.lif);
    EXPECT_EQ(sim.lastOutput(), expected);

    // The fused datapath under a random collapse threshold is exact on
    // the same random layer.
    SpartenConfig fused_config;
    fused_config.fused = true;
    fused_config.collapse_threshold = rng.uniform(0.0, 1.0);
    SpartenSim fused(fused_config);
    fused.runLayer(layer);
    EXPECT_EQ(fused.lastOutput(), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpartenProperty,
                         ::testing::Range<std::uint64_t>(0, 10));

} // namespace
} // namespace loas
