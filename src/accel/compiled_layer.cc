#include "accel/compiled_layer.hh"

#include "common/bitutil.hh"
#include "common/parallel.hh"
#include "tensor/compress.hh"
#include "workload/generator.hh"

namespace loas {

namespace {

/**
 * Build `count` weight fibers with `build(i)` in one parallel pass —
 * each worker fills a disjoint, preallocated slot and immediately
 * derives its rank table (slot addresses are stable: the vector is
 * presized) — then attach the cumulative offsets. One pool group per
 * compiled operand, bit-identical at any thread count.
 */
template <typename BuildFn>
CompiledWeightFibers
buildWeightFibers(std::size_t count, BuildFn&& build)
{
    CompiledWeightFibers compiled;
    compiled.fibers.resize(count);
    compiled.ranked.resize(count);
    parallelFor(count, prepareParallelism(count), [&](std::size_t i) {
        compiled.fibers[i] = build(i);
        compiled.ranked[i] = RankedBitmask(compiled.fibers[i].mask);
    });
    compiled.meta_off = cumulativeOffsets(
        compiled.fibers,
        [](const WeightFiber& f) { return f.metadataBytes(); });
    compiled.val_off = cumulativeOffsets(
        compiled.fibers,
        [](const WeightFiber& f) { return f.values.size(); });
    return compiled;
}

} // namespace

std::size_t
CompiledWeightFibers::footprintBytes() const
{
    std::size_t bytes =
        (meta_off.size() + val_off.size()) * sizeof(std::uint64_t);
    for (const auto& fiber : fibers)
        bytes += fiber.storageBytes();
    return bytes;
}

CompiledWeightFibers
compileWeightColumns(const DenseMatrix<std::int8_t>& weights)
{
    return buildWeightFibers(weights.cols(), [&](std::size_t c) {
        return compressWeightColumn(weights, c);
    });
}

CompiledWeightFibers
compileWeightRows(const DenseMatrix<std::int8_t>& weights)
{
    return buildWeightFibers(weights.rows(), [&](std::size_t r) {
        return compressWeightRow(weights, r);
    });
}

CompiledWeightFibers
compileWeightFibers(std::vector<WeightFiber> fibers)
{
    auto* const raw = fibers.data();
    return buildWeightFibers(fibers.size(), [raw](std::size_t i) {
        return std::move(raw[i]);
    });
}

std::size_t
CompiledSpikeFibers::footprintBytes(int timesteps) const
{
    std::size_t bytes =
        (meta_off.size() + val_off.size()) * sizeof(std::uint64_t);
    for (const auto& fiber : fibers)
        bytes += fiber.storageBytes(timesteps);
    return bytes;
}

CompiledSpikeFibers
compileSpikeRows(const SpikeTensor& spikes)
{
    const int timesteps = spikes.timesteps();
    CompiledSpikeFibers compiled;
    compiled.fibers.resize(spikes.rows());
    compiled.ranked.resize(spikes.rows());
    // One parallel pass: compress the row, then derive its rank table
    // in place (slot addresses are stable: the vectors are presized).
    parallelFor(compiled.fibers.size(),
                prepareParallelism(compiled.fibers.size()),
                [&](std::size_t r) {
                    compiled.fibers[r] = compressSpikeRow(spikes, r);
                    compiled.ranked[r] =
                        RankedBitmask(compiled.fibers[r].mask);
                });
    compiled.meta_off = cumulativeOffsets(
        compiled.fibers,
        [](const SpikeFiber& f) { return f.metadataBytes(); });
    compiled.val_off = cumulativeOffsets(
        compiled.fibers, [&](const SpikeFiber& f) {
            return ceilDiv<std::size_t>(
                f.values.size() * static_cast<std::size_t>(timesteps),
                8);
        });
    return compiled;
}

std::vector<std::uint32_t>
denseTimewordCounts(const CompiledSpikeFibers& compiled, int timesteps)
{
    const TimeWord all_ones =
        timesteps >= kMaxTimesteps
            ? ~TimeWord(0)
            : static_cast<TimeWord>((TimeWord(1) << timesteps) - 1);
    std::vector<std::uint32_t> counts(compiled.fibers.size(), 0);
    for (std::size_t i = 0; i < compiled.fibers.size(); ++i)
        for (const TimeWord w : compiled.fibers[i].values)
            counts[i] += (w & all_ones) == all_ones ? 1u : 0u;
    return counts;
}

CompiledLayer
makeCompiledLayer(const LayerData& layer, std::string family,
                  std::shared_ptr<const CompiledArtifact> artifact,
                  std::size_t artifact_bytes)
{
    CompiledLayer compiled;
    compiled.spec = layer.spec;
    compiled.family = std::move(family);
    compiled.m = layer.spikes.rows();
    compiled.k = layer.spikes.cols();
    compiled.n = layer.weights.cols();
    compiled.timesteps = layer.spec.t;
    compiled.batch = layer.batchSize();
    compiled.bytes = artifact_bytes;
    compiled.artifact = std::move(artifact);
    return compiled;
}

} // namespace loas
