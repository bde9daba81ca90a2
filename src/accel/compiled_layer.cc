#include "accel/compiled_layer.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/parallel.hh"
#include "tensor/ranked_bitmask.hh"
#include "workload/generator.hh"

namespace loas {

namespace {

/**
 * Compile `fibers` fibers of `bits` positions, where value_at(i, p) is
 * position p of fiber i (zero = not stored). Mask first, values
 * second: one parallel pass writes each fiber's mask words, derive()
 * turns their popcounts into value begins, and a second parallel pass
 * writes each fiber's values into its own slice of the one values
 * array. Every slot has one writer, so the set is bit-identical at any
 * thread count.
 */
template <typename V, typename ValueAt>
FlatFiberSet<V>
buildFiberSet(std::size_t fibers, std::size_t bits,
              std::uint32_t value_bits, ValueAt&& value_at)
{
    FlatFiberSet<V> set;
    set.fibers = fibers;
    set.bits = bits;
    set.value_bits = value_bits;
    const std::size_t wpf = set.wordsPerFiber();
    const int width = prepareParallelism(fibers);
    set.words.resize(fibers * wpf);
    parallelFor(fibers, width, [&](std::size_t i) {
        std::uint64_t* const out = set.words.data() + i * wpf;
        for (std::size_t w = 0; w < wpf; ++w) {
            const std::size_t base = w * Bitmask::kWordBits;
            const std::size_t end =
                std::min(bits, base + Bitmask::kWordBits);
            std::uint64_t word = 0;
            for (std::size_t p = base; p < end; ++p)
                word |= static_cast<std::uint64_t>(value_at(i, p) != 0)
                        << (p - base);
            out[w] = word;
        }
    });
    std::size_t total = 0;
    for (const std::uint64_t word : set.words)
        total += static_cast<std::size_t>(popcount64(word));
    set.values.resize(total);
    if (!set.derive())
        panic("compiled fiber set failed its own consistency check");
    parallelFor(fibers, width, [&](std::size_t i) {
        const std::uint64_t* const mask = set.words.data() + i * wpf;
        V* out = set.values.data() + set.value_begin[i];
        for (std::size_t w = 0; w < wpf; ++w)
            for (std::uint64_t x = mask[w]; x != 0; x &= x - 1)
                *out++ = static_cast<V>(value_at(
                    i, w * Bitmask::kWordBits +
                           static_cast<std::size_t>(lowestSetBit(x))));
    });
    return set;
}

} // namespace

template <typename V>
bool
FlatFiberSet<V>::derive()
{
    const std::size_t wpf = wordsPerFiber();
    if (wpf != 0 ? words.size() / wpf != fibers || words.size() % wpf != 0
                 : !words.empty())
        return false;
    const std::size_t tail = bits % Bitmask::kWordBits;
    const std::uint64_t past_end =
        tail != 0 ? ~lowMask64(static_cast<int>(tail)) : 0;
    prefix.resize(fibers * (wpf + 1));
    value_begin.resize(fibers + 1);
    val_off.resize(fibers + 1);
    value_begin[0] = 0;
    val_off[0] = 0;
    for (std::size_t i = 0; i < fibers; ++i) {
        const std::uint64_t* const mask = words.data() + i * wpf;
        if (wpf != 0 && (mask[wpf - 1] & past_end) != 0)
            return false;
        const std::uint64_t nnz =
            rankWords(mask, wpf, prefix.data() + i * (wpf + 1));
        value_begin[i + 1] = value_begin[i] + nnz;
        val_off[i + 1] =
            val_off[i] + ceilDiv<std::uint64_t>(nnz * value_bits, 8);
    }
    return value_begin[fibers] == values.size();
}

template <typename V>
std::size_t
FlatFiberSet<V>::footprintBytes() const
{
    return 2 * (fibers + 1) * sizeof(std::uint64_t) +
           fibers * metadataBytes() + val_off.back();
}

template struct FlatFiberSet<std::int32_t>;
template struct FlatFiberSet<TimeWord>;

WeightFiberSet
compileWeightColumns(const DenseMatrix<std::int8_t>& weights)
{
    return buildFiberSet<std::int32_t>(
        weights.cols(), weights.rows(), kWeightValueBits,
        [&](std::size_t c, std::size_t r) { return weights(r, c); });
}

WeightFiberSet
compileWeightRows(const DenseMatrix<std::int8_t>& weights)
{
    return buildFiberSet<std::int32_t>(
        weights.rows(), weights.cols(), kWeightValueBits,
        [&](std::size_t r, std::size_t c) { return weights(r, c); });
}

SpikeFiberSet
compileSpikeRows(const SpikeTensor& spikes)
{
    return buildFiberSet<TimeWord>(
        spikes.rows(), spikes.cols(),
        static_cast<std::uint32_t>(spikes.timesteps()),
        [&](std::size_t r, std::size_t c) { return spikes.word(r, c); });
}

std::vector<std::uint32_t>
denseTimewordCounts(const SpikeFiberSet& compiled, int timesteps)
{
    const TimeWord all_ones =
        timesteps >= kMaxTimesteps
            ? ~TimeWord(0)
            : static_cast<TimeWord>((TimeWord(1) << timesteps) - 1);
    std::vector<std::uint32_t> counts(compiled.fibers, 0);
    for (std::size_t i = 0; i < compiled.fibers; ++i)
        for (std::uint64_t v = compiled.value_begin[i];
             v < compiled.value_begin[i + 1]; ++v)
            counts[i] +=
                (compiled.values[v] & all_ones) == all_ones ? 1u : 0u;
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
