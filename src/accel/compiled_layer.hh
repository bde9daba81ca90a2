/**
 * @file
 * Compiled-workload artifacts: what an accelerator's prepare phase
 * produces and its execute phase consumes.
 *
 * The LoAS pipeline (and every baseline it is compared against)
 * preprocesses its operands exactly once — compressed fibers, CSR-like
 * views, cumulative address-offset tables — and then streams them
 * through the datapath. The prepare/execute split mirrors that:
 * prepare() lowers a LayerData into a format-family-specific
 * CompiledLayer, and execute() simulates the datapath over the compiled
 * form. Artifacts depend only on the layer contents (never on hardware
 * options like PE count or cache size), so every design variant of a
 * family shares one compilation — the CompiledCache in
 * workload/compiled_cache.hh memoizes them across sweep cells.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "tensor/bitmask.hh"
#include "tensor/dense_matrix.hh"
#include "tensor/fiber.hh"
#include "tensor/spike_tensor.hh"
#include "workload/layer_spec.hh"

namespace loas {

struct LayerData;

/** Base of the per-format-family compiled artifacts. */
struct CompiledArtifact
{
    virtual ~CompiledArtifact() = default;
};

/**
 * One layer after the prepare phase: the source shape and spec plus a
 * shared, immutable family artifact. CompiledLayers are value types;
 * copies share the artifact, so caching and cross-thread reuse are
 * cheap and read-only by construction.
 */
struct CompiledLayer
{
    LayerSpec spec;      // copy of the source layer's spec
    std::string family;  // format family that produced the artifact

    /** Operand shapes observed at prepare time. */
    std::size_t m = 0, k = 0, n = 0;
    int timesteps = 0;

    /** Input tensors compiled into the artifact (the batch axis);
     *  the weight-side operand is compiled exactly once per layer. */
    std::size_t batch = 1;

    /** Artifact footprint estimate in bytes (cache accounting). */
    std::size_t bytes = 0;

    std::shared_ptr<const CompiledArtifact> artifact;
};

/**
 * Family-checked artifact access for execute() implementations. Handing
 * an accelerator a foreign family's compiled layer is an unrecoverable
 * harness error, reported via fatal() rather than undefined behavior.
 */
template <typename T>
const T&
artifactAs(const CompiledLayer& compiled, const std::string& family)
{
    if (compiled.family != family)
        fatal("cannot execute a '%s'-family compiled layer on a "
              "'%s'-family accelerator (layer '%s')",
              compiled.family.c_str(), family.c_str(),
              compiled.spec.name.c_str());
    if (!compiled.artifact)
        fatal("compiled layer '%s' carries no artifact",
              compiled.spec.name.c_str());
    return static_cast<const T&>(*compiled.artifact);
}

/**
 * One compiled operand — every column of B, every row of A — in the
 * FTP-friendly format (Fig. 8), stored as a few contiguous arrays: the
 * contiguous memory access the compression exists for. Every fiber of
 * a set has the same mask length, so fiber i's mask is
 * words[i * wordsPerFiber(), (i + 1) * wordsPerFiber()) with no
 * per-fiber index; its values are values[value_begin[i],
 * value_begin[i + 1]).
 *
 * `fibers`, `bits`, `value_bits`, `words` and `values` are the primary
 * fields, the ones an artifact file stores. derive() rebuilds the rest
 * from them: the per-fiber rank prefixes (wordsPerFiber() + 1 entries
 * per fiber, so rank lookups are O(1) in every execute()), the value
 * begins, and the modelled value byte offsets. Metadata offsets need
 * no table: every fiber's metadata has the same size.
 *
 * A plain value type: views point into the arrays, so a copy or move
 * only invalidates views of the source.
 */
template <typename V>
struct FlatFiberSet
{
    std::size_t fibers = 0;        // number of fibers in the set
    std::size_t bits = 0;          // mask length of every fiber
    std::uint32_t value_bits = 0;  // modelled storage width of a value
    std::vector<std::uint64_t> words;  // fibers * wordsPerFiber()
    std::vector<V> values;             // every fiber's values, in order

    std::vector<std::uint32_t> prefix;       // derived, see above
    std::vector<std::uint64_t> value_begin;  // derived, fibers + 1
    /** Derived, fibers + 1: modelled byte address of each fiber's
     *  values, ceil(nnz * value_bits / 8) bytes per fiber. */
    std::vector<std::uint64_t> val_off;

    std::size_t
    wordsPerFiber() const
    {
        return (bits + Bitmask::kWordBits - 1) / Bitmask::kWordBits;
    }

    /** Stored values of fiber i. */
    std::size_t
    nnz(std::size_t i) const
    {
        return value_begin[i + 1] - value_begin[i];
    }

    /** Modelled metadata bytes of any one fiber: bitmask + pointer. */
    std::size_t
    metadataBytes() const
    {
        return (bits + 7) / 8 + SpikeFiber::kPointerBytes;
    }

    /** Modelled byte address of fiber i's metadata. */
    std::uint64_t
    metaOffset(std::size_t i) const
    {
        return static_cast<std::uint64_t>(i) * metadataBytes();
    }

    /** Fiber i as the view the join kernels read. */
    FiberView<V>
    view(std::size_t i) const
    {
        const std::size_t wpf = wordsPerFiber();
        FiberView<V> v;
        v.words = words.data() + i * wpf;
        v.prefix = prefix.data() + i * (wpf + 1);
        v.bits = bits;
        v.values = values.data() + value_begin[i];
        return v;
    }

    /**
     * Rebuild the derived arrays from the primary fields. Returns
     * false — leaving the set unusable — when they disagree: a words
     * array of the wrong length, a set bit past `bits`, or a values
     * array whose length is not the masks' total popcount.
     */
    bool derive();

    /**
     * Modelled storage the compiled operand occupies (cache
     * accounting): every fiber's bitmask, pointer and packed values,
     * plus two fibers + 1 entry offset tables.
     */
    std::size_t footprintBytes() const;
};

/** Modelled bits of one stored weight (int8). */
inline constexpr std::uint32_t kWeightValueBits = 8;

/** B-side operands: int8 weights (widened), kWeightValueBits each. */
using WeightFiberSet = FlatFiberSet<std::int32_t>;

/** A-side operands: packed temporal words, T modelled bits each. */
using SpikeFiberSet = FlatFiberSet<TimeWord>;

/** Compile every column of B (inner-product dataflows). */
WeightFiberSet
compileWeightColumns(const DenseMatrix<std::int8_t>& weights);

/** Compile every row of a matrix (B for the Gustavson dataflows, the
 *  SparTen ANN activations). */
WeightFiberSet compileWeightRows(const DenseMatrix<std::int8_t>& weights);

/** Compile every row of A, packing values at the tensor's timestep
 *  width (per-row value regions are byte-aligned, values pack within
 *  a row, Fig. 8). */
SpikeFiberSet compileSpikeRows(const SpikeTensor& spikes);

/**
 * Per-fiber count of stored temporal words that are all ones across
 * `timesteps` — the data-dependent density signal the fused join's
 * collapse policy keys on. Precomputed at prepare time so execute()
 * picks a datapath per row in O(1).
 */
std::vector<std::uint32_t>
denseTimewordCounts(const SpikeFiberSet& compiled, int timesteps);

/**
 * Assemble a CompiledLayer around a family artifact: copies the spec,
 * records the operand shapes and timestep count, and takes ownership of
 * the artifact. Every prepare() implementation funnels through this so
 * the bookkeeping fields cannot drift apart.
 */
CompiledLayer
makeCompiledLayer(const LayerData& layer, std::string family,
                  std::shared_ptr<const CompiledArtifact> artifact,
                  std::size_t artifact_bytes);

} // namespace loas
