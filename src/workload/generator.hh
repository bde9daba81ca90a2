/**
 * @file
 * Synthetic dual-sparse workload synthesis. Given a LayerSpec, produce a
 * spike tensor and weight matrix whose measured statistics match the
 * spec's Table II columns: origin bit sparsity, silent-neuron ratio
 * (with or without fine-tuned preprocessing) and weight sparsity.
 *
 * The accelerators under study are data-structure-driven: cycle counts
 * and traffic depend only on the non-zero structure, which these
 * statistics determine, so calibrated synthesis stands in for the
 * paper's trained-and-pruned checkpoints (see DESIGN.md, Substitutions).
 */

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "tensor/dense_matrix.hh"
#include "tensor/spike_tensor.hh"
#include "workload/layer_spec.hh"

namespace loas {

/**
 * Concrete data for one SNN layer. A batched request carries B input
 * spike tensors through ONE weight matrix: `spikes` is input 0 (the
 * batch=1 tensor, byte-identical whatever the batch size) and
 * `extra_inputs` holds inputs 1..B-1, each synthesized from its own
 * seed derived from the layer seed alone — input b is the same tensor
 * whether the request batches 2 or 64.
 */
struct LayerData
{
    LayerSpec spec;
    SpikeTensor spikes;                 // A: M x K x T (input 0)
    DenseMatrix<std::int8_t> weights;   // B: K x N (shared by the batch)
    std::vector<SpikeTensor> extra_inputs;  // inputs 1..B-1

    /** Number of input tensors (>= 1). */
    std::size_t batchSize() const { return 1 + extra_inputs.size(); }

    /** Input tensor `b` of the batch (0 = `spikes`). */
    const SpikeTensor& input(std::size_t b) const
    {
        return b == 0 ? spikes : extra_inputs[b - 1];
    }
};

/** Concrete data for one ANN layer (Fig. 18 comparisons). */
struct AnnLayerData
{
    LayerSpec spec;                     // t is 1; spike_sparsity is the
                                        // activation sparsity
    DenseMatrix<std::int8_t> acts;      // M x K, int8 activations
    DenseMatrix<std::int8_t> weights;   // K x N
};

/**
 * Generate one layer. With `ft` set, the fine-tuned-preprocessing
 * statistics are used: the silent ratio rises to spec.silent_ratio_ft
 * and every remaining active neuron fires at least twice (single-spike
 * neurons are exactly what preprocessing masks).
 *
 * `batch` >= 1 adds independently-seeded extra input tensors drawn
 * from the same layer statistics; input 0 and the weights come off the
 * original RNG stream, so batch=1 output is byte-identical to before
 * the batch axis existed and the batch=1 tensors are a prefix of any
 * larger batch.
 */
LayerData generateLayer(const LayerSpec& spec, std::uint64_t seed,
                        bool ft = false, std::size_t batch = 1);

/**
 * Generate layer `l` of `net`: generateLayer on net.layers[l] with the
 * layer's own seed, diversified from the network seed. This is the one
 * place that derivation lives, so a caller that needs only some layers
 * synthesizes exactly what generateNetwork would have for them.
 */
LayerData generateNetworkLayer(const NetworkSpec& net, std::size_t l,
                               std::uint64_t seed, bool ft = false,
                               std::size_t batch = 1);

/** Generate every layer of a network (generateNetworkLayer for each). */
std::vector<LayerData> generateNetwork(const NetworkSpec& net,
                                       std::uint64_t seed, bool ft = false,
                                       std::size_t batch = 1);

/**
 * Synthesize-on-demand layers of a set of networks, for callers that
 * need tensors only for layers whose compiled artifacts miss every
 * cache level. Each (network, ft-variant, layer) is synthesized at
 * most once, on its first request, and then shared read-only;
 * concurrent requests for one layer block on that single synthesis
 * while other layers proceed. A synthesis that throws leaves its slot
 * empty, so the next request retries it from scratch.
 *
 * Tensors are freed as soon as their last user is done with them (see
 * release()), so a network's synthesized layers need not all be
 * resident at once.
 */
class LazyWorkload
{
  public:
    /**
     * `users[ft]` callers will each pass every layer of the ft-variant
     * once and then release() it; 0 keeps that variant's tensors until
     * destruction.
     */
    LazyWorkload(std::vector<NetworkSpec> networks, std::uint64_t seed,
                 std::size_t batch = 1,
                 std::array<std::size_t, 2> users = {0, 0});
    LazyWorkload(const LazyWorkload&) = delete;
    LazyWorkload& operator=(const LazyWorkload&) = delete;

    /**
     * Layer `l` of network `network` (an index into the constructor's
     * list), equal to generateNetworkLayer(networks[network], l, seed,
     * ft, batch). `before_synthesis`, when set, runs right before an
     * actual synthesis — not on a memoized return — and may throw to
     * abort it.
     */
    const LayerData& layer(
        std::size_t network, bool ft, std::size_t l,
        const std::function<void()>& before_synthesis = {});

    /**
     * One user is done with layer `l`: the last of the variant's
     * `users` frees its tensors. A reference layer() returned must not
     * be used after the caller's own release().
     */
    void release(std::size_t network, bool ft, std::size_t l);

    /** Syntheses so far: one per distinct layer requested, unless a
     *  layer is requested again after its last release(). */
    std::uint64_t synthesized() const
    {
        return synthesized_.load(std::memory_order_relaxed);
    }

  private:
    struct Slot
    {
        std::mutex mutex;
        std::unique_ptr<const LayerData> data;
        std::size_t released = 0;
    };

    /** The slot of (network, ft, l); panics on an out-of-range index. */
    Slot& slot(std::size_t network, bool ft, std::size_t l);

    std::vector<NetworkSpec> networks_;
    std::uint64_t seed_;
    std::size_t batch_;
    std::array<std::size_t, 2> users_;
    /** First slot pair of each network; slots come in (plain, ft). */
    std::vector<std::size_t> offsets_;
    std::vector<Slot> slots_;
    std::atomic<std::uint64_t> synthesized_{0};
};

/** Generate an int8 ANN layer with the spec's activation sparsity. */
AnnLayerData generateAnnLayer(const LayerSpec& spec, std::uint64_t seed);

/**
 * Mean of a binomial(t, p) conditioned on at least `min_spikes`
 * successes. Exposed for the calibration tests.
 */
double truncatedBinomialMean(double p, int t, int min_spikes);

/**
 * Solve the per-timestep firing probability p such that the truncated
 * binomial mean equals `target_mean` (clamped to the reachable range).
 */
double solveFiringProbability(double target_mean, int t, int min_spikes);

} // namespace loas
