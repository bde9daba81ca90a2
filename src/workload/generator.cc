#include "workload/generator.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace loas {

namespace {

/** Binomial pmf table for n trials with success probability p. */
std::vector<double>
binomialPmf(double p, int n)
{
    std::vector<double> pmf(static_cast<std::size_t>(n) + 1);
    const double q = 1.0 - p;
    // pmf[c] = C(n, c) p^c q^(n-c), built incrementally.
    double value = std::pow(q, n);
    pmf[0] = value;
    for (int c = 1; c <= n; ++c) {
        value *= (static_cast<double>(n - c + 1) / c) * (p / q);
        pmf[static_cast<std::size_t>(c)] = value;
    }
    return pmf;
}

/** Sample one packed word with >= min_spikes bits set. */
TimeWord
sampleActiveWord(Rng& rng, double p, int t, int min_spikes)
{
    for (int attempt = 0; attempt < 10000; ++attempt) {
        TimeWord w = 0;
        for (int bit = 0; bit < t; ++bit)
            if (rng.bernoulli(p))
                w |= (TimeWord{1} << bit);
        if (popcount64(w) >= min_spikes)
            return w;
    }
    // Probability mass below min_spikes is overwhelming; force the
    // minimum pattern rather than looping forever.
    TimeWord w = 0;
    for (int bit = 0; bit < min_spikes; ++bit)
        w |= (TimeWord{1} << rng.uniformInt(static_cast<std::uint64_t>(t)));
    while (popcount64(w) < min_spikes)
        w |= (TimeWord{1} << rng.uniformInt(static_cast<std::uint64_t>(t)));
    return w;
}

std::int8_t
sampleNonzeroWeight(Rng& rng)
{
    const int magnitude = 1 + static_cast<int>(rng.uniformInt(127));
    return static_cast<std::int8_t>(rng.bernoulli(0.5) ? magnitude
                                                       : -magnitude);
}

} // namespace

double
truncatedBinomialMean(double p, int t, int min_spikes)
{
    if (p <= 0.0)
        return static_cast<double>(min_spikes);
    if (p >= 1.0)
        return static_cast<double>(t);
    const auto pmf = binomialPmf(p, t);
    double mass = 0.0;
    double mean = 0.0;
    for (int c = min_spikes; c <= t; ++c) {
        mass += pmf[static_cast<std::size_t>(c)];
        mean += c * pmf[static_cast<std::size_t>(c)];
    }
    if (mass <= 0.0)
        return static_cast<double>(min_spikes);
    return mean / mass;
}

double
solveFiringProbability(double target_mean, int t, int min_spikes)
{
    if (min_spikes > t)
        panic("min_spikes %d > timesteps %d", min_spikes, t);
    const double lo_mean = truncatedBinomialMean(1e-9, t, min_spikes);
    const double hi_mean = static_cast<double>(t);
    const double target = std::clamp(target_mean, lo_mean, hi_mean);
    if (target >= hi_mean - 1e-9)
        return 1.0;
    double lo = 1e-9;
    double hi = 1.0 - 1e-9;
    for (int iter = 0; iter < 100; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (truncatedBinomialMean(mid, t, min_spikes) < target)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

namespace {

/** Sample one spike tensor off `rng` with the solved statistics. */
void
sampleSpikeTensor(Rng& rng, SpikeTensor& spikes, const LayerSpec& spec,
                  double silent, double p, int min_spikes)
{
    for (std::size_t m = 0; m < spec.m; ++m) {
        for (std::size_t k = 0; k < spec.k; ++k) {
            if (silent >= 1.0 || rng.bernoulli(silent))
                continue;
            spikes.setWord(m, k,
                           sampleActiveWord(rng, p, spec.t, min_spikes));
        }
    }
}

} // namespace

LayerData
generateLayer(const LayerSpec& spec, std::uint64_t seed, bool ft,
              std::size_t batch)
{
    if (spec.t < 1 || spec.t > kMaxTimesteps)
        fatal("layer '%s': unsupported timestep count %d",
              spec.name.c_str(), spec.t);
    if (batch < 1)
        fatal("layer '%s': batch must be >= 1", spec.name.c_str());

    Rng rng(seed ^ 0x5bd1e995u);
    LayerData data{spec, SpikeTensor(spec.m, spec.k, spec.t),
                   DenseMatrix<std::int8_t>(spec.k, spec.n, 0),
                   {}};

    const double silent =
        std::clamp(ft ? spec.silent_ratio_ft : spec.silent_ratio, 0.0, 1.0);
    const int min_spikes = ft ? std::min(2, spec.t) : 1;
    const double d0 = 1.0 - spec.spike_sparsity;

    double p = 0.0;
    if (silent < 1.0) {
        const double mean_spikes =
            d0 * static_cast<double>(spec.t) / (1.0 - silent);
        p = solveFiringProbability(mean_spikes, spec.t, min_spikes);
    }

    sampleSpikeTensor(rng, data.spikes, spec, silent, p, min_spikes);

    const double weight_density = 1.0 - spec.weight_sparsity;
    for (std::size_t k = 0; k < spec.k; ++k)
        for (std::size_t n = 0; n < spec.n; ++n)
            if (rng.bernoulli(weight_density))
                data.weights(k, n) = sampleNonzeroWeight(rng);

    // Extra batch inputs come off per-input streams derived from the
    // layer seed alone: input b is identical whatever the total batch
    // size, and input 0 + weights above never see the batch axis. The
    // mixing constant differs from generateNetwork's per-layer stride
    // so the input axis cannot alias the layer axis.
    data.extra_inputs.reserve(batch - 1);
    for (std::size_t b = 1; b < batch; ++b) {
        Rng input_rng((seed + 0xd1b54a32d192ed03ull * b) ^ 0x5bd1e995u);
        SpikeTensor input(spec.m, spec.k, spec.t);
        sampleSpikeTensor(input_rng, input, spec, silent, p, min_spikes);
        data.extra_inputs.push_back(std::move(input));
    }

    return data;
}

LayerData
generateNetworkLayer(const NetworkSpec& net, std::size_t l,
                     std::uint64_t seed, bool ft, std::size_t batch)
{
    return generateLayer(net.layers.at(l),
                         seed + 0x9e3779b97f4a7c15ull * (l + 1), ft,
                         batch);
}

std::vector<LayerData>
generateNetwork(const NetworkSpec& net, std::uint64_t seed, bool ft,
                std::size_t batch)
{
    std::vector<LayerData> layers;
    layers.reserve(net.layers.size());
    for (std::size_t l = 0; l < net.layers.size(); ++l)
        layers.push_back(generateNetworkLayer(net, l, seed, ft, batch));
    return layers;
}

namespace {

/** Prefix sums of the networks' layer counts. */
std::vector<std::size_t>
layerOffsets(const std::vector<NetworkSpec>& networks)
{
    std::vector<std::size_t> offsets;
    offsets.reserve(networks.size() + 1);
    offsets.push_back(0);
    for (const auto& net : networks)
        offsets.push_back(offsets.back() + net.layers.size());
    return offsets;
}

} // namespace

LazyWorkload::LazyWorkload(std::vector<NetworkSpec> networks,
                           std::uint64_t seed, std::size_t batch,
                           std::array<std::size_t, 2> users)
    : networks_(std::move(networks)), seed_(seed), batch_(batch),
      users_(users), offsets_(layerOffsets(networks_)),
      slots_(2 * offsets_.back())
{}

LazyWorkload::Slot&
LazyWorkload::slot(std::size_t network, bool ft, std::size_t l)
{
    const NetworkSpec& net = networks_.at(network);
    if (l >= net.layers.size())
        panic("network '%s' has no layer %zu", net.name.c_str(), l);
    return slots_[2 * (offsets_[network] + l) + (ft ? 1 : 0)];
}

const LayerData&
LazyWorkload::layer(std::size_t network, bool ft, std::size_t l,
                    const std::function<void()>& before_synthesis)
{
    Slot& s = slot(network, ft, l);
    // The slot mutex makes the fill once-only and, unlike a once_flag,
    // plainly retryable: an exception unwinds the lock with `data`
    // still empty.
    const std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.data) {
        if (before_synthesis)
            before_synthesis();
        s.data = std::make_unique<const LayerData>(generateNetworkLayer(
            networks_[network], l, seed_, ft, batch_));
        synthesized_.fetch_add(1, std::memory_order_relaxed);
    }
    return *s.data;
}

void
LazyWorkload::release(std::size_t network, bool ft, std::size_t l)
{
    Slot& s = slot(network, ft, l);
    const std::lock_guard<std::mutex> lock(s.mutex);
    if (++s.released == users_[ft ? 1 : 0])
        s.data.reset();
}

AnnLayerData
generateAnnLayer(const LayerSpec& spec, std::uint64_t seed)
{
    Rng rng(seed ^ 0xcafef00du);
    AnnLayerData data{spec, DenseMatrix<std::int8_t>(spec.m, spec.k, 0),
                      DenseMatrix<std::int8_t>(spec.k, spec.n, 0)};
    const double act_density = 1.0 - spec.spike_sparsity;
    for (std::size_t m = 0; m < spec.m; ++m)
        for (std::size_t k = 0; k < spec.k; ++k)
            if (rng.bernoulli(act_density)) {
                // ReLU outputs: positive activations only.
                data.acts(m, k) =
                    static_cast<std::int8_t>(1 + rng.uniformInt(127));
            }
    const double weight_density = 1.0 - spec.weight_sparsity;
    for (std::size_t k = 0; k < spec.k; ++k)
        for (std::size_t n = 0; n < spec.n; ++n)
            if (rng.bernoulli(weight_density))
                data.weights(k, n) = sampleNonzeroWeight(rng);
    return data;
}

} // namespace loas
