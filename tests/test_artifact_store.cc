/**
 * @file
 * Tests for the on-disk compiled-artifact level: round-trip equality of
 * every format family (including rank tables over k % 64 != 0 masks),
 * header validation (magic / version / checksum / key), corruption
 * fallback, and golden-identity of engine runs with the cache cold,
 * warm in memory, and warm on disk.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "api/json.hh"
#include "common/fault.hh"
#include "api/registry.hh"
#include "api/sweep.hh"
#include "api/sweep_io.hh"
#include "baselines/gamma.hh"
#include "baselines/gospa.hh"
#include "core/loas_sim.hh"
#include "workload/artifact_io.hh"
#include "workload/artifact_store.hh"
#include "workload/compiled_cache.hh"
#include "workload/generator.hh"
#include "workload/networks.hh"

namespace loas {
namespace {

namespace fs = std::filesystem;

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

/**
 * A small layer whose reduction dimension is deliberately not a
 * multiple of 64, so serialized bitmask tails and rank tables cover
 * the partial-word path.
 */
LayerSpec
oddLayer()
{
    LayerSpec spec = tables::alexnetL4();
    spec.name = "odd-layer";
    spec.m = 48;
    spec.n = 40;
    spec.k = 130; // k % 64 != 0
    return spec;
}

TEST(ArtifactStore, RoundTripsEveryFamilyBitIdentically)
{
    const std::string dir = tempCacheDir("roundtrip");
    const ArtifactStore store(dir);
    const auto& registry = AcceleratorRegistry::instance();

    // One design per format family; loas-ft exercises the ft-workload
    // variant of the loas family on its own key.
    const std::vector<std::string> designs = {
        "loas", "loas-ft", "sparten", "gospa", "gamma", "systolic"};
    for (const auto& design : designs) {
        SCOPED_TRACE(design);
        const bool ft = registry.entry(design).ft_workload;
        const LayerData layer = generateLayer(oddLayer(), 19, ft);
        const auto compiler = registry.make(design);
        const CompiledLayer compiled = compiler->prepare(layer);
        const std::string key = compiledLayerKey(
            "net", 0, ft, compiler->formatFamily(), layer.spec.t, 19);

        ASSERT_TRUE(store.store(key, compiled));
        const ArtifactStore::LoadResult loaded = store.load(key);
        EXPECT_FALSE(loaded.rejected);
        ASSERT_NE(loaded.layer, nullptr);

        EXPECT_EQ(loaded.layer->family, compiled.family);
        EXPECT_EQ(loaded.layer->spec.name, compiled.spec.name);
        EXPECT_EQ(loaded.layer->m, compiled.m);
        EXPECT_EQ(loaded.layer->k, compiled.k);
        EXPECT_EQ(loaded.layer->n, compiled.n);
        EXPECT_EQ(loaded.layer->timesteps, compiled.timesteps);
        EXPECT_EQ(loaded.layer->bytes, compiled.bytes);

        // The decisive check: the simulated datapath cannot tell the
        // reconstructed artifact from the freshly compiled one.
        const RunResult from_fresh =
            registry.make(design)->execute(compiled);
        const RunResult from_disk =
            registry.make(design)->execute(*loaded.layer);
        EXPECT_EQ(json::toJson(from_fresh), json::toJson(from_disk));
    }

    EXPECT_EQ(store.stats().files, designs.size());
    EXPECT_GT(store.stats().bytes, 0u);
    EXPECT_EQ(store.clear(), designs.size());
    EXPECT_EQ(store.stats().files, 0u);
}

TEST(ArtifactStore, FusedSpartenExecutesIdenticallyFromDisk)
{
    // The fused=0/1 design variants share one sparten-snn artifact, so
    // the v3 temporally-packed operands must survive the disk round
    // trip well enough that the fused datapath cannot tell either: the
    // same artifact must serve both variants byte-identically.
    const std::string dir = tempCacheDir("fused");
    const ArtifactStore store(dir);
    const auto& registry = AcceleratorRegistry::instance();
    const LayerData layer = generateLayer(oddLayer(), 43);
    const auto compiler = registry.make("sparten");
    const CompiledLayer compiled = compiler->prepare(layer);
    const std::string key = compiledLayerKey(
        "net", 0, false, compiler->formatFamily(), layer.spec.t, 43);
    ASSERT_TRUE(store.store(key, compiled));
    const ArtifactStore::LoadResult loaded = store.load(key);
    ASSERT_NE(loaded.layer, nullptr);

    for (const std::string spec :
         {"sparten?fused=1", "sparten?fused=1&collapse=0"}) {
        SCOPED_TRACE(spec);
        const RunResult from_fresh =
            registry.make(spec)->execute(compiled);
        const RunResult from_disk =
            registry.make(spec)->execute(*loaded.layer);
        EXPECT_EQ(json::toJson(from_fresh), json::toJson(from_disk));
    }
}

TEST(ArtifactStore, MissingFileIsAMissNotARejection)
{
    const ArtifactStore store(tempCacheDir("missing"));
    const ArtifactStore::LoadResult result = store.load("no-such-key");
    EXPECT_EQ(result.layer, nullptr);
    EXPECT_FALSE(result.rejected);
}

TEST(ArtifactStore, ChecksumRejectsCorruptedFiles)
{
    const std::string dir = tempCacheDir("corrupt");
    const ArtifactStore store(dir);
    const LayerData layer = generateLayer(oddLayer(), 23);
    const auto compiler = AcceleratorRegistry::instance().make("loas");
    const std::string key =
        compiledLayerKey("net", 0, false, "loas", layer.spec.t, 23);
    ASSERT_TRUE(store.store(key, compiler->prepare(layer)));

    // Flip one payload byte in place: the checksum must catch it.
    const std::string path = store.path(key);
    {
        std::fstream file(path, std::ios::in | std::ios::out |
                                    std::ios::binary);
        ASSERT_TRUE(file.good());
        file.seekg(100);
        const char flipped = static_cast<char>(file.get() ^ 0xff);
        file.seekp(100);
        file.put(flipped);
    }
    const ArtifactStore::LoadResult result = store.load(key);
    EXPECT_EQ(result.layer, nullptr);
    EXPECT_TRUE(result.rejected);
}

/** Header bytes ahead of the payload: magic, version, checksum, size. */
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8;

/** XOR one byte of a file in place (0xff: never a no-op). */
void
flipByte(const std::string& path, std::size_t offset)
{
    std::fstream file(path, std::ios::in | std::ios::out |
                                std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(static_cast<std::streamoff>(offset));
    const char flipped = static_cast<char>(file.get() ^ 0xff);
    file.seekp(static_cast<std::streamoff>(offset));
    file.put(flipped);
    ASSERT_TRUE(file.good());
}

TEST(ArtifactChecksum, EverySingleByteFlipChangesIt)
{
    // Sizes around the 32-byte stripe: tail only, exact stripes, and
    // stripes plus a partial last word.
    for (const std::size_t size : {1u, 7u, 31u, 32u, 33u, 100u}) {
        std::string buf(size, '\0');
        for (std::size_t i = 0; i < size; ++i)
            buf[i] = static_cast<char>(i * 37 + 11);
        const std::uint64_t base = artio::checksum(buf.data(), size);
        for (std::size_t i = 0; i < size; ++i) {
            for (const unsigned mask : {0x01u, 0x80u, 0xffu}) {
                std::string flipped = buf;
                flipped[i] = static_cast<char>(flipped[i] ^ mask);
                EXPECT_NE(artio::checksum(flipped.data(), size), base)
                    << "size " << size << " byte " << i;
            }
        }
    }
    // The length is folded in: zero padding cannot alias a longer
    // all-zero payload.
    const std::string zeros(64, '\0');
    for (std::size_t size = 0; size < zeros.size(); ++size)
        EXPECT_NE(artio::checksum(zeros.data(), size),
                  artio::checksum(zeros.data(), size + 1));
}

TEST(ArtifactChecksum, StreamingEqualsOneShotAtEverySplit)
{
    // Loads and stores checksum the payload piece by piece as it
    // streams; every split of every size around the 32-byte stripe and
    // its sub-word tail must give the one-shot value.
    std::string buf(200, '\0');
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<char>(i * 131 + 7);
    for (std::size_t size = 0; size <= buf.size(); ++size) {
        const std::uint64_t whole = artio::checksum(buf.data(), size);
        for (std::size_t split = 0; split <= size; ++split) {
            artio::Checksum sum;
            sum.update(buf.data(), split);
            sum.update(buf.data() + split, size - split);
            EXPECT_EQ(sum.finish(), whole)
                << "size " << size << " split " << split;
        }
        artio::Checksum bytewise;
        for (std::size_t i = 0; i < size; ++i)
            bytewise.update(buf.data() + i, 1);
        EXPECT_EQ(bytewise.finish(), whole) << "size " << size;
    }
}

/**
 * Store `compiled` after `corrupt` edits a copy of its artifact, so
 * the file carries a valid checksum over malformed operands; the
 * loader's own validation must reject it.
 */
template <typename Art, typename Corrupt>
void
expectCorruptArtifactRejected(const std::string& design, Corrupt&& corrupt)
{
    SCOPED_TRACE(design);
    const ArtifactStore store(tempCacheDir("malformed-" + design));
    const LayerData layer = generateLayer(oddLayer(), 37);
    const auto compiler = AcceleratorRegistry::instance().make(design);
    CompiledLayer compiled = compiler->prepare(layer);
    auto art = std::make_shared<Art>(
        artifactAs<Art>(compiled, compiler->formatFamily()));
    corrupt(*art);
    compiled.artifact = art;
    const std::string key = compiledLayerKey(
        "net", 0, false, compiler->formatFamily(), layer.spec.t, 37);
    ASSERT_TRUE(store.store(key, compiled));
    const ArtifactStore::LoadResult result = store.load(key);
    EXPECT_EQ(result.layer, nullptr);
    EXPECT_TRUE(result.rejected);
    EXPECT_FALSE(result.io_error);
}

/** First fiber of `set` storing at least `min_nnz` values. */
template <typename Set>
std::size_t
fiberWithNnz(const Set& set, std::size_t min_nnz)
{
    for (std::size_t i = 0; i < set.fibers; ++i)
        if (set.nnz(i) >= min_nnz)
            return i;
    ADD_FAILURE() << "no fiber stores " << min_nnz << " values";
    return 0;
}

TEST(ArtifactStore, ChecksumValidMalformedOperandsReject)
{
    // One fiber's values cut by one: the values no longer match the
    // mask popcount, and the joins would index past the fiber.
    expectCorruptArtifactRejected<GospaCompiled>(
        "gospa", [](GospaCompiled& art) {
            const std::size_t i = fiberWithNnz(art.b, 2);
            art.b.values.erase(art.b.values.begin() +
                               static_cast<std::ptrdiff_t>(
                                   art.b.value_begin[i] + 1));
        });
    // A set bit past the mask length (n = 40 leaves a partial word),
    // with a value added so the popcount still matches.
    expectCorruptArtifactRejected<GammaCompiled>(
        "gamma", [](GammaCompiled& art) {
            art.b.words[art.b.wordsPerFiber() - 1] |= std::uint64_t{1}
                                                      << 63;
            art.b.values.insert(
                art.b.values.begin() +
                    static_cast<std::ptrdiff_t>(art.b.value_begin[1]),
                1);
        });
    // A temporal word wider than T: the fan-out would index a timestep
    // accumulator past the layer's T.
    expectCorruptArtifactRejected<LoasCompiled>(
        "loas", [](LoasCompiled& art) {
            SpikeFiberSet& a = art.a[0];
            a.values[a.value_begin[fiberWithNnz(a, 1)]] = TimeWord{1}
                                                           << a.value_bits;
        });
}

TEST(ArtifactStore, ChecksumRejectsFlipsInFirstWordAndTail)
{
    const std::string dir = tempCacheDir("word-checksum");
    const ArtifactStore store(dir);
    const LayerData layer = generateLayer(oddLayer(), 61);
    const CompiledLayer compiled =
        AcceleratorRegistry::instance().make("loas")->prepare(layer);

    // Grow the key until the payload ends in a sub-32-byte tail the
    // checksum folds in after its four lanes.
    std::string key =
        compiledLayerKey("net", 0, false, "loas", layer.spec.t, 61);
    std::size_t file_size = 0;
    for (;; key += '+') {
        ASSERT_TRUE(store.store(key, compiled));
        file_size = fs::file_size(store.path(key));
        if ((file_size - kHeaderBytes) % 32 != 0)
            break;
    }

    for (const std::size_t offset : {kHeaderBytes + 5, file_size - 1}) {
        SCOPED_TRACE(offset);
        flipByte(store.path(key), offset);
        const ArtifactStore::LoadResult result = store.load(key);
        EXPECT_EQ(result.layer, nullptr);
        EXPECT_TRUE(result.rejected);
        EXPECT_FALSE(result.io_error);
        // Flipping back restores a file that loads intact.
        flipByte(store.path(key), offset);
        EXPECT_NE(store.load(key).layer, nullptr);
    }
}

TEST(ArtifactStore, FormatVersionMismatchRejects)
{
    const std::string dir = tempCacheDir("version");
    const ArtifactStore store(dir);
    const LayerData layer = generateLayer(oddLayer(), 29);
    const auto compiler = AcceleratorRegistry::instance().make("gamma");
    const std::string key =
        compiledLayerKey("net", 0, false, "gamma", layer.spec.t, 29);
    ASSERT_TRUE(store.store(key, compiler->prepare(layer)));

    // Patch the version stamp (bytes 8..11, after the 8-byte magic).
    const std::string path = store.path(key);
    {
        std::fstream file(path, std::ios::in | std::ios::out |
                                    std::ios::binary);
        ASSERT_TRUE(file.good());
        file.seekp(8);
        const std::uint32_t bumped = ArtifactStore::kFormatVersion + 1;
        file.write(reinterpret_cast<const char*>(&bumped),
                   sizeof(bumped));
    }
    const ArtifactStore::LoadResult result = store.load(key);
    EXPECT_EQ(result.layer, nullptr);
    EXPECT_TRUE(result.rejected);
}

TEST(ArtifactStore, TruncatedFileRejects)
{
    const std::string dir = tempCacheDir("truncate");
    const ArtifactStore store(dir);
    const LayerData layer = generateLayer(oddLayer(), 31);
    const auto compiler = AcceleratorRegistry::instance().make("gospa");
    const std::string key =
        compiledLayerKey("net", 0, false, "gospa", layer.spec.t, 31);
    ASSERT_TRUE(store.store(key, compiler->prepare(layer)));

    const std::string path = store.path(key);
    fs::resize_file(path, fs::file_size(path) / 2);
    const ArtifactStore::LoadResult result = store.load(key);
    EXPECT_EQ(result.layer, nullptr);
    EXPECT_TRUE(result.rejected);
}

TEST(DiskCache, ColdWarmMemoryAndWarmDiskRunsAreByteIdentical)
{
    const std::string dir = tempCacheDir("golden");
    SweepRequest request;
    request.grids = {"loas?pes=8,16", "sparten"};
    request.networks = {"alexnet-l4"};
    request.seed = 37;
    request.threads = 2;

    // Cold: no cache directory, private in-memory cache only.
    const SweepReport cold = SweepEngine().run(request);

    // Cold-disk: same request, now writing through to disk.
    request.cache_dir = dir;
    const SweepReport cold_disk = SweepEngine().run(request);
    EXPECT_EQ(toCsv(cold), toCsv(cold_disk));
    EXPECT_EQ(json::toJson(cold), json::toJson(cold_disk));
    EXPECT_EQ(cold_disk.compile_cache.disk_hits, 0u);
    EXPECT_GT(cold_disk.compile_cache.disk_writes, 0u);

    // Warm-disk: a fresh private cache (a "new process") loads every
    // artifact from disk and compiles nothing.
    const SweepReport warm_disk = SweepEngine().run(request);
    EXPECT_EQ(toCsv(cold), toCsv(warm_disk));
    EXPECT_EQ(json::toJson(cold), json::toJson(warm_disk));
    EXPECT_EQ(warm_disk.compile_cache.misses, 0u);
    EXPECT_EQ(warm_disk.compile_cache.compile_ms, 0.0);
    EXPECT_EQ(warm_disk.compile_cache.disk_hits,
              cold_disk.compile_cache.disk_writes);

    // Warm-memory: a shared cache across two runs serves pure hits.
    CompiledCache shared;
    request.cache_dir.clear();
    request.compiled_cache = &shared;
    SweepEngine().run(request);
    const SweepReport warm_mem = SweepEngine().run(request);
    EXPECT_EQ(toCsv(cold), toCsv(warm_mem));
    EXPECT_EQ(warm_mem.compile_cache.misses, 0u);
    EXPECT_EQ(warm_mem.compile_cache.hits,
              cold.compile_cache.hits + cold.compile_cache.misses);
}

TEST(DiskCache, CorruptedEntryFallsBackToRecompile)
{
    const std::string dir = tempCacheDir("fallback");
    SimRequest request;
    request.accels = {"loas"};
    request.networks = {NetworkSpec{"layer", {oddLayer()}}};
    request.seed = 41;
    request.cache_dir = dir;

    const SimReport cold = SimEngine().run(request);
    EXPECT_EQ(cold.compile_cache.disk_writes, 1u);

    // Corrupt the single stored artifact (bit-flip, never a no-op).
    for (const auto& entry : fs::directory_iterator(dir)) {
        std::fstream file(entry.path(), std::ios::in | std::ios::out |
                                            std::ios::binary);
        file.seekg(64);
        const char flipped = static_cast<char>(file.get() ^ 0xff);
        file.seekp(64);
        file.put(flipped);
    }

    const SimReport warm = SimEngine().run(request);
    EXPECT_EQ(warm.compile_cache.disk_hits, 0u);
    EXPECT_EQ(warm.compile_cache.disk_rejects, 1u);
    EXPECT_EQ(warm.compile_cache.misses, 1u);
    // The rejected file was overwritten with a good copy...
    EXPECT_EQ(warm.compile_cache.disk_writes, 1u);
    EXPECT_EQ(json::toJson(cold.runs[0].result),
              json::toJson(warm.runs[0].result));

    // ...so a third run is a clean disk hit again.
    const SimReport healed = SimEngine().run(request);
    EXPECT_EQ(healed.compile_cache.disk_hits, 1u);
    EXPECT_EQ(healed.compile_cache.misses, 0u);
}

TEST(DiskCache, V5FileIsRejectedRecompiledAndRewrittenAsV6)
{
    const std::string dir = tempCacheDir("v5");
    const LayerData layer = generateLayer(oddLayer(), 67);
    const auto compiler = AcceleratorRegistry::instance().make("loas");
    const CompiledLayer compiled = compiler->prepare(layer);
    const std::string key =
        compiledLayerKey("net", 0, false, "loas", layer.spec.t, 67);

    // A file stamped version 5 whose checksum is still valid (v5 used
    // the same checksum): only the stamp marks it stale.
    ASSERT_TRUE(ArtifactStore(dir).store(key, compiled));
    {
        std::fstream file(ArtifactStore(dir).path(key),
                          std::ios::binary | std::ios::in | std::ios::out);
        const std::uint32_t v5 = 5;
        file.seekp(8);
        file.write(reinterpret_cast<const char*>(&v5), sizeof(v5));
        ASSERT_TRUE(file.good());
    }

    CompiledCache cache;
    cache.setDiskDir(dir);
    cache.getOrCompile(key, [&] { return compiler->prepare(layer); });
    const CompiledCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.disk_hits, 0u);
    EXPECT_EQ(stats.disk_rejects, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.disk_writes, 1u);
    // A stale version is data, not an I/O failure: the breaker holds.
    EXPECT_EQ(stats.disk_degraded, 0u);

    std::uint32_t version = 0;
    {
        std::ifstream file(ArtifactStore(dir).path(key),
                           std::ios::binary);
        file.seekg(8);
        file.read(reinterpret_cast<char*>(&version), sizeof(version));
    }
    EXPECT_EQ(version, 6u);
    EXPECT_EQ(version, ArtifactStore::kFormatVersion);

    const ArtifactStore::LoadResult loaded = ArtifactStore(dir).load(key);
    ASSERT_NE(loaded.layer, nullptr);
    EXPECT_EQ(json::toJson(compiler->execute(compiled)),
              json::toJson(compiler->execute(*loaded.layer)));
}

/** Tests below arm the process-global fault registry; disarm after. */
struct FaultGuard
{
    FaultGuard() { fault::reset(); }
    ~FaultGuard() { fault::reset(); }
};

TEST(FaultedStore, InjectedFaultsDegradeCleanlyOnEveryFamily)
{
    FaultGuard guard;
    const std::string dir = tempCacheDir("faulted");
    const ArtifactStore store(dir);
    const auto& registry = AcceleratorRegistry::instance();

    const std::vector<std::string> designs = {
        "loas", "loas-ft", "sparten", "gospa", "gamma", "systolic"};
    for (const auto& design : designs) {
        SCOPED_TRACE(design);
        const bool ft = registry.entry(design).ft_workload;
        const LayerData layer = generateLayer(oddLayer(), 53, ft);
        const auto compiler = registry.make(design);
        const CompiledLayer compiled = compiler->prepare(layer);
        const std::string key = compiledLayerKey(
            "net", 0, ft, compiler->formatFamily(), layer.spec.t, 53);

        // A write fault fails the store without publishing anything —
        // no artifact, no leaked temp.
        fault::configure("disk.write=1");
        EXPECT_FALSE(store.store(key, compiled));
        EXPECT_EQ(store.load(key).layer, nullptr);
        EXPECT_EQ(store.stats().tmp_files, 0u);

        // A rename fault fails after the payload was written; the
        // temp must still be cleaned up.
        fault::configure("disk.rename=1");
        EXPECT_FALSE(store.store(key, compiled));
        EXPECT_EQ(store.stats().tmp_files, 0u);

        // Disarmed, the same store succeeds; a read fault then
        // rejects the valid file as an I/O error...
        fault::reset();
        ASSERT_TRUE(store.store(key, compiled));
        fault::configure("disk.read=1");
        const ArtifactStore::LoadResult faulted = store.load(key);
        EXPECT_EQ(faulted.layer, nullptr);
        EXPECT_TRUE(faulted.rejected);
        EXPECT_TRUE(faulted.io_error);

        // ...and once the fault clears, the artifact loads intact and
        // executes identically to the fresh compile.
        fault::reset();
        const ArtifactStore::LoadResult loaded = store.load(key);
        ASSERT_NE(loaded.layer, nullptr);
        EXPECT_FALSE(loaded.rejected);
        const RunResult from_fresh =
            registry.make(design)->execute(compiled);
        const RunResult from_disk =
            registry.make(design)->execute(*loaded.layer);
        EXPECT_EQ(json::toJson(from_fresh), json::toJson(from_disk));
    }
    EXPECT_EQ(store.stats().files, designs.size());
}

TEST(StaleTemps, AreCountedSweptByAgeAndClearedUnconditionally)
{
    const std::string dir = tempCacheDir("tmps");
    const ArtifactStore store(dir);
    const LayerData layer = generateLayer(oddLayer(), 59);
    const auto compiler = AcceleratorRegistry::instance().make("loas");
    const std::string key =
        compiledLayerKey("net", 0, false, "loas", layer.spec.t, 59);
    ASSERT_TRUE(store.store(key, compiler->prepare(layer)));

    // Fabricate the orphans a writer killed between open and rename
    // would leave behind.
    const auto orphan = [&](const std::string& name) {
        std::ofstream(fs::path(dir) /
                      (name + ArtifactStore::kFileSuffix + ".tmp.1.2"))
            << "torn";
    };
    orphan("dead-writer-a");
    orphan("dead-writer-b");

    ArtifactStore::DiskStats stats = store.stats();
    EXPECT_EQ(stats.files, 1u); // temps never count as artifacts
    EXPECT_EQ(stats.tmp_files, 2u);

    // Young temps survive an age-bounded sweep (a live writer's temp
    // must never be reaped), age 0 sweeps them all.
    EXPECT_EQ(store.sweepStaleTemps(3600.0), 0u);
    EXPECT_EQ(store.stats().tmp_files, 2u);
    EXPECT_EQ(store.sweepStaleTemps(0.0), 2u);
    EXPECT_EQ(store.stats().tmp_files, 0u);

    // clear() removes temps regardless of age, artifacts included.
    orphan("dead-writer-c");
    EXPECT_EQ(store.clear(), 2u); // 1 artifact + 1 temp
    EXPECT_EQ(store.stats().files, 0u);
    EXPECT_EQ(store.stats().tmp_files, 0u);

    // Attaching a cache to the directory sweeps stale temps and
    // reports them in the cache's own counters.
    orphan("dead-writer-d");
    const fs::path orphan_path =
        fs::path(dir) / (std::string("dead-writer-d") +
                         ArtifactStore::kFileSuffix + ".tmp.1.2");
    const fs::file_time_type old_stamp =
        fs::file_time_type::clock::now() - std::chrono::hours(2);
    fs::last_write_time(orphan_path, old_stamp);
    CompiledCache cache;
    cache.setDiskDir(dir);
    EXPECT_EQ(cache.stats().disk_tmp_swept, 1u);
    EXPECT_EQ(store.stats().tmp_files, 0u);
}

} // namespace
} // namespace loas
