/**
 * @file
 * Heap allocations of a warm artifact load. A compiled operand is a
 * flat fiber set — a few contiguous arrays — so loading one from disk
 * costs a small, fixed number of allocations however many fibers it
 * holds. This binary links the counting operator-new replacement
 * (common/alloc_hook.cc) to measure that.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "api/registry.hh"
#include "common/alloc_hook.hh"
#include "workload/artifact_store.hh"
#include "workload/compiled_cache.hh"
#include "workload/generator.hh"
#include "workload/networks.hh"

namespace loas {
namespace {

namespace fs = std::filesystem;

/** Upper bound on the allocations of one gospa layer load. */
constexpr std::uint64_t kMaxLoadAllocations = 32;

/** Allocations made by one load of `spec`'s stored gospa artifact. */
std::uint64_t
gospaLoadAllocations(const LayerSpec& spec, const std::string& dir_name)
{
    const fs::path dir = fs::path(::testing::TempDir()) / dir_name;
    fs::remove_all(dir);
    const ArtifactStore store(dir.string());
    const LayerData layer = generateLayer(spec, 5);
    const CompiledLayer compiled =
        AcceleratorRegistry::instance().make("gospa")->prepare(layer);
    const std::string key =
        compiledLayerKey("alloc-net", 0, false, "gospa", spec.t, 5);
    EXPECT_TRUE(store.store(key, compiled));

    const std::uint64_t before = allochook::allocationCount();
    const ArtifactStore::LoadResult loaded = store.load(key);
    const std::uint64_t allocations =
        allochook::allocationCount() - before;
    EXPECT_NE(loaded.layer, nullptr);
    return allocations;
}

TEST(ArtifactLoadAllocations, FixedCountWhateverTheFiberCount)
{
    ASSERT_TRUE(allochook::active());
    // GoSPA compiles the K rows of B: 2304 weight fibers for VGG16-L8
    // against 130 for the small layer.
    LayerSpec small = tables::alexnetL4();
    small.name = "small";
    small.m = 16;
    small.n = 40;
    small.k = 130;
    const std::uint64_t few = gospaLoadAllocations(small, "allocs-small");
    const std::uint64_t many =
        gospaLoadAllocations(tables::vgg16L8(), "allocs-large");
    EXPECT_LE(few, kMaxLoadAllocations);
    EXPECT_LE(many, kMaxLoadAllocations);
    EXPECT_EQ(few, many);
}

} // namespace
} // namespace loas
