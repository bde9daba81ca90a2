/** @file Tests for the accelerator registry and spec-string parsing. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "api/registry.hh"
#include "api/sim_engine.hh"
#include "workload/compiled_cache.hh"
#include "workload/networks.hh"

namespace loas {
namespace {

TEST(AccelSpec, ParsesBareKey)
{
    const AccelSpec spec = parseAccelSpec("loas");
    EXPECT_EQ(spec.key, "loas");
    EXPECT_TRUE(spec.options.empty());
    EXPECT_EQ(spec.str(), "loas");
}

TEST(AccelSpec, ParsesOptions)
{
    const AccelSpec spec = parseAccelSpec("loas?t=8&pes=32");
    EXPECT_EQ(spec.key, "loas");
    ASSERT_EQ(spec.options.size(), 2u);
    EXPECT_EQ(spec.options.at("t"), "8");
    EXPECT_EQ(spec.options.at("pes"), "32");
    EXPECT_EQ(spec.str(), "loas?pes=32&t=8"); // canonical: sorted keys
}

TEST(AccelSpec, RejectsMalformedSpecs)
{
    EXPECT_THROW(parseAccelSpec(""), std::invalid_argument);
    EXPECT_THROW(parseAccelSpec("?t=4"), std::invalid_argument);
    EXPECT_THROW(parseAccelSpec("loas?t"), std::invalid_argument);
    EXPECT_THROW(parseAccelSpec("loas?t="), std::invalid_argument);
    EXPECT_THROW(parseAccelSpec("loas?=4"), std::invalid_argument);
    EXPECT_THROW(parseAccelSpec("loas?t=4&t=8"), std::invalid_argument);
    EXPECT_THROW(parseAccelSpec("LoAS"), std::invalid_argument);
    EXPECT_THROW(parseAccelSpec("lo as"), std::invalid_argument);
}

TEST(AccelSpec, SplitsSpecLists)
{
    const auto specs = splitSpecList("loas,gamma?pes=8,sparten");
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_EQ(specs[0], "loas");
    EXPECT_EQ(specs[1], "gamma?pes=8");
    EXPECT_EQ(specs[2], "sparten");
    EXPECT_TRUE(splitSpecList("").empty());
}

TEST(OptionReader, ReadsTypedValuesAndRejectsBadOnes)
{
    const AccelSpec spec = parseAccelSpec("loas?t=8&pipelined=false");
    OptionReader opts(spec);
    EXPECT_EQ(opts.getInt("t", 4), 8);
    EXPECT_EQ(opts.getInt("pes", 16), 16); // absent: default
    EXPECT_FALSE(opts.getBool("pipelined", true));
    EXPECT_NO_THROW(opts.finish());

    OptionReader bad_int(parseAccelSpec("loas?t=four"));
    EXPECT_THROW(bad_int.getInt("t", 4), std::invalid_argument);
    OptionReader bad_bool(parseAccelSpec("loas?pipelined=maybe"));
    EXPECT_THROW(bad_bool.getBool("pipelined", true),
                 std::invalid_argument);
}

TEST(OptionReader, RejectsOutOfRangeIntegers)
{
    // Below the positive-quantity floor, and past int range (would
    // silently truncate through a bare static_cast).
    OptionReader zero(parseAccelSpec("loas?pes=0"));
    EXPECT_THROW(zero.getInt("pes", 16), std::invalid_argument);
    OptionReader negative(parseAccelSpec("loas?pes=-4"));
    EXPECT_THROW(negative.getInt("pes", 16), std::invalid_argument);
    OptionReader huge(parseAccelSpec("loas?pes=4294967296"));
    EXPECT_THROW(huge.getInt("pes", 16), std::invalid_argument);
}

TEST(Registry, EveryRegisteredKeyConstructs)
{
    const auto& registry = AcceleratorRegistry::instance();
    const auto keys = registry.keys();
    ASSERT_GE(keys.size(), 7u);
    for (const auto& key : keys) {
        SCOPED_TRACE(key);
        EXPECT_TRUE(registry.contains(key));
        const auto accel = registry.make(key);
        ASSERT_NE(accel, nullptr);
        EXPECT_FALSE(accel->name().empty());
        EXPECT_FALSE(registry.entry(key).description.empty());
    }
}

TEST(Registry, RoundTripsKnownDisplayNames)
{
    const auto& registry = AcceleratorRegistry::instance();
    EXPECT_EQ(registry.make("loas")->name(), "LoAS");
    EXPECT_EQ(registry.make("loas-ft")->name(), "LoAS-FT");
    EXPECT_EQ(registry.make("sparten")->name(), "SparTen-SNN");
    EXPECT_EQ(registry.make("gospa")->name(), "GoSPA-SNN");
    EXPECT_EQ(registry.make("gamma")->name(), "Gamma-SNN");
    EXPECT_EQ(registry.make("systolic")->name(), "PTB");
    EXPECT_EQ(registry.make("stellar")->name(), "Stellar");
    // The fused datapath is a spec option on the sparten key, not a
    // registry key of its own (it shares the sparten-snn artifacts).
    EXPECT_EQ(registry.make("sparten?fused=1")->name(),
              "SparTen-SNN(f)");
    EXPECT_EQ(registry.make("sparten?fused=0")->name(), "SparTen-SNN");
}

TEST(Registry, OnlyFtVariantsWantFtWorkloads)
{
    const auto& registry = AcceleratorRegistry::instance();
    EXPECT_TRUE(registry.entry("loas-ft").ft_workload);
    EXPECT_FALSE(registry.entry("loas").ft_workload);
    EXPECT_FALSE(registry.entry("sparten").ft_workload);
}

TEST(Registry, UnknownKeyAndBadOptionsThrow)
{
    const auto& registry = AcceleratorRegistry::instance();
    EXPECT_THROW(registry.make("does-not-exist"),
                 std::invalid_argument);
    // A well-formed option the factory does not understand must be
    // rejected, not silently ignored.
    EXPECT_THROW(registry.make("loas?bogus=1"), std::invalid_argument);
    EXPECT_THROW(registry.make("gamma?rows=4"), std::invalid_argument);
    // ...while options the factory does consume are fine.
    EXPECT_NO_THROW(registry.make("loas?t=8&pes=32"));
    EXPECT_NO_THROW(registry.make("systolic?rows=8&cols=2"));
    EXPECT_NO_THROW(registry.make("sparten?fused=1&collapse=0.5"));
    // collapse is a fraction: values outside [0, 1] are rejected.
    EXPECT_THROW(registry.make("sparten?collapse=1.5"),
                 std::invalid_argument);
}

TEST(Registry, CacheKbIsBoundedBeforeAnySynthesis)
{
    // The cache model holds per-line state, so cache_kb is capped at
    // 64 MiB; the error names the accepted range.
    const auto& registry = AcceleratorRegistry::instance();
    EXPECT_NO_THROW(registry.make("loas?cache_kb=65536"));
    for (const std::string spec :
         {"loas?cache_kb=65537", "loas-ft?cache_kb=65537",
          "loas?cache_kb=2147483647", "loas?cache_kb=0"}) {
        SCOPED_TRACE(spec);
        try {
            registry.make(spec);
            ADD_FAILURE() << "accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("[1, 65536]"),
                      std::string::npos)
                << e.what();
        }
    }

    // A run naming it fails request validation before anything is
    // synthesized or compiled, even behind a valid design.
    SimRequest request;
    request.accels = {"loas", "loas?cache_kb=65537"};
    request.networks = {NetworkSpec{"net", {tables::alexnetL4()}}};
    CompiledCache cache;
    request.compiled_cache = &cache;
    EXPECT_THROW(SimEngine().run(request), std::invalid_argument);
    EXPECT_EQ(cache.stats().misses, 0u);
}

} // namespace
} // namespace loas
