/** @file Tests for the batched multi-threaded simulation engine. */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "api/accel_spec.hh"
#include "api/json.hh"
#include "api/registry.hh"
#include "api/sim_engine.hh"
#include "core/loas_sim.hh"
#include "workload/generator.hh"
#include "workload/networks.hh"

namespace loas {
namespace {

/** A small two-network request covering plain and FT workloads. */
SimRequest
smallRequest()
{
    SimRequest request;
    request.accels = {"sparten", "loas", "loas-ft", "gamma?pes=8"};
    request.networks =
        {NetworkSpec{"net-a", {tables::alexnetL4(), tables::vgg16L8()}},
         NetworkSpec{"net-b", {tables::resnet19L19()}}};
    request.seed = 5;
    return request;
}

bool
identicalRuns(const SimRun& a, const SimRun& b)
{
    // Bit-identical simulation and energy outcomes; the JSON form
    // covers every scalar field, traffic category and op counter.
    return json::toJson(a) == json::toJson(b);
}

TEST(SimEngine, ProducesFullJobMatrixInRequestOrder)
{
    const SimRequest request = smallRequest();
    const SimReport report = SimEngine().run(request);
    ASSERT_EQ(report.runs.size(),
              request.accels.size() * request.networks.size());
    std::size_t i = 0;
    for (const auto& accel : request.accels) {
        for (const auto& net : request.networks) {
            EXPECT_EQ(report.runs[i].accel_spec, accel);
            EXPECT_EQ(report.runs[i].network, net.name);
            EXPECT_GT(report.runs[i].result.total_cycles, 0u);
            EXPECT_GT(report.runs[i].energy.totalPj(), 0.0);
            ++i;
        }
    }
    EXPECT_EQ(&report.at("loas", "net-b"),
              report.find("loas", "net-b"));
    EXPECT_EQ(report.find("loas", "no-such-network"), nullptr);
}

TEST(SimEngine, MultiThreadedRunIsBitIdenticalToSerial)
{
    SimRequest request = smallRequest();
    request.threads = 1;
    const SimReport serial = SimEngine().run(request);
    request.threads = 8;
    const SimReport threaded = SimEngine().run(request);

    ASSERT_EQ(serial.runs.size(), threaded.runs.size());
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
        SCOPED_TRACE(serial.runs[i].accel_spec + " / " +
                     serial.runs[i].network);
        EXPECT_TRUE(identicalRuns(serial.runs[i], threaded.runs[i]));
    }
}

TEST(SimEngine, ConcurrentRunsOnOneSharedCacheMatchTheirSerialRuns)
{
    // Two different designs on one network, run from two threads at
    // once on one shared cache: their task groups share the pool and
    // the network's lifetime in the cache, and each report is still
    // byte-equal to its own serial run on a private cache.
    const auto request_for = [](const char* accel) {
        SimRequest request;
        request.accels = {accel, std::string(accel) + "?pes=8"};
        request.networks = {NetworkSpec{
            "net", {tables::alexnetL4(), tables::vgg16L8()}}};
        request.seed = 9;
        request.batch = 2;
        return request;
    };
    SimRequest loas = request_for("loas");
    SimRequest gamma = request_for("gamma");
    loas.threads = gamma.threads = 1;
    const std::string loas_serial = json::toJson(SimEngine().run(loas));
    const std::string gamma_serial =
        json::toJson(SimEngine().run(gamma));

    CompiledCache shared;
    shared.setByteBudget(1);  // every finished layer is evictable
    loas.compiled_cache = gamma.compiled_cache = &shared;
    loas.threads = gamma.threads = 4;
    for (int round = 0; round < 3; ++round) {
        std::string loas_json, gamma_json;
        std::thread other(
            [&] { gamma_json = json::toJson(SimEngine().run(gamma)); });
        loas_json = json::toJson(SimEngine().run(loas));
        other.join();
        EXPECT_EQ(loas_json, loas_serial);
        EXPECT_EQ(gamma_json, gamma_serial);
    }
}

TEST(SimEngine, ReportsAreThreadCountInvariantOnFullNetworks)
{
    // The run --json report of every design on both full networks,
    // aggregate and per input, is byte-identical at 1, 3 and 8
    // threads. One cache per batch size keeps the compiles shared.
    for (const std::size_t batch : {std::size_t{1}, std::size_t{3}}) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        CompiledCache cache;
        SimRequest request;
        request.accels = {"sparten", "gospa", "gamma", "loas",
                          "loas-ft", "systolic", "stellar"};
        request.networks = {tables::vgg16(), tables::alexnet()};
        request.batch = batch;
        request.compiled_cache = &cache;
        request.threads = 1;
        const std::string serial = json::toJson(SimEngine().run(request));
        EXPECT_EQ(serial.find("\"inputs\"") != std::string::npos,
                  batch > 1);
        for (const int threads : {3, 8}) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            request.threads = threads;
            EXPECT_EQ(json::toJson(SimEngine().run(request)), serial);
        }
    }
}

TEST(SimEngine, MatchesDirectSimulatorInvocation)
{
    SimRequest request;
    request.accels = {"loas"};
    request.networks = {tables::alexnet()};
    request.seed = 11;
    const SimReport report = SimEngine().run(request);

    LoasSim direct;
    const RunResult expected = direct.runNetwork(
        generateNetwork(tables::alexnet(), 11), tables::alexnet().name);
    const RunResult& got = report.runs.front().result;
    EXPECT_EQ(got.total_cycles, expected.total_cycles);
    EXPECT_EQ(got.compute_cycles, expected.compute_cycles);
    EXPECT_EQ(got.traffic.dramBytes(), expected.traffic.dramBytes());
    EXPECT_EQ(got.ops.total(), expected.ops.total());
}

TEST(SimEngine, FtDesignsGetTheFtWorkload)
{
    SimRequest request;
    request.accels = {"loas", "loas-ft"};
    request.networks = {NetworkSpec{"layer", {tables::vgg16L8()}}};
    request.seed = 3;
    const SimReport report = SimEngine().run(request);

    // The FT-preprocessed workload has more silent neurons, so the
    // fully temporal-parallel design does strictly less join work.
    EXPECT_LT(report.at("loas-ft", "layer").result.ops.total(),
              report.at("loas", "layer").result.ops.total());
}

TEST(SimEngine, RejectsBadRequestsBeforeSimulating)
{
    SimRequest request = smallRequest();
    request.accels.push_back("no-such-accel");
    EXPECT_THROW(SimEngine().run(request), std::invalid_argument);
    request = smallRequest();
    request.accels.push_back("loas?bogus=1");
    EXPECT_THROW(SimEngine().run(request), std::invalid_argument);
    // Duplicate network names would silently share compiled operands
    // (and alias report cells), so they are rejected up front.
    request = smallRequest();
    request.networks.push_back(
        NetworkSpec{"net-a", {tables::vgg16L8()}});
    EXPECT_THROW(SimEngine().run(request), std::invalid_argument);
}

/** The token the cancel probe trips, and its execute-call count. */
std::atomic<bool> g_probe_cancel{false};
std::atomic<int> g_probe_executes{0};
int g_probe_trip_at = 0;

/** LoAS that raises g_probe_cancel on its g_probe_trip_at-th layer. */
class CancelProbe : public LoasSim
{
  public:
    RunResult
    executeInput(const CompiledLayer& compiled, std::size_t input,
                 std::size_t worker) override
    {
        if (++g_probe_executes == g_probe_trip_at)
            g_probe_cancel.store(true);
        return LoasSim::executeInput(compiled, input, worker);
    }
};

const RegisterAccelerator kRegisterCancelProbe(
    "cancel-probe",
    {"LoAS that cancels its own run mid-network (test only)",
     {},
     false,
     [](const AccelSpec&) { return std::make_unique<CancelProbe>(); }});

/** Run one probe cell over `layers` layers; returns executes done. */
int
runProbeUntilCancelled(std::size_t layers, int threads, int trip_at)
{
    NetworkSpec net{"probe-net", {}};
    for (std::size_t l = 0; l < layers; ++l)
        net.layers.push_back(l % 2 == 0 ? tables::alexnetL4()
                                        : tables::vgg16L8());
    SimRequest request;
    request.accels = {"cancel-probe"};
    request.networks = {net};
    request.threads = threads;
    request.energy = false;
    request.cancel = &g_probe_cancel;
    g_probe_cancel.store(false);
    g_probe_executes.store(0);
    g_probe_trip_at = trip_at;
    EXPECT_THROW(SimEngine().run(request), SimCancelled);
    return g_probe_executes.load();
}

TEST(SimEngineCancel, CancelRaisedMidCellStopsWithinOneLayerTask)
{
    // Serial: the task after the one that raised the cancel never
    // starts, although the cell has more layers.
    EXPECT_EQ(runProbeUntilCancelled(4, 1, 2), 2);
    // Threaded: only tasks already past their cancel check when the
    // token was raised still finish, at most one per other thread.
    const int threads = 4;
    EXPECT_LE(runProbeUntilCancelled(12, threads, 2), 2 + threads - 1);
}

/** A network of one T=8 copy of the AlexNet L4 layer. */
NetworkSpec
t8Network()
{
    LayerSpec layer = tables::alexnetL4();
    layer.t = 8;
    return NetworkSpec{"t8-net", {layer}};
}

TEST(SimEngineSharing, TooFewTimestepsStillFailsBesideItsTwin)
{
    // On a T=8 layer, loas?t=4 must be rejected as it is alone, before
    // anything compiles; sharing must not map it onto the loas?t=8
    // cell's results. A rejection is an exception, not an exit, so a
    // daemon survives it.
    const std::vector<std::vector<std::string>> orders = {
        {"loas?t=4", "loas?t=8"}, {"loas?t=8", "loas?t=4"}};
    for (const auto& accels : orders) {
        CompiledCache cache;
        SimRequest request;
        request.accels = accels;
        request.networks = {t8Network()};
        request.threads = 1;
        request.compiled_cache = &cache;
        EXPECT_THROW(
            {
                try {
                    SimEngine().run(request);
                } catch (const std::invalid_argument& e) {
                    EXPECT_STREQ(e.what(), "LoAS configured for 4 "
                                           "timesteps, layer 'A-L4' "
                                           "needs 8");
                    throw;
                }
            },
            std::invalid_argument)
            << accels[0];
        EXPECT_EQ(cache.stats().misses, 0u) << accels[0];
    }
}

/** Join, replay and execute calls made by replay-probe instances. */
std::atomic<int> g_probe_joins{0};
std::atomic<int> g_probe_replays{0};
std::atomic<int> g_probe_solo_executes{0};

/** LoAS that counts its join, replay and execute calls. */
class ReplayProbe : public LoasSim
{
  public:
    using LoasSim::LoasSim;

    RunResult
    executeInput(const CompiledLayer& compiled, std::size_t input,
                 std::size_t worker) override
    {
        ++g_probe_solo_executes;
        return LoasSim::executeInput(compiled, input, worker);
    }

    std::shared_ptr<const JoinTable>
    joinInput(const CompiledLayer& compiled, std::size_t input) override
    {
        ++g_probe_joins;
        return LoasSim::joinInput(compiled, input);
    }

    RunResult
    replayInput(const CompiledLayer& compiled, std::size_t input,
                const JoinTable& table) override
    {
        ++g_probe_replays;
        return LoasSim::replayInput(compiled, input, table);
    }
};

const RegisterAccelerator kRegisterReplayProbe(
    "replay-probe",
    {"LoAS that counts its joins and replays (test only)",
     {"t", "pes"},
     false,
     [](const AccelSpec& spec) {
         OptionReader opts(spec);
         LoasConfig config;
         config.timesteps = opts.getInt("t", config.timesteps);
         config.num_pes = opts.getInt("pes", config.num_pes);
         opts.finish();
         return std::make_unique<ReplayProbe>(config);
     }});

TEST(SimEngineSharing, EqualExecuteKeysReplayOncePerLayerInput)
{
    // Three designs over two T=4 layers and two inputs: t=4 and t=8
    // share an execute key, pes=8 shares only the join key. Each
    // (layer, input) joins once and replays twice.
    const std::size_t layers = 2;
    const std::size_t batch = 2;
    SimRequest request;
    request.accels = {"replay-probe?t=4", "replay-probe?t=8",
                      "replay-probe?pes=8"};
    request.networks = {NetworkSpec{
        "probe-net", {tables::alexnetL4(), tables::vgg16L8()}}};
    request.batch = batch;
    request.seed = 13;

    SimRequest plain = request;
    plain.accels = {"loas", "loas?pes=8"};
    plain.threads = 1;
    const SimReport reference = SimEngine().run(plain);

    for (const int threads : {1, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        g_probe_joins.store(0);
        g_probe_replays.store(0);
        g_probe_solo_executes.store(0);
        request.threads = threads;
        const SimReport report = SimEngine().run(request);
        EXPECT_EQ(g_probe_joins.load(),
                  static_cast<int>(layers * batch));
        EXPECT_EQ(g_probe_replays.load(),
                  static_cast<int>(2 * layers * batch));
        EXPECT_EQ(g_probe_solo_executes.load(), 0);

        // Shared work changes nothing: every cell equals its design
        // run alone, per input too.
        const auto same = [](const SimRun& a, const SimRun& b) {
            SimRun relabeled = a;
            relabeled.accel_spec = b.accel_spec;
            return identicalRuns(relabeled, b);
        };
        EXPECT_TRUE(same(report.runs[0], reference.runs[0]));
        EXPECT_TRUE(same(report.runs[1], reference.runs[0]));
        EXPECT_TRUE(same(report.runs[2], reference.runs[1]));
    }

    // A design alone has nobody to share with: it executes.
    g_probe_joins.store(0);
    g_probe_replays.store(0);
    g_probe_solo_executes.store(0);
    request.accels = {"replay-probe"};
    request.threads = 4;
    SimEngine().run(request);
    EXPECT_EQ(g_probe_solo_executes.load(),
              static_cast<int>(layers * batch));
    EXPECT_EQ(g_probe_joins.load() + g_probe_replays.load(), 0);
}

TEST(SimEngineSharing, BatchAboveTheLimitIsRejected)
{
    SimRequest request = smallRequest();
    request.batch = kMaxBatch + 1;
    EXPECT_THROW(SimEngine().run(request), std::invalid_argument);
}

TEST(SimEngineSynthesis, ColdRunSynthesizesEachSharedLayerOnce)
{
    // sparten, loas and gamma are three format families over the plain
    // workload, loas-ft one over the ft workload: 3 layers x 2
    // variants are 6 distinct tensors, however many families and
    // worker threads miss them.
    SimRequest request = smallRequest();
    for (const int threads : {1, 8}) {
        SCOPED_TRACE(threads);
        request.threads = threads;
        const SimReport report = SimEngine().run(request);
        EXPECT_EQ(report.synthesized_layers, 6u);
        EXPECT_EQ(report.compile_cache.misses, 12u);
    }
}

TEST(SimEngineSynthesis, WarmDiskRunSynthesizesNothing)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "loas-synth-warm";
    std::filesystem::remove_all(dir);
    SimRequest request = smallRequest();
    request.cache_dir = dir.string();

    const SimReport cold = SimEngine().run(request);
    EXPECT_EQ(cold.synthesized_layers, 6u);
    const SimReport warm = SimEngine().run(request);
    EXPECT_EQ(warm.compile_cache.misses, 0u);
    EXPECT_EQ(warm.synthesized_layers, 0u);
    EXPECT_EQ(json::toJson(cold), json::toJson(warm));
    // The counter is a side channel: the report JSON never shows it.
    EXPECT_EQ(json::toJson(warm).find("synthesized"), std::string::npos);
}

TEST(SimEngineSynthesis, OneMissingFamilySynthesizesOnlyItsLayers)
{
    CompiledCache shared;
    SimRequest request = smallRequest();
    request.accels = {"sparten", "loas-ft"};
    request.compiled_cache = &shared;
    EXPECT_EQ(SimEngine().run(request).synthesized_layers, 6u);

    // gamma is the only family that misses: its 3 plain layers are
    // synthesized, the ft variant is not touched.
    request.accels.push_back("gamma?pes=8");
    const SimReport report = SimEngine().run(request);
    EXPECT_EQ(report.compile_cache.misses, 3u);
    EXPECT_EQ(report.synthesized_layers, 3u);

    request.compiled_cache = nullptr;
    const SimReport fresh = SimEngine().run(request);
    EXPECT_EQ(json::toJson(report), json::toJson(fresh));
}

TEST(SimEngineJson, ReportSerializesEveryRun)
{
    SimRequest request;
    request.accels = {"sparten", "loas"};
    request.networks = {NetworkSpec{"layer", {tables::alexnetL4()}}};
    request.seed = 9;
    const SimReport report = SimEngine().run(request);
    const std::string out = json::toJson(report);

    EXPECT_NE(out.find("\"runs\": ["), std::string::npos);
    EXPECT_NE(out.find("\"accel_spec\": \"sparten\""),
              std::string::npos);
    EXPECT_NE(out.find("\"accel\": \"LoAS\""), std::string::npos);
    EXPECT_NE(out.find("\"total_cycles\": "), std::string::npos);
    EXPECT_NE(out.find("\"dram_read_bytes\": "), std::string::npos);
    EXPECT_NE(out.find("\"total_pj\": "), std::string::npos);
}

TEST(RunResultAggregation, StaticScaleAdoptsFirstWorkBearingSummand)
{
    RunResult total;
    RunResult empty;          // zero work: scale is immaterial
    empty.static_scale = 0.25;
    RunResult systolic;
    systolic.compute_cycles = 10;
    systolic.total_cycles = 10;
    systolic.static_scale = 0.2;

    total += empty;
    total += systolic;
    total += systolic;
    EXPECT_DOUBLE_EQ(total.static_scale, 0.2);
    EXPECT_EQ(total.total_cycles, 20u);
}

TEST(SimEngineJson, EscapesStrings)
{
    EXPECT_EQ(json::quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
}

} // namespace
} // namespace loas
