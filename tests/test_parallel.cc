/**
 * @file
 * Tests of the process-wide task pool (common/parallel.hh): width
 * caps, nested loops, exception propagation, fair sharing between
 * concurrent groups, and the bound on the pool's thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hh"

namespace loas {
namespace {

/** The widest group any test here asks for beyond the core count. */
constexpr int kExtraWidth = 2;

void
spin(std::chrono::microseconds duration)
{
    const auto until = std::chrono::steady_clock::now() + duration;
    while (std::chrono::steady_clock::now() < until)
        std::this_thread::yield();
}

/** Raise `peak` to at least `value`. */
void
raise(std::atomic<int>& peak, int value)
{
    int seen = peak.load();
    while (seen < value && !peak.compare_exchange_weak(seen, value)) {
    }
}

TEST(TaskPool, WidthCapBoundsConcurrentParticipants)
{
    for (const int width : {2, 3}) {
        std::atomic<int> inside{0};
        std::atomic<int> peak{0};
        std::atomic<bool> bad_worker{false};
        std::vector<int> done(200, 0);
        const auto limit = static_cast<std::size_t>(width);
        parallelForWorkers(
            done.size(), width, [&](std::size_t worker, std::size_t job) {
                if (worker >= limit)
                    bad_worker = true;
                raise(peak, ++inside);
                spin(std::chrono::microseconds(200));
                --inside;
                done[job] += 1;
            });
        EXPECT_LE(peak.load(), width);
        EXPECT_FALSE(bad_worker.load());
        EXPECT_EQ(std::count(done.begin(), done.end(), 1),
                  static_cast<long>(done.size()));
    }
}

TEST(TaskPool, NestedLoopsInsidePoolTasksComplete)
{
    // Every outer task issues an inner loop while the outer group
    // holds as many participants as the pool has threads: the inner
    // groups finish on their callers even with no pool thread free.
    const int outer_width = resolveThreads(0) + 1;
    std::vector<std::vector<int>> sums(16, std::vector<int>(64, 0));
    parallelFor(sums.size(), outer_width, [&](std::size_t o) {
        parallelFor(sums[o].size(), 4, [&](std::size_t i) {
            sums[o][i] = static_cast<int>(o * 100 + i);
        });
    });
    for (std::size_t o = 0; o < sums.size(); ++o)
        for (std::size_t i = 0; i < sums[o].size(); ++i)
            ASSERT_EQ(sums[o][i], static_cast<int>(o * 100 + i));
}

TEST(TaskPool, FirstExceptionReachesCallerAndLaterJobsAreSkipped)
{
    std::atomic<int> ran{0};
    try {
        parallelFor(1000, 2, [&](std::size_t job) {
            ++ran;
            spin(std::chrono::microseconds(100));
            if (job == 5)
                throw std::runtime_error("job 5 failed");
        });
        FAIL() << "the loop swallowed its exception";
    } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "job 5 failed");
    }
    // Jobs claimed after the failure are skipped, not run.
    EXPECT_LT(ran.load(), 100);

    // The pool stays usable after a failed group.
    std::atomic<int> after{0};
    parallelFor(64, 2, [&](std::size_t) { ++after; });
    EXPECT_EQ(after.load(), 64);
}

TEST(TaskPool, SmallGroupFinishesWhileALargeOneRuns)
{
    using Clock = std::chrono::steady_clock;
    std::atomic<bool> large_started{false};
    Clock::time_point large_done;
    std::thread large([&] {
        parallelFor(200, resolveThreads(0), [&](std::size_t) {
            large_started = true;
            spin(std::chrono::milliseconds(1));
        });
        large_done = Clock::now();
    });
    while (!large_started.load())
        std::this_thread::yield();

    bool small_ran = false;
    TaskPool::instance().run(1, 2, [&](std::size_t, std::size_t) {
        small_ran = true;
    });
    const Clock::time_point small_done = Clock::now();
    large.join();
    EXPECT_TRUE(small_ran);
    EXPECT_LT(small_done, large_done);
}

TEST(TaskPool, ThreadCountStaysWithinCoresAndWidestWidth)
{
    const int cores = resolveThreads(0);
    const int widest = cores + kExtraWidth;
    std::atomic<int> ran{0};
    parallelFor(64, widest, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 64);
    EXPECT_GE(TaskPool::instance().threads(),
              static_cast<std::size_t>(widest));
    EXPECT_LE(TaskPool::instance().threads(),
              static_cast<std::size_t>(std::max(cores, widest)));

    // Narrower groups reuse the pool and never grow it.
    for (int width = 2; width <= widest; ++width)
        parallelFor(32, width, [&](std::size_t) { ++ran; });
    EXPECT_LE(TaskPool::instance().threads(),
              static_cast<std::size_t>(widest));
}

} // namespace
} // namespace loas
