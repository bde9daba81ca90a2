/**
 * @file
 * Shared fork-join helpers. Host threads are spent at two levels only:
 * the SimEngine fans out across networks (synthesis) and sweep cells,
 * and a batched cell fans out across its inputs (executeBatch). One
 * input's execute() is always serial. The prepare()-phase compilers
 * also split per-fiber compression, which is embarrassingly parallel.
 * Every job writes a disjoint, preallocated slot, so results are
 * bit-identical whatever the thread count.
 */

#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace loas {

/**
 * Run `jobs` instances of `body(worker, job)` across `threads`
 * workers. `worker` is a stable identity in [0, workers) where
 * `workers = min(threads, jobs)` (or 0 when the loop runs serially).
 * Jobs are pulled off one atomic counter, so the job->worker
 * assignment is nondeterministic — callers must write results into
 * per-JOB slots and use the worker index only for scratch reuse.
 * Exceptions escaping a job are rethrown in the caller (first one
 * wins); remaining jobs still drain so the workers join cleanly.
 */
template <typename Body>
void
parallelForWorkers(std::size_t jobs, int threads, Body&& body)
{
    if (threads <= 1 || jobs <= 1) {
        for (std::size_t i = 0; i < jobs; ++i)
            body(std::size_t{0}, i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;

    auto worker = [&](std::size_t w) {
        while (true) {
            const std::size_t i = next.fetch_add(1);
            if (i >= jobs)
                return;
            if (failed.load())
                continue; // drain without doing more work
            try {
                body(w, i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
                failed.store(true);
            }
        }
    };

    const std::size_t n_workers =
        std::min<std::size_t>(static_cast<std::size_t>(threads), jobs);
    std::vector<std::thread> pool;
    pool.reserve(n_workers);
    for (std::size_t w = 0; w < n_workers; ++w)
        pool.emplace_back(worker, w);
    for (auto& t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

/** parallelForWorkers for bodies that need no worker identity:
 *  `body(job)`, same scheduling and exception semantics. */
template <typename Body>
void
parallelFor(std::size_t jobs, int threads, Body&& body)
{
    parallelForWorkers(jobs, threads,
                       [&body](std::size_t, std::size_t i) { body(i); });
}

/** Requested thread count resolved: 0 = one per hardware thread. */
inline int
resolveThreads(int requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

/**
 * Threads worth spawning for `jobs` per-fiber compression tasks inside
 * one prepare() call. Small layers stay serial — thread startup would
 * dwarf the work — and large ones fan out with enough fibers per worker
 * to amortize it. prepare() may itself be running on an engine worker
 * thread; the CompiledCache compiles each key exactly once, so the
 * transient oversubscription is bounded by the number of distinct
 * format families compiling at that instant.
 */
inline int
prepareParallelism(std::size_t jobs)
{
    constexpr std::size_t kMinJobsPerThread = 128;
    if (jobs < 2 * kMinJobsPerThread)
        return 1;
    const auto want = static_cast<int>(jobs / kMinJobsPerThread);
    return std::min(want, resolveThreads(0));
}

} // namespace loas
