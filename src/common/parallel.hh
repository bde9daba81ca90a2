/**
 * @file
 * One persistent, process-wide task pool and the fork-join loops on it.
 *
 * Every parallel loop of the program is a *task group* on one pool:
 * the SimEngine's flat (cell, layer, input) task list, the prepare()
 * compilers' per-fiber compression, and the CLI's warm-up and bench
 * loops. A group has a width cap; its calling thread is always one of
 * its participants, and idle pool threads join the unfinished group
 * that has the fewest participants (the oldest on a tie) until it
 * reaches its cap. So concurrent engine runs, as the serve daemon's
 * queue workers issue them, share the host's cores: one run's uneven
 * tail is filled by another run's tasks instead of leaving cores idle,
 * and nothing is oversubscribed beyond the pool plus the callers.
 *
 * A participant stays in its group until the group's tasks are all
 * claimed. A task that issues a nested loop (a compile inside an
 * engine task) works on its own nested group as that group's caller,
 * so nesting cannot deadlock and a group completes even when no pool
 * thread is free. Every task writes a disjoint, preallocated slot, so
 * results are bit-identical whatever the width and the interleaving.
 *
 * The pool holds max(cores, widest width requested so far) threads,
 * started on the first parallel loop and never stopped: it lives for
 * the process, so exit() from any thread (fatal()) and fork-based death
 * tests never wait on a busy or absent pool thread.
 */

#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace loas {

/** The process-wide pool every parallel loop runs its groups on. */
class TaskPool
{
  public:
    static TaskPool& instance();

    /**
     * Run `jobs` calls of `body(participant, job)` as one group of at
     * most `width` participants, the calling thread among them;
     * returns when every job has finished. `participant` is a stable
     * identity in [0, min(width, jobs)); the job->participant
     * assignment is nondeterministic, so callers write results into
     * per-JOB slots and use the participant only for scratch reuse.
     * The first exception a job throws is rethrown here once the
     * group drains; jobs not yet started by then are skipped.
     */
    template <typename Body>
    void
    run(std::size_t jobs, int width, Body&& body)
    {
        Group group;
        group.invoke = [](void* b, std::size_t participant,
                          std::size_t job) {
            (*static_cast<std::remove_reference_t<Body>*>(b))(
                participant, job);
        };
        group.body = &body;
        group.jobs = jobs;
        group.width = std::min<std::size_t>(
            static_cast<std::size_t>(std::max(width, 1)), jobs);
        runGroup(group);
    }

    /** Pool threads started so far (callers not counted). */
    std::size_t threads() const;

    TaskPool(const TaskPool&) = delete;
    TaskPool& operator=(const TaskPool&) = delete;

  private:
    TaskPool() = default;
    ~TaskPool() = delete;  // never destroyed, see the file comment

    struct Group
    {
        void (*invoke)(void* body, std::size_t participant,
                       std::size_t job) = nullptr;
        void* body = nullptr;
        std::size_t jobs = 0;
        std::size_t width = 1;
        std::atomic<std::size_t> next{0};
        std::atomic<bool> failed{false};

        // Guarded by TaskPool::mutex_.
        std::exception_ptr error;
        std::size_t joined = 0;  // participant ids handed out
        std::size_t active = 0;  // participants still working
        bool open = false;       // in open_, accepting participants
        std::condition_variable drained;  // active reached 0
    };

    void runGroup(Group& group);
    /** Claim and run jobs until none is left. */
    void work(Group& group, std::size_t participant);
    void threadLoop();
    /** The open group an idle thread joins, or null. Holds mutex_. */
    Group* pickLocked();
    void closeLocked(Group& group);

    mutable std::mutex mutex_;
    std::condition_variable idle_;  // pool threads: a group opened
    std::vector<Group*> open_;      // oldest first
    std::vector<std::thread> threads_;
};

/**
 * Run `jobs` instances of `body(worker, job)` as one pool group of
 * width `threads` (see TaskPool::run). Width 1 or a single job runs
 * serially in the caller with worker 0.
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
    TaskPool::instance().run(jobs, threads, body);
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
 * Width of the group for `jobs` per-fiber compression tasks inside one
 * prepare() call. Small layers stay serial — handing them to the pool
 * would cost more than the work — and large ones fan out with enough
 * fibers per participant to amortize it. prepare() usually runs inside
 * an engine task: its group then takes only pool threads that are idle.
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
