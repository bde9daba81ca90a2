/**
 * @file
 * Asynchronous simulation job queue: the submit/poll/cancel execution
 * model behind `loas_cli serve`. Turns the SimEngine's run-to-
 * completion API into long-lived service machinery:
 *
 *  - a bounded FIFO of submitted jobs drained by queue workers (each
 *    worker runs one engine job matrix at a time; the runs in flight
 *    spread their tasks over the one process-wide pool of
 *    common/parallel.hh, so they fill each other's idle tails);
 *  - admission control: submits beyond the queue-depth bound are
 *    rejected synchronously with a structured `queue_full` error —
 *    backpressure, never an unbounded queue or a hang;
 *  - request dedup: a submit exactly identical to an in-flight
 *    (queued or running) job attaches to that job instead of
 *    enqueueing a copy, and all submitters share its one result. The
 *    shared job keeps the least restrictive of the attached
 *    submitters' deadlines, and cancel() is refcounted across them —
 *    one cancel per attached submitter before the job actually dies
 *    (the same vote scheme coalesce groups use);
 *  - job coalescing: when a worker dequeues a job it also takes every
 *    queued job with the same workload identity (networks, seed,
 *    energy — see protocol.hh coalesceKey) and runs the union of
 *    their accelerator lists as ONE engine run, so the workload is
 *    synthesized once and the compiled artifacts stream out of one
 *    warm pass; each job's report is then sliced back out of the
 *    merged matrix, byte-identical to what its solo run would return;
 *  - cancellation and deadlines: a queued job cancels instantly; a
 *    running job's cancel sets the engine's cooperative token (the
 *    run aborts before its next layer task). Deadlines are enforced
 *    lazily — at dequeue, poll() and wait() — which covers every
 *    observable path without a timer thread;
 *  - shutdown: draining (finish the queue, reject new submits) or
 *    immediate (cancel everything), both joining the workers.
 *
 * Results are retained for a bounded number of finished jobs so
 * pollers can fetch them; the oldest are dropped beyond that.
 *
 * Thread safety: every public member may be called from any thread
 * (the server's per-connection threads do).
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/sim_engine.hh"
#include "serve/protocol.hh"

namespace loas {
namespace serve {

/** Async submit/poll/cancel queue over the SimEngine. */
class JobQueue
{
  public:
    struct Config
    {
        /** Concurrent engine runs (queue workers); 0 = derived from
         *  the engine width (see resolveWorkers). */
        int workers = 0;

        /** Threads inside each engine run (0 = one per core). */
        int engine_threads = 0;

        /** Queued (not yet running) jobs admitted before submits are
         *  rejected with `queue_full`. */
        std::size_t max_depth = 64;

        /** Default per-job deadline from submit time; 0 = none.
         *  A RunSpec::timeout_ms overrides it per request. */
        double default_timeout_ms = 0.0;

        /** Merge compatible queued jobs into one engine run. */
        bool coalesce = true;

        /** Finished jobs retained for poll(); oldest dropped. */
        std::size_t max_finished = 256;
    };

    enum class State
    {
        Queued,
        Running,
        Done,
        Cancelled,
        TimedOut,
        Failed
    };

    /**
     * Queue workers `config` runs: `workers` when set, else three
     * quarters of the engine width, at least 2. Each queue worker is
     * a participant of its own run, so this many runs keep the pool
     * busy through each other's serial tails without crowding it with
     * callers (serve-mixed on 4 cores: 3 in flight served ~45% more
     * requests/s than one at a time, and ~30% more than 2).
     */
    static int resolveWorkers(const Config& config);

    /** Wire name of a state ("queued", ..., "timeout", "failed"). */
    static const char* stateName(State state);
    static bool isTerminal(State state);

    /** Outcome of a submit: admitted (possibly deduped) or rejected
     *  with a structured error code. */
    struct Submitted
    {
        bool accepted = false;
        std::uint64_t id = 0;
        bool deduped = false;
        std::string error;    // "queue_full" | "shutting_down"
        std::string message;
    };

    /** Snapshot of one job, complete once the state is terminal. */
    struct Result
    {
        std::uint64_t id = 0;
        State state = State::Queued;
        bool deduped = false;

        /** Other jobs this one shared its engine run with. */
        int coalesced_with = 0;

        double queue_ms = 0.0;    // submit -> dequeue
        double run_ms = 0.0;      // dequeue -> terminal (wall)
        double compile_ms = 0.0;  // engine prepare phase
        double sim_ms = 0.0;      // engine execute phase

        /** Served throughput of THIS job: batch x its own cell count
         *  / run wall time; set only in state Done. */
        double inferences_per_s = 0.0;

        /** Exact attributed cache counters of the run that served
         *  this job (shared across coalesced jobs); gauges are the
         *  cache occupancy after it. */
        CompiledCache::Stats cache;

        /** Full report document (the `loas_cli run --json` bytes);
         *  set only in state Done. */
        std::shared_ptr<const std::string> report_json;

        std::string error;  // set in state Failed
    };

    /** Queue-level counters for the `stats` protocol command. */
    struct Counters
    {
        std::uint64_t submitted = 0;
        std::uint64_t deduped = 0;
        std::uint64_t coalesced = 0;
        std::uint64_t rejected = 0;
        std::uint64_t done = 0;
        std::uint64_t cancelled = 0;
        std::uint64_t timed_out = 0;
        std::uint64_t failed = 0;
        std::size_t depth = 0;    // currently queued
        std::size_t running = 0;  // currently running
    };

    /** Executes one engine request; injectable so tests can block,
     *  observe or fake runs. Default: SimEngine().run. */
    using Runner = std::function<SimReport(const SimRequest&)>;

    /**
     * Start resolveWorkers(config) worker threads. `cache` is the
     * shared compiled-artifact cache every job run uses (null = each
     * run gets a private cache — tests mostly). The queue does not own
     * or configure the cache.
     */
    explicit JobQueue(Config config, CompiledCache* cache = nullptr,
                      Runner runner = {});

    /** shutdown(false) if still running. */
    ~JobQueue();

    JobQueue(const JobQueue&) = delete;
    JobQueue& operator=(const JobQueue&) = delete;

    /**
     * Admit a job (resolving and validating the spec now — throws
     * std::invalid_argument for unknown accelerators/networks), dedup
     * it against in-flight identical requests, or reject it with
     * backpressure. Never blocks on simulation work.
     */
    Submitted submit(const RunSpec& spec);

    /** Snapshot a job; nullopt for unknown/expired ids. Enforces the
     *  job's deadline as a side effect. */
    std::optional<Result> poll(std::uint64_t id);

    /** Block until the job is terminal (or its deadline passes, which
     *  cancels it as TimedOut); nullopt for unknown ids. */
    std::optional<Result> wait(std::uint64_t id);

    /** Cancel a queued or running job. On a deduped job this detaches
     *  one submitter; the job dies with the last one. False: unknown
     *  or already terminal. */
    bool cancel(std::uint64_t id);

    Counters counters() const;

    /**
     * Stop the queue: reject further submits; with `drain` finish
     * every queued job first, otherwise cancel queued jobs and set
     * every running job's token. Joins the workers; idempotent.
     */
    void shutdown(bool drain);

  private:
    struct Group;

    struct Job
    {
        std::uint64_t id = 0;
        RunSpec spec;
        SimRequest request;  // resolved at submit; cache/cancel unset
        std::string dedup_key;
        std::string coalesce_key;

        State state = State::Queued;
        bool deduped = false;
        int coalesced_with = 0;

        std::chrono::steady_clock::time_point enqueued;
        std::chrono::steady_clock::time_point deadline;
        bool has_deadline = false;

        /** Submitters sharing this job via dedup; each cancel()
         *  detaches one, the last one's cancel kills the job. */
        std::size_t attached = 1;

        /** Cancel intent of THIS job; the group token aggregates. */
        bool cancel_requested = false;
        std::shared_ptr<Group> group;  // while running

        double queue_ms = 0.0;
        double run_ms = 0.0;
        double compile_ms = 0.0;
        double sim_ms = 0.0;
        double inferences_per_s = 0.0;
        CompiledCache::Stats cache;
        std::shared_ptr<const std::string> report_json;
        std::string error;
    };

    /** One merged engine run: its members and the engine token. The
     *  token trips when every member wants out (each cancel/timeout
     *  is one vote) or on non-drain shutdown. */
    struct Group
    {
        std::vector<std::shared_ptr<Job>> members;
        std::atomic<bool> cancel{false};
        std::size_t cancel_votes = 0;  // guarded by queue mutex
    };

    void workerLoop();
    Result snapshotLocked(const Job& job) const;
    void finishLocked(std::shared_ptr<Job> job, State state);
    /** Deadline check; cancels an expired non-terminal job. */
    void enforceDeadlineLocked(const std::shared_ptr<Job>& job);
    void cancelLocked(const std::shared_ptr<Job>& job, State state);
    void removeQueuedLocked(const std::shared_ptr<Job>& job);

    const Config config_;
    CompiledCache* const cache_;
    const Runner runner_;

    mutable std::mutex mutex_;
    std::condition_variable work_cv_;  // workers: queue or stop
    std::condition_variable done_cv_;  // waiters: state changes
    std::deque<std::shared_ptr<Job>> queue_;
    std::unordered_map<std::uint64_t, std::shared_ptr<Job>> jobs_;
    /** In-flight (queued/running) job per dedup key. */
    std::unordered_map<std::string, std::shared_ptr<Job>> inflight_;
    std::deque<std::uint64_t> finished_order_;
    Counters counters_;
    std::uint64_t next_id_ = 1;
    bool stopping_ = false;
    bool drain_ = true;

    std::vector<std::thread> workers_;
};

} // namespace serve
} // namespace loas
