/**
 * @file
 * Persistent worker pool behind every parallel loop in the repo.
 *
 * Workers are spawned once and reused across submissions. A parallel
 * loop is one "job": its index range is split into contiguous tasks
 * scattered across per-participant deques, and every participant runs
 * chunked self-scheduling over them — an owner carves chunks off its
 * own newest task, and a participant whose deque runs dry *steals* the
 * larger half of another deque's oldest task. Stealing is what makes
 * uneven work items (skewed sequence lengths, outlier-heavy weight
 * rows) balance without any up-front cost model.
 *
 * Submissions from inside a worker no longer run inline: a nested
 * run() pushes its range onto the submitting worker's own deque, where
 * idle workers steal it, so batch-level parallelism composes with
 * intra-sequence parallelism instead of degrading to one thread per
 * batch slot. The nested submitter helps drain until its own job
 * completes, so nesting can never deadlock on the pool.
 *
 * Determinism contract: the pool schedules *which thread* runs fn(i),
 * never *what* fn(i) computes. As long as fn(i) only writes slot i and
 * keeps a fixed reduction order internally, an N-thread run is
 * bit-identical to a serial one — stealing moves indexes between
 * threads, not arithmetic between indexes.
 */

#ifndef GOBO_EXEC_THREADPOOL_HH
#define GOBO_EXEC_THREADPOOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace gobo {

/**
 * Worker count used when the caller does not specify one: the
 * GOBO_THREADS environment variable if set to a positive integer
 * (CI and benchmarking override), otherwise the hardware concurrency.
 *
 * The environment is read and parsed exactly once; the result is
 * cached for the life of the process so hot paths (per-batch inner
 * contexts) can call this freely. An unparsable or non-positive value
 * is rejected with a warning on stderr instead of silently falling
 * back.
 */
std::size_t defaultThreads();

/**
 * Parse a GOBO_THREADS-style spec: a positive decimal integer with no
 * trailing junk, capped at 65536. Returns nullopt for anything else
 * (including null). Exposed so tests can pin the accepted grammar
 * without mutating the process environment.
 */
std::optional<std::size_t> parseThreadsSpec(const char *text);

/**
 * Strict unsigned-integer parse for CLI arguments: decimal digits
 * only, no sign, no leading whitespace, no trailing junk, and nullopt
 * on overflow past uint64. The permissive strtoull idiom (which eats
 * whitespace, accepts "-1" by wrapping, and ignores trailing garbage)
 * silently mangles seeds and thread counts; every argv integer in the
 * tools goes through here instead.
 */
std::optional<std::uint64_t> parseUint64Spec(const char *text);

/**
 * Point-in-time pool activity counters (see ThreadPool::telemetry()).
 * Values are relaxed-atomic reads: each is individually exact, but a
 * snapshot taken while jobs run may be torn across fields.
 */
struct PoolTelemetry
{
    /** Top-level run() calls dispatched to the workers. */
    std::uint64_t jobs = 0;
    /** run() calls executed inline (serial, trivial, or under-grain). */
    std::uint64_t inlineRuns = 0;
    /** Nested run() calls shared onto the pool from inside a job. */
    std::uint64_t nestedJobs = 0;
    /** Times a worker woke up and joined a job. */
    std::uint64_t wakes = 0;
    /** Times a participant stole a task half from another deque. */
    std::uint64_t steals = 0;
    /** Indexes executed across all participants (incl. submitters). */
    std::uint64_t itemsDrained = 0;
    /** Indexes executed per persistent worker (submitters excluded). */
    std::vector<std::uint64_t> workerItems;
};

/** A persistent pool of worker threads draining stealable deques. */
class ThreadPool
{
  public:
    /** Spawn `workers` persistent threads (0 means defaultThreads()). */
    explicit ThreadPool(std::size_t workers = 0);

    /** Signals the workers to exit and joins them. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Persistent worker threads (the caller adds one more at run()). */
    std::size_t workerCount() const { return workers.size(); }

    /**
     * Run fn(i) for every i in [0, count), blocking until all calls
     * return. The calling thread participates, joined by up to
     * min(workerCount(), count - 1, parallelism - 1) workers; fn must
     * be safe to call concurrently for distinct i. The first exception
     * thrown by fn stops new indexes from being issued and is
     * rethrown here once in-flight calls finish.
     *
     * parallelism <= 1 (or count <= 1) runs inline with no
     * synchronization at all. A reentrant call from inside a job
     * shares its range onto the pool (see file comment) and returns
     * once every nested index has executed; its parallelism is
     * bounded by the enclosing top-level job's cap.
     */
    void run(std::size_t count, std::size_t parallelism,
             const std::function<void(std::size_t)> &fn);

    /** run() with no parallelism cap beyond the pool size. */
    void
    run(std::size_t count, const std::function<void(std::size_t)> &fn)
    {
        run(count, workers.size() + 1, fn);
    }

    /**
     * The process-wide pool (defaultThreads() - 1 workers, created on
     * first use). Everything in the repo that parallelizes goes
     * through this instance unless handed an explicit pool.
     */
    static ThreadPool &shared();

    /**
     * Activity counters since construction. Pull-based so the pool
     * itself stays free of observability dependencies: instrumentation
     * is per-participant relaxed atomics folded once per drain, never
     * a per-item shared update.
     */
    PoolTelemetry telemetry() const;

  private:
    /** One parallel loop in flight: its fn plus completion state. */
    struct Job
    {
        const std::function<void(std::size_t)> *fn = nullptr;
        /** Indexes not yet executed; 0 means the job is complete. */
        std::atomic<std::size_t> pending{0};
        /** Set after the first exception: claimed indexes are skipped. */
        std::atomic<bool> cancelled{false};
        /** First exception thrown by fn; guarded by the pool mutex. */
        std::exception_ptr error;
    };

    /** A contiguous index range of one job, sitting in a deque. */
    struct Task
    {
        Job *job;
        std::size_t begin, end;
    };

    /**
     * One participant's deque. The owner pushes and pops at the back
     * (newest task first, so nested jobs run before the enclosing
     * range); thieves split the front (oldest) task. A plain mutex is
     * fine here: every acquisition moves a whole chunk, never a
     * single index.
     */
    struct alignas(64) WorkQueue
    {
        std::mutex m;
        std::vector<Task> tasks;
    };

    /** Per-participant counters, padded against false sharing. */
    struct alignas(64) ParticipantStats
    {
        std::atomic<std::uint64_t> items{0};
        std::atomic<std::uint64_t> wakes{0};
        std::atomic<std::uint64_t> steals{0};
    };

    void workerLoop(std::size_t worker);
    /** Pop a chunk of the newest task on `slot`'s own deque. */
    bool popChunk(std::size_t slot, Task &chunk);
    /** Steal a task half from another deque onto `slot`'s, then pop. */
    bool stealChunk(std::size_t slot, Task &chunk);
    /** Execute every index of `chunk`; returns when all are done. */
    void executeChunk(const Task &chunk, std::size_t slot);
    /** Help drain until `job` completes (pops, steals, then blocks). */
    void drainJob(Job &job, std::size_t slot);
    /** Share a nested submission onto the calling participant's deque. */
    void nestedRun(std::size_t count,
                   const std::function<void(std::size_t)> &fn);
    /** Take the job's error (under the pool mutex) and rethrow it. */
    void rethrowJobError(Job &job);

    std::vector<std::jthread> workers;

    /** workers.size() + 1 queues/stats; the last is the submitter slot. */
    std::unique_ptr<WorkQueue[]> queues;
    std::unique_ptr<ParticipantStats[]> stats;
    std::atomic<std::uint64_t> statJobs{0};
    std::atomic<std::uint64_t> statInline{0};
    std::atomic<std::uint64_t> statNested{0};

    std::mutex mutex;
    std::condition_variable wake;   ///< workers wait here for a job.
    std::condition_variable done;   ///< submitters wait here.

    // Wake/ticket state, guarded by `mutex`.
    std::uint64_t wakeSignal = 0;   ///< bumped when new work appears.
    std::uint64_t topGeneration = 0; ///< bumped per top-level run().
    std::size_t helperTickets = 0;  ///< workers still allowed to join.
    std::size_t sleepers = 0;       ///< workers parked on `wake`.
    bool stopping = false;

    /** Serializes concurrent top-level run() calls. */
    std::mutex submitMutex;
};

} // namespace gobo

#endif // GOBO_EXEC_THREADPOOL_HH
