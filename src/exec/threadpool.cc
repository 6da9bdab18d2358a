#include "exec/threadpool.hh"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>

#ifdef __linux__
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace gobo {

namespace {

/** The calling thread's OS tid (what perf_event_open monitors by);
 * 0 where the platform has no such notion. */
long
currentOsTid()
{
#ifdef __linux__
    return static_cast<long>(syscall(SYS_gettid));
#else
    return 0;
#endif
}

/**
 * Owner-side chunking: each pop takes 1/4 of the newest task's
 * remaining range (at least one index), so early chunks are big and
 * cheap while the tail self-schedules finely without a cost model.
 */
constexpr std::size_t kOwnerChunkDiv = 4;

/**
 * Which pool (if any) the current thread is draining, and its slot in
 * that pool's queue array. Workers set these once for their lifetime;
 * the top-level submitter sets them for the duration of its drain.
 * They route a nested run() to the right deque, and turn a run()
 * against a *different* pool into an inline call (a blocking cross-
 * pool submission from inside a worker could form a cycle).
 */
thread_local ThreadPool *tls_pool = nullptr;
thread_local std::size_t tls_slot = SIZE_MAX;

} // namespace

std::optional<std::size_t>
parseThreadsSpec(const char *text)
{
    auto v = parseUint64Spec(text);
    if (!v || *v == 0 || *v > 65536)
        return std::nullopt;
    return static_cast<std::size_t>(*v);
}

std::optional<std::uint64_t>
parseUint64Spec(const char *text)
{
    if (text == nullptr || *text == '\0')
        return std::nullopt;
    // from_chars is the strict parser: no whitespace/sign skipping, and
    // overflow is a reported error instead of a saturating wrap.
    const char *last = text + std::strlen(text);
    std::uint64_t value = 0;
    auto [ptr, ec] = std::from_chars(text, last, value, 10);
    if (ec != std::errc{} || ptr != last)
        return std::nullopt;
    return value;
}

std::size_t
defaultThreads()
{
    // Parsed once and cached: contexts built per call reach this on
    // the per-batch path, and getenv+strtol per call was measurable.
    static const std::size_t cached = [] {
        if (const char *env = std::getenv("GOBO_THREADS")) {
            if (auto v = parseThreadsSpec(env))
                return *v;
            std::cerr << "gobo: ignoring invalid GOBO_THREADS='" << env
                      << "' (want a positive integer <= 65536); using "
                         "hardware concurrency\n";
        }
        unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? std::size_t{1} : std::size_t{hw};
    }();
    return cached;
}

ThreadPool::ThreadPool(std::size_t n_workers)
{
    if (n_workers == 0)
        n_workers = defaultThreads();
    queues = std::make_unique<WorkQueue[]>(n_workers + 1);
    stats = std::make_unique<ParticipantStats[]>(n_workers + 1);
    workerTids = std::make_unique<std::atomic<long>[]>(n_workers);
    for (std::size_t t = 0; t < n_workers; ++t)
        workerTids[t].store(0, std::memory_order_relaxed);
    workers.reserve(n_workers);
    for (std::size_t t = 0; t < n_workers; ++t)
        workers.emplace_back([this, t] { workerLoop(t); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard lock(mutex);
        stopping = true;
    }
    wake.notify_all();
    // Join here, before any member is destroyed: a worker may still be
    // inside done.notify_all() after finishing its last chunk, and the
    // condition variables must outlive that call.
    workers.clear();
}

bool
ThreadPool::popChunk(std::size_t slot, Task &chunk)
{
    WorkQueue &q = queues[slot];
    std::lock_guard lock(q.m);
    if (q.tasks.empty())
        return false;
    Task &t = q.tasks.back();
    std::size_t n = t.end - t.begin;
    std::size_t take = std::max<std::size_t>(1, n / kOwnerChunkDiv);
    chunk = {t.job, t.begin, t.begin + take};
    t.begin += take;
    if (t.begin == t.end)
        q.tasks.pop_back();
    return true;
}

bool
ThreadPool::stealChunk(std::size_t slot, Task &chunk)
{
    std::size_t slots = workers.size() + 1;
    for (std::size_t off = 1; off < slots; ++off) {
        std::size_t v = (slot + off) % slots;
        Task stolen;
        {
            std::lock_guard lock(queues[v].m);
            auto &tasks = queues[v].tasks;
            if (tasks.empty())
                continue;
            // Split the oldest task: its owner is carving chunks off
            // the newest, so the front is the least-contended range.
            Task &t = tasks.front();
            std::size_t n = t.end - t.begin;
            if (n <= 1) {
                stolen = t;
                tasks.erase(tasks.begin());
            } else {
                std::size_t mid = t.begin + n / 2;
                stolen = {t.job, mid, t.end};
                t.end = mid;
            }
        }
        stats[slot].steals.fetch_add(1, std::memory_order_relaxed);
        // Re-queue the stolen range on our own deque so it stays
        // stealable, then self-schedule off it like any other task.
        {
            std::lock_guard lock(queues[slot].m);
            queues[slot].tasks.push_back(stolen);
        }
        return popChunk(slot, chunk);
    }
    return false;
}

void
ThreadPool::executeChunk(const Task &chunk, std::size_t slot)
{
    Job &job = *chunk.job;
    const auto &fn = *job.fn;
    for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        if (job.cancelled.load(std::memory_order_relaxed))
            continue; // count as done so the job still completes.
        try {
            fn(i);
        } catch (...) {
            std::lock_guard lock(mutex);
            if (!job.error)
                job.error = std::current_exception();
            job.cancelled.store(true, std::memory_order_relaxed);
        }
    }
    std::size_t n = chunk.end - chunk.begin;
    // One relaxed add per chunk, not per item — telemetry must not
    // put a shared cacheline in the execution loop.
    stats[slot].items.fetch_add(n, std::memory_order_relaxed);
    if (job.pending.fetch_sub(n) == n) {
        // Last chunk of the job. Notify under the mutex so a submitter
        // between its predicate check and its wait cannot miss this.
        std::lock_guard lock(mutex);
        done.notify_all();
    }
}

void
ThreadPool::drainJob(Job &job, std::size_t slot)
{
    while (job.pending.load() != 0) {
        Task chunk;
        if (popChunk(slot, chunk) || stealChunk(slot, chunk)) {
            executeChunk(chunk, slot);
            continue;
        }
        // Nothing claimable anywhere: the job's remaining indexes are
        // in flight on other threads. Block until a job completes or
        // new work appears (an in-flight index may spawn a nested job
        // whose tasks we can help drain).
        std::unique_lock lock(mutex);
        if (job.pending.load() == 0)
            break;
        std::uint64_t seen = wakeSignal;
        done.wait(lock, [&] {
            return job.pending.load() == 0 || wakeSignal != seen;
        });
    }
}

void
ThreadPool::rethrowJobError(Job &job)
{
    std::exception_ptr err;
    {
        std::lock_guard lock(mutex);
        err = job.error;
    }
    if (err)
        std::rethrow_exception(err);
}

void
ThreadPool::workerLoop(std::size_t worker)
{
    tls_pool = this;
    tls_slot = worker;
    workerTids[worker].store(currentOsTid(), std::memory_order_release);
    std::uint64_t seen_signal = 0, joined_gen = 0;
    for (;;) {
        {
            std::unique_lock lock(mutex);
            ++sleepers;
            wake.wait(lock, [&] {
                return stopping || wakeSignal != seen_signal;
            });
            --sleepers;
            seen_signal = wakeSignal;
            if (stopping)
                return;
            // Ticket check: join each top-level job at most once, and
            // only while its parallelism budget has room. A wake for a
            // nested job inside a generation we already joined needs
            // no new ticket.
            if (joined_gen != topGeneration) {
                if (helperTickets == 0)
                    continue;
                --helperTickets;
                joined_gen = topGeneration;
            }
        }
        stats[worker].wakes.fetch_add(1, std::memory_order_relaxed);
        for (;;) {
            Task chunk;
            if (popChunk(worker, chunk) || stealChunk(worker, chunk))
                executeChunk(chunk, worker);
            else
                break;
        }
    }
}

void
ThreadPool::nestedRun(std::size_t count,
                      const std::function<void(std::size_t)> &fn)
{
    statNested.fetch_add(1, std::memory_order_relaxed);
    Job job;
    job.fn = &fn;
    job.pending.store(count, std::memory_order_relaxed);
    std::size_t slot = tls_slot;
    {
        std::lock_guard lock(queues[slot].m);
        queues[slot].tasks.push_back({&job, 0, count});
    }
    {
        // Bump the signal under the mutex so a worker between its
        // sleep-predicate check and its wait cannot miss it.
        std::lock_guard lock(mutex);
        ++wakeSignal;
    }
    wake.notify_all();
    done.notify_all(); // blocked submitters may steal in and help.
    drainJob(job, slot);
    rethrowJobError(job);
}

void
ThreadPool::run(std::size_t count, std::size_t parallelism,
                const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    // Inline paths: explicit serial request (including loops the
    // caller judged under-grain) and trivial ranges. Also a submission
    // from inside a *different* pool's worker: a blocking cross-pool
    // handoff could form a cycle, so it degrades to inline like the
    // historical nested behaviour.
    bool foreign = tls_pool != nullptr && tls_pool != this;
    if (parallelism <= 1 || count <= 1 || workers.empty() || foreign) {
        statInline.fetch_add(1, std::memory_order_relaxed);
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    if (tls_pool == this) {
        // Nested submission: share the range onto this participant's
        // deque so idle workers steal it, instead of running inline.
        // Parallelism is bounded by the enclosing job's ticket cap.
        nestedRun(count, fn);
        return;
    }

    std::lock_guard submit(submitMutex);
    statJobs.fetch_add(1, std::memory_order_relaxed);
    Job job;
    job.fn = &fn;
    job.pending.store(count, std::memory_order_relaxed);

    std::size_t sub_slot = workers.size();
    std::size_t parts = std::min({workers.size() + 1, parallelism,
                                  count});
    // Scatter near-equal contiguous ranges: the submitter's own deque
    // gets the first, worker deques the rest. Which workers actually
    // join is the scheduler's business — any participant steals from
    // any deque, so a sleeping owner never strands its range.
    std::size_t base = count / parts, rem = count % parts;
    std::size_t begin = 0;
    for (std::size_t p = 0; p < parts; ++p) {
        std::size_t len = base + (p < rem ? 1 : 0);
        std::size_t slot = p == 0 ? sub_slot : p - 1;
        {
            std::lock_guard lock(queues[slot].m);
            queues[slot].tasks.push_back({&job, begin, begin + len});
        }
        begin += len;
    }
    {
        std::lock_guard lock(mutex);
        ++topGeneration;
        helperTickets = std::min({workers.size(), parallelism - 1,
                                  count - 1});
        ++wakeSignal;
    }
    wake.notify_all();

    tls_pool = this;
    tls_slot = sub_slot;
    drainJob(job, sub_slot);
    tls_pool = nullptr;
    tls_slot = SIZE_MAX;
    // pending == 0 here means every index executed and no thread holds
    // a Task pointing at `job`, so the stack frame may safely die.
    rethrowJobError(job);
}

PoolTelemetry
ThreadPool::telemetry() const
{
    PoolTelemetry t;
    t.jobs = statJobs.load(std::memory_order_relaxed);
    t.inlineRuns = statInline.load(std::memory_order_relaxed);
    t.nestedJobs = statNested.load(std::memory_order_relaxed);
    t.workerItems.reserve(workers.size());
    for (std::size_t w = 0; w < workers.size(); ++w) {
        std::uint64_t items =
            stats[w].items.load(std::memory_order_relaxed);
        t.workerItems.push_back(items);
        t.itemsDrained += items;
        t.wakes += stats[w].wakes.load(std::memory_order_relaxed);
        t.steals += stats[w].steals.load(std::memory_order_relaxed);
    }
    // The submitter slot contributes items and steals but no wakes.
    t.itemsDrained +=
        stats[workers.size()].items.load(std::memory_order_relaxed);
    t.steals +=
        stats[workers.size()].steals.load(std::memory_order_relaxed);
    return t;
}

std::vector<long>
ThreadPool::workerThreadIds() const
{
    std::vector<long> tids(workers.size(), 0);
    for (std::size_t w = 0; w < workers.size(); ++w) {
        // Publication races only construction: each worker stores its
        // tid as the first action of workerLoop, so a short bounded
        // wait covers a caller that attaches counters immediately
        // after spawning the pool. 0 after the wait means a platform
        // without tids — consumers skip those slots.
        for (int spin = 0; spin < 1000; ++spin) {
            long tid = workerTids[w].load(std::memory_order_acquire);
            if (tid != 0) {
                tids[w] = tid;
                break;
            }
            std::this_thread::yield();
        }
    }
    return tids;
}

ThreadPool &
ThreadPool::shared()
{
    // The submitting thread always participates, so the pool only
    // needs defaultThreads() - 1 helpers to saturate the machine.
    static ThreadPool pool(defaultThreads() > 1 ? defaultThreads() - 1
                                                : 1);
    return pool;
}

} // namespace gobo
