#include "obs/pmu.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#ifdef __linux__
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace gobo {

// ---------------------------------------------------------------------------
// LinuxPmuSource

#ifdef __linux__

namespace {

/** The five events of a group, in the order read() reports them. */
struct EventSpec
{
    std::uint32_t type;
    std::uint64_t config;
};

constexpr EventSpec kGroupEvents[] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES}, // leader
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_STALLED_CYCLES_BACKEND},
};

constexpr std::size_t kGroupSize =
    sizeof(kGroupEvents) / sizeof(kGroupEvents[0]);

int
perfEventOpen(const perf_event_attr &attr, pid_t pid, int group_fd)
{
    return static_cast<int>(syscall(SYS_perf_event_open, &attr, pid,
                                    /*cpu=*/-1, group_fd, /*flags=*/0UL));
}

/** read() layout under PERF_FORMAT_GROUP + the two TIME fields. */
struct GroupReading
{
    std::uint64_t nr;
    std::uint64_t timeEnabled;
    std::uint64_t timeRunning;
    std::uint64_t values[kGroupSize];
};

} // namespace

int
LinuxPmuSource::openGroup(long tid)
{
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.disabled = 0;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                       PERF_FORMAT_TOTAL_TIME_RUNNING;

    const pid_t pid = tid > 0 ? static_cast<pid_t>(tid) : 0;

    attr.type = kGroupEvents[0].type;
    attr.config = kGroupEvents[0].config;
    int leader = perfEventOpen(attr, pid, -1);
    if (leader < 0)
        return -1;

    for (std::size_t i = 1; i < kGroupSize; ++i) {
        attr.type = kGroupEvents[i].type;
        attr.config = kGroupEvents[i].config;
        int fd = perfEventOpen(attr, pid, leader);
        if (fd < 0) {
            // Partial groups would skew derived ratios; treat any
            // missing event as the whole group being unavailable.
            closeGroup(leader);
            return -1;
        }
        std::lock_guard lock(followerMutex);
        followers.push_back({leader, fd});
    }
    return leader;
}

PmuSample
LinuxPmuSource::readGroup(int handle)
{
    PmuSample sample;
    if (handle < 0)
        return sample;
    GroupReading reading;
    std::memset(&reading, 0, sizeof(reading));
    ssize_t got = read(handle, &reading, sizeof(reading));
    if (got < static_cast<ssize_t>(sizeof(std::uint64_t) * 3) ||
        reading.nr != kGroupSize)
        return sample;
    // Scale for multiplexing: when more groups are scheduled than the
    // PMU has slots, each runs a fraction of the time; extrapolate.
    double scale = 1.0;
    if (reading.timeRunning > 0 && reading.timeEnabled > reading.timeRunning)
        scale = static_cast<double>(reading.timeEnabled) /
                static_cast<double>(reading.timeRunning);
    auto scaled = [scale](std::uint64_t v) {
        return static_cast<std::uint64_t>(static_cast<double>(v) * scale);
    };
    sample.cycles = scaled(reading.values[0]);
    sample.instructions = scaled(reading.values[1]);
    sample.llcMisses = scaled(reading.values[2]);
    sample.llcReferences = scaled(reading.values[3]);
    sample.stalledBackend = scaled(reading.values[4]);
    sample.valid = true;
    return sample;
}

void
LinuxPmuSource::closeGroup(int handle)
{
    if (handle < 0)
        return;
    std::lock_guard lock(followerMutex);
    for (auto it = followers.begin(); it != followers.end();) {
        if (it->first == handle) {
            close(it->second);
            it = followers.erase(it);
        } else {
            ++it;
        }
    }
    close(handle);
}

#else // !__linux__

int
LinuxPmuSource::openGroup(long)
{
    return -1;
}

PmuSample
LinuxPmuSource::readGroup(int)
{
    return {};
}

void
LinuxPmuSource::closeGroup(int)
{
}

#endif // __linux__

// ---------------------------------------------------------------------------
// FakePmuSource

int
FakePmuSource::openGroup(long)
{
    std::lock_guard lock(mutex);
    for (std::size_t i = 0; i < open.size(); ++i) {
        if (!open[i]) {
            open[i] = true;
            ticks[i] = 0;
            return static_cast<int>(i);
        }
    }
    open.push_back(true);
    ticks.push_back(0);
    return static_cast<int>(open.size() - 1);
}

PmuSample
FakePmuSource::readGroup(int handle)
{
    PmuSample sample;
    std::lock_guard lock(mutex);
    if (handle < 0 || static_cast<std::size_t>(handle) >= open.size() ||
        !open[static_cast<std::size_t>(handle)])
        return sample;
    std::uint64_t tick = ++ticks[static_cast<std::size_t>(handle)];
    sample.cycles = tick * 1000;
    sample.instructions = tick * 1500;
    sample.llcReferences = tick * 100;
    sample.llcMisses = tick * 10;
    sample.stalledBackend = tick * 200;
    sample.valid = true;
    return sample;
}

void
FakePmuSource::closeGroup(int handle)
{
    std::lock_guard lock(mutex);
    if (handle >= 0 && static_cast<std::size_t>(handle) < open.size())
        open[static_cast<std::size_t>(handle)] = false;
}

// ---------------------------------------------------------------------------
// PmuGroup

PmuGroup::PmuGroup(PmuSource &backend_, long tid) : backend(&backend_)
{
    handle = backend->openGroup(tid);
}

PmuGroup::~PmuGroup()
{
    if (backend && handle >= 0)
        backend->closeGroup(handle);
}

PmuGroup::PmuGroup(PmuGroup &&other) noexcept
    : backend(other.backend), handle(other.handle)
{
    other.backend = nullptr;
    other.handle = -1;
}

PmuGroup &
PmuGroup::operator=(PmuGroup &&other) noexcept
{
    if (this != &other) {
        if (backend && handle >= 0)
            backend->closeGroup(handle);
        backend = other.backend;
        handle = other.handle;
        other.backend = nullptr;
        other.handle = -1;
    }
    return *this;
}

PmuSample
PmuGroup::sample() const
{
    if (!backend || handle < 0)
        return {};
    return backend->readGroup(handle);
}

// ---------------------------------------------------------------------------
// Mode resolution and the process-default backend

PmuMode
pmuModeFromSpec(const char *text)
{
    if (!text || !*text)
        return PmuMode::Probe;
    if (!std::strcmp(text, "off") || !std::strcmp(text, "0") ||
        !std::strcmp(text, "disabled"))
        return PmuMode::Off;
    if (!std::strcmp(text, "fake"))
        return PmuMode::Fake;
    return PmuMode::Probe;
}

PmuMode
pmuMode()
{
    static const PmuMode mode = pmuModeFromSpec(std::getenv("GOBO_PMU"));
    return mode;
}

PmuSource *
defaultPmuSource()
{
    // Probed exactly once per process; concurrent first calls are
    // serialized by the magic-static guard.
    static PmuSource *const backend = []() -> PmuSource * {
        switch (pmuMode()) {
        case PmuMode::Off:
            return nullptr;
        case PmuMode::Fake:
            static FakePmuSource fake;
            return &fake;
        case PmuMode::Probe:
            break;
        }
        static LinuxPmuSource linux_backend;
        int probe = linux_backend.openGroup(0);
        if (probe < 0) {
            std::fprintf(stderr,
                         "gobo: hardware counters unavailable "
                         "(perf_event_open denied; see "
                         "/proc/sys/kernel/perf_event_paranoid) — "
                         "PMU telemetry disabled\n");
            return nullptr;
        }
        linux_backend.closeGroup(probe);
        return &linux_backend;
    }();
    return backend;
}

std::size_t
pmuCacheLineBytes()
{
#if defined(__linux__) && defined(_SC_LEVEL1_DCACHE_LINESIZE)
    static const std::size_t line = []() -> std::size_t {
        long v = sysconf(_SC_LEVEL1_DCACHE_LINESIZE);
        return v > 0 ? static_cast<std::size_t>(v) : 64;
    }();
    return line;
#else
    return 64;
#endif
}

// ---------------------------------------------------------------------------
// PmuSnapshot derived figures

double
PmuSnapshot::ipc() const
{
    if (!total.valid || total.cycles == 0)
        return 0.0;
    return static_cast<double>(total.instructions) /
           static_cast<double>(total.cycles);
}

double
PmuSnapshot::llcMissRatio() const
{
    if (!total.valid || total.llcReferences == 0)
        return 0.0;
    return static_cast<double>(total.llcMisses) /
           static_cast<double>(total.llcReferences);
}

double
PmuSnapshot::llcMissGBps() const
{
    if (!total.valid || elapsedSeconds <= 0.0)
        return 0.0;
    return static_cast<double>(total.llcMisses) *
           static_cast<double>(cacheLineBytes) / elapsedSeconds / 1e9;
}

// ---------------------------------------------------------------------------
// PmuRegistry

namespace {

/** Registry uids: their own sequence, shared with no one. */
std::atomic<std::uint64_t> next_pmu_uid{1};

/** Per-thread cache mapping registry uid -> group slot (same linear-
 * scan idiom as the Tracer's BufferCache: the vector has one entry per
 * live registry this thread has touched, i.e. almost always one). */
struct GroupCache
{
    struct Entry
    {
        std::uint64_t uid;
        void *group;
    };
    std::vector<Entry> entries;

    void *
    find(std::uint64_t uid) const
    {
        for (const auto &e : entries)
            if (e.uid == uid)
                return e.group;
        return nullptr;
    }
};

thread_local GroupCache group_cache;

} // namespace

struct PmuRegistry::Impl
{
    const std::uint64_t uid;
    const std::chrono::steady_clock::time_point epoch;

    /** One per thread that called threadSample(); slots hold the
     * group plus its first sample so snapshot() reports deltas since
     * first use, not raw counter values. */
    struct ThreadSlot
    {
        PmuGroup group;
        PmuSample first;
    };

    mutable std::mutex mutex;
    std::vector<std::unique_ptr<ThreadSlot>> threads;

    /** Worker-monitoring groups, in pool slot order. */
    struct WorkerSlot
    {
        std::size_t worker;
        PmuGroup group;
        PmuSample first;
    };
    std::vector<WorkerSlot> workers;

    Impl()
        : uid(next_pmu_uid.fetch_add(1, std::memory_order_relaxed)),
          epoch(std::chrono::steady_clock::now())
    {
    }
};

PmuRegistry::PmuRegistry() : backend(defaultPmuSource())
{
    impl = std::make_unique<Impl>();
}

PmuRegistry::PmuRegistry(PmuSource &backend_) : backend(&backend_)
{
    impl = std::make_unique<Impl>();
}

PmuRegistry::~PmuRegistry() = default;

PmuSample
PmuRegistry::threadSample()
{
    if (!backend)
        return {};
    Impl::ThreadSlot *slot;
    if (void *cached = group_cache.find(impl->uid)) {
        slot = static_cast<Impl::ThreadSlot *>(cached);
    } else {
        auto fresh = std::make_unique<Impl::ThreadSlot>();
        fresh->group = PmuGroup(*backend, 0);
        fresh->first = fresh->group.sample();
        slot = fresh.get();
        {
            std::lock_guard lock(impl->mutex);
            impl->threads.push_back(std::move(fresh));
        }
        group_cache.entries.push_back({impl->uid, slot});
    }
    return slot->group.sample();
}

void
PmuRegistry::attachWorkers(const std::vector<long> &tids)
{
    if (!backend)
        return;
    std::vector<Impl::WorkerSlot> fresh;
    for (std::size_t i = 0; i < tids.size(); ++i) {
        if (tids[i] <= 0)
            continue; // platform without gettid, or worker not up yet.
        Impl::WorkerSlot slot;
        slot.worker = i;
        slot.group = PmuGroup(*backend, tids[i]);
        if (!slot.group.ok())
            continue;
        slot.first = slot.group.sample();
        fresh.push_back(std::move(slot));
    }
    std::lock_guard lock(impl->mutex);
    impl->workers = std::move(fresh);
}

PmuSnapshot
PmuRegistry::snapshot() const
{
    PmuSnapshot snap;
    snap.available = backend != nullptr;
    snap.backend = sourceName();
    snap.cacheLineBytes = pmuCacheLineBytes();
    snap.elapsedSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      impl->epoch)
            .count();
    if (!backend)
        return snap;

    auto accumulate = [&snap](const PmuSample &delta) {
        if (!delta.valid)
            return;
        snap.total.valid = true;
        snap.total.cycles += delta.cycles;
        snap.total.instructions += delta.instructions;
        snap.total.llcMisses += delta.llcMisses;
        snap.total.llcReferences += delta.llcReferences;
        snap.total.stalledBackend += delta.stalledBackend;
    };

    std::lock_guard lock(impl->mutex);
    for (const auto &slot : impl->threads)
        accumulate(slot->group.sample().since(slot->first));
    for (const auto &slot : impl->workers) {
        PmuSample delta = slot.group.sample().since(slot.first);
        accumulate(delta);
        snap.workers.push_back({slot.worker, delta});
    }
    return snap;
}

} // namespace gobo
