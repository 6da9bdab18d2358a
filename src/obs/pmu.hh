/**
 * @file
 * Hardware performance-counter telemetry (perf_event) behind the
 * observability stack.
 *
 * The paper's entire performance argument is that BERT inference is
 * memory-bound: src/memsim *models* DRAM traffic from counted bytes,
 * and the audit layer attributes energy from those counts — but
 * nothing checked the model against what the hardware actually did.
 * This module closes that loop: a PmuGroup is one perf_event counter
 * group (cycles, instructions, LLC misses, LLC references, stalled
 * backend cycles) opened for one thread and read with a single read()
 * via PERF_FORMAT_GROUP, so the five counts are one coherent sample.
 *
 * The backend is pluggable: LinuxPmuSource wraps perf_event_open,
 * and FakePmuSource produces deterministic synthetic counts for
 * tests and for hosts where the kernel denies access. Availability is
 * probed exactly once per process (perf_event_paranoid commonly
 * forbids counters inside containers); on denial the whole layer
 * degrades to disabled with a single stderr note and a
 * `pmu.available` gauge of 0 — the same zero-overhead-when-off
 * contract as the null Observer. GOBO_PMU=off forces the degrade
 * path, GOBO_PMU=fake forces the deterministic backend.
 *
 * Determinism contract: PMU instrumentation only *reads* counters
 * around compute; it never participates in arithmetic or scheduling,
 * so logits, checksums and every gated bench block are bit-identical
 * with PMU on, off, or unavailable (asserted in tests/test_pmu.cc).
 */

#ifndef GOBO_OBS_PMU_HH
#define GOBO_OBS_PMU_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gobo {

/** One coherent reading of the five-counter group. */
struct PmuSample
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t llcReferences = 0;
    std::uint64_t stalledBackend = 0;
    bool valid = false; ///< false when the read failed or PMU is off.

    /** Counter-wise difference (this - begin); valid iff both are. */
    PmuSample since(const PmuSample &begin) const
    {
        PmuSample d;
        d.valid = valid && begin.valid;
        if (d.valid) {
            d.cycles = cycles - begin.cycles;
            d.instructions = instructions - begin.instructions;
            d.llcMisses = llcMisses - begin.llcMisses;
            d.llcReferences = llcReferences - begin.llcReferences;
            d.stalledBackend = stalledBackend - begin.stalledBackend;
        }
        return d;
    }
};

/**
 * Where counter groups come from. Implementations must be safe to
 * call from multiple threads: the registry opens one group per
 * observed thread and reads them concurrently.
 */
class PmuSource
{
  public:
    virtual ~PmuSource() = default;

    /** Human-readable backend name ("linux-perf", "fake", "off"). */
    virtual const char *name() const = 0;

    /**
     * Open the five-counter group for one thread. `tid` 0 means the
     * calling thread; a positive tid monitors that OS thread (how the
     * registry attaches to pool workers without running code on
     * them). Returns a backend-private handle, or -1 on failure.
     */
    virtual int openGroup(long tid) = 0;

    /** Read the group in one coherent sample. */
    virtual PmuSample readGroup(int handle) = 0;

    virtual void closeGroup(int handle) = 0;
};

/**
 * perf_event_open backend (Linux only; openGroup always fails
 * elsewhere). Counter values are scaled by time_enabled/time_running,
 * so multiplexed groups still report usable estimates.
 */
class LinuxPmuSource final : public PmuSource
{
  public:
    const char *name() const override { return "linux-perf"; }
    int openGroup(long tid) override;
    PmuSample readGroup(int handle) override;
    void closeGroup(int handle) override;

  private:
    // The handle handed out is the group-leader fd; the four follower
    // fds must stay open for the group's lifetime, so they are kept
    // here keyed by leader and closed together in closeGroup.
    std::mutex followerMutex;
    std::vector<std::pair<int, int>> followers; ///< (leader, follower).
};

/**
 * Deterministic synthetic backend: every read of a handle advances
 * that handle's private tick and reports counts that are a pure
 * function of the tick, so a test run sees the same deltas every
 * time, on every machine. Per-read increments (cycles 1000,
 * instructions 1500, LLC references 100, misses 10, stalled 200)
 * give finite, non-trivial derived metrics: IPC 1.5, miss ratio 0.1.
 */
class FakePmuSource final : public PmuSource
{
  public:
    const char *name() const override { return "fake"; }
    int openGroup(long tid) override;
    PmuSample readGroup(int handle) override;
    void closeGroup(int handle) override;

  private:
    std::mutex mutex;
    std::vector<std::uint64_t> ticks; ///< per-handle read counts.
    std::vector<bool> open;
};

/** RAII ownership of one opened counter group. */
class PmuGroup
{
  public:
    PmuGroup() = default;
    /** Open for `tid` (0 = calling thread) on `backend`. */
    PmuGroup(PmuSource &backend, long tid);
    ~PmuGroup();

    PmuGroup(const PmuGroup &) = delete;
    PmuGroup &operator=(const PmuGroup &) = delete;
    PmuGroup(PmuGroup &&other) noexcept;
    PmuGroup &operator=(PmuGroup &&other) noexcept;

    bool ok() const { return handle >= 0; }

    /** One coherent sample; invalid when the group failed to open. */
    PmuSample sample() const;

  private:
    PmuSource *backend = nullptr;
    int handle = -1;
};

/** How the process-wide PMU mode was resolved (see pmuMode()). */
enum class PmuMode
{
    Probe, ///< try the real backend, degrade silently if denied.
    Off,   ///< GOBO_PMU=off: never open a counter.
    Fake,  ///< GOBO_PMU=fake: deterministic synthetic backend.
};

/**
 * Parse a GOBO_PMU-style value: "off"/"0"/"disabled" force Off,
 * "fake" forces Fake, anything else (including null/empty) probes.
 * Exposed so tests can pin the grammar without mutating the
 * environment.
 */
PmuMode pmuModeFromSpec(const char *text);

/** The process-wide mode: GOBO_PMU parsed once and cached. */
PmuMode pmuMode();

/**
 * The process-wide backend under pmuMode(): the Linux backend when a
 * probe group opens (probed exactly once; on denial a single stderr
 * note is printed and nullptr is cached), the fake backend under
 * GOBO_PMU=fake, nullptr under GOBO_PMU=off or when unavailable.
 */
PmuSource *defaultPmuSource();

/** The cache-line size miss counts are multiplied by to get bytes
 * (sysconf when available, 64 otherwise). */
std::size_t pmuCacheLineBytes();

/** Per-worker reading, tagged with the pool slot it monitors. */
struct PmuWorkerSample
{
    std::size_t worker = 0; ///< pool worker slot index.
    PmuSample sample;
};

/** Everything a metrics export needs from one registry. */
struct PmuSnapshot
{
    bool available = false;
    std::string backend = "off";
    std::size_t cacheLineBytes = 64;
    double elapsedSeconds = 0.0; ///< since registry construction.
    PmuSample total;             ///< sum over every observed thread.
    std::vector<PmuWorkerSample> workers;

    // Derived figures; 0 when the inputs are 0 (never NaN).
    double ipc() const;
    double llcMissRatio() const;
    /** Measured DRAM read bandwidth: misses x line / elapsed. */
    double llcMissGBps() const;
};

/**
 * Owns every counter group of one observed run: a lazily-opened
 * per-thread group for whichever threads record spans (keyed like the
 * Tracer's per-thread buffers), plus explicitly attached groups that
 * monitor pool workers by tid. Null-observer economics apply: a
 * registry is only constructed when --pmu asks for one, and a
 * registry whose backend is unavailable never opens a group — every
 * sample comes back invalid and exports render `pmu.available` 0.
 */
class PmuRegistry
{
  public:
    /** Registry over the process-default backend (may be null). */
    PmuRegistry();
    /** Registry over an injected backend (tests: FakePmuSource). */
    explicit PmuRegistry(PmuSource &backend);
    ~PmuRegistry();

    PmuRegistry(const PmuRegistry &) = delete;
    PmuRegistry &operator=(const PmuRegistry &) = delete;

    /** True when the backend exists (groups may still fail to open). */
    bool available() const { return backend != nullptr; }

    const char *sourceName() const
    {
        return backend ? backend->name() : "off";
    }

    /**
     * Sample the calling thread's group, opening it on first use.
     * Invalid sample when the backend is off — one branch, no
     * syscall, so span instrumentation stays free when PMU is down.
     */
    PmuSample threadSample();

    /**
     * Open one monitoring group per pool worker tid (tid 0 entries —
     * platforms without gettid — are skipped). Idempotent per call
     * site: calling again replaces the previous worker groups.
     */
    void attachWorkers(const std::vector<long> &tids);

    /** Totals + per-worker samples + derived-metric inputs. */
    PmuSnapshot snapshot() const;

  private:
    struct Impl;

    PmuSource *backend = nullptr;
    std::unique_ptr<Impl> impl;
};

} // namespace gobo

#endif // GOBO_OBS_PMU_HH
