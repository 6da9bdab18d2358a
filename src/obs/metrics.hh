/**
 * @file
 * Metrics registry — named counters and fixed-boundary latency
 * histograms with wait-free hot paths.
 *
 * Metrics are interned once (`counter()` / `histogram()` return small
 * ids) and recorded through per-thread shards: `add()` and `observe()`
 * touch only the calling thread's shard with relaxed atomics, so
 * instrumenting a parallel forward pass never introduces cross-thread
 * contention or changes scheduling. `snapshot()` merges every shard
 * under the registry mutex and derives p50/p90/p99 from the histogram
 * buckets, so reads pay the synchronization cost instead of writers.
 */

#ifndef GOBO_OBS_METRICS_HH
#define GOBO_OBS_METRICS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace gobo {

/** Handle to an interned counter; value-copyable, trivially cheap. */
struct CounterId
{
    std::uint32_t index = UINT32_MAX;

    bool valid() const { return index != UINT32_MAX; }
};

/** Handle to an interned histogram. */
struct HistogramId
{
    std::uint32_t index = UINT32_MAX;

    bool valid() const { return index != UINT32_MAX; }
};

/**
 * Merged view of one histogram: bucket upper bounds (ascending; one
 * implicit +inf overflow bucket past the last bound), per-bucket
 * counts, and the running sum for mean extraction.
 */
struct HistogramSnapshot
{
    std::string name;
    std::vector<double> bounds;        ///< upper bounds, ascending.
    std::vector<std::uint64_t> counts; ///< bounds.size() + 1 entries.
    std::uint64_t count = 0;           ///< total observations.
    double sum = 0.0;                  ///< sum of observed values.

    /** Mean of the observations (0 when empty). */
    double mean() const;

    /**
     * Quantile estimate by linear interpolation inside the bucket that
     * contains rank q * count. q in [0, 1]. On an empty histogram
     * (zero observations — e.g. a serve run where every request was
     * shed) the quantile is *undefined* and this returns NaN, never an
     * arbitrary bucket value: exporters render it as "-" / JSON null,
     * and a 0 here would be indistinguishable from a real 0-latency
     * measurement. Values in the overflow bucket report the last
     * finite bound (histograms cannot interpolate toward infinity), so
     * choose bounds that cover the expected range — and check
     * quantilesAreLowerBounds() before trusting a tail quantile.
     */
    double quantile(double q) const;

    /** Observations past the last finite bound (the +inf bucket). */
    std::uint64_t overflow() const;

    /** overflow() as a fraction of count (0 when empty). */
    double overflowFraction() const;

    /**
     * True when more than 1% of samples saturated into the overflow
     * bucket: quantiles then clamp to the last finite bound and must
     * be read as lower bounds ("≥"), which is how the exporters mark
     * them.
     */
    bool quantilesAreLowerBounds() const;
};

/** Point-in-time merged view of every metric in a registry. */
struct MetricsSnapshot
{
    struct CounterValue
    {
        std::string name;
        std::uint64_t value = 0;
    };

    std::vector<CounterValue> counters;
    std::vector<HistogramSnapshot> histograms;

    /** Counter by name; nullptr when absent. */
    const CounterValue *findCounter(std::string_view name) const;

    /** Histogram by name; nullptr when absent. */
    const HistogramSnapshot *findHistogram(std::string_view name) const;
};

/**
 * Default latency boundaries: log-spaced bucket upper bounds in
 * microseconds from 1 us to 10 s, `per_decade` buckets per decade.
 */
std::vector<double> latencyBoundsUs(std::size_t per_decade = 10);

/**
 * Registry of named counters and histograms. Registration is
 * mutex-guarded and idempotent by name; recording is wait-free
 * (per-thread shards, relaxed atomics). Thread shards survive thread
 * exit — counts are never lost — and the registry owns them, so it
 * must outlive every thread still recording into it (sessions and the
 * CLI keep the Observer alive across the whole run).
 */
class MetricsRegistry
{
  public:
    MetricsRegistry();
    ~MetricsRegistry();

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Intern (or look up) a counter by name. */
    CounterId counter(const std::string &name);

    /**
     * Intern (or look up) a histogram by name. `bounds` must be
     * non-empty, finite, and strictly ascending; a histogram
     * re-registered under the same name keeps its original bounds.
     */
    HistogramId histogram(const std::string &name,
                          std::vector<double> bounds);

    /** Add `delta` to a counter (wait-free on the hot path). */
    void add(CounterId id, std::uint64_t delta = 1);

    /** Record one observation into a histogram (wait-free). */
    void observe(HistogramId id, double value);

    /** Merge every thread shard into one consistent view. */
    MetricsSnapshot snapshot() const;

  private:
    /**
     * One thread's private slice of every metric. Only the owning
     * thread writes; snapshot() reads the same slots with relaxed
     * loads, which is why the slots are atomics.
     */
    struct Shard
    {
        /** One relaxed-atomic slot per registered counter. */
        std::unique_ptr<std::atomic<std::uint64_t>[]> counters;
        std::size_t counterCount = 0;

        struct HistShard
        {
            std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
            std::size_t bucketCount = 0;
            std::atomic<std::uint64_t> count{0};
            /** Sum as a bit-cast double updated by CAS (portable
             * fetch_add for doubles). */
            std::atomic<std::uint64_t> sumBits{0};
        };
        std::vector<std::unique_ptr<HistShard>> hists;
    };

    struct HistogramDef
    {
        std::string name;
        std::vector<double> bounds;
    };

    /** The calling thread's shard, created/grown on first use. */
    Shard &localShard();

    /** Grow `shard` to cover every metric registered so far. */
    void growShard(Shard &shard);

    /** Process-unique id for the thread-local shard cache. */
    const std::uint64_t uid;

    mutable std::mutex mutex;
    std::vector<std::string> counterNames;
    std::vector<HistogramDef> histogramDefs;
    std::vector<std::unique_ptr<Shard>> shards;
};

} // namespace gobo

#endif // GOBO_OBS_METRICS_HH
