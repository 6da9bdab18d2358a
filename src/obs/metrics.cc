#include "obs/metrics.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace gobo {

namespace {

/** Monotonic registry uid source; uids are never reused, so stale
 * thread-local cache entries for destroyed registries can never be
 * matched again. */
std::atomic<std::uint64_t> next_registry_uid{1};

/**
 * Per-thread cache mapping registry uid -> shard owned by that
 * registry. A plain vector: a thread typically records into one or two
 * registries, so a linear scan beats any map.
 */
struct ShardCache
{
    struct Entry
    {
        std::uint64_t uid;
        void *shard;
    };
    std::vector<Entry> entries;

    void *
    find(std::uint64_t uid) const
    {
        for (const auto &e : entries)
            if (e.uid == uid)
                return e.shard;
        return nullptr;
    }
};

thread_local ShardCache shard_cache;

/** Portable fetch_add for a double held as bit-cast uint64. */
void
atomicAddDouble(std::atomic<std::uint64_t> &bits, double delta)
{
    std::uint64_t old = bits.load(std::memory_order_relaxed);
    for (;;) {
        double next = std::bit_cast<double>(old) + delta;
        if (bits.compare_exchange_weak(old, std::bit_cast<std::uint64_t>(next),
                                       std::memory_order_relaxed))
            return;
    }
}

} // namespace

double
HistogramSnapshot::mean() const
{
    return count ? sum / static_cast<double>(count) : 0.0;
}

double
HistogramSnapshot::quantile(double q) const
{
    fatalIf(q < 0.0 || q > 1.0, "histogram quantile q out of [0,1]: ", q);
    // Empty histogram: NaN, by contract. 0 would be indistinguishable
    // from a genuine 0-latency quantile — a serve run that shed every
    // request must not report p50 = 0 as if latency were excellent.
    if (count == 0)
        return std::numeric_limits<double>::quiet_NaN();
    // Rank of the requested quantile among `count` observations.
    double rank = q * static_cast<double>(count);
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
        std::uint64_t prev = cum;
        cum += counts[b];
        if (static_cast<double>(cum) < rank || counts[b] == 0)
            continue;
        if (b >= bounds.size()) // overflow bucket: no finite upper edge
            return bounds.back();
        double lower = b == 0 ? std::min(0.0, bounds[0]) : bounds[b - 1];
        double upper = bounds[b];
        double frac = (rank - static_cast<double>(prev))
                      / static_cast<double>(counts[b]);
        return lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
    }
    return bounds.back();
}

std::uint64_t
HistogramSnapshot::overflow() const
{
    return counts.empty() ? 0 : counts.back();
}

double
HistogramSnapshot::overflowFraction() const
{
    return count ? static_cast<double>(overflow())
                       / static_cast<double>(count)
                 : 0.0;
}

bool
HistogramSnapshot::quantilesAreLowerBounds() const
{
    return overflowFraction() > 0.01;
}

const MetricsSnapshot::CounterValue *
MetricsSnapshot::findCounter(std::string_view name) const
{
    for (const auto &c : counters)
        if (c.name == name)
            return &c;
    return nullptr;
}

const HistogramSnapshot *
MetricsSnapshot::findHistogram(std::string_view name) const
{
    for (const auto &h : histograms)
        if (h.name == name)
            return &h;
    return nullptr;
}

std::vector<double>
latencyBoundsUs(std::size_t per_decade)
{
    fatalIf(per_decade == 0, "latencyBoundsUs needs per_decade > 0");
    std::vector<double> bounds;
    // 1 us .. 10 s is 7 decades.
    for (std::size_t i = 0; i <= 7 * per_decade; ++i)
        bounds.push_back(std::pow(
            10.0, static_cast<double>(i) / static_cast<double>(per_decade)));
    return bounds;
}

MetricsRegistry::MetricsRegistry()
    : uid(next_registry_uid.fetch_add(1, std::memory_order_relaxed))
{
}

MetricsRegistry::~MetricsRegistry() = default;

CounterId
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard lock(mutex);
    for (std::size_t i = 0; i < counterNames.size(); ++i)
        if (counterNames[i] == name)
            return {static_cast<std::uint32_t>(i)};
    counterNames.push_back(name);
    return {static_cast<std::uint32_t>(counterNames.size() - 1)};
}

HistogramId
MetricsRegistry::histogram(const std::string &name,
                           std::vector<double> bounds)
{
    std::lock_guard lock(mutex);
    for (std::size_t i = 0; i < histogramDefs.size(); ++i)
        if (histogramDefs[i].name == name)
            return {static_cast<std::uint32_t>(i)};
    fatalIf(bounds.empty(), "histogram '", name, "' needs bounds");
    for (std::size_t i = 0; i < bounds.size(); ++i)
        fatalIf(!std::isfinite(bounds[i])
                    || (i > 0 && bounds[i] <= bounds[i - 1]),
                "histogram '", name,
                "' bounds must be finite and strictly ascending");
    histogramDefs.push_back({name, std::move(bounds)});
    return {static_cast<std::uint32_t>(histogramDefs.size() - 1)};
}

MetricsRegistry::Shard &
MetricsRegistry::localShard()
{
    if (void *cached = shard_cache.find(uid))
        return *static_cast<Shard *>(cached);
    auto shard = std::make_unique<Shard>();
    Shard *raw = shard.get();
    {
        std::lock_guard lock(mutex);
        shards.push_back(std::move(shard));
    }
    growShard(*raw);
    shard_cache.entries.push_back({uid, raw});
    return *raw;
}

void
MetricsRegistry::growShard(Shard &shard)
{
    // Build the grown arrays outside the lock, publish under it so a
    // concurrent snapshot() never observes a half-swapped shard. Only
    // the owning thread writes (and grows) a shard, so copying the old
    // values without the lock is race-free.
    std::lock_guard lock(mutex);
    if (shard.counterCount < counterNames.size()) {
        auto grown = std::make_unique<std::atomic<std::uint64_t>[]>(
            counterNames.size());
        for (std::size_t i = 0; i < counterNames.size(); ++i)
            grown[i].store(i < shard.counterCount
                               ? shard.counters[i].load(
                                     std::memory_order_relaxed)
                               : 0,
                           std::memory_order_relaxed);
        shard.counters = std::move(grown);
        shard.counterCount = counterNames.size();
    }
    while (shard.hists.size() < histogramDefs.size()) {
        auto hs = std::make_unique<Shard::HistShard>();
        hs->bucketCount = histogramDefs[shard.hists.size()].bounds.size() + 1;
        hs->buckets =
            std::make_unique<std::atomic<std::uint64_t>[]>(hs->bucketCount);
        for (std::size_t b = 0; b < hs->bucketCount; ++b)
            hs->buckets[b].store(0, std::memory_order_relaxed);
        shard.hists.push_back(std::move(hs));
    }
}

void
MetricsRegistry::add(CounterId id, std::uint64_t delta)
{
    if (!id.valid())
        return;
    Shard &shard = localShard();
    if (id.index >= shard.counterCount)
        growShard(shard);
    panicIf(id.index >= shard.counterCount,
            "counter id from a different registry");
    shard.counters[id.index].fetch_add(delta, std::memory_order_relaxed);
}

void
MetricsRegistry::observe(HistogramId id, double value)
{
    if (!id.valid())
        return;
    Shard &shard = localShard();
    if (id.index >= shard.hists.size())
        growShard(shard);
    panicIf(id.index >= shard.hists.size(),
            "histogram id from a different registry");

    const std::vector<double> *bounds;
    {
        // Bounds are append-only and never mutated after registration,
        // but the defs vector can reallocate under registration; take
        // the pointer under the lock. Registration during a hot loop
        // does not happen (ids are interned up front), so this lock is
        // uncontended in practice.
        std::lock_guard lock(mutex);
        bounds = &histogramDefs[id.index].bounds;
    }
    auto it = std::lower_bound(bounds->begin(), bounds->end(), value);
    auto bucket = static_cast<std::size_t>(it - bounds->begin());

    Shard::HistShard &hs = *shard.hists[id.index];
    hs.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
    hs.count.fetch_add(1, std::memory_order_relaxed);
    atomicAddDouble(hs.sumBits, value);
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard lock(mutex);
    MetricsSnapshot snap;
    snap.counters.resize(counterNames.size());
    for (std::size_t i = 0; i < counterNames.size(); ++i)
        snap.counters[i].name = counterNames[i];
    snap.histograms.resize(histogramDefs.size());
    for (std::size_t i = 0; i < histogramDefs.size(); ++i) {
        snap.histograms[i].name = histogramDefs[i].name;
        snap.histograms[i].bounds = histogramDefs[i].bounds;
        snap.histograms[i].counts.assign(
            histogramDefs[i].bounds.size() + 1, 0);
    }
    for (const auto &shard : shards) {
        for (std::size_t i = 0; i < shard->counterCount; ++i)
            snap.counters[i].value +=
                shard->counters[i].load(std::memory_order_relaxed);
        for (std::size_t i = 0; i < shard->hists.size(); ++i) {
            const Shard::HistShard &hs = *shard->hists[i];
            for (std::size_t b = 0; b < hs.bucketCount; ++b)
                snap.histograms[i].counts[b] +=
                    hs.buckets[b].load(std::memory_order_relaxed);
            snap.histograms[i].count +=
                hs.count.load(std::memory_order_relaxed);
            snap.histograms[i].sum += std::bit_cast<double>(
                hs.sumBits.load(std::memory_order_relaxed));
        }
    }
    return snap;
}

} // namespace gobo
