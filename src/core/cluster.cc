#include "core/cluster.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/logging.hh"

namespace gobo {

const char *
centroidMethodName(CentroidMethod method)
{
    switch (method) {
      case CentroidMethod::Gobo: return "GOBO";
      case CentroidMethod::KMeans: return "K-Means";
      case CentroidMethod::Linear: return "Linear";
    }
    panic("unknown CentroidMethod");
}

namespace {

/**
 * Order-preserving map from float bits to uint32: flipping every bit
 * of a negative and only the sign bit of a non-negative makes unsigned
 * comparison agree with float comparison (-0.0 lands just below +0.0;
 * both compare equal as floats, so swapping them changes no prefix sum
 * and no comparison).
 */
std::uint32_t
sortKey(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof u);
    return (u & 0x80000000u) ? ~u : (u | 0x80000000u);
}

float
fromSortKey(std::uint32_t k)
{
    std::uint32_t u = (k & 0x80000000u) ? (k & 0x7fffffffu) : ~k;
    float f;
    std::memcpy(&f, &u, sizeof f);
    return f;
}

/**
 * The sort keys of `values`, ascending: an LSD radix sort in three
 * stable counting passes of 11, 11 and 10 bits, with the histograms of
 * all three taken in the sweep that builds the keys.
 */
MapVector<std::uint32_t>
radixSortedKeys(std::span<const float> values)
{
    constexpr unsigned kDigitBits = 11, kPasses = 3;
    constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
    constexpr std::uint32_t kMask = kBuckets - 1;
    const std::size_t n = values.size();
    MapVector<std::uint32_t> keys(n), tmp(n);
    std::vector<std::size_t> hist(kPasses * kBuckets, 0);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t k = sortKey(values[i]);
        keys[i] = k;
        for (unsigned p = 0; p < kPasses; ++p)
            ++hist[p * kBuckets + ((k >> (p * kDigitBits)) & kMask)];
    }
    for (unsigned p = 0; p < kPasses; ++p) {
        std::size_t *count = &hist[p * kBuckets];
        const unsigned shift = p * kDigitBits;
        std::size_t offset = 0;
        for (std::size_t b = 0; b < kBuckets; ++b) {
            std::size_t c = count[b];
            count[b] = offset;
            offset += c;
        }
        for (std::uint32_t k : keys)
            tmp[count[(k >> shift) & kMask]++] = k;
        keys.swap(tmp);
    }
    return keys;
}

} // namespace

SortedWeights::SortedWeights(std::span<const float> values)
{
    // Filled by push_back so no buffer is written twice; the running
    // sums are exactly the old prefix[i + 1] = prefix[i] + v.
    MapVector<std::uint32_t> keys = radixSortedKeys(values);
    vals.reserve(keys.size());
    prefix.reserve(keys.size() + 1);
    prefixSq.reserve(keys.size() + 1);
    double sum = 0.0, sum_sq = 0.0;
    prefix.push_back(sum);
    prefixSq.push_back(sum_sq);
    for (std::uint32_t k : keys) {
        float v = fromSortKey(k);
        vals.push_back(v);
        sum += v;
        sum_sq += static_cast<double>(v) * v;
        prefix.push_back(sum);
        prefixSq.push_back(sum_sq);
    }
}

std::size_t
SortedWeights::lowerBound(double x) const
{
    auto it = std::lower_bound(
        vals.begin(), vals.end(), x,
        [](float a, double b) { return static_cast<double>(a) < b; });
    return static_cast<std::size_t>(it - vals.begin());
}

double
SortedWeights::segmentSum(std::size_t begin, std::size_t end) const
{
    panicIf(begin > end || end > vals.size(), "bad segment [", begin, ", ",
            end, ")");
    return prefix[end] - prefix[begin];
}

double
SortedWeights::segmentMean(std::size_t begin, std::size_t end) const
{
    fatalIf(begin >= end, "segmentMean of empty segment");
    return segmentSum(begin, end) / static_cast<double>(end - begin);
}

double
SortedWeights::segmentL1(std::size_t begin, std::size_t end, double c) const
{
    panicIf(begin > end || end > vals.size(), "bad segment");
    if (begin == end)
        return 0.0;
    std::size_t t = std::clamp(lowerBound(c), begin, end);
    // Values below c contribute c - v; values at or above contribute
    // v - c. Both reduce to prefix-sum expressions.
    double below = c * static_cast<double>(t - begin)
                   - (prefix[t] - prefix[begin]);
    double above = (prefix[end] - prefix[t])
                   - c * static_cast<double>(end - t);
    return below + above;
}

double
SortedWeights::segmentL2(std::size_t begin, std::size_t end, double c) const
{
    panicIf(begin > end || end > vals.size(), "bad segment");
    double n = static_cast<double>(end - begin);
    return (prefixSq[end] - prefixSq[begin])
           - 2.0 * c * (prefix[end] - prefix[begin]) + c * c * n;
}

std::vector<float>
equalPopulationCentroids(const SortedWeights &sorted, std::size_t k)
{
    fatalIf(k == 0, "need at least one centroid");
    std::size_t n = sorted.size();
    std::vector<float> centroids;
    centroids.reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
        std::size_t b = (j * n) / k;
        std::size_t e = ((j + 1) * n) / k;
        if (b >= e)
            continue; // fewer values than bins
        auto c = static_cast<float>(sorted.segmentMean(b, e));
        if (centroids.empty() || centroids.back() != c)
            centroids.push_back(c);
    }
    return centroids;
}

std::vector<float>
linearCentroids(double min_value, double max_value, std::size_t k)
{
    fatalIf(k == 0, "need at least one centroid");
    fatalIf(min_value > max_value, "linearCentroids inverted range");
    std::vector<float> centroids;
    centroids.reserve(k);
    if (k == 1) {
        centroids.push_back(
            static_cast<float>((min_value + max_value) / 2.0));
        return centroids;
    }
    double step = (max_value - min_value) / static_cast<double>(k - 1);
    for (std::size_t j = 0; j < k; ++j)
        centroids.push_back(
            static_cast<float>(min_value + step * static_cast<double>(j)));
    return centroids;
}

namespace {

/**
 * Nearest-centroid assignment boundaries over the sorted population:
 * cluster j owns sorted indexes [bounds[j], bounds[j+1]). Centroids
 * must be ascending; boundaries are the midpoints between neighbours.
 */
std::vector<std::size_t>
assignmentBounds(const SortedWeights &sorted,
                 const std::vector<float> &centroids)
{
    std::vector<std::size_t> bounds(centroids.size() + 1, 0);
    for (std::size_t j = 1; j < centroids.size(); ++j) {
        double mid = (static_cast<double>(centroids[j - 1]) + centroids[j])
                     / 2.0;
        bounds[j] = std::max(bounds[j - 1], sorted.lowerBound(mid));
    }
    bounds[centroids.size()] = sorted.size();
    return bounds;
}

/** Exact L1/L2 objective for centroids under nearest assignment. */
IterationRecord
objective(const SortedWeights &sorted, const std::vector<float> &centroids,
          const std::vector<std::size_t> &bounds)
{
    IterationRecord rec;
    for (std::size_t j = 0; j < centroids.size(); ++j) {
        rec.l1 += sorted.segmentL1(bounds[j], bounds[j + 1], centroids[j]);
        rec.l2 += sorted.segmentL2(bounds[j], bounds[j + 1], centroids[j]);
    }
    return rec;
}

/** One Lloyd update: means of the current segments (empty keeps old). */
std::vector<float>
updateCentroids(const SortedWeights &sorted,
                const std::vector<float> &centroids,
                const std::vector<std::size_t> &bounds)
{
    std::vector<float> next(centroids.size());
    for (std::size_t j = 0; j < centroids.size(); ++j) {
        if (bounds[j] < bounds[j + 1])
            next[j] = static_cast<float>(
                sorted.segmentMean(bounds[j], bounds[j + 1]));
        else
            next[j] = centroids[j];
    }
    // Means of ordered segments stay ordered, but an empty cluster
    // keeping its old centroid can break monotonicity; restore it.
    std::sort(next.begin(), next.end());
    return next;
}

} // namespace

ClusterResult
clusterWeights(std::span<const float> g_values, unsigned bits,
               CentroidMethod method, std::size_t max_iterations,
               double kmeans_tol)
{
    fatalIf(bits == 0 || bits > 8, "index width out of range: ", bits);
    fatalIf(g_values.empty(), "clusterWeights on empty G group");
    std::size_t k = std::size_t{1} << bits;

    SortedWeights sorted(g_values);
    ClusterResult result;

    if (method == CentroidMethod::Linear) {
        result.centroids = linearCentroids(sorted.values().front(),
                                           sorted.values().back(), k);
        auto bounds = assignmentBounds(sorted, result.centroids);
        auto rec = objective(sorted, result.centroids, bounds);
        result.history.push_back(rec);
        result.iterations = 0;
        result.finalL1 = rec.l1;
        result.finalL2 = rec.l2;
        return result;
    }

    // Both GOBO and K-Means start from the equal-population cut of the
    // sorted weights and apply the same Lloyd update; they differ only
    // in what they monitor and when they stop.
    std::vector<float> centroids = equalPopulationCentroids(sorted, k);
    auto bounds = assignmentBounds(sorted, centroids);
    result.history.push_back(objective(sorted, centroids, bounds));

    std::vector<float> best_centroids = centroids;
    double best_l1 = result.history.back().l1;
    std::size_t best_iter = 0;

    for (std::size_t iter = 1; iter <= max_iterations; ++iter) {
        auto next = updateCentroids(sorted, centroids, bounds);
        auto next_bounds = assignmentBounds(sorted, next);
        bool assignments_fixed = next_bounds == bounds && next == centroids;
        centroids = std::move(next);
        bounds = std::move(next_bounds);

        auto rec = objective(sorted, centroids, bounds);
        double prev_l2 = result.history.back().l2;
        result.history.push_back(rec);

        if (rec.l1 < best_l1) {
            best_l1 = rec.l1;
            best_centroids = centroids;
            best_iter = iter;
        }

        if (method == CentroidMethod::Gobo) {
            // Stop once the monitored L1 has passed its minimum: the
            // norm rose above the best seen, or nothing moves anymore.
            if (rec.l1 > best_l1 || assignments_fixed) {
                result.centroids = best_centroids;
                result.iterations = best_iter;
                auto b = assignmentBounds(sorted, result.centroids);
                auto final_rec = objective(sorted, result.centroids, b);
                result.finalL1 = final_rec.l1;
                result.finalL2 = final_rec.l2;
                return result;
            }
        } else {
            bool converged = assignments_fixed
                             || (prev_l2 > 0.0
                                 && prev_l2 - rec.l2
                                        < kmeans_tol * prev_l2);
            if (converged) {
                result.centroids = centroids;
                result.iterations = iter;
                result.finalL1 = rec.l1;
                result.finalL2 = rec.l2;
                return result;
            }
        }
    }

    // Safety bound hit: return the best state for GOBO, last for K-Means.
    if (method == CentroidMethod::Gobo) {
        result.centroids = best_centroids;
        result.iterations = best_iter;
        auto b = assignmentBounds(sorted, result.centroids);
        auto rec = objective(sorted, result.centroids, b);
        result.finalL1 = rec.l1;
        result.finalL2 = rec.l2;
    } else {
        result.centroids = centroids;
        result.iterations = max_iterations;
        result.finalL1 = result.history.back().l1;
        result.finalL2 = result.history.back().l2;
    }
    return result;
}

MapVector<std::uint32_t>
assignNearest(std::span<const float> values,
              std::span<const float> centroids)
{
    fatalIf(centroids.empty(), "assignNearest with no centroids");
    panicIf(!std::is_sorted(centroids.begin(), centroids.end()),
            "assignNearest centroids must be ascending");

    // Decision midpoints, padded with +Inf to whole blocks of kLanes:
    // the index of v is the count of midpoints below it (what
    // lower_bound over the ascending midpoints returns), and a fixed-
    // width compare-and-add the compiler vectorizes beats a binary
    // search's unpredictable branches. +Inf is never below any v.
    constexpr std::size_t kLanes = 8;
    std::size_t n_mids = centroids.size() - 1;
    std::vector<float> mids(
        (n_mids + kLanes - 1) / kLanes * kLanes,
        std::numeric_limits<float>::infinity());
    for (std::size_t j = 0; j < n_mids; ++j)
        mids[j] = static_cast<float>(
            (static_cast<double>(centroids[j]) + centroids[j + 1]) / 2.0);

    MapVector<std::uint32_t> idx(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        const float v = values[i];
        std::uint32_t below = 0;
        for (std::size_t j = 0; j < mids.size(); j += kLanes)
            for (std::size_t l = 0; l < kLanes; ++l)
                below += mids[j + l] < v ? 1u : 0u;
        idx[i] = below;
    }
    return idx;
}

} // namespace gobo
