/**
 * @file
 * One-dimensional centroid selection for the "G" group.
 *
 * All three policies the paper compares live here:
 *
 *  - GOBO: equal-population (sorted) initialization, then Lloyd-style
 *    iterations (re-assign each weight to the nearest centroid,
 *    recompute centroids as cluster means) while monitoring the total
 *    L1-norm between weights and their centroids; the iteration stops
 *    at the L1 minimum (Sec. IV-B).
 *  - K-Means: identical initialization and update rule, but iterated
 *    until the cluster assignments stop changing — the classic L2
 *    objective. The paper reports GOBO converging ~9x faster.
 *  - Linear: 2^bits equidistant centroids spanning the G-group range
 *    (no iterations).
 *
 * Because the problem is one-dimensional, clusters are contiguous
 * ranges of the sorted weights and every Lloyd iteration runs in
 * O(K log N) over a sorted+prefix-sum representation: assignment
 * boundaries are binary searches for centroid midpoints, cluster means
 * come from prefix sums, and the exact L1/L2 norms of a segment around
 * its centroid come from a second binary search within the segment.
 * This makes quantizing a full-size BERT-Large a matter of seconds on
 * one core (the paper reports ~10 minutes with scikit-learn).
 */

#ifndef GOBO_CORE_CLUSTER_HH
#define GOBO_CORE_CLUSTER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "util/mapvec.hh"

namespace gobo {

/** Centroid-selection policy for the G group. */
enum class CentroidMethod
{
    Gobo,   ///< L1-monitored iterative refinement (the contribution).
    KMeans, ///< L2 / assignment-convergence iteration.
    Linear, ///< Equidistant centroids over the G range.
};

/** Printable name ("GOBO", "K-Means", "Linear"). */
const char *centroidMethodName(CentroidMethod method);

/**
 * Sorted view of a weight population with prefix sums, supporting the
 * O(log N) segment queries every Lloyd iteration needs.
 */
class SortedWeights
{
  public:
    /**
     * Copy and sort the values (an O(N) radix sort on order-preserving
     * integer keys, equal to a comparison sort up to the order of
     * -0.0 and +0.0), then take the prefix sums; done once per layer.
     */
    explicit SortedWeights(std::span<const float> values);

    std::size_t size() const { return vals.size(); }

    /** The sorted values. */
    std::span<const float> values() const { return vals; }

    /** Index of the first value >= x. */
    std::size_t lowerBound(double x) const;

    /** Sum of values in [begin, end). */
    double segmentSum(std::size_t begin, std::size_t end) const;

    /** Mean of values in [begin, end); fatal when empty. */
    double segmentMean(std::size_t begin, std::size_t end) const;

    /** Exact sum of |v - c| over [begin, end). */
    double segmentL1(std::size_t begin, std::size_t end, double c) const;

    /** Exact sum of (v - c)^2 over [begin, end). */
    double segmentL2(std::size_t begin, std::size_t end, double c) const;

  private:
    // Mapped, like every per-layer scratch buffer of the quantizer
    // (util/mapvec.hh).
    MapVector<float> vals;
    MapVector<double> prefix;   ///< prefix[i] = sum of first i values.
    MapVector<double> prefixSq; ///< prefix of squares.
};

/** One Lloyd iteration's objective values (the Fig. 2 series). */
struct IterationRecord
{
    double l1 = 0.0; ///< Total L1-norm after the iteration.
    double l2 = 0.0; ///< Total L2-norm after the iteration.
};

/** Output of clusterWeights. */
struct ClusterResult
{
    /** Final centroids, ascending. Size is at most 2^bits. */
    std::vector<float> centroids;

    /** Objective trajectory, entry 0 being the initialization. */
    std::vector<IterationRecord> history;

    /**
     * Iterations until the stopping rule fired: the L1-minimum index
     * for GOBO, the assignment-fixpoint index for K-Means, 0 for
     * Linear.
     */
    std::size_t iterations = 0;

    /** Final total L1-norm between weights and assigned centroids. */
    double finalL1 = 0.0;

    /** Final total L2-norm. */
    double finalL2 = 0.0;
};

/**
 * Select centroids for a G-group population.
 *
 * @param g_values non-outlier weights (any order).
 * @param bits index width; 2^bits centroids are used.
 * @param method centroid-selection policy.
 * @param max_iterations safety bound on Lloyd iterations.
 * @param kmeans_tol K-Means also stops once the relative L2
 *        improvement of an iteration falls below this (the standard
 *        inertia tolerance; an exact assignment fixpoint on millions
 *        of weights takes hundreds of no-op iterations otherwise).
 */
ClusterResult clusterWeights(std::span<const float> g_values, unsigned bits,
                             CentroidMethod method,
                             std::size_t max_iterations = 300,
                             double kmeans_tol = 1e-7);

/**
 * Assign each value to the nearest centroid (midpoint rule; centroids
 * must be ascending). Returns one index per value.
 */
MapVector<std::uint32_t> assignNearest(std::span<const float> values,
                                       std::span<const float> centroids);

/**
 * Equal-population initial centroids over a sorted population: cut the
 * sorted weights into 2^bits equal-size bins and take each bin's mean
 * (paper Sec. IV-B steps 3-4).
 */
std::vector<float> equalPopulationCentroids(const SortedWeights &sorted,
                                            std::size_t k);

/** Equidistant centroids over [min, max] (linear quantization). */
std::vector<float> linearCentroids(double min_value, double max_value,
                                   std::size_t k);

} // namespace gobo

#endif // GOBO_CORE_CLUSTER_HH
