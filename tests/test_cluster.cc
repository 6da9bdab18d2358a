/**
 * @file
 * Unit and property tests for the 1-D clustering engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/cluster.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace gobo {
namespace {

std::vector<float>
gaussianSample(std::size_t n, std::uint64_t seed, double sigma = 0.05)
{
    Rng rng(seed);
    std::vector<float> xs(n);
    rng.fillGaussian(xs, 0.0, sigma);
    return xs;
}

TEST(SortedWeightsTest, SortsAndQueries)
{
    std::vector<float> xs{3.0f, 1.0f, 2.0f, 2.0f, 5.0f};
    SortedWeights sw(xs);
    EXPECT_EQ(sw.size(), 5u);
    EXPECT_TRUE(std::is_sorted(sw.values().begin(), sw.values().end()));
    EXPECT_EQ(sw.lowerBound(2.0), 1u);
    EXPECT_EQ(sw.lowerBound(2.5), 3u);
    EXPECT_EQ(sw.lowerBound(100.0), 5u);
    EXPECT_DOUBLE_EQ(sw.segmentSum(0, 5), 13.0);
    EXPECT_DOUBLE_EQ(sw.segmentMean(1, 3), 2.0);
    EXPECT_THROW(sw.segmentMean(2, 2), FatalError);
}

TEST(SortedWeightsTest, SegmentNormsMatchBruteForce)
{
    auto xs = gaussianSample(2000, 71);
    SortedWeights sw(xs);
    const auto &v = sw.values();
    for (auto [b, e, c] :
         {std::tuple<std::size_t, std::size_t, double>{0, 2000, 0.0},
          {100, 900, 0.01},
          {0, 1, -0.3},
          {1500, 2000, 0.08},
          {0, 2000, -0.2}}) {
        double l1 = 0.0, l2 = 0.0;
        for (std::size_t i = b; i < e; ++i) {
            double d = static_cast<double>(v[i]) - c;
            l1 += std::abs(d);
            l2 += d * d;
        }
        EXPECT_NEAR(sw.segmentL1(b, e, c), l1, 1e-6 * (l1 + 1));
        EXPECT_NEAR(sw.segmentL2(b, e, c), l2, 1e-6 * (l2 + 1));
    }
}

template <typename T>
auto
bitsOf(T x)
{
    std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t> u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

/**
 * SortedWeights against the std::sort construction it replaced: the
 * same values in the same order, and the same prefix/prefixSq bits
 * (read back as segmentSum(0, i) and segmentL2(0, i, 0), which are
 * exact there). Signed zeros compare equal, so they may trade places;
 * every other value must match bit for bit.
 */
void
expectMatchesSortReference(const std::vector<float> &input,
                           const std::string &what)
{
    SortedWeights sw(input);
    std::vector<float> ref = input;
    std::sort(ref.begin(), ref.end());
    ASSERT_EQ(sw.size(), ref.size()) << what;
    double sum = 0.0, sq = 0.0;
    for (std::size_t i = 0; i <= ref.size(); ++i) {
        ASSERT_EQ(bitsOf(sw.segmentSum(0, i)), bitsOf(sum))
            << what << " prefix " << i;
        ASSERT_EQ(bitsOf(sw.segmentL2(0, i, 0.0)), bitsOf(sq))
            << what << " prefixSq " << i;
        if (i == ref.size())
            break;
        if (ref[i] == 0.0f)
            ASSERT_EQ(sw.values()[i], 0.0f) << what << " at " << i;
        else
            ASSERT_EQ(bitsOf(sw.values()[i]), bitsOf(ref[i]))
                << what << " at " << i;
        sum += ref[i];
        sq += static_cast<double>(ref[i]) * ref[i];
    }
}

TEST(SortedWeightsTest, MatchesStdSortReferenceExactly)
{
    const float tiny = std::numeric_limits<float>::denorm_min();
    expectMatchesSortReference({0.0f, -0.0f, 1.0f, -0.0f, -1.0f, 0.0f},
                               "signed zeros");
    expectMatchesSortReference({tiny, -tiny, FLT_MIN / 2, -FLT_MIN, FLT_MIN,
                                0.0f, -0.0f, 1e-40f, -3e-39f, 2.0f},
                               "denormals");
    expectMatchesSortReference({FLT_MAX, -FLT_MAX, 0.0f, 1.0f, -1.0f,
                                FLT_MAX, -FLT_MAX / 2, 3e38f},
                               "extremes");
    expectMatchesSortReference({1.0f, -1.0f}, "n=2");
    expectMatchesSortReference({-0.0f, 0.0f}, "n=2 zeros");
    expectMatchesSortReference({3.0f, 3.0f}, "n=2 equal");

    Rng rng(811);
    const float pool[] = {-0.5f, -0.25f, -0.0f, 0.0f, 0.25f, 0.5f};
    std::vector<float> dups(5000);
    for (auto &x : dups)
        x = pool[rng.integer(0, 5)];
    expectMatchesSortReference(dups, "heavy duplicates");

    auto g = gaussianSample(4096, 813);
    std::sort(g.begin(), g.end());
    expectMatchesSortReference(g, "pre-sorted");
    std::reverse(g.begin(), g.end());
    expectMatchesSortReference(g, "reverse-sorted");

    for (std::size_t n = 1; n <= 33; ++n)
        expectMatchesSortReference(gaussianSample(n, 900 + n),
                                   "n=" + std::to_string(n));
    expectMatchesSortReference(gaussianSample(200000, 815), "large");

    // Every exponent and sign: random finite bit patterns.
    std::vector<float> wide;
    while (wide.size() < 20000) {
        auto u = static_cast<std::uint32_t>(rng.raw()());
        float f;
        std::memcpy(&f, &u, sizeof f);
        if (std::isfinite(f))
            wide.push_back(f);
    }
    expectMatchesSortReference(wide, "all exponents");
}

TEST(EqualPopulationCentroids, BalancedBins)
{
    std::vector<float> xs;
    for (int i = 0; i < 80; ++i)
        xs.push_back(static_cast<float>(i));
    SortedWeights sw(xs);
    auto c = equalPopulationCentroids(sw, 8);
    ASSERT_EQ(c.size(), 8u);
    // Bin j holds [10j, 10j+9]; its mean is 10j + 4.5.
    for (std::size_t j = 0; j < 8; ++j)
        EXPECT_FLOAT_EQ(c[j], 10.0f * static_cast<float>(j) + 4.5f);
}

TEST(EqualPopulationCentroids, FewerValuesThanBins)
{
    std::vector<float> xs{1.0f, 2.0f};
    SortedWeights sw(xs);
    auto c = equalPopulationCentroids(sw, 8);
    EXPECT_LE(c.size(), 2u);
    EXPECT_FALSE(c.empty());
}

TEST(LinearCentroidsTest, Equidistant)
{
    auto c = linearCentroids(-1.0, 1.0, 5);
    ASSERT_EQ(c.size(), 5u);
    EXPECT_FLOAT_EQ(c.front(), -1.0f);
    EXPECT_FLOAT_EQ(c.back(), 1.0f);
    EXPECT_FLOAT_EQ(c[2], 0.0f);
    auto single = linearCentroids(2.0, 4.0, 1);
    EXPECT_FLOAT_EQ(single[0], 3.0f);
    EXPECT_THROW(linearCentroids(1.0, 0.0, 4), FatalError);
}

TEST(AssignNearest, MatchesBruteForce)
{
    auto xs = gaussianSample(3000, 73);
    std::vector<float> centroids{-0.08f, -0.02f, 0.0f, 0.03f, 0.09f};
    auto idx = assignNearest(xs, centroids);
    ASSERT_EQ(idx.size(), xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
        double best = 1e30;
        std::size_t best_j = 0;
        for (std::size_t j = 0; j < centroids.size(); ++j) {
            double d = std::abs(static_cast<double>(xs[i])
                                - centroids[j]);
            if (d < best) {
                best = d;
                best_j = j;
            }
        }
        double chosen = std::abs(static_cast<double>(xs[i])
                                 - centroids[idx[i]]);
        // Ties may go either way; distances must match.
        EXPECT_NEAR(chosen, best, 1e-9);
        (void)best_j;
    }
}

/** The std::lower_bound assignment assignNearest replaced. */
std::vector<std::uint32_t>
assignWithLowerBound(const std::vector<float> &values,
                     const std::vector<float> &centroids)
{
    std::vector<float> mids;
    for (std::size_t j = 1; j < centroids.size(); ++j)
        mids.push_back(static_cast<float>(
            (static_cast<double>(centroids[j - 1]) + centroids[j]) / 2.0));
    std::vector<std::uint32_t> idx;
    for (float v : values)
        idx.push_back(static_cast<std::uint32_t>(
            std::lower_bound(mids.begin(), mids.end(), v) - mids.begin()));
    return idx;
}

TEST(AssignNearest, MatchesLowerBoundReferenceExactly)
{
    const float inf = std::numeric_limits<float>::infinity();
    for (std::size_t k : {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 64,
                          100, 128, 255, 256}) {
        std::vector<float> centroids = gaussianSample(k, 830 + k);
        if (k > 4) // duplicate neighbours give repeated midpoints
            centroids[k / 2] = centroids[k / 2 + 1];
        std::sort(centroids.begin(), centroids.end());

        std::vector<float> values = gaussianSample(3000, 850 + k, 0.08);
        for (std::size_t j = 1; j < k; ++j) {
            auto mid = static_cast<float>(
                (static_cast<double>(centroids[j - 1]) + centroids[j])
                / 2.0);
            values.push_back(mid); // exactly on a midpoint
            values.push_back(std::nextafter(mid, -inf));
            values.push_back(std::nextafter(mid, inf));
        }
        values.insert(values.end(), centroids.begin(), centroids.end());
        for (float v : {0.0f, -0.0f, inf, -inf, FLT_MAX, -FLT_MAX})
            values.push_back(v);
        auto got = assignNearest(values, centroids);
        EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
                  assignWithLowerBound(values, centroids))
            << "k=" << k;
    }
}

TEST(AssignNearest, RequiresSortedCentroids)
{
    std::vector<float> xs{0.0f};
    std::vector<float> empty;
    EXPECT_THROW(assignNearest(xs, empty), FatalError);
}

TEST(ClusterWeights, GoboStopsAtL1Minimum)
{
    auto xs = gaussianSample(50000, 79);
    auto res = clusterWeights(xs, 3, CentroidMethod::Gobo);
    ASSERT_FALSE(res.history.empty());
    // The chosen iteration must hold the smallest L1 in the history.
    double min_l1 = res.history.front().l1;
    for (const auto &rec : res.history)
        min_l1 = std::min(min_l1, rec.l1);
    EXPECT_NEAR(res.finalL1, min_l1, 1e-9 * (min_l1 + 1));
}

TEST(ClusterWeights, KMeansL2NonIncreasing)
{
    auto xs = gaussianSample(50000, 83);
    auto res = clusterWeights(xs, 3, CentroidMethod::KMeans);
    for (std::size_t i = 1; i < res.history.size(); ++i)
        EXPECT_LE(res.history[i].l2, res.history[i - 1].l2 + 1e-9);
}

TEST(ClusterWeights, KMeansReachesLowerL2ThanGobo)
{
    auto xs = gaussianSample(100000, 89);
    auto gobo = clusterWeights(xs, 3, CentroidMethod::Gobo);
    auto km = clusterWeights(xs, 3, CentroidMethod::KMeans);
    EXPECT_LE(km.finalL2, gobo.finalL2 + 1e-9);
    // ...but GOBO holds the lower (or equal) L1: that is its objective.
    EXPECT_LE(gobo.finalL1, km.finalL1 + 1e-9);
}

TEST(ClusterWeights, GoboConvergesFasterThanKMeans)
{
    auto xs = gaussianSample(200000, 97);
    auto gobo = clusterWeights(xs, 3, CentroidMethod::Gobo);
    auto km = clusterWeights(xs, 3, CentroidMethod::KMeans);
    EXPECT_LT(gobo.iterations, km.iterations);
    // The paper reports ~7 iterations for 3-bit GOBO.
    EXPECT_LE(gobo.iterations, 20u);
}

TEST(ClusterWeights, LinearIsNonIterative)
{
    auto xs = gaussianSample(10000, 101);
    auto res = clusterWeights(xs, 3, CentroidMethod::Linear);
    EXPECT_EQ(res.iterations, 0u);
    ASSERT_EQ(res.centroids.size(), 8u);
    float lo = res.centroids.front(), hi = res.centroids.back();
    float step = (hi - lo) / 7.0f;
    for (std::size_t j = 1; j < 8; ++j)
        EXPECT_NEAR(res.centroids[j] - res.centroids[j - 1], step, 1e-4);
}

TEST(ClusterWeights, ExactWhenFewDistinctValues)
{
    std::vector<float> xs;
    for (int i = 0; i < 100; ++i)
        xs.push_back(static_cast<float>(i % 4)); // 4 distinct values
    for (auto m : {CentroidMethod::Gobo, CentroidMethod::KMeans}) {
        auto res = clusterWeights(xs, 3, m);
        EXPECT_NEAR(res.finalL1, 0.0, 1e-9);
        EXPECT_NEAR(res.finalL2, 0.0, 1e-9);
    }
}

TEST(ClusterWeights, HandlesTinyInputs)
{
    std::vector<float> xs{0.5f, -0.5f};
    auto res = clusterWeights(xs, 3, CentroidMethod::Gobo);
    EXPECT_NEAR(res.finalL1, 0.0, 1e-9);
    EXPECT_THROW(clusterWeights({}, 3, CentroidMethod::Gobo), FatalError);
    EXPECT_THROW(clusterWeights(xs, 0, CentroidMethod::Gobo), FatalError);
    EXPECT_THROW(clusterWeights(xs, 9, CentroidMethod::Gobo), FatalError);
}

/** Properties that must hold for every (bits, method) combination. */
class ClusterSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, CentroidMethod>>
{
};

TEST_P(ClusterSweep, CentroidsSortedAndBounded)
{
    auto [bits, method] = GetParam();
    auto xs = gaussianSample(20000, 103 + bits);
    auto res = clusterWeights(xs, bits, method);
    EXPECT_LE(res.centroids.size(), std::size_t{1} << bits);
    EXPECT_FALSE(res.centroids.empty());
    EXPECT_TRUE(std::is_sorted(res.centroids.begin(),
                               res.centroids.end()));
    auto [mn, mx] = std::minmax_element(xs.begin(), xs.end());
    EXPECT_GE(res.centroids.front(), *mn - 1e-6);
    EXPECT_LE(res.centroids.back(), *mx + 1e-6);
}

TEST_P(ClusterSweep, FinalNormsMatchAssignment)
{
    auto [bits, method] = GetParam();
    auto xs = gaussianSample(5000, 211 + bits);
    auto res = clusterWeights(xs, bits, method);
    auto idx = assignNearest(xs, res.centroids);
    double l1 = 0.0, l2 = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        double d = static_cast<double>(xs[i]) - res.centroids[idx[i]];
        l1 += std::abs(d);
        l2 += d * d;
    }
    EXPECT_NEAR(res.finalL1, l1, 1e-6 * (l1 + 1));
    EXPECT_NEAR(res.finalL2, l2, 1e-6 * (l2 + 1));
}

INSTANTIATE_TEST_SUITE_P(
    BitsByMethod, ClusterSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
                       ::testing::Values(CentroidMethod::Gobo,
                                         CentroidMethod::KMeans,
                                         CentroidMethod::Linear)));

/** More bits must never hurt the achievable L1/L2 (same method). */
class ClusterMonotone : public ::testing::TestWithParam<CentroidMethod>
{
};

TEST_P(ClusterMonotone, NormsImproveWithBits)
{
    auto method = GetParam();
    auto xs = gaussianSample(30000, 307);
    double prev_l1 = 1e300;
    for (unsigned bits = 1; bits <= 7; ++bits) {
        auto res = clusterWeights(xs, bits, method);
        EXPECT_LE(res.finalL1, prev_l1 * 1.001);
        prev_l1 = res.finalL1;
    }
}

INSTANTIATE_TEST_SUITE_P(Methods, ClusterMonotone,
                         ::testing::Values(CentroidMethod::Gobo,
                                           CentroidMethod::KMeans,
                                           CentroidMethod::Linear));

} // namespace
} // namespace gobo
