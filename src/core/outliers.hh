/**
 * @file
 * Outlier / Gaussian-group separation (the "O" and "G" split).
 *
 * GOBO's first step: fit a Gaussian to a layer's weights and peel off
 * the weights whose log-probability under that Gaussian falls below the
 * threshold (default -4, the value the paper found sufficient across
 * all models). Outliers keep their FP32 value and flat position; the
 * remaining G group goes to the clusterer.
 */

#ifndef GOBO_CORE_OUTLIERS_HH
#define GOBO_CORE_OUTLIERS_HH

#include <cstdint>
#include <span>
#include <vector>

#include "core/gaussian.hh"
#include "util/mapvec.hh"

namespace gobo {

/** Result of splitting a layer into the G group and the outliers. */
struct OutlierSplit
{
    GaussianFit fit;                  ///< The per-layer Gaussian.
    MapVector<float> gValues;         ///< Non-outlier weights, layer order.
    std::vector<std::uint32_t> outlierPositions; ///< Flat indexes, ascending.
    std::vector<float> outlierValues; ///< FP32 values, same order.

    /** Outliers as a fraction of all weights. */
    double outlierFraction() const;
};

/**
 * Split weights into G group and outliers.
 * @param weights the layer's weights in flat order.
 * @param log_prob_threshold the paper's threshold (default -4).
 */
OutlierSplit splitOutliers(std::span<const float> weights,
                           double log_prob_threshold = -4.0);

} // namespace gobo

#endif // GOBO_CORE_OUTLIERS_HH
