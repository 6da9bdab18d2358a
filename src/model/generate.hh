/**
 * @file
 * Synthetic weight generation calibrated to the paper's observations.
 *
 * The paper's premise (Sec. II-A, Figs. 1b/1c/3) is that every FC layer
 * of every BERT-family model is "some Gaussian plus very few outliers":
 * per layer, weights follow N(mu_l, sigma_l) with distribution
 * parameters that vary across layers, and a tiny population (~0.05-0.4%
 * per layer, up to ~1% in the last layer) sits far outside that
 * Gaussian. Since the pre-trained checkpoints are not available in this
 * offline environment, we generate weights from exactly that family:
 *
 *  - sigma_l depends on the component kind and encoder depth, with a
 *    deterministic per-layer jitter, spanning the ~0.02-0.07 range the
 *    paper's Fig. 1b histograms show;
 *  - outliers are injected at |z| in [outlierMinZ, outlierMaxZ] with
 *    random sign, at a per-kind rate that reproduces the Fig. 3 census
 *    under the paper's log-probability threshold of -4;
 *  - layers the paper identifies as quantization-sensitive (the Value
 *    and Intermediate FCs of the first half of RoBERTa encoders,
 *    Table VI) draw a fraction of their G-group weights from a wider
 *    scale-mixture component, giving them the heavier-tailed, less
 *    Gaussian shape that makes 3-bit clustering lossier there.
 *
 * In addition, generated models carry the *hot-channel* structure of
 * trained transformers: a fixed quarter of the hidden dimensions (the
 * model's hot channels, chosen from the seed) host the rare huge
 * embedding values, so after layer normalization those channels carry
 * most of the residual stream's energy (the well-documented
 * outlier-activation phenomenon). Trained networks balance |w|*|x|
 * across channels, so the FC weight columns reading those
 * high-activation channels are drawn narrower (about half sigma) and
 * hold no far tail, while the cold columns carry the mild heavy-tail
 * mass. This balance is what makes a quantizer's *bulk* resolution —
 * the thing GOBO's L1 monitoring optimizes — the task-relevant
 * quantity during inference.
 *
 * Everything is deterministic in (config, seed): a layer's contents
 * depend only on its own derived stream, never on generation order.
 */

#ifndef GOBO_MODEL_GENERATE_HH
#define GOBO_MODEL_GENERATE_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/config.hh"
#include "model/model.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"

namespace gobo {

/** Shape of one layer's weight distribution. */
struct LayerDistribution
{
    double mean = 0.0;            ///< Gaussian centre.
    double sigma = 0.04;          ///< Gaussian scale.
    double outlierFraction = 0.001; ///< Injected far-tail fraction.
    double outlierMinZ = 4.5;     ///< Outlier magnitude lower bound (in sigma).
    double outlierMaxZ = 12.0;    ///< Outlier magnitude upper bound.
    /**
     * Heavier-than-Gaussian "shoulder": a fraction of cold-column
     * weights drawn uniformly at |z| in [heavyLoZ, heavyHiZ]. The
     * shoulder sits inside the G range (below the outlier cut), so it
     * shapes the clustering problem without inflating the outlier
     * census.
     */
    double heavyFraction = 0.0;
    double heavyLoZ = 1.6;        ///< Shoulder lower bound (in sigma).
    double heavyHiZ = 3.1;        ///< Shoulder upper bound (in sigma).
    double hotSigmaScale = 1.0;   ///< Scale of weights on hot columns.
};

/** Static description of one FC weight matrix (no data). */
struct FcLayerSpec
{
    std::string name;
    FcKind kind = FcKind::Query;
    std::size_t encoder = 0;
    std::size_t rows = 0;
    std::size_t cols = 0;
};

/** Enumerate the FC weight matrices of a configuration, paper order. */
std::vector<FcLayerSpec> fcLayerSpecs(const ModelConfig &config);

/**
 * Distribution for one FC layer of one model family. Deterministic
 * (hash-jittered) in its arguments.
 */
LayerDistribution layerDistribution(const ModelConfig &config, FcKind kind,
                                    std::size_t encoder);

/** Distribution used for a family's word-embedding table. */
LayerDistribution embeddingDistribution(const ModelConfig &config);

/**
 * The model's hot channels: the fixed quarter of hidden dimensions
 * that carry the residual stream's outsized activations. Deterministic
 * in (config, seed); returned as a 0/1 mask of length hidden.
 */
std::vector<std::uint8_t> hotChannelMask(const ModelConfig &config,
                                         std::uint64_t seed);

/**
 * Hot channels of the FFN inner (intermediate) space: the units whose
 * bias spikes make them fire large for every token, the FFN
 * counterpart of the residual-stream hot channels. 0/1 mask of length
 * intermediate.
 */
std::vector<std::uint8_t> hotInnerMask(const ModelConfig &config,
                                       std::uint64_t seed);

/** Fill a tensor with iid draws from the given layer distribution. */
void fillWeights(Tensor &w, const LayerDistribution &dist, Rng &rng);

/**
 * Fill an FC weight matrix whose input is the residual stream:
 * columns flagged hot draw from the narrow, tail-free component
 * (dist.hotSigmaScale * sigma); cold columns draw from the usual
 * Gaussian + heavy-tail + outlier mixture. hot_mask length must equal
 * the column count.
 */
void fillFcWeights(Tensor &w, const LayerDistribution &dist,
                   std::span<const std::uint8_t> hot_mask, Rng &rng);

/**
 * Generate one FC weight matrix of a model at full or mini scale
 * without materializing the rest of the model. The layer's stream is
 * derived from (seed, layer index) so the result matches the same layer
 * inside generateModel(config, seed).
 */
Tensor generateFcWeight(const ModelConfig &config, const FcLayerSpec &spec,
                        std::uint64_t seed);

/** Generate the word-embedding table for a configuration. */
Tensor generateWordEmbedding(const ModelConfig &config, std::uint64_t seed);

/**
 * Generate a complete model (embeddings, encoders, pooler, head).
 * Biases and layer-norm parameters get small benign values. The
 * one-output task head is a small Gaussian from its own stream; task
 * setups resize and refill it.
 */
BertModel generateModel(const ModelConfig &config, std::uint64_t seed);

} // namespace gobo

#endif // GOBO_MODEL_GENERATE_HH
