/**
 * @file
 * Layer- and model-level GOBO quantization drivers.
 *
 * quantizeTensor implements the seven-step recipe of Sec. IV-B on one
 * weight matrix; the model drivers apply it across a BertModel (for
 * accuracy experiments, replacing each matrix with its decoded form) or
 * across a full-size configuration layer-by-layer without holding the
 * whole model (for exact compression-ratio accounting at the paper's
 * real checkpoint dimensions).
 */

#ifndef GOBO_CORE_QUANTIZER_HH
#define GOBO_CORE_QUANTIZER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/cluster.hh"
#include "core/qtensor.hh"
#include "model/config.hh"
#include "model/model.hh"
#include "tensor/tensor.hh"

namespace gobo {

/** Per-layer quantization settings. */
struct GoboConfig
{
    unsigned bits = 3;            ///< G-group index width.
    double outlierThreshold = -4.0; ///< Log-probability cut (Sec. IV-A).
    CentroidMethod method = CentroidMethod::Gobo;
    std::size_t maxIterations = 300;
    /**
     * Ablation switch: when false, no outliers are detected and every
     * weight lands in the G group (the configuration the paper reports
     * as "drastically reduced compression or sacrificed accuracy").
     */
    bool detectOutliers = true;
};

/** Measurements taken while quantizing one layer. */
struct LayerQuantStats
{
    double mean = 0.0;            ///< Fitted Gaussian centre.
    double sigma = 0.0;           ///< Fitted Gaussian scale.
    std::size_t weightCount = 0;
    std::size_t outlierCount = 0;
    double outlierFraction = 0.0;
    std::size_t iterations = 0;   ///< Clustering iterations used.
    double finalL1 = 0.0;         ///< G-group L1 at the stop point.
    double finalL2 = 0.0;
};

/** Quantize one weight matrix. Optionally reports per-layer stats. */
QuantizedTensor quantizeTensor(const Tensor &weights,
                               const GoboConfig &config,
                               LayerQuantStats *stats = nullptr);

/**
 * How a compressed-domain engine holds its weight indexes: the B-bit
 * stream stays resident and rows are decoded on the fly. One value,
 * so not a choice; kept for perfbench/engine.cc:330.
 */
enum class WeightFormat
{
    Packed,
};

/** Model-level options: a base config plus per-layer overrides. */
struct ModelQuantOptions
{
    GoboConfig base;
    /**
     * Embedding-table index width; 0 keeps the word embedding FP32.
     * The paper uses 3 or 4 (Table VII, Fig. 4).
     */
    unsigned embeddingBits = 0;
    /**
     * Optional per-layer bit override (mixed-precision policies such as
     * Table VI's "4b Value/Intermediate in the first encoders, 3b
     * elsewhere"). Returns the index width for the given layer; when
     * empty, base.bits applies everywhere.
     */
    std::function<unsigned(FcKind, std::size_t /*encoder*/)> bitsFor;
    /**
     * Worker threads for the model-level drivers; layers are
     * quantized independently, so the result is bit-identical to the
     * single-threaded run. 1 (default) keeps everything on one core,
     * matching the paper's deployment claim.
     */
    std::size_t threads = 1;
    /** Always Packed; kept for perfbench/engine.cc:330. */
    WeightFormat format = WeightFormat::Packed;

    /** Effective width for one layer. */
    unsigned effectiveBits(FcKind kind, std::size_t encoder) const;
};

/** Accounting for one quantized layer inside a model report. */
struct LayerReportEntry
{
    std::string name;
    FcKind kind = FcKind::Query;
    std::size_t encoder = 0;
    std::size_t elements = 0;
    unsigned bits = 0;
    std::size_t payloadBytes = 0;
    LayerQuantStats stats;
};

/** Whole-model compression accounting. */
struct ModelQuantReport
{
    std::vector<LayerReportEntry> layers;
    std::size_t weightOriginalBytes = 0;
    std::size_t weightPayloadBytes = 0;
    std::size_t embeddingOriginalBytes = 0;
    std::size_t embeddingPayloadBytes = 0;

    /** FC weights only (Table IV's "Potential Comp. Ratio" basis). */
    double weightCompressionRatio() const;

    /** Embedding table only (Table VII). */
    double embeddingCompressionRatio() const;

    /** Weights + embeddings together (Table III). */
    double totalCompressionRatio() const;

    /** Mean outlier fraction weighted by layer size. */
    double overallOutlierFraction() const;
};

/**
 * Quantize every FC weight matrix (and optionally the word embedding)
 * of a model in place: each tensor is replaced by its decoded (FP32)
 * reconstruction, exactly what a downstream FP32 engine would consume.
 * Returns the exact storage accounting.
 */
ModelQuantReport quantizeModelInPlace(BertModel &model,
                                      const ModelQuantOptions &options);

/**
 * Accounting-only pass over a full-size configuration: generates each
 * layer's weights from the synthetic distribution for `seed`, quantizes
 * it, accumulates the exact payload size, and discards the data. Runs
 * BERT-Large in seconds without materializing 1.2 GB of parameters.
 */
ModelQuantReport quantizeConfigStreaming(const ModelConfig &config,
                                         std::uint64_t seed,
                                         const ModelQuantOptions &options);

/**
 * Table VI mixed-precision policy: `high_bits` for the Value and
 * Intermediate FCs of the first `sensitive_encoders` encoders,
 * `low_bits` elsewhere.
 */
std::function<unsigned(FcKind, std::size_t)> mixedPolicy(
    std::size_t sensitive_encoders, unsigned low_bits, unsigned high_bits);

} // namespace gobo

#endif // GOBO_CORE_QUANTIZER_HH
