/**
 * @file
 * Parameter store for a BERT-family model.
 *
 * Holds every tensor of the encoder stack in the layout the inference
 * engine consumes, and exposes the flat list of FC weight matrices that
 * the quantizer operates on (the paper quantizes FC weights and the
 * word-embedding table; biases and layer-norm parameters stay FP32 and
 * are excluded from the paper's size accounting).
 */

#ifndef GOBO_MODEL_MODEL_HH
#define GOBO_MODEL_MODEL_HH

#include <cstddef>
#include <string>
#include <vector>

#include "model/config.hh"
#include "tensor/tensor.hh"

namespace gobo {

/** Parameters of one encoder (BERT layer). */
struct EncoderWeights
{
    // Attention component: four FCs plus the post-attention layer norm.
    Tensor queryW, queryB;   ///< [h, h], [h]
    Tensor keyW, keyB;       ///< [h, h], [h]
    Tensor valueW, valueB;   ///< [h, h], [h]
    Tensor attnOutW, attnOutB; ///< [h, h], [h]
    Tensor attnLnGamma, attnLnBeta; ///< [h], [h]

    // Intermediate component: the FFN up-projection.
    Tensor interW, interB;   ///< [i, h], [i]

    // Output component: down-projection plus the output layer norm.
    Tensor outW, outB;       ///< [h, i], [h]
    Tensor outLnGamma, outLnBeta; ///< [h], [h]
};

/** One of an encoder's FC layers: its kind and its weight/bias members. */
struct EncoderFc
{
    FcKind kind;
    Tensor EncoderWeights::*weight;
    Tensor EncoderWeights::*bias;
};

/** FC layer i of a model is encoderFcs[i % 6] of encoder i / 6. */
inline constexpr EncoderFc encoderFcs[] = {
    {FcKind::Query, &EncoderWeights::queryW, &EncoderWeights::queryB},
    {FcKind::Key, &EncoderWeights::keyW, &EncoderWeights::keyB},
    {FcKind::Value, &EncoderWeights::valueW, &EncoderWeights::valueB},
    {FcKind::AttnOutput, &EncoderWeights::attnOutW,
     &EncoderWeights::attnOutB},
    {FcKind::Intermediate, &EncoderWeights::interW,
     &EncoderWeights::interB},
    {FcKind::Output, &EncoderWeights::outW, &EncoderWeights::outB},
};

/** Dims of a parameter; cols == 0 marks a vector of `rows`. */
struct ParamShape
{
    std::size_t rows = 0;
    std::size_t cols = 0;

    static ParamShape of(const Tensor &t);

    bool operator==(const ParamShape &) const = default;
};

/** Fatal shape mismatch naming parameter `name` unless got == want. */
void checkParamShape(const std::string &name, ParamShape want,
                     ParamShape got);

/** A parameter tensor and the dims BertModel(cfg) gives it. */
template <typename T>
struct BasicParamRef
{
    std::string name;  ///< e.g. "encoder3.value.bias".
    T *tensor;
    ParamShape shape;  ///< The dims the configuration defines.
    bool fcWeight;     ///< One of the fcLayers() weight matrices.
};

using ParamRef = BasicParamRef<Tensor>;
using ConstParamRef = BasicParamRef<const Tensor>;

/**
 * Reference to one FC weight matrix inside a model, carrying the
 * metadata the quantization policies and the per-layer census need.
 */
template <typename T>
struct BasicFcLayerRef
{
    std::string name;       ///< e.g. "encoder3.value".
    FcKind kind;            ///< Component kind.
    std::size_t encoder;    ///< Encoder index; numLayers for the pooler.
    T *weight;              ///< The [out, in] weight matrix.
};

using FcLayerRef = BasicFcLayerRef<Tensor>;
using ConstFcLayerRef = BasicFcLayerRef<const Tensor>;

/**
 * A complete model: embeddings, encoder stack, pooler, and a task head.
 * The head shape depends on the task (3 classes for MNLI-like, 1 output
 * for STS-B-like, 2 outputs per token for SQuAD-like).
 */
class BertModel
{
  public:
    /** Allocate all tensors (zero-filled) for the given configuration. */
    explicit BertModel(ModelConfig config);

    /**
     * A model for a loader to fill: every tensor is empty but a zero
     * `headRows`-output head; parameters() gives the dims each needs.
     */
    static BertModel forLoading(ModelConfig config, std::size_t headRows);

    const ModelConfig &config() const { return cfg; }

    Tensor wordEmbedding;   ///< [vocab, h]
    Tensor positionEmbedding; ///< [maxPosition, h]
    Tensor embLnGamma, embLnBeta; ///< [h], [h]

    std::vector<EncoderWeights> encoders;

    Tensor poolerW, poolerB; ///< [h, h], [h]

    Tensor headW, headB;     ///< [outputs, h], [outputs]

    /**
     * Enumerate all FC weight matrices in the paper's layer order:
     * encoder 0 (query, key, value, attn_output, intermediate, output),
     * encoder 1, ..., pooler. This is the x-axis of Fig. 3.
     */
    std::vector<FcLayerRef> fcLayers();
    std::vector<ConstFcLayerRef> fcLayers() const;

    /**
     * Enumerate every parameter tensor in the GOBM file order:
     * embeddings, then per encoder each FC weight right before its
     * bias and the two layer norms after their components, then the
     * pooler and the head (its rows taken from headW).
     */
    std::vector<ParamRef> parameters();
    std::vector<ConstParamRef> parameters() const;

    /** Resize the task head to `outputs` rows. */
    void resizeHead(std::size_t outputs);

    /** Total FP32 parameter count held by this object. */
    std::size_t parameterCount() const;

  private:
    BertModel(ModelConfig config, std::size_t headRows);

    ModelConfig cfg;
};

} // namespace gobo

#endif // GOBO_MODEL_MODEL_HH
