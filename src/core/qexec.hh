/**
 * @file
 * Direct execution from the GOBO format — the compute scheme of the
 * paper's hardware architecture, in software.
 *
 * Because 99.9% of a layer's weights take one of only 2^B values, an
 * FC output needs almost no multiplications:
 *
 *   y_o = sum_i w_oi x_i
 *       = sum_k c_k * (sum_{i: idx_oi = k} x_i)  +  outlier corrections
 *
 * i.e. per output, accumulate the activations into 2^B buckets
 * (additions only, steered by the 3-bit indexes), then do 2^B
 * multiplies by the centroid table. Outliers contribute one extra
 * correction MAC each: (w - c_assigned) * x. The GOBO accelerator
 * builds exactly this datapath; QuantizedLinear reproduces its
 * arithmetic (bit-identical outputs up to FP reassociation) and counts
 * the operations so the multiplier-reduction claim can be measured.
 */

#ifndef GOBO_CORE_QEXEC_HH
#define GOBO_CORE_QEXEC_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/quantizer.hh"
#include "exec/context.hh"
#include "kernels/kernels.hh"
#include "model/model.hh"
#include "tensor/tensor.hh"

namespace gobo {

/** Operation counts for one forward pass. */
struct OpCounts
{
    std::size_t additions = 0;
    std::size_t multiplications = 0;

    OpCounts &
    operator+=(const OpCounts &o)
    {
        additions += o.additions;
        multiplications += o.multiplications;
        return *this;
    }
};

/**
 * An FC layer executed directly from its compressed representation:
 * y = x * W^T + bias with W held as (indexes, centroid table,
 * outliers) — never decoded to FP32.
 *
 * The index stream can be held in either WeightFormat: Unpacked widens
 * every index to one byte at construction (decode-free access, ~8/B
 * times the container bytes resident); Packed keeps only the B-bit
 * stream resident and decodes one output row at a time through the
 * executing tier's KernelSet::decodePackedRow — the generic decoder
 * uses a per-byte LUT (B dividing 8), a per-3-byte-group extraction
 * (B = 3), or a scalar two-byte window (B = 5..7); the avx512 tier
 * expands 64 indexes at a time in-register for B <= 6. Decode is
 * integer-exact, so every tier produces identical bytes, and both
 * formats feed the identical bucket/table/correction arithmetic —
 * outputs are bit-identical across formats and tiers.
 */
class QuantizedLinear
{
  public:
    /**
     * Take ownership of the compressed weights and FP32 bias. `label`
     * names this layer in trace spans and has no effect on compute
     * ("enc[e].query" etc. when built by QuantizedBertModel).
     */
    QuantizedLinear(QuantizedTensor weights, Tensor bias,
                    WeightFormat format = WeightFormat::Unpacked,
                    std::string label = "qlinear");

    /**
     * Forward pass via sequence-tiled per-centroid accumulation: the
     * activations are transposed once into seqTile-lane tiles (the
     * executing tier's width — 8 for generic/avx2, 16 for avx512),
     * each weight row is decoded once, and the bucket/table/correction
     * phases run vertically across the lanes through the context's
     * kernel tier. x is [seq, in]. Parallelizes over a 2-D
     * output-row-block × sequence-tile-block grid on the context's
     * backend, with per-worker scratch arenas (exec/scratch.hh)
     * holding the bucket accumulators and decoded packed rows — the
     * hot path never allocates, and a worker that owns several tile
     * blocks of one row block decodes that block once. Every y(s, o)
     * is produced by exactly one grid cell and keeps the serial
     * bucket/table/correction order (per lane, in double), so weight
     * formats, kernel tiers AND thread counts are all
     * bit-identical here. When `counts` is non-null the operations
     * actually performed are accumulated into it (each task counts
     * locally, tasks are summed in index order).
     *
     * With an observer on the context, each call records one span
     * (named by `label`) plus qexec.* counters: rows decoded, weight
     * bytes streamed, outlier corrections applied, which decode
     * path ran (decode.lut / decode.group24 / decode.scalar /
     * decode.unpacked), and per-layer decoded-row cache hits/misses
     * (qexec.layer.<label>.decode_cache_hits/_misses — how the
     * pooler's cross-forward cache residency shows up in metrics).
     * Instrumentation happens outside the kernel loops and never
     * touches float math.
     */
    Tensor forward(const ExecContext &ctx, const Tensor &x,
                   OpCounts *counts = nullptr) const;
    Tensor forward(const Tensor &x) const;

    /** Operations a forward pass at this sequence length performs. */
    OpCounts opCounts(std::size_t seq) const;

    /** Operations the FP32 dense equivalent performs. */
    OpCounts denseOpCounts(std::size_t seq) const;

    /** Output features. */
    std::size_t outFeatures() const { return weights.rows; }

    /** Input features. */
    std::size_t inFeatures() const { return weights.cols; }

    /** The compressed weights (for storage accounting). */
    const QuantizedTensor &compressed() const { return weights; }

    /** How the index stream is held at runtime. */
    WeightFormat format() const { return fmt; }

    /** Trace-span name for this layer. */
    const std::string &spanLabel() const { return label; }

    /**
     * Bytes of weight state the forward pass actually streams: the
     * index store in its runtime format plus the centroid table and
     * outlier pairs (bias excluded, matching the paper's FC-weights
     * accounting).
     */
    std::size_t residentBytes() const;

  private:
    /** Decode row `row`'s `cols` indexes from the packed stream via
     * tier `kn`'s decoder (any tier yields identical bytes). */
    void decodeRow(const KernelSet &kn, std::size_t row,
                   std::uint8_t *out) const;

    QuantizedTensor weights;
    Tensor bias;
    WeightFormat fmt;
    std::string label;
    /** Process-unique tag for this layer's rows in the scratch-arena
     * decode cache (exec/scratch.hh); never a pointer, so a layer
     * reusing a freed layer's address cannot alias its cache. */
    std::uint64_t scratchId;
    /** Unpacked per-weight centroid indexes, row-major (Unpacked only). */
    std::vector<std::uint8_t> indexes;
    /**
     * One (column, correction) pair per outlier, grouped by row, in
     * the kernel layer's layout (kernels/kernels.hh) so phase 3 can
     * hand a row's slice straight to the outlier-correction kernel.
     */
    std::vector<OutlierTerm> outliers;
    std::vector<std::uint32_t> outlierRowStart; ///< rows+1 offsets.
};

/**
 * A whole model executing its FC layers from the compressed format.
 * Embeddings/biases/norms stay FP32 (as in the paper); the forward
 * pass mirrors nn/encoder exactly, so predictions match a decoded
 * model up to FP reassociation. All FC layers share one WeightFormat
 * (options.format); Packed and Unpacked models are bit-identical.
 */
class QuantizedBertModel
{
  public:
    /**
     * Quantize `model` per `options` into an executable form. The
     * source model is not modified.
     */
    QuantizedBertModel(const BertModel &model,
                       const ModelQuantOptions &options);

    /** Full encoder stack; mirrors gobo::encodeSequence. */
    Tensor encode(const ExecContext &ctx,
                  std::span<const std::int32_t> token_ids) const;
    Tensor encode(std::span<const std::int32_t> token_ids) const;

    /** Pooler + head logits; mirrors pool() + headLogits(). */
    Tensor classify(const ExecContext &ctx,
                    std::span<const std::int32_t> token_ids) const;
    Tensor classify(std::span<const std::int32_t> token_ids) const;

    /** Total operations for one sequence. */
    OpCounts opCounts(std::size_t seq) const;

    /** Dense-FP32 operations for the same sequence. */
    OpCounts denseOpCounts(std::size_t seq) const;

    /** Compressed bytes of all FC weights. */
    std::size_t compressedWeightBytes() const;

    /** Sum of QuantizedLinear::residentBytes over all FC layers. */
    std::size_t residentWeightBytes() const;

    /**
     * Visit every FC layer in BertModel::fcLayers() order — encoder 0
     * (query, key, value, attnOut, inter, out), encoder 1, ...,
     * pooler — so audits can zip the quantized layers with the FP32
     * originals.
     */
    void forEachLayer(
        const std::function<void(const QuantizedLinear &)> &fn) const;

    /** The runtime index format every FC layer uses. */
    WeightFormat format() const { return fmt; }

    const ModelConfig &config() const { return cfg; }

  private:
    struct EncoderLayers
    {
        QuantizedLinear query, key, value, attnOut, inter, out;
        Tensor attnLnGamma, attnLnBeta, outLnGamma, outLnBeta;
    };

    ModelConfig cfg;
    WeightFormat fmt;
    Tensor wordEmbedding, positionEmbedding, embLnGamma, embLnBeta;
    std::vector<EncoderLayers> encoders;
    QuantizedLinear pooler;
    Tensor headW, headB;
};

} // namespace gobo

#endif // GOBO_CORE_QEXEC_HH
