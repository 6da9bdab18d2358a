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
 * builds exactly this datapath, and opCounts() counts its operations
 * so the multiplier-reduction claim can be measured.
 *
 * A CPU has no per-bucket accumulators, so QuantizedLinear computes
 * the same sum the other way round: KernelSet::lutDot reads the packed
 * index stream, looks each weight's centroid up in registers and
 * multiplies it into fp32 partial sums; bias and outlier corrections
 * are then added in double. The two orders agree up to FP
 * reassociation.
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
#include "nn/encoder.hh"
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
 * Only the B-bit index stream stays resident, and nothing widens it
 * in memory: the executing tier's KernelSet::lutDot reads it directly
 * and expands each 16-index group in registers (kernels/kernels.hh).
 * Expansion is integer-exact and lutDot has one numeric contract, so
 * outputs are bit-identical across tiers.
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
                    std::string label = "qlinear");

    /**
     * Forward pass straight from the compressed form: x is [seq, in].
     * Parallelizes over a 2-D output-row-block × token-block grid on
     * the context's threads. Each task runs its rows, 8 at a time,
     * through the context tier's lutDot on the packed stream against
     * up to seqTile tokens at a time, then writes y(s, o) =
     * float(double(bias) + double(sum) + each outlier correction in
     * row order). Nothing but the output is allocated. Every y(s, o)
     * is computed on its own by exactly one grid cell under one
     * numeric contract (DESIGN.md §11), so kernel tiers AND thread
     * counts are bit-identical here.
     *
     * With an observer on the context, each call records one span
     * (named by `label`) plus qexec.* counters, global and per layer:
     * forwards, packed rows read (qexec.rows_decoded), weight bytes
     * streamed and outlier corrections applied. Instrumentation
     * happens outside the kernel loops and never touches float math.
     */
    Tensor forward(const ExecContext &ctx, const Tensor &x) const;
    Tensor forward(const Tensor &x) const;

    /**
     * Operations the paper's accumulate-then-multiply datapath performs
     * at this sequence length (bucket adds, one multiply per centroid,
     * one MAC per outlier): GOBO's hardware model, which memsim and
     * `gobo audit` report. It is not what lutDot executes on a CPU,
     * which is one fused multiply-add per weight and token (the
     * multiplies and adds denseOpCounts counts).
     */
    OpCounts opCounts(std::size_t seq) const;

    /** Operations the FP32 dense equivalent performs. */
    OpCounts denseOpCounts(std::size_t seq) const;

    /** The compressed weights (for storage accounting). */
    const QuantizedTensor &compressed() const { return weights; }

    /** Trace-span name for this layer. */
    const std::string &spanLabel() const { return label; }

    /**
     * Bytes of weight state the forward pass actually streams: the
     * packed index stream plus the centroid table and outlier pairs
     * (bias excluded, matching the paper's FC-weights accounting).
     */
    std::size_t residentBytes() const;

  private:
    /**
     * One outlier's contribution to its row: the weight sits at
     * `column`, and `correction` is w - centroid[assigned index].
     */
    struct OutlierTerm
    {
        std::uint32_t column;
        float correction;
    };

    QuantizedTensor weights;
    Tensor bias;
    std::string label;
    /** One (column, correction) pair per outlier, grouped by row. */
    std::vector<OutlierTerm> outliers;
    std::vector<std::uint32_t> outlierRowStart; ///< rows+1 offsets.
};

/**
 * A model as the GOBC container stores it: the FP32-resident
 * parameters (embeddings, layer norms, biases, head) in a BertModel
 * whose FC weight matrices are empty, plus the FC layers' quantized
 * records in BertModel::fcLayers() order.
 */
struct PackedModel
{
    BertModel fp32;
    std::vector<QuantizedTensor> fc;
};

/**
 * A whole model executing its FC layers from the compressed format:
 * the FP32-resident parameters plus one QuantizedLinear per FC layer.
 * Embeddings, biases and norms stay FP32 (as in the paper); encode and
 * classify run nn/encoder's forward with QuantizedLinear::forward as
 * the FC step, so predictions match a decoded model up to FP
 * reassociation in the FC outputs alone.
 */
class QuantizedBertModel
{
  public:
    /**
     * Quantize `model` per `options` into an executable form. The
     * source model is not modified. A quantized word embedding is
     * served decoded to FP32.
     */
    QuantizedBertModel(const BertModel &model,
                       const ModelQuantOptions &options);

    /**
     * Assemble from stored parts, with no quantize step (the direct
     * GOBC load). Fatal unless there is one record per FC layer and
     * each has its layer's shape.
     */
    explicit QuantizedBertModel(PackedModel parts);

    /** Hidden states [seq, hidden]: gobo::encodeSequence with fcStep(). */
    Tensor encode(const ExecContext &ctx,
                  std::span<const std::int32_t> token_ids) const;
    Tensor encode(std::span<const std::int32_t> token_ids) const;

    /** Head logits [outputs]: gobo::classify with fcStep(). */
    Tensor classify(const ExecContext &ctx,
                    std::span<const std::int32_t> token_ids) const;
    Tensor classify(std::span<const std::int32_t> token_ids) const;

    /**
     * The packed engine's FC step: FC layer i runs its
     * QuantizedLinear::forward. It refers to this model, so it must
     * not outlive it.
     */
    FcStep fcStep() const;

    /** The FP32-resident parameters; FC weight matrices are empty. */
    const BertModel &fp32Parameters() const { return fp32; }

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

    const ModelConfig &config() const { return fp32.config(); }

  private:
    BertModel fp32;
    std::vector<QuantizedLinear> fc;
};

} // namespace gobo

#endif // GOBO_CORE_QEXEC_HH
