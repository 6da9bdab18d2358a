#include "core/qexec.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "kernels/kernels.hh"
#include "model/footprint.hh"
#include "obs/observer.hh"
#include "util/logging.hh"

namespace gobo {

QuantizedLinear::QuantizedLinear(QuantizedTensor w, Tensor b,
                                 std::string name)
    : weights(std::move(w)), bias(std::move(b)), label(std::move(name))
{
    weights.check();
    fatalIf(bias.size() != weights.rows, "QuantizedLinear bias size ",
            bias.size(), " != out features ", weights.rows);

    // Group outlier corrections by row. The index slot under an
    // outlier still contributes its centroid through lutDot, so the
    // correction is the difference, not the raw value.
    outlierRowStart.assign(weights.rows + 1, 0);
    outliers.reserve(weights.outlierPositions.size());
    for (std::size_t o = 0; o < weights.outlierPositions.size(); ++o) {
        std::uint32_t pos = weights.outlierPositions[o];
        std::uint32_t row = pos / static_cast<std::uint32_t>(weights.cols);
        std::uint32_t col = pos % static_cast<std::uint32_t>(weights.cols);
        float correction = weights.outlierValues[o]
                           - weights.centroids[weights.indexAt(pos)];
        outliers.push_back({col, correction});
        ++outlierRowStart[row + 1];
    }
    for (std::size_t r = 0; r < weights.rows; ++r)
        outlierRowStart[r + 1] += outlierRowStart[r];
}

Tensor
QuantizedLinear::forward(const ExecContext &ctx, const Tensor &x) const
{
    fatalIf(x.rank() != 2 || x.cols() != weights.cols,
            "QuantizedLinear input shape mismatch: got ", x.rows(), "x",
            x.cols(), ", want cols ", weights.cols);

    std::size_t seq = x.rows(), in = weights.cols, out = weights.rows;
    std::size_t k = weights.centroids.size();
    Tensor y(seq, out);

    // Observability: one span per forward plus flat counters, all
    // recorded outside the kernel loops (the totals are closed-form).
    ScopedSpan span(ctx.obs, label);
    if (Observer *obs = ctx.obs) {
        obs->metrics.add(obs->qexecForwards);
        obs->metrics.add(obs->qexecBytesStreamed, residentBytes());
        obs->metrics.add(obs->qexecOutlierCorrections,
                         seq * outliers.size());
        obs->metrics.add(obs->qexecRowsDecoded, out);

        // Per-layer mirrors of the traffic counters, keyed by the span
        // label — the measured inputs of memsim's per-layer energy
        // attribution (obs/audit.hh).
        const Observer::QexecLayerIds &lids = obs->layerIds(label);
        obs->metrics.add(lids.forwards);
        obs->metrics.add(lids.bytesStreamed, residentBytes());
        obs->metrics.add(lids.outlierCorrections,
                         seq * outliers.size());
        obs->metrics.add(lids.rowsDecoded, out);
    }

    // Token-blocked execution: each lutDot call reads a chunk of
    // weight rows straight from the packed index stream and runs them
    // against up to seqTile untransposed activation rows (the
    // executing tier's token block per call, 8 for generic/avx2 and 16
    // for avx512); the tier register-blocks the call internally.
    // Every y(s, o) follows the lutDot contract (kernels/kernels.hh)
    // and then adds the bias and the row's outlier corrections in
    // double, in row order, so the result does not depend on the tier,
    // the block a token lands in, or the thread that computes it.
    const KernelSet &kn = resolveKernels(ctx.kernels);
    const std::size_t tile_w = kn.seqTile;
    fatalIf(tile_w == 0 || tile_w > kMaxSeqTile, "kernel tier '",
            kn.name, "' has invalid seqTile ", tile_w);
    std::size_t tile_units = (seq + tile_w - 1) / tile_w;

    // 2-D output-row × token-block partitioning. Row blocks split the
    // output dimension first (each row's indexes are read once per
    // token block); when there are too few rows to feed every thread
    // — small layers, or a deep sweep at high thread counts — the
    // token-block dimension splits too, so the grid always carries
    // roughly threads*4 stealable tasks. Every y(s, o) belongs to
    // exactly one (row block, token block) cell and is computed
    // independently of the others, so the partition — and the thread
    // count — cannot change a bit of the output. Nothing on this path
    // allocates but the output.
    std::size_t target = ctx.isParallel() ? ctx.threads * 4 : 1;
    std::size_t rblocks = std::min(out, target);
    std::size_t tblocks = 1;
    if (rblocks < target && tile_units > 1)
        tblocks =
            std::min(tile_units, (target + rblocks - 1) / rblocks);
    std::size_t n_tasks = rblocks * tblocks;
    std::size_t rblock = (out + rblocks - 1) / rblocks;
    std::size_t tblock = (tile_units + tblocks - 1) / tblocks;
    // Grain hint: one multiply and one add per weight per token, split
    // evenly across the grid.
    std::size_t task_cost = 2 * seq * in * out / n_tasks + 1;

    const std::uint8_t *packed = weights.packedIndexes.data();
    const std::size_t packed_len = weights.packedIndexes.size();
    const std::size_t row_bits = in * weights.bits;
    ctx.parallelFor(n_tasks, task_cost, [&](std::size_t task) {
        std::size_t rb = task / tblocks, tb = task % tblocks;
        std::size_t o0 = rb * rblock;
        std::size_t o1 = std::min(o0 + rblock, out);
        std::size_t s0 = tb * tblock * tile_w;
        std::size_t s1 = std::min(s0 + tblock * tile_w, seq);
        if (o0 >= o1 || s0 >= s1)
            return;
        // Token blocks outer, rows inner: one block's activation rows
        // stay cache-resident while the row block streams past them,
        // kRowChunk rows per kernel call.
        constexpr std::size_t kRowChunk = 8;
        float sums[kRowChunk * kMaxSeqTile];
        for (std::size_t b0 = s0; b0 < s1; b0 += tile_w) {
            std::size_t n = std::min(tile_w, s1 - b0);
            const float *xb = x.row(b0).data();
            for (std::size_t c0 = o0; c0 < o1; c0 += kRowChunk) {
                std::size_t nr = std::min(kRowChunk, o1 - c0);
                kn.lutDot(packed, packed_len, c0 * row_bits, weights.bits,
                          nr, in, weights.centroids.data(), k, xb, in, n,
                          sums);
                // y(s, o) = float(double(bias) + double(sum) + each
                // correction in row order), written one token row at
                // a time.
                for (std::size_t l = 0; l < n; ++l) {
                    const float *xl = xb + l * in;
                    float *yl = y.row(b0 + l).data() + c0;
                    for (std::size_t r = 0; r < nr; ++r) {
                        std::size_t o = c0 + r;
                        double a = static_cast<double>(bias(o))
                                   + static_cast<double>(sums[r * n + l]);
                        for (std::size_t t = outlierRowStart[o];
                             t < outlierRowStart[o + 1]; ++t)
                            a += static_cast<double>(outliers[t].correction)
                                 * static_cast<double>(
                                     xl[outliers[t].column]);
                        yl[r] = static_cast<float>(a);
                    }
                }
            }
        }
    });
    return y;
}

Tensor
QuantizedLinear::forward(const Tensor &x) const
{
    return forward(ExecContext::serial(), x);
}

OpCounts
QuantizedLinear::opCounts(std::size_t seq) const
{
    OpCounts ops;
    std::size_t per_out = weights.cols // bucket accumulation
                          + weights.centroids.size(); // table sums
    ops.additions = seq * (weights.rows * per_out + outliers.size());
    ops.multiplications = seq * (weights.rows * weights.centroids.size()
                                 + outliers.size());
    return ops;
}

OpCounts
QuantizedLinear::denseOpCounts(std::size_t seq) const
{
    OpCounts ops;
    ops.additions = seq * weights.rows * weights.cols;
    ops.multiplications = seq * weights.rows * weights.cols;
    return ops;
}

std::size_t
QuantizedLinear::residentBytes() const
{
    return packedResidentBytes(weights.elementCount(), weights.bits,
                               weights.centroids.size(), outliers.size());
}

namespace {

/** Trace label of FC layer `layer` of `n_fc`: "enc[e].query", "pooler". */
std::string
layerLabel(std::size_t layer, std::size_t n_fc)
{
    if (layer + 1 == n_fc)
        return fcKindName(FcKind::Pooler);
    return "enc[" + std::to_string(layer / std::size(encoderFcs)) + "]."
           + fcKindName(encoderFcs[layer % std::size(encoderFcs)].kind);
}

/**
 * Quantize `model` into packed FC records plus a copy of its other
 * parameters. Nothing FC-sized is copied, and a quantized word
 * embedding is served decoded in place of the FP32 one.
 */
PackedModel
quantizeParts(const BertModel &model, const ModelQuantOptions &options)
{
    const std::size_t n_fc = model.config().numFcLayers();
    const bool decoded_embedding = options.embeddingBits > 0;
    PackedModel parts{
        BertModel::forLoading(model.config(), model.headW.rows()), {}};
    parts.fc.resize(n_fc + decoded_embedding);
    quantizeModel(model, options,
                  [&](std::size_t i, QuantizedTensor t,
                      const LayerQuantStats &) { parts.fc[i] = std::move(t); });
    if (decoded_embedding) {
        parts.fp32.wordEmbedding = parts.fc.back().dequantize();
        parts.fc.pop_back();
    }
    auto src = model.parameters();
    auto dst = parts.fp32.parameters();
    for (std::size_t p = 0; p < src.size(); ++p)
        if (!src[p].fcWeight
            && !(decoded_embedding && src[p].tensor == &model.wordEmbedding))
            *dst[p].tensor = *src[p].tensor;
    return parts;
}

} // namespace

QuantizedBertModel::QuantizedBertModel(const BertModel &model,
                                       const ModelQuantOptions &options)
    : QuantizedBertModel(quantizeParts(model, options))
{
}

QuantizedBertModel::QuantizedBertModel(PackedModel parts)
    : fp32(std::move(parts.fp32))
{
    const std::size_t n_fc = config().numFcLayers();
    fatalIf(parts.fc.size() != n_fc, "packed model has ", parts.fc.size(),
            " FC records, config needs ", n_fc);
    fc.reserve(n_fc);
    // parameters() lists each FC weight matrix right before its bias.
    auto params = fp32.parameters();
    for (std::size_t p = 0; p < params.size(); ++p) {
        if (!params[p].fcWeight)
            continue;
        QuantizedTensor &q = parts.fc[fc.size()];
        checkParamShape(params[p].name, params[p].shape, {q.rows, q.cols});
        // The layer takes the bias; like the weight, it is then
        // empty in fp32, which only the FP32 FC step reads.
        fc.emplace_back(std::move(q),
                        std::exchange(*params[p + 1].tensor, Tensor()),
                        layerLabel(fc.size(), n_fc));
    }
}

FcStep
QuantizedBertModel::fcStep() const
{
    return [this](const ExecContext &ctx, std::size_t layer,
                  const Tensor &x) { return fc[layer].forward(ctx, x); };
}

Tensor
QuantizedBertModel::encode(const ExecContext &ctx,
                           std::span<const std::int32_t> token_ids) const
{
    return encodeSequence(ctx, fp32, token_ids, fcStep());
}

Tensor
QuantizedBertModel::encode(std::span<const std::int32_t> token_ids) const
{
    return encode(ExecContext::serial(), token_ids);
}

Tensor
QuantizedBertModel::classify(const ExecContext &ctx,
                             std::span<const std::int32_t> token_ids) const
{
    return gobo::classify(ctx, fp32, token_ids, fcStep());
}

Tensor
QuantizedBertModel::classify(std::span<const std::int32_t> token_ids) const
{
    return classify(ExecContext::serial(), token_ids);
}

OpCounts
QuantizedBertModel::opCounts(std::size_t seq) const
{
    // The pooler sees one token (the first), every other layer `seq`.
    OpCounts total = fc.back().opCounts(1);
    for (std::size_t i = 0; i + 1 < fc.size(); ++i)
        total += fc[i].opCounts(seq);
    return total;
}

OpCounts
QuantizedBertModel::denseOpCounts(std::size_t seq) const
{
    OpCounts total = fc.back().denseOpCounts(1);
    for (std::size_t i = 0; i + 1 < fc.size(); ++i)
        total += fc[i].denseOpCounts(seq);
    return total;
}

std::size_t
QuantizedBertModel::compressedWeightBytes() const
{
    std::size_t bytes = 0;
    for (const auto &layer : fc)
        bytes += layer.compressed().payloadBytes();
    return bytes;
}

void
QuantizedBertModel::forEachLayer(
    const std::function<void(const QuantizedLinear &)> &fn) const
{
    for (const auto &layer : fc)
        fn(layer);
}

std::size_t
QuantizedBertModel::residentWeightBytes() const
{
    std::size_t bytes = 0;
    for (const auto &layer : fc)
        bytes += layer.residentBytes();
    return bytes;
}

} // namespace gobo
