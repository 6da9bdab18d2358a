#include "core/qexec.hh"

#include <algorithm>
#include <cmath>

#include "exec/scratch.hh"
#include "kernels/kernels.hh"
#include "model/footprint.hh"
#include "nn/encoder.hh"
#include "obs/observer.hh"
#include "obs/probe.hh"
#include "tensor/ops.hh"
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

    // Token-blocked execution: each lutDot call runs a chunk of weight
    // rows against up to seqTile tokens (the executing tier's token
    // block per call, 8 for generic/avx2 and 16 for avx512), straight
    // off the untransposed activation rows; the tier register-blocks
    // the call internally. Every y(s, o) follows the lutDot
    // contract (kernels/kernels.hh) and then adds the bias and the
    // row's outlier corrections in double, in row order, so the
    // result does not depend on the tier, the block a token lands in,
    // or the thread that computes it.
    const KernelSet &kn = resolveKernels(ctx.kernels);
    const std::size_t tile_w = kn.seqTile;
    fatalIf(tile_w == 0 || tile_w > kMaxSeqTile, "kernel tier '",
            kn.name, "' has invalid seqTile ", tile_w);
    std::size_t tile_units = (seq + tile_w - 1) / tile_w;

    // 2-D output-row × token-block partitioning. Row blocks split the
    // output dimension first (each keeps the row-outer decode
    // amortization); when there are too few rows to feed every thread
    // — small layers, or a deep sweep at high thread counts — the
    // token-block dimension splits too, so the grid always carries
    // roughly threads*4 stealable tasks. Every y(s, o) belongs to
    // exactly one (row block, token block) cell and is computed
    // independently of the others, so the partition — and the thread
    // count — cannot change a bit of the output.
    //
    // Each task decodes its whole row block once, before its token
    // loop, into the calling thread's decode buffer (exec/scratch.hh).
    // Nothing on this path allocates after warm-up.
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

    ctx.parallelFor(n_tasks, task_cost, [&](std::size_t task) {
        std::size_t rb = task / tblocks, tb = task % tblocks;
        std::size_t o0 = rb * rblock;
        std::size_t o1 = std::min(o0 + rblock, out);
        std::size_t s0 = tb * tblock * tile_w;
        std::size_t s1 = std::min(s0 + tblock * tile_w, seq);
        if (o0 >= o1 || s0 >= s1)
            return;
        std::uint8_t *rows = decodeScratch(o1 - o0, in);
        for (std::size_t o = o0; o < o1; ++o)
            kn.decodePackedRow(weights.packedIndexes.data(),
                               weights.packedIndexes.size(),
                               o * in * weights.bits, weights.bits, in,
                               rows + (o - o0) * in);
        // Token blocks outer, rows inner: one block's activation rows
        // stay cache-resident while the row block streams past them,
        // kRowChunk rows per kernel call.
        constexpr std::size_t kRowChunk = 8;
        float sums[kRowChunk * kMaxSeqTile];
        float ytile[kMaxSeqTile * kRowChunk] = {};
        for (std::size_t b0 = s0; b0 < s1; b0 += tile_w) {
            std::size_t n = std::min(tile_w, s1 - b0);
            const float *xb = x.row(b0).data();
            for (std::size_t c0 = o0; c0 < o1; c0 += kRowChunk) {
                std::size_t nr = std::min(kRowChunk, o1 - c0);
                kn.lutDot(rows + (c0 - o0) * in, nr, in,
                          weights.centroids.data(), k, xb, in, n, sums);
                // Each row's n tokens run side by side through bias
                // and corrections, so their double chains overlap;
                // each (o, s) still adds its terms in row order. The
                // chunk's outputs then go out one token row at a time
                // rather than as n strided column stores.
                for (std::size_t r = 0; r < nr; ++r) {
                    std::size_t o = c0 + r;
                    auto bias_o = static_cast<double>(bias(o));
                    double a[kMaxSeqTile] = {};
                    for (std::size_t l = 0; l < n; ++l)
                        a[l] = bias_o + static_cast<double>(sums[r * n + l]);
                    for (std::size_t t = outlierRowStart[o];
                         t < outlierRowStart[o + 1]; ++t) {
                        auto c = static_cast<double>(outliers[t].correction);
                        const float *xc = xb + outliers[t].column;
                        for (std::size_t l = 0; l < n; ++l)
                            a[l] += c * static_cast<double>(xc[l * in]);
                    }
                    for (std::size_t l = 0; l < n; ++l)
                        ytile[l * kRowChunk + r] = static_cast<float>(a[l]);
                }
                for (std::size_t l = 0; l < n; ++l)
                    std::copy_n(ytile + l * kRowChunk, nr,
                                y.row(b0 + l).data() + c0);
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

std::string
layerLabel(FcKind kind, std::size_t encoder)
{
    return kind == FcKind::Pooler
               ? fcKindName(kind)
               : "enc[" + std::to_string(encoder) + "]." + fcKindName(kind);
}

/** quantizeModel's tensors: fcLayers() order, then the embedding. */
std::vector<QuantizedTensor>
quantizeAll(const BertModel &model, const ModelQuantOptions &options)
{
    std::vector<QuantizedTensor> q(model.config().numFcLayers()
                                   + (options.embeddingBits > 0));
    quantizeModel(model, options,
                  [&](std::size_t i, QuantizedTensor t,
                      const LayerQuantStats &) { q[i] = std::move(t); });
    return q;
}

} // namespace

QuantizedBertModel::QuantizedBertModel(const BertModel &model,
                                       const ModelQuantOptions &options)
    : QuantizedBertModel(model, quantizeAll(model, options))
{
}

QuantizedBertModel::QuantizedBertModel(const BertModel &model,
                                       std::vector<QuantizedTensor> q)
    : cfg(model.config()),
      wordEmbedding(q.size() > cfg.numFcLayers() ? q.back().dequantize()
                                                 : model.wordEmbedding),
      positionEmbedding(model.positionEmbedding),
      embLnGamma(model.embLnGamma),
      embLnBeta(model.embLnBeta),
      pooler(std::move(q[cfg.numFcLayers() - 1]), model.poolerB,
             layerLabel(FcKind::Pooler, cfg.numLayers)),
      headW(model.headW),
      headB(model.headB)
{
    encoders.reserve(model.encoders.size());
    for (std::size_t e = 0; e < model.encoders.size(); ++e) {
        const auto &enc = model.encoders[e];
        auto layer = [&](std::size_t k, const Tensor &bias, FcKind kind) {
            return QuantizedLinear(std::move(q[e * 6 + k]), bias,
                                   layerLabel(kind, e));
        };
        encoders.push_back(EncoderLayers{
            layer(0, enc.queryB, FcKind::Query),
            layer(1, enc.keyB, FcKind::Key),
            layer(2, enc.valueB, FcKind::Value),
            layer(3, enc.attnOutB, FcKind::AttnOutput),
            layer(4, enc.interB, FcKind::Intermediate),
            layer(5, enc.outB, FcKind::Output),
            enc.attnLnGamma, enc.attnLnBeta, enc.outLnGamma,
            enc.outLnBeta});
    }
}

Tensor
QuantizedBertModel::encode(const ExecContext &ctx,
                           std::span<const std::int32_t> token_ids) const
{
    fatalIf(token_ids.empty(), "encode on empty sequence");
    fatalIf(token_ids.size() > cfg.maxPosition, "sequence length ",
            token_ids.size(), " exceeds maxPosition ", cfg.maxPosition);

    Tensor x(token_ids.size(), cfg.hidden);
    {
        ScopedSpan span(ctx.obs, "embed");
        for (std::size_t s = 0; s < token_ids.size(); ++s) {
            auto id = token_ids[s];
            fatalIf(id < 0
                        || static_cast<std::size_t>(id) >= cfg.vocabSize,
                    "token id ", id, " out of vocab ", cfg.vocabSize);
            auto word = wordEmbedding.row(static_cast<std::size_t>(id));
            auto posv = positionEmbedding.row(s);
            auto dst = x.row(s);
            for (std::size_t c = 0; c < dst.size(); ++c)
                dst[c] = word[c] + posv[c];
        }
        layerNormInplace(ctx, x, embLnGamma.flat(), embLnBeta.flat());
    }
    probeActivation(ctx.obs, "embed", x);

    for (std::size_t e = 0; e < encoders.size(); ++e) {
        const auto &enc = encoders[e];
        ScopedSpan layer_span(ctx.obs, "layer", e);
        Tensor a;
        {
            ScopedSpan span(ctx.obs, "attention");
            Tensor q = enc.query.forward(ctx, x);
            Tensor k = enc.key.forward(ctx, x);
            Tensor v = enc.value.forward(ctx, x);
            Tensor attn_ctx =
                multiHeadAttention(ctx, q, k, v, cfg.numHeads);
            Tensor attn_out = enc.attnOut.forward(ctx, attn_ctx);
            a = add(x, attn_out);
        }
        {
            ScopedSpan span(ctx.obs, "layernorm");
            layerNormInplace(ctx, a, enc.attnLnGamma.flat(),
                             enc.attnLnBeta.flat());
        }

        Tensor y;
        {
            ScopedSpan span(ctx.obs, "ffn");
            Tensor inter = enc.inter.forward(ctx, a);
            geluInplace(ctx, inter);
            Tensor out = enc.out.forward(ctx, inter);
            y = add(a, out);
        }
        {
            ScopedSpan span(ctx.obs, "layernorm");
            layerNormInplace(ctx, y, enc.outLnGamma.flat(),
                             enc.outLnBeta.flat());
        }
        x = std::move(y);
        if (probeAttached(ctx.obs))
            probeActivation(ctx.obs,
                            "layer[" + std::to_string(e) + "]", x);
    }
    return x;
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
    Tensor hidden = encode(ctx, token_ids);
    Tensor first(1, hidden.cols());
    auto src = hidden.row(0);
    std::copy(src.begin(), src.end(), first.row(0).begin());
    Tensor pooled = pooler.forward(ctx, first);
    tanhInplace(ctx, pooled);
    Tensor logits2d = linear(ctx, pooled, headW, headB);
    Tensor logits(logits2d.cols());
    auto row = logits2d.row(0);
    std::copy(row.begin(), row.end(), logits.flat().begin());
    return logits;
}

Tensor
QuantizedBertModel::classify(std::span<const std::int32_t> token_ids) const
{
    return classify(ExecContext::serial(), token_ids);
}

OpCounts
QuantizedBertModel::opCounts(std::size_t seq) const
{
    OpCounts total;
    for (const auto &enc : encoders) {
        total += enc.query.opCounts(seq);
        total += enc.key.opCounts(seq);
        total += enc.value.opCounts(seq);
        total += enc.attnOut.opCounts(seq);
        total += enc.inter.opCounts(seq);
        total += enc.out.opCounts(seq);
    }
    total += pooler.opCounts(1);
    return total;
}

OpCounts
QuantizedBertModel::denseOpCounts(std::size_t seq) const
{
    OpCounts total;
    for (const auto &enc : encoders) {
        total += enc.query.denseOpCounts(seq);
        total += enc.key.denseOpCounts(seq);
        total += enc.value.denseOpCounts(seq);
        total += enc.attnOut.denseOpCounts(seq);
        total += enc.inter.denseOpCounts(seq);
        total += enc.out.denseOpCounts(seq);
    }
    total += pooler.denseOpCounts(1);
    return total;
}

std::size_t
QuantizedBertModel::compressedWeightBytes() const
{
    std::size_t bytes = 0;
    for (const auto &enc : encoders) {
        bytes += enc.query.compressed().payloadBytes();
        bytes += enc.key.compressed().payloadBytes();
        bytes += enc.value.compressed().payloadBytes();
        bytes += enc.attnOut.compressed().payloadBytes();
        bytes += enc.inter.compressed().payloadBytes();
        bytes += enc.out.compressed().payloadBytes();
    }
    bytes += pooler.compressed().payloadBytes();
    return bytes;
}

void
QuantizedBertModel::forEachLayer(
    const std::function<void(const QuantizedLinear &)> &fn) const
{
    for (const auto &enc : encoders) {
        fn(enc.query);
        fn(enc.key);
        fn(enc.value);
        fn(enc.attnOut);
        fn(enc.inter);
        fn(enc.out);
    }
    fn(pooler);
}

std::size_t
QuantizedBertModel::residentWeightBytes() const
{
    std::size_t bytes = 0;
    for (const auto &enc : encoders) {
        bytes += enc.query.residentBytes();
        bytes += enc.key.residentBytes();
        bytes += enc.value.residentBytes();
        bytes += enc.attnOut.residentBytes();
        bytes += enc.inter.residentBytes();
        bytes += enc.out.residentBytes();
    }
    bytes += pooler.residentBytes();
    return bytes;
}

} // namespace gobo
