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
#include "util/bitstream.hh"
#include "util/logging.hh"

namespace gobo {

QuantizedLinear::QuantizedLinear(QuantizedTensor w, Tensor b,
                                 WeightFormat format, std::string name)
    : weights(std::move(w)), bias(std::move(b)), fmt(format),
      label(std::move(name)), scratchId(nextScratchOwnerId())
{
    weights.check();
    fatalIf(bias.size() != weights.rows, "QuantizedLinear bias size ",
            bias.size(), " != out features ", weights.rows);

    if (fmt == WeightFormat::Unpacked) {
        // Widen the index stream once; B <= 8 so a byte per weight.
        auto idx32 = unpackIndexes(weights.packedIndexes, weights.bits,
                                   weights.elementCount());
        indexes.reserve(idx32.size());
        for (auto v : idx32)
            indexes.push_back(static_cast<std::uint8_t>(v));
    }

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

void
QuantizedLinear::decodeRow(const KernelSet &kn, std::size_t row,
                           std::uint8_t *out) const
{
    const std::size_t n = weights.cols;
    kn.decodePackedRow(weights.packedIndexes.data(),
                       weights.packedIndexes.size(),
                       row * n * weights.bits, weights.bits, n, out);
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
        if (fmt == WeightFormat::Unpacked)
            obs->metrics.add(obs->qexecDecodeUnpacked);
        else if (8 % weights.bits == 0)
            obs->metrics.add(obs->qexecDecodeLut);
        else if (weights.bits == 3)
            obs->metrics.add(obs->qexecDecodeGroup24);
        else
            obs->metrics.add(obs->qexecDecodeScalar);
        if (fmt == WeightFormat::Packed)
            obs->metrics.add(obs->qexecRowsDecoded, out);

        // Per-layer mirrors of the traffic counters, keyed by the span
        // label — the measured inputs of memsim's per-layer energy
        // attribution (obs/audit.hh).
        const Observer::QexecLayerIds &lids = obs->layerIds(label);
        obs->metrics.add(lids.forwards);
        obs->metrics.add(lids.bytesStreamed, residentBytes());
        obs->metrics.add(lids.outlierCorrections,
                         seq * outliers.size());
        if (fmt == WeightFormat::Packed)
            obs->metrics.add(lids.rowsDecoded, out);
    }

    // Token-blocked execution: each lutDot call runs a chunk of weight
    // rows against up to seqTile tokens (the executing tier's register
    // block, 8 for generic/avx2 and 16 for avx512), straight off the
    // untransposed activation rows — one decoded index vector serves
    // every token of the block. Every y(s, o) follows the lutDot
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
    // For Packed layers the whole row block is decoded into the
    // calling thread's scratch arena (exec/scratch.hh), whose
    // multi-slot cache lets consecutive token-block tasks of one row
    // block decode it only once. Nothing on this path allocates after
    // warm-up.
    bool packed = fmt == WeightFormat::Packed;
    const Observer::QexecLayerIds *lids_ptr =
        ctx.obs && packed ? &ctx.obs->layerIds(label) : nullptr;
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
        const std::uint8_t *rows = nullptr;
        if (packed) {
            struct DecodeCtx
            {
                const QuantizedLinear *layer;
                const KernelSet *kn;
            } dctx{this, &kn};
            bool hit = false;
            rows = execScratch().decodedRows(
                scratchId, rb, o0, o1, in,
                [](const void *c, std::size_t row, std::uint8_t *dst) {
                    const auto *d = static_cast<const DecodeCtx *>(c);
                    d->layer->decodeRow(*d->kn, row, dst);
                },
                &dctx, &hit);
            // Sharded counters are thread-safe, so tasks report their
            // cache outcome directly (in rows, matching rows_decoded).
            if (lids_ptr)
                ctx.obs->metrics.add(hit ? lids_ptr->decodeCacheHits
                                         : lids_ptr->decodeCacheMisses,
                                     o1 - o0);
        }
        // Token blocks outer, rows inner: one block's activation rows
        // stay cache-resident while the row block streams past them,
        // kRowChunk rows per kernel call.
        constexpr std::size_t kRowChunk = 8;
        float sums[kRowChunk * kMaxSeqTile];
        for (std::size_t b0 = s0; b0 < s1; b0 += tile_w) {
            std::size_t n = std::min(tile_w, s1 - b0);
            for (std::size_t c0 = o0; c0 < o1; c0 += kRowChunk) {
                std::size_t nr = std::min(kRowChunk, o1 - c0);
                const std::uint8_t *irows = packed
                                                ? rows + (c0 - o0) * in
                                                : indexes.data() + c0 * in;
                kn.lutDot(irows, nr, in, weights.centroids.data(), k,
                          x.row(b0).data(), in, n, sums);
                for (std::size_t r = 0; r < nr; ++r) {
                    std::size_t o = c0 + r;
                    const OutlierTerm *terms =
                        outliers.data() + outlierRowStart[o];
                    std::size_t n_terms =
                        outlierRowStart[o + 1] - outlierRowStart[o];
                    auto bias_o = static_cast<double>(bias(o));
                    for (std::size_t l = 0; l < n; ++l) {
                        const float *xrow = x.row(b0 + l).data();
                        double a =
                            bias_o + static_cast<double>(sums[r * n + l]);
                        for (std::size_t t = 0; t < n_terms; ++t)
                            a += static_cast<double>(terms[t].correction)
                                 * static_cast<double>(
                                     xrow[terms[t].column]);
                        y.row(b0 + l).data()[o] = static_cast<float>(a);
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
    std::size_t n = weights.elementCount();
    std::size_t c = weights.centroids.size();
    std::size_t o = outliers.size();
    return fmt == WeightFormat::Packed
               ? packedResidentBytes(n, weights.bits, c, o)
               : unpackedResidentBytes(n, c, o);
}

namespace {

QuantizedLinear
makeLayer(const Tensor &w, const Tensor &b, FcKind kind,
          std::size_t encoder, const ModelQuantOptions &options)
{
    GoboConfig cfg = options.base;
    cfg.bits = options.effectiveBits(kind, encoder);
    std::string label =
        kind == FcKind::Pooler
            ? fcKindName(kind)
            : "enc[" + std::to_string(encoder) + "]." + fcKindName(kind);
    return {quantizeTensor(w, cfg), b, options.format,
            std::move(label)};
}

} // namespace

QuantizedBertModel::QuantizedBertModel(const BertModel &model,
                                       const ModelQuantOptions &options)
    : cfg(model.config()),
      fmt(options.format),
      wordEmbedding(model.wordEmbedding),
      positionEmbedding(model.positionEmbedding),
      embLnGamma(model.embLnGamma),
      embLnBeta(model.embLnBeta),
      pooler(makeLayer(model.poolerW, model.poolerB, FcKind::Pooler,
                       model.config().numLayers, options)),
      headW(model.headW),
      headB(model.headB)
{
    if (options.embeddingBits > 0) {
        GoboConfig ecfg = options.base;
        ecfg.bits = options.embeddingBits;
        wordEmbedding = quantizeTensor(model.wordEmbedding, ecfg)
                            .dequantize();
    }
    encoders.reserve(model.encoders.size());
    for (std::size_t e = 0; e < model.encoders.size(); ++e) {
        const auto &enc = model.encoders[e];
        encoders.push_back(EncoderLayers{
            makeLayer(enc.queryW, enc.queryB, FcKind::Query, e, options),
            makeLayer(enc.keyW, enc.keyB, FcKind::Key, e, options),
            makeLayer(enc.valueW, enc.valueB, FcKind::Value, e, options),
            makeLayer(enc.attnOutW, enc.attnOutB, FcKind::AttnOutput, e,
                      options),
            makeLayer(enc.interW, enc.interB, FcKind::Intermediate, e,
                      options),
            makeLayer(enc.outW, enc.outB, FcKind::Output, e, options),
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
