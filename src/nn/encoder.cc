#include "nn/encoder.hh"

#include <cmath>
#include <iterator>

#include "kernels/kernels.hh"
#include "obs/observer.hh"
#include "obs/probe.hh"
#include "tensor/ops.hh"
#include "util/logging.hh"

namespace gobo {

Tensor
embedTokens(const ExecContext &ctx, const BertModel &model,
            std::span<const std::int32_t> token_ids)
{
    const auto &cfg = model.config();
    fatalIf(token_ids.empty(), "embedTokens on empty sequence");
    fatalIf(token_ids.size() > cfg.maxPosition, "sequence length ",
            token_ids.size(), " exceeds maxPosition ", cfg.maxPosition);

    Tensor x(token_ids.size(), cfg.hidden);
    for (std::size_t s = 0; s < token_ids.size(); ++s) {
        auto id = token_ids[s];
        fatalIf(id < 0 || static_cast<std::size_t>(id) >= cfg.vocabSize,
                "token id ", id, " out of vocab ", cfg.vocabSize);
        auto word = model.wordEmbedding.row(static_cast<std::size_t>(id));
        auto posv = model.positionEmbedding.row(s);
        auto dst = x.row(s);
        for (std::size_t c = 0; c < dst.size(); ++c)
            dst[c] = word[c] + posv[c];
    }
    layerNormInplace(ctx, x, model.embLnGamma.flat(),
                     model.embLnBeta.flat());
    return x;
}

Tensor
embedTokens(const BertModel &model, std::span<const std::int32_t> token_ids)
{
    return embedTokens(ExecContext::serial(), model, token_ids);
}

Tensor
multiHeadAttention(const ExecContext &ectx, const Tensor &q,
                   const Tensor &k, const Tensor &v,
                   std::size_t num_heads)
{
    std::size_t seq = q.rows(), h = q.cols();
    panicIf(h % num_heads != 0, "hidden not divisible by heads");
    std::size_t dh = h / num_heads;
    float scale = 1.0f / std::sqrt(static_cast<float>(dh));

    const KernelSet &kn = resolveKernels(ectx.kernels);
    Tensor ctx(seq, h);
    // Heads are independent: each owns the column slice
    // [head*dh, (head+1)*dh) of ctx and scores only itself, so
    // dispatching heads to the backend is race-free and order
    // preserving per element. The score dot, the row softmax and the
    // value accumulation (an axpy per attended token) all go through
    // the caller's kernel tier so one forward never mixes tiers.
    // Cost hint: per head, seq^2 score dots + softmax + value axpys,
    // ~4*seq*seq*dh flops — tiny attention blocks stay inline.
    ectx.parallelFor(num_heads, 4 * seq * seq * dh,
                     [&](std::size_t head) {
        Tensor scores(seq, seq);
        std::size_t off = head * dh;
        for (std::size_t i = 0; i < seq; ++i) {
            const float *qi = q.row(i).data() + off;
            float *srow = scores.row(i).data();
            for (std::size_t j = 0; j < seq; ++j) {
                const float *kj = k.row(j).data() + off;
                srow[j] = kn.dot(0.0f, qi, kj, dh) * scale;
            }
        }
        for (std::size_t i = 0; i < seq; ++i)
            kn.softmaxRow(scores.row(i).data(), seq);
        for (std::size_t i = 0; i < seq; ++i) {
            const float *srow = scores.row(i).data();
            float *crow = ctx.row(i).data() + off;
            for (std::size_t j = 0; j < seq; ++j)
                kn.axpy(srow[j], v.row(j).data() + off, crow, dh);
        }
    });
    return ctx;
}

Tensor
multiHeadAttention(const Tensor &q, const Tensor &k, const Tensor &v,
                   std::size_t num_heads)
{
    return multiHeadAttention(ExecContext::serial(), q, k, v, num_heads);
}

namespace {

/** One encoder layer whose FC layers are `fc`'s first .. first + 5. */
Tensor
encoderLayer(const ExecContext &ectx, const EncoderWeights &enc,
             const Tensor &hidden, std::size_t num_heads, const FcStep &fc,
             std::size_t first)
{
    auto step = [&](std::size_t k, const Tensor &x) {
        return fc(ectx, first + k, x);
    };
    // Spans bracket whole components; they never reorder or touch the
    // arithmetic, so traced and untraced runs are bit-identical.
    Tensor x;
    {
        ScopedSpan span(ectx.obs, "attention");
        Tensor q = step(0, hidden);
        Tensor k = step(1, hidden);
        Tensor v = step(2, hidden);
        Tensor ctx = multiHeadAttention(ectx, q, k, v, num_heads);
        Tensor attn_out = step(3, ctx);
        x = add(hidden, attn_out);
    }
    {
        ScopedSpan span(ectx.obs, "layernorm");
        layerNormInplace(ectx, x, enc.attnLnGamma.flat(),
                         enc.attnLnBeta.flat());
    }

    Tensor y;
    {
        ScopedSpan span(ectx.obs, "ffn");
        // Intermediate component.
        Tensor inter = step(4, x);
        geluInplace(ectx, inter);
        // Output component.
        Tensor out = step(5, inter);
        y = add(x, out);
    }
    {
        ScopedSpan span(ectx.obs, "layernorm");
        layerNormInplace(ectx, y, enc.outLnGamma.flat(),
                         enc.outLnBeta.flat());
    }
    return y;
}

/** The pooler: the first token through FC layer `layer` + tanh. */
Tensor
poolFirst(const ExecContext &ctx, const Tensor &hidden, const FcStep &fc,
          std::size_t layer)
{
    fatalIf(hidden.rows() == 0, "pool on empty hidden state");
    Tensor first(1, hidden.cols());
    auto src = hidden.row(0);
    auto dst = first.row(0);
    std::copy(src.begin(), src.end(), dst.begin());
    Tensor pooled = fc(ctx, layer, first);
    tanhInplace(ctx, pooled);
    return pooled;
}

} // namespace

FcStep
denseFc(const BertModel &model)
{
    return [&model](const ExecContext &ctx, std::size_t layer,
                    const Tensor &x) {
        std::size_t e = layer / std::size(encoderFcs);
        if (e == model.encoders.size())
            return linear(ctx, x, model.poolerW, model.poolerB);
        const EncoderFc &f = encoderFcs[layer % std::size(encoderFcs)];
        return linear(ctx, x, model.encoders[e].*f.weight,
                      model.encoders[e].*f.bias);
    };
}

Tensor
encoderForward(const ExecContext &ectx, const EncoderWeights &enc,
               const Tensor &hidden, std::size_t num_heads)
{
    FcStep own = [&enc](const ExecContext &ctx, std::size_t k,
                        const Tensor &x) {
        return linear(ctx, x, enc.*encoderFcs[k].weight,
                      enc.*encoderFcs[k].bias);
    };
    return encoderLayer(ectx, enc, hidden, num_heads, own, 0);
}

Tensor
encoderForward(const EncoderWeights &enc, const Tensor &hidden,
               std::size_t num_heads)
{
    return encoderForward(ExecContext::serial(), enc, hidden, num_heads);
}

Tensor
encodeSequence(const ExecContext &ctx, const BertModel &model,
               std::span<const std::int32_t> token_ids, const FcStep &fc)
{
    Tensor x;
    {
        ScopedSpan span(ctx.obs, "embed");
        x = embedTokens(ctx, model, token_ids);
    }
    probeActivation(ctx.obs, "embed", x);
    for (std::size_t e = 0; e < model.encoders.size(); ++e) {
        {
            ScopedSpan span(ctx.obs, "layer", e);
            x = encoderLayer(ctx, model.encoders[e], x,
                             model.config().numHeads, fc,
                             e * std::size(encoderFcs));
        }
        if (probeAttached(ctx.obs))
            probeActivation(ctx.obs,
                            "layer[" + std::to_string(e) + "]", x);
    }
    return x;
}

Tensor
encodeSequence(const ExecContext &ctx, const BertModel &model,
               std::span<const std::int32_t> token_ids)
{
    return encodeSequence(ctx, model, token_ids, denseFc(model));
}

Tensor
encodeSequence(const BertModel &model,
               std::span<const std::int32_t> token_ids)
{
    return encodeSequence(ExecContext::serial(), model, token_ids);
}

Tensor
pool(const ExecContext &ctx, const BertModel &model, const Tensor &hidden)
{
    return poolFirst(ctx, hidden, denseFc(model),
                     model.config().numFcLayers() - 1);
}

Tensor
pool(const BertModel &model, const Tensor &hidden)
{
    return pool(ExecContext::serial(), model, hidden);
}

Tensor
headLogits(const ExecContext &ctx, const BertModel &model,
           const Tensor &pooled)
{
    Tensor logits2d = linear(ctx, pooled, model.headW, model.headB);
    Tensor logits(logits2d.cols());
    auto src = logits2d.row(0);
    std::copy(src.begin(), src.end(), logits.flat().begin());
    return logits;
}

Tensor
headLogits(const BertModel &model, const Tensor &pooled)
{
    return headLogits(ExecContext::serial(), model, pooled);
}

Tensor
classify(const ExecContext &ctx, const BertModel &model,
         std::span<const std::int32_t> token_ids, const FcStep &fc)
{
    Tensor hidden = encodeSequence(ctx, model, token_ids, fc);
    Tensor pooled =
        poolFirst(ctx, hidden, fc, model.config().numFcLayers() - 1);
    return headLogits(ctx, model, pooled);
}

Tensor
spanLogits(const ExecContext &ctx, const BertModel &model,
           const Tensor &hidden)
{
    fatalIf(model.headW.rows() != 2,
            "span head needs a [2, hidden] headW, got ",
            model.headW.rows(), " rows");
    return linear(ctx, hidden, model.headW, model.headB);
}

Tensor
spanLogits(const BertModel &model, const Tensor &hidden)
{
    return spanLogits(ExecContext::serial(), model, hidden);
}

} // namespace gobo
