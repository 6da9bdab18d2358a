#include "exec/session.hh"

#include "nn/encoder.hh"
#include "obs/observer.hh"
#include "obs/probe.hh"
#include "util/logging.hh"

namespace gobo {

namespace {

/**
 * RAII sequence accounting: tokens + sequence count on entry, latency
 * histogram on exit. A null observer costs one branch at each end.
 */
class SequenceProbe
{
  public:
    SequenceProbe(Observer *obs, std::size_t tokens) : obs(obs)
    {
        if (obs) {
            obs->metrics.add(obs->sessionSequences);
            obs->metrics.add(obs->sessionTokens, tokens);
            beginUs = obs->tracer.nowUs();
        }
    }

    SequenceProbe(const SequenceProbe &) = delete;
    SequenceProbe &operator=(const SequenceProbe &) = delete;

    ~SequenceProbe()
    {
        if (obs)
            obs->metrics.observe(obs->sequenceLatencyUs,
                                 obs->tracer.nowUs() - beginUs);
    }

  private:
    Observer *obs;
    double beginUs = 0.0;
};

/** Batch-level counterpart: batch counter + batch-latency histogram
 * wrapped around a span covering the whole batched call. */
class BatchProbe
{
  public:
    BatchProbe(Observer *obs, const char *name)
        : obs(obs), span(obs, name)
    {
        if (obs) {
            obs->metrics.add(obs->sessionBatches);
            beginUs = obs->tracer.nowUs();
        }
    }

    BatchProbe(const BatchProbe &) = delete;
    BatchProbe &operator=(const BatchProbe &) = delete;

    ~BatchProbe()
    {
        if (obs)
            obs->metrics.observe(obs->batchLatencyUs,
                                 obs->tracer.nowUs() - beginUs);
    }

  private:
    Observer *obs;
    ScopedSpan span;
    double beginUs = 0.0;
};

} // namespace

InferenceSession::InferenceSession(BertModel model, ExecContext c)
    : ctx(c), fp32(std::move(model))
{
}

InferenceSession::InferenceSession(QuantizedBertModel model,
                                   ExecContext c)
    : ctx(c), quantized(std::move(model))
{
}

const BertModel &
InferenceSession::model() const
{
    fatalIf(!fp32, "InferenceSession::model() on a compressed session");
    return *fp32;
}

std::size_t
InferenceSession::residentWeightBytes() const
{
    if (quantized)
        return quantized->residentWeightBytes();
    return fp32->config().fcWeightParams() * sizeof(float);
}

const ModelConfig &
InferenceSession::config() const
{
    return fp32 ? fp32->config() : quantized->config();
}

const BertModel &
InferenceSession::parameters() const
{
    return fp32 ? *fp32 : quantized->fp32Parameters();
}

FcStep
InferenceSession::fcStep() const
{
    return fp32 ? denseFc(*fp32) : quantized->fcStep();
}

Tensor
InferenceSession::headLogits(std::span<const std::int32_t> tokens) const
{
    SequenceProbe probe(ctx.obs, tokens.size());
    ScopedSpan span(ctx.obs, "session.headLogits");
    Tensor logits = classify(ctx, parameters(), tokens, fcStep());
    // Both engines emit at the same point, so a Capture run on the
    // FP32 session pairs with a Compare run on the quantized one.
    probeActivation(ctx.obs, "logits", logits);
    return logits;
}

// Batched calls hand the session's context to each per-sequence
// forward unchanged: its loops become nested pool submissions that
// threads done with shorter sequences steal. Scheduling never touches
// reduction order, so results match one-at-a-time calls bit for bit.

std::vector<Tensor>
InferenceSession::encodeBatch(const TokenBatch &batch) const
{
    BatchProbe probe(ctx.obs, "session.encodeBatch");
    const BertModel &params = parameters();
    const FcStep fc = fcStep();
    std::vector<Tensor> out(batch.size());
    ctx.parallelFor(batch.size(), [&](std::size_t i) {
        SequenceProbe seq_probe(ctx.obs, batch[i].size());
        ScopedSpan span(ctx.obs, "sequence", i);
        out[i] = encodeSequence(ctx, params, batch[i], fc);
    });
    return out;
}

std::vector<Tensor>
InferenceSession::headLogitsBatch(const TokenBatch &batch) const
{
    return headLogitsBatch(batch, {});
}

std::vector<Tensor>
InferenceSession::headLogitsBatch(
    const TokenBatch &batch,
    std::span<const std::uint64_t> requestIds) const
{
    fatalIf(!requestIds.empty() && requestIds.size() != batch.size(),
            "headLogitsBatch: ", requestIds.size(), " request ids for ",
            batch.size(), " sequences");
    BatchProbe probe(ctx.obs, "session.headLogitsBatch");
    const BertModel &params = parameters();
    const FcStep fc = fcStep();
    std::vector<Tensor> out(batch.size());
    ctx.parallelFor(batch.size(), [&](std::size_t i) {
        SequenceProbe seq_probe(ctx.obs, batch[i].size());
        ScopedSpan span(ctx.obs, "sequence", i);
        if (!requestIds.empty())
            span.arg("request", requestIds[i]);
        out[i] = classify(ctx, params, batch[i], fc);
    });
    return out;
}

} // namespace gobo
