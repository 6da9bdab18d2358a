/**
 * @file
 * InferenceSession — the serving entry point over the execution stack.
 *
 * A session owns a model (FP32 BertModel or compressed-domain
 * QuantizedBertModel) together with the ExecContext it runs under, and
 * exposes single-sequence and batched forward passes. Both engines run
 * the one nn/encoder forward; the engine only picks its FC step.
 * Batched calls
 * parallelize *across* sequences on the context's pool, and each
 * per-sequence forward keeps its own intra-sequence parallelism: the
 * pool composes the two levels by sharing nested submissions onto the
 * worker deques, so when sequence lengths are skewed the threads that
 * finish short sequences steal tile tasks from the long ones instead
 * of idling. Composition only moves work between threads, so batch
 * results stay bit-identical to one-at-a-time calls (and to one
 * thread) — the determinism contract DESIGN.md §12 documents. The CLI
 * `infer`/`serve` commands, the examples, and perfbench/ all drive
 * inference through this class instead of ad-hoc encoder calls.
 */

#ifndef GOBO_EXEC_SESSION_HH
#define GOBO_EXEC_SESSION_HH

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/qexec.hh"
#include "exec/context.hh"
#include "model/model.hh"
#include "tensor/tensor.hh"

namespace gobo {

/** A batch of token sequences. */
using TokenBatch = std::vector<std::vector<std::int32_t>>;

/**
 * Total tokens across a batch — the sum of per-sequence lengths, NOT
 * batch.size() * batch[0].size(): mixed-length batches are the norm
 * under serving load, and throughput computed from the first
 * sequence's length is simply wrong there. Every tokens/sec report
 * over a TokenBatch goes through this.
 */
inline std::size_t
batchTokens(const TokenBatch &batch)
{
    std::size_t tokens = 0;
    for (const auto &seq : batch)
        tokens += seq.size();
    return tokens;
}

/** A model + execution context bound together for repeated inference. */
class InferenceSession
{
  public:
    /** Serve an FP32 model under `ctx`. */
    InferenceSession(BertModel model, ExecContext ctx = {});

    /** Serve a compressed-domain model under `ctx`. */
    InferenceSession(QuantizedBertModel model, ExecContext ctx = {});

    /** True when executing from the compressed format. */
    bool compressed() const { return quantized.has_value(); }

    /**
     * Bytes of FC-weight state the forward pass streams: FP32 weights
     * for the dense engine, the packed index stream plus
     * centroid/outlier state for the compressed one.
     */
    std::size_t residentWeightBytes() const;

    const ExecContext &context() const { return ctx; }

    /** Rebind the execution context (e.g. to change thread count). */
    void setContext(ExecContext c) { ctx = c; }

    /**
     * The FP32 model, for callers that need weight access (task
     * harness). Fatal on a compressed session.
     */
    const BertModel &model() const;

    const ModelConfig &config() const;

    /** Classification-head logits [outputs] for one sequence. */
    Tensor headLogits(std::span<const std::int32_t> tokens) const;

    /** Hidden states [seq, hidden] per sequence, parallel across them. */
    std::vector<Tensor> encodeBatch(const TokenBatch &batch) const;

    /** headLogits over a batch, parallel across sequences. */
    std::vector<Tensor> headLogitsBatch(const TokenBatch &batch) const;

    /**
     * headLogitsBatch with request correlation: `requestIds[i]` is
     * stamped onto lane i's "sequence" trace span as a "request" arg,
     * so a serve tile's per-lane spans link back to the requests they
     * served. Ids are observability-only — the math and scheduling
     * are identical to the overload above. Must match batch.size().
     */
    std::vector<Tensor>
    headLogitsBatch(const TokenBatch &batch,
                    std::span<const std::uint64_t> requestIds) const;

  private:
    /**
     * What the shared nn/encoder forward runs on: the parameters it
     * reads directly (every one but the FC weights) and the engine's
     * FC step — the one place the two engines differ.
     */
    const BertModel &parameters() const;
    FcStep fcStep() const;

    ExecContext ctx;
    std::optional<BertModel> fp32;
    std::optional<QuantizedBertModel> quantized;
};

} // namespace gobo

#endif // GOBO_EXEC_SESSION_HH
