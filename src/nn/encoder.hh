/**
 * @file
 * Forward-only transformer encoder (the BERT execution engine).
 *
 * Implements Fig. 1a of the paper: per encoder, an Attention component
 * (query/key/value projections, scaled dot-product multi-head
 * attention, output projection, residual + layer norm), an Intermediate
 * component (FFN up-projection with GELU) and an Output component
 * (down-projection, residual + layer norm); an embedding front end and
 * the Pooler after the last encoder. Everything consumes plain FP32
 * tensors, which is what makes decoded GOBO models plug-in compatible.
 *
 * The forward takes its FC step as a plain callable (FcStep): that one
 * step is all that differs between the FP32 engine (linear() over the
 * model's own weights, denseFc) and the packed engine
 * (QuantizedLinear::forward, core/qexec.hh). Embedding, attention,
 * layer norms, GELU, residuals, pooler tanh and head are shared.
 *
 * Each stage takes an ExecContext: projections and norms dispatch
 * row-blocked across the context's threads, and multi-head attention
 * parallelizes over heads (each head owns a disjoint column slice of
 * the context tensor and its own score buffer). The context-free
 * overloads run serially; every thread count is bit-identical (see
 * DESIGN.md §7).
 */

#ifndef GOBO_NN_ENCODER_HH
#define GOBO_NN_ENCODER_HH

#include <cstdint>
#include <functional>
#include <span>

#include "exec/context.hh"
#include "model/model.hh"
#include "tensor/tensor.hh"

namespace gobo {

/**
 * One FC output, y = x W^T + b ([seq, out] from x [seq, in]), for FC
 * layer `layer` numbered in BertModel::fcLayers() order: encoder e's
 * layers are 6e .. 6e + 5 (encoderFcs order), the pooler is
 * 6 * numLayers.
 */
using FcStep = std::function<Tensor(const ExecContext &ctx,
                                    std::size_t layer, const Tensor &x)>;

/** The FP32 engine's step: linear() over `model`'s FC weights. */
FcStep denseFc(const BertModel &model);

/**
 * Embedding front end: word embedding + position embedding, then the
 * embedding layer norm. Token ids must be < vocabSize and the sequence
 * no longer than maxPosition.
 */
Tensor embedTokens(const ExecContext &ctx, const BertModel &model,
                   std::span<const std::int32_t> token_ids);
Tensor embedTokens(const BertModel &model,
                   std::span<const std::int32_t> token_ids);

/**
 * Multi-head scaled dot-product attention over pre-projected Q, K, V
 * ([seq, h] each); heads are contiguous column slices of width
 * h / num_heads. Exposed so alternative execution engines (e.g. the
 * compressed-domain QuantizedBertModel) can share the exact attention
 * arithmetic.
 */
Tensor multiHeadAttention(const ExecContext &ctx, const Tensor &q,
                          const Tensor &k, const Tensor &v,
                          std::size_t num_heads);
Tensor multiHeadAttention(const Tensor &q, const Tensor &k,
                          const Tensor &v, std::size_t num_heads);

/**
 * One encoder layer: multi-head self-attention and FFN with residuals
 * and layer norms, as in Fig. 1a, on `enc`'s own FC weights.
 */
Tensor encoderForward(const ExecContext &ctx, const EncoderWeights &enc,
                      const Tensor &hidden, std::size_t num_heads);
Tensor encoderForward(const EncoderWeights &enc, const Tensor &hidden,
                      std::size_t num_heads);

/**
 * Run the embedding front end and the whole encoder stack. `model`
 * supplies every FP32 parameter but the FC weights, which only `fc`
 * reads; the overload without it runs denseFc(model).
 */
Tensor encodeSequence(const ExecContext &ctx, const BertModel &model,
                      std::span<const std::int32_t> token_ids,
                      const FcStep &fc);
Tensor encodeSequence(const ExecContext &ctx, const BertModel &model,
                      std::span<const std::int32_t> token_ids);
Tensor encodeSequence(const BertModel &model,
                      std::span<const std::int32_t> token_ids);

/** The BERT pooler: first token through a Linear + tanh. Returns [1,h]. */
Tensor pool(const ExecContext &ctx, const BertModel &model,
            const Tensor &hidden);
Tensor pool(const BertModel &model, const Tensor &hidden);

/** Task-head logits over the pooled vector. Returns [outputs]. */
Tensor headLogits(const ExecContext &ctx, const BertModel &model,
                  const Tensor &pooled);
Tensor headLogits(const BertModel &model, const Tensor &pooled);

/**
 * The whole classification forward — embed, encoder stack, pooler,
 * head — with every FC output computed by `fc`. Returns [outputs].
 */
Tensor classify(const ExecContext &ctx, const BertModel &model,
                std::span<const std::int32_t> token_ids, const FcStep &fc);

/**
 * Span-extraction logits (SQuAD-like head): per-token start and end
 * scores. headW must be [2, hidden]; returns [seq, 2].
 */
Tensor spanLogits(const ExecContext &ctx, const BertModel &model,
                  const Tensor &hidden);
Tensor spanLogits(const BertModel &model, const Tensor &hidden);

} // namespace gobo

#endif // GOBO_NN_ENCODER_HH
